"""Independent reference computations used by the tests.

Everything here deliberately avoids the code paths under test: surface
evaluation uses de Casteljau recursion (the package uses Bernstein-row
contraction), polynomial derivatives are taken on monomial coefficients
directly, curvature comes from the closed-form graph-surface formulas
or from scalar index loops over the tensor components (the package
contracts whole arrays), stencils are calibrated one offset at a time
and assembled one sample at a time (the package bisects all offsets of
a patch at once and evaluates each distinct point once), convolutions
loop over output positions (the package contracts a window view once),
and gradients come from central finite differences of the scalar loss.
"""

import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from wingcp.bezier import SurfacePoint
from wingcp.errors import DegenerateMetric, StencilOutOfPatch
from wingcp.model import loss_mse

# ---------------------------------------------------------------------------
# de Casteljau evaluation and finite-difference jets
# ---------------------------------------------------------------------------


def _dc_reduce(points, t):
    """One full de Casteljau reduction along axis 0."""
    pts = points
    while pts.shape[0] > 1:
        pts = (1.0 - t) * pts[:-1] + t * pts[1:]
    return pts[0]


def eval_surface_dc(ctrl, u, v, dtype=np.longdouble):
    """Evaluate a tensor-product Bezier surface by de Casteljau, row then column.

    Accepts parameters slightly outside [0, 1]; the lerp recursion
    extrapolates polynomially, which the FD stencils near the interior
    never need anyway.
    """
    pts = np.asarray(ctrl, dtype=dtype)
    row = _dc_reduce(pts, dtype(u))  # (n+1, 3)
    return _dc_reduce(row, dtype(v))  # (3,)


def _central_stencil(order, points=7):
    """Exact rational weights of a centered FD stencil.

    Solved from sum_i w_i o_i^k / k! = delta_{k,order} over Fractions,
    so an n-point stencil differentiates polynomials of degree < n
    exactly at any step size. Order 0 degenerates to a single point.
    """
    if order == 0:
        return ((0, Fraction(1)),)
    half = points // 2
    offsets = list(range(-half, half + 1))
    n = len(offsets)
    # build and solve the Vandermonde-style system in exact arithmetic
    aug = []
    fact = [Fraction(1)] * n
    for k in range(1, n):
        fact[k] = fact[k - 1] * k
    for k in range(n):
        row = [Fraction(o) ** k / fact[k] for o in offsets]
        row.append(Fraction(1) if k == order else Fraction(0))
        aug.append(row)
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple((o, aug[i][n]) for i, o in enumerate(offsets) if aug[i][n] != 0)


_STENCILS = {order: _central_stencil(order) for order in range(4)}


def _eval_surface_mp(ctrl_mp, u, v):
    """de Casteljau in mpmath arbitrary precision."""
    rows = ctrl_mp
    while len(rows) > 1:
        rows = [
            [[(1 - u) * a + u * b for a, b in zip(p0, p1)] for p0, p1 in zip(r0, r1)]
            for r0, r1 in zip(rows[:-1], rows[1:])
        ]
    pts = rows[0]
    while len(pts) > 1:
        pts = [[(1 - v) * a + v * b for a, b in zip(p0, p1)] for p0, p1 in zip(pts[:-1], pts[1:])]
    return pts[0]


def fd_jet(ctrl, u, v, order=3, h=1e-4, dps=40):
    """Finite-difference jet oracle: every partial with p + q <= order.

    Centered 7-point stencils are exact for polynomial surfaces of
    degree <= 6 in each variable, and mpmath arithmetic removes the
    cancellation error of the h^-3 scaling, so the estimate is limited
    only by the stated step's representation. Returns {(p, q): 3-vector}.
    """
    old_dps = mp.dps
    mp.dps = dps
    try:
        ctrl_mp = [[[mpf(float(c)) for c in pt] for pt in row] for row in np.asarray(ctrl, dtype=float)]
        hu = mpf(float(h))
        uu, vv = mpf(float(u)), mpf(float(v))
        cache = {}

        def point(iu, iv):
            if (iu, iv) not in cache:
                cache[(iu, iv)] = _eval_surface_mp(ctrl_mp, uu + iu * hu, vv + iv * hu)
            return cache[(iu, iv)]

        out = {}
        for p in range(order + 1):
            for q in range(order + 1 - p):
                acc = [mpf(0)] * 3
                for iu, cu in _STENCILS[p]:
                    for iv, cv in _STENCILS[q]:
                        w = mpf(cu.numerator) / cu.denominator * mpf(cv.numerator) / cv.denominator
                        val = point(iu, iv)
                        for k in range(3):
                            acc[k] += w * val[k]
                scale = hu ** (p + q)
                out[(p, q)] = np.array([float(a / scale) for a in acc])
        return out
    finally:
        mp.dps = old_dps


def fd_jet_partial(ctrl, u, v, p, q, h=1e-4):
    """Single-partial convenience wrapper around fd_jet."""
    return fd_jet(ctrl, u, v, order=p + q, h=h)[(p, q)]


# ---------------------------------------------------------------------------
# Monomial polynomial helpers (independent of wingcp.shapes)
# ---------------------------------------------------------------------------


def mono_eval(coeffs, u, v):
    c = np.asarray(coeffs, dtype=float)
    total = 0.0
    for p in range(c.shape[0]):
        for q in range(c.shape[1]):
            if c[p, q] != 0.0:
                total += c[p, q] * u**p * v**q
    return total


def mono_partial(coeffs, du, dv):
    c = np.array(coeffs, dtype=float)
    for _ in range(du):
        if c.shape[0] == 1:
            return np.zeros((1, 1))
        c = c[1:, :] * np.arange(1, c.shape[0])[:, None]
    for _ in range(dv):
        if c.shape[1] == 1:
            return np.zeros((1, 1))
        c = c[:, 1:] * np.arange(1, c.shape[1])[None, :]
    return c


# ---------------------------------------------------------------------------
# Closed-form features of a graph surface F = (u, v, f(u, v))
# ---------------------------------------------------------------------------


def graph_surface_features(f_coeffs, u, v):
    """Metric, Christoffel symbols and scalar curvature of a graph surface.

    g_ij = delta_ij + f_i f_j
    Gamma^k_ij = f_ij f_k / (1 + |grad f|^2)
    S = 2 (f_uu f_vv - f_uv^2) / (1 + |grad f|^2)^2
    """
    fu = mono_eval(mono_partial(f_coeffs, 1, 0), u, v)
    fv = mono_eval(mono_partial(f_coeffs, 0, 1), u, v)
    fuu = mono_eval(mono_partial(f_coeffs, 2, 0), u, v)
    fuv = mono_eval(mono_partial(f_coeffs, 1, 1), u, v)
    fvv = mono_eval(mono_partial(f_coeffs, 0, 2), u, v)
    grad = np.array([fu, fv])
    hess = np.array([[fuu, fuv], [fuv, fvv]])
    denom = 1.0 + fu * fu + fv * fv
    g = np.eye(2) + np.outer(grad, grad)
    gamma = np.empty((2, 2, 2))
    for k in range(2):
        gamma[k] = hess * grad[k] / denom
    scalar = 2.0 * (fuu * fvv - fuv * fuv) / denom**2
    return g, gamma, scalar


# ---------------------------------------------------------------------------
# Index-loop Riemannian chain (the scalar reference for wingcp.geometry)
# ---------------------------------------------------------------------------


def _loop_dF(jet_, *indices):
    """Partial of F for a list of coordinate indices (0 = u, 1 = v)."""
    p = sum(1 for i in indices if i == 0)
    return jet_[p, len(indices) - p]


def loop_metric(jet_):
    """(g, dg[l][i][j]) from one scalar inner product per component."""
    e = [_loop_dF(jet_, 0), _loop_dF(jet_, 1)]
    g = np.empty((2, 2))
    dg = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            g[i, j] = float(e[i] @ e[j])
            for l in range(2):
                dg[l, i, j] = float(_loop_dF(jet_, l, i) @ e[j]) + float(e[i] @ _loop_dF(jet_, l, j))
    return g, dg


def loop_metric_hessian(jet_):
    """d_m d_l g_ij, [m][l][i][j], term by term from the product rule."""
    e = [_loop_dF(jet_, 0), _loop_dF(jet_, 1)]
    ddg = np.empty((2, 2, 2, 2))
    for m_ in range(2):
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    ddg[m_, l, i, j] = (
                        float(_loop_dF(jet_, m_, l, i) @ e[j])
                        + float(_loop_dF(jet_, l, i) @ _loop_dF(jet_, m_, j))
                        + float(_loop_dF(jet_, m_, i) @ _loop_dF(jet_, l, j))
                        + float(e[i] @ _loop_dF(jet_, m_, l, j))
                    )
    return ddg


def _inverse_2x2(g):
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det


def loop_christoffel(jet_):
    """(gamma[k][i][j], dgamma[x][k][i][j]) with d(g^-1) = -g^-1 (dg) g^-1."""
    g, dg = loop_metric(jet_)
    ddg = loop_metric_hessian(jet_)
    g_inv = _inverse_2x2(g)
    dginv = np.stack([-g_inv @ dg[x] @ g_inv for x in range(2)])
    gamma = np.empty((2, 2, 2))
    dgamma = np.empty((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                acc = 0.0
                for l in range(2):
                    acc += g_inv[k, l] * (dg[i, j, l] + dg[j, l, i] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * acc
            for x in range(2):
                for k in range(2):
                    acc = 0.0
                    for l in range(2):
                        acc += dginv[x, k, l] * (dg[i, j, l] + dg[j, l, i] - dg[l, i, j])
                        acc += g_inv[k, l] * (ddg[x, i, j, l] + ddg[x, j, l, i] - ddg[x, l, i, j])
                    dgamma[x, k, i, j] = 0.5 * acc
    return gamma, dgamma


def loop_riemann_tensor(gamma, dgamma):
    """R^s_ijk = (Gamma^l_ik Gamma^s_jl - Gamma^l_jk Gamma^s_il) + d_j Gamma^s_ik - d_i Gamma^s_jk."""
    riem = np.empty((2, 2, 2, 2))
    for s in range(2):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    quad = 0.0
                    for l in range(2):
                        quad += gamma[l, i, k] * gamma[s, j, l] - gamma[l, j, k] * gamma[s, i, l]
                    riem[s, i, j, k] = quad + dgamma[j, s, i, k] - dgamma[i, s, j, k]
    return riem


def loop_contract(riem, g_inv, convention):
    """Ricci tensor and scalar; each convention summed as its own index pattern."""
    ricci = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                ricci[i, j] += riem[k, i, k, j] if convention == "standard" else riem[k, k, i, j]
    scalar = sum(g_inv[i, j] * ricci[i, j] for i in range(2) for j in range(2))
    return ricci, float(scalar)


# ---------------------------------------------------------------------------
# One point at a time: scalar jet, scalar bisection, per-sample assembly
# ---------------------------------------------------------------------------


def scalar_bernstein_row(m, t):
    """Degree-m Bernstein values at one parameter, in Python floats."""
    s = 1.0 - t
    return np.array([math.comb(m, a) * t**a * s ** (m - a) for a in range(m + 1)])


def scalar_eval_patch(points, u, v):
    m, n = points.shape[0] - 1, points.shape[1] - 1
    return np.einsum("a,b,abc->c", scalar_bernstein_row(m, u), scalar_bernstein_row(n, v), points)


def scalar_jet(points, u, v, order=3):
    """Partials d[p, q] at one point, one forward-difference contraction each."""
    m, n = points.shape[0] - 1, points.shape[1] - 1
    d = np.zeros((order + 1, order + 1, 3))
    diff_u = points
    for p in range(min(order, m) + 1):
        bu = scalar_bernstein_row(m - p, u)
        diff_uv = diff_u
        for q in range(min(order - p, n) + 1):
            bv = scalar_bernstein_row(n - q, v)
            d[p, q] = (math.perm(m, p) * math.perm(n, q)) * np.einsum("a,b,abc->c", bu, bv, diff_uv)
            diff_uv = np.diff(diff_uv, axis=1)
        diff_u = np.diff(diff_u, axis=0)
    return d


def scalar_calibrate_offset(points, center, axis, direction, d, tol=1e-9, max_bisect=80):
    """One offset by bisection on the chord: (delta, clamped); StencilOutOfPatch if d
    exceeds the chord across the patch. The same midpoints and stop test as the package."""
    u0, v0 = center.u, center.v

    def chord(offset):
        p = scalar_eval_patch(points, u0 + offset, v0) if axis == "u" else scalar_eval_patch(points, u0, v0 + offset)
        return float(np.linalg.norm(p - base))

    base = scalar_eval_patch(points, u0, v0)
    coord = u0 if axis == "u" else v0
    if axis == "u":
        whole = float(np.linalg.norm(scalar_eval_patch(points, 1.0, v0) - scalar_eval_patch(points, 0.0, v0)))
    else:
        whole = float(np.linalg.norm(scalar_eval_patch(points, u0, 1.0) - scalar_eval_patch(points, u0, 0.0)))
    if d > whole:
        raise StencilOutOfPatch(
            f"spacing d={d} exceeds patch extent {whole:.6g} along {axis} at {center}"
        )
    room = 1.0 - coord if direction > 0 else coord
    if room <= 0.0:
        return 0.0, True
    if chord(direction * room) < d:
        return room, True
    lo, hi = 0.0, room
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        c = chord(direction * mid)
        if abs(c - d) <= tol * d:
            return mid, False
        if c < d:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), False


def scalar_stencil(points, center, d):
    """(nine SurfacePoints in slot order, eight clamped flags in neighbor-slot order)."""
    (de, ce), (dw, cw), (dn, cn), (ds, cs) = (
        scalar_calibrate_offset(points, center, axis, direction, d)
        for axis, direction in (("u", 1), ("u", -1), ("v", 1), ("v", -1))
    )
    us = (center.u - dw, center.u, center.u + de)
    vs = (center.v + dn, center.v, center.v - ds)
    pts = tuple(SurfacePoint(center.patch_id, u, v) for v in vs for u in us)
    return pts, (cw or cn, cn, ce or cn, cw, ce, cw or cs, cs, ce or cs)


def loop_point_features(points, point, convention):
    """(position, g, gamma, S) at one point from scalar_jet and the index-loop chain.

    Raises DegenerateMetric(det, point) where the package's tolerance calls g singular.
    """
    j = scalar_jet(points, point.u, point.v)
    g, _ = loop_metric(j)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    tr = g[0, 0] + g[1, 1]
    if det <= 1e-12 * tr * tr:
        raise DegenerateMetric(det, point)
    gamma, dgamma = loop_christoffel(j)
    _, scalar = loop_contract(loop_riemann_tensor(gamma, dgamma), _inverse_2x2(g), convention)
    return j[0, 0], g, gamma, scalar


def loop_assemble(manifold, samples, d, convention="standard"):
    """One sample at a time: stencil, then the chain at each of its nine points.

    Returns (kept, dropped, uv (k, 9, 2), pos (k, 9, 3), g (k, 9, 2, 2),
    gamma (k, 9, 2, 2, 2), S (k, 9)); dropped holds (index, reason) with the
    reason text of the first failing offset (E, W, N, S) or slot.
    """
    kept, dropped, rows = [], [], []
    for idx, sample in enumerate(samples):
        center = sample.location
        points = manifold.grid(center.patch_id).points
        try:
            stencil, _ = scalar_stencil(points, center, d)
            feats = [loop_point_features(points, p, convention) for p in stencil]
        except (DegenerateMetric, StencilOutOfPatch) as exc:
            dropped.append((idx, f"{type(exc).__name__}: {exc}"))
            continue
        kept.append(idx)
        rows.append(([(p.u, p.v) for p in stencil], *zip(*feats)))
    uv, pos, g, gamma, scalar = (np.array(col, dtype=float) for col in zip(*rows)) if rows else [np.empty(0)] * 5
    return kept, dropped, uv, pos, g, gamma, scalar


# ---------------------------------------------------------------------------
# Loop convolution (the reference for wingcp.nn.Conv2d)
# ---------------------------------------------------------------------------


def _loop_conv_pad(x, kh, kw):
    """Zero-pad (bottom/right) each spatial dim smaller than the kernel."""
    ph, pw = max(0, kh - x.shape[2]), max(0, kw - x.shape[3])
    return np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw)))


def loop_conv2d_forward(k, b, x):
    """Stride = kernel convolution, one window contraction per output position."""
    kh, kw = k.shape[2], k.shape[3]
    xp = _loop_conv_pad(x, kh, kw)
    ho = (xp.shape[2] - kh) // kh + 1
    wo = (xp.shape[3] - kw) // kw + 1
    out = np.empty((x.shape[0], k.shape[0], ho, wo))
    for i in range(ho):
        for j in range(wo):
            window = xp[:, :, i * kh : (i + 1) * kh, j * kw : (j + 1) * kw]
            out[:, :, i, j] = np.einsum("bcpq,ocpq->bo", window, k)
    return out + b[None, :, None, None]


def loop_conv2d_backward(k, x, dy):
    """(dx, dk, db) of loop_conv2d_forward, accumulated window by window."""
    kh, kw = k.shape[2], k.shape[3]
    xp = _loop_conv_pad(x, kh, kw)
    dk = np.zeros_like(k)
    dxp = np.zeros_like(xp)
    for i in range(dy.shape[2]):
        for j in range(dy.shape[3]):
            rows, cols = slice(i * kh, (i + 1) * kh), slice(j * kw, (j + 1) * kw)
            g = dy[:, :, i, j]
            dk += np.einsum("bo,bcpq->ocpq", g, xp[:, :, rows, cols])
            dxp[:, :, rows, cols] += np.einsum("bo,ocpq->bcpq", g, k)
    return dxp[:, :, : x.shape[2], : x.shape[3]], dk, dy.sum(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# Finite-difference model gradients
# ---------------------------------------------------------------------------


def fd_model_gradients(model, batch, h=1e-6):
    """Central finite differences of the MSE loss for every parameter scalar."""
    grads = []
    for p in model.params:
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_mse(model.forward(batch), batch.y)
            flat[i] = orig - h
            lm = loss_mse(model.forward(batch), batch.y)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b, floor):
    """Elementwise |a - b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


# ---------------------------------------------------------------------------
# Brute-force near-coincidence scan (quadratic, for small sample grids)
# ---------------------------------------------------------------------------


def brute_force_close_pairs(points3d, params2d, eps_space, delta_param):
    pts = np.asarray(points3d, dtype=float)
    par = np.asarray(params2d, dtype=float)
    hits = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.linalg.norm(pts[i] - pts[j]) < eps_space:
                if np.linalg.norm(par[i] - par[j]) > delta_param:
                    hits.append((i, j))
    return hits
