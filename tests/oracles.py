"""Independent reference computations used by the tests.

Everything here deliberately avoids the code paths under test: surface
evaluation uses de Casteljau recursion (the package uses Bernstein-row
contraction), polynomial derivatives are taken on monomial coefficients
directly, curvature comes from the closed-form graph-surface formulas,
from scalar index loops over the intrinsic formula with third
derivatives (the package contracts whole arrays and uses the Gauss
equation with second derivatives only) or from the Gauss equation in
50-digit mpmath arithmetic, stencils are calibrated one offset at a time
and assembled one sample at a time (the package steps all offsets of a
patch at once and evaluates each distinct point once), convolutions
loop over output positions (the package does one matrix product over a
window matrix) or are one np.tensordot over a C-contiguous window tensor
(the package fills its window matrix by block copies), Adam updates one array at a time (the package updates
one flat buffer), gradients come from central finite differences of the
scalar loss, patch margins from LAPACK's SVD (the package uses a closed
form) and close pairs from all sample pairs, and features_points.csv is
written row by row (the package formats each location's rows once).

The scalar Newton calibration is the one exception to the first rule:
it takes its positions from the package's ``eval_patch`` and its Bernstein
rows from ``bernstein_row``, so that its iterates equal the batched ones
bit for bit. The scalar bisection checks the same offsets without them,
and degree elevation checks them on another net of the same patch.
"""

import csv
import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from wingcp.bezier import ControlGrid, SurfacePoint, bernstein_row, eval_patch
from wingcp.data import TensorBatch
from wingcp.errors import DegenerateMetric, StencilOutOfPatch, TrainingDiverged
from wingcp.model import loss_mse
from wingcp.shapes import surface_from_polynomials

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
# Canned test surfaces (inputs, not references: graph surfaces use the
# package's exact monomial-to-Bezier conversion)
# ---------------------------------------------------------------------------


def graph_surface_grid(f_coeffs, m: int, n: int, patch_id: str = "graph") -> ControlGrid:
    """Exact grid for the graph surface F = (u, v, f(u,v))."""
    cu = np.array([[0.0], [1.0]])  # u
    cv = np.array([[0.0, 1.0]])  # v
    return surface_from_polynomials(cu, cv, f_coeffs, m, n, patch_id)


def flat_grid(m: int = 1, n: int = 1, patch_id: str = "flat") -> ControlGrid:
    """Unit square in the z=0 plane, P_ab = (a/m, b/n, 0)."""
    a = np.arange(m + 1) / m
    b = np.arange(n + 1) / n
    pts = np.zeros((m + 1, n + 1, 3))
    pts[:, :, 0] = a[:, None]
    pts[:, :, 1] = b[None, :]
    return ControlGrid(patch_id, pts)


def affine_grid(origin, eu, ev, m: int = 2, n: int = 2, patch_id: str = "plane") -> ControlGrid:
    """Affinely parametrized planar patch F = origin + u*eu + v*ev.

    Control points sit on a regular lattice, so all second and higher
    derivatives vanish identically.
    """
    origin = np.asarray(origin, dtype=float)
    eu = np.asarray(eu, dtype=float)
    ev = np.asarray(ev, dtype=float)
    a = (np.arange(m + 1) / m)[:, None, None]
    b = (np.arange(n + 1) / n)[None, :, None]
    pts = origin[None, None, :] + a * eu[None, None, :] + b * ev[None, None, :]
    return ControlGrid(patch_id, pts)


def paraboloid_grid(patch_id: str = "paraboloid") -> ControlGrid:
    """Degree-(2,2) grid exactly representing F = (u, v, u^2 + v^2)."""
    f = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return graph_surface_grid(f, 2, 2, patch_id)


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


def loop_contract(riem, g_inv):
    """Ricci tensor R_ij = sum_k R^k_ikj and scalar S = g^ij R_ij, one term at a time."""
    ricci = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                ricci[i, j] += riem[k, i, k, j]
    scalar = sum(g_inv[i, j] * ricci[i, j] for i in range(2) for j in range(2))
    return ricci, float(scalar)


# ---------------------------------------------------------------------------
# Gauss equation in 50-digit arithmetic, and the curvature scale
# ---------------------------------------------------------------------------


def _mp_partial(ctrl_mp, u, v, p, q):
    """d^(p+q)F/du^p dv^q: de Casteljau on the p-th/q-th forward differences of the net."""
    m, n = len(ctrl_mp) - 1, len(ctrl_mp[0]) - 1
    if p > m or q > n:
        return [mpf(0)] * 3
    net = ctrl_mp
    for _ in range(p):
        net = [[[b - a for a, b in zip(x, y)] for x, y in zip(r0, r1)] for r0, r1 in zip(net[:-1], net[1:])]
    for _ in range(q):
        net = [[[b - a for a, b in zip(x, y)] for x, y in zip(row[:-1], row[1:])] for row in net]
    return [math.perm(m, p) * math.perm(n, q) * c for c in _eval_surface_mp(net, u, v)]


def mp_gauss_curvature(ctrl, u, v, dps=50):
    """(R[s][i][j][k], S, scale, s_unit) at one point, by the Gauss equation in dps-digit arithmetic.

    R^s_ijk = g^sl (h_lj h_ik - h_li h_jk) with h_ij = <d_i d_j F, N> and
    N = (F_u x F_v) / sqrt(det g); S = 2K = 2 (h_11 h_22 - h_12^2) / det g.
    ``scale`` is the curvature scale (|h_11| + |h_12| + |h_22|)^2 / det g.
    ``s_unit`` is (|h_11| + |h_12| + |h_22|)(|F_uu| + |F_uv| + |F_vv|) / det g,
    the unit a float64 S can meet: each h_ij = <F_ij, N> is resolved only to
    rounding error times |F_ij|, which the curvature scale does not allow
    for when the second derivatives lie nearly in the tangent plane. Only
    the results are rounded to float.
    """
    with mp.workdps(dps):
        net = [[[mpf(float(c)) for c in pt] for pt in row] for row in np.asarray(ctrl, dtype=float)]
        uu, vv = mpf(float(u)), mpf(float(v))
        f1 = [_mp_partial(net, uu, vv, 1, 0), _mp_partial(net, uu, vv, 0, 1)]
        f2 = [[_mp_partial(net, uu, vv, 2 - i - j, i + j) for j in range(2)] for i in range(2)]
        dot = lambda a, b: sum(x * y for x, y in zip(a, b))
        g = [[dot(f1[i], f1[j]) for j in range(2)] for i in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        a, b = f1
        cross = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
        normal = [c / mp.sqrt(det) for c in cross]
        h = [[dot(f2[i][j], normal) for j in range(2)] for i in range(2)]
        g_inv = [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]
        riem = np.empty((2, 2, 2, 2))
        for s, i, j, k in np.ndindex(2, 2, 2, 2):
            terms = (g_inv[s][l] * (h[l][j] * h[i][k] - h[l][i] * h[j][k]) for l in range(2))
            riem[s, i, j, k] = float(sum(terms))
        scalar = 2 * (h[0][0] * h[1][1] - h[0][1] * h[1][0]) / det
        h_sum = abs(h[0][0]) + abs(h[0][1]) + abs(h[1][1])
        f2_sum = sum(mp.sqrt(dot(f2[i][j], f2[i][j])) for i, j in ((0, 0), (0, 1), (1, 1)))
        return riem, float(scalar), float(h_sum**2 / det), float(h_sum * f2_sum / det)


def curvature_scale(jet_):
    """(|L| + |M| + |N|)^2 / det g at one point, from the unit normal and the jet's partials."""
    fu, fv = _loop_dF(jet_, 0), _loop_dF(jet_, 1)
    normal = np.cross(fu, fv)
    normal = normal / np.linalg.norm(normal)
    second = [float(_loop_dF(jet_, *ij) @ normal) for ij in ((0, 0), (0, 1), (1, 1))]
    det = float(fu @ fu) * float(fv @ fv) - float(fu @ fv) ** 2
    return sum(abs(x) for x in second) ** 2 / det


# ---------------------------------------------------------------------------
# One point at a time: scalar jet, scalar Newton and bisection, per-sample assembly
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


def _scalar_extent(points, center, axis, d):
    """The chord across the patch along ``axis``; StencilOutOfPatch if d exceeds it."""
    u0, v0 = center.u, center.v
    if axis == "u":
        whole = float(np.linalg.norm(scalar_eval_patch(points, 1.0, v0) - scalar_eval_patch(points, 0.0, v0)))
    else:
        whole = float(np.linalg.norm(scalar_eval_patch(points, u0, 1.0) - scalar_eval_patch(points, u0, 0.0)))
    if d > whole:
        raise StencilOutOfPatch(
            f"spacing d={d} exceeds patch extent {whole:.6g} along {axis} at {center}"
        )


def scalar_bisect_offset(points, center, axis, direction, d, tol=1e-9, max_bisect=80):
    """One offset by bisection on the chord: (delta, clamped); StencilOutOfPatch if d
    exceeds the chord across the patch. Its positions are Bernstein sums in Python floats."""
    u0, v0 = center.u, center.v

    def chord(offset):
        p = scalar_eval_patch(points, u0 + offset, v0) if axis == "u" else scalar_eval_patch(points, u0, v0 + offset)
        return float(np.linalg.norm(p - base))

    base = scalar_eval_patch(points, u0, v0)
    _scalar_extent(points, center, axis, d)
    coord = u0 if axis == "u" else v0
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


def scalar_calibrate_offset(points, center, axis, direction, d, tol=1e-9, max_steps=80, trace=None):
    """One offset by safeguarded Newton on the chord: (delta, clamped); StencilOutOfPatch if
    d exceeds the chord across the patch.

    The package's iterates, one offset at a time in Python floats: positions come
    from ``eval_patch`` at one point and the tangent from one Bernstein row of the
    fixed coordinate contracted with the net, so every iterate agrees bit for bit.
    ``trace``, if a list, receives ("newton" or "midpoint", the next iterate) per step.
    """
    grid = ControlGrid("oracle", points)
    u0, v0 = center.u, center.v
    coord = u0 if axis == "u" else v0
    net = points if axis == "u" else points.transpose(1, 0, 2)
    fixed = v0 if axis == "u" else u0
    curve = np.einsum("b,abc->ac", bernstein_row(net.shape[1] - 1, fixed), net)
    tangent_net = (net.shape[0] - 1) * np.diff(curve, axis=0)

    def tangent(t):
        return np.einsum("a,ac->c", bernstein_row(tangent_net.shape[0] - 1, t), tangent_net).tolist()

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def chord(offset):
        at = (u0 + offset, v0) if axis == "u" else (u0, v0 + offset)
        p = (eval_patch(grid, *at) - base).tolist()
        return math.sqrt(dot(p, p)), p

    base = eval_patch(grid, u0, v0)
    _scalar_extent(points, center, axis, d)
    room = 1.0 - coord if direction > 0 else coord
    if room <= 0.0:
        return 0.0, True
    if chord(direction * room)[0] < d:
        return room, True
    lo, hi = 0.0, room
    speed = math.sqrt(dot(tangent(coord), tangent(coord)))
    x = min(d / speed, hi) if speed > 0.0 else hi
    for _ in range(max_steps):
        c, p = chord(direction * x)
        if abs(c - d) <= tol * d:
            return x, False
        if c < d:
            lo = x
        else:
            hi = x
        slope = direction * dot(tangent(coord + direction * x), p) / c if c > 0.0 else math.nan
        newton = x - (c - d) / slope if slope != 0.0 else math.nan
        inside = lo < newton < hi
        x = newton if inside else 0.5 * (lo + hi)
        if trace is not None:
            trace.append(("newton" if inside else "midpoint", x))
    return x, False


def elevate_degree(points, axis):
    """The control net of the same patch with its degree along ``axis`` (0: u, 1: v) raised by one.

    Farin, ch. 5: Q_0 = P_0, Q_i = i/(m+1) P_(i-1) + (1 - i/(m+1)) P_i, Q_(m+1) = P_m.
    The surface and its parametrization stay the same.
    """
    p = np.moveaxis(np.asarray(points, dtype=float), axis, 0)
    t = (np.arange(1, p.shape[0]) / p.shape[0])[:, None, None]
    return np.moveaxis(np.concatenate([p[:1], t * p[:-1] + (1.0 - t) * p[1:], p[-1:]]), 0, axis)


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


def loop_point_features(points, point):
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
    _, scalar = loop_contract(loop_riemann_tensor(gamma, dgamma), _inverse_2x2(g))
    return j[0, 0], g, gamma, scalar


def sample_points(samples):
    """The SurfacePoint (patch id, u, v) of every row of a Samples table, as Python floats."""
    return [SurfacePoint(*row) for row in zip(samples.patch_id.tolist(), samples.u.tolist(), samples.v.tolist())]


def loop_assemble(manifold, samples, d):
    """One sample at a time: stencil, then the chain at each of its nine points.

    Returns (kept, dropped, uv (k, 9, 2), pos (k, 9, 3), g (k, 9, 2, 2),
    gamma (k, 9, 2, 2, 2), S (k, 9)); dropped holds (index, reason) with the
    reason text of the first failing offset (E, W, N, S) or slot.
    """
    kept, dropped, rows = [], [], []
    for idx, center in enumerate(sample_points(samples)):
        points = manifold.grid(center.patch_id).points
        try:
            stencil, _ = scalar_stencil(points, center, d)
            feats = [loop_point_features(points, p) for p in stencil]
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
    """Stride = kernel convolution, one window contraction per output position.

    Sums are taken in long double, so that at a thousand rows the
    oracle's own rounding stays far below the package's.
    """
    k, b, x = (np.asarray(a, dtype=np.longdouble) for a in (k, b, x))
    kh, kw = k.shape[2], k.shape[3]
    xp = _loop_conv_pad(x, kh, kw)
    ho = (xp.shape[2] - kh) // kh + 1
    wo = (xp.shape[3] - kw) // kw + 1
    out = np.empty((x.shape[0], k.shape[0], ho, wo), dtype=np.longdouble)
    for i in range(ho):
        for j in range(wo):
            window = xp[:, :, i * kh : (i + 1) * kh, j * kw : (j + 1) * kw]
            out[:, :, i, j] = np.einsum("bcpq,ocpq->bo", window, k)
    return (out + b[None, :, None, None]).astype(float)


def loop_conv2d_backward(k, x, dy):
    """(dx, dk, db) of loop_conv2d_forward, accumulated window by window in long double."""
    k, x, dy = (np.asarray(a, dtype=np.longdouble) for a in (k, x, dy))
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
    dx = dxp[:, :, : x.shape[2], : x.shape[3]]
    return dx.astype(float), dk.astype(float), dy.sum(axis=(0, 2, 3)).astype(float)


# ---------------------------------------------------------------------------
# Finite-difference model gradients
# ---------------------------------------------------------------------------


def fd_model_gradients(model, batch, h=1e-6):
    """Central finite differences of the MSE loss for every parameter scalar."""
    grads = []
    inputs = model.inputs(batch)
    for p in model.params:
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_mse(model.forward(inputs), batch.y)
            flat[i] = orig - h
            lm = loss_mse(model.forward(inputs), batch.y)
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


# ---------------------------------------------------------------------------
# Patch validity: LAPACK SVD margins and an all-pairs contact scan
# ---------------------------------------------------------------------------


def svd_jacobians(grid, samples_per_axis):
    """Positions (N, N, 3) and tangents Fu, Fv (N, N, 3) on the check grid, by full einsum contractions."""
    m, n = grid.degrees
    ss = np.linspace(0.0, 1.0, samples_per_axis)
    rows = [np.array([[math.comb(k, a) * t**a * (1 - t) ** (k - a) for a in range(k + 1)] for t in ss])
            for k in (m, n, m - 1, n - 1)]
    bu, bv, bu1, bv1 = rows
    pts = np.einsum("ia,jb,abc->ijc", bu, bv, grid.points)
    fu = m * np.einsum("ia,jb,abc->ijc", bu1, bv, np.diff(grid.points, axis=0))
    fv = n * np.einsum("ia,jb,abc->ijc", bu, bv1, np.diff(grid.points, axis=1))
    return pts, fu, fv


def svd_singular_values(fu, fv):
    """(sigma_max, sigma_min) of each 3x2 Jacobian [Fu Fv] by LAPACK SVD."""
    sig = np.linalg.svd(np.stack([fu, fv], axis=-1), compute_uv=False)
    return sig[..., 0], sig[..., -1]


def svd_check_patch(grid, samples_per_axis, rank_tol, eps_space, delta_param):
    """check_patch's verdict from SVD margins and all sample pairs.

    Returns (sigma_max, sigma_min, valid, hits), the singular values of
    shape (N, N) over the row-major grid; ``hits`` lists the sample
    index pairs (i, j), i < j in row-major order, within ``eps_space`` in
    3D and farther than ``delta_param`` apart in parameter space.
    """
    pts, fu, fv = svd_jacobians(grid, samples_per_axis)
    sig_max, sig_min = svd_singular_values(fu, fv)
    ss = np.linspace(0.0, 1.0, samples_per_axis)
    params = np.stack(np.meshgrid(ss, ss, indexing="ij"), axis=-1).reshape(-1, 2)
    flat = pts.reshape(-1, 3)
    hits = []
    for i in range(len(flat)):  # one row of the distance matrix at a time
        for j in i + 1 + np.flatnonzero(np.linalg.norm(flat[i + 1:] - flat[i], axis=1) <= eps_space):
            if np.linalg.norm(params[j] - params[i]) > delta_param:
                hits.append((i, int(j)))
    return sig_max, sig_min, bool(sig_min.min() >= rank_tol and not hits), hits


# ---------------------------------------------------------------------------
# features_points.csv, one row at a time
# ---------------------------------------------------------------------------


def write_features_points_rows(path, header, result, samples):
    """features_points.csv by csv.writer, one row per stencil slot, each value indexed out of the batch.

    The patch id of batch row r is read from input row ``result.kept[r]`` of ``samples``.
    """
    b = result.batch
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r, src in enumerate(result.kept):
            for s in range(9):
                values = [*result.uv[r, s], *b.x2[r, 0, s]]
                values += [b.x3[r, 0, 2 * s + i, j] for i, j in ((0, 0), (0, 1), (1, 1))]
                values += [b.x4[r, k, 2 * s + i, j] for k in (0, 1) for i, j in ((0, 0), (0, 1), (1, 1))]
                values.append(b.x5[r, s])
                text = [format(float(x), ".17g") for x in values]
                writer.writerow([str(samples.patch_id[src]), *text, s])


META_HEADER = ["row", "patch_id", "u", "v", "x", "y", "z", "Ma", "AoA", "Re", "span", "cp"]


def loop_meta_rows(result, samples):
    """meta.csv rows as dicts of text, every field formatted for every sample.

    Batch row r describes input row ``result.kept[r]`` of ``samples``.
    """
    rows = []
    for out_row, src in enumerate(result.kept):
        x, y, z = (format(c, ".17g") for c in result.batch.x2[out_row, 0, 4, :])
        span = float(samples.span[src])
        rows.append({
            "row": str(out_row),
            "patch_id": str(samples.patch_id[src]),
            "u": format(float(samples.u[src]), ".17g"),
            "v": format(float(samples.v[src]), ".17g"),
            "x": x,
            "y": y,
            "z": z,
            "Ma": format(float(samples.ma[src]), ".17g"),
            "AoA": format(float(samples.aoa[src]), ".17g"),
            "Re": format(float(samples.re[src]), ".17g"),
            "span": "" if math.isnan(span) else format(span, ".17g"),
            "cp": format(float(samples.cp[src]), ".17g"),
        })
    return rows


def write_meta_rows(path, result, samples):
    """meta.csv by csv.DictWriter, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, META_HEADER)
        writer.writeheader()
        for row in loop_meta_rows(result, samples):
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Conv2d's one operand layout, stated with np.tensordot. The windows come
# from a reshaped view of the padded input (the package fills its window
# matrix by block copies); the products get the same operands as the
# package's, so the bits must match.
# ---------------------------------------------------------------------------


def _window_tensor(x, kh, kw):
    """C-contiguous (C, kh, kw, B, ho, wo) windows of x, zero-padded up to the kernel."""
    ph, pw = max(0, kh - x.shape[2]), max(0, kw - x.shape[3])
    xp = np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw)))
    b, c, h, w = xp.shape
    ho, wo = h // kh, w // kw
    win = xp[:, :, : ho * kh, : wo * kw].reshape(b, c, ho, kh, wo, kw)
    return np.ascontiguousarray(win.transpose(1, 3, 5, 0, 2, 4))


def tensordot_conv2d_forward(k, b, x):
    """(out, cache) of the patchify conv as one ``np.tensordot`` over the window tensor."""
    win = _window_tensor(x, k.shape[2], k.shape[3])
    out = np.tensordot(k, win, axes=([1, 2, 3], [0, 1, 2]))  # (O, B, ho, wo)
    return np.moveaxis(out, 0, 1) + b[None, :, None, None], (win, x.shape)


def tensordot_conv2d_backward(k, cache, dy):
    """(dx, dk, db) of tensordot_conv2d_forward from one C-contiguous (O, B, ho, wo) gradient."""
    win, x_shape = cache
    o, c, kh, kw = k.shape
    dy_t = np.ascontiguousarray(np.moveaxis(dy, 1, 0))
    dk = np.tensordot(dy_t, win, axes=([1, 2, 3], [3, 4, 5]))
    db = dy_t.reshape(o, -1).sum(axis=1)
    dwin = np.tensordot(dy_t, k, axes=([0], [0]))  # (B, ho, wo, C, kh, kw)
    b, ho, wo = dwin.shape[:3]
    dxp = np.zeros((b, c, max(x_shape[2], kh), max(x_shape[3], kw)))
    dxp[:, :, : ho * kh, : wo * kw].reshape(b, c, ho, kh, wo, kw)[...] = dwin.transpose(0, 3, 1, 4, 2, 5)
    return np.ascontiguousarray(dxp[:, :, : x_shape[2], : x_shape[3]]), dk, db


# ---------------------------------------------------------------------------
# Normalization oracles: max-min scaling of the whole batch by boolean
# masks, gathering the columns with a nonzero span and scattering their
# (x - lo) / span into zeros, and the centre-slot view a single-point
# model reads. The package normalizes only the columns a model reads, in
# place, and sets the constant ones to 0.0; the bits must match.
# ---------------------------------------------------------------------------


def mask_normalize(spec, batch):
    """The whole ``batch`` normalized by ``spec``, every column of every group, by boolean-mask gathers and scatters.

    ``spec.apply`` over some columns must give bit for bit those columns
    of this batch.
    """
    out = {}
    for key, x in batch.groups().items():
        flat = x.reshape(batch.n, -1)
        lo, hi = spec.mins[key], spec.maxs[key]
        span = hi - lo
        normed = np.zeros_like(flat, dtype=float)
        nz = span != 0.0
        normed[..., nz] = (flat[..., nz] - lo[nz]) / span[nz]
        out[key] = normed.reshape(x.shape)
    y = batch.y
    if spec.normalize_targets:
        span = spec.y_max - spec.y_min
        y = (y - spec.y_min) / span if span != 0.0 else np.zeros_like(y)
    return TensorBatch(y=y, **out)


def pointwise_batch(batch):
    """The stencil-centre view of ``batch`` a single-point model reads, by slicing each group's array."""
    n = batch.n
    return TensorBatch(
        x1=batch.x1,
        x2=batch.x2[:, 0, 4, :],
        x3=batch.x3[:, :, 8:10, :].reshape(n, 1, 2, 2),
        x4=batch.x4[:, :, 8:10, :].reshape(n, 2, 2, 2),
        x5=batch.x5[:, 4:5],
        y=batch.y,
    )


# ---------------------------------------------------------------------------
# Training-step oracle: the per-array Adam step (the package updates one flat buffer).
# ---------------------------------------------------------------------------


def loop_adam_step(params, grads, m, v, t, cfg):
    """One Adam update per array, in place on ``params``; m and v are lists replaced item by item."""
    b1, b2 = cfg.beta1, cfg.beta2
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in parameter {i} (shape {p.shape}) at step {t}")
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * g * g
        m_hat = m[i] / (1.0 - b1**t)
        v_hat = v[i] / (1.0 - b2**t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
