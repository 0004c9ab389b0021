"""Output checks computed apart from wingcp.

Geometry is re-derived from the control points in ``manifold.csv`` with
this file's own Bernstein-basis derivatives (the program differences the
control net instead). Training and cross-validation outputs are checked
against each other and against the input sample file. Each function
returns a list of failure messages; an empty list means the check passed.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

CHORD_REL_TOL = 1e-9  # documented stencil chord tolerance
AXIAL = {1: "v", 3: "u", 5: "u", 7: "v"}  # axial stencil slot (N, W, E, S) -> the parameter it moves


def read_grids(path):
    rows = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            rows.setdefault(r["patch_id"], []).append(
                (int(r["a"]), int(r["b"]), float(r["x"]), float(r["y"]), float(r["z"]))
            )
    grids = {}
    for pid, pts in rows.items():
        m = max(p[0] for p in pts)
        n = max(p[1] for p in pts)
        net = np.empty((m + 1, n + 1, 3))
        for a, b, x, y, z in pts:
            net[a, b] = (x, y, z)
        grids[pid] = net
    return grids


def basis(deg, t, r):
    """r-th derivative of every degree-``deg`` Bernstein polynomial at each t.

    d^r/dt^r B_{k,n} = n!/(n-r)! sum_j (-1)^(r-j) C(r,j) B_{k-j,n-r}.
    Returns shape (len(t), deg + 1).
    """
    t = np.asarray(t, dtype=float)[:, None]
    out = np.zeros((t.shape[0], deg + 1))
    if r > deg:
        return out
    low = deg - r
    i = np.arange(low + 1)
    lower = np.array([math.comb(low, k) for k in i]) * t**i * (1.0 - t) ** (low - i)
    scale = math.factorial(deg) / math.factorial(low)
    for j in range(r + 1):
        out[:, j : j + low + 1] += scale * (-1) ** (r - j) * math.comb(r, j) * lower
    return out


def surface(net, u, v, ru=0, rv=0):
    """Partial d^(ru+rv) F / du^ru dv^rv at the points (u[i], v[i]), shape (N, 3)."""
    bu = basis(net.shape[0] - 1, u, ru)
    bv = basis(net.shape[1] - 1, v, rv)
    return np.einsum("ia,ib,abc->ic", bu, bv, net)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_features(extract_dir, manifold_csv, d):
    """Metric = J^T J and S = 2K at stencil centres; axial chords equal d or clamp."""
    grids = read_grids(manifold_csv)
    rows = read_rows(os.path.join(extract_dir, "features_points.csv"))
    errors = []
    if len(rows) % 9:
        return [f"features_points.csv has {len(rows)} rows, not a multiple of 9"]
    pid = np.array([r["patch_id"] for r in rows])
    u = np.array([float(r["u"]) for r in rows])
    v = np.array([float(r["v"]) for r in rows])
    slot = np.array([int(r["stencil_slot"]) for r in rows])
    if not np.array_equal(slot, np.tile(np.arange(9), len(rows) // 9)):
        return ["features_points.csv slots are not 0..8 per sample"]
    pos = np.empty((len(rows), 3))
    for p in np.unique(pid):
        sel = pid == p
        pos[sel] = surface(grids[p], u[sel], v[sel])
    given = np.array([[float(r[k]) for k in ("x", "y", "z")] for r in rows])
    if not np.allclose(given, pos, rtol=0.0, atol=1e-12):
        errors.append("stencil positions differ from F(u, v)")

    centre = slot == 4
    g = np.array([[float(r[k]) for k in ("g11", "g12", "g22")] for r in rows])[centre]
    s_given = np.array([float(r["S"]) for r in rows])[centre]
    fu, fv = np.empty((centre.sum(), 3)), np.empty((centre.sum(), 3))
    fuu, fuv, fvv = np.empty_like(fu), np.empty_like(fu), np.empty_like(fu)
    cpid, cu, cv = pid[centre], u[centre], v[centre]
    for p in np.unique(cpid):
        sel = cpid == p
        net = grids[p]
        fu[sel] = surface(net, cu[sel], cv[sel], 1, 0)
        fv[sel] = surface(net, cu[sel], cv[sel], 0, 1)
        fuu[sel] = surface(net, cu[sel], cv[sel], 2, 0)
        fuv[sel] = surface(net, cu[sel], cv[sel], 1, 1)
        fvv[sel] = surface(net, cu[sel], cv[sel], 0, 2)
    e = np.sum(fu * fu, axis=1)
    f = np.sum(fu * fv, axis=1)
    gg = np.sum(fv * fv, axis=1)
    jtj = np.stack([e, f, gg], axis=1)
    if np.max(np.abs(g - jtj) / (e + gg)[:, None]) > 1e-12:
        errors.append("metric differs from J^T J at a stencil centre")
    normal = np.cross(fu, fv)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    ll, mm, nn = (np.sum(x * normal, axis=1) for x in (fuu, fuv, fvv))
    two_k = 2.0 * (ll * nn - mm * mm) / (e * gg - f * f)
    # curvature scale of the point: squared second-form size over the metric size
    scale = (np.abs(ll) + np.abs(mm) + np.abs(nn)) ** 2 / (e * gg - f * f)
    worst = np.max(np.abs(s_given - two_k) / np.maximum(scale, 1e-300))
    if worst > 1e-10:
        errors.append(f"S differs from 2K at a stencil centre (rel {worst:.3g})")

    base = np.repeat(pos[centre], 9, axis=0)
    chord = np.linalg.norm(pos - base, axis=1)
    centre_u, centre_v = np.repeat(u[centre], 9), np.repeat(v[centre], 9)
    for s, axis in AXIAL.items():
        sel = slot == s
        moved = (u if axis == "u" else v)[sel]
        still = (v if axis == "u" else u)[sel]
        if not np.array_equal(still, (centre_v if axis == "u" else centre_u)[sel]):
            errors.append(f"slot {s} moves off its axis")
        ok = np.abs(chord[sel] - d) <= CHORD_REL_TOL * d * (1.0 + 1e-6)
        ok |= (moved == 0.0) | (moved == 1.0)
        if not ok.all():
            errors.append(f"{int((~ok).sum())} slot-{s} neighbours miss chord d and are not clamped")
    return errors


def check_predictions(predict_dir, extract_dir, train_dir):
    """MSE of predictions = n-weighted mean of the final train and val MSE."""
    pred = np.array([float(r["prediction"]) for r in read_rows(os.path.join(predict_dir, "predictions.csv"))])
    y = np.array([float(r["cp"]) for r in read_rows(os.path.join(extract_dir, "y.csv"))])
    if pred.shape != y.shape:
        return [f"{pred.size} predictions for {y.size} targets"]
    with open(os.path.join(train_dir, "train_summary.json")) as fh:
        s = json.load(fh)
    if s["n_train"] + s["n_val"] != y.size:
        return ["train_summary n_train + n_val differs from the cache size"]
    want = (s["n_train"] * s["final_train_mse"] + s["n_val"] * s["final_val_mse"]) / y.size
    got = float(np.mean((pred - y) ** 2))
    if not abs(got - want) <= 1e-9 * want:
        return [f"prediction MSE {got!r} != weighted train/val MSE {want!r}"]
    return []


def check_crossval(cv_dir, samples_csv, fold_aoas):
    """Fold sizes match the input, fold MSEs match err_map.csv, cv_mse is their mean."""
    aoas = np.array([float(r["AoA"]) for r in read_rows(samples_csv)])
    with open(os.path.join(cv_dir, "report.json")) as fh:
        report = json.load(fh)
    errors = []
    fold_values = []
    for a in fold_aoas:
        label = format(a, "g")
        fold = os.path.join(cv_dir, f"fold_{label}")
        with open(os.path.join(fold, "eval.json")) as fh:
            ev = json.load(fh)
        want_n = int(np.sum(np.abs(aoas - a) <= 1e-9))
        if ev["n_test"] != want_n:
            errors.append(f"fold {label}: n_test {ev['n_test']} != {want_n} input samples")
        err = np.array([float(r["abs_err"]) for r in read_rows(os.path.join(fold, "err_map.csv"))])
        mse = float(np.mean(err**2))
        if not abs(mse - ev["test_mse"]) <= 1e-12 * mse:
            errors.append(f"fold {label}: test_mse {ev['test_mse']!r} != mean abs_err^2 {mse!r}")
        if report["fold_mse"].get(label) != ev["test_mse"]:
            errors.append(f"fold {label}: report.json and eval.json disagree")
        fold_values.append(ev["test_mse"])
    if len(report["fold_mse"]) != len(fold_aoas):
        errors.append(f"report.json has {len(report['fold_mse'])} folds, expected {len(fold_aoas)}")
    mean = sum(fold_values) / len(fold_values)
    if not abs(report["average_mse"] - mean) <= 1e-12 * mean:
        errors.append(f"average_mse {report['average_mse']!r} != mean of folds {mean!r}")
    return errors


def digest(outdir):
    """SHA-256 over every output file except run_manifest.json, by relative path."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(outdir):
        dirs.sort()
        for name in sorted(files):
            if name == "run_manifest.json":
                continue
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, outdir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
