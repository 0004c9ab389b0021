"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import functools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import (
    affine_grid, fd_jet, fd_model_gradients, graph_surface_features, graph_surface_grid, paraboloid_grid, rel_err,
)

import wingcp
from wingcp.bezier import ControlGrid, PiecewiseManifold, SurfacePoint, jet
from wingcp.data import assemble, fit_normalizer, fold_split
from wingcp.geometry import _inverse, feature_bundle, metric, riemann_tensor
from wingcp.model import (
    AdamState,
    FlatParams,
    TrainConfig,
    adam_step,
    build_model,
    loss_mse,
    preset,
    train,
)
from wingcp.report import reduction
from wingcp.stencil import NEIGHBOR_SLOTS, build_stencil
from wingcp.synth import SynthConfig, generate_synthetic


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {name}")
                raise
            print(f"ACCEPTANCE PASS: {name}")

        return run

    return wrap


def random_poly_coeffs(rng, total_degree=4, scale=0.6):
    c = np.zeros((total_degree + 1, total_degree + 1))
    for p in range(total_degree + 1):
        for q in range(total_degree + 1 - p):
            c[p, q] = scale * rng.uniform(-1.0, 1.0)
    return c


@criterion("geometry oracle suite (50 graph surfaces, rel err < 1e-8, < 10 s)")
def test_geometry_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        coeffs = random_poly_coeffs(rng)
        manifold = PiecewiseManifold([graph_surface_grid(coeffs, 4, 4, patch_id="g")])
        manifold.exempt("g")
        for u, v in rng.uniform(0.05, 0.95, (20, 2)):
            f = feature_bundle(manifold, SurfacePoint("g", u, v))
            g_o, gamma_o, s_o = graph_surface_features(coeffs, u, v)
            assert np.max(rel_err(f.g, g_o, floor=1.0)) < 1e-8
            assert np.max(rel_err(f.gamma, gamma_o, floor=1.0)) < 1e-8
            assert rel_err(f.scalar, s_o, floor=1.0) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


@criterion("flat-manifold annihilation (Gamma, R, S <= 1e-10 at 1000 points)")
def test_flat_manifold_annihilation():
    patches = [
        affine_grid([0, 0, 0], [1, 0, 0], [0, 1, 0], m=3, n=3, patch_id="p0"),
        affine_grid([1, 0, 0], [0.8, 0, 0.6], [0, 1, 0], m=4, n=2, patch_id="p1"),
        affine_grid([0, 1, 0], [1, 0, 0], [0, 0.5, 0.7], m=2, n=4, patch_id="p2"),
    ]
    manifold = PiecewiseManifold(patches)
    manifold.check_all(samples_per_axis=16)
    assert manifold.invalid_patches() == []
    rng = np.random.default_rng(77)
    ids = [g.patch_id for g in patches]
    for _ in range(1000):
        pid = ids[int(rng.integers(0, 3))]
        u, v = rng.uniform(0.0, 1.0, 2)
        f = feature_bundle(manifold, SurfacePoint(pid, u, v))
        j = jet(manifold.grid(pid), u, v)
        assert np.max(np.abs(f.gamma)) <= 1e-10
        assert np.max(np.abs(riemann_tensor(j, *_inverse(metric(j)[0])))) <= 1e-10
        assert abs(f.scalar) <= 1e-10


@criterion("jet correctness (order <= 3 partials vs FD, rel err < 1e-5, 20 patches)")
def test_jet_correctness():
    rng = np.random.default_rng(404)
    for _ in range(20):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        grid = ControlGrid("r", rng.uniform(-1.0, 1.0, (m + 1, n + 1, 3)))
        for u, v in rng.uniform(0.1, 0.9, (2, 2)):
            j = jet(grid, u, v)
            fd = fd_jet(grid.points, u, v, order=3, h=1e-4)
            for p in range(4):
                for q in range(4 - p):
                    err = np.abs(j[p, q] - fd[(p, q)]) / np.maximum(1.0, np.abs(fd[(p, q)]))
                    assert np.max(err) < 1e-5, f"partial ({p},{q}): {np.max(err):.2e}"


@criterion("gradient check (every parameter vs central FD, rel err < 1e-4)")
def test_gradient_check():
    from test_model import random_batch, tiny_config

    model = build_model(tiny_config(seed=31))
    batch = random_batch(np.random.default_rng(31), 6)
    _, grads, _ = model.loss_and_grads(model.inputs(batch))
    fd = fd_model_gradients(model, batch, h=1e-6)
    worst = 0.0
    for name, g, f in zip(model.param_names(), grads, fd):
        err = float(np.max(rel_err(g, f, floor=1e-4)))
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"


@criterion("Adam unit check (hand-derived first step to 1e-12)")
def test_adam_unit_check():
    cfg = TrainConfig()
    w = FlatParams([np.array([0.0])])
    adam_step(w, [np.array([1.0])], AdamState.init(w), t=1, cfg=cfg)
    m_hat = ((1 - cfg.beta1) * 1.0) / (1 - cfg.beta1**1)
    v_hat = ((1 - cfg.beta2) * 1.0) / (1 - cfg.beta2**1)
    expected = -cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    assert abs(w[0][0] - expected) <= 1e-12


@criterion("published per-fold MSE reduction arithmetic (eta within 0.05 pp)")
def test_table_metric_arithmetic():
    baseline = {"7": 1.52, "12": 1.21, "16": 6.50e-1, "18": 2.29e-1,
                "18.5": 1.56e-1, "19": 7.98e-2, "20": 2.30e-2}
    model = {"7": 1.47, "12": 1.15, "16": 5.97e-1, "18": 2.01e-1,
             "18.5": 1.21e-1, "19": 7.28e-2, "20": 1.26e-2}
    published = {"7": 3.28, "12": 4.95, "16": 8.15, "18": 12.23,
                 "18.5": 22.43, "19": 8.77, "20": 45.22}
    etas, average = reduction(model, baseline)
    for fold, eta in published.items():
        assert abs(etas[fold] - eta) <= 0.05, f"fold {fold}: {etas[fold]:.3f} vs {eta}"
    assert abs(average - 15.00) <= 0.05, f"average {average:.3f}"


@criterion("overfit capability (50 samples, default K, train MSE < 1e-3, < 2 min)")
def test_overfit_capability():
    start = time.perf_counter()
    res = generate_synthetic(
        SynthConfig(seed=11, stations=2, points_per_section=5,
                    aoa_set=(0.0, 5.0, 10.0, 15.0, 20.0))
    )
    out = assemble(res.manifold, res.samples, d=0.005)
    batch = out.batch
    assert batch.n == 50
    normalizer = fit_normalizer(batch)
    model = build_model(preset("rgfil", seed=0))
    result = train(model, model.inputs(batch, normalizer), cfg=TrainConfig(epochs=2000, seed=0))
    elapsed = time.perf_counter() - start
    assert result.final_train_mse < 1e-3, f"final MSE {result.final_train_mse:.2e}"
    assert elapsed < 120.0, f"took {elapsed:.0f}s"


@criterion("directional ablation (all-features beats x1+x2-only, majority of 3 seeds)")
def test_directional_ablation():
    res = generate_synthetic(
        SynthConfig(seed=5, stations=4, points_per_section=10,
                    aoa_set=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0), noise_sigma=0.01)
    )
    out = assemble(res.manifold, res.samples, d=0.005)
    batch = out.batch
    folds = fold_split(batch.x[:, 1], [4.0, 8.0, 16.0])  # column 1 of x: AoA

    def mean_fold_mse(model_name, seed):
        mses = []
        for k, (train_idx, test_idx) in enumerate(folds):
            train_b = batch.subset(train_idx)
            normalizer = fit_normalizer(train_b)
            model = build_model(preset(model_name, seed=seed + k))
            train(model, model.inputs(train_b, normalizer), cfg=TrainConfig(epochs=250, seed=seed + k))
            pred = model.forward(model.inputs(batch.subset(test_idx), normalizer))
            mses.append(loss_mse(normalizer.invert_targets(pred), batch.y[test_idx]))
        return float(np.mean(mses))

    wins = 0
    for seed in (0, 1, 2):
        full = mean_fold_mse("rgfil", seed)
        reduced = mean_fold_mse("mtl", seed)
        print(f"  seed {seed}: all-features {full:.3e}  x1+x2-only {reduced:.3e}")
        if full < reduced:
            wins += 1
    assert wins >= 2, f"all-features model won only {wins}/3 seeds"


@criterion("desk-scale boundary stated (absolute published MSEs not reproduced)")
def test_not_reproducible_at_desk_scale():
    # The measured wind-tunnel pressure dataset and the image-encoder
    # baseline are not available in this environment, so the absolute
    # per-fold MSE levels and the reported 15.00% average improvement
    # are NOT reproduced here. The property-based criteria in this
    # module stand in for them; the reduction arithmetic itself is
    # verified against the reference values in
    # test_table_metric_arithmetic.
    print("  note: absolute reference MSE levels require the proprietary "
          "measurement dataset and image baseline; out of desk-scale scope")
    assert True


@criterion("stencil spacing (axial within 1% of d; curvature spread shrinks with d)")
def test_stencil_spacing():
    manifolds = []
    para = PiecewiseManifold([paraboloid_grid(patch_id="p")])
    para.check_all(samples_per_axis=16)
    manifolds.append((para, SurfacePoint("p", 0.45, 0.55)))
    mild = np.zeros((4, 4))
    mild[2, 0], mild[0, 2], mild[2, 1], mild[3, 0] = 0.15, 0.2, -0.1, 0.05
    bump = PiecewiseManifold([graph_surface_grid(mild, 3, 3, patch_id="b")])
    bump.check_all(samples_per_axis=16)
    manifolds.append((bump, SurfacePoint("b", 0.5, 0.4)))

    for manifold, center in manifolds:
        spreads = []
        for d in (0.01, 0.005, 0.001):
            st = build_stencil(manifold, center, d)
            assert not any(st.clamped)
            axial = [NEIGHBOR_SLOTS.index(s) for s in (1, 3, 5, 7)]
            for i in axial:
                assert abs(st.achieved_spacings[i] - d) <= 0.01 * d
            s_vals = [feature_bundle(manifold, p).scalar for p in st.points]
            spreads.append(float(np.std(s_vals)))
        assert spreads[0] > spreads[1] > spreads[2], spreads


PIPELINE_CONF = """
aoa_set = 0, 5, 10, 15
stations = 2
points_per_section = 5
fold_aoas = 5, 10
epochs = 20
val_fraction = 0.15
"""


def _run_pipeline(root):
    # the child imports the same wingcp as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(wingcp.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)
    os.makedirs(root, exist_ok=True)
    conf = os.path.join(root, "pipeline.conf")
    with open(conf, "w") as fh:
        fh.write(PIPELINE_CONF)
    data = os.path.join(root, "data")
    feats = os.path.join(root, "features")
    cv = os.path.join(root, "cv")
    rep = os.path.join(root, "report")
    steps = [
        ["synth", "--seed", "9", "--out", data, "--config", conf],
        ["extract", "--manifold", f"{data}/manifold.csv", "--samples", f"{data}/samples.csv",
         "--d", "0.005", "--out", feats, "--config", conf],
        ["crossval", "--manifold", f"{data}/manifold.csv", "--samples", f"{data}/samples.csv",
         "--model", "rgfil", "--d", "0.005", "--seed", "9", "--out", cv, "--config", conf],
        ["report", "--run", cv, "--baseline", cv, "--out", rep],
    ]
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-m", "wingcp.cli"] + step,
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, f"{step[0]} failed:\n{proc.stderr}"
    return root


@criterion("end-to-end determinism (synth -> extract -> crossval -> report, twice)")
def test_end_to_end_determinism(tmp_path):
    a = _run_pipeline(str(tmp_path / "a"))
    b = _run_pipeline(str(tmp_path / "b"))
    # every file of the feature cache, so a file that embeds a timestamp fails
    features = sorted(name for name in os.listdir(os.path.join(a, "features")) if name != "run_manifest.json")
    assert features == sorted(n for n in os.listdir(os.path.join(b, "features")) if n != "run_manifest.json")
    assert "x.npy" in features and "y.npy" in features and "y.csv" in features
    compare = [
        "data/samples.csv",
        "data/manifold.csv",
        *(f"features/{name}" for name in features),
        "cv/report.json",
        "cv/report.csv",
        "cv/fold_5/eval.json",
        "cv/fold_5/losses.csv",
        "cv/fold_10/err_map.csv",
        "report/report.json",
        "report/report.csv",
    ]
    for rel in compare:
        # the cache manifest records its sources' absolute paths, which name the run's directory
        with open(os.path.join(a, rel), "rb") as fh:
            bytes_a = fh.read().replace(a.encode(), b"<run>")
        with open(os.path.join(b, rel), "rb") as fh:
            bytes_b = fh.read().replace(b.encode(), b"<run>")
        assert bytes_a == bytes_b, f"{rel} differs between runs"
