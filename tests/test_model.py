import hashlib
import re

import numpy as np
import pytest

import wingcp.model
import wingcp.nn
from oracles import fd_model_gradients, loop_adam_step, mask_normalize, rel_err, stacked_batch

from wingcp.data import Samples, TensorBatch, assemble, fit_normalizer
from wingcp.errors import ConfigError, TrainingDiverged
from wingcp.model import (
    AdamState,
    FlatParams,
    ModelConfig,
    NetSpec,
    TrainConfig,
    adam_step,
    build_model,
    load_checkpoint,
    loss_mse,
    preset,
    save_checkpoint,
    train,
)
from wingcp.nn import Dense


def random_batch(rng, n):
    return stacked_batch(
        x1=rng.uniform(0, 1, (n, 3)),
        x2=rng.uniform(0, 1, (n, 1, 9, 3)),
        x3=rng.uniform(0, 1, (n, 1, 18, 2)),
        x4=rng.uniform(0, 1, (n, 2, 18, 2)),
        x5=rng.uniform(0, 1, (n, 9)),
        y=rng.uniform(-1, 1, n),
    )


def tiny_config(seed=11):
    return ModelConfig(
        arch="fusion",
        neighbor_mode="9-point",
        active=(1, 2, 3, 4, 5),
        k_outputs=2,
        nets={
            1: NetSpec("dense", widths=(4,)),
            2: NetSpec("conv", channels=(2, 2)),
            3: NetSpec("conv", channels=(2,)),
            4: NetSpec("conv", channels=(2, 2)),
            5: NetSpec("dense", widths=(3,)),
        },
        context=NetSpec("dense", widths=(4,)),
        seed=seed,
    )


def _set_head(stack, value):
    head = stack.layers[-1]
    assert isinstance(head, Dense)
    head.w[:] = 0.0
    head.b[:] = value


class TestForward:
    def test_convex_combination_identity(self):
        """K=1 stubs: every f outputs 1, context outputs 0.2 -> yhat = 1."""
        cfg = preset("rgfil", k_outputs=1, seed=0)
        model = build_model(cfg)
        for z in cfg.active:
            _set_head(model.stacks[f"f{z}"], 1.0)
        _set_head(model.stacks["context"], 0.2)
        batch = random_batch(np.random.default_rng(1), 4)
        np.testing.assert_allclose(model.forward(model.inputs(batch)), 1.0, atol=1e-14)

    def test_zero_context_annihilates(self):
        model = build_model(preset("rgfil", seed=0))
        _set_head(model.stacks["context"], 0.0)
        batch = random_batch(np.random.default_rng(2), 4)
        np.testing.assert_allclose(model.forward(model.inputs(batch)), 0.0, atol=1e-15)

    def test_dot_product_identity(self):
        model = build_model(preset("rgfil", seed=3))
        batch = random_batch(np.random.default_rng(3), 5)
        yhat, c, (f_all, _, _) = model._forward(model.inputs(batch))
        manual = np.array([float(np.dot(f_all[i], c[i])) for i in range(5)])
        np.testing.assert_allclose(yhat, manual, atol=1e-12)

    def test_uniform_context_reduces_to_average(self):
        cfg = preset("rgfil", seed=4)
        model = build_model(cfg)
        width = len(cfg.active) * cfg.k_outputs
        _set_head(model.stacks["context"], 1.0 / width)
        batch = random_batch(np.random.default_rng(4), 6)
        yhat, _, (f_all, _, _) = model._forward(model.inputs(batch))
        np.testing.assert_allclose(yhat, f_all.mean(axis=1), atol=1e-12)

    def test_return_weights_shape(self):
        cfg = preset("rgfil", seed=5)
        model = build_model(cfg)
        batch = random_batch(np.random.default_rng(5), 3)
        yhat, c = model.forward(model.inputs(batch), return_weights=True)
        assert c.shape == (3, len(cfg.active) * cfg.k_outputs)

    def test_context_width_invariant(self):
        cfg = preset("rgfil", k_outputs=8)
        assert cfg.context_width == 40
        cfg2 = preset("mtl", k_outputs=8)
        assert cfg2.context_width == 16


class TestLossMse:
    def test_exact_predictions(self):
        assert loss_mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert loss_mse([1.0, 1.0], [0.0, 2.0]) == pytest.approx(1.0, abs=1e-15)

    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=10)
        r = rng.normal(size=10)
        assert loss_mse(y + 2 * r, y) == pytest.approx(4 * loss_mse(y + r, y), rel=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            loss_mse([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse([1.0], [1.0, 2.0])


class TestBackward:
    def test_zero_residuals_zero_gradients(self):
        model = build_model(tiny_config())
        batch = random_batch(np.random.default_rng(7), 4)
        fitted = TensorBatch(batch.x, model.forward(model.inputs(batch)))
        _, grads, _ = model.loss_and_grads(model.inputs(fitted))
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_gradients_match_finite_differences(self):
        """Every parameter gradient against central differences, rel err < 1e-4."""
        model = build_model(tiny_config())
        batch = random_batch(np.random.default_rng(8), 6)
        _, grads, _ = model.loss_and_grads(model.inputs(batch))
        fd = fd_model_gradients(model, batch, h=1e-6)
        for name, g, f in zip(model.param_names(), grads, fd):
            err = np.max(rel_err(g, f, floor=1e-4))
            assert err < 1e-4, f"{name}: rel err {err:.2e}"

    def test_concat_gradients_match_finite_differences(self):
        cfg = ModelConfig(arch="concat", neighbor_mode="9-point",
                          concat=NetSpec("dense", widths=(4, 4)), seed=9)
        model = build_model(cfg)
        batch = random_batch(np.random.default_rng(9), 5)
        _, grads, _ = model.loss_and_grads(model.inputs(batch))
        fd = fd_model_gradients(model, batch, h=1e-6)
        for g, f in zip(grads, fd):
            assert np.max(rel_err(g, f, floor=1e-4)) < 1e-4

    def test_context_first_layer_sees_every_group(self):
        """The context input gradient block of each active group is nonzero."""
        cfg = tiny_config()
        model = build_model(cfg)
        batch = random_batch(np.random.default_rng(10), 6)
        _, grads, _ = model.loss_and_grads(model.inputs(batch))
        first_ctx_w = grads[model.param_names().index("context.p0")]
        from wingcp.model import input_shapes

        shapes = input_shapes(cfg.neighbor_mode)
        offset = 0
        for z in cfg.active:
            width = int(np.prod(shapes[z]))
            block = first_ctx_w[offset : offset + width, :]
            assert np.linalg.norm(block) > 0.0, f"group x{z} disconnected from context"
            offset += width


class TestAdam:
    def test_hand_derived_first_step(self):
        """Single weight, g=1, t=1: the full recurrence by hand."""
        cfg = TrainConfig()
        w = FlatParams([np.array([0.0])])
        state = AdamState.init(w)
        adam_step(w, [np.array([1.0])], state, t=1, cfg=cfg)
        m = (1.0 - 0.9) * 1.0
        v = (1.0 - 0.999) * 1.0**2
        m_hat = m / (1.0 - 0.9**1)
        v_hat = v / (1.0 - 0.999**1)
        expected = 0.0 - 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert abs(w[0][0] - expected) <= 1e-12
        assert w[0][0] == pytest.approx(-0.000999999990, abs=1e-12)

    def test_zero_gradient_zero_state_no_change(self):
        cfg = TrainConfig()
        w = FlatParams([np.array([0.7])])
        state = AdamState.init(w)
        adam_step(w, [np.array([0.0])], state, t=1, cfg=cfg)
        assert w[0][0] == 0.7

    def test_deterministic_ten_steps(self):
        cfg = TrainConfig()
        rng = np.random.default_rng(11)
        grads = [rng.normal(size=4) for _ in range(10)]

        def run():
            w = FlatParams([np.zeros(4)])
            state = AdamState.init(w)
            for t, g in enumerate(grads, start=1):
                adam_step(w, [g.copy()], state, t, cfg)
            return w.flat

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_gradient_aborts(self):
        cfg = TrainConfig()
        w = FlatParams([np.array([0.0])])
        state = AdamState.init(w)
        with pytest.raises(TrainingDiverged):
            adam_step(w, [np.array([np.nan])], state, t=1, cfg=cfg)

    def test_t_must_be_positive(self):
        w = FlatParams([np.array([0.0])])
        with pytest.raises(ValueError):
            adam_step(w, [np.array([1.0])], AdamState.init(w), t=0, cfg=TrainConfig())


class TestFlatAdam:
    """The flat in-place Adam step against the per-array update, bit for bit."""

    @pytest.mark.parametrize("name", ["mlp", "rgfil", "mtl"])
    def test_300_steps_equal_loop_oracle(self, name):
        cfg = TrainConfig()
        model = build_model(preset(name, seed=3))
        params = FlatParams(model.params)
        ref = [p.copy() for p in model.params]
        m, v = [np.zeros_like(p) for p in ref], [np.zeros_like(p) for p in ref]
        state = AdamState.init(params)
        rng = np.random.default_rng(len(name))
        for t in range(1, 301):
            scale = 10.0 ** rng.uniform(-8, 2)  # tiny to large steps, so sqrt(v_hat) meets epsilon
            grads = [rng.normal(scale=scale, size=p.shape) for p in ref]
            grads[t % len(grads)][...] = 0.0
            adam_step(params, grads, state, t, cfg)
            loop_adam_step(ref, grads, m, v, t, cfg)
        for got, want in zip(params, ref):
            assert got.tobytes() == want.tobytes()
        assert state.m.tobytes() == np.concatenate([x.ravel() for x in m]).tobytes()
        assert state.v.tobytes() == np.concatenate([x.ravel() for x in v]).tobytes()

    def test_flat_params_are_views_of_one_buffer(self):
        model = build_model(preset("rgfil"))
        params = FlatParams(model.params)
        assert params.flat.size == sum(p.size for p in model.params)
        for got, want in zip(params, model.params):
            assert np.shares_memory(got, params.flat)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_nonfinite_gradient_names_the_parameter(self, k):
        params = FlatParams(build_model(preset("mtl")).params)
        grads = [np.ones_like(p) for p in params]
        grads[k].flat[-1] = np.nan if k != 9 else -np.inf
        before = params.flat.copy()
        with pytest.raises(TrainingDiverged, match=re.escape(f"parameter {k} (shape {params[k].shape}) at step 4")):
            adam_step(params, grads, AdamState.init(params), 4, TrainConfig())
        assert params.flat.tobytes() == before.tobytes()


class TestTrainConfigRanges:
    @pytest.mark.parametrize(
        "bad",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": -1.0},
            {"learning_rate": 0.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"epochs": 2.5},
            {"epochs": True},
            {"batch_size": True},
            {"batch_size": 8.0},
        ],
    )
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    def test_smallest_valid_settings_accepted(self):
        TrainConfig(epochs=1, batch_size=1, learning_rate=1e-12)


class TestTrain:
    def test_curve_lengths(self):
        model = build_model(tiny_config())
        rng = np.random.default_rng(12)
        result = train(
            model, model.inputs(random_batch(rng, 10)), model.inputs(random_batch(rng, 4)),
            TrainConfig(epochs=7, batch_size=4, seed=0),
        )
        assert len(result.train_curve) == 7
        assert len(result.val_curve) == 7
        assert np.all(np.isfinite(result.val_curve))

    def test_seeded_determinism_bitwise(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, 12)
        curves = []
        for _ in range(2):
            model = build_model(tiny_config(seed=21))
            result = train(model, model.inputs(batch), cfg=TrainConfig(epochs=5, batch_size=5, seed=21))
            curves.append(result.train_curve)
        np.testing.assert_array_equal(curves[0], curves[1])

    def test_permutation_consistency_full_batch(self):
        rng = np.random.default_rng(14)
        batch = random_batch(rng, 16)
        permuted = batch.subset(np.random.default_rng(5).permutation(16))
        cfg = TrainConfig(epochs=3, batch_size=16, seed=2)
        m1 = build_model(tiny_config(seed=2))
        m2 = build_model(tiny_config(seed=2))
        train(m1, m1.inputs(batch), cfg=cfg)
        train(m2, m2.inputs(permuted), cfg=cfg)
        for a, b in zip(m1.params, m2.params):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_loss_decreases_on_learnable_data(self):
        rng = np.random.default_rng(15)
        batch = random_batch(rng, 32)
        batch = TensorBatch(batch.x, batch.x[:, 0] + 0.5 * batch.groups()["x5"][:, 4])
        model = build_model(tiny_config(seed=1))
        result = train(model, model.inputs(batch), cfg=TrainConfig(epochs=200, batch_size=32, seed=1))
        assert result.train_curve[-1] < 0.05 * result.train_curve[0]

    def test_weight_log_shape(self):
        cfg = tiny_config()
        model = build_model(cfg)
        batch = random_batch(np.random.default_rng(16), 10)
        result = train(
            model, model.inputs(batch), cfg=TrainConfig(epochs=4, batch_size=10, seed=0), probe_indices=[0, 3]
        )
        assert result.weight_log.shape == (4, 2, len(cfg.active) * cfg.k_outputs)

    def test_divergence_restores_last_good(self):
        model = build_model(tiny_config(seed=3))
        init = [p.copy() for p in model.params]
        batch = random_batch(np.random.default_rng(17), 8)
        batch.y[0] = np.nan
        with pytest.raises(TrainingDiverged) as excinfo:
            train(model, model.inputs(batch), cfg=TrainConfig(epochs=3, batch_size=8, seed=0))
        assert excinfo.value.last_good is not None
        for p, q in zip(model.params, init):
            np.testing.assert_array_equal(p, q)


    def test_divergence_names_the_model_parameter(self, monkeypatch):
        """A nan in parameter 2's gradient is reported as that parameter, not the flat buffer."""
        model = build_model(preset("mtl", seed=3))
        assert model.params[2].shape == (16, 16)
        init = [p.copy() for p in model.params]
        loss_and_grads = model.loss_and_grads
        calls = []

        def poisoned(batch):
            loss, grads, yhat = loss_and_grads(batch)
            calls.append(1)
            if len(calls) == 3:
                grads[2][1, 1] = np.nan
            return loss, grads, yhat

        monkeypatch.setattr(model, "loss_and_grads", poisoned)
        batch = random_batch(np.random.default_rng(18), 8)
        with pytest.raises(TrainingDiverged, match=re.escape("parameter 2 (shape (16, 16)) at step 3 (epoch 2)")):
            train(model, model.inputs(batch), cfg=TrainConfig(epochs=3, batch_size=4, seed=0))
        epoch_1 = build_model(preset("mtl", seed=3))
        train(epoch_1, epoch_1.inputs(batch), cfg=TrainConfig(epochs=1, batch_size=4, seed=0))
        for restored, want in zip(model.params, epoch_1.params):
            assert restored.tobytes() == want.tobytes()
        assert any(a.tobytes() != b.tobytes() for a, b in zip(model.params, init))


class TestPreparedInputs:
    """A step on rows of inputs prepared once gives the bits of inputs prepared from the subset."""

    @pytest.mark.parametrize("name", ["rgfil", "mdf", "mtl", "mlp"])
    def test_rows_equal_subset_bitwise(self, name):
        rng = np.random.default_rng(29)
        model = build_model(preset(name, seed=6))
        batch = random_batch(rng, 480)
        prepared = model.inputs(batch)
        # 470 and 3 rows: sizes at which OpenBLAS's gemv sums a unit-stride one-feature input otherwise
        for rows in (rng.permutation(480)[:470], rng.permutation(480)[:3], np.arange(480)[::-1]):
            got, want = model.rows(prepared, rows), model.inputs(batch.subset(rows))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()
            xi = got[-2]
            assert all(np.shares_memory(x, xi) for x in got[:-2])  # each group a view of xi's rows
            loss, grads, yhat = model.loss_and_grads(got)
            want_loss, want_grads, want_yhat = model.loss_and_grads(want)
            assert loss == want_loss and yhat.tobytes() == want_yhat.tobytes()
            for g, w in zip(grads, want_grads):
                assert g.tobytes() == w.tobytes()
            assert model.forward(got).tobytes() == model.forward(want).tobytes()

    def test_train_subsets_no_batch_per_step(self, monkeypatch):
        """TensorBatch.subset calls in one train call do not grow with epochs or minibatches."""
        real, calls = TensorBatch.subset, []

        def counting(self, indices):
            calls.append(len(indices))
            return real(self, indices)

        monkeypatch.setattr(TensorBatch, "subset", counting)
        rng = np.random.default_rng(30)
        batch, val = random_batch(rng, 20), random_batch(rng, 4)
        counts = []
        for epochs, batch_size in ((1, 20), (3, 20), (3, 6)):
            calls.clear()
            model = build_model(tiny_config())
            train(model, model.inputs(batch), model.inputs(val),
                  TrainConfig(epochs=epochs, batch_size=batch_size, seed=0), probe_indices=[0, 5])
            counts.append(len(calls))
        assert counts == [counts[0]] * 3


class TestTrainOracles:
    """train against a train driven by the per-array Adam step."""

    @pytest.mark.parametrize("name", ["rgfil", "mdf", "mtl", "mlp"])
    def test_same_curves_and_parameters(self, name, monkeypatch):
        rng = np.random.default_rng(23)
        batch, val = random_batch(rng, 30), random_batch(rng, 7)
        cfg = TrainConfig(epochs=3, batch_size=12, seed=4)

        def run():
            model = build_model(preset(name, seed=5))
            result = train(model, model.inputs(batch), model.inputs(val), cfg)
            return result, model.params

        got, got_params = run()
        moments = {}

        def oracle_adam(params, grads, state, t, cfg):
            if t == 1:
                moments["m"] = [np.zeros_like(p) for p in params]
                moments["v"] = [np.zeros_like(p) for p in params]
            loop_adam_step(list(params), grads, moments["m"], moments["v"], t, cfg)

        with monkeypatch.context() as mp:
            mp.setattr(wingcp.model, "adam_step", oracle_adam)
            want, want_params = run()
        assert got.train_curve.tobytes() == want.train_curve.tobytes()
        assert got.val_curve.tobytes() == want.val_curve.tobytes()
        for a, b in zip(got_params, want_params):
            assert a.tobytes() == b.tobytes()


_DENSE16 = {"kind": "dense", "widths": (16, 16, 16), "channels": (4, 8, 16), "kernel": (2, 2)}
_CONV = {"kind": "conv", "widths": (16, 16, 16), "channels": (4, 8, 16), "kernel": (2, 2)}
_CONCAT = {"kind": "dense", "widths": (128,) * 6, "channels": (4, 8, 16), "kernel": (2, 2)}

# preset(name).to_dict() of each preset, every field written out
GOLDEN_PRESETS = {
    "rgfil": {
        "arch": "fusion",
        "neighbor_mode": "9-point",
        "active": (1, 2, 3, 4, 5),
        "k_outputs": 8,
        "nets": {1: _DENSE16, 2: _CONV, 3: _CONV, 4: _CONV, 5: _DENSE16},
        "context": _DENSE16,
        "concat": _CONCAT,
        "leaky_slope": 0.01,
        "seed": 0,
    },
    "mlp": {
        "arch": "concat",
        "neighbor_mode": "9-point",
        "active": (1, 2, 3, 4, 5),
        "k_outputs": 8,
        "nets": {},
        "context": _DENSE16,
        "concat": _CONCAT,
        "leaky_slope": 0.01,
        "seed": 0,
    },
    "mtl": {
        "arch": "fusion",
        "neighbor_mode": "1-point",
        "active": (1, 2),
        "k_outputs": 8,
        "nets": {1: _DENSE16, 2: _DENSE16},
        "context": _DENSE16,
        "concat": _CONCAT,
        "leaky_slope": 0.01,
        "seed": 0,
    },
    "mdf": {
        "arch": "fusion",
        "neighbor_mode": "1-point",
        "active": (1, 2, 3, 4, 5),
        "k_outputs": 8,
        "nets": {1: _DENSE16, 2: _DENSE16, 3: _CONV, 4: _CONV, 5: _DENSE16},
        "context": {"kind": "dense", "widths": (32, 32, 32), "channels": (4, 8, 16), "kernel": (2, 2)},
        "concat": _CONCAT,
        "leaky_slope": 0.01,
        "seed": 0,
    },
}


class TestPresets:
    def test_rgfil_topology(self):
        cfg = preset("rgfil")
        assert cfg.arch == "fusion" and cfg.neighbor_mode == "9-point"
        assert cfg.active == (1, 2, 3, 4, 5)
        assert cfg.nets[1].kind == "dense" and cfg.nets[5].kind == "dense"
        for z in (2, 3, 4):
            assert cfg.nets[z].kind == "conv"
            assert cfg.nets[z].channels == (4, 8, 16)
            assert cfg.nets[z].kernel == (2, 2)
        assert cfg.context.widths == (16, 16, 16)

    def test_mtl_topology(self):
        cfg = preset("mtl")
        assert cfg.active == (1, 2)
        assert cfg.neighbor_mode == "1-point"
        assert all(spec.kind == "dense" for spec in cfg.nets.values())

    def test_mdf_topology(self):
        cfg = preset("mdf")
        assert cfg.neighbor_mode == "1-point"
        assert cfg.nets[3].kind == "conv" and cfg.nets[4].kind == "conv"
        assert cfg.context.widths == (32, 32, 32)

    def test_mlp_topology(self):
        cfg = preset("mlp")
        assert cfg.arch == "concat"
        assert cfg.concat.widths == (128,) * 6

    @pytest.mark.parametrize("name", sorted(GOLDEN_PRESETS))
    def test_full_config_pinned(self, name):
        # repr pins key order and tuple types too: model.json writes the config in this order
        assert repr(preset(name).to_dict()) == repr(GOLDEN_PRESETS[name])

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("resnet")

    def test_config_round_trip(self):
        cfg = preset("rgfil", k_outputs=4, seed=9)
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_all_presets_forward(self):
        batch = random_batch(np.random.default_rng(18), 4)
        for name in ("rgfil", "mtl", "mdf", "mlp"):
            model = build_model(preset(name, seed=1))
            assert model.forward(model.inputs(batch)).shape == (4,)


def assert_params_are_views(model):
    """The layers' parameter arrays are ``model.params``, consecutive views of ``model.params.flat``."""
    flat = model.params.flat
    layer_params = [p for stack in model.stacks.values() for p in stack.params]
    assert len(layer_params) == len(model.params)
    assert all(p is q for p, q in zip(layer_params, model.params))
    before = flat.copy()
    flat[:] = np.arange(flat.size)
    assert np.concatenate([p.ravel() for p in layer_params]).tobytes() == flat.tobytes()
    np.copyto(flat, before)


class TestCheckpoint:
    @pytest.mark.parametrize("name", ["rgfil", "mdf", "mtl", "mlp"])
    def test_round_trip_bitwise(self, tmp_path, name):
        """save -> load -> save gives the same files, and the loaded model the same predictions."""
        from wingcp.data import fit_normalizer

        model = build_model(preset(name, seed=5))
        assert_params_are_views(model)
        batch = random_batch(np.random.default_rng(19), 6)
        train(model, model.inputs(batch), cfg=TrainConfig(epochs=2, batch_size=6, seed=5))
        normalizer = fit_normalizer(batch)
        save_checkpoint(tmp_path / "first", model, normalizer, extra={"model": name})
        loaded, norm_back, manifest = load_checkpoint(tmp_path / "first")
        assert_params_are_views(loaded)
        assert loaded.forward(loaded.inputs(batch)).tobytes() == model.forward(model.inputs(batch)).tobytes()
        assert manifest["extra"]["model"] == name
        assert norm_back.fitted_on == normalizer.fitted_on
        save_checkpoint(tmp_path / "second", loaded, norm_back, extra=manifest["extra"])
        for file in ("weights.bin", "model.json"):
            assert (tmp_path / "second" / file).read_bytes() == (tmp_path / "first" / file).read_bytes()

    def test_stride_listed_by_older_checkpoints(self, tmp_path):
        """Checkpoints from before the stride became the kernel list a ``stride``
        per net spec; it is an unknown key now, and the file is refused."""
        import json

        save_checkpoint(tmp_path / "ckpt", build_model(preset("rgfil", seed=1)))
        path = tmp_path / "ckpt" / "model.json"
        manifest = json.loads(path.read_text())
        config = manifest["config"]
        for spec in (config["context"], config["concat"], *config["nets"].values()):
            spec["stride"] = list(spec["kernel"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="unknown net spec key.*stride"):
            load_checkpoint(tmp_path / "ckpt")

    def test_layout_is_documented(self, tmp_path):
        import json

        model = build_model(preset("mtl", seed=1))
        save_checkpoint(tmp_path / "ckpt", model)
        manifest = json.loads((tmp_path / "ckpt" / "model.json").read_text())
        names = [entry["name"] for entry in manifest["layout"]]
        assert names == model.param_names()
        total = sum(int(np.prod(e["shape"])) for e in manifest["layout"])
        blob = (tmp_path / "ckpt" / "weights.bin").read_bytes()
        assert len(blob) == 8 * total


# sha256 of build_model(preset(name, seed=seed)).params.flat.tobytes(), recorded when each model drew its
# initial weights while its stacks were built; drawing them after construction must give the same bits
INIT_DIGESTS = {
    ("rgfil", 0): "0c1ecce8a431f673d688c47bcf358c20245c747a0820ac050b4adf1846f43183",
    ("rgfil", 7): "5de06a9d5face9e883c1a82fb63a17ce944b2b67366d03829cc240238ec64ad8",
    ("mdf", 0): "82507e98468473e6559f67f69bbaf07c13633cf0cb726a70dd8eaf5d9eaf5f58",
    ("mdf", 7): "c44089c256c4ca00ab32ec7f28e85cc3ce585de55c4c7a0e5d285ef6f2d141bf",
    ("mtl", 0): "bcd41e9b6dc5a37aa9b48fc4b68896e52f2a6f0e25ed5740c0634ef6060bc145",
    ("mtl", 7): "0f4d94c66c10c18bcf614b221097d69f88539bef039cd143464321c155655d6d",
    ("mlp", 0): "bfe17315eeeca671e2d9162f9bb6f3597f4b8817153f857f9b6103e1e690c3d8",
    ("mlp", 7): "a620fd3fd232d8ae3ef2e7222d247586214b9b37d1040236bb3d03b19055dc61",
}


class TestInitialWeights:
    @pytest.mark.parametrize("name,seed", sorted(INIT_DIGESTS))
    def test_pinned(self, name, seed):
        flat = build_model(preset(name, seed=seed)).params.flat
        assert hashlib.sha256(flat.tobytes()).hexdigest() == INIT_DIGESTS[name, seed]

    def test_checkpoint_load_draws_nothing(self, tmp_path, monkeypatch):
        """With every initial-weight draw made to raise, each preset still loads and predicts the same bytes."""
        batch = random_batch(np.random.default_rng(32), 9)
        want = {}
        for name in ("rgfil", "mdf", "mtl", "mlp"):
            model = build_model(preset(name, seed=4))
            save_checkpoint(tmp_path / name, model, fit_normalizer(batch))
            want[name] = model.forward(model.inputs(batch)).tobytes()

        def no_draw(*args, **kwargs):
            raise AssertionError("an initial weight was drawn")

        monkeypatch.setattr(wingcp.nn, "uniform_init", no_draw)
        monkeypatch.setattr(wingcp.nn.Stack, "init", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        for name, prediction in want.items():
            loaded, _, _ = load_checkpoint(tmp_path / name)
            assert loaded.forward(loaded.inputs(batch)).tobytes() == prediction

    def test_construction_lays_out_zeros(self):
        for name in ("rgfil", "mdf", "mtl", "mlp"):
            model = wingcp.model._construct(preset(name, seed=3))
            assert_params_are_views(model)
            assert not model.params.flat.any()
            assert model.param_names() == build_model(preset(name, seed=3)).param_names()


def _tiny_wing():
    """The tiny CLI wing (3 AoAs, 2 stations, 4 points a section) and its samples."""
    from wingcp.synth import SynthConfig, generate_synthetic

    res = generate_synthetic(SynthConfig(seed=3, stations=2, points_per_section=4, aoa_set=(0.0, 6.0, 12.0)))
    return res.manifold, res.samples


def _scattered(manifold, n=90):
    """n samples, each at its own random (patch, u, v), at the synth's one Ma and Re."""
    rng = np.random.default_rng(41)
    pids = manifold.patch_ids
    return Samples.from_rows([
        (pids[i % len(pids)], *rng.uniform(0.05, 0.95, 2), 0.175, float(rng.choice([0.0, 7.0, 12.0])),
         1.35e6, np.nan, rng.uniform(-1.0, 1.0))
        for i in range(n)
    ])


class TestNarrowedNormalization:
    """Normalizing only the columns a model reads gives the bits of normalizing the whole batch."""

    @pytest.mark.parametrize("normalize_targets", [False, True])
    @pytest.mark.parametrize("layout", ["tiny-wing", "scattered"])
    @pytest.mark.parametrize("name", ["rgfil", "mdf", "mtl", "mlp"])
    def test_bitwise_equal_to_full_batch(self, name, layout, normalize_targets):
        manifold, samples = _tiny_wing()
        if layout == "scattered":
            samples = _scattered(manifold)
        batch = assemble(manifold, samples, d=0.005).batch
        fitted = fit_normalizer(batch.subset(np.arange(0, batch.n, 2)), normalize_targets=normalize_targets)
        assert (fitted.maxs[:3] == fitted.mins[:3]).tolist() == [True, False, True]  # constant Ma and Re
        model = build_model(preset(name, seed=2))
        got, want = model.inputs(batch, fitted), model.inputs(mask_normalize(fitted, batch))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()
        width = {"rgfil": 147, "mdf": 19, "mtl": 6, "mlp": 147}[name]
        assert got[-2].shape == (batch.n, width)
        assert model.forward(got).tobytes() == model.forward(want).tobytes()
