import re

import numpy as np
import pytest

import wingcp.model
from oracles import fd_model_gradients, loop_adam_step, rel_err

from wingcp.data import TensorBatch
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
    return TensorBatch(
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
            _set_head(model.nets[z], 1.0)
        _set_head(model.context, 0.2)
        batch = random_batch(np.random.default_rng(1), 4)
        np.testing.assert_allclose(model.forward(batch), 1.0, atol=1e-14)

    def test_zero_context_annihilates(self):
        model = build_model(preset("rgfil", seed=0))
        _set_head(model.context, 0.0)
        batch = random_batch(np.random.default_rng(2), 4)
        np.testing.assert_allclose(model.forward(batch), 0.0, atol=1e-15)

    def test_dot_product_identity(self):
        model = build_model(preset("rgfil", seed=3))
        batch = random_batch(np.random.default_rng(3), 5)
        yhat, f_all, c, _, _ = model._forward_full(batch)
        manual = np.array([float(np.dot(f_all[i], c[i])) for i in range(5)])
        np.testing.assert_allclose(yhat, manual, atol=1e-12)

    def test_uniform_context_reduces_to_average(self):
        cfg = preset("rgfil", seed=4)
        model = build_model(cfg)
        width = len(cfg.active) * cfg.k_outputs
        _set_head(model.context, 1.0 / width)
        batch = random_batch(np.random.default_rng(4), 6)
        yhat, f_all, _, _, _ = model._forward_full(batch)
        np.testing.assert_allclose(yhat, f_all.mean(axis=1), atol=1e-12)

    def test_return_weights_shape(self):
        cfg = preset("rgfil", seed=5)
        model = build_model(cfg)
        batch = random_batch(np.random.default_rng(5), 3)
        yhat, c = model.forward(batch, return_weights=True)
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
        fitted = TensorBatch(
            x1=batch.x1, x2=batch.x2, x3=batch.x3, x4=batch.x4, x5=batch.x5,
            y=model.forward(batch),
        )
        _, grads, _ = model.loss_and_grads(fitted)
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_gradients_match_finite_differences(self):
        """Every parameter gradient against central differences, rel err < 1e-4."""
        model = build_model(tiny_config())
        batch = random_batch(np.random.default_rng(8), 6)
        _, grads, _ = model.loss_and_grads(batch)
        fd = fd_model_gradients(model, batch, h=1e-6)
        for name, g, f in zip(model.param_names(), grads, fd):
            err = np.max(rel_err(g, f, floor=1e-4))
            assert err < 1e-4, f"{name}: rel err {err:.2e}"

    def test_concat_gradients_match_finite_differences(self):
        cfg = ModelConfig(arch="concat", neighbor_mode="9-point",
                          concat=NetSpec("dense", widths=(4, 4)), seed=9)
        model = build_model(cfg)
        batch = random_batch(np.random.default_rng(9), 5)
        _, grads, _ = model.loss_and_grads(batch)
        fd = fd_model_gradients(model, batch, h=1e-6)
        for g, f in zip(grads, fd):
            assert np.max(rel_err(g, f, floor=1e-4)) < 1e-4

    def test_context_first_layer_sees_every_group(self):
        """The context input gradient block of each active group is nonzero."""
        cfg = tiny_config()
        model = build_model(cfg)
        batch = random_batch(np.random.default_rng(10), 6)
        _, grads, _ = model.loss_and_grads(batch)
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
            model, random_batch(rng, 10), random_batch(rng, 4),
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
            result = train(model, batch, cfg=TrainConfig(epochs=5, batch_size=5, seed=21))
            curves.append(result.train_curve)
        np.testing.assert_array_equal(curves[0], curves[1])

    def test_permutation_consistency_full_batch(self):
        rng = np.random.default_rng(14)
        batch = random_batch(rng, 16)
        permuted = batch.subset(np.random.default_rng(5).permutation(16))
        cfg = TrainConfig(epochs=3, batch_size=16, seed=2)
        m1 = build_model(tiny_config(seed=2))
        m2 = build_model(tiny_config(seed=2))
        train(m1, batch, cfg=cfg)
        train(m2, permuted, cfg=cfg)
        for a, b in zip(m1.params, m2.params):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_loss_decreases_on_learnable_data(self):
        rng = np.random.default_rng(15)
        batch = random_batch(rng, 32)
        batch = TensorBatch(
            x1=batch.x1, x2=batch.x2, x3=batch.x3, x4=batch.x4, x5=batch.x5,
            y=batch.x1[:, 0] + 0.5 * batch.x5[:, 4],
        )
        model = build_model(tiny_config(seed=1))
        result = train(model, batch, cfg=TrainConfig(epochs=200, batch_size=32, seed=1))
        assert result.train_curve[-1] < 0.05 * result.train_curve[0]

    def test_weight_log_shape(self):
        cfg = tiny_config()
        model = build_model(cfg)
        batch = random_batch(np.random.default_rng(16), 10)
        result = train(
            model, batch, cfg=TrainConfig(epochs=4, batch_size=10, seed=0), probe_indices=[0, 3]
        )
        assert result.weight_log.shape == (4, 2, len(cfg.active) * cfg.k_outputs)

    def test_divergence_restores_last_good(self):
        model = build_model(tiny_config(seed=3))
        init = [p.copy() for p in model.params]
        batch = random_batch(np.random.default_rng(17), 8)
        batch.y[0] = np.nan
        with pytest.raises(TrainingDiverged) as excinfo:
            train(model, batch, cfg=TrainConfig(epochs=3, batch_size=8, seed=0))
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
            train(model, batch, cfg=TrainConfig(epochs=3, batch_size=4, seed=0))
        epoch_1 = build_model(preset("mtl", seed=3))
        train(epoch_1, batch, cfg=TrainConfig(epochs=1, batch_size=4, seed=0))
        for restored, want in zip(model.params, epoch_1.params):
            assert restored.tobytes() == want.tobytes()
        assert any(a.tobytes() != b.tobytes() for a, b in zip(model.params, init))


class TestTrainOracles:
    """train against a train driven by the per-array Adam step."""

    @pytest.mark.parametrize("name", ["rgfil", "mdf", "mtl", "mlp"])
    def test_same_curves_and_parameters(self, name, monkeypatch):
        rng = np.random.default_rng(23)
        batch, val = random_batch(rng, 30), random_batch(rng, 7)
        cfg = TrainConfig(epochs=3, batch_size=12, seed=4)

        def run():
            model = build_model(preset(name, seed=5))
            result = train(model, batch, val, cfg)
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
            assert model.forward(batch).shape == (4,)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        from wingcp.data import fit_normalizer

        model = build_model(tiny_config(seed=5))
        batch = random_batch(np.random.default_rng(19), 6)
        train(model, batch, cfg=TrainConfig(epochs=2, batch_size=6, seed=5))
        normalizer = fit_normalizer(batch)
        save_checkpoint(tmp_path / "ckpt", model, normalizer, extra={"model": "tiny"})
        loaded, norm_back, manifest = load_checkpoint(tmp_path / "ckpt")
        np.testing.assert_array_equal(loaded.forward(batch), model.forward(batch))
        assert manifest["extra"]["model"] == "tiny"
        assert norm_back.fitted_on == normalizer.fitted_on

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
