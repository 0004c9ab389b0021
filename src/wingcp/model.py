"""Multi-feature fusion regressor and its training machinery.

The fusion architecture runs one function network per active feature
group and a context network over the concatenation of all active
groups. With K outputs per function network and A active groups, the
prediction for a sample is the dot product

    yhat = sum_{z,alpha} f_z,alpha(x_z) * c_{(z-1)K+alpha}(xi)

where c is the context network's (A*K)-wide raw weight vector (no
normalization is applied to it). A plain concatenation baseline maps
the flattened groups through a single dense stack to one output.

Training is full reverse-mode gradient descent with Adam, seeded and
bitwise deterministic for a fixed configuration, data order and BLAS
thread count (matrix products round differently when split over
another number of threads).
"""

import json
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .data import NormalizationSpec, TensorBatch
from .errors import ConfigError, TrainingDiverged
from .nn import Stack, conv_stack, dense_stack

__all__ = [
    "NetSpec",
    "ModelConfig",
    "TrainConfig",
    "TrainResult",
    "preset",
    "input_shapes",
    "build_model",
    "FusionModel",
    "ConcatModel",
    "loss_mse",
    "AdamState",
    "adam_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

GROUP_IDS = (1, 2, 3, 4, 5)


def _check_keys(cls, d: dict, what: str):
    """Raise ConfigError naming the keys of ``d`` that are not fields of ``cls``."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {', '.join(unknown)}")


@dataclass
class NetSpec:
    """Topology of one subnetwork: a dense stack or a conv stack."""

    kind: str  # "dense" | "conv"
    widths: tuple = (16, 16, 16)  # dense hidden widths
    channels: tuple = (4, 8, 16)  # conv out-channels per layer
    kernel: tuple = (2, 2)  # conv windows do not overlap: the stride is the kernel

    def __post_init__(self):
        if self.kind not in ("dense", "conv"):
            raise ConfigError(f"unknown net kind {self.kind!r}")
        self.widths = tuple(self.widths)
        self.channels = tuple(self.channels)
        self.kernel = tuple(self.kernel)

    @classmethod
    def from_dict(cls, d):
        """Rebuild a spec; a ``stride`` (listed by older checkpoints) must equal the kernel."""
        d = dict(d)
        stride = d.pop("stride", None)
        _check_keys(cls, d, "net spec")
        spec = cls(**d)
        if stride is not None and not np.array_equal(stride, spec.kernel):
            raise ConfigError(f"conv stride {stride} differs from kernel {list(spec.kernel)}")
        return spec


@dataclass
class ModelConfig:
    arch: str = "fusion"  # "fusion" | "concat"
    neighbor_mode: str = "9-point"  # "9-point" | "1-point"
    active: tuple = (1, 2, 3, 4, 5)
    k_outputs: int = 8
    nets: dict = field(default_factory=dict)  # group id -> NetSpec
    context: NetSpec = field(default_factory=lambda: NetSpec("dense", widths=(16, 16, 16)))
    concat: NetSpec = field(default_factory=lambda: NetSpec("dense", widths=(128,) * 6))
    leaky_slope: float = 0.01
    seed: int = 0

    def __post_init__(self):
        self.active = tuple(sorted(self.active))
        if self.arch not in ("fusion", "concat"):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.neighbor_mode not in ("9-point", "1-point"):
            raise ConfigError(f"unknown neighbor mode {self.neighbor_mode!r}")
        if not self.active or any(z not in GROUP_IDS for z in self.active):
            raise ConfigError(f"active groups must be a nonempty subset of {GROUP_IDS}")
        if self.k_outputs < 1:
            raise ConfigError("k_outputs must be >= 1")

    @property
    def context_width(self):
        return len(self.active) * self.k_outputs

    def to_dict(self):
        d = asdict(self)
        d["nets"] = {str(z): asdict(spec) for z, spec in self.nets.items()}
        d["context"] = asdict(self.context)
        d["concat"] = asdict(self.concat)
        return d

    @classmethod
    def from_dict(cls, d):
        """Rebuild a config from :meth:`to_dict` output; ConfigError names an unknown key."""
        d = dict(d)
        _check_keys(cls, d, "model config")
        d["nets"] = {int(z): NetSpec.from_dict(spec) for z, spec in d.get("nets", {}).items()}
        d["context"] = NetSpec.from_dict(d["context"])
        d["concat"] = NetSpec.from_dict(d["concat"])
        d["active"] = tuple(d["active"])
        return cls(**d)


_DENSE16 = lambda: NetSpec("dense", widths=(16, 16, 16))
_CONV = lambda: NetSpec("conv", channels=(4, 8, 16))


def preset(name: str, **overrides) -> ModelConfig:
    """Named model presets selectable from the command line.

    rgfil  fusion over all five groups with 9-point stencil features and
           conv stacks on x2/x3/x4
    mdf    fusion over all five groups at the center point only
    mtl    fusion over flight conditions + coordinates only
    mlp    plain dense stack over the concatenated 9-point features
    """
    if name == "rgfil":
        cfg = ModelConfig(
            arch="fusion",
            neighbor_mode="9-point",
            active=(1, 2, 3, 4, 5),
            nets={1: _DENSE16(), 2: _CONV(), 3: _CONV(), 4: _CONV(), 5: _DENSE16()},
            context=_DENSE16(),
        )
    elif name == "mdf":
        cfg = ModelConfig(
            arch="fusion",
            neighbor_mode="1-point",
            active=(1, 2, 3, 4, 5),
            nets={1: _DENSE16(), 2: _DENSE16(), 3: _CONV(), 4: _CONV(), 5: _DENSE16()},
            context=NetSpec("dense", widths=(32, 32, 32)),
        )
    elif name == "mtl":
        cfg = ModelConfig(
            arch="fusion",
            neighbor_mode="1-point",
            active=(1, 2),
            nets={1: _DENSE16(), 2: _DENSE16()},
            context=_DENSE16(),
        )
    elif name == "mlp":
        cfg = ModelConfig(
            arch="concat",
            neighbor_mode="9-point",
            active=(1, 2, 3, 4, 5),
            concat=NetSpec("dense", widths=(128,) * 6),
        )
    else:
        raise ConfigError(f"unknown model preset {name!r}")
    valid = {f.name for f in fields(ModelConfig)}
    for key, val in overrides.items():
        if key not in valid:
            raise ConfigError(f"unknown ModelConfig field {key!r}")
        setattr(cfg, key, val)
    cfg.__post_init__()
    return cfg


def input_shapes(neighbor_mode: str) -> dict:
    """Per-group feature shapes (without the batch axis) for a mode."""
    if neighbor_mode == "9-point":
        return {1: (3,), 2: (1, 9, 3), 3: (1, 18, 2), 4: (2, 18, 2), 5: (9,)}
    if neighbor_mode == "1-point":
        return {1: (3,), 2: (3,), 3: (1, 2, 2), 4: (2, 2, 2), 5: (1,)}
    raise ConfigError(f"unknown neighbor mode {neighbor_mode!r}")


def _build_stack(rng, spec: NetSpec, in_shape, out_dim, slope) -> Stack:
    if spec.kind == "dense":
        return dense_stack(rng, int(np.prod(in_shape)), spec.widths, out_dim, slope)
    if len(in_shape) != 3:
        raise ConfigError(f"conv network needs a (C, H, W) feature group, got shape {in_shape}")
    return conv_stack(rng, in_shape, spec.channels, out_dim, spec.kernel, slope)


class FusionModel:
    """Function networks fused by context-generated weights."""

    def __init__(self, config: ModelConfig):
        if config.arch != "fusion":
            raise ConfigError("FusionModel requires arch='fusion'")
        self.config = config
        shapes = input_shapes(config.neighbor_mode)
        rng = np.random.default_rng([config.seed, 7])
        self.nets = {}
        for z in config.active:
            spec = config.nets.get(z, _DENSE16())
            self.nets[z] = _build_stack(rng, spec, shapes[z], config.k_outputs, config.leaky_slope)
        xi_dim = sum(int(np.prod(shapes[z])) for z in config.active)
        self.context = dense_stack(
            rng, xi_dim, config.context.widths, config.context_width, config.leaky_slope
        )

    @property
    def params(self):
        out = []
        for z in self.config.active:
            out.extend(self.nets[z].params)
        out.extend(self.context.params)
        return out

    def set_params(self, arrays):
        i = 0
        for z in self.config.active:
            k = len(self.nets[z].params)
            self.nets[z].set_params(arrays[i : i + k])
            i += k
        self.context.set_params(arrays[i:])

    def param_names(self):
        names = []
        for z in self.config.active:
            for idx in range(len(self.nets[z].params)):
                names.append(f"f{z}.p{idx}")
        for idx in range(len(self.context.params)):
            names.append(f"context.p{idx}")
        return names

    def _inputs(self, batch: TensorBatch):
        view = batch if self.config.neighbor_mode == "9-point" else batch.pointwise()
        groups = view.groups()
        out = {}
        for z in self.config.active:
            x = groups[f"x{z}"]
            spec = self.config.nets.get(z, _DENSE16())
            out[z] = x.reshape(x.shape[0], -1) if spec.kind == "dense" else x
        xi = np.concatenate(
            [groups[f"x{z}"].reshape(batch.n, -1) for z in self.config.active], axis=1
        )
        return out, xi

    def _forward_full(self, batch):
        inputs, xi = self._inputs(batch)
        f_parts, caches = [], {}
        for z in self.config.active:
            y, cache = self.nets[z].forward(inputs[z])
            f_parts.append(y)
            caches[z] = cache
        f_all = np.concatenate(f_parts, axis=1)  # (B, A*K)
        c, ctx_cache = self.context.forward(xi)
        yhat = np.sum(f_all * c, axis=1)
        return yhat, f_all, c, caches, ctx_cache

    def forward(self, batch: TensorBatch, return_weights: bool = False):
        yhat, _, c, _, _ = self._forward_full(batch)
        return (yhat, c) if return_weights else yhat

    def loss_and_grads(self, batch: TensorBatch):
        yhat, f_all, c, caches, ctx_cache = self._forward_full(batch)
        resid = yhat - batch.y
        loss = float(np.mean(resid**2))
        dyhat = (2.0 / batch.n) * resid
        df = c * dyhat[:, None]
        dc = f_all * dyhat[:, None]
        grads = []
        k = self.config.k_outputs
        for pos, z in enumerate(self.config.active):
            _, g = self.nets[z].backward(df[:, pos * k : (pos + 1) * k], caches[z])
            grads.extend(g)
        _, g = self.context.backward(dc, ctx_cache)
        grads.extend(g)
        return loss, grads, yhat


class ConcatModel:
    """Single dense stack over the concatenated flattened feature groups."""

    def __init__(self, config: ModelConfig):
        if config.arch != "concat":
            raise ConfigError("ConcatModel requires arch='concat'")
        self.config = config
        shapes = input_shapes(config.neighbor_mode)
        in_dim = sum(int(np.prod(shapes[z])) for z in config.active)
        rng = np.random.default_rng([config.seed, 7])
        self.stack = dense_stack(rng, in_dim, config.concat.widths, 1, config.leaky_slope)

    @property
    def params(self):
        return self.stack.params

    def set_params(self, arrays):
        self.stack.set_params(arrays)

    def param_names(self):
        return [f"concat.p{i}" for i in range(len(self.stack.params))]

    def _inputs(self, batch: TensorBatch):
        view = batch if self.config.neighbor_mode == "9-point" else batch.pointwise()
        groups = view.groups()
        return np.concatenate(
            [groups[f"x{z}"].reshape(batch.n, -1) for z in self.config.active], axis=1
        )

    def forward(self, batch: TensorBatch, return_weights: bool = False):
        out, _ = self.stack.forward(self._inputs(batch))
        yhat = out[:, 0]
        return (yhat, None) if return_weights else yhat

    def loss_and_grads(self, batch: TensorBatch):
        out, caches = self.stack.forward(self._inputs(batch))
        yhat = out[:, 0]
        resid = yhat - batch.y
        loss = float(np.mean(resid**2))
        dout = ((2.0 / batch.n) * resid)[:, None]
        _, grads = self.stack.backward(dout, caches)
        return loss, grads, yhat


def build_model(config: ModelConfig):
    return FusionModel(config) if config.arch == "fusion" else ConcatModel(config)


def loss_mse(yhat, y) -> float:
    """Mean squared error (1/M) sum (y - yhat)^2."""
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if yhat.shape != y.shape:
        raise ValueError(f"length mismatch: {yhat.shape} vs {y.shape}")
    if yhat.size == 0:
        raise ValueError("empty batch")
    return float(np.mean((y - yhat) ** 2))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 470
    epochs: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class AdamState:
    m: list
    v: list

    @classmethod
    def init(cls, params):
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, t: int, cfg: TrainConfig):
    """One Adam update with bias correction, in place. t starts at 1."""
    if t < 1:
        raise ValueError("Adam step count t must be >= 1")
    b1, b2 = cfg.beta1, cfg.beta2
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in parameter {i} (shape {p.shape}) at step {t}")
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / (1.0 - b1**t)
        v_hat = state.v[i] / (1.0 - b2**t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return state


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    train_curve: np.ndarray  # per-epoch MSE on the training set
    val_curve: np.ndarray  # per-epoch MSE on the validation set (NaN if none)
    weight_log: np.ndarray | None  # (epochs, n_probes, A*K) context weights
    epochs_run: int

    @property
    def final_train_mse(self):
        return float(self.train_curve[-1])


def train(
    model,
    train_batch: TensorBatch,
    val_batch: TensorBatch | None = None,
    cfg: TrainConfig | None = None,
    probe_indices=(),
) -> TrainResult:
    """Seeded mini-batch Adam training with per-epoch loss bookkeeping.

    ``probe_indices`` select training samples whose context weight
    vectors are recorded every epoch (fusion models only). Divergence
    raises TrainingDiverged carrying the last finite parameter set.
    """
    if cfg is None:
        cfg = TrainConfig()
    params = model.params
    state = AdamState.init(params)
    rng = np.random.default_rng([cfg.seed, 3])
    n = train_batch.n
    probes = np.asarray(probe_indices, dtype=int)
    log_weights = probes.size > 0 and isinstance(model, FusionModel)
    probe_batch = train_batch.subset(probes) if log_weights else None

    train_curve, val_curve, weight_frames = [], [], []
    last_good = [p.copy() for p in params]
    t = 0
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        try:
            for start in range(0, n, cfg.batch_size):
                chunk = perm[start : start + cfg.batch_size]
                _, grads, _ = model.loss_and_grads(train_batch.subset(chunk))
                t += 1
                adam_step(params, grads, state, t, cfg)
        except TrainingDiverged as exc:
            model.set_params(last_good)
            raise TrainingDiverged(
                f"{exc} (epoch {epoch})",
                last_good=last_good,
                train_curve=np.array(train_curve),
                val_curve=np.array(val_curve),
            ) from None

        train_mse = loss_mse(model.forward(train_batch), train_batch.y)
        val_mse = (
            loss_mse(model.forward(val_batch), val_batch.y) if val_batch is not None else float("nan")
        )
        if not np.isfinite(train_mse):
            model.set_params(last_good)
            raise TrainingDiverged(
                f"training loss became non-finite at epoch {epoch}",
                last_good=last_good,
                train_curve=np.array(train_curve),
                val_curve=np.array(val_curve),
            )
        train_curve.append(train_mse)
        val_curve.append(val_mse)
        if log_weights:
            _, c = model.forward(probe_batch, return_weights=True)
            weight_frames.append(c.copy())
        last_good = [p.copy() for p in params]

    return TrainResult(
        train_curve=np.array(train_curve),
        val_curve=np.array(val_curve),
        weight_log=np.stack(weight_frames) if weight_frames else None,
        epochs_run=cfg.epochs,
    )


# ---------------------------------------------------------------------------
# Checkpoints: JSON manifest + flat little-endian float64 weight blob
# ---------------------------------------------------------------------------


def save_checkpoint(outdir, model, normalizer: NormalizationSpec | None = None, extra: dict | None = None):
    os.makedirs(outdir, exist_ok=True)
    params = model.params
    layout = [
        {"name": name, "shape": list(p.shape)} for name, p in zip(model.param_names(), params)
    ]
    blob = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes() for p in params)
    with open(os.path.join(outdir, "weights.bin"), "wb") as fh:
        fh.write(blob)
    manifest = {
        "format": "wingcp-checkpoint-v1",
        "config": model.config.to_dict(),
        "layout": layout,
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
        "extra": extra or {},
    }
    with open(os.path.join(outdir, "model.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(ckptdir):
    """Rebuild (model, normalizer, manifest) from a checkpoint directory."""
    with open(os.path.join(ckptdir, "model.json")) as fh:
        manifest = json.load(fh)
    config = ModelConfig.from_dict(manifest["config"])
    model = build_model(config)
    with open(os.path.join(ckptdir, "weights.bin"), "rb") as fh:
        blob = fh.read()
    flat = np.frombuffer(blob, dtype="<f8")
    arrays, off = [], 0
    for entry in manifest["layout"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        arrays.append(flat[off : off + size].reshape(shape).astype(float))
        off += size
    if off != flat.size:
        raise ConfigError(f"{ckptdir}: weight blob size mismatch ({flat.size} vs {off})")
    model.set_params(arrays)
    normalizer = (
        NormalizationSpec.from_dict(manifest["normalizer"]) if manifest.get("normalizer") else None
    )
    return model, normalizer, manifest
