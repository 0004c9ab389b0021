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
import math
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .data import NormalizationSpec, TensorBatch
from .errors import ConfigError, TrainingDiverged, check_int, check_keys
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
    "FlatParams",
    "AdamState",
    "adam_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

GROUP_IDS = (1, 2, 3, 4, 5)


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
        for name in ("widths", "channels", "kernel"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"net spec {name} must be a list of integers, got {value!r}")
            for x in value:
                check_int(x, f"net spec {name} entry", 1)
            setattr(self, name, tuple(value))
        if len(self.kernel) != 2:
            raise ConfigError(f"net spec kernel must have two entries, got {list(self.kernel)}")

    @classmethod
    def from_dict(cls, d):
        """Rebuild a spec; ConfigError names an unknown or missing key."""
        check_keys(d, cls, "net spec")
        return cls(**d)


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
        check_int(self.k_outputs, "k_outputs", 1)
        check_int(self.seed, "seed", 0)
        slope = self.leaky_slope
        if isinstance(slope, bool) or not isinstance(slope, (int, float)) or not 0.0 <= slope <= 1.0:
            raise ConfigError(f"leaky_slope must be a finite number in [0, 1], got {slope!r}")

    @property
    def context_width(self):
        return len(self.active) * self.k_outputs

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Rebuild a config from :meth:`to_dict` output; ConfigError names an unknown or missing key."""
        check_keys(d, cls, "model config")
        d = dict(d)
        if not isinstance(d["nets"], dict):
            raise ConfigError("model config nets is not an object")
        groups = {str(z): z for z in GROUP_IDS}
        for z in d["nets"]:
            if str(z) not in groups:
                raise ConfigError(f"model config nets key {z!r} is not one of the groups {GROUP_IDS}")
        d["nets"] = {groups[str(z)]: NetSpec.from_dict(spec) for z, spec in d["nets"].items()}
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

    def _forward_full(self, batch, keep=False):
        """yhat, f_all, c and, if ``keep``, the caches backward needs (None otherwise)."""
        inputs, xi = self._inputs(batch)
        f_parts, caches = [], {}
        for z in self.config.active:
            y, caches[z] = self.nets[z].forward(inputs[z], keep)
            f_parts.append(y)
        f_all = np.concatenate(f_parts, axis=1)  # (B, A*K)
        c, ctx_cache = self.context.forward(xi, keep)
        yhat = np.sum(f_all * c, axis=1)
        return yhat, f_all, c, caches, ctx_cache

    def forward(self, batch: TensorBatch, return_weights: bool = False):
        yhat, _, c, _, _ = self._forward_full(batch)
        return (yhat, c) if return_weights else yhat

    def loss_and_grads(self, batch: TensorBatch):
        yhat, f_all, c, caches, ctx_cache = self._forward_full(batch, keep=True)
        resid = yhat - batch.y
        loss = float(np.mean(resid**2))
        dyhat = (2.0 / batch.n) * resid
        df = c * dyhat[:, None]
        dc = f_all * dyhat[:, None]
        grads = []
        k = self.config.k_outputs
        for pos, z in enumerate(self.config.active):
            grads.extend(self.nets[z].backward(df[:, pos * k : (pos + 1) * k], caches[z]))
        grads.extend(self.context.backward(dc, ctx_cache))
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
        out, _ = self.stack.forward(self._inputs(batch), keep=False)
        yhat = out[:, 0]
        return (yhat, None) if return_weights else yhat

    def loss_and_grads(self, batch: TensorBatch):
        out, caches = self.stack.forward(self._inputs(batch))
        yhat = out[:, 0]
        resid = yhat - batch.y
        loss = float(np.mean(resid**2))
        dout = ((2.0 / batch.n) * resid)[:, None]
        grads = self.stack.backward(dout, caches)
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
        check_int(self.seed, "seed", 0)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for key in ("learning_rate", "epsilon"):
            if not (np.isfinite(getattr(self, key)) and getattr(self, key) > 0.0):
                raise ConfigError(f"{key} must be finite and > 0, got {getattr(self, key)}")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1), got {getattr(self, key)}")


class FlatParams(list):
    """Copies of parameter arrays as consecutive views of one flat float64 buffer, ``flat``."""

    def __init__(self, arrays):
        self.flat = np.concatenate([np.ravel(a) for a in arrays])
        ends = np.cumsum([a.size for a in arrays])[:-1]
        super().__init__(part.reshape(a.shape) for part, a in zip(np.split(self.flat, ends), arrays))


ADAM_CHUNK = 1 << 14  # elements per pass of the update, the size of its scratch buffer


@dataclass
class AdamState:
    """Adam's moments m and v over all parameters, each one flat buffer.

    ``g`` takes the flat gradient and then serves as scratch, with ``s``
    (one chunk of ADAM_CHUNK elements) beside it. ``shapes`` are the
    parameter shapes, in order.
    """

    m: np.ndarray
    v: np.ndarray
    g: np.ndarray
    s: np.ndarray
    shapes: list

    @classmethod
    def init(cls, params):
        n = sum(p.size for p in params)
        shapes = [p.shape for p in params]
        return cls(m=np.zeros(n), v=np.zeros(n), g=np.empty(n), s=np.empty(min(n, ADAM_CHUNK)), shapes=shapes)


def adam_step(params, grads, state: AdamState, t: int, cfg: TrainConfig):
    """One Adam update with bias correction, in place. t starts at 1.

    ``params`` is a :class:`FlatParams`. The update runs over the flat
    buffers, one chunk at a time, with in-place ufuncs, and allocates no
    array. Each element goes through the operations of the per-array
    form in the same order, so the bits are the same: m = b1*m + (1-b1)*g,
    v = b2*v + ((1-b2)*g)*g and p -= (lr*m_hat) / (sqrt(v_hat) + eps).
    """
    if t < 1:
        raise ValueError("Adam step count t must be >= 1")
    b1, b2 = cfg.beta1, cfg.beta2
    np.concatenate([np.ravel(x) for x in grads], out=state.g)
    if not (np.isfinite(state.g.min()) and np.isfinite(state.g.max())):  # a nan or an infinity
        ends = np.cumsum([math.prod(shape) for shape in state.shapes])
        i = int(np.searchsorted(ends, np.flatnonzero(~np.isfinite(state.g))[0], side="right"))
        raise TrainingDiverged(f"non-finite gradient in parameter {i} (shape {state.shapes[i]}) at step {t}")
    flat = params.flat
    for lo in range(0, flat.size, ADAM_CHUNK):
        p, g, m, v = (a[lo : lo + ADAM_CHUNK] for a in (flat, state.g, state.m, state.v))
        s = state.s[: g.size]
        np.multiply(1.0 - b2, g, out=s)
        s *= g
        v *= b2
        v += s
        g *= 1.0 - b1
        m *= b1
        m += g
        np.divide(m, 1.0 - b1**t, out=g)
        np.divide(v, 1.0 - b2**t, out=s)
        np.sqrt(s, out=s)
        s += cfg.epsilon
        g *= cfg.learning_rate
        g /= s
        p -= g
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
    params = FlatParams(model.params)
    model.set_params(params)
    state = AdamState.init(params)
    rng = np.random.default_rng([cfg.seed, 3])
    n = train_batch.n
    probes = np.asarray(probe_indices, dtype=int)
    log_weights = probes.size > 0 and isinstance(model, FusionModel)
    probe_batch = train_batch.subset(probes) if log_weights else None

    train_curve, val_curve, weight_frames = [], [], []
    last_good = FlatParams(params)
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
        np.copyto(last_good.flat, params.flat)

    return TrainResult(
        train_curve=np.array(train_curve),
        val_curve=np.array(val_curve),
        weight_log=np.stack(weight_frames) if weight_frames else None,
        epochs_run=cfg.epochs,
    )


# ---------------------------------------------------------------------------
# Checkpoints: JSON manifest + flat little-endian float64 weight blob
# ---------------------------------------------------------------------------


CHECKPOINT_FORMAT = "wingcp-checkpoint-v1"
# model.json key -> the JSON type it must hold
_MANIFEST_TYPES = {
    "format": str, "config": dict, "layout": list, "normalizer": (dict, type(None)), "extra": dict,
}


def _layout(model):
    return [{"name": name, "shape": list(p.shape)} for name, p in zip(model.param_names(), model.params)]


def save_checkpoint(outdir, model, normalizer: NormalizationSpec | None = None, extra: dict | None = None):
    os.makedirs(outdir, exist_ok=True)
    blob = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes() for p in model.params)
    with open(os.path.join(outdir, "weights.bin"), "wb") as fh:
        fh.write(blob)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "layout": _layout(model),
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
        "extra": extra or {},
    }
    with open(os.path.join(outdir, "model.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(ckptdir):
    """Rebuild (model, normalizer, manifest) from a checkpoint directory.

    Raises ConfigError for another ``format`` tag, a missing manifest key,
    a layout that differs in any name or shape from the model its config
    builds, or a weight blob of the wrong size.
    """
    with open(os.path.join(ckptdir, "model.json")) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ConfigError(f"{ckptdir}: model.json is not an object")
    for key, kind in _MANIFEST_TYPES.items():
        if key not in manifest or not isinstance(manifest[key], kind):
            raise ConfigError(f"{ckptdir}: model.json key {key} is missing or of the wrong type")
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise ConfigError(f"{ckptdir}: format {manifest['format']!r} is not {CHECKPOINT_FORMAT!r}")
    try:
        model = build_model(ModelConfig.from_dict(manifest["config"]))
        normalizer = NormalizationSpec.from_dict(manifest["normalizer"]) if manifest["normalizer"] else None
    except ConfigError as exc:
        raise ConfigError(f"{ckptdir}: {exc}") from None
    layout = _layout(model)
    for i, (got, want) in enumerate(zip(manifest["layout"], layout)):
        if got != want:
            raise ConfigError(f"{ckptdir}: layout entry {i} is {got}, the model has {want}")
    if len(manifest["layout"]) != len(layout):
        n = len(manifest["layout"])
        raise ConfigError(f"{ckptdir}: layout has {n} entries, the model {len(layout)}")
    with open(os.path.join(ckptdir, "weights.bin"), "rb") as fh:
        blob = fh.read()
    sizes = [p.size for p in model.params]
    if len(blob) != 8 * sum(sizes):
        raise ConfigError(f"{ckptdir}: weights.bin holds {len(blob)} bytes, the model {8 * sum(sizes)}")
    chunks = np.split(np.frombuffer(blob, dtype="<f8"), np.cumsum(sizes)[:-1])
    model.set_params([c.reshape(p.shape).astype(float) for c, p in zip(chunks, model.params)])
    return model, normalizer, manifest
