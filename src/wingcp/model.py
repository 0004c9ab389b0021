"""Multi-feature fusion regressor and its training machinery.

The fusion architecture runs one function network per active feature
group and a context network over the concatenation of all active
groups. With K outputs per function network and A active groups, the
prediction for a sample is the dot product

    yhat = sum_{z,alpha} f_z,alpha(x_z) * c_{(z-1)K+alpha}(xi)

where c is the context network's (A*K)-wide raw weight vector (no
normalization is applied to it). A plain concatenation baseline maps
the flattened groups through a single dense stack to one output.
The four model presets (rgfil, and the mlp, mtl and mdf baselines it is
compared with) are defined once, as the entries of ``PRESETS``:
``preset`` builds a config from it and ``wingcp --model`` takes its
choices from it.
From construction, a model's parameter arrays are views of one flat
float64 buffer, ``model.params.flat``, which the Adam step updates in
place and a checkpoint's ``weights.bin`` holds byte for byte.
Construction lays the buffer out with zeros; ``build_model`` then draws
the initial weights into it, and ``load_checkpoint`` copies
``weights.bin`` into it and draws nothing.

``forward`` and ``loss_and_grads`` take a batch in the form
``model.inputs(batch, normalizer)`` prepares: each group a function
network takes, as a view of xi in the shape its stack reads (conv groups
channel-major), then xi, then y. xi holds only ``model.columns``, the
columns of the batch's x the model reads, and a normalizer normalizes
only those.
``train`` takes its training and validation batches in that form, and
each minibatch and probe set is ``model.rows`` of them, so a step copies
the rows of xi and y and no other feature array.

Training is full reverse-mode gradient descent with Adam, seeded and
bitwise deterministic for a fixed configuration and data order on one
BLAS build and CPU kernel, whatever the BLAS thread count (see
``wingcp.nn`` for the operand layouts and row blocks that make it so,
and for the one known exception).
"""

import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import GROUP_COLUMNS, GROUP_SHAPES, POINTWISE_COLUMNS, POINTWISE_SHAPES, NormalizationSpec, TensorBatch
from .errors import ConfigError, TrainingDiverged, check_int, check_keys
from .files import read_json, write_json
from .nn import Stack, conv_stack, dense_stack

__all__ = [
    "NetSpec",
    "ModelConfig",
    "TrainConfig",
    "TrainResult",
    "PRESETS",
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
    context: NetSpec = field(default_factory=lambda: NetSpec("dense"))
    concat: NetSpec = field(default_factory=lambda: NetSpec("dense", widths=(128,) * 6))
    leaky_slope: float = 0.01
    seed: int = 0

    def __post_init__(self):
        active = self.active
        ids = isinstance(active, (list, tuple)) and all(type(z) is int and z in GROUP_IDS for z in active)
        if not ids or not active or len(set(active)) < len(active):
            raise ConfigError(f"active groups must be a nonempty list of distinct group ids {GROUP_IDS}, got {active!r}")
        self.active = tuple(sorted(active))
        if self.arch not in ("fusion", "concat"):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.neighbor_mode not in ("9-point", "1-point"):
            raise ConfigError(f"unknown neighbor mode {self.neighbor_mode!r}")
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
        return cls(**d)


def _nets(active, conv=()):
    """A NetSpec per active group: a conv stack for the groups in ``conv``, a dense one for the others."""
    return {z: NetSpec("conv" if z in conv else "dense") for z in active}


# The model presets selectable with --model, in the CLI's order; each states what differs from the defaults.
PRESETS = {
    "rgfil": lambda: ModelConfig(nets=_nets(GROUP_IDS, conv=(2, 3, 4))),
    "mlp": lambda: ModelConfig(arch="concat"),
    "mtl": lambda: ModelConfig(neighbor_mode="1-point", active=(1, 2), nets=_nets((1, 2))),
    "mdf": lambda: ModelConfig(
        neighbor_mode="1-point", nets=_nets(GROUP_IDS, conv=(3, 4)), context=NetSpec("dense", widths=(32, 32, 32))
    ),
}


def preset(name: str, **overrides) -> ModelConfig:
    """The config of a preset of :data:`PRESETS`, with ``overrides`` of its ModelConfig fields.

    rgfil  fusion over all five groups with 9-point stencil features and
           conv stacks on x2/x3/x4
    mlp    plain dense stack over the concatenated 9-point features
    mtl    fusion over flight conditions + coordinates only
    mdf    fusion over all five groups at the center point only, conv
           stacks on x3/x4
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown model preset {name!r}")
    valid = {f.name for f in fields(ModelConfig)}
    for key in overrides:
        if key not in valid:
            raise ConfigError(f"unknown ModelConfig field {key!r}")
    return replace(PRESETS[name](), **overrides)


def input_shapes(neighbor_mode: str) -> dict:
    """Per-group feature shapes (without the batch axis) for a mode, keyed by group id."""
    layout = {"9-point": GROUP_SHAPES, "1-point": POINTWISE_SHAPES}[neighbor_mode]
    return {z: layout[f"x{z}"] for z in GROUP_IDS}


def _build_stack(spec: NetSpec, in_shape, out_dim, slope) -> Stack:
    if spec.kind == "dense":
        return dense_stack(int(np.prod(in_shape)), spec.widths, out_dim, slope)
    if len(in_shape) != 3:
        raise ConfigError(f"conv network needs a (C, H, W) feature group, got shape {in_shape}")
    return conv_stack(in_shape, spec.channels, out_dim, spec.kernel, slope)


class _Model:
    """Named stacks over the active feature groups, trained on the MSE loss.

    ``stacks`` maps each stack's name to it, in parameter order. Their
    layers' parameter arrays are replaced here, once, by consecutive
    views of one zeroed :class:`FlatParams` buffer, ``params``, which
    :func:`build_model` or :func:`load_checkpoint` then fills. ``columns``
    indexes the columns of a batch's x the model reads, in xi's order: each
    active group's (all of them, or the centre slot's for a 1-point model)
    side by side. ``groups`` lists, for each group a stack of the model
    takes on its own, in xi's order, the group's per-sample shape and
    whether its stack is a conv stack. A subclass supplies ``_forward(inputs, keep) -> (yhat,
    weights, cache)`` on :meth:`inputs` output and ``_backward(dyhat,
    cache) -> grads`` in ``params`` order.
    """

    def __init__(self, config: ModelConfig, stacks: dict, groups=()):
        self.config = config
        self.stacks = stacks
        layout = POINTWISE_COLUMNS if config.neighbor_mode == "1-point" else GROUP_COLUMNS
        self.columns = np.concatenate([layout[f"x{z}"] for z in config.active])
        ends = np.cumsum([0] + [math.prod(shape) for shape, _ in groups]).tolist()
        # each group's columns of xi, and its (C, H, W) if its stack takes it channel-major
        self._views = [(lo, hi, shape if conv else None) for (shape, conv), lo, hi in zip(groups, ends, ends[1:])]
        layers = [layer for stack in stacks.values() for layer in stack.layers]
        slots = [(layer, name) for layer in layers for name in layer.param_attrs]
        self.params = FlatParams([getattr(layer, name) for layer, name in slots])
        for (layer, name), view in zip(slots, self.params):
            setattr(layer, name, view)

    def param_names(self):
        return [f"{name}.p{i}" for name, stack in self.stacks.items() for i in range(len(stack.params))]

    def inputs(self, batch: TensorBatch, normalizer: NormalizationSpec | None = None):
        """The arrays the model's layers read, prepared once per batch.

        A tuple: for a fusion model each active group in the shape its
        stack takes (dense: (B, D) rows; conv: channel-major (C, B, H, W)),
        then for either model xi, the :attr:`columns` of ``batch.x`` as a
        C-ordered (B, sum D), and last the targets y (B,). With a
        ``normalizer``, xi and y are normalized, and only these columns
        are. Each group is a view of its columns of xi, so xi and y are the
        only arrays :meth:`rows` copies.
        """
        if normalizer is None:
            return self._prepare(np.take(batch.x, self.columns, axis=1), batch.y)
        return self._prepare(*normalizer.apply(batch, self.columns))

    def rows(self, inputs, indices):
        """Samples ``indices`` of prepared ``inputs``: the arrays ``inputs(batch.subset(indices))`` holds."""
        xi, y = inputs[-2:]
        return self._prepare(xi.take(indices, axis=0), y.take(indices))

    def _prepare(self, xi, y):
        # A view keeps xi's row stride. That decides bits for a one-feature group (mdf's x5): numpy
        # takes its weight gradient x.T @ dy as an OpenBLAS gemv, which sums otherwise at unit stride.
        own = []
        for lo, hi, shape in self._views:
            x = xi[:, lo:hi]
            own.append(x if shape is None else np.swapaxes(x.reshape(xi.shape[0], *shape), 0, 1))
        return (*own, xi, y)

    def forward(self, inputs, return_weights: bool = False):
        """yhat on prepared ``inputs`` and, if ``return_weights``, the context weights (None for a concat model)."""
        yhat, weights, _ = self._forward(inputs, keep=False)
        return (yhat, weights) if return_weights else yhat

    def loss_and_grads(self, inputs):
        """MSE loss on prepared ``inputs``, parameter gradients in ``params`` order, and yhat."""
        yhat, _, cache = self._forward(inputs, keep=True)
        y = inputs[-1]
        resid = yhat - y
        loss = float(np.mean(resid**2))
        return loss, self._backward((2.0 / y.shape[0]) * resid, cache), yhat


class FusionModel(_Model):
    """Function networks ``f1``..``f5`` fused by weights from the ``context`` network."""

    def __init__(self, config: ModelConfig):
        shapes = input_shapes(config.neighbor_mode)
        specs = {z: config.nets.get(z, NetSpec("dense")) for z in config.active}
        slope = config.leaky_slope
        stacks = {f"f{z}": _build_stack(spec, shapes[z], config.k_outputs, slope) for z, spec in specs.items()}
        xi_dim = sum(int(np.prod(shapes[z])) for z in config.active)
        stacks["context"] = dense_stack(xi_dim, config.context.widths, config.context_width, slope)
        super().__init__(config, stacks, [(shapes[z], spec.kind == "conv") for z, spec in specs.items()])

    def _forward(self, inputs, keep=False):
        """yhat, the context weights c, and (f_all, c, per-stack caches) for backward (None caches unless ``keep``)."""
        f_parts, caches = [], []
        for z, x in zip(self.config.active, inputs):
            y, cache = self.stacks[f"f{z}"].forward(x, keep)
            f_parts.append(y)
            caches.append(cache)
        f_all = np.concatenate(f_parts, axis=1)  # (B, A*K)
        c, ctx_cache = self.stacks["context"].forward(inputs[-2], keep)
        caches.append(ctx_cache)
        return np.add.reduce(f_all * c, axis=1), c, (f_all, c, caches)

    def _backward(self, dyhat, cache):
        f_all, c, caches = cache
        k = self.config.k_outputs
        dc = c * dyhat[:, None]
        dys = [dc[:, i : i + k] for i in range(0, dc.shape[1], k)] + [f_all * dyhat[:, None]]
        grads = []
        for stack, dy, stack_cache in zip(self.stacks.values(), dys, caches):
            grads.extend(stack.backward(dy, stack_cache))
        return grads


class ConcatModel(_Model):
    """Single dense stack, ``concat``, over the concatenated flattened feature groups."""

    def __init__(self, config: ModelConfig):
        shapes = input_shapes(config.neighbor_mode)
        in_dim = sum(int(np.prod(shapes[z])) for z in config.active)
        stack = dense_stack(in_dim, config.concat.widths, 1, config.leaky_slope)
        super().__init__(config, {"concat": stack})

    def _forward(self, inputs, keep=False):
        out, caches = self.stacks["concat"].forward(inputs[0], keep)
        return out[:, 0], None, caches

    def _backward(self, dyhat, caches):
        return self.stacks["concat"].backward(dyhat[:, None], caches)


def _construct(config: ModelConfig):
    """The model ``config`` describes, with zero parameters."""
    return FusionModel(config) if config.arch == "fusion" else ConcatModel(config)


def build_model(config: ModelConfig):
    """The model ``config`` describes, with its initial weights.

    One generator seeded by ``config.seed`` draws the weights stack by
    stack in parameter order (biases start at zero).
    """
    model = _construct(config)
    rng = np.random.default_rng([config.seed, 7])
    for stack in model.stacks.values():
        stack.init(rng)
    return model


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
        check_int(self.epochs, "epochs", 1)
        check_int(self.batch_size, "batch_size", 1)
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
    (one chunk of ADAM_CHUNK elements) beside it.
    """

    m: np.ndarray
    v: np.ndarray
    g: np.ndarray
    s: np.ndarray

    @classmethod
    def init(cls, params):
        n = sum(p.size for p in params)
        return cls(m=np.zeros(n), v=np.zeros(n), g=np.empty(n), s=np.empty(min(n, ADAM_CHUNK)))


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
    np.concatenate(grads, axis=None, out=state.g)
    if not (np.isfinite(state.g.min()) and np.isfinite(state.g.max())):  # a nan or an infinity
        ends = np.cumsum([grad.size for grad in grads])
        i = int(np.searchsorted(ends, np.flatnonzero(~np.isfinite(state.g))[0], side="right"))
        raise TrainingDiverged(f"non-finite gradient in parameter {i} (shape {grads[i].shape}) at step {t}")
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

    @property
    def final_train_mse(self):
        return float(self.train_curve[-1])


def train(model, data, val=None, cfg: TrainConfig | None = None, probe_indices=()) -> TrainResult:
    """Seeded mini-batch Adam training with per-epoch loss bookkeeping.

    ``data`` and ``val`` are training and validation batches as
    ``model.inputs`` prepares them, so training holds only the arrays the
    model reads; the losses are on their targets. ``probe_indices``
    select training samples whose context weight vectors are recorded
    every epoch (fusion models only). Divergence raises TrainingDiverged
    carrying the last finite parameter set.
    """
    if cfg is None:
        cfg = TrainConfig()
    params = model.params
    state = AdamState.init(params)
    rng = np.random.default_rng([cfg.seed, 3])
    n = data[-1].shape[0]
    probes = np.asarray(probe_indices, dtype=int)
    log_weights = probes.size > 0 and isinstance(model, FusionModel)
    probe_data = model.rows(data, probes) if log_weights else None

    train_curve, val_curve, weight_frames = [], [], []
    last_good = FlatParams(params)
    t = 0
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        try:
            for start in range(0, n, cfg.batch_size):
                chunk = perm[start : start + cfg.batch_size]
                _, grads, _ = model.loss_and_grads(model.rows(data, chunk))
                t += 1
                adam_step(params, grads, state, t, cfg)
            train_mse = loss_mse(model.forward(data), data[-1])
            if not np.isfinite(train_mse):
                raise TrainingDiverged("training loss became non-finite")
        except TrainingDiverged as exc:
            np.copyto(params.flat, last_good.flat)
            raise TrainingDiverged(f"{exc} (epoch {epoch})", last_good=last_good) from None

        val_mse = loss_mse(model.forward(val), val[-1]) if val is not None else float("nan")
        train_curve.append(train_mse)
        val_curve.append(val_mse)
        if log_weights:
            _, c = model.forward(probe_data, return_weights=True)
            weight_frames.append(c.copy())
        np.copyto(last_good.flat, params.flat)

    return TrainResult(
        train_curve=np.array(train_curve),
        val_curve=np.array(val_curve),
        weight_log=np.stack(weight_frames) if weight_frames else None,
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
    with open(os.path.join(outdir, "weights.bin"), "wb") as fh:
        fh.write(model.params.flat.astype("<f8").tobytes())
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "layout": _layout(model),
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
        "extra": extra or {},
    }
    write_json(os.path.join(outdir, "model.json"), manifest)


def load_checkpoint(ckptdir):
    """Rebuild (model, normalizer, manifest) from a checkpoint directory.

    The model's parameter buffer is filled from ``weights.bin``; no
    initial weights are drawn. Raises SampleParseError, naming ``model.json``, for text that is not a
    JSON object, and ConfigError for another ``format`` tag, a missing
    manifest key, a layout that differs in any name or shape from the model
    its config builds, or a weight blob of the wrong size or with a value
    that is not finite.
    """
    manifest = read_json(os.path.join(ckptdir, "model.json"))
    for key, kind in _MANIFEST_TYPES.items():
        if key not in manifest or not isinstance(manifest[key], kind):
            raise ConfigError(f"{ckptdir}: model.json key {key} is missing or of the wrong type")
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise ConfigError(f"{ckptdir}: format {manifest['format']!r} is not {CHECKPOINT_FORMAT!r}")
    try:
        model = _construct(ModelConfig.from_dict(manifest["config"]))
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
    flat = model.params.flat
    if len(blob) != 8 * flat.size:
        raise ConfigError(f"{ckptdir}: weights.bin holds {len(blob)} bytes, the model {8 * flat.size}")
    weights = np.frombuffer(blob, dtype="<f8")
    if not (np.isfinite(weights.min()) and np.isfinite(weights.max())):  # a nan or an infinity
        i = int(np.flatnonzero(~np.isfinite(weights))[0])
        raise ConfigError(f"{ckptdir}: weights.bin holds a non-finite weight ({weights[i]}) at index {i}")
    np.copyto(flat, weights)
    return model, normalizer, manifest
