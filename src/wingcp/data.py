"""Sample ingestion, feature assembly, normalization and fold splitting.

Each measured sample is a surface location (patch id, u, v), a flight
condition (Ma, AoA, Re), an optional span station and a pressure
coefficient; a Samples table holds one array per column. Assembly
expands the samples into one TensorBatch of five feature groups built
from a 9-point stencil (per sample):

    x1  (3,)         Ma, AoA, Re
    x2  (1, 9, 3)    3D positions of the stencil points
    x3  (1, 18, 2)   nine 2x2 metrics stacked (slot r -> rows 2r..2r+1)
    x4  (2, 18, 2)   nine Christoffel arrays, upper index as channel
    x5  (9,)         nine scalar curvatures

Slot order is identical across x2..x5. The feature cache stores each
array as a .npy file (x1.npy .. x5.npy, y.npy), which the program reads
back bit for bit; its text files are written for people and for eval:
features_points.csv (one row per stencil point, taken from these
arrays), meta.csv (each sample's source, read only by eval for its
error map) and y.csv.
Geometry is computed patch by patch over arrays: each distinct stencil
centre is calibrated once and each distinct stencil point's chain runs
once, whatever the number of samples that share them.
Normalization is componentwise max-min to [0, 1], fit on training data
only; constant columns map to 0.0. A fitted normalizer covers every
column of the five groups, and applying it normalizes only the columns a
model reads (``NormalizationSpec.apply``). Cross-validation folds are
leave-one-AoA-out.
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .bezier import PiecewiseManifold, SurfacePoint
from .errors import (
    AssemblyError, ConfigError, DegenerateMetric, SampleParseError, StencilOutOfPatch, check_keys,
)
from .files import read_json, read_rows, write_json, write_rows
from .geometry import DEFAULT_CONVENTION, feature_bundle, point_features
from .stencil import NEIGHBOR_SLOTS, build_stencil, stencil_points

__all__ = [
    "FOLD_AOAS_DEFAULT",
    "FEATURE_POINTS_HEADER",
    "Samples",
    "TensorBatch",
    "NormalizationSpec",
    "AssembleResult",
    "load_samples",
    "save_samples",
    "assemble",
    "fit_normalizer",
    "fold_split",
    "train_val_split",
    "meta_rows",
    "save_feature_cache",
    "load_feature_cache",
    "load_meta",
]

# Test AoAs of the standard leave-one-AoA-out protocol; samples at other
# angles stay train-only.
FOLD_AOAS_DEFAULT = (7.0, 12.0, 16.0, 18.0, 18.5, 19.0, 20.0)

SAMPLE_HEADER = ["patch_id", "u", "v", "Ma", "AoA", "Re", "span", "cp"]

GROUP_SHAPES = {"x1": (3,), "x2": (1, 9, 3), "x3": (1, 18, 2), "x4": (2, 18, 2), "x5": (9,)}
# the centre-slot layout of POINTWISE_COLUMNS, which single-point models take
POINTWISE_SHAPES = {"x1": (3,), "x2": (3,), "x3": (1, 2, 2), "x4": (2, 2, 2), "x5": (1,)}


def _centre_columns():
    """Each group's flat columns at the stencil centre (slot 4; rows 8-9 of x3, x4), in POINTWISE_SHAPES order."""
    index = {key: np.arange(math.prod(shape)).reshape(shape) for key, shape in GROUP_SHAPES.items()}
    centre = {
        "x1": index["x1"],
        "x2": index["x2"][0, 4, :],
        "x3": index["x3"][:, 8:10, :],
        "x4": index["x4"][:, 8:10, :],
        "x5": index["x5"][4:5],
    }
    return {key: cols.reshape(-1) for key, cols in centre.items()}


POINTWISE_COLUMNS = _centre_columns()


@dataclass
class Samples:
    """Measured samples as a column table: row i of every array is sample i.

    ``patch_id`` holds str objects; ``span`` is NaN where the sample file
    leaves it empty. :func:`load_samples` checks every row it reads; a
    table built in code is taken as given.
    """

    patch_id: np.ndarray
    u: np.ndarray
    v: np.ndarray
    ma: np.ndarray
    aoa: np.ndarray
    re: np.ndarray
    span: np.ndarray
    cp: np.ndarray

    @classmethod
    def from_rows(cls, rows):
        """A table from (patch_id, u, v, ma, aoa, re, span, cp) tuples."""
        numbers = np.array([r[1:] for r in rows], dtype=float).reshape(-1, 7)
        return cls(np.array([r[0] for r in rows], dtype=object), *numbers.T)

    def __len__(self):
        return len(self.cp)

    def subset(self, rows):
        """The samples at ``rows`` (an index array or a slice), in that order."""
        return Samples(**{name: column[rows] for name, column in vars(self).items()})


@dataclass
class TensorBatch:
    """Stacked feature groups for B samples: x1 (B,3) ... x5 (B,9), y (B,)."""

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    x4: np.ndarray
    x5: np.ndarray
    y: np.ndarray

    @property
    def n(self):
        return self.x1.shape[0]

    def groups(self):
        return {"x1": self.x1, "x2": self.x2, "x3": self.x3, "x4": self.x4, "x5": self.x5}

    def subset(self, indices):
        idx = np.asarray(indices)
        return TensorBatch(
            self.x1[idx], self.x2[idx], self.x3[idx], self.x4[idx], self.x5[idx], self.y[idx]
        )

    def columns(self, columns):
        """The selected ``columns`` side by side, (B, total), un-normalized.

        ``columns`` pairs group keys with flat columns of that group, as
        for :meth:`NormalizationSpec.apply`.
        """
        groups = self.groups()
        parts = [groups[key].reshape(self.n, -1)[:, cols] for key, cols in columns]
        # C order, whatever order numpy gives a gather of columns
        return np.concatenate(parts, axis=1, out=np.empty((self.n, sum(x.shape[1] for x in parts))))


@dataclass
class AssembleResult:
    """The features of every kept sample, stacked once, and where they came from.

    Row r of ``batch`` and of ``samples`` is input sample ``kept[r]``, and
    ``uv[r]`` holds the (u, v) of its nine stencil points on the sample's
    patch, in the batch's slot order. ``counts`` tallies the work of one
    call: the distinct centres calibrated and the distinct stencil points
    evaluated (summed over patches), and over the kept samples the
    stencils with a clamped offset, the neighbor slots at zero spacing and
    the least and greatest achieved chord of an axial neighbor that is not
    clamped (None when there is none).
    """

    batch: TensorBatch
    samples: Samples  # the kept samples
    kept: list  # indices into the input samples
    dropped: list  # (index, reason) pairs
    uv: np.ndarray  # (len(kept), 9, 2)
    counts: dict


_AXIAL_SLOTS = [5, 3, 1, 7]  # E, W, N, S
_AXIAL_CLAMPED = [NEIGHBOR_SLOTS.index(s) for s in _AXIAL_SLOTS]  # their columns of the clamped flags


def _distinct(uv: np.ndarray):
    """The bitwise-distinct rows of an (N, 2) float array and each row's index among them."""
    keys, inverse = np.unique(np.ascontiguousarray(uv).view(np.int64), axis=0, return_inverse=True)
    return keys.view(float), inverse.reshape(-1)


def _drop_reason(manifold, center: SurfacePoint, d: float) -> str:
    """The error the one-point calls raise for the stencil of a sample that ``assemble`` drops."""
    try:
        for point in build_stencil(manifold, center, d).points:
            feature_bundle(manifold, point)
    except (StencilOutOfPatch, DegenerateMetric) as exc:
        return f"{type(exc).__name__}: {exc}"
    raise AssertionError(f"assemble dropped the sample at {center}, the one-point calls keep it")


def assemble(
    manifold: PiecewiseManifold,
    samples: Samples,
    d: float,
    max_drop_fraction: float = 0.10,
) -> AssembleResult:
    """Expand samples into one batch of stencil feature tensors, in input order.

    Works patch by patch over arrays: each distinct centre (u, v) is
    calibrated once (``stencil_points``), each distinct stencil point's
    jet -> metric -> connection -> curvature chain is computed once
    (``point_features``), and the results are scattered back to the
    samples. A sample is dropped and logged when an axial offset does not
    fit in its patch (the first in E, W, N, S order: StencilOutOfPatch),
    or else when a stencil point has a degenerate metric (the first in
    slot order: DegenerateMetric); the reason is the text the one-point
    calls ``build_stencil`` and ``feature_bundle`` raise. Assembly fails
    only when the drop fraction exceeds ``max_drop_fraction``.
    """
    n = len(samples)
    uv, pos = np.empty((n, 9, 2)), np.empty((n, 9, 3))
    g, gamma, scalar = np.empty((n, 9, 2, 2)), np.empty((n, 9, 2, 2, 2)), np.empty((n, 9))
    good = np.zeros(n, dtype=bool)
    reasons = {}
    counts = dict.fromkeys(("distinct_centres", "distinct_points", "clamped_stencils", "zero_spacing_slots"), 0)
    chords = [np.empty(0)]  # achieved chords of the unclamped axial neighbors of kept centres
    # np.unique compares the str objects exactly; == with a str would drop a trailing NUL
    pids, patch_of = np.unique(samples.patch_id, return_inverse=True)
    for k, pid in enumerate(pids.tolist()):
        manifold.assert_ready(pid)
        grid = manifold.grid(pid)
        rows = np.flatnonzero(patch_of == k)
        centres, centre_of = _distinct(np.column_stack([samples.u[rows], samples.v[rows]]))
        st_uv, clamped, extent = stencil_points(grid, centres[:, 0], centres[:, 1], d)
        fits = (d <= extent).all(axis=1)
        points, point_of = _distinct(st_uv[fits].reshape(-1, 2))
        f = point_features(grid, points[:, 0], points[:, 1])
        slots = np.zeros((len(centres), 9), dtype=int)  # distinct point of each slot
        slots[fits] = point_of.reshape(-1, 9)
        ok = fits.copy()
        ok[fits] = ~f.degenerate[slots[fits]].any(axis=1)
        counts["distinct_centres"] += len(centres)
        counts["distinct_points"] += len(points)

        mine = ok[centre_of]
        kept_rows, idx = rows[mine], slots[centre_of[mine]]
        good[kept_rows] = True
        uv[kept_rows] = st_uv[centre_of[mine]]
        pos[kept_rows] = f.position[idx]
        g[kept_rows] = f.g[idx]
        gamma[kept_rows] = f.gamma[idx]
        scalar[kept_rows] = f.scalar[idx]
        zero = (f.position[idx[:, NEIGHBOR_SLOTS]] == f.position[idx[:, 4:5]]).all(axis=-1)
        counts["clamped_stencils"] += int(clamped[centre_of[mine]].any(axis=1).sum())
        counts["zero_spacing_slots"] += int(zero.sum())
        at = f.position[slots[ok]]
        chord = np.linalg.norm(at[:, _AXIAL_SLOTS] - at[:, 4:5], axis=-1)
        chords.append(chord[~clamped[ok][:, _AXIAL_CLAMPED]])

        for i in rows[~mine].tolist():
            center = SurfacePoint(pid, samples.u[i].item(), samples.v[i].item())
            reasons[i] = _drop_reason(manifold, center, d)
    chords = np.concatenate(chords)
    counts["axial_chord_min"] = float(chords.min()) if chords.size else None
    counts["axial_chord_max"] = float(chords.max()) if chords.size else None
    dropped = sorted(reasons.items())
    if n and len(dropped) > max_drop_fraction * n:
        raise AssemblyError(
            f"dropped {len(dropped)}/{n} samples (> {max_drop_fraction:.0%})", dropped=dropped
        )
    kept = np.flatnonzero(good)
    m, mine = len(kept), samples.subset(kept)
    batch = TensorBatch(
        x1=np.column_stack([mine.ma, mine.aoa, mine.re]),
        x2=pos[kept].reshape(m, 1, 9, 3),
        x3=g[kept].reshape(m, 1, 18, 2),
        x4=gamma[kept].transpose(0, 2, 1, 3, 4).reshape(m, 2, 18, 2),
        x5=scalar[kept],
        y=mine.cp,
    )
    return AssembleResult(batch, mine, kept.tolist(), dropped, uv[kept], counts)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass
class NormalizationSpec:
    """Componentwise max-min normalization fitted on training data.

    Columns with zero span ("constant columns") normalize to 0.0.
    ``fitted_on`` is a provenance tag serialized alongside any trained
    model.
    """

    mins: dict
    maxs: dict
    y_min: float
    y_max: float
    normalize_targets: bool
    fitted_on: str

    def apply(self, batch: TensorBatch, columns):
        """The normalized ``columns`` of ``batch`` side by side, and its targets: (xi, y).

        ``columns`` pairs group keys with flat columns of that group (an
        index array or a slice), in xi's order: the columns a model reads
        (``model.columns``). Each column is (x - lo) / span by its own
        bounds, and 0.0 where the span is 0 (a constant column), which is
        computed as (x - 0) / 1, so it raises no floating-point error, and
        then set to 0.0. Columns do not interact, so xi holds bit for bit
        these columns of the whole batch normalized. y is normalized when
        ``normalize_targets`` is set.
        """
        xi = batch.columns(columns)
        lo = np.concatenate([self.mins[key][cols] for key, cols in columns])
        span = np.concatenate([self.maxs[key][cols] for key, cols in columns]) - lo
        const = span == 0.0
        xi -= np.where(const, 0.0, lo)
        xi /= np.where(const, 1.0, span)
        xi[:, const] = 0.0
        y = batch.y
        if self.normalize_targets:
            span = self.y_max - self.y_min
            y = (y - self.y_min) / span if span != 0.0 else np.zeros_like(y)
        return xi, y

    def invert_targets(self, y: np.ndarray) -> np.ndarray:
        if not self.normalize_targets:
            return y
        return y * (self.y_max - self.y_min) + self.y_min

    def to_dict(self):
        return {
            "mins": {k: v.tolist() for k, v in self.mins.items()},
            "maxs": {k: v.tolist() for k, v in self.maxs.items()},
            "y_min": self.y_min,
            "y_max": self.y_max,
            "normalize_targets": self.normalize_targets,
            "fitted_on": self.fitted_on,
            "constant_column_policy": "zero",
        }

    @classmethod
    def from_dict(cls, d):
        """Rebuild from :meth:`to_dict` output.

        ConfigError names a missing or unknown key, a group other than
        x1..x5, bounds whose length is not the group's flattened size, a
        bound that is not a finite number, a ``normalize_targets`` that is
        not a JSON bool and a ``fitted_on`` that is not a string.
        """
        check_keys(d, cls, "normalizer", optional=("constant_column_policy",))
        bounds = {}
        for name in ("mins", "maxs"):
            if not isinstance(d[name], dict) or set(d[name]) != set(GROUP_SHAPES):
                raise ConfigError(f"normalizer {name} must map each of {', '.join(GROUP_SHAPES)} to its bounds")
            bounds[name] = {
                k: _finite(d[name][k], f"normalizer {name}.{k}", (math.prod(shape),))
                for k, shape in GROUP_SHAPES.items()
            }
        if not isinstance(d["normalize_targets"], bool):
            got = d["normalize_targets"]
            raise ConfigError(f"normalizer normalize_targets must be true or false, got {got!r}")
        if not isinstance(d["fitted_on"], str):
            raise ConfigError(f"normalizer fitted_on must be a string, got {d['fitted_on']!r}")
        return cls(
            **bounds,
            y_min=float(_finite(d["y_min"], "normalizer y_min", ())),
            y_max=float(_finite(d["y_max"], "normalizer y_max", ())),
            normalize_targets=d["normalize_targets"],
            fitted_on=d["fitted_on"],
        )


def _finite(value, what: str, shape) -> np.ndarray:
    """``value`` as a float array of ``shape``; ConfigError unless it is one, all finite."""
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        x = np.full(shape, np.nan)
    if x.shape != shape or not np.isfinite(x).all():
        raise ConfigError(f"{what} must be {math.prod(shape)} finite number(s)")
    return x


def fit_normalizer(
    batch: TensorBatch, normalize_targets: bool = False, fitted_on: str = "train"
) -> NormalizationSpec:
    if batch.n == 0:
        raise ValueError("cannot fit a normalizer on an empty batch")
    mins, maxs = {}, {}
    for key, x in batch.groups().items():
        flat = x.reshape(batch.n, -1)
        mins[key] = flat.min(axis=0)
        maxs[key] = flat.max(axis=0)
    return NormalizationSpec(
        mins=mins,
        maxs=maxs,
        y_min=float(batch.y.min()),
        y_max=float(batch.y.max()),
        normalize_targets=normalize_targets,
        fitted_on=fitted_on,
    )


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def fold_split(aoas, fold_aoas) -> list:
    """Leave-one-AoA-out folds: fold k tests every row whose AoA is fold_aoas[k].

    ``aoas[i]`` is the angle of attack of batch row i. Training indices
    are the complement, including rows at AoAs that never appear as a
    fold. Raises ConfigError for duplicate or absent fold AoAs.
    """
    fold_aoas = list(fold_aoas)
    if not fold_aoas:
        raise ConfigError("fold_aoas must be nonempty")
    for i, a in enumerate(fold_aoas):
        for b in fold_aoas[i + 1 :]:
            if math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9):
                raise ConfigError(f"duplicate fold AoA {a}")
    aoas = np.asarray(aoas, dtype=float)
    folds = []
    for a in fold_aoas:
        test = np.flatnonzero(np.isclose(aoas, a, rtol=0.0, atol=1e-9))
        if test.size == 0:
            raise ConfigError(f"fold AoA {a} absent from data")
        train = np.setdiff1d(np.arange(aoas.size), test)
        folds.append((train, test))
    return folds


def train_val_split(indices, aoas, seed: int, val_fraction: float = 0.10):
    """Seeded train/validation split, stratified by AoA.

    ``aoas[i]`` is the angle of attack of batch row i. Groups with a
    single sample stay in training; every other group contributes at
    least one validation sample. Raises ConfigError unless
    0 < val_fraction < 1 (at 0 every such group would still give one).
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    indices = np.asarray(indices)
    rng = np.random.default_rng([int(seed), 91])
    groups: dict[float, list] = {}
    for idx in indices:
        groups.setdefault(float(aoas[int(idx)]), []).append(int(idx))
    train, val = [], []
    for aoa in sorted(groups):
        members = np.array(groups[aoa])
        rng.shuffle(members)
        if members.size < 2:
            train.extend(members.tolist())
            continue
        n_val = max(1, int(round(val_fraction * members.size)))
        val.extend(members[:n_val].tolist())
        train.extend(members[n_val:].tolist())
    return np.array(sorted(train)), np.array(sorted(val))


# ---------------------------------------------------------------------------
# Sample CSV: patch_id,u,v,Ma,AoA,Re,span,cp
# ---------------------------------------------------------------------------


def load_samples(path, known_patches=None) -> Samples:
    """Parse a sample CSV into a Samples table; errors carry the 1-based file row number.

    Each row must hold finite numbers (an empty span reads as NaN), u and v
    in [0, 1], and Ma and Re > 0.
    """
    rows = []
    for where, row in read_rows(path, SAMPLE_HEADER):
        pid = row[0].strip()
        if known_patches is not None and pid not in known_patches:
            raise SampleParseError(f"{where}: unknown patch_id {pid!r}")
        try:
            u, v, ma, aoa, re = map(float, row[1:6])
            span = float(row[6]) if row[6].strip() != "" else None
            cp = float(row[7])
        except ValueError as exc:
            raise SampleParseError(f"{where}: {exc}") from None
        if not all(map(math.isfinite, (u, v, ma, aoa, re, cp, 0.0 if span is None else span))):
            raise SampleParseError(f"{where}: non-finite value")
        if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
            raise SampleParseError(f"{where}: parameters outside [0,1]: u={u}, v={v}")
        if ma <= 0 or re <= 0:
            raise SampleParseError(f"{where}: Ma and Re must be positive, got Ma={ma}, Re={re}")
        rows.append((pid, u, v, ma, aoa, re, math.nan if span is None else span, cp))
    return Samples.from_rows(rows)


def _span_text(span: float) -> str:
    return "" if math.isnan(span) else format(span, ".17g")


def save_samples(path, samples: Samples):
    """Write a sample CSV that :func:`load_samples` reads back bit for bit."""
    columns = (samples.u, samples.v, samples.ma, samples.aoa, samples.re, samples.span, samples.cp)
    rows = zip(samples.patch_id.tolist(), *(c.tolist() for c in columns))
    write_rows(path, SAMPLE_HEADER, ([*row[:6], _span_text(row[6]), row[7]] for row in rows))


# ---------------------------------------------------------------------------
# Feature cache: one .npy per batch array + manifest.json, and the text
# files y.csv, meta.csv and features_points.csv
# ---------------------------------------------------------------------------

_META_HEADER = ["row", "patch_id", "u", "v", "x", "y", "z", "Ma", "AoA", "Re", "span", "cp"]
_META_NUMERIC = ("u", "v", "x", "y", "z", "Ma", "AoA", "Re", "cp")  # span may also be empty
_META_LINE = "%d,%s,%.17g,%.17g,%.17g,%s,%.17g\r\n"  # row, location fields, Ma, AoA, Re, span, cp

# features_points.csv: one row per stencil point, nine rows per sample
FEATURE_POINTS_HEADER = [
    "patch_id", "u", "v", "x", "y", "z", "g11", "g12", "g22",
    "gam111", "gam112", "gam122", "gam211", "gam212", "gam222", "S", "stencil_slot",
]
_UPPER = ([0, 0, 1], [0, 1, 1])  # (i, j) with i <= j, in column order


def _point_values(batch: TensorBatch) -> np.ndarray:
    """Numeric columns of features_points.csv, shape (B, 9, 13): x, y, z, g_ij, Gamma^k_ij, S."""
    n = batch.n
    g = batch.x3.reshape(n, 9, 2, 2)[:, :, _UPPER[0], _UPPER[1]]
    gamma = batch.x4.reshape(n, 2, 9, 2, 2)[:, :, :, _UPPER[0], _UPPER[1]]  # [b][k][slot][ij]
    gamma = gamma.transpose(0, 2, 1, 3).reshape(n, 9, 6)
    return np.concatenate([batch.x2.reshape(n, 9, 3), g, gamma, batch.x5[:, :, None]], axis=2)


def _meta_lines(result: AssembleResult) -> list:
    """The data lines of ``meta.csv``, one per kept sample, as csv.writer writes them.

    The location fields (patch id, u, v and the stencil centre's x, y, z)
    are formatted once per distinct location, keyed on the patch id and
    the five values' bytes so that -0.0 and 0.0 stay apart.
    """
    s = result.samples
    values = np.concatenate([np.column_stack([s.u, s.v]), result.batch.x2[:, 0, 4, :]], axis=1)
    pids = s.patch_id.tolist()
    fields = _csv_fields(pids)
    location = {}  # (patch id, the five values as bytes) -> their text
    lines = []
    columns = (s.ma, s.aoa, s.re, s.span, s.cp)
    for out_row, (pid, row, ma, aoa, re, span, cp) in enumerate(
        zip(pids, values, *(c.tolist() for c in columns))
    ):
        key = (pid, row.tobytes())
        if key not in location:
            location[key] = ",".join([fields[pid]] + [format(c, ".17g") for c in row.tolist()])
        lines.append(_META_LINE % (out_row, location[key], ma, aoa, re, _span_text(span), cp))
    return lines


def meta_rows(result: AssembleResult) -> list:
    """One ``meta.csv`` row per kept sample: text fields keyed by column name.

    These are the rows ``load_meta`` reads back; x, y, z are the position
    of the stencil centre.
    """
    return [dict(zip(_META_HEADER, r)) for r in csv.reader(_meta_lines(result))]


def _csv_field(text: str) -> str:
    """``text`` as csv.writer's default dialect writes it inside a row (minimal quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_fields(pids: list) -> dict:
    """``_csv_field`` of each distinct patch id, keyed by the id."""
    return {pid: _csv_field(pid) for pid in set(pids)}


def save_feature_cache(outdir, result: AssembleResult, manifest: dict):
    """Write the raw (un-normalized) batch arrays, their text forms, sample metadata and manifest.

    The nine ``features_points.csv`` rows of a sample are formatted once
    per distinct (patch id, row values) and written again as the same text
    for every later sample at that location (e.g. the same point at
    another AoA).
    """
    os.makedirs(outdir, exist_ok=True)
    batch = result.batch
    for key, x in {**batch.groups(), "y": batch.y}.items():
        np.save(os.path.join(outdir, f"{key}.npy"), x, allow_pickle=False)
    with open(os.path.join(outdir, "y.csv"), "w", newline="") as fh:
        fh.write("".join(["cp\r\n"] + ["%.17g\r\n" % v for v in batch.y.tolist()]))
    with open(os.path.join(outdir, "meta.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("".join([",".join(_META_HEADER) + "\r\n"] + _meta_lines(result)))
    with open(os.path.join(outdir, "features_points.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FEATURE_POINTS_HEADER) + "\r\n")
        fmt = "%s," + ",".join(["%.17g"] * (len(FEATURE_POINTS_HEADER) - 2)) + ",%d\r\n"
        values = np.concatenate([result.uv, _point_values(batch)], axis=2)
        pids = result.samples.patch_id.tolist()
        fields = _csv_fields(pids)
        text = {}  # (patch id, the sample's row values as bytes) -> its nine rows
        for pid, rows in zip(pids, values):
            key = (pid, rows.tobytes())
            if key not in text:
                text[key] = "".join([fmt % (fields[pid], *r, slot) for slot, r in enumerate(rows.tolist())])
            fh.write(text[key])
    manifest = dict(manifest)
    manifest["shapes"] = {k: list(v) for k, v in GROUP_SHAPES.items()}
    manifest["n_samples"] = batch.n
    manifest["dropped"] = [{"row": i, "reason": r} for i, r in result.dropped]
    write_json(os.path.join(outdir, "manifest.json"), manifest)


def _load_array(path, shape) -> np.ndarray:
    """A finite float64 array of ``shape`` from a .npy file; SampleParseError names the file."""
    try:
        with open(path, "rb") as fh:
            x = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise SampleParseError(f"{path}: {exc}") from None
    if x.dtype != np.float64 or x.shape != shape:
        raise SampleParseError(f"{path}: {x.dtype} {x.shape}, not float64 {shape} (n_samples of manifest.json)")
    if not np.isfinite(x).all():
        raise SampleParseError(f"{path}: non-finite value")
    return x


def load_feature_cache(cachedir):
    """Read a feature cache's arrays back into (TensorBatch, manifest).

    Each ``.npy`` file must hold a finite float64 array of shape
    (n_samples, *group shape), n_samples from ``manifest.json``;
    SampleParseError names the first file that does not, and a manifest
    whose ``convention`` is not ``geometry.DEFAULT_CONVENTION`` (the one
    sign of S). No CSV file is opened: ``meta.csv`` is read by
    :func:`load_meta`.
    """
    path = os.path.join(cachedir, "manifest.json")
    manifest = read_json(path)
    convention = manifest.get("convention")
    if convention != DEFAULT_CONVENTION:
        raise SampleParseError(f"{path}: convention {convention!r}, not {DEFAULT_CONVENTION!r}")
    n = manifest.get("n_samples")
    shapes = {**GROUP_SHAPES, "y": ()}
    arrays = {k: _load_array(os.path.join(cachedir, f"{k}.npy"), (n, *shape)) for k, shape in shapes.items()}
    return TensorBatch(**arrays), manifest


def load_meta(cachedir, n: int) -> list:
    """The ``n`` rows of a cache's ``meta.csv`` as text fields keyed by column name.

    Every numeric value (u, v, x, y, z, Ma, AoA, Re, cp and a non-empty
    span) must parse as a finite number; SampleParseError names the file.
    """
    path = os.path.join(cachedir, "meta.csv")
    meta = []
    for where, row in read_rows(path, _META_HEADER):
        r = dict(zip(_META_HEADER, row))
        try:
            values = [float(r[k]) for k in _META_NUMERIC]
            values += [float(r["span"])] if r["span"].strip() else []
        except ValueError as exc:
            raise SampleParseError(f"{where}: {exc}") from None
        if not all(math.isfinite(x) for x in values):
            raise SampleParseError(f"{where}: non-finite value")
        meta.append(r)
    if len(meta) != n:
        raise SampleParseError(f"{path}: {len(meta)} data rows, manifest.json lists {n} samples")
    return meta
