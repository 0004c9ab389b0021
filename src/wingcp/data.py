"""Sample ingestion, feature assembly, normalization and fold splitting.

Each measured sample carries a surface location, a flight condition and
a pressure coefficient. Assembly expands the samples into one
TensorBatch of five feature groups built from a 9-point stencil (per
sample):

    x1  (3,)         Ma, AoA, Re
    x2  (1, 9, 3)    3D positions of the stencil points
    x3  (1, 18, 2)   nine 2x2 metrics stacked (slot r -> rows 2r..2r+1)
    x4  (2, 18, 2)   nine Christoffel arrays, upper index as channel
    x5  (9,)         nine scalar curvatures

Slot order is identical across x2..x5, and the feature cache's
per-point dump (features_points.csv) is read back out of these arrays.
Geometry is computed patch by patch over arrays: each distinct stencil
centre is calibrated once and each distinct stencil point's chain runs
once, whatever the number of samples that share them.
Normalization is componentwise max-min to [0, 1], fit on training data
only; constant columns map to 0.0. Cross-validation folds are
leave-one-AoA-out.
"""

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .bezier import PiecewiseManifold, SurfacePoint
from .errors import AssemblyError, ConfigError, DegenerateMetric, SampleParseError
from .geometry import DEFAULT_CONVENTION, point_features
from .stencil import AXIAL, NEIGHBOR_SLOTS, out_of_patch, stencil_points

# assemble calls neither of these one-point functions; the traced benchmark
# (pipebench/layers.py) wraps them as names of this module, so they stay here.
from .geometry import feature_bundle  # noqa: F401
from .stencil import build_stencil  # noqa: F401

__all__ = [
    "FOLD_AOAS_DEFAULT",
    "FEATURE_POINTS_HEADER",
    "FlightCondition",
    "RawSample",
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
]

# Test AoAs of the standard leave-one-AoA-out protocol; samples at other
# angles stay train-only.
FOLD_AOAS_DEFAULT = (7.0, 12.0, 16.0, 18.0, 18.5, 19.0, 20.0)

SAMPLE_HEADER = ["patch_id", "u", "v", "Ma", "AoA", "Re", "span", "cp"]

GROUP_SHAPES = {"x1": (3,), "x2": (1, 9, 3), "x3": (1, 18, 2), "x4": (2, 18, 2), "x5": (9,)}


@dataclass(frozen=True)
class FlightCondition:
    ma: float
    aoa: float
    re: float

    def __post_init__(self):
        if not (math.isfinite(self.ma) and math.isfinite(self.aoa) and math.isfinite(self.re)):
            raise ValueError("non-finite flight condition")
        if self.ma <= 0 or self.re <= 0:
            raise ValueError(f"Ma and Re must be positive, got Ma={self.ma}, Re={self.re}")


@dataclass(frozen=True)
class RawSample:
    location: SurfacePoint
    condition: FlightCondition
    cp: float
    span_station: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.cp):
            raise ValueError("non-finite cp")


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

    def pointwise(self):
        """Center-slot view for single-point models.

        x2 -> (B, 3), x3 -> (B, 1, 2, 2), x4 -> (B, 2, 2, 2), x5 -> (B, 1).
        """
        return TensorBatch(
            x1=self.x1,
            x2=self.x2[:, 0, 4, :],
            x3=self.x3[:, :, 8:10, :].reshape(self.n, 1, 2, 2),
            x4=self.x4[:, :, 8:10, :].reshape(self.n, 2, 2, 2),
            x5=self.x5[:, 4:5],
            y=self.y,
        )


@dataclass
class AssembleResult:
    """The features of every kept sample, stacked once, and where they came from.

    Row r of ``batch`` is input sample ``kept[r]``, and ``uv[r]`` holds the
    (u, v) of its nine stencil points on the sample's patch, in the batch's
    slot order. ``counts`` tallies the work of one call: the distinct
    centres calibrated and the distinct stencil points evaluated (summed
    over patches), and over the kept samples the stencils with a clamped
    offset and the neighbor slots at zero spacing.
    """

    batch: TensorBatch
    kept: list  # indices into the input sample list
    dropped: list  # (index, reason) pairs
    uv: np.ndarray  # (len(kept), 9, 2)
    counts: dict


def _distinct(uv: np.ndarray):
    """The bitwise-distinct rows of an (N, 2) float array and each row's index among them."""
    keys, inverse = np.unique(np.ascontiguousarray(uv).view(np.int64), axis=0, return_inverse=True)
    return keys.view(float), inverse.reshape(-1)


def assemble(
    manifold: PiecewiseManifold,
    samples,
    d: float,
    convention: str = DEFAULT_CONVENTION,
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
    by_patch = {}
    for i, s in enumerate(samples):
        by_patch.setdefault(s.location.patch_id, []).append(i)
    for pid, rows in by_patch.items():
        manifold.assert_ready(pid)
        grid = manifold.grid(pid)
        rows = np.array(rows)
        centres, centre_of = _distinct(np.array([(samples[i].location.u, samples[i].location.v) for i in rows]))
        st_uv, clamped, extent = stencil_points(grid, centres[:, 0], centres[:, 1], d)
        fits = (d <= extent).all(axis=1)
        points, point_of = _distinct(st_uv[fits].reshape(-1, 2))
        f = point_features(grid, points[:, 0], points[:, 1], convention)
        slots = np.zeros((len(centres), 9), dtype=int)  # distinct point of each slot
        slots[fits] = point_of.reshape(-1, 9)
        bad_slots = np.zeros(slots.shape, dtype=bool)
        bad_slots[fits] = f.degenerate[slots[fits]]
        ok = fits & ~bad_slots.any(axis=1)
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

        for i, c in zip(rows[~mine], centre_of[~mine]):
            center = samples[i].location
            if not fits[c]:
                k = int(np.argmax(d > extent[c]))
                exc = out_of_patch(d, extent[c, k], AXIAL[k][0], center)
            else:
                slot = int(np.argmax(bad_slots[c]))
                point = center if slot == 4 else SurfacePoint(pid, *st_uv[c, slot].tolist())
                exc = DegenerateMetric(f.det_g[slots[c, slot]], point)
            reasons[int(i)] = f"{type(exc).__name__}: {exc}"
    dropped = sorted(reasons.items())
    if n and len(dropped) > max_drop_fraction * n:
        raise AssemblyError(
            f"dropped {len(dropped)}/{n} samples (> {max_drop_fraction:.0%})", dropped=dropped
        )
    kept = np.flatnonzero(good)
    m = len(kept)
    conditions = [(samples[i].condition.ma, samples[i].condition.aoa, samples[i].condition.re) for i in kept]
    batch = TensorBatch(
        x1=np.array(conditions, dtype=float).reshape(m, 3),
        x2=pos[kept].reshape(m, 1, 9, 3),
        x3=g[kept].reshape(m, 1, 18, 2),
        x4=gamma[kept].transpose(0, 2, 1, 3, 4).reshape(m, 2, 18, 2),
        x5=scalar[kept],
        y=np.array([samples[i].cp for i in kept], dtype=float),
    )
    return AssembleResult(batch=batch, kept=kept.tolist(), dropped=dropped, uv=uv[kept], counts=counts)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass
class NormalizationSpec:
    """Componentwise max-min normalization fitted on training data.

    Columns with zero span ("constant columns") normalize to 0.0 and
    invert back to the stored minimum. ``fitted_on`` is a provenance tag
    serialized alongside any trained model.
    """

    mins: dict
    maxs: dict
    y_min: float
    y_max: float
    normalize_targets: bool
    fitted_on: str

    def _apply_group(self, x, key):
        lo, hi = self.mins[key], self.maxs[key]
        span = hi - lo
        out = np.zeros_like(x, dtype=float)
        nz = span != 0.0
        out[..., nz] = (x[..., nz] - lo[nz]) / span[nz]
        return out

    def _invert_group(self, x, key):
        lo, hi = self.mins[key], self.maxs[key]
        span = hi - lo
        return x * span + lo

    def apply(self, batch: TensorBatch) -> TensorBatch:
        groups = batch.groups()
        out = {}
        for key, x in groups.items():
            flat = x.reshape(batch.n, -1)
            normed = self._apply_group(flat, key)
            out[key] = normed.reshape(x.shape)
        y = batch.y
        if self.normalize_targets:
            span = self.y_max - self.y_min
            y = (y - self.y_min) / span if span != 0.0 else np.zeros_like(y)
        return TensorBatch(y=y, **out)

    def invert(self, batch: TensorBatch) -> TensorBatch:
        groups = batch.groups()
        out = {}
        for key, x in groups.items():
            flat = x.reshape(batch.n, -1)
            out[key] = self._invert_group(flat, key).reshape(x.shape)
        y = batch.y
        if self.normalize_targets:
            y = self.invert_targets(y)
        return TensorBatch(y=y, **out)

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
        return cls(
            mins={k: np.asarray(v, dtype=float) for k, v in d["mins"].items()},
            maxs={k: np.asarray(v, dtype=float) for k, v in d["maxs"].items()},
            y_min=float(d["y_min"]),
            y_max=float(d["y_max"]),
            normalize_targets=bool(d["normalize_targets"]),
            fitted_on=str(d["fitted_on"]),
        )


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


def _aoa_of(sample) -> float:
    return sample.condition.aoa


def fold_split(samples, fold_aoas) -> list:
    """Leave-one-AoA-out folds: fold k tests every sample at fold_aoas[k].

    Training indices are the complement, including samples at AoAs that
    never appear as a fold. Raises ConfigError for duplicate or absent
    fold AoAs.
    """
    fold_aoas = list(fold_aoas)
    if not fold_aoas:
        raise ConfigError("fold_aoas must be nonempty")
    for i, a in enumerate(fold_aoas):
        for b in fold_aoas[i + 1 :]:
            if math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9):
                raise ConfigError(f"duplicate fold AoA {a}")
    aoas = np.array([_aoa_of(s) for s in samples])
    folds = []
    for a in fold_aoas:
        test = np.flatnonzero(np.isclose(aoas, a, rtol=0.0, atol=1e-9))
        if test.size == 0:
            raise ConfigError(f"fold AoA {a} absent from data")
        train = np.setdiff1d(np.arange(len(samples)), test)
        folds.append((train, test))
    return folds


def train_val_split(indices, aoas, seed: int, val_fraction: float = 0.10):
    """Seeded train/validation split, stratified by AoA.

    ``aoas[i]`` is the angle of attack of batch row i. Groups with a
    single sample stay in training; every other group contributes at
    least one validation sample. Raises ConfigError unless
    0 <= val_fraction < 1.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in [0, 1), got {val_fraction}")
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


def load_samples(path, known_patches=None) -> list:
    """Parse a sample CSV; errors carry the 1-based file row number."""
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != SAMPLE_HEADER:
            raise SampleParseError(f"{path}: expected header {','.join(SAMPLE_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SAMPLE_HEADER):
                raise SampleParseError(
                    f"{path}:{lineno}: expected {len(SAMPLE_HEADER)} fields, got {len(row)}"
                )
            pid = row[0].strip()
            if known_patches is not None and pid not in known_patches:
                raise SampleParseError(f"{path}:{lineno}: unknown patch_id {pid!r}")
            try:
                u, v = float(row[1]), float(row[2])
                ma, aoa, re = float(row[3]), float(row[4]), float(row[5])
                span = float(row[6]) if row[6].strip() != "" else None
                cp = float(row[7])
            except ValueError as exc:
                raise SampleParseError(f"{path}:{lineno}: {exc}") from None
            vals = [u, v, ma, aoa, re, cp] + ([span] if span is not None else [])
            if not all(math.isfinite(x) for x in vals):
                raise SampleParseError(f"{path}:{lineno}: non-finite value")
            try:
                samples.append(
                    RawSample(
                        location=SurfacePoint(pid, u, v),
                        condition=FlightCondition(ma=ma, aoa=aoa, re=re),
                        cp=cp,
                        span_station=span,
                    )
                )
            except ValueError as exc:
                raise SampleParseError(f"{path}:{lineno}: {exc}") from None
    return samples


def save_samples(path, samples):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SAMPLE_HEADER)
        for s in samples:
            writer.writerow(
                [
                    s.location.patch_id,
                    format(s.location.u, ".17g"),
                    format(s.location.v, ".17g"),
                    format(s.condition.ma, ".17g"),
                    format(s.condition.aoa, ".17g"),
                    format(s.condition.re, ".17g"),
                    "" if s.span_station is None else format(s.span_station, ".17g"),
                    format(s.cp, ".17g"),
                ]
            )


# ---------------------------------------------------------------------------
# Feature cache: one CSV per group + meta.csv + manifest.json
# ---------------------------------------------------------------------------

_META_HEADER = ["row", "patch_id", "u", "v", "x", "y", "z", "Ma", "AoA", "Re", "span", "cp"]
_META_NUMERIC = ("u", "v", "x", "y", "z", "Ma", "AoA", "Re", "cp")  # span may also be empty

# features_points.csv: one row per stencil point, nine rows per sample
FEATURE_POINTS_HEADER = [
    "patch_id", "u", "v", "x", "y", "z", "g11", "g12", "g22",
    "gam111", "gam112", "gam122", "gam211", "gam212", "gam222", "S", "stencil_slot",
]
_UPPER = ([0, 0, 1], [0, 1, 1])  # (i, j) with i <= j, in column order


def _group_columns(key) -> list:
    shape = GROUP_SHAPES[key]
    idx = np.indices(shape).reshape(len(shape), -1).T
    return [key + "_" + "_".join(str(i) for i in row) for row in idx]


def _point_values(batch: TensorBatch) -> np.ndarray:
    """Numeric columns of features_points.csv, shape (B, 9, 13): x, y, z, g_ij, Gamma^k_ij, S."""
    n = batch.n
    g = batch.x3.reshape(n, 9, 2, 2)[:, :, _UPPER[0], _UPPER[1]]
    gamma = batch.x4.reshape(n, 2, 9, 2, 2)[:, :, :, _UPPER[0], _UPPER[1]]  # [b][k][slot][ij]
    gamma = gamma.transpose(0, 2, 1, 3).reshape(n, 9, 6)
    return np.concatenate([batch.x2.reshape(n, 9, 3), g, gamma, batch.x5[:, :, None]], axis=2)


def meta_rows(result: AssembleResult, samples) -> list:
    """One ``meta.csv`` row per kept sample: text fields keyed by column name.

    These are the rows ``load_feature_cache`` reads back; x, y, z are the
    position of the stencil centre.
    """
    rows = []
    for out_row, src_idx in enumerate(result.kept):
        s = samples[src_idx]
        x, y, z = (format(c, ".17g") for c in result.batch.x2[out_row, 0, 4, :])
        rows.append(
            {
                "row": str(out_row),
                "patch_id": s.location.patch_id,
                "u": format(s.location.u, ".17g"),
                "v": format(s.location.v, ".17g"),
                "x": x,
                "y": y,
                "z": z,
                "Ma": format(s.condition.ma, ".17g"),
                "AoA": format(s.condition.aoa, ".17g"),
                "Re": format(s.condition.re, ".17g"),
                "span": "" if s.span_station is None else format(s.span_station, ".17g"),
                "cp": format(s.cp, ".17g"),
            }
        )
    return rows


def _csv_field(text: str) -> str:
    """``text`` as csv.writer's default dialect writes it inside a row (minimal quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


_WRITE_BLOCK = 512  # rows formatted per write: no whole-file text is held


def _write_rows(fh, rows: np.ndarray):
    """Write 2-D float rows as CSV lines of 17-significant-digit numbers.

    One %-format per row gives the text csv.writer gives for
    ``format(value, ".17g")`` fields, with its CRLF line ends.
    """
    fmt = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    for lo in range(0, len(rows), _WRITE_BLOCK):
        fh.write("".join([fmt % tuple(r) for r in rows[lo : lo + _WRITE_BLOCK].tolist()]))


def save_feature_cache(outdir, result: AssembleResult, samples, manifest: dict):
    """Write raw (un-normalized) feature CSVs, sample metadata and manifest."""
    os.makedirs(outdir, exist_ok=True)
    batch = result.batch
    for key, x in batch.groups().items():
        with open(os.path.join(outdir, f"{key}.csv"), "w", newline="") as fh:
            csv.writer(fh).writerow(_group_columns(key))
            _write_rows(fh, x.reshape(batch.n, -1))
    with open(os.path.join(outdir, "y.csv"), "w", newline="") as fh:
        csv.writer(fh).writerow(["cp"])
        _write_rows(fh, batch.y[:, None])
    with open(os.path.join(outdir, "meta.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, _META_HEADER)
        writer.writeheader()
        writer.writerows(meta_rows(result, samples))
    with open(os.path.join(outdir, "features_points.csv"), "w", newline="") as fh:
        csv.writer(fh).writerow(FEATURE_POINTS_HEADER)
        fmt = "%s," + ",".join(["%.17g"] * (len(FEATURE_POINTS_HEADER) - 2)) + ",%d\r\n"
        values = np.concatenate([result.uv, _point_values(batch)], axis=2)
        for i, rows in zip(result.kept, values):
            pid = _csv_field(samples[i].location.patch_id)
            fh.write("".join([fmt % (pid, *r, slot) for slot, r in enumerate(rows.tolist())]))
    manifest = dict(manifest)
    manifest["shapes"] = {k: list(v) for k, v in GROUP_SHAPES.items()}
    manifest["n_samples"] = batch.n
    manifest["dropped"] = [{"row": i, "reason": r} for i, r in result.dropped]
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_table(path, n: int, width: int) -> np.ndarray:
    """The (n, width) data rows of a numeric cache CSV; SampleParseError names the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file without data rows is reported below
            flat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)
    except ValueError as exc:
        raise SampleParseError(f"{path}: {exc}") from None
    if flat.shape[0] != n:
        raise SampleParseError(f"{path}: {flat.shape[0]} data rows, manifest.json lists {n} samples")
    if flat.shape[1] != width:
        raise SampleParseError(f"{path}: {flat.shape[1]} columns, expected {width}")
    if not np.isfinite(flat).all():
        raise SampleParseError(f"{path}: non-finite value")
    return flat


def load_feature_cache(cachedir):
    """Read a feature cache back into (TensorBatch, meta rows, manifest).

    Every file must hold ``n_samples`` (from ``manifest.json``) data rows of
    the documented width, and every numeric value (in ``meta.csv``: u, v,
    x, y, z, Ma, AoA, Re, cp and a non-empty span) must parse as a finite
    number; SampleParseError names the first file that does not.
    """
    with open(os.path.join(cachedir, "manifest.json")) as fh:
        manifest = json.load(fh)
    n = manifest.get("n_samples")
    arrays = {}
    for key, shape in GROUP_SHAPES.items():
        flat = _load_table(os.path.join(cachedir, f"{key}.csv"), n, math.prod(shape))
        arrays[key] = flat.reshape((n,) + shape)
    y = _load_table(os.path.join(cachedir, "y.csv"), n, 1)
    path = os.path.join(cachedir, "meta.csv")
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows or rows[0] != _META_HEADER or any(len(r) != len(_META_HEADER) for r in rows):
        raise SampleParseError(f"{path}: expected the {len(_META_HEADER)} fields {','.join(_META_HEADER)}")
    if len(rows) - 1 != n:
        raise SampleParseError(f"{path}: {len(rows) - 1} data rows, manifest.json lists {n} samples")
    meta = [dict(zip(_META_HEADER, r)) for r in rows[1:]]
    for lineno, r in enumerate(meta, start=2):
        try:
            values = [float(r[k]) for k in _META_NUMERIC]
            values += [float(r["span"])] if r["span"].strip() else []
        except ValueError as exc:
            raise SampleParseError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(x) for x in values):
            raise SampleParseError(f"{path}:{lineno}: non-finite value")
    return TensorBatch(y=y[:, 0], **arrays), meta, manifest
