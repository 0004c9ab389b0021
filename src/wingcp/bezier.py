"""Piecewise Bezier surface manifolds with analytic derivative jets.

A tensor-product Bezier patch over the unit square is defined by an
(m+1) x (n+1) grid of 3D control points:

    F(u, v) = sum_a sum_b P_ab B_{a,m}(u) B_{b,n}(v)

Several patches concatenated form a piecewise smooth manifold. All
derivatives are computed analytically through the Bernstein
degree-reduction recursion (d/dt B_{a,m} = m (B_{a-1,m-1} - B_{a,m-1})),
so jets are exact for polynomial data; derivatives beyond the polynomial
degree are exactly zero. Evaluation and jets take arrays of parameters:
one point is the case without leading axes of the same code.

The validity check (:func:`check_patch`) and the seam match
(:meth:`PiecewiseManifold.detect_seams`) use fixed tolerances, stated
once as module constants; the check's report records the three it used.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidPatch, SampleParseError
from .files import read_rows, write_rows

__all__ = [
    "ControlGrid",
    "SurfacePoint",
    "ValidityReport",
    "Seam",
    "PiecewiseManifold",
    "bernstein_row",
    "eval_patch",
    "jet",
    "check_patch",
    "load_control_grids",
    "save_control_grids",
    "load_manifold",
]


@dataclass
class ControlGrid:
    """Control net of one Bezier patch.

    ``points`` has shape (m+1, n+1, 3); degrees are inferred from it.
    Both degrees must be at least 1 so the patch has two independent
    tangent directions. The array is frozen after construction.
    """

    patch_id: str
    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=float)
        if pts.ndim != 3 or pts.shape[2] != 3:
            raise ValueError(f"control points must have shape (m+1, n+1, 3), got {pts.shape}")
        if pts.shape[0] < 2 or pts.shape[1] < 2:
            raise ValueError("both degrees must be >= 1 (need two tangent directions)")
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"patch {self.patch_id!r}: non-finite control coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def degrees(self):
        """(m, n) polynomial degrees along u and v."""
        return self.points.shape[0] - 1, self.points.shape[1] - 1

    def bbox_diagonal(self):
        lo = self.points.reshape(-1, 3).min(axis=0)
        hi = self.points.reshape(-1, 3).max(axis=0)
        return float(np.linalg.norm(hi - lo))


@dataclass(frozen=True)
class SurfacePoint:
    """Parameter-space address (patch_id, u, v) on the piecewise manifold."""

    patch_id: str
    u: float
    v: float

    def __post_init__(self):
        if not (0.0 <= self.u <= 1.0 and 0.0 <= self.v <= 1.0):
            raise ValueError(f"parameters outside [0,1]: u={self.u}, v={self.v}")


def bernstein_row(m: int, t) -> np.ndarray:
    """All degree-m Bernstein values at t, shape np.shape(t) + (m+1,)."""
    t = np.asarray(t, dtype=float)[..., None]
    a = np.arange(m + 1)
    comb = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
    return comb * t**a * (1.0 - t) ** (m - a)


def _check_domain(u, v):
    if not (np.all((0.0 <= u) & (u <= 1.0)) and np.all((0.0 <= v) & (v <= 1.0))):
        raise ValueError(f"parameters outside [0,1]: u={u}, v={v}")


def _contract(bu, bv, net):
    """sum_ab net_ab bu_a bv_b at each leading index of the basis rows."""
    return np.einsum("...a,...b,abc->...c", bu, bv, net)


def eval_patch(grid: ControlGrid, u, v) -> np.ndarray:
    """Evaluate F(u, v) on one patch; u and v broadcast, result shape + (3,)."""
    _check_domain(u, v)
    m, n = grid.degrees
    return _contract(bernstein_row(m, u), bernstein_row(n, v), grid.points)


def jet(grid: ControlGrid, u, v, order: int = 3) -> np.ndarray:
    """Analytic derivative jet of the patch at the points (u, v).

    Returns d with d[..., p, q, :] = d^(p+q)F/du^p dv^q for p+q <= order,
    shape np.broadcast_shapes(np.shape(u), np.shape(v)) + (order+1,
    order+1, 3); one point (scalar u, v) gives shape (order+1, order+1, 3).
    Slots with p+q > order are zero. Partials are evaluated from iterated
    forward differences of the control net:

        d^(p+q)F/du^p dv^q = m!/(m-p)! n!/(n-q)!
            * sum_ab (Delta^{p,q} P)_ab B_{a,m-p}(u) B_{b,n-q}(v)

    which is exact (no truncation). Orders past the degree are exactly
    zero rather than an error.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"jet order must be 1, 2 or 3, got {order}")
    _check_domain(u, v)
    m, n = grid.degrees
    d = np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)) + (order + 1, order + 1, 3))
    diff_u = grid.points
    for p in range(min(order, m) + 1):
        bu = bernstein_row(m - p, u)
        cu = math.perm(m, p)
        diff_uv = diff_u
        for q in range(min(order - p, n) + 1):
            bv = bernstein_row(n - q, v)
            d[..., p, q, :] = (cu * math.perm(n, q)) * _contract(bu, bv, diff_uv)
            diff_uv = np.diff(diff_uv, axis=1)
        diff_u = np.diff(diff_u, axis=0)
    return d


@dataclass
class ValidityReport:
    """Outcome of the immersion / self-intersection check for one patch.

    ``immersion_margin`` is the minimum over the sample grid of the
    smallest singular value of the Jacobian. ``intersections`` lists
    sample pairs that nearly coincide in 3D while being far apart in
    parameter space. A failing patch yields a report, not an exception.
    """

    patch_id: str
    valid: bool
    immersion_margin: float
    margin_location: tuple  # (u, v) where the margin is attained
    rank_tol: float
    intersections: list  # [{"a": (u,v), "b": (u,v), "dist3d": float, "dist_param": float}]
    intersection_count: int
    eps_space: float
    delta_param: float
    samples_per_axis: int
    bbox_diagonal: float

    def to_dict(self):
        return asdict(self)


_MAX_REPORTED_PAIRS = 64
# check_patch's tolerances: rank and self-contact in units of the control-net
# bounding-box diagonal, the parameter distance of a self-contact absolute
_RANK_TOL = 1e-8
_EPS_SPACE = 1e-6
_DELTA_PARAM = 0.05
_SWEEP_BLOCK = 256  # points per block of the close-pair sweep


def _close_pairs(pts: np.ndarray, r: float) -> np.ndarray:
    """Index pairs (i, j), i < j, of points at distance <= r, in lexicographic order.

    A sweep along the coordinate of largest spread: after sorting on it,
    the candidates of a point are the following points whose coordinate
    lies within r, and each candidate's distance is checked. Points go
    through in blocks, so the candidate arrays stay bounded.
    """
    axis = int(np.argmax(np.ptp(pts, axis=0)))
    order = np.argsort(pts[:, axis], kind="stable")
    srt = pts[order]
    key = srt[:, axis]
    count = np.searchsorted(key, np.nextafter(key + r, np.inf), side="right") - np.arange(1, len(key) + 1)
    found = []
    for lo in range(0, len(key), _SWEEP_BLOCK):
        rows = np.arange(lo, min(lo + _SWEEP_BLOCK, len(key)))
        k = count[rows]
        i = np.repeat(rows, k)
        j = i + 1 + np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
        close = np.linalg.norm(srt[i] - srt[j], axis=1) <= r
        found.append(np.stack([order[i[close]], order[j[close]]], axis=1))
    pairs = np.sort(np.concatenate(found), axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _on_grid(bu, bv, net):
    """sum_ab net_ab bu_ia bv_jb at every node (i, j) of a sample grid, shape (I, J, 3).

    Separable: one contraction over a, then one over b.
    """
    return bv @ np.tensordot(bu, net, axes=(1, 0))


def _sigma_min(fu, fv):
    """Smallest singular value of the 3x2 Jacobian [Fu Fv] at each leading index (see check_patch)."""
    e, f, g = (fu * fu).sum(-1), (fu * fv).sum(-1), (fv * fv).sum(-1)
    sig_max = np.sqrt(0.5 * (e + g) + np.hypot(0.5 * (e - g), f))
    area = np.linalg.norm(np.cross(fu, fv), axis=-1)
    return np.divide(area, sig_max, out=np.zeros_like(area), where=sig_max > 0)


def check_patch(grid: ControlGrid, samples_per_axis: int = 64) -> ValidityReport:
    """Sample-based validity check: immersion margin and self-contact scan.

    The patch is valid when its immersion margin is at least
    rank_tol = 1e-8 * diag and no two samples lie within
    eps_space = 1e-6 * diag in 3D while farther than delta_param = 0.05
    apart in parameter space, diag the control-net bounding-box
    diagonal; the report records all three. The self-intersection scan
    is a heuristic over the sample grid, not an exact algebraic test; it
    reports pairs in order of their sample indices (row-major over the
    u, v grid).

    The grid is evaluated by separable contractions, and the smallest
    singular value of the Jacobian J = [Fu Fv] in closed form from
    E = Fu.Fu, F = Fu.Fv, G = Fv.Fv:

        sigma_max^2 = (E + G)/2 + hypot((E - G)/2, F)
        sigma_min   = |Fu x Fv| / sigma_max        (0 where sigma_max = 0)

    since sigma_max * sigma_min is the area |Fu x Fv|. Its absolute error
    is a few eps * sigma_max, the bound an SVD gives, and nothing cancels
    near rank loss because the area comes from the cross product.
    """
    if samples_per_axis < 4:
        raise ValueError("samples_per_axis must be >= 4")
    m, n = grid.degrees
    diag = grid.bbox_diagonal()
    rank_tol, eps_space = _RANK_TOL * diag, _EPS_SPACE * diag

    ss = np.linspace(0.0, 1.0, samples_per_axis)
    bu, bv = bernstein_row(m, ss), bernstein_row(n, ss)  # (N, m+1), (N, n+1)
    bu1, bv1 = bernstein_row(m - 1, ss), bernstein_row(n - 1, ss)

    pts = _on_grid(bu, bv, grid.points)
    fu = m * _on_grid(bu1, bv, np.diff(grid.points, axis=0))
    fv = n * _on_grid(bu, bv1, np.diff(grid.points, axis=1))

    sig_min = _sigma_min(fu, fv)
    flat_idx = int(np.argmin(sig_min))
    iu, iv = np.unravel_index(flat_idx, sig_min.shape)
    margin = float(sig_min[iu, iv])
    margin_loc = (float(ss[iu]), float(ss[iv]))

    uu, vv = np.meshgrid(ss, ss, indexing="ij")
    params = np.stack([uu.ravel(), vv.ravel()], axis=1)
    pairs = _close_pairs(pts.reshape(-1, 3), eps_space)
    intersections = []
    count = 0
    if len(pairs):
        pdist = np.linalg.norm(params[pairs[:, 0]] - params[pairs[:, 1]], axis=1)
        hits = pairs[pdist > _DELTA_PARAM]
        count = len(hits)
        flat = pts.reshape(-1, 3)
        for i, j in hits[:_MAX_REPORTED_PAIRS]:
            intersections.append(
                {
                    "a": [float(params[i, 0]), float(params[i, 1])],
                    "b": [float(params[j, 0]), float(params[j, 1])],
                    "dist3d": float(np.linalg.norm(flat[i] - flat[j])),
                    "dist_param": float(np.linalg.norm(params[i] - params[j])),
                }
            )

    return ValidityReport(
        patch_id=grid.patch_id,
        valid=(margin >= rank_tol and count == 0),
        immersion_margin=margin,
        margin_location=margin_loc,
        rank_tol=rank_tol,
        intersections=intersections,
        intersection_count=count,
        eps_space=eps_space,
        delta_param=_DELTA_PARAM,
        samples_per_axis=samples_per_axis,
        bbox_diagonal=diag,
    )


@dataclass(frozen=True)
class Seam:
    """Shared-boundary record between two patches (recorded, not enforced)."""

    patch_a: str
    edge_a: str  # "u0" | "u1" | "v0" | "v1"
    patch_b: str
    edge_b: str


# boundary edge -> its row or column of the control net
_EDGES = {"u0": (0, slice(None)), "u1": (-1, slice(None)), "v0": (slice(None), 0), "v1": (slice(None), -1)}
_SEAM_TOL = 1e-9  # largest coordinate difference of two boundaries that form a seam


class PiecewiseManifold:
    """Ordered collection of Bezier patches with validity bookkeeping.

    Feature extraction requires each patch to have passed
    :func:`check_patch` (or to be explicitly exempted). Reports are kept
    per patch so callers can serialize them.
    """

    def __init__(self, grids):
        ids = [g.patch_id for g in grids]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate patch ids in manifold")
        self._grids = {g.patch_id: g for g in grids}
        self.reports: dict[str, ValidityReport] = {}
        self._exempt: set[str] = set()

    @property
    def patch_ids(self):
        return list(self._grids)

    def grid(self, patch_id) -> ControlGrid:
        try:
            return self._grids[patch_id]
        except KeyError:
            raise KeyError(f"unknown patch id {patch_id!r}") from None

    def check_all(self, samples_per_axis: int = 64) -> dict:
        """Run the validity check on every patch; returns the report map."""
        for pid, grid in self._grids.items():
            self.reports[pid] = check_patch(grid, samples_per_axis)
        return self.reports

    def exempt(self, patch_id):
        """Skip the validity gate for one patch (caller takes responsibility)."""
        self.grid(patch_id)
        self._exempt.add(patch_id)

    def is_ready(self, patch_id) -> bool:
        if patch_id in self._exempt:
            return True
        report = self.reports.get(patch_id)
        return report is not None and report.valid

    def assert_ready(self, patch_id):
        if patch_id not in self._grids:
            raise KeyError(f"unknown patch id {patch_id!r}")
        if not self.is_ready(patch_id):
            report = self.reports.get(patch_id)
            state = "failed validity check" if report is not None else "was never checked"
            raise InvalidPatch(f"patch {patch_id!r} {state}; check or exempt it first")

    def invalid_patches(self):
        return [pid for pid in self._grids if not self.is_ready(pid)]

    def detect_seams(self) -> list:
        """Match patch boundaries whose control points coincide within 1e-9 in every coordinate."""
        seams = []
        ids = self.patch_ids
        for i, pa in enumerate(ids):
            for pb in ids[i + 1 :]:
                for ea, ia in _EDGES.items():
                    ba = self.grid(pa).points[ia]
                    for eb, ib in _EDGES.items():
                        bb = self.grid(pb).points[ib]
                        if ba.shape == bb.shape and np.max(np.abs(ba - bb)) <= _SEAM_TOL:
                            seams.append(Seam(pa, ea, pb, eb))
        return seams


# ---------------------------------------------------------------------------
# Control-grid file format: CSV with header patch_id,a,b,x,y,z
# ---------------------------------------------------------------------------

_GRID_HEADER = ["patch_id", "a", "b", "x", "y", "z"]


def load_control_grids(path) -> list:
    """Parse a control-grid CSV into a list of ControlGrid.

    Rows of a patch must cover the full (m+1) x (n+1) index rectangle;
    degrees are inferred from the maximum indices and must both be at
    least 1. Errors carry the offending row number, or name the patch.
    """
    per_patch: dict[str, dict] = {}
    for where, row in read_rows(path, _GRID_HEADER):
        pid = row[0].strip()
        try:
            a, b = int(row[1]), int(row[2])
            xyz = [float(c) for c in row[3:6]]
        except ValueError as exc:
            raise SampleParseError(f"{where}: {exc}") from None
        if a < 0 or b < 0:
            raise SampleParseError(f"{where}: negative control index")
        if not all(math.isfinite(c) for c in xyz):
            raise SampleParseError(f"{where}: non-finite coordinate")
        entry = per_patch.setdefault(pid, {})
        if (a, b) in entry:
            raise SampleParseError(f"{where}: duplicate index ({a},{b}) in patch {pid!r}")
        entry[(a, b)] = xyz

    grids = []
    for pid, entry in per_patch.items():
        m = max(a for a, _ in entry)
        n = max(b for _, b in entry)
        if len(entry) != (m + 1) * (n + 1):
            raise SampleParseError(
                f"{path}: patch {pid!r} covers {len(entry)} of {(m + 1) * (n + 1)} grid slots"
            )
        if m < 1 or n < 1:
            raise SampleParseError(f"{path}: patch {pid!r} has degrees ({m}, {n}); both must be >= 1")
        pts = np.empty((m + 1, n + 1, 3))
        for (a, b), xyz in entry.items():
            pts[a, b] = xyz
        grids.append(ControlGrid(pid, pts))
    return grids


def save_control_grids(path, grids):
    rows = [
        [grid.patch_id, a, b, *grid.points[a, b].tolist()]
        for grid in grids
        for a in range(grid.degrees[0] + 1)
        for b in range(grid.degrees[1] + 1)
    ]
    write_rows(path, _GRID_HEADER, rows)


def load_manifold(path) -> PiecewiseManifold:
    return PiecewiseManifold(load_control_grids(path))
