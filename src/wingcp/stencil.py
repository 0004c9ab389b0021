"""Nine-point neighbor stencils at calibrated 3D chord spacing.

The target spacing d is a Euclidean (chord) distance in model space,
realized by offsets along the two parameter axes. Offsets are found by
Newton's method on the chord-length function, safeguarded by a bracket
that falls back to its midpoint, for every offset of a patch at once:
each offset keeps its own bracket, stop test and done mask, so a batch
gives the offsets that one call per offset gives. Diagonals
compose the axial offsets (square layout). Stencils never cross patch
seams; when the patch boundary is closer than d the offset clamps to the
boundary and the point carries a flag instead of failing. When d exceeds
the chord across the whole patch along an axis, the stencil does not fit
(StencilOutOfPatch for the first such offset in E, W, N, S order).

Slot order is row-major NW,N,NE,W,center,E,SW,S,SE with north = +v and
east = +u; the center occupies slot 4.
"""

from dataclasses import dataclass

import numpy as np

from .bezier import ControlGrid, PiecewiseManifold, SurfacePoint, bernstein_row, eval_patch
from .errors import StencilOutOfPatch

__all__ = [
    "Stencil",
    "calibrate_offset",
    "stencil_points",
    "build_stencil",
    "SLOT_NAMES",
    "NEIGHBOR_SLOTS",
    "AXIAL",
]

SLOT_NAMES = ("NW", "N", "NE", "W", "C", "E", "SW", "S", "SE")
NEIGHBOR_SLOTS = (0, 1, 2, 3, 5, 6, 7, 8)  # all slots except the center
AXIAL = (("u", 1), ("u", -1), ("v", 1), ("v", -1))  # (axis, direction) of E, W, N, S

_CHORD_REL_TOL = 1e-9
_MAX_STEPS = 80


def _dot(a, b):
    """Inner products over the last axis (length 3), summed in one fixed order at every shape."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _chord(grid: ControlGrid, u, v, base, along_u, offset):
    """(chord length, F - base) at the points ``offset`` along each axis from (u, v)."""
    p = eval_patch(grid, np.where(along_u, u + offset, u), np.where(along_u, v, v + offset)) - base
    return np.sqrt(_dot(p, p)), p


def _axis_tangent_nets(grid: ControlGrid, u, v):
    """The tangent nets of every offset's curve along u and along v, as (along_u, net) pairs.

    At fixed v the curve along u has the control net C_a = sum_b B_b,n(v) P_ab,
    and its tangent at t is sum_a B_a,m-1(t) m (C_a+1 - C_a); along v likewise
    with the roles swapped. The fixed coordinate's row is contracted once here.
    """
    nets = []
    for along_u, net, fixed in ((True, grid.points, v), (False, grid.points.transpose(1, 0, 2), u)):
        curve = np.einsum("...b,abc->...ac", bernstein_row(net.shape[1] - 1, fixed), net)
        nets.append((along_u, (net.shape[0] - 1) * np.diff(curve, axis=-2)))
    return nets


def _axis_tangent(nets, along_u, rows, t):
    """dF/d(axis) of the offsets ``rows`` at parameter t along their axes, shape t.shape + (3,)."""
    out = np.empty(t.shape + (3,))
    for axis_u, net in nets:
        sel = along_u[rows] == axis_u
        out[sel] = np.einsum("...a,...ac->...c", bernstein_row(net.shape[-2] - 1, t[sel]), net[rows[sel]])
    return out


def calibrate_offset(grid: ControlGrid, u, v, axis, direction, d: float):
    """Parameter offsets delta >= 0 whose chords from F(u, v) equal d.

    u, v, axis ("u" or "v") and direction (+1 or -1) broadcast to one
    shape, and every offset of that shape is solved at once. Returns
    (delta, clamped, extent), arrays of that shape. delta is the magnitude
    along +axis for direction=+1 or -axis for direction=-1 (always
    non-negative; the caller applies the sign). If the boundary arrives
    before the chord reaches d, the offset clamps there and clamped is
    set. extent is the chord across the entire patch along the axis at the
    transverse coordinate; where d > extent the offset does not fit
    (delta 0, not clamped), which its caller reports as StencilOutOfPatch.

    The chord c(delta) = |F(u + delta e) - F(u)| is solved for c = d by
    Newton's method safeguarded by a bracket (Numerical Recipes, 3rd ed.,
    section 9.4): from delta = d / |dF/d(axis)| at the centre, each step
    takes the Newton step c' = <dF, F - F(u)> / c when it lies strictly
    inside the bracket [lo, hi] with c(lo) < d <= c(hi), and the midpoint
    otherwise. An offset stops once |c - d| <= 1e-9 d, with c from
    ``eval_patch`` at the offset itself, or after 80 steps.
    """
    if not np.isin(axis, ("u", "v")).all():
        raise ValueError(f"axis must be 'u' or 'v', got {axis!r}")
    if not np.isin(direction, (-1, 1)).all():
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    if d <= 0.0:
        raise ValueError(f"spacing d must be positive, got {d}")
    u, v, axis, direction = np.broadcast_arrays(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float), axis, direction
    )
    shape = u.shape
    u, v, direction = u.ravel(), v.ravel(), direction.ravel()
    along_u = axis.ravel() == "u"

    base = eval_patch(grid, u, v)
    coord = np.where(along_u, u, v)
    # chord across the full parameter range at the transverse coordinate
    a = eval_patch(grid, np.where(along_u, 0.0, u), np.where(along_u, v, 0.0))
    b = eval_patch(grid, np.where(along_u, 1.0, u), np.where(along_u, v, 1.0))
    extent = np.linalg.norm(b - a, axis=-1)
    room = np.where(direction > 0, 1.0 - coord, coord)  # available room, >= 0

    fits = d <= extent
    delta = np.zeros(u.shape)
    clamped = fits & (room <= 0.0)
    todo = np.flatnonzero(fits & (room > 0.0))
    reach, _ = _chord(grid, u[todo], v[todo], base[todo], along_u[todo], direction[todo] * room[todo])
    short = todo[reach < d]
    delta[short] = room[short]
    clamped[short] = True

    todo = todo[reach >= d]
    nets = _axis_tangent_nets(grid, u, v)
    tangent = _axis_tangent(nets, along_u, todo, coord[todo])
    lo, hi = np.zeros(todo.size), room[todo]
    with np.errstate(divide="ignore", over="ignore"):  # no speed: start at the room's end
        x = np.minimum(d / np.sqrt(_dot(tangent, tangent)), hi)
    for _ in range(_MAX_STEPS):
        if not todo.size:
            break
        c, p = _chord(grid, u[todo], v[todo], base[todo], along_u[todo], direction[todo] * x)
        done = np.abs(c - d) <= _CHORD_REL_TOL * d
        delta[todo[done]] = x[done]
        todo, x, lo, hi, c, p = (y[~done] for y in (todo, x, lo, hi, c, p))
        below = c < d
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        tangent = _axis_tangent(nets, along_u, todo, coord[todo] + direction[todo] * x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a NaN or inf step fails the test
            newton = x - (c - d) / (direction[todo] * _dot(tangent, p) / c)
        x = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
    delta[todo] = x
    return delta.reshape(shape), clamped.reshape(shape), extent.reshape(shape)


def stencil_points(grid: ControlGrid, u: np.ndarray, v: np.ndarray, d: float):
    """Calibrate the four axial offsets of N centres (u, v) of one patch at once.

    Returns (uv, clamped, extent): uv (N, 9, 2) holds the (u, v) of the
    nine stencil points in slot order, clamped (N, 8) flags the neighbor
    slots in NEIGHBOR_SLOTS order, and extent (N, 4) the patch extent of
    each offset in AXIAL order. A centre with d > extent in some column
    has no stencil; its uv rows are meaningless.
    """
    axes, directions = zip(*AXIAL)
    delta, cl, extent = calibrate_offset(grid, u[:, None], v[:, None], axes, directions, d)
    (de, dw, dn, ds), (ce, cw, cn, cs) = delta.T, cl.T
    west, east = u - dw, u + de
    south, north = v - ds, v + dn
    us = np.stack([west, u, east] * 3, axis=1)
    vs = np.stack([north] * 3 + [v] * 3 + [south] * 3, axis=1)
    clamped = np.stack([cw | cn, cn, ce | cn, cw, ce, cw | cs, cs, ce | cs], axis=1)
    return np.stack([us, vs], axis=-1), clamped, extent


@dataclass
class Stencil:
    """3x3 grid of surface points around a center at target chord spacing d.

    ``achieved_spacings`` / ``clamped`` cover the 8 neighbors in slot
    order (center slot 4 omitted, see NEIGHBOR_SLOTS).
    """

    center: SurfacePoint
    points: tuple  # 9 SurfacePoint, slot order per SLOT_NAMES
    d: float
    achieved_spacings: np.ndarray  # (8,)
    clamped: tuple  # 8 bools


def build_stencil(manifold: PiecewiseManifold, center: SurfacePoint, d: float) -> Stencil:
    """The stencil of one center: :func:`stencil_points` with N = 1.

    Raises StencilOutOfPatch for the first offset (E, W, N, S) that does
    not fit in the patch.
    """
    manifold.assert_ready(center.patch_id)
    grid = manifold.grid(center.patch_id)
    uv, clamped, extent = stencil_points(grid, np.array([center.u]), np.array([center.v]), d)
    for (axis, _), reach in zip(AXIAL, extent[0].tolist()):
        if d > reach:
            raise StencilOutOfPatch(
                f"spacing d={d} exceeds patch extent {reach:.6g} along {axis} at {center}"
            )
    points = tuple(
        center if slot == 4 else SurfacePoint(center.patch_id, u, v)
        for slot, (u, v) in enumerate(uv[0].tolist())
    )
    pos = eval_patch(grid, uv[0, :, 0], uv[0, :, 1])
    spacings = np.linalg.norm(pos[list(NEIGHBOR_SLOTS)] - pos[4], axis=-1)
    return Stencil(center, points, d, spacings, tuple(clamped[0].tolist()))
