"""Riemannian metric, connection and curvature from order-2 surface jets.

With coordinates x1 = u, x2 = v and the immersion F(u, v), the induced
metric and its first derivatives are inner products of the jet:

    g_ij     = <d_i F, d_j F>
    d_l g_ij = <d_l d_i F, d_j F> + <d_i F, d_l d_j F>

Christoffel symbols follow from the metric,

    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_li - d_l g_ij)

The curvature coefficients come from the Gauss equation, with the unit
normal N and the second fundamental form h (do Carmo, Differential
Geometry of Curves and Surfaces, section 4-3):

    N = (d_u F x d_v F) / sqrt(det g),   h_ij = <d_i d_j F, N>
    R^s_ijk = g^sl (h_lj h_ik - h_li h_jk)

For a surface in R^3 these equal the intrinsic coefficients
Gamma^l_ik Gamma^s_jl - Gamma^l_jk Gamma^s_il + d_j Gamma^s_ik
- d_i Gamma^s_jk (Theorema Egregium), so the chain needs second
derivatives of F only: no third derivatives and no derivative of Gamma.
The test suite keeps the intrinsic formula as its reference. The
coefficients are stored in index order [s][i][j][k] (antisymmetric in
i, j). The Ricci tensor is the contraction R_ij = sum_k R^k_ikj, and the
scalar curvature S = g^ij R_ij = 2K, K the Gauss curvature, so spheres
get positive S. Only S reaches the model, but ``riemann_tensor`` and
``contract`` stay separate steps: the pipeline benchmark times each step
of the chain by its name.

Each formula above is evaluated as one array contraction (einsum) over
index-ordered arrays of the jet partials, with leading axes ``...`` for
any number of points: one point and N points run the same code.
``point_features`` runs the chain for N points of one patch at once,
evaluating the jet and the metric once and flagging degenerate points
in a mask; feature assembly (``data.assemble``) and the synthetic
generator (``synth``) compute their features with it. ``feature_bundle``
is its one-point call, which raises DegenerateMetric instead;
``data.assemble`` calls it only to give a dropped sample its reason.
``DEFAULT_CONVENTION`` names this sign in feature caches and checkpoints.
"""

from dataclasses import dataclass

import numpy as np

from .bezier import ControlGrid, PiecewiseManifold, SurfacePoint, jet
from .errors import DegenerateMetric

__all__ = [
    "DEFAULT_CONVENTION",
    "RiemannianFeatures",
    "metric",
    "christoffel",
    "riemann_tensor",
    "contract",
    "point_features",
    "feature_bundle",
]

DEFAULT_CONVENTION = "standard"  # the tag of S = +2K in cache manifests and checkpoints

# det(g) threshold is scale-aware: singular values of g scale with
# geometry size squared, so compare against (trace g)^2.
_DEGENERATE_REL_TOL = 1e-12


@dataclass
class RiemannianFeatures:
    """Geometric features at surface points, over the points' leading axes ``...``.

    ``feature_bundle`` (one point) has no leading axes; ``point_features``
    over N points has (N,). Where ``degenerate`` is set, the other fields
    hold no meaningful values.
    """

    position: np.ndarray  # (..., 3), F(u, v)
    g: np.ndarray  # (..., 2, 2)
    g_inv: np.ndarray  # (..., 2, 2)
    det_g: np.ndarray  # (...)
    degenerate: np.ndarray  # (...), det(g) <= 1e-12 (trace g)^2
    gamma: np.ndarray  # (..., 2, 2, 2), [k][i][j]
    scalar: np.ndarray  # (...), S = 2K


# _U_COUNT[s][i1, ..., is] = number of u-indices among (i1, ..., is)
_U_COUNT = {s: s - np.indices((2,) * s).sum(axis=0) for s in (1, 2)}


def _partials(jet_: np.ndarray, s: int) -> np.ndarray:
    """All order-s partials of F, shape (...,) + (2,)*s + (3,): [i1]...[is][xyz]."""
    p = _U_COUNT[s]
    return jet_[..., p, s - p, :]


def metric(jet_: np.ndarray):
    """Metric g_ij and its first derivatives d_l g_ij from an order>=2 jet.

    Returns (g, dg) with g shape (..., 2, 2) and dg shape (..., 2, 2, 2)
    indexed [l][i][j]. Both are built as a + a^T over (i, j), so they are
    symmetric in (i, j) exactly as stored.
    """
    if jet_.shape[-2] < 3:
        raise ValueError("metric derivatives need a jet of order >= 2")
    f1, f2 = _partials(jet_, 1), _partials(jet_, 2)
    a = 0.5 * np.einsum("...ic,...jc->...ij", f1, f1)  # halving, then a + a^T, is exact
    da = np.einsum("...lic,...jc->...lij", f2, f1)
    return a + a.swapaxes(-1, -2), da + da.swapaxes(-1, -2)


def _inverse(g: np.ndarray):
    """(g^-1, det g, degenerate mask) over leading axes; degenerate entries divide by 1."""
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    tr = g[..., 0, 0] + g[..., 1, 1]
    degenerate = det <= _DEGENERATE_REL_TOL * tr * tr
    adj = np.stack([g[..., 1, 1], -g[..., 0, 1], -g[..., 1, 0], g[..., 0, 0]], axis=-1)
    return adj.reshape(g.shape) / np.where(degenerate, 1.0, det)[..., None, None], det, degenerate


def christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols gamma[...][k][i][j], symmetric in (i, j) as stored.

    ``g_inv`` and ``dg`` are the inverse metric and the metric derivatives
    at the points (see :func:`metric`), so a chain evaluates the metric once.
    """
    # c[...][i][j][l] = d_i g_jl + d_j g_li - d_l g_ij, from dg[...][l][i][j]
    c = dg + np.einsum("...jli->...ijl", dg) - np.einsum("...lij->...ijl", dg)
    return 0.5 * np.einsum("...kl,...ijl->...kij", g_inv, c)


def riemann_tensor(jet_: np.ndarray, g_inv: np.ndarray, det: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """Curvature coefficients R^s_ijk by the Gauss equation, from an order>=2 jet.

    ``g_inv``, ``det`` and ``degenerate`` are the inverse metric, det g and
    the degenerate mask at the jet's points, as :func:`point_features`
    computes them. With the unit normal N and the second fundamental form h,

    R^s_ijk = a^s_ijk - a^s_jik  with  a^s_ijk = g^sl h_lj h_ik,

    so the result is antisymmetric in (i, j) exactly as stored. Degenerate
    points divide by 1 in place of sqrt(det g); their values mean nothing.
    """
    f1, f2 = _partials(jet_, 1), _partials(jet_, 2)
    normal = np.cross(f1[..., 0, :], f1[..., 1, :]) / np.sqrt(np.where(degenerate, 1.0, det))[..., None]
    h = np.einsum("...ijc,...c->...ij", f2, normal)
    a = np.einsum("...sl,...lj,...ik->...sijk", g_inv, h, h)
    return a - a.swapaxes(-3, -2)


def contract(riemann: np.ndarray, g_inv: np.ndarray):
    """Ricci tensor R_ij = sum_k R^k_ikj and scalar curvature S = g^ij R_ij = 2K."""
    ricci = np.einsum("...aiaj->...ij", riemann)
    return ricci, np.einsum("...ij,...ij->...", g_inv, ricci)


def point_features(grid: ControlGrid, u, v) -> RiemannianFeatures:
    """Jet -> metric -> connection -> curvature at the points (u, v) of one patch.

    u and v broadcast; their shape leads every returned field. One
    order-2 jet and one metric evaluation are shared by the connection
    and the curvature. A degenerate metric is flagged in ``degenerate``,
    not raised.
    """
    jet_ = jet(grid, u, v, order=2)
    g, dg = metric(jet_)
    g_inv, det, degenerate = _inverse(g)
    _, scalar = contract(riemann_tensor(jet_, g_inv, det, degenerate), g_inv)
    return RiemannianFeatures(
        position=jet_[..., 0, 0, :],
        g=g,
        g_inv=g_inv,
        det_g=det,
        degenerate=degenerate,
        gamma=christoffel(g_inv, dg),
        scalar=scalar,
    )


def feature_bundle(manifold: PiecewiseManifold, point: SurfacePoint) -> RiemannianFeatures:
    """:func:`point_features` at one point of the manifold.

    The point's patch must have passed (or been exempted from) the
    validity check. A degenerate metric raises DegenerateMetric with the
    point attached.
    """
    manifold.assert_ready(point.patch_id)
    f = point_features(manifold.grid(point.patch_id), point.u, point.v)
    if f.degenerate:
        raise DegenerateMetric(f.det_g, point)
    return f
