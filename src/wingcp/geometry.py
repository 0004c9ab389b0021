"""Riemannian metric, connection and curvature from surface jets.

With coordinates x1 = u, x2 = v and the immersion F(u, v), the induced
metric and its derivatives are inner products of the jet:

    g_ij        = <d_i F, d_j F>
    d_l g_ij    = <d_l d_i F, d_j F> + <d_i F, d_l d_j F>
    d_m d_l g_ij = <d_m d_l d_i F, d_j F> + <d_l d_i F, d_m d_j F>
                 + <d_m d_i F, d_l d_j F> + <d_i F, d_m d_l d_j F>

Christoffel symbols follow from the metric,

    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_li - d_l g_ij)

and their coordinate derivatives are obtained analytically with
d(g^-1) = -g^-1 (dg) g^-1, so no finite differences enter the chain.
The curvature coefficients are

    R^s_ijk = (Gamma^l_ik Gamma^s_jl - Gamma^l_jk Gamma^s_il)
              + d_j Gamma^s_ik - d_i Gamma^s_jk

stored in index order [s][i][j][k] (antisymmetric in i, j). Two Ricci
contractions are supported; in two dimensions they differ by sign only:

    "standard"     R_ij = sum_k R^k_ikj   (spheres get positive scalar curvature)
    "first-index"  R_ij = sum_k R^k_kij   (the opposite sign)

Each formula above is evaluated as one array contraction (einsum) over
index-ordered arrays of the jet partials; "first-index" is computed as
the exact negation of "standard".

Scalar curvature is S = g^ij R_ij in either case.
"""

from dataclasses import dataclass

import numpy as np

from .bezier import PiecewiseManifold, SurfaceJet, SurfacePoint, jet
from .errors import DegenerateMetric

__all__ = [
    "CONVENTIONS",
    "DEFAULT_CONVENTION",
    "RiemannianFeatures",
    "metric",
    "inverse_metric",
    "christoffel",
    "riemann_tensor",
    "contract",
    "feature_bundle",
]

CONVENTIONS = ("standard", "first-index")
DEFAULT_CONVENTION = "standard"

# det(g) threshold is scale-aware: singular values of g scale with
# geometry size squared, so compare against (trace g)^2.
_DEGENERATE_REL_TOL = 1e-12


@dataclass
class RiemannianFeatures:
    """Full geometric feature set at one surface point."""

    point: SurfacePoint
    position: np.ndarray  # F(u, v), 3-vector
    g: np.ndarray  # (2, 2)
    g_inv: np.ndarray  # (2, 2)
    det_g: float
    gamma: np.ndarray  # (2, 2, 2), [k][i][j]
    riemann: np.ndarray  # (2, 2, 2, 2), [s][i][j][k]
    ricci: np.ndarray  # (2, 2)
    scalar: float
    convention: str


# _U_COUNT[s][i1, ..., is] = number of u-indices among (i1, ..., is)
_U_COUNT = {s: s - np.indices((2,) * s).sum(axis=0) for s in (1, 2, 3)}


def _partials(jet_: SurfaceJet, s: int) -> np.ndarray:
    """All order-s partials of F, shape (2,)*s + (3,): [i1]...[is][xyz]."""
    p = _U_COUNT[s]
    return jet_.d[p, s - p]


def metric(jet_: SurfaceJet):
    """Metric g_ij and its first derivatives d_l g_ij from an order>=2 jet.

    Returns (g, dg) with g shape (2, 2) and dg shape (2, 2, 2) indexed
    [l][i][j]. Both are built as a + a^T over (i, j), so they are
    symmetric in (i, j) exactly as stored.
    """
    if jet_.order < 2:
        raise ValueError("metric derivatives need a jet of order >= 2")
    f1, f2 = _partials(jet_, 1), _partials(jet_, 2)
    a = 0.5 * np.einsum("ic,jc->ij", f1, f1)  # halving, then a + a^T, is exact
    da = np.einsum("lic,jc->lij", f2, f1)
    return a + a.T, da + da.swapaxes(1, 2)


def _metric_hessian(jet_: SurfaceJet) -> np.ndarray:
    """Second metric derivatives d_m d_l g_ij, shape (2, 2, 2, 2) [m][l][i][j]."""
    if jet_.order < 3:
        raise ValueError("second metric derivatives need an order-3 jet")
    f1, f2, f3 = _partials(jet_, 1), _partials(jet_, 2), _partials(jet_, 3)
    a = np.einsum("mlic,jc->mlij", f3, f1) + np.einsum("lic,mjc->mlij", f2, f2)
    return a + a.swapaxes(2, 3)


def inverse_metric(g: np.ndarray, point: SurfacePoint | None = None) -> np.ndarray:
    """Closed-form 2x2 inverse; raises DegenerateMetric when det is too small."""
    g = np.asarray(g, dtype=float)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    tr = g[0, 0] + g[1, 1]
    if det <= _DEGENERATE_REL_TOL * tr * tr:
        raise DegenerateMetric(det, point)
    return np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """d_i g_jl + d_j g_li - d_l g_ij as [...][i][j][l], from dg[...][l][i][j]."""
    return dg + np.einsum("...jli->...ijl", dg) - np.einsum("...lij->...ijl", dg)


def christoffel(jet_: SurfaceJet):
    """Christoffel symbols and their coordinate derivatives.

    Returns (gamma, dgamma): gamma[k][i][j] and dgamma[x][k][i][j], both
    symmetric in (i, j) as stored. Requires an order-3 jet because
    dgamma consumes third derivatives of F.
    """
    g, dg = metric(jet_)
    g_inv = inverse_metric(g, jet_.point)
    dg_inv = -np.einsum("ka,xab,bl->xkl", g_inv, dg, g_inv)
    c, dc = _first_kind(dg), _first_kind(_metric_hessian(jet_))
    gamma = 0.5 * np.einsum("kl,ijl->kij", g_inv, c)
    dgamma = 0.5 * (np.einsum("xkl,ijl->xkij", dg_inv, c) + np.einsum("kl,xijl->xkij", g_inv, dc))
    return gamma, dgamma


def riemann_tensor(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Curvature coefficients R^s_ijk from Christoffel data at one point.

    R^s_ijk = a^s_ijk - a^s_jik  with  a^s_ijk = Gamma^l_ik Gamma^s_jl + d_j Gamma^s_ik,

    so the result is antisymmetric in (i, j) exactly as stored.
    """
    a = np.einsum("lik,sjl->sijk", gamma, gamma) + np.einsum("jsik->sijk", dgamma)
    return a - a.swapaxes(1, 2)


def contract(riemann: np.ndarray, g_inv: np.ndarray, convention: str = DEFAULT_CONVENTION):
    """Ricci tensor and scalar curvature from the curvature coefficients.

    Only the standard contraction R_ij = sum_k R^k_ikj is evaluated;
    "first-index" is its exact negation, which equals sum_k R^k_kij
    because the curvature coefficients are antisymmetric in (i, j). The
    test suite checks that identity; nothing asserts it at runtime.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}, expected one of {CONVENTIONS}")
    ricci = np.einsum("aiaj->ij", riemann)
    if convention == "first-index":
        ricci = -ricci
    scalar = float(np.einsum("ij,ij->", g_inv, ricci))
    return ricci, scalar


def feature_bundle(
    manifold: PiecewiseManifold,
    point: SurfacePoint,
    convention: str = DEFAULT_CONVENTION,
) -> RiemannianFeatures:
    """Full jet -> metric -> connection -> curvature chain at one point.

    The point's patch must have passed (or been exempted from) the
    validity check. DegenerateMetric propagates with the point attached.
    """
    manifold.assert_ready(point.patch_id)
    grid = manifold.grid(point.patch_id)
    jet_ = jet(grid, point.u, point.v, order=3)
    g, _ = metric(jet_)
    g_inv = inverse_metric(g, point)
    gamma, dgamma = christoffel(jet_)
    riem = riemann_tensor(gamma, dgamma)
    ricci, scalar = contract(riem, g_inv, convention)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return RiemannianFeatures(
        point=point,
        position=jet_.position.copy(),
        g=g,
        g_inv=g_inv,
        det_g=float(det),
        gamma=gamma,
        riemann=riem,
        ricci=ricci,
        scalar=scalar,
        convention=convention,
    )
