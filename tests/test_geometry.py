import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    curvature_scale,
    flat_grid,
    graph_surface_features,
    graph_surface_grid,
    loop_christoffel,
    loop_contract,
    loop_metric,
    loop_point_features,
    loop_riemann_tensor,
    mp_gauss_curvature,
    paraboloid_grid,
    rel_err,
    sample_points,
    scalar_jet,
)
from strategies import max_examples

from wingcp.bezier import ControlGrid, PiecewiseManifold, SurfacePoint, jet
from wingcp.data import Samples, assemble, save_feature_cache
from wingcp.errors import DegenerateMetric, InvalidPatch
from wingcp.geometry import (
    _inverse,
    christoffel,
    contract,
    feature_bundle,
    metric,
    point_features,
    riemann_tensor,
)
from wingcp.stencil import build_stencil
from wingcp.synth import SynthConfig, generate_synthetic


def random_poly_coeffs(rng, total_degree=4, scale=0.6):
    """Random bivariate polynomial with the given total degree bound."""
    c = np.zeros((total_degree + 1, total_degree + 1))
    for p in range(total_degree + 1):
        for q in range(total_degree + 1 - p):
            c[p, q] = scale * rng.uniform(-1.0, 1.0)
    return c


def random_general_grid(rng, m=4, n=3, jitter=0.05):
    """Unit square control net moved in all three coordinates (not a graph surface)."""
    pts = np.array(flat_grid(m, n).points) + rng.uniform(-jitter, jitter, (m + 1, n + 1, 3))
    pts[..., 2] += rng.uniform(-0.3, 0.3, (m + 1, n + 1))
    return ControlGrid("general", pts)


def christoffel_at(j):
    """Christoffel symbols from a jet alone: the metric, its inverse, then the connection."""
    g, dg = metric(j)
    return christoffel(_inverse(g)[0], dg)


def riemann_at(j):
    """(curvature coefficients, inverse metric) from a jet alone."""
    g, _ = metric(j)
    inverse = _inverse(g)
    return riemann_tensor(j, *inverse), inverse[0]


class TestMetric:
    def test_flat_plane(self):
        j = jet(flat_grid(2, 2), 0.3, 0.7)
        g, dg = metric(j)
        np.testing.assert_allclose(g, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(dg, 0.0, atol=1e-14)

    def test_paraboloid_graph_oracle(self):
        j = jet(paraboloid_grid(), 0.5, 0.0)
        g, dg = metric(j)
        np.testing.assert_allclose(g, [[2.0, 0.0], [0.0, 1.0]], atol=1e-12)
        # d/du g_11 = d/du (1 + 4u^2) = 8u = 4 at u = 0.5
        assert dg[0, 0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(3)
        g_grid = graph_surface_grid(random_poly_coeffs(rng), 4, 4)
        for u, v in rng.uniform(0.1, 0.9, (5, 2)):
            g, dg = metric(jet(g_grid, u, v))
            assert g[0, 1] == g[1, 0]
            for l in range(2):
                assert dg[l, 0, 1] == dg[l, 1, 0]

    def test_requires_order_two(self):
        j = jet(flat_grid(), 0.5, 0.5, order=1)
        with pytest.raises(ValueError):
            metric(j)


class TestInverseMetric:
    """The closed-form 2x2 inverse behind every chain (``_inverse``)."""

    def test_identity(self):
        np.testing.assert_allclose(_inverse(np.eye(2))[0], np.eye(2), atol=1e-15)

    def test_diagonal(self):
        np.testing.assert_allclose(
            _inverse(np.array([[2.0, 0.0], [0.0, 1.0]]))[0],
            [[0.5, 0.0], [0.0, 1.0]],
            atol=1e-15,
        )

    def test_rank_one_degenerate(self):
        """A singular metric is flagged, not raised, and divides by 1 without a warning."""
        g_inv, det, degenerate = _inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert degenerate and det == 0.0
        np.testing.assert_array_equal(g_inv, [[1.0, -1.0], [-1.0, 1.0]])

    def test_product_is_identity(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (20, 2, 2))
        g = a @ a.swapaxes(-1, -2) + 0.5 * np.eye(2)
        g_inv, _, degenerate = _inverse(g)
        assert not degenerate.any()
        np.testing.assert_allclose(g @ g_inv, np.broadcast_to(np.eye(2), g.shape), atol=1e-10)


class TestChristoffel:
    def test_flat_all_zero(self):
        np.testing.assert_allclose(christoffel_at(jet(flat_grid(2, 2), 0.4, 0.6)), 0.0, atol=1e-14)

    def test_paraboloid_value(self):
        # graph-surface oracle: Gamma^1_11 = f_uu f_u / (1 + |grad f|^2) = 2*1/2
        gamma = christoffel_at(jet(paraboloid_grid(), 0.5, 0.0))
        assert gamma[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_paraboloid_origin_zero(self):
        np.testing.assert_allclose(christoffel_at(jet(paraboloid_grid(), 0.0, 0.0)), 0.0, atol=1e-13)

    def test_lower_index_symmetry_exact(self):
        rng = np.random.default_rng(5)
        grid = graph_surface_grid(random_poly_coeffs(rng), 4, 4)
        for u, v in rng.uniform(0.1, 0.9, (5, 2)):
            gamma = christoffel_at(jet(grid, u, v))
            for k in range(2):
                assert gamma[k, 0, 1] == gamma[k, 1, 0]

    def test_derivatives_match_finite_differences(self):
        """The oracle's analytic d Gamma (order-3 jet) against central FD of the package's Gamma, step 1e-4."""
        rng = np.random.default_rng(6)
        grid = graph_surface_grid(random_poly_coeffs(rng), 4, 4)
        h = 1e-4
        for u, v in rng.uniform(0.1, 0.9, (4, 2)):
            _, dgamma = loop_christoffel(jet(grid, u, v, order=3))
            gp_u = christoffel_at(jet(grid, u + h, v))
            gm_u = christoffel_at(jet(grid, u - h, v))
            gp_v = christoffel_at(jet(grid, u, v + h))
            gm_v = christoffel_at(jet(grid, u, v - h))
            fd = np.stack([(gp_u - gm_u) / (2 * h), (gp_v - gm_v) / (2 * h)])
            assert np.max(rel_err(dgamma, fd, floor=1.0)) < 1e-4


class TestRiemann:
    def test_flat_zero(self):
        """An affine patch has d_i d_j F = 0 exactly, so every coefficient is exactly 0."""
        riem, _ = riemann_at(jet(flat_grid(2, 2), 0.2, 0.9))
        assert not riem.any()

    def test_antisymmetry_in_ij(self):
        rng = np.random.default_rng(7)
        grid = graph_surface_grid(random_poly_coeffs(rng), 4, 4)
        for u, v in rng.uniform(0.1, 0.9, (5, 2)):
            riem, _ = riemann_at(jet(grid, u, v))
            np.testing.assert_allclose(riem + riem.transpose(0, 2, 1, 3), 0.0, atol=1e-10)
            # in particular R^s_iik = 0
            for s in range(2):
                for i in range(2):
                    for k in range(2):
                        assert abs(riem[s, i, i, k]) <= 1e-10

    def test_paraboloid_origin_component(self):
        # |R_1212| = K det(g) = 4 at the origin where g = I
        riem, _ = riemann_at(jet(paraboloid_grid(), 0.0, 0.0))
        assert abs(riem[1, 0, 1, 0]) == pytest.approx(4.0, abs=1e-11)


class TestContract:
    def test_flat_zero(self):
        ricci, scalar = contract(*riemann_at(jet(flat_grid(2, 2), 0.5, 0.5)))
        np.testing.assert_allclose(ricci, 0.0, atol=1e-13)
        assert abs(scalar) < 1e-13

    def test_paraboloid_origin(self):
        _, scalar = contract(*riemann_at(jet(paraboloid_grid(), 0.0, 0.0)))
        assert scalar == pytest.approx(8.0, abs=1e-10)

    def test_paraboloid_half(self):
        _, scalar = contract(*riemann_at(jet(paraboloid_grid(), 0.5, 0.5)))
        assert scalar == pytest.approx(8.0 / 9.0, rel=1e-10)


# fixed before measuring: elementwise relative error, floor 1.0
LOOP_REL_TOL = 1e-13
# fixed before measuring, in units of the curvature scale (|L| + |M| + |N|)^2 / det g;
# R^s_ijk = K (delta^s_j g_ik - delta^s_i g_jk) grows with the metric, so R's errors
# are taken in units of the scale times tr g. Against the 50-digit reference, S's
# error is taken in (|L| + |M| + |N|)(|F_uu| + |F_uv| + |F_vv|) / det g, the unit
# float64 conditioning allows where the second derivatives lie nearly in the
# tangent plane (mp_gauss_curvature)
CURVATURE_LOOP_TOL = 1e-13
CURVATURE_MP_TOL = 1e-12


def _curvature_errors(riem, scalar, g, riem_ref, scalar_ref, scale, s_unit=None):
    """(R error, S error) in units of the curvature scale; S's in ``s_unit`` where given."""
    s_unit = scale if s_unit is None else s_unit
    return np.max(np.abs(riem - riem_ref)) / (scale * np.trace(g)), abs(scalar - scalar_ref) / s_unit


def _general_patch_jets():
    rng = np.random.default_rng(17)
    for _ in range(8):
        grid = random_general_grid(rng)
        for u, v in rng.uniform(0.0, 1.0, (6, 2)):
            yield jet(grid, u, v)


def _synthetic_wing_points():
    wing = generate_synthetic(SynthConfig())
    for point in dict.fromkeys(sample_points(wing.samples)):
        yield wing.manifold.grid(point.patch_id).points, point


def _graph_surface_points():
    rng = np.random.default_rng(42)
    for _ in range(10):
        grid = graph_surface_grid(random_poly_coeffs(rng), 4, 4)
        for u, v in rng.uniform(0.05, 0.95, (20, 2)):
            yield grid.points, SurfacePoint("graph", u, v)


class TestLoopReference:
    """The array chain against the scalar index loops of tests/oracles.py.

    g, dg, Gamma and the contraction are the same formulas in both and
    agree elementwise. The curvature is the Gauss equation here and the
    intrinsic formula, with third derivatives, in the loops; the two
    agree in units of the curvature scale.
    """

    def test_general_patches(self):
        n = 0
        for j in _general_patch_jets():
            g, dg = metric(j)
            g_ref, dg_ref = loop_metric(j)
            riem, g_inv = riemann_at(j)
            ricci, scalar = contract(riem, g_inv)
            ricci_ref, scalar_ref = loop_contract(riem, g_inv)
            gamma, gamma_ref = christoffel(g_inv, dg), loop_christoffel(j)[0]
            pairs = [(g, g_ref), (dg, dg_ref), (gamma, gamma_ref), (ricci, ricci_ref), (scalar, scalar_ref)]
            for got, ref in pairs:
                assert np.max(rel_err(got, ref, floor=1.0)) <= LOOP_REL_TOL
            n += 1
        assert n > 0

    @staticmethod
    def _check_curvature(points):
        """S against loop_point_features and R against the loop chain."""
        n = 0
        for ctrl, p in points:
            grid = ControlGrid(p.patch_id, ctrl)
            f = point_features(grid, p.u, p.v)
            riem, _ = riemann_at(jet(grid, p.u, p.v))
            j = scalar_jet(ctrl, p.u, p.v)
            _, _, _, scalar_ref = loop_point_features(ctrl, p)
            riem_ref = loop_riemann_tensor(*loop_christoffel(j))
            errs = _curvature_errors(riem, f.scalar, f.g, riem_ref, scalar_ref, curvature_scale(j))
            assert max(errs) <= CURVATURE_LOOP_TOL
            n += 1
        assert n > 0

    def test_default_synthetic_wing(self):
        self._check_curvature(_synthetic_wing_points())

    def test_graph_surfaces(self):
        self._check_curvature(_graph_surface_points())

    def test_ricci_sign_identity(self):
        """In 2D sum_a R^a_aij = -sum_a R^a_iaj exactly: contracting the first
        index instead would only negate S, which is why S has one sign."""
        for j in _general_patch_jets():
            riem, _ = riemann_at(j)
            assert np.array_equal(np.einsum("aaij->ij", riem), -np.einsum("aiaj->ij", riem))


@st.composite
def general_patches(draw):
    """(grid, u, v): a random general patch of degrees 1..4, scaled by 10^-2..10^2,
    with three parameter points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = random_general_grid(rng, draw(st.integers(1, 4)), draw(st.integers(1, 4)), jitter=0.1)
    grid = ControlGrid("general", grid.points * 10.0 ** draw(st.floats(-2.0, 2.0)))
    u, v = (np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))) for _ in range(2))
    return grid, u, v


# a nearly planar bilinear patch whose twist lies almost in the tangent plane at
# u = v = 0 (|M| = 7.4e-4 against |F_uv| = 2.34): S misses by 1.35e-12 of the
# curvature scale there, and by 4.3e-16 of the unit float64 allows
_FLAT_TWIST = ControlGrid("general", [
    [(0.05811993, -0.70179108, 2.65284775), (-0.75860043, 9.70371208, 1.3086818)],
    [(9.43047661, 0.50611534, -1.34010302), (10.16772453, 9.19943819, -3.03924026)],
])


class TestGaussReference:
    @settings(max_examples=max_examples(150), deadline=None)
    @given(general_patches())
    @example((_FLAT_TWIST, np.zeros(1), np.zeros(1)))
    def test_general_patches_match_50_digit_gauss_equation(self, patch):
        grid, u, v = patch
        f = point_features(grid, u, v)
        riem, _ = riemann_at(jet(grid, u, v))
        for k in range(len(u)):
            riem_ref, scalar_ref, scale, s_unit = mp_gauss_curvature(grid.points, u[k], v[k])
            errs = _curvature_errors(riem[k], f.scalar[k], f.g[k], riem_ref, scalar_ref, scale, s_unit)
            assert max(errs) <= CURVATURE_MP_TOL


class TestGraphSurfaceOracle:
    def test_equivalence(self):
        """Metric, Christoffel and scalar curvature against the closed forms."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            coeffs = random_poly_coeffs(rng)
            grid = graph_surface_grid(coeffs, 4, 4)
            manifold = PiecewiseManifold([grid])
            manifold.exempt(grid.patch_id)
            for u, v in rng.uniform(0.05, 0.95, (20, 2)):
                f = feature_bundle(manifold, SurfacePoint("graph", u, v))
                g_o, gamma_o, s_o = graph_surface_features(coeffs, u, v)
                assert np.max(rel_err(f.g, g_o, floor=1.0)) < 1e-8
                assert np.max(rel_err(f.gamma, gamma_o, floor=1.0)) < 1e-8
                assert rel_err(f.scalar, s_o, floor=1.0) < 1e-8


class TestInvariance:
    def _features_at(self, grid, pts):
        manifold = PiecewiseManifold([grid])
        manifold.exempt(grid.patch_id)
        return [feature_bundle(manifold, SurfacePoint(grid.patch_id, u, v)) for u, v in pts]

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        coeffs = random_poly_coeffs(rng)
        grid = graph_surface_grid(coeffs, 4, 4)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.uniform(-5, 5, 3)
        from wingcp.bezier import ControlGrid

        moved = ControlGrid("graph", grid.points @ q.T + shift)
        pts = rng.uniform(0.1, 0.9, (8, 2))
        for a, b in zip(self._features_at(grid, pts), self._features_at(moved, pts)):
            np.testing.assert_allclose(a.g, b.g, atol=1e-9)
            np.testing.assert_allclose(a.gamma, b.gamma, atol=1e-9)
            assert abs(a.scalar - b.scalar) < 1e-9
        riem, _ = riemann_at(jet(grid, pts[:, 0], pts[:, 1]))
        np.testing.assert_allclose(riemann_at(jet(moved, pts[:, 0], pts[:, 1]))[0], riem, atol=1e-9)

    def test_uniform_scaling(self):
        rng = np.random.default_rng(12)
        coeffs = random_poly_coeffs(rng)
        grid = graph_surface_grid(coeffs, 4, 4)
        from wingcp.bezier import ControlGrid

        for lam in (0.5, 2.0, 7.0):
            scaled = ControlGrid("graph", lam * np.array(grid.points))
            pts = rng.uniform(0.1, 0.9, (5, 2))
            for a, b in zip(self._features_at(grid, pts), self._features_at(scaled, pts)):
                np.testing.assert_allclose(b.g, lam**2 * a.g, rtol=1e-9)
                if abs(a.scalar) > 1e-12:
                    assert b.scalar == pytest.approx(a.scalar / lam**2, rel=1e-9)


class TestFeatureBundle:
    def test_flat_everything(self, flat_manifold):
        f = feature_bundle(flat_manifold, SurfacePoint("flat", 0.3, 0.3))
        np.testing.assert_allclose(f.g, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(f.g_inv, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(f.gamma, 0.0, atol=1e-14)
        assert abs(f.scalar) < 1e-14
        assert f.det_g == pytest.approx(1.0, abs=1e-14)

    def test_paraboloid_origin(self, paraboloid_manifold):
        f = feature_bundle(paraboloid_manifold, SurfacePoint("paraboloid", 0.0, 0.0))
        np.testing.assert_allclose(f.g, np.eye(2), atol=1e-13)
        np.testing.assert_allclose(f.gamma, 0.0, atol=1e-13)
        assert f.scalar == pytest.approx(8.0, abs=1e-10)

    def test_unchecked_patch_rejected(self):
        manifold = PiecewiseManifold([paraboloid_grid(patch_id="p")])
        with pytest.raises(InvalidPatch):
            feature_bundle(manifold, SurfacePoint("p", 0.5, 0.5))

    def test_degenerate_metric_carries_point(self):
        import numpy as np
        from wingcp.bezier import ControlGrid

        # collapse an entire boundary row so the tangent along u vanishes at v=0
        pts = np.array(flat_grid(2, 2).points)
        pts[:, 0, :] = pts[0, 0, :]
        manifold = PiecewiseManifold([ControlGrid("deg", pts)])
        manifold.exempt("deg")
        with pytest.raises(DegenerateMetric) as excinfo:
            feature_bundle(manifold, SurfacePoint("deg", 0.5, 0.0))
        assert excinfo.value.point == SurfacePoint("deg", 0.5, 0.0)

    def test_inverse_consistency(self, paraboloid_manifold):
        f = feature_bundle(paraboloid_manifold, SurfacePoint("paraboloid", 0.7, 0.2))
        np.testing.assert_allclose(f.g @ f.g_inv, np.eye(2), atol=1e-10)


class TestFeaturePointsCsv:
    """Every row of a saved features_points.csv against the stencil it names and
    a fresh per-point feature_bundle, compared exactly after parsing."""

    VALUE_COLUMNS = ["x", "y", "z", "g11", "g12", "g22"] + [
        f"gam{k}{i}{j}" for k in (1, 2) for i, j in ((1, 1), (1, 2), (2, 2))
    ] + ["S"]

    def _check(self, tmp_path, manifold, samples, d):
        result = assemble(manifold, samples, d=d)
        save_feature_cache(tmp_path, result, {"d": d})
        with open(tmp_path / "features_points.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["patch_id", "u", "v", *self.VALUE_COLUMNS, "stencil_slot"]
        assert len(rows) == 9 * len(result.kept)
        clamped = 0
        points = sample_points(samples)
        for r, src in enumerate(result.kept):
            stencil = build_stencil(manifold, points[src], d)
            clamped += any(stencil.clamped)
            for slot, p in enumerate(stencil.points):
                row = rows[9 * r + slot]
                assert row["patch_id"] == p.patch_id and row["stencil_slot"] == str(slot)
                assert (float(row["u"]), float(row["v"])) == (p.u, p.v)
                f = feature_bundle(manifold, p)
                upper = [(0, 0), (0, 1), (1, 1)]
                expected = [*f.position, *(f.g[i, j] for i, j in upper)]
                expected += [f.gamma[k, i, j] for k in range(2) for i, j in upper] + [f.scalar]
                assert [float(row[c]) for c in self.VALUE_COLUMNS] == expected
        return clamped

    def test_paraboloid(self, tmp_path, paraboloid_manifold):
        locations = [(0.5, 0.5), (0.2, 0.7), (0.0, 0.4), (0.9, 1.0)]
        samples = Samples.from_rows([_sample_row(SurfacePoint("paraboloid", u, v)) for u, v in locations])
        assert self._check(tmp_path, paraboloid_manifold, samples, 0.005) == 2

    def test_synth_wing_with_seam_stencils(self, tmp_path):
        res = generate_synthetic(
            SynthConfig(seed=3, stations=3, points_per_section=4, aoa_set=(0.0, 12.0))
        )
        # stencils centred on a patch seam (v = 0) clamp their south offset
        assert self._check(tmp_path, res.manifold, res.samples, 0.005) > 0


def _sample_row(point):
    return (point.patch_id, point.u, point.v, 0.175, 7.0, 1.35e6, float("nan"), 0.5)
