import csv

import numpy as np
import pytest

from oracles import (
    graph_surface_features,
    loop_christoffel,
    loop_contract,
    loop_metric,
    loop_metric_hessian,
    loop_riemann_tensor,
    rel_err,
)

from wingcp.bezier import ControlGrid, PiecewiseManifold, SurfacePoint, jet
from wingcp.data import FlightCondition, RawSample, assemble, save_feature_cache
from wingcp.errors import DegenerateMetric, InvalidPatch
from wingcp.geometry import (
    CONVENTIONS,
    _metric_hessian,
    christoffel,
    contract,
    feature_bundle,
    inverse_metric,
    metric,
    riemann_tensor,
)
from wingcp.shapes import flat_grid, graph_surface_grid, paraboloid_grid
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
    return christoffel(j, inverse_metric(g), dg)


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
    def test_identity(self):
        np.testing.assert_allclose(inverse_metric(np.eye(2)), np.eye(2), atol=1e-15)

    def test_diagonal(self):
        np.testing.assert_allclose(
            inverse_metric(np.array([[2.0, 0.0], [0.0, 1.0]])),
            [[0.5, 0.0], [0.0, 1.0]],
            atol=1e-15,
        )

    def test_rank_one_degenerate(self):
        with pytest.raises(DegenerateMetric):
            inverse_metric(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_product_is_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.uniform(-1, 1, (2, 2))
            g = a @ a.T + 0.5 * np.eye(2)
            np.testing.assert_allclose(g @ inverse_metric(g), np.eye(2), atol=1e-10)


class TestChristoffel:
    def test_flat_all_zero(self):
        gamma, dgamma = christoffel_at(jet(flat_grid(2, 2), 0.4, 0.6))
        np.testing.assert_allclose(gamma, 0.0, atol=1e-14)
        np.testing.assert_allclose(dgamma, 0.0, atol=1e-14)

    def test_paraboloid_value(self):
        # graph-surface oracle: Gamma^1_11 = f_uu f_u / (1 + |grad f|^2) = 2*1/2
        gamma, _ = christoffel_at(jet(paraboloid_grid(), 0.5, 0.0))
        assert gamma[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_paraboloid_origin_zero(self):
        gamma, _ = christoffel_at(jet(paraboloid_grid(), 0.0, 0.0))
        np.testing.assert_allclose(gamma, 0.0, atol=1e-13)

    def test_lower_index_symmetry_exact(self):
        rng = np.random.default_rng(5)
        grid = graph_surface_grid(random_poly_coeffs(rng), 4, 4)
        for u, v in rng.uniform(0.1, 0.9, (5, 2)):
            gamma, dgamma = christoffel_at(jet(grid, u, v))
            for k in range(2):
                assert gamma[k, 0, 1] == gamma[k, 1, 0]
                for x in range(2):
                    assert dgamma[x, k, 0, 1] == dgamma[x, k, 1, 0]

    def test_derivatives_match_finite_differences(self):
        # central FD of christoffel over (u, v) with step 1e-4
        rng = np.random.default_rng(6)
        grid = graph_surface_grid(random_poly_coeffs(rng), 4, 4)
        h = 1e-4
        for u, v in rng.uniform(0.1, 0.9, (4, 2)):
            _, dgamma = christoffel_at(jet(grid, u, v))
            gp_u, _ = christoffel_at(jet(grid, u + h, v))
            gm_u, _ = christoffel_at(jet(grid, u - h, v))
            gp_v, _ = christoffel_at(jet(grid, u, v + h))
            gm_v, _ = christoffel_at(jet(grid, u, v - h))
            fd = np.stack([(gp_u - gm_u) / (2 * h), (gp_v - gm_v) / (2 * h)])
            assert np.max(rel_err(dgamma, fd, floor=1.0)) < 1e-4


class TestRiemann:
    def test_flat_zero(self):
        gamma, dgamma = christoffel_at(jet(flat_grid(2, 2), 0.2, 0.9))
        np.testing.assert_allclose(riemann_tensor(gamma, dgamma), 0.0, atol=1e-14)

    def test_antisymmetry_in_ij(self):
        rng = np.random.default_rng(7)
        grid = graph_surface_grid(random_poly_coeffs(rng), 4, 4)
        for u, v in rng.uniform(0.1, 0.9, (5, 2)):
            gamma, dgamma = christoffel_at(jet(grid, u, v))
            riem = riemann_tensor(gamma, dgamma)
            np.testing.assert_allclose(riem + riem.transpose(0, 2, 1, 3), 0.0, atol=1e-10)
            # in particular R^s_iik = 0
            for s in range(2):
                for i in range(2):
                    for k in range(2):
                        assert abs(riem[s, i, i, k]) <= 1e-10

    def test_paraboloid_origin_component(self):
        # |R_1212| = K det(g) = 4 at the origin where g = I
        gamma, dgamma = christoffel_at(jet(paraboloid_grid(), 0.0, 0.0))
        riem = riemann_tensor(gamma, dgamma)
        assert abs(riem[1, 0, 1, 0]) == pytest.approx(4.0, abs=1e-11)


class TestContract:
    def test_flat_zero(self):
        gamma, dgamma = christoffel_at(jet(flat_grid(2, 2), 0.5, 0.5))
        g, _ = metric(jet(flat_grid(2, 2), 0.5, 0.5))
        ricci, scalar = contract(riemann_tensor(gamma, dgamma), inverse_metric(g))
        np.testing.assert_allclose(ricci, 0.0, atol=1e-13)
        assert abs(scalar) < 1e-13

    def test_paraboloid_origin(self):
        j = jet(paraboloid_grid(), 0.0, 0.0)
        gamma, dgamma = christoffel_at(j)
        g, _ = metric(j)
        _, scalar = contract(riemann_tensor(gamma, dgamma), inverse_metric(g))
        assert scalar == pytest.approx(8.0, abs=1e-10)

    def test_paraboloid_half(self):
        j = jet(paraboloid_grid(), 0.5, 0.5)
        gamma, dgamma = christoffel_at(j)
        g, _ = metric(j)
        _, scalar = contract(riemann_tensor(gamma, dgamma), inverse_metric(g))
        assert scalar == pytest.approx(8.0 / 9.0, rel=1e-10)

    def test_conventions_differ_by_sign(self):
        j = jet(paraboloid_grid(), 0.3, 0.6)
        gamma, dgamma = christoffel_at(j)
        g, _ = metric(j)
        riem = riemann_tensor(gamma, dgamma)
        g_inv = inverse_metric(g)
        ricci_std, s_std = contract(riem, g_inv, "standard")
        ricci_lit, s_lit = contract(riem, g_inv, "first-index")
        np.testing.assert_allclose(ricci_lit, -ricci_std, atol=1e-12)
        assert s_lit == pytest.approx(-s_std, rel=1e-12)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            contract(np.zeros((2, 2, 2, 2)), np.eye(2), "bogus")


# fixed before measuring: elementwise relative error, floor 1.0
LOOP_REL_TOL = 1e-13


def _general_patch_jets():
    rng = np.random.default_rng(17)
    for _ in range(8):
        grid = random_general_grid(rng)
        for u, v in rng.uniform(0.0, 1.0, (6, 2)):
            yield jet(grid, u, v)


def _synthetic_wing_jets():
    wing = generate_synthetic(SynthConfig())
    for point in dict.fromkeys(s.location for s in wing.samples):
        yield jet(wing.manifold.grid(point.patch_id), point.u, point.v)


class TestLoopReference:
    """The array chain against the scalar index loops of tests/oracles.py."""

    def _check(self, jets):
        n = 0
        for j in jets:
            g, dg = metric(j)
            g_ref, dg_ref = loop_metric(j)
            gamma, dgamma = christoffel(j, inverse_metric(g), dg)
            gamma_ref, dgamma_ref = loop_christoffel(j)
            riem = riemann_tensor(gamma, dgamma)
            riem_ref = loop_riemann_tensor(gamma_ref, dgamma_ref)
            pairs = [
                (g, g_ref),
                (dg, dg_ref),
                (_metric_hessian(j), loop_metric_hessian(j)),
                (gamma, gamma_ref),
                (dgamma, dgamma_ref),
                (riem, riem_ref),
            ]
            g_inv = inverse_metric(g)
            for convention in CONVENTIONS:
                ricci, scalar = contract(riem, g_inv, convention)
                ricci_ref, scalar_ref = loop_contract(riem_ref, g_inv, convention)
                pairs += [(ricci, ricci_ref), (scalar, scalar_ref)]
            for got, ref in pairs:
                assert np.max(rel_err(got, ref, floor=1.0)) <= LOOP_REL_TOL
            n += 1
        assert n > 0

    def test_general_patches(self):
        self._check(_general_patch_jets())

    def test_default_synthetic_wing(self):
        self._check(_synthetic_wing_jets())

    def test_ricci_sign_identity(self):
        """In 2D sum_a R^a_aij = -sum_a R^a_iaj exactly, which lets contract
        evaluate one contraction and negate it for "first-index"."""
        for j in _general_patch_jets():
            riem = riemann_tensor(*christoffel_at(j))
            assert np.array_equal(np.einsum("aaij->ij", riem), -np.einsum("aiaj->ij", riem))


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
    def _features_at(self, grid, pts, convention="standard"):
        manifold = PiecewiseManifold([grid])
        manifold.exempt(grid.patch_id)
        return [feature_bundle(manifold, SurfacePoint(grid.patch_id, u, v), convention) for u, v in pts]

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
            np.testing.assert_allclose(a.riemann, b.riemann, atol=1e-9)
            assert abs(a.scalar - b.scalar) < 1e-9

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
        np.testing.assert_allclose(f.riemann, 0.0, atol=1e-14)
        np.testing.assert_allclose(f.ricci, 0.0, atol=1e-14)
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
        save_feature_cache(tmp_path, result, samples, {"d": d})
        with open(tmp_path / "features_points.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["patch_id", "u", "v", *self.VALUE_COLUMNS, "stencil_slot"]
        assert len(rows) == 9 * len(result.kept)
        clamped = 0
        for r, src in enumerate(result.kept):
            stencil = build_stencil(manifold, samples[src].location, d)
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
        samples = [_raw_sample(SurfacePoint("paraboloid", u, v)) for u, v in locations]
        assert self._check(tmp_path, paraboloid_manifold, samples, 0.005) == 2

    def test_synth_wing_with_seam_stencils(self, tmp_path):
        res = generate_synthetic(
            SynthConfig(seed=3, stations=3, points_per_section=4, aoa_set=(0.0, 12.0))
        )
        # stencils centred on a patch seam (v = 0) clamp their south offset
        assert self._check(tmp_path, res.manifold, res.samples, 0.005) > 0


def _raw_sample(point):
    return RawSample(location=point, condition=FlightCondition(ma=0.175, aoa=7.0, re=1.35e6), cp=0.5)
