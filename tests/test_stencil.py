import numpy as np
import pytest

from oracles import eval_surface_dc, flat_grid, graph_surface_grid, paraboloid_grid

from wingcp.bezier import PiecewiseManifold, SurfacePoint, eval_patch
from wingcp.errors import StencilOutOfPatch
from wingcp.geometry import feature_bundle
from wingcp.stencil import NEIGHBOR_SLOTS, build_stencil, calibrate_offset


def brute_force_offset(grid, u0, v0, axis, d, lo=0.0, hi=None):
    """Independent chord inversion: bisection on de Casteljau evaluations."""
    base = eval_surface_dc(grid.points, u0, v0)

    def chord(delta):
        if axis == "u":
            p = eval_surface_dc(grid.points, u0 + delta, v0)
        else:
            p = eval_surface_dc(grid.points, u0, v0 + delta)
        return float(np.linalg.norm((p - base).astype(float)))

    if hi is None:
        hi = 1.0 - (u0 if axis == "u" else v0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chord(mid) < d:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCalibrateOffset:
    def test_flat_parameter_equals_chord(self):
        g = flat_grid(2, 2)
        delta, clamped, _ = calibrate_offset(g, 0.5, 0.5, "u", +1, 0.01)
        assert not clamped
        assert delta == pytest.approx(0.01, abs=1e-11)

    def test_paraboloid_matches_brute_force(self):
        g = paraboloid_grid()
        d = 0.01
        delta, clamped, _ = calibrate_offset(g, 0.5, 0.5, "u", +1, d)
        assert not clamped
        oracle = brute_force_offset(g, 0.5, 0.5, "u", d)
        assert delta == pytest.approx(oracle, rel=1e-6)
        # first-order sanity: tangent speed |dF/du| = sqrt(1+4u^2) = sqrt(2),
        # so delta sits near d/sqrt(2) (within the curvature correction)
        assert delta == pytest.approx(d / np.sqrt(2.0), rel=5e-3)
        # and the chord it realizes is d to the solver tolerance
        chord = np.linalg.norm(eval_patch(g, 0.5 + delta, 0.5) - eval_patch(g, 0.5, 0.5))
        assert chord == pytest.approx(d, rel=1e-9)

    def test_boundary_clamp(self):
        g = flat_grid(2, 2)
        delta, clamped, _ = calibrate_offset(g, 0.999, 0.5, "u", +1, 0.01)
        assert clamped
        assert delta == pytest.approx(0.001, abs=1e-12)

    def test_at_corner_zero_room(self):
        g = flat_grid(2, 2)
        delta, clamped, _ = calibrate_offset(g, 0.0, 0.0, "u", -1, 0.01)
        assert clamped and delta == 0.0

    def test_spacing_exceeds_patch(self):
        g = flat_grid(2, 2)
        delta, clamped, extent = calibrate_offset(g, 0.5, 0.5, "u", +1, 1.5)
        assert extent == pytest.approx(1.0) and delta == 0.0 and not clamped
        manifold = PiecewiseManifold([g])
        manifold.exempt("flat")
        with pytest.raises(StencilOutOfPatch, match="extent 1 along u"):
            build_stencil(manifold, SurfacePoint("flat", 0.5, 0.5), 1.5)

    def test_bad_arguments(self):
        g = flat_grid()
        with pytest.raises(ValueError):
            calibrate_offset(g, 0.5, 0.5, "w", +1, 0.01)
        with pytest.raises(ValueError):
            calibrate_offset(g, 0.5, 0.5, "u", 0, 0.01)
        with pytest.raises(ValueError):
            calibrate_offset(g, 0.5, 0.5, "u", +1, -0.1)


class TestBuildStencil:
    def test_flat_layout(self, flat_manifold):
        st = build_stencil(flat_manifold, SurfacePoint("flat", 0.5, 0.5), 0.01)
        assert len(st.points) == 9
        assert st.points[4] == st.center
        us = [p.u for p in st.points]
        vs = [p.v for p in st.points]
        np.testing.assert_allclose(us, [0.49, 0.5, 0.51] * 3, atol=1e-10)
        np.testing.assert_allclose(vs, [0.51] * 3 + [0.5] * 3 + [0.49] * 3, atol=1e-10)
        assert not any(st.clamped)

    def test_center_feature_reextraction_bitwise(self, paraboloid_manifold):
        center = SurfacePoint("paraboloid", 0.4, 0.6)
        st = build_stencil(paraboloid_manifold, center, 0.005)
        a = feature_bundle(paraboloid_manifold, center)
        b = feature_bundle(paraboloid_manifold, st.points[4])
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.gamma, b.gamma)
        assert a.scalar == b.scalar

    def test_axial_spacing_within_one_percent(self, paraboloid_manifold):
        st = build_stencil(paraboloid_manifold, SurfacePoint("paraboloid", 0.5, 0.5), 0.005)
        # slots 1, 3, 5, 7 are the axial neighbors -> positions 1, 3, 4, 6
        # in the 8-wide spacing array
        axial = [NEIGHBOR_SLOTS.index(s) for s in (1, 3, 5, 7)]
        for i in axial:
            assert abs(st.achieved_spacings[i] - 0.005) <= 0.01 * 0.005

    def test_diagonal_band(self, flat_manifold):
        # composed diagonals measure d*sqrt(2 + 2 cos(theta)) for tangent
        # angle theta, so the [d, 1.5 d] sanity band applies where the
        # parametrization is near-orthogonal; a mild bump keeps
        # |cos(theta)| = |f_u f_v| / ... <= 0.04 while staying curved
        mild = np.zeros((3, 3))
        mild[2, 0] = mild[0, 2] = 0.1
        manifold = PiecewiseManifold([graph_surface_grid(mild, 2, 2, patch_id="mild")])
        manifold.check_all(samples_per_axis=8)
        cases = [
            (flat_manifold, SurfacePoint("flat", 0.5, 0.5)),
            (manifold, SurfacePoint("mild", 0.5, 0.5)),
            (manifold, SurfacePoint("mild", 0.7, 0.3)),
        ]
        for man, center in cases:
            for d in (0.01, 0.005):
                st = build_stencil(man, center, d)
                diag = [NEIGHBOR_SLOTS.index(s) for s in (0, 2, 6, 8)]
                for i in diag:
                    assert d <= st.achieved_spacings[i] <= 1.5 * d

    def test_boundary_center_clamps(self, flat_manifold):
        st = build_stencil(flat_manifold, SurfacePoint("flat", 0.0, 0.0), 0.01)
        assert any(st.clamped)
        # west and south neighbors collapse onto the center
        assert st.points[3] == SurfacePoint("flat", 0.0, 0.0)
        assert st.points[7] == SurfacePoint("flat", 0.0, 0.0)

    def test_shrinking_d_curvature_spread(self, paraboloid_manifold):
        """Scalar-curvature spread across the stencil shrinks monotonically with d."""
        center = SurfacePoint("paraboloid", 0.45, 0.55)
        spreads = []
        for d in (0.01, 0.005, 0.001):
            st = build_stencil(paraboloid_manifold, center, d)
            s_vals = [feature_bundle(paraboloid_manifold, p).scalar for p in st.points]
            spreads.append(np.std(s_vals))
        assert spreads[0] > spreads[1] > spreads[2]

    def test_requires_checked_patch(self):
        from wingcp.errors import InvalidPatch

        manifold = PiecewiseManifold([flat_grid(patch_id="flat")])
        with pytest.raises(InvalidPatch):
            build_stencil(manifold, SurfacePoint("flat", 0.5, 0.5), 0.01)
