import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    affine_grid,
    brute_force_close_pairs,
    eval_surface_dc,
    flat_grid,
    paraboloid_grid,
    svd_check_patch,
    svd_jacobians,
    svd_singular_values,
)
from strategies import FINITE, PATCH_IDS, set_non_finite_field

from wingcp.bezier import (
    _MAX_REPORTED_PAIRS,
    ControlGrid,
    PiecewiseManifold,
    SurfacePoint,
    _sigma_min,
    bernstein_row,
    check_patch,
    eval_patch,
    jet,
    load_control_grids,
    save_control_grids,
)
from wingcp.errors import InvalidPatch, SampleParseError
from wingcp.shapes import surface_from_polynomials
from wingcp.synth import SynthConfig, _build_patches

# closed-form margin against LAPACK's, in units of the node's largest singular value
SIGMA_TOL = 1e-13


def _random_grids(seed, count=6):
    rng = np.random.default_rng(seed)
    shapes = rng.integers(2, 6, size=(count, 2))
    return [ControlGrid(f"r{k}", rng.uniform(-1, 1, (a, b, 3))) for k, (a, b) in enumerate(shapes)]


def _near_degenerate_grids():
    """Grids whose tangents nearly vanish in one direction, are nearly parallel or nearly collapse on an edge."""
    base = np.array(paraboloid_grid().points)
    x, y, z = base[..., 0], base[..., 1], base[..., 2]
    grids = []
    for k, eps in enumerate((1e-4, 1e-8, 1e-12, 1e-15)):
        # Fu = (1, 1, 2 eps u) and Fv = (1, 1, eps (1 + 2v)): nearly parallel, of equal length
        grids.append(ControlGrid(f"sheared{k}", np.stack([x + y, x + y, eps * (y + z)], axis=-1)))
        squeezed = base.copy()
        squeezed[..., 1] *= eps  # the v direction shrinks to eps of its length
        squeezed[..., 2] *= eps
        grids.append(ControlGrid(f"squeezed{k}", squeezed))
        collapsing = base.copy()
        collapsing[:, 0, :] = collapsing[0, 0, :] + eps * (collapsing[:, 0, :] - collapsing[0, 0, :])
        grids.append(ControlGrid(f"collapsing{k}", collapsing))
    return grids


DEFAULT_WING = _build_patches(SynthConfig())
# x = (u+v-1)^2 folds the sheet onto itself across u+v = 1
FOLDED = surface_from_polynomials(
    np.array([[1.0, -2.0, 1.0], [-2.0, 2.0, 0.0], [1.0, 0.0, 0.0]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
    np.zeros((1, 1)),
    m=2,
    n=2,
    patch_id="fold",
)


class TestBernstein:
    def test_endpoint_interpolation(self):
        assert bernstein_row(2, 0.0)[0] == 1.0
        assert bernstein_row(2, 1.0)[2] == 1.0

    def test_direct_formula_value(self):
        # C(2,1) * 0.5 * 0.5 by hand
        assert bernstein_row(2, 0.5)[1] == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity_single(self):
        assert sum(bernstein_row(3, 0.37)) == pytest.approx(1.0, abs=1e-12)

    def test_partition_of_unity_sweep(self):
        for m in (1, 2, 3, 5):
            totals = bernstein_row(m, np.linspace(0.0, 1.0, 100)).sum(axis=-1)
            assert np.max(np.abs(totals - 1.0)) < 1e-12

    def test_values_in_unit_interval(self):
        row = bernstein_row(4, np.linspace(0.0, 1.0, 21))
        assert np.all((0.0 <= row) & (row <= 1.0))

    def test_index_out_of_range(self):
        """A degree-m row holds exactly the indices 0..m, for one parameter or many."""
        assert bernstein_row(2, 0.5).shape == (3,)
        assert bernstein_row(2, np.linspace(0.0, 1.0, 5)).shape == (5, 3)
        with pytest.raises(IndexError):
            bernstein_row(2, 0.5)[3]


class TestEvalPatch:
    def test_flat_corner(self):
        g = flat_grid(2, 3)
        np.testing.assert_allclose(eval_patch(g, 0.0, 0.0), [0, 0, 0], atol=1e-15)

    def test_flat_affine_center(self):
        g = flat_grid(2, 2)
        np.testing.assert_allclose(eval_patch(g, 0.5, 0.5), [0.5, 0.5, 0.0], atol=1e-15)

    def test_paraboloid_value(self):
        # monomial-to-Bernstein conversion oracle: F = (u, v, u^2 + v^2)
        g = paraboloid_grid()
        np.testing.assert_allclose(eval_patch(g, 0.5, 0.0), [0.5, 0.0, 0.25], atol=1e-15)

    def test_domain_error(self):
        g = flat_grid()
        with pytest.raises(ValueError):
            eval_patch(g, 1.2, 0.5)
        with pytest.raises(ValueError):
            eval_patch(g, 0.5, -0.1)

    def test_endpoint_interpolation_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            g = ControlGrid("r", rng.uniform(-1, 1, (m + 1, n + 1, 3)))
            corners = [((0.0, 0.0), g.points[0, 0]), ((1.0, 0.0), g.points[m, 0]),
                       ((0.0, 1.0), g.points[0, n]), ((1.0, 1.0), g.points[m, n])]
            for (u, v), expected in corners:
                np.testing.assert_allclose(eval_patch(g, u, v), expected, atol=1e-12)

    def test_convex_hull_bounding_box(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            g = ControlGrid("r", rng.uniform(-1, 1, (m + 1, n + 1, 3)))
            lo = g.points.reshape(-1, 3).min(axis=0) - 1e-12
            hi = g.points.reshape(-1, 3).max(axis=0) + 1e-12
            for u, v in rng.uniform(0, 1, (20, 2)):
                p = eval_patch(g, u, v)
                assert np.all(p >= lo) and np.all(p <= hi)

    def test_matches_de_casteljau(self):
        rng = np.random.default_rng(9)
        g = ControlGrid("r", rng.uniform(-1, 1, (5, 4, 3)))
        for u, v in rng.uniform(0, 1, (10, 2)):
            np.testing.assert_allclose(
                eval_patch(g, u, v), eval_surface_dc(g.points, u, v), atol=1e-13
            )


class TestJet:
    def test_flat_first_and_second(self):
        g = flat_grid(2, 2)
        for u, v in [(0.0, 0.0), (0.3, 0.8), (1.0, 1.0)]:
            j = jet(g, u, v)
            np.testing.assert_allclose(j[1, 0], [1, 0, 0], atol=1e-14)
            np.testing.assert_allclose(j[0, 1], [0, 1, 0], atol=1e-14)
            np.testing.assert_allclose(j[2, 0], [0, 0, 0], atol=1e-14)

    def test_paraboloid_symbolic(self):
        # d/du (u, v, u^2+v^2) = (1, 0, 2u), etc.
        j = jet(paraboloid_grid(), 0.5, 0.0)
        np.testing.assert_allclose(j[1, 0], [1, 0, 1], atol=1e-14)
        np.testing.assert_allclose(j[0, 1], [0, 1, 0], atol=1e-14)
        np.testing.assert_allclose(j[2, 0], [0, 0, 2], atol=1e-14)

    def test_order_zero_matches_eval(self):
        rng = np.random.default_rng(12)
        g = ControlGrid("r", rng.uniform(-1, 1, (4, 5, 3)))
        for u, v in rng.uniform(0, 1, (5, 2)):
            j = jet(g, u, v)
            np.testing.assert_allclose(j[0, 0], eval_patch(g, u, v), rtol=1e-12)

    def test_first_derivative_vs_fd(self):
        rng = np.random.default_rng(13)
        g = ControlGrid("r", rng.uniform(-1, 1, (5, 5, 3)))
        h = 1e-5
        for u, v in rng.uniform(0.1, 0.9, (5, 2)):
            j = jet(g, u, v)
            fd = (eval_patch(g, u + h, v) - eval_patch(g, u - h, v)) / (2 * h)
            np.testing.assert_allclose(j[1, 0], fd, atol=1e-6)

    def test_all_partials_vs_fd_oracle(self):
        from oracles import fd_jet

        rng = np.random.default_rng(14)
        for _ in range(5):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            g = ControlGrid("r", rng.uniform(-1, 1, (m + 1, n + 1, 3)))
            u, v = rng.uniform(0.1, 0.9, 2)
            j = jet(g, u, v)
            fd = fd_jet(g.points, u, v, order=3)
            for p in range(4):
                for q in range(4 - p):
                    err = np.abs(j[p, q] - fd[(p, q)]) / np.maximum(1.0, np.abs(fd[(p, q)]))
                    assert np.max(err) < 1e-5, f"partial ({p},{q})"

    def test_degree_exactness(self):
        # polynomial surface with known monomial coefficients: the jet
        # must equal the directly differentiated monomials
        from oracles import mono_eval, mono_partial

        rng = np.random.default_rng(15)
        cx = rng.uniform(-1, 1, (3, 2))
        cy = rng.uniform(-1, 1, (2, 3))
        cz = rng.uniform(-1, 1, (4, 4))
        g = surface_from_polynomials(cx, cy, cz, m=4, n=4)
        for u, v in rng.uniform(0, 1, (5, 2)):
            j = jet(g, u, v)
            for p in range(4):
                for q in range(4 - p):
                    expected = [mono_eval(mono_partial(c, p, q), u, v) for c in (cx, cy, cz)]
                    np.testing.assert_allclose(j[p, q], expected, atol=1e-10)

    def test_beyond_degree_is_zero(self):
        g = flat_grid(1, 1)
        j = jet(g, 0.4, 0.4, order=3)
        np.testing.assert_array_equal(j[2, 0], [0, 0, 0])
        np.testing.assert_array_equal(j[3, 0], [0, 0, 0])

    def test_bad_order(self):
        with pytest.raises(ValueError):
            jet(flat_grid(), 0.5, 0.5, order=4)


class TestCheckPatch:
    def test_flat_is_valid_margin_one(self):
        rep = check_patch(flat_grid(2, 2), samples_per_axis=16)
        assert rep.valid
        assert abs(rep.immersion_margin - 1.0) < 1e-12
        assert rep.intersection_count == 0

    def test_degenerate_row_flagged(self):
        pts = np.array(flat_grid(2, 2).points)
        pts[:, 0, :] = pts[0, 0, :]  # collapse the v=0 boundary row
        rep = check_patch(ControlGrid("deg", pts), samples_per_axis=16)
        assert not rep.valid
        assert rep.immersion_margin < rep.rank_tol
        assert rep.margin_location[1] == 0.0

    def test_folded_grid_reports_intersection(self):
        g = FOLDED
        rep = check_patch(g, samples_per_axis=11)
        assert not rep.valid
        assert rep.intersection_count > 0
        found = any(
            (abs(hit["a"][0] - 0.1) < 1e-12 and abs(hit["b"][0] - 0.9) < 1e-12)
            or (abs(hit["a"][0] - 0.9) < 1e-12 and abs(hit["b"][0] - 0.1) < 1e-12)
            for hit in rep.intersections
            if abs(hit["a"][0] - hit["a"][1]) < 1e-12
        )
        assert found, "expected the (0.1,0.1)/(0.9,0.9) coincidence to be reported"

        # brute-force all-pairs confirmation on the same sample grid
        ss = np.linspace(0, 1, 11)
        pts = np.array([eval_patch(g, u, v) for u in ss for v in ss])
        par = np.array([[u, v] for u in ss for v in ss])
        hits = brute_force_close_pairs(pts, par, rep.eps_space, rep.delta_param)
        assert len(hits) == rep.intersection_count

    def test_close_pairs_match_all_pairs(self):
        from wingcp.bezier import _close_pairs

        rng = np.random.default_rng(16)
        clustered = np.round(rng.uniform(0, 1, (300, 3)), 1)  # many exact duplicates
        flat = rng.uniform(0, 1, (300, 3)) * [1.0, 1.0, 0.0]
        for pts, r in ((clustered, 0.0), (clustered, 0.1), (flat, 0.03), (np.zeros((40, 3)), 0.0)):
            dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
            i, j = np.nonzero(np.triu(dist <= r, k=1))  # row-major: lexicographic order
            np.testing.assert_array_equal(_close_pairs(pts, r), np.stack([i, j], axis=1).reshape(-1, 2))

    @pytest.mark.parametrize(
        "grids,samples",
        [(DEFAULT_WING, 64), (_random_grids(31), 16), (_near_degenerate_grids(), 16)],
        ids=["default-wing", "random", "near-degenerate"],
    )
    def test_closed_form_margin_matches_svd(self, grids, samples):
        for grid in grids:
            _, fu, fv = svd_jacobians(grid, samples)
            sig_max, sig_min = svd_singular_values(fu, fv)
            err = np.abs(_sigma_min(fu, fv) - sig_min)
            assert np.all(err <= SIGMA_TOL * sig_max), grid.patch_id
            rep = check_patch(grid, samples)
            node = np.unravel_index(np.argmin(sig_min), sig_min.shape)
            assert abs(rep.immersion_margin - sig_min[node]) <= SIGMA_TOL * sig_max.max(), grid.patch_id

    @pytest.mark.parametrize(
        "grids,samples",
        [(DEFAULT_WING, 64), (_random_grids(32) + [FOLDED], 16), (_near_degenerate_grids(), 12)],
        ids=["default-wing", "random-and-folded", "near-degenerate"],
    )
    def test_verdict_and_close_pairs_match_svd_oracle(self, grids, samples):
        ss = np.linspace(0.0, 1.0, samples)
        for grid in grids:
            rep = check_patch(grid, samples)
            sig_max, sig_min, valid, hits = svd_check_patch(
                grid, samples, rep.rank_tol, rep.eps_space, rep.delta_param
            )
            assert rep.valid == valid, grid.patch_id
            assert rep.intersection_count == len(hits), grid.patch_id
            want = [[[ss[i // samples], ss[i % samples]], [ss[j // samples], ss[j % samples]]] for i, j in hits]
            assert [[hit["a"], hit["b"]] for hit in rep.intersections] == want[:_MAX_REPORTED_PAIRS]
            # the margin sits at a smallest node (nodes that tie up to rounding may swap)
            iu, iv = np.searchsorted(ss, rep.margin_location)
            assert sig_min[iu, iv] - sig_min.min() <= SIGMA_TOL * sig_max.max(), grid.patch_id

    def test_default_wing_margin_locations_match_svd_oracle(self):
        ss = np.linspace(0.0, 1.0, 64)
        for grid in DEFAULT_WING:
            sig_min = svd_singular_values(*svd_jacobians(grid, 64)[1:])[1]
            iu, iv = np.unravel_index(np.argmin(sig_min), sig_min.shape)
            assert check_patch(grid).margin_location == (ss[iu], ss[iv]), grid.patch_id

    @pytest.mark.parametrize("collapse", ["row", "row-and-column", "point"])
    def test_collapsed_edges_give_zero_margin_without_warning(self, collapse):
        pts = np.array(paraboloid_grid().points)
        if collapse == "point":
            pts[...] = pts[0, 0]
        else:
            pts[:, 0, :] = pts[0, 0, :]  # Fu = 0 along v = 0
            if collapse == "row-and-column":
                pts[0, :, :] = pts[0, 0, :]  # and Fv = 0 along u = 0: J = 0 at (0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_patch(ControlGrid("deg", pts), samples_per_axis=16)
        assert rep.immersion_margin == 0.0
        assert rep.margin_location[1] == 0.0
        if collapse != "point":
            assert not rep.valid

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            check_patch(flat_grid(), samples_per_axis=3)


class TestControlGrid:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ControlGrid("bad", np.zeros((1, 3, 3)))  # m = 0
        with pytest.raises(ValueError):
            ControlGrid("bad", np.zeros((3, 3, 2)))

    def test_nonfinite_rejected(self):
        pts = np.zeros((2, 2, 3))
        pts[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ControlGrid("bad", pts)

    def test_points_frozen(self):
        g = flat_grid()
        with pytest.raises(ValueError):
            g.points[0, 0, 0] = 5.0

    def test_surface_point_domain(self):
        with pytest.raises(ValueError):
            SurfacePoint("p", 1.5, 0.0)


class TestManifold:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseManifold([flat_grid(patch_id="a"), flat_grid(patch_id="a")])

    def test_gate_requires_check(self):
        m = PiecewiseManifold([flat_grid(patch_id="a")])
        with pytest.raises(InvalidPatch):
            m.assert_ready("a")
        m.check_all(samples_per_axis=8)
        m.assert_ready("a")

    def test_exempt_bypasses_gate(self):
        m = PiecewiseManifold([flat_grid(patch_id="a")])
        m.exempt("a")
        m.assert_ready("a")

    def test_invalid_patch_blocks(self):
        pts = np.array(flat_grid(2, 2).points)
        pts[:, 0, :] = pts[0, 0, :]
        m = PiecewiseManifold([ControlGrid("deg", pts)])
        m.check_all(samples_per_axis=8)
        with pytest.raises(InvalidPatch):
            m.assert_ready("deg")
        assert m.invalid_patches() == ["deg"]

    def test_seam_detection(self):
        a = affine_grid([0, 0, 0], [1, 0, 0], [0, 1, 0], m=2, n=2, patch_id="a")
        b = affine_grid([0, 1, 0], [1, 0, 0], [0, 1, 0], m=2, n=2, patch_id="b")
        m = PiecewiseManifold([a, b])
        seams = m.detect_seams()
        assert any(s.patch_a == "a" and s.edge_a == "v1" and s.edge_b == "v0" for s in seams)


@st.composite
def _grid_lists(draw):
    ids = draw(st.lists(PATCH_IDS, min_size=1, max_size=3, unique=True))
    shapes = [(draw(st.integers(2, 4)), draw(st.integers(2, 4)), 3) for _ in ids]
    return [ControlGrid(pid, draw(arrays(np.float64, shape, elements=FINITE))) for pid, shape in zip(ids, shapes)]


class TestGridFiles:
    @settings(max_examples=60, deadline=None)
    @given(grids=_grid_lists())
    def test_finite_grids_round_trip_bitwise(self, grids):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/grids.csv"
            save_control_grids(path, grids)
            back = load_control_grids(path)
        assert [g.patch_id for g in back] == [g.patch_id for g in grids]
        for orig, got in zip(grids, back):
            assert got.points.shape == orig.points.shape and got.points.tobytes() == orig.points.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(grids=_grid_lists(), data=st.data())
    def test_one_non_finite_coordinate_refused(self, grids, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/grids.csv"
            save_control_grids(path, grids)
            lineno = set_non_finite_field(path, data.draw, (3, 4, 5))
            with pytest.raises(SampleParseError, match=rf":{lineno}: non-finite coordinate"):
                load_control_grids(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        grids = [
            ControlGrid("a", rng.uniform(-1, 1, (3, 4, 3))),
            ControlGrid("b", rng.uniform(-1, 1, (5, 2, 3))),
        ]
        path = tmp_path / "grids.csv"
        save_control_grids(path, grids)
        loaded = load_control_grids(path)
        assert [g.patch_id for g in loaded] == ["a", "b"]
        for orig, back in zip(grids, loaded):
            np.testing.assert_array_equal(orig.points, back.points)

    def test_missing_slot_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("patch_id,a,b,x,y,z\np,0,0,0,0,0\np,0,1,0,1,0\np,1,0,1,0,0\n")
        with pytest.raises(SampleParseError, match="grid slots"):
            load_control_grids(path)

    def test_bad_value_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("patch_id,a,b,x,y,z\np,0,0,0,0,zzz\n")
        with pytest.raises(SampleParseError, match=":2"):
            load_control_grids(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,a,b,x,y,z\n")
        with pytest.raises(SampleParseError, match="header"):
            load_control_grids(path)
