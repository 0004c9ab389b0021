"""The array-first geometry engine against one-point-at-a-time references.

``stencil.calibrate_offset`` solves every offset of a patch at once by
safeguarded Newton steps and ``data.assemble`` evaluates each distinct
centre and stencil point once; tests/oracles.py holds the scalar Newton
(the same iterates, one offset at a time), the per-point chain and the
per-sample assembly loop they replace. The offsets are also checked
against an independent scalar bisection (Bernstein sums in Python
floats) and against the same patch's degree-elevated net.
"""

import csv
import io

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    elevate_degree,
    flat_grid,
    loop_assemble,
    rel_err,
    sample_points,
    scalar_bisect_offset,
    scalar_calibrate_offset,
    scalar_stencil,
)
from strategies import max_examples

import wingcp.geometry as geometry
import wingcp.stencil as stencil
from wingcp.bezier import ControlGrid, PiecewiseManifold, SurfacePoint, eval_patch
from wingcp.data import Samples, _csv_field, assemble
from wingcp.errors import StencilOutOfPatch
from wingcp.stencil import AXIAL, build_stencil, calibrate_offset, stencil_points
from wingcp.synth import SynthConfig, generate_synthetic

# fixed before measuring: elementwise relative error, floor 1.0
FEATURE_REL_TOL = 1e-13
# the calibration's stop test, and the agreement of two calibrations that each meet it
CHORD_REL_TOL = 1e-9
TWO_CHORDS_REL_TOL = 2e-9


@pytest.fixture(scope="module")
def wing():
    return generate_synthetic(SynthConfig(seed=7))


def _sample(pid, u, v):
    return (pid, u, v, 0.175, 7.0, 1.35e6, float("nan"), 0.5)


def _assert_offsets_equal_scalar(manifold, points, d):
    """Batched offsets of each patch's points against one scalar Newton solve per offset."""
    axes, directions = zip(*AXIAL)
    checked = 0
    for pid in {p.patch_id for p in points}:
        mine = [p for p in points if p.patch_id == pid]
        grid = manifold.grid(pid)
        u, v = np.array([p.u for p in mine]), np.array([p.v for p in mine])
        delta, clamped, extent = calibrate_offset(grid, u[:, None], v[:, None], axes, directions, d)
        for i, p in enumerate(mine):
            for k, (axis, direction) in enumerate(AXIAL):
                try:
                    ref = scalar_calibrate_offset(grid.points, p, axis, direction, d)
                except StencilOutOfPatch:
                    assert d > extent[i, k]
                    continue
                assert (delta[i, k], bool(clamped[i, k])) == ref, (p, axis, direction)
                checked += 1
    return checked


class TestCalibrationAgainstScalarBisection:
    """The scalar safeguarded Newton's iterates and stop test give bitwise the same offsets."""

    @pytest.mark.parametrize("d", [0.01, 0.005, 0.001])
    def test_default_wing_centres(self, wing, d):
        centres = list(dict.fromkeys(sample_points(wing.samples)))
        assert _assert_offsets_equal_scalar(wing.manifold, centres, d) == 4 * len(centres)

    def test_random_points(self, wing):
        rng = np.random.default_rng(2024)
        pids = wing.manifold.patch_ids
        points = [
            SurfacePoint(pids[int(k)], float(u), float(v))
            for k, u, v in zip(rng.integers(0, len(pids), 200), rng.uniform(0, 1, 200), rng.uniform(0, 1, 200))
        ]
        assert _assert_offsets_equal_scalar(wing.manifold, points, 0.005) == 800

    def test_build_stencil_is_the_one_centre_case(self, wing):
        for point in sample_points(wing.samples)[:40]:
            st = build_stencil(wing.manifold, point, 0.005)
            ref_points, ref_clamped = scalar_stencil(wing.manifold.grid(point.patch_id).points, point, 0.005)
            assert st.points == ref_points and st.clamped == ref_clamped


def _chords(grid, u, v, axis, direction, delta):
    """Chords from F(u, v) to the points delta along the axis, positions from eval_patch."""
    along_u = axis == "u"
    end = eval_patch(grid, u + along_u * direction * delta, v + (not along_u) * direction * delta)
    return np.linalg.norm(end - eval_patch(grid, u, v), axis=-1)


def _assert_newton_meets_bisection(grid, u, v, d):
    """Batched Newton and scalar bisection offsets each meet the stop test and agree."""
    axes, directions = zip(*AXIAL)
    delta, clamped, extent = calibrate_offset(grid, u[:, None], v[:, None], axes, directions, d)
    checked = 0
    for k, (axis, direction) in enumerate(AXIAL):
        ref = []
        for i, (ui, vi) in enumerate(zip(u.tolist(), v.tolist())):
            try:
                ref.append(scalar_bisect_offset(grid.points, SurfacePoint(grid.patch_id, ui, vi), axis, direction, d))
            except StencilOutOfPatch:
                assert d > extent[i, k]
                ref.append((0.0, False))
            else:
                assert d <= extent[i, k]
        ref_delta, ref_clamped = (np.array(col) for col in zip(*ref))
        assert np.array_equal(clamped[:, k], ref_clamped), (axis, direction)
        free = (d <= extent[:, k]) & ~ref_clamped
        assert np.array_equal(delta[clamped[:, k], k], ref_delta[clamped[:, k]])
        newton = _chords(grid, u[free], v[free], axis, direction, delta[free, k])
        bisect = _chords(grid, u[free], v[free], axis, direction, ref_delta[free])
        assert np.all(np.abs(newton - d) <= CHORD_REL_TOL * d), (axis, direction)
        assert np.all(np.abs(bisect - d) <= CHORD_REL_TOL * d), (axis, direction)
        assert np.all(np.abs(newton - bisect) <= TWO_CHORDS_REL_TOL * d), (axis, direction)
        checked += int(free.sum())
    return checked


def _patch_centres(points, pid):
    mine = [p for p in points if p.patch_id == pid]
    return np.array([p.u for p in mine]), np.array([p.v for p in mine])


def _perturbed_grid(rng, m, n):
    """A general patch: the flat net's nodes moved a little in-plane and up to 0.3 in z."""
    pts = np.array(flat_grid(m, n).points) + rng.uniform(-0.05, 0.05, (m + 1, n + 1, 3))
    pts[..., 2] += rng.uniform(-0.3, 0.3, (m + 1, n + 1))
    return ControlGrid("g", pts)


class TestNewtonAgainstBisection:
    """Safeguarded Newton and bisection reach the same chords (within 2e-9 d), clamps and fits."""

    @pytest.mark.parametrize("d", [0.01, 0.005, 0.001])
    def test_default_wing_centres(self, wing, d):
        centres = list(dict.fromkeys(sample_points(wing.samples)))
        checked = 0
        for pid in wing.manifold.patch_ids:
            checked += _assert_newton_meets_bisection(wing.manifold.grid(pid), *_patch_centres(centres, pid), d)
        assert checked > 3 * len(centres)

    def test_random_points(self, wing):
        rng = np.random.default_rng(77)
        for pid in wing.manifold.patch_ids:
            u, v = rng.uniform(0.0, 1.0, (2, 60))
            assert _assert_newton_meets_bisection(wing.manifold.grid(pid), u, v, 0.005) > 0

    @settings(max_examples=max_examples(25), deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([0.02, 0.01, 0.005, 0.001]),
    )
    def test_general_patches(self, m, n, seed, d):
        rng = np.random.default_rng(seed)
        u, v = rng.uniform(0.0, 1.0, (2, 12))
        _assert_newton_meets_bisection(_perturbed_grid(rng, m, n), u, v, d)

    def test_midpoint_fallback(self):
        """Along u the speed 3(1 - 2u)^2 falls to 0 at u = 1/2, so a Newton step leaves the bracket."""
        pts = np.zeros((4, 2, 3))
        pts[:, :, 0] = np.array([0.0, 1.0, 0.0, 1.0])[:, None]
        pts[:, 1, 1] = 1.0
        grid = ControlGrid("s", pts)
        for u0, d in ((0.0, 0.6), (0.05, 0.55), (0.1, 0.5)):
            steps = []
            ref = scalar_calibrate_offset(pts, SurfacePoint("s", u0, 0.5), "u", 1, d, trace=steps)
            delta, clamped, _ = calibrate_offset(grid, u0, 0.5, "u", 1, d)
            assert (float(delta), bool(clamped)) == ref
            assert "midpoint" in [kind for kind, _ in steps]
            assert abs(_chords(grid, np.array([u0]), np.array([0.5]), "u", 1, delta)[0] - d) <= CHORD_REL_TOL * d

    @pytest.mark.parametrize("d", [0.01, 0.005, 0.001])
    def test_default_wing_centres_take_at_most_six_steps(self, wing, d, monkeypatch):
        """Four fixed evaluations (centre, both patch ends, the room's end), then one per step."""
        calls = []

        def counting(grid, u, v):
            calls.append(1)
            return eval_patch(grid, u, v)

        monkeypatch.setattr(stencil, "eval_patch", counting)
        axes, directions = zip(*AXIAL)
        centres = list(dict.fromkeys(sample_points(wing.samples)))
        for pid in wing.manifold.patch_ids:
            u, v = _patch_centres(centres, pid)
            calls.clear()
            calibrate_offset(wing.manifold.grid(pid), u[:, None], v[:, None], axes, directions, d)
            assert 4 < len(calls) <= 4 + 6


class TestDegreeElevation:
    """Degree elevation keeps the surface and its parametrization, so the stencils stay (Farin, ch. 5)."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("d", [0.01, 0.005, 0.001])
    def test_default_wing_stencils(self, wing, axis, d):
        centres = list(dict.fromkeys(sample_points(wing.samples)))
        for pid in wing.manifold.patch_ids:
            grid = wing.manifold.grid(pid)
            raised = ControlGrid(pid, elevate_degree(grid.points, axis))
            assert raised.degrees[axis] == grid.degrees[axis] + 1
            u, v = _patch_centres(centres, pid)
            uv, clamped, extent = stencil_points(grid, u, v, d)
            uv_r, clamped_r, extent_r = stencil_points(raised, u, v, d)
            assert np.array_equal(clamped, clamped_r)
            assert np.all(np.abs(extent_r - extent) <= 1e-13 * extent)
            assert np.array_equal(d <= extent, d <= extent_r)
            assert np.all(np.abs(_axial_chords(raised, uv_r) - _axial_chords(grid, uv)) <= TWO_CHORDS_REL_TOL * d)


def _axial_chords(grid, uv):
    """Chords from each stencil's centre to its E, W, N and S points, positions from eval_patch."""
    pos = eval_patch(grid, uv[..., 0], uv[..., 1])
    return np.linalg.norm(pos[:, [5, 3, 1, 7]] - pos[:, 4:5], axis=-1)


def _assert_matches_loop_assembly(manifold, samples, d):
    result = assemble(manifold, samples, d=d, max_drop_fraction=1.0)
    kept, dropped, uv, pos, g, gamma, scalar = loop_assemble(manifold, samples, d)
    assert result.kept == kept
    assert result.dropped == dropped
    assert result.uv.tobytes() == uv.tobytes()
    b, m = result.batch, len(kept)
    expected = {
        "x2": pos.reshape(m, 1, 9, 3),
        "x3": g.reshape(m, 1, 18, 2),
        "x4": gamma.transpose(0, 2, 1, 3, 4).reshape(m, 2, 18, 2),
        "x5": scalar.reshape(m, 9),
    }
    for key, ref in expected.items():
        assert np.max(rel_err(b.groups()[key], ref, floor=1.0), initial=0.0) <= FEATURE_REL_TOL, key
    return result


class TestAssembleAgainstPerSampleLoop:
    def test_default_wing(self):
        wing = generate_synthetic(SynthConfig(seed=7, aoa_set=(0.0,)))
        result = _assert_matches_loop_assembly(wing.manifold, wing.samples, 0.005)
        assert len(result.kept) == 120 and result.counts["clamped_stencils"] == 40

    def test_general_patches(self):
        rng = np.random.default_rng(31)
        grids = []
        for k in range(3):
            pts = np.array(flat_grid(4, 3).points) + rng.uniform(-0.05, 0.05, (5, 4, 3))
            pts[..., 2] += rng.uniform(-0.3, 0.3, (5, 4))
            grids.append(ControlGrid(f"g{k}", pts))
        manifold = PiecewiseManifold(grids)
        for pid in manifold.patch_ids:
            manifold.exempt(pid)
        samples = [
            _sample(f"g{k}", float(u), float(v))
            for k in range(3)
            for u, v in rng.uniform(0.0, 1.0, (30, 2))
        ]
        samples += samples[:10]  # repeated centres
        _assert_matches_loop_assembly(manifold, Samples.from_rows(samples), 0.01)

    def test_drop_reasons(self):
        """One patch too small for d, one with a collapsed boundary row."""
        tiny = ControlGrid("tiny", flat_grid(2, 2).points * 0.001)
        deg = np.array(flat_grid(3, 3, patch_id="deg").points)
        deg[:, 0, :] = deg[0, 0, :]  # the u tangent vanishes along v = 0
        manifold = PiecewiseManifold([flat_grid(patch_id="flat"), tiny, ControlGrid("deg", deg)])
        for pid in manifold.patch_ids:
            manifold.exempt(pid)
        locations = [
            ("flat", 0.5, 0.5), ("tiny", 0.5, 0.5), ("deg", 0.5, 0.004), ("flat", 0.0, 1.0),
            ("deg", 0.5, 0.5), ("deg", 0.3, 0.0), ("tiny", 0.5, 0.5), ("deg", 0.0, 0.002),
        ]
        samples = Samples.from_rows([_sample(*loc) for loc in locations])
        result = _assert_matches_loop_assembly(manifold, samples, 0.01)
        reasons = dict(result.dropped)
        assert sorted(reasons) == [1, 2, 5, 6, 7]
        assert reasons[1].startswith("StencilOutOfPatch: spacing d=0.01 exceeds patch extent 0.001 along u")
        assert reasons[5].startswith("StencilOutOfPatch") and "along u" in reasons[5]
        assert reasons[2].startswith("DegenerateMetric: degenerate metric at SurfacePoint(patch_id='deg'")
        assert reasons[7].startswith("StencilOutOfPatch") and "along u" in reasons[7]


def test_one_metric_call_per_batched_chain(wing, monkeypatch):
    """One metric call and one jet call, of order 2, per chain."""
    calls, orders = [], []
    metric, jet = geometry.metric, geometry.jet

    def counting(jet_):
        calls.append(jet_.shape)
        return metric(jet_)

    def recording(grid, u, v, order=3):
        orders.append(order)
        return jet(grid, u, v, order)

    monkeypatch.setattr(geometry, "metric", counting)
    monkeypatch.setattr(geometry, "jet", recording)
    grid = wing.manifold.grid(wing.manifold.patch_ids[0])
    f = geometry.point_features(grid, np.linspace(0.1, 0.9, 50), np.full(50, 0.5))
    assert len(calls) == 1 and f.scalar.shape == (50,) and orders == [2]
    geometry.feature_bundle(wing.manifold, sample_points(wing.samples)[0])
    assert len(calls) == 2 and orders == [2, 2]


@pytest.mark.parametrize("text", ["p", "a,b", 'q"r', "two\nlines", "cr\rhere", "", " spaced "])
def test_csv_field_quotes_like_csv_writer(text):
    buf = io.StringIO()
    csv.writer(buf).writerow([text, "1"])
    assert _csv_field(text) + ",1\r\n" == buf.getvalue()
