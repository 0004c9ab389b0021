"""The array-first geometry engine against one-point-at-a-time references.

``stencil.calibrate_offset`` bisects every offset of a patch at once and
``data.assemble`` evaluates each distinct centre and stencil point once;
tests/oracles.py holds the scalar bisection, the per-point chain and the
per-sample assembly loop they replace.
"""

import csv
import io

import numpy as np
import pytest

from oracles import (
    loop_assemble,
    rel_err,
    sample_points,
    scalar_calibrate_offset,
    scalar_stencil,
)

import wingcp.geometry as geometry
from wingcp.bezier import ControlGrid, PiecewiseManifold, SurfacePoint
from wingcp.data import Samples, _csv_field, assemble
from wingcp.errors import StencilOutOfPatch
from wingcp.shapes import flat_grid
from wingcp.stencil import AXIAL, build_stencil, calibrate_offset
from wingcp.synth import SynthConfig, generate_synthetic

# fixed before measuring: elementwise relative error, floor 1.0
FEATURE_REL_TOL = 1e-13


@pytest.fixture(scope="module")
def wing():
    return generate_synthetic(SynthConfig(seed=7))


def _sample(pid, u, v):
    return (pid, u, v, 0.175, 7.0, 1.35e6, float("nan"), 0.5)


def _assert_offsets_equal_scalar(manifold, points, d):
    """Batched offsets of each patch's points against one scalar bisection per offset."""
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
    """The same midpoints and stop test give bitwise the same offsets."""

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


def _assert_matches_loop_assembly(manifold, samples, d, convention="standard"):
    result = assemble(manifold, samples, d=d, convention=convention, max_drop_fraction=1.0)
    kept, dropped, uv, pos, g, gamma, scalar = loop_assemble(manifold, samples, d, convention)
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
    @pytest.mark.parametrize("convention", ["standard", "first-index"])
    def test_default_wing(self, convention):
        wing = generate_synthetic(SynthConfig(seed=7, aoa_set=(0.0,)))
        result = _assert_matches_loop_assembly(wing.manifold, wing.samples, 0.005, convention)
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
