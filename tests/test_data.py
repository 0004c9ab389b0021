import csv
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wingcp.bezier import ControlGrid, PiecewiseManifold
from wingcp.data import (
    FEATURE_POINTS_HEADER,
    FOLD_AOAS_DEFAULT,
    GROUP_SHAPES,
    POINTWISE_COLUMNS,
    POINTWISE_SHAPES,
    AssembleResult,
    Samples,
    TensorBatch,
    assemble,
    fit_normalizer,
    fold_split,
    load_feature_cache,
    load_meta,
    load_samples,
    meta_rows,
    save_feature_cache,
    save_samples,
    train_val_split,
)
from wingcp.errors import AssemblyError, ConfigError, SampleParseError

from oracles import (
    flat_grid, loop_meta_rows, mask_normalize, paraboloid_grid, pointwise_batch, sample_points,
    write_features_points_rows, write_meta_rows,
)
from strategies import FINITE, PATCH_IDS, set_non_finite_field


def sample_row(pid, u, v, aoa=7.0, cp=0.5, ma=0.175, re=1.35e6, span=None):
    """One row for ``Samples.from_rows``; ``span=None`` is an empty span."""
    return (pid, u, v, ma, aoa, re, math.nan if span is None else span, cp)


@st.composite
def _sample_tables(draw):
    unit = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1.0])
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return Samples.from_rows([
        sample_row(
            draw(PATCH_IDS), draw(unit), draw(unit),
            ma=draw(positive), aoa=draw(FINITE), re=draw(positive),
            cp=draw(FINITE), span=draw(st.none() | FINITE),
        )
        for _ in range(draw(st.integers(1, 4)))
    ])


def _sample_bits(samples):
    """Each row's patch id, the bytes of its numbers and the bytes of its span (None if empty)."""
    values = np.column_stack([samples.u, samples.v, samples.ma, samples.aoa, samples.re, samples.cp])
    spans = [None if math.isnan(x) else np.float64(x).tobytes() for x in samples.span.tolist()]
    return list(zip(samples.patch_id.tolist(), [row.tobytes() for row in values], spans))


class TestLoadSamples:
    HEADER = "patch_id,u,v,Ma,AoA,Re,span,cp\n"

    def test_two_rows(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(self.HEADER + "p,0.5,0.5,0.175,7,1350000,28.8,0.42\np,0.1,0.9,0.175,12,1350000,,-1.3\n")
        samples = load_samples(path)
        assert len(samples) == 2
        assert samples.aoa[0] == 7.0
        assert samples.span[0] == 28.8
        assert math.isnan(samples.span[1])

    def test_out_of_domain_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "p,0.5,0.5,0.175,7,1350000,,0.4\np,1.2,0.5,0.175,7,1350000,,0.4\n")
        with pytest.raises(SampleParseError, match=":3"):
            load_samples(path)

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(self.HEADER)
        assert len(load_samples(path)) == 0

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("patch_id,u,v,Ma,AoA,Re,cp\n")
        with pytest.raises(SampleParseError, match="header"):
            load_samples(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "p,0.5,0.5,0.175,7,1350000,,nan\n")
        with pytest.raises(SampleParseError, match=":2"):
            load_samples(path)

    def test_unknown_patch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "zzz,0.5,0.5,0.175,7,1350000,,0.4\n")
        with pytest.raises(SampleParseError, match="zzz"):
            load_samples(path, known_patches={"p"})

    @pytest.mark.parametrize("field,value", [("Ma", "0"), ("Re", "-1")])
    def test_non_positive_ma_or_re_names_row(self, tmp_path, field, value):
        good = "p,0.5,0.5,0.175,7,1350000,,0.4\n"
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + good + good.replace({"Ma": "0.175", "Re": "1350000"}[field], value))
        with pytest.raises(SampleParseError, match=rf":3: Ma and Re must be positive, got .*{field}={float(value)}"):
            load_samples(path)

    def test_round_trip(self, tmp_path):
        samples = Samples.from_rows([sample_row("p", 0.25, 0.75, aoa=18.5, cp=-0.75, span=44.9)])
        path = tmp_path / "rt.csv"
        save_samples(path, samples)
        back = load_samples(path)
        assert _sample_bits(back) == _sample_bits(samples)

    def test_synth_file_saved_back_byte_for_byte(self, tmp_path):
        from wingcp.synth import SynthConfig, generate_synthetic

        res = generate_synthetic(SynthConfig(seed=7, stations=2, points_per_section=3), tmp_path / "synth")
        save_samples(tmp_path / "again.csv", load_samples(res.samples_path))
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "synth" / "samples.csv").read_bytes()

    def test_empty_spans_and_quoted_patch_id_saved_back_byte_for_byte(self, tmp_path):
        path = tmp_path / "in.csv"
        rows = ['"p,1",0.5,0.25,0.17499999999999999,7,1350000,,0.40000000000000002',
                "q,0,1,0.5,-2.5,1000,12.5,-1", '"say ""x""",1,0,0.25,7,1350000,,0']
        path.write_bytes(("\r\n".join([self.HEADER.strip(), *rows]) + "\r\n").encode())
        samples = load_samples(path)
        assert samples.patch_id.tolist() == ["p,1", "q", 'say "x"']
        assert np.isnan(samples.span[[0, 2]]).all() and samples.span[1] == 12.5
        save_samples(tmp_path / "out.csv", samples)
        assert (tmp_path / "out.csv").read_bytes() == path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(samples=_sample_tables())
    def test_finite_samples_round_trip_bitwise(self, samples):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/samples.csv"
            save_samples(path, samples)
            back = load_samples(path)
        assert _sample_bits(back) == _sample_bits(samples)

    @settings(max_examples=40, deadline=None)
    @given(samples=_sample_tables(), data=st.data())
    def test_one_non_finite_field_refused(self, samples, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/samples.csv"
            save_samples(path, samples)
            lineno = set_non_finite_field(path, data.draw, range(1, 8))
            with pytest.raises(SampleParseError, match=rf":{lineno}: non-finite value"):
                load_samples(path)


class TestAssemble:
    def test_flat_plane_tensors(self, flat_manifold):
        samples = Samples.from_rows([sample_row("flat", 0.5, 0.5), sample_row("flat", 0.3, 0.7)])
        result = assemble(flat_manifold, samples, d=0.01)
        assert result.kept == [0, 1]
        batch = result.batch
        expected_x3 = np.tile(np.eye(2), (9, 1)).reshape(1, 18, 2)
        np.testing.assert_allclose(batch.x3[0], expected_x3, atol=1e-13)
        np.testing.assert_allclose(batch.x4, 0.0, atol=1e-13)
        np.testing.assert_allclose(batch.x5, 0.0, atol=1e-13)

    def test_paraboloid_center_curvature(self, paraboloid_manifold):
        samples = Samples.from_rows([sample_row("paraboloid", 0.0, 0.0)])
        result = assemble(paraboloid_manifold, samples, d=0.001)
        x5 = result.batch.x5[0]
        assert x5[4] == pytest.approx(8.0, abs=1e-9)

    def test_center_slot_matches_bundle(self, paraboloid_manifold):
        from wingcp.geometry import feature_bundle

        samples = Samples.from_rows([sample_row("paraboloid", 0.4, 0.6), sample_row("paraboloid", 0.2, 0.3)])
        result = assemble(paraboloid_manifold, samples, d=0.005)
        for point, x5 in zip(sample_points(samples), result.batch.x5):
            assert x5[4] == feature_bundle(paraboloid_manifold, point).scalar

    def test_deterministic(self, paraboloid_manifold):
        samples = Samples.from_rows([sample_row("paraboloid", u, v) for u, v in [(0.2, 0.2), (0.8, 0.5), (0.5, 0.9)]])
        a = assemble(paraboloid_manifold, samples, d=0.005)
        b = assemble(paraboloid_manifold, samples, d=0.005)
        for key, x in a.batch.groups().items():
            assert np.array_equal(x, b.batch.groups()[key])

    def test_batch_is_bundles_stacked_in_slot_order(self, paraboloid_manifold):
        from wingcp.geometry import feature_bundle
        from wingcp.stencil import build_stencil
        from wingcp.synth import SynthConfig, generate_synthetic

        wing = generate_synthetic(SynthConfig(seed=3, stations=3, points_per_section=4, aoa_set=(0.0,)))
        cases = [
            (paraboloid_manifold, Samples.from_rows([sample_row("paraboloid", 0.4, 0.6, aoa=12.0, cp=-0.3),
                                                     sample_row("paraboloid", 0.0, 0.9, aoa=7.0, cp=0.2)])),
            (wing.manifold, wing.samples),  # includes stencils clamped at patch seams
        ]
        for manifold, samples in cases:
            result = assemble(manifold, samples, d=0.005)
            b = result.batch
            assert result.kept == list(range(len(samples))) and b.n == len(samples)
            for r, point in enumerate(sample_points(samples)):
                assert b.x1[r].tolist() == [samples.ma[r], samples.aoa[r], samples.re[r]]
                assert b.y[r] == samples.cp[r]
                stencil = build_stencil(manifold, point, 0.005)
                f = [feature_bundle(manifold, p) for p in stencil.points]
                stacked = {
                    "x2": np.stack([x.position for x in f])[None],
                    "x3": np.concatenate([x.g for x in f])[None],
                    "x4": np.concatenate([x.gamma for x in f], axis=1),
                    "x5": np.array([x.scalar for x in f]),
                }
                for key, expected in stacked.items():
                    got = b.groups()[key][r]
                    assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), key

    def test_shape_contract(self, paraboloid_manifold):
        samples = Samples.from_rows([sample_row("paraboloid", 0.4, 0.4), sample_row("paraboloid", 0.6, 0.6)])
        batch = assemble(paraboloid_manifold, samples, d=0.005).batch
        assert batch.x1.shape == (2, 3)
        assert batch.x2.shape == (2, 1, 9, 3)
        assert batch.x3.shape == (2, 1, 18, 2)
        assert batch.x4.shape == (2, 2, 18, 2)
        assert batch.x5.shape == (2, 9)

    def test_metric_rows_symmetric(self, paraboloid_manifold):
        samples = Samples.from_rows([sample_row("paraboloid", 0.5, 0.5)])
        batch = assemble(paraboloid_manifold, samples, d=0.005).batch
        for r in range(9):
            block = batch.x3[0, 0, 2 * r : 2 * r + 2, :]
            assert abs(block[0, 1] - block[1, 0]) < 1e-12

    def test_patch_ids_that_differ_in_a_trailing_nul_stay_apart(self):
        manifold = PiecewiseManifold([paraboloid_grid(patch_id="p"), flat_grid(patch_id="p\x00")])
        manifold.check_all(samples_per_axis=8)
        samples = Samples.from_rows([sample_row(pid, 0.5, 0.5) for pid in ("p\x00", "p", "p\x00")])
        result = assemble(manifold, samples, d=0.005)
        assert result.kept == [0, 1, 2] and result.samples.patch_id.tolist() == ["p\x00", "p", "p\x00"]
        assert result.batch.x5[[0, 2], 4].tolist() == [0.0, 0.0] and result.batch.x5[1, 4] != 0.0

    def test_drop_policy(self):
        # second patch is a tiny plane whose extent is far below d, so its
        # samples raise StencilOutOfPatch and get dropped
        tiny = ControlGrid("tiny", flat_grid(2, 2).points * 0.001)
        manifold = PiecewiseManifold([flat_grid(patch_id="flat"), tiny])
        manifold.check_all(samples_per_axis=8)
        good = [sample_row("flat", 0.1 * i, 0.5) for i in range(1, 10)]
        bad = [sample_row("tiny", 0.5, 0.5)]
        result = assemble(manifold, Samples.from_rows(good + bad), d=0.01)
        assert len(result.dropped) == 1
        assert result.dropped[0][0] == 9
        assert "StencilOutOfPatch" in result.dropped[0][1]

        with pytest.raises(AssemblyError):
            assemble(manifold, Samples.from_rows(good[:2] + bad), d=0.01)  # 1 of 3 > 10%


ALL_COLUMNS = [(key, slice(None)) for key in GROUP_SHAPES]


def apply_all(spec, batch):
    """``spec.apply`` over every column of every group, split back into the groups of a TensorBatch."""
    xi, y = spec.apply(batch, ALL_COLUMNS)
    ends = np.cumsum([0] + [math.prod(shape) for shape in GROUP_SHAPES.values()]).tolist()
    groups = {
        key: xi[:, lo:hi].reshape(batch.n, *shape)
        for (key, shape), lo, hi in zip(GROUP_SHAPES.items(), ends, ends[1:])
    }
    return TensorBatch(y=y, **groups)


class TestNormalizer:
    def _toy_batch(self, x1_col):
        n = len(x1_col)
        return TensorBatch(
            x1=np.column_stack([x1_col, np.linspace(-1, 1, n), np.full(n, 5.0)]),
            x2=np.zeros((n, 1, 9, 3)),
            x3=np.zeros((n, 1, 18, 2)),
            x4=np.zeros((n, 2, 18, 2)),
            x5=np.zeros((n, 9)),
            y=np.linspace(0.0, 1.0, n),
        )

    def test_simple_column(self):
        batch = self._toy_batch([0.0, 5.0, 10.0])
        spec = fit_normalizer(batch)
        out = apply_all(spec, batch)
        np.testing.assert_allclose(out.x1[:, 0], [0.0, 0.5, 1.0], atol=1e-15)

    def test_constant_column_maps_to_zero(self):
        batch = self._toy_batch([0.175, 0.175, 0.175])
        spec = fit_normalizer(batch)
        out = apply_all(spec, batch)
        np.testing.assert_array_equal(out.x1[:, 0], [0.0, 0.0, 0.0])

    def test_constant_column_raises_no_error(self):
        """A constant column is not scaled, so a value far from its bound there overflows nothing."""
        batch = self._toy_batch([1.7e308, 1.7e308])
        spec = fit_normalizer(batch)
        batch.x1[:, 0] = -1.7e308
        with np.errstate(all="raise"):
            out = apply_all(spec, batch)
        assert out.x1[:, 0].tobytes() == np.zeros(2).tobytes()

    def test_outputs_in_unit_interval_on_train(self):
        rng = np.random.default_rng(34)
        batch = self._toy_batch(rng.uniform(-5, 5, 8))
        out = apply_all(fit_normalizer(batch), batch)
        assert out.x1.min() >= 0.0 and out.x1.max() <= 1.0

    def test_targets_flag(self):
        batch = self._toy_batch([0.0, 5.0, 10.0])
        spec = fit_normalizer(batch, normalize_targets=True)
        out = apply_all(spec, batch)
        assert out.y.min() == 0.0 and out.y.max() == 1.0
        np.testing.assert_allclose(spec.invert_targets(out.y), batch.y, atol=1e-15)

    def test_provenance_tag(self):
        batch = self._toy_batch([0.0, 1.0])
        spec = fit_normalizer(batch, fitted_on="train(fold=7)")
        assert spec.fitted_on == "train(fold=7)"
        assert spec.to_dict()["fitted_on"].startswith("train")

    def test_serialization_round_trip(self):
        from wingcp.data import NormalizationSpec

        batch = self._toy_batch([0.0, 5.0, 10.0])
        spec = fit_normalizer(batch)
        back = NormalizationSpec.from_dict(spec.to_dict())
        out_a = apply_all(spec, batch)
        out_b = apply_all(back, batch)
        np.testing.assert_array_equal(out_a.x1, out_b.x1)


def _normalizer_batch(data, n):
    """A drawn batch of n rows in which each column of a group is constant with probability about 1/2."""
    groups = {}
    for key, shape in GROUP_SHAPES.items():
        width = math.prod(shape)
        flat = data.draw(arrays(np.float64, (n, width), elements=FINITE))
        const = data.draw(arrays(np.bool_, width))
        flat[:, const] = flat[0, const]
        groups[key] = flat.reshape(n, *shape)
    return TensorBatch(y=data.draw(arrays(np.float64, n, elements=FINITE)), **groups)


class TestNormalizerAgainstMasks:
    """``NormalizationSpec.apply`` over every column equals the boolean-mask form of tests/oracles.py bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), normalize_targets=st.booleans())
    def test_bitwise_on_fitted_and_other_batches(self, data, normalize_targets):
        """Applied to its own batch and to another, whose values lie outside the fitted bounds and in constant columns."""
        fitted = _normalizer_batch(data, data.draw(st.integers(1, 4)))
        spec = fit_normalizer(fitted, normalize_targets=normalize_targets)
        for batch in (fitted, _normalizer_batch(data, data.draw(st.integers(1, 4)))):
            with np.errstate(all="ignore"):  # x - lo and the division overflow at +-1.7e308
                got, want = apply_all(spec, batch), mask_normalize(spec, batch)
            for key, x in {**want.groups(), "y": want.y}.items():
                assert getattr(got, key).shape == x.shape
                assert getattr(got, key).tobytes() == x.tobytes(), key


class TestFoldSplit:
    def test_first_fold_holds_aoa7(self):
        aoas = np.array([7, 7, 12, 12, 12], dtype=float)
        folds = fold_split(aoas, [7, 12])
        train, test = folds[0]
        assert sorted(test) == [0, 1]
        assert sorted(train) == [2, 3, 4]

    def test_complement_includes_unlisted_aoas(self):
        aoas = np.array([0, 7, 21], dtype=float)
        folds = fold_split(aoas, [7])
        train, test = folds[0]
        assert sorted(test) == [1]
        assert sorted(train) == [0, 2]

    def test_disjoint_and_cover(self):
        aoas = np.array([7, 12, 16, 7, 12, 16, 0], dtype=float)
        folds = fold_split(aoas, [7, 12, 16])
        seen = set()
        for train, test in folds:
            assert set(train) & set(test) == set()
            seen |= set(test)
        assert seen == {0, 1, 2, 3, 4, 5}

    def test_duplicate_fold_rejected(self):
        with pytest.raises(ConfigError):
            fold_split(np.array([7, 12], dtype=float), [7, 7])

    def test_absent_fold_rejected(self):
        with pytest.raises(ConfigError):
            fold_split(np.array([7, 12], dtype=float), [16])

    def test_default_folds_constant(self):
        assert FOLD_AOAS_DEFAULT == (7.0, 12.0, 16.0, 18.0, 18.5, 19.0, 20.0)


class TestTrainValSplit:
    def test_stratified_and_disjoint(self):
        aoas = np.array([7.0] * 10 + [12.0] * 10)
        train, val = train_val_split(np.arange(20), aoas, seed=0, val_fraction=0.1)
        assert set(train) | set(val) == set(range(20))
        assert set(train) & set(val) == set()
        val_aoas = {aoas[i] for i in val}
        assert val_aoas == {7.0, 12.0}

    def test_deterministic(self):
        aoas = np.array([7.0] * 6 + [12.0] * 6)
        a = train_val_split(np.arange(12), aoas, seed=3)
        b = train_val_split(np.arange(12), aoas, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("fraction", [-0.1, 0.0, 1.0, 1.5, float("nan")])
    def test_val_fraction_out_of_range_rejected(self, fraction):
        with pytest.raises(ConfigError):
            train_val_split(np.arange(4), np.array([7.0] * 4), seed=0, val_fraction=fraction)

    def test_singleton_group_stays_in_train(self):
        train, val = train_val_split(np.array([0]), np.array([7.0]), seed=0)
        assert list(train) == [0] and len(val) == 0


@st.composite
def _batches(draw):
    n = draw(st.integers(1, 3))
    groups = {k: draw(arrays(np.float64, (n, *shape), elements=FINITE)) for k, shape in GROUP_SHAPES.items()}
    return TensorBatch(y=draw(arrays(np.float64, (n,), elements=FINITE)), **groups)


def _save_batch(cache, batch):
    """``save_feature_cache`` of a batch with placeholder sample metadata."""
    samples = Samples.from_rows([sample_row("p", 0.5, 0.5)] * batch.n)
    result = AssembleResult(batch, samples, list(range(batch.n)), [], np.zeros((batch.n, 9, 2)), {})
    save_feature_cache(cache, result, {"d": 0.005, "convention": "standard"})


class TestFeatureCache:
    def test_round_trip(self, tmp_path, paraboloid_manifold):
        samples = Samples.from_rows([
            sample_row("paraboloid", 0.3, 0.4, aoa=7.0, cp=0.1, span=10.0),
            sample_row("paraboloid", 0.6, 0.5, aoa=12.0, cp=-0.4, span=20.0),
        ])
        result = assemble(paraboloid_manifold, samples, d=0.005)
        cache = tmp_path / "features"
        save_feature_cache(cache, result, {"d": 0.005, "convention": "standard"})
        batch, manifest = load_feature_cache(cache)
        orig = result.batch
        for key in ("x1", "x2", "x3", "x4", "x5"):
            np.testing.assert_array_equal(batch.groups()[key], orig.groups()[key])
        np.testing.assert_array_equal(batch.y, orig.y)
        assert not list(cache.glob("x*.csv"))
        meta = load_meta(cache, manifest["n_samples"])
        assert len(meta) == 2
        assert meta[1]["AoA"] == "12"
        assert manifest["d"] == 0.005
        assert manifest["n_samples"] == 2

        with open(cache / "features_points.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == FEATURE_POINTS_HEADER and rows[0][-1] == "stencil_slot"
        assert len(rows) == 1 + 2 * 9  # header + 9 stencil points per sample
        assert [r[-1] for r in rows[1:10]] == [str(s) for s in range(9)]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_finite_batches_round_trip_bitwise(self, data):
        batch = data.draw(_batches())
        with tempfile.TemporaryDirectory() as cache:
            _save_batch(cache, batch)
            back, _ = load_feature_cache(cache)
        for key in ("x1", "x2", "x3", "x4", "x5", "y"):
            got, want = getattr(back, key), getattr(batch, key)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), key

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_one_non_finite_entry_refused(self, data, bad):
        batch = data.draw(_batches())
        key = data.draw(st.sampled_from(["x1", "x2", "x3", "x4", "x5", "y"]))
        x = getattr(batch, key)
        x.flat[data.draw(st.integers(0, x.size - 1))] = bad
        with tempfile.TemporaryDirectory() as cache:
            _save_batch(cache, batch)
            with pytest.raises(SampleParseError, match=f"{key}.npy: non-finite"):
                load_feature_cache(cache)

    def test_features_points_equal_row_by_row_writer(self, tmp_path):
        """Repeated locations, a patch id that needs quoting and signed zeros give the oracle's bytes."""
        rng = np.random.default_rng(41)
        row = {k: rng.normal(size=(1, *shape)) for k, shape in GROUP_SHAPES.items()}
        row["x2"][0, 0, 0, 0] = 0.0
        signed = {k: x.copy() for k, x in row.items()}
        signed["x2"][0, 0, 0, 0] = -0.0  # differs from ``row`` only in the sign of a zero
        other = {k: rng.normal(size=(1, *shape)) for k, shape in GROUP_SHAPES.items()}
        order = [row, row, row, signed, row, other, signed]
        pids = ["p,1", "p,1", "q", "p,1", "p,1", 'say "x"', "p,1"]
        batch = TensorBatch(y=rng.normal(size=len(order)), **{
            k: np.concatenate([r[k] for r in order]) for k in GROUP_SHAPES
        })
        uv = np.repeat(rng.uniform(0, 1, (1, 9, 2)), len(order), axis=0)
        uv[5] = rng.uniform(0, 1, (9, 2))
        samples = Samples.from_rows([sample_row(pid, 0.5, 0.5, aoa=float(i)) for i, pid in enumerate(pids)])
        result = AssembleResult(batch, samples, list(range(len(order))), [], uv, {})
        save_feature_cache(tmp_path / "cache", result, {"d": 0.005})
        write_features_points_rows(tmp_path / "want.csv", FEATURE_POINTS_HEADER, result, samples)
        got = (tmp_path / "cache" / "features_points.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b'"p,1",' in got and b'"say ""x""",' in got
        assert got.count(b",-0,") == 2  # slot 0's x in the two signed rows

    def test_features_points_of_assembled_repeats(self, tmp_path):
        """Three locations at three AoAs each, on a patch whose id needs quoting."""
        manifold = PiecewiseManifold([paraboloid_grid(patch_id="p,1")])
        manifold.check_all(samples_per_axis=16)
        samples = Samples.from_rows([
            sample_row("p,1", u, v, aoa=aoa, cp=aoa / 10)
            for aoa in (0.0, 6.0, 12.0)
            for u, v in ((0.3, 0.4), (0.6, 0.5), (0.5, 0.0))
        ])
        result = assemble(manifold, samples, d=0.005)
        assert len(result.kept) == 9
        save_feature_cache(tmp_path / "cache", result, {"d": 0.005})
        write_features_points_rows(tmp_path / "want.csv", FEATURE_POINTS_HEADER, result, samples)
        assert (tmp_path / "cache" / "features_points.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_meta_equals_row_by_row_writer(self, tmp_path):
        """Repeated locations, patch ids that need quoting and signed zeros give the DictWriter's bytes."""
        rng = np.random.default_rng(43)
        row = {k: rng.normal(size=(1, *shape)) for k, shape in GROUP_SHAPES.items()}
        row["x2"][0, 0, 4, 1] = 0.0
        signed = {k: x.copy() for k, x in row.items()}
        signed["x2"][0, 0, 4, 1] = -0.0  # the centre's y differs from ``row`` only in its sign
        order = [row, row, signed, row, row, row, signed]
        batch = TensorBatch(y=rng.normal(size=len(order)), **{
            k: np.concatenate([r[k] for r in order]) for k in GROUP_SHAPES
        })
        specials = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 7, 2.0 / 3.0, 1e-300]
        rows = [
            sample_row("p,1", 0.5, 0.25, aoa=specials[i], ma=abs(specials[-1 - i]) or 0.2, re=1.35e6 + i,
                       cp=specials[(i + 2) % 7], span=None if i % 2 else specials[(i + 3) % 7])
            for i in range(len(order))
        ]
        rows[1] = sample_row('say "x"', 0.5, 0.25)  # same values, another patch
        rows[4] = sample_row("p,1", -0.0, 0.25)  # -0.0 and 0.0 stay apart in u too
        rows[5] = sample_row("p,1", 0.0, 0.25)
        samples = Samples.from_rows(rows)
        result = AssembleResult(batch, samples, list(range(len(order))), [], np.zeros((len(order), 9, 2)), {})
        save_feature_cache(tmp_path / "cache", result, {"d": 0.005})
        write_meta_rows(tmp_path / "want.csv", result, samples)
        got = (tmp_path / "cache" / "meta.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b'"p,1",' in got and b'"say ""x""",' in got
        assert meta_rows(result) == loop_meta_rows(result, samples)
        assert load_meta(tmp_path / "cache", len(order)) == loop_meta_rows(result, samples)

    def test_meta_of_assembled_repeats(self, tmp_path):
        manifold = PiecewiseManifold([paraboloid_grid(patch_id="p,1")])
        manifold.check_all(samples_per_axis=16)
        samples = Samples.from_rows([
            sample_row("p,1", u, v, aoa=aoa, cp=aoa / 10, span=None if aoa else 3.5)
            for aoa in (0.0, 6.0, 12.0)
            for u, v in ((0.3, 0.4), (0.6, 0.5), (0.5, 0.0))
        ])
        result = assemble(manifold, samples, d=0.005)
        save_feature_cache(tmp_path / "cache", result, {"d": 0.005})
        write_meta_rows(tmp_path / "want.csv", result, samples)
        assert (tmp_path / "cache" / "meta.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert meta_rows(result) == loop_meta_rows(result, samples)

    def test_pointwise_view(self, paraboloid_manifold):
        """POINTWISE_COLUMNS take the centre slot of each group, in the POINTWISE_SHAPES layout."""
        samples = Samples.from_rows([sample_row("paraboloid", 0.4, 0.6), sample_row("paraboloid", 0.5, 0.3)])
        batch = assemble(paraboloid_manifold, samples, d=0.005).batch
        want = pointwise_batch(batch)
        for key, shape in POINTWISE_SHAPES.items():
            got = batch.columns([(key, POINTWISE_COLUMNS[key])]).reshape(batch.n, *shape)
            assert got.tobytes() == np.ascontiguousarray(want.groups()[key]).tobytes(), key
        np.testing.assert_array_equal(want.x2[0], batch.x2[0, 0, 4, :])
        np.testing.assert_array_equal(want.x5[0, 0], batch.x5[0, 4])
