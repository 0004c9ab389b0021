import json

import numpy as np
import pytest

from wingcp.data import assemble
from wingcp.errors import ConfigError
from wingcp.geometry import feature_bundle
from wingcp.synth import SynthConfig, cp_formula, generate_synthetic

SMALL = dict(stations=3, points_per_section=5, aoa_set=(0.0, 7.0, 14.0))


class TestGenerator:
    def test_sample_count_exact(self):
        cfg = SynthConfig(seed=1, **SMALL)
        res = generate_synthetic(cfg)
        assert len(res.samples) == 3 * 3 * 5

    def test_same_seed_identical_files(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic(SynthConfig(seed=7, **SMALL), a)
        generate_synthetic(SynthConfig(seed=7, **SMALL), b)
        for name in ("manifold.csv", "samples.csv", "dataset_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic(SynthConfig(seed=1, **SMALL), a)
        generate_synthetic(SynthConfig(seed=2, **SMALL), b)
        assert (a / "samples.csv").read_bytes() != (b / "samples.csv").read_bytes()

    def test_patches_pass_geometry_check(self):
        res = generate_synthetic(SynthConfig(seed=3, **SMALL))
        assert all(rep.valid for rep in res.manifold.reports.values())

    def test_seams_recorded(self):
        res = generate_synthetic(SynthConfig(seed=3, n_patches=4, **SMALL))
        assert len(res.manifest["seams"]) == 3

    def test_noiseless_cp_matches_formula(self):
        """With sigma = 0 the cp column must re-derive from the manifest formula."""
        cfg = SynthConfig(seed=5, noise_sigma=0.0, **SMALL)
        res = generate_synthetic(cfg)
        coeffs = res.manifest["coefficients"]
        for sample in res.samples:
            bundle = feature_bundle(res.manifold, sample.location, "standard")
            gnorm = float(np.sqrt(np.sum(bundle.gamma**2)))
            w = sample.span_station / 100.0
            expected = cp_formula(
                coeffs, sample.condition.aoa, sample.location.u, w, bundle.scalar, gnorm
            )
            assert sample.cp == pytest.approx(expected, abs=1e-10)

    def test_manifest_documents_generator(self, tmp_path):
        generate_synthetic(SynthConfig(seed=5, **SMALL), tmp_path)
        manifest = json.loads((tmp_path / "dataset_manifest.json").read_text())
        assert "formula" in manifest and "coefficients" in manifest
        assert manifest["seed"] == 5
        assert manifest["convention"] == "standard"
        assert manifest["n_samples"] == 45

    def test_flight_condition_columns(self):
        res = generate_synthetic(SynthConfig(seed=2, **SMALL))
        mas = {s.condition.ma for s in res.samples}
        res_ = {s.condition.re for s in res.samples}
        assert mas == {0.175}
        assert res_ == {1.35e6}

    def test_samples_assemble_cleanly(self):
        cfg = SynthConfig(seed=4, **SMALL)
        res = generate_synthetic(cfg)
        out = assemble(res.manifold, res.samples[:12], d=0.005)
        assert len(out.dropped) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_patches=2)
        with pytest.raises(ConfigError):
            SynthConfig(stations=0)
