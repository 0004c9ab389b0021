import csv
import json
import shutil

import numpy as np
import pytest

from wingcp.bezier import load_manifold
from wingcp.cli import main, parse_config
from wingcp.data import load_samples
from wingcp.errors import WingcpError
from wingcp.stencil import build_stencil

TINY_CONF = """
# tiny pipeline settings for fast tests
aoa_set = 0, 6, 12
stations = 2
points_per_section = 4
epochs = 5
batch_size = 64
fold_aoas = 6, 12
val_fraction = 0.15
"""


@pytest.fixture
def tiny_conf(tmp_path):
    path = tmp_path / "tiny.conf"
    path.write_text(TINY_CONF)
    return str(path)


@pytest.fixture
def synth_dir(tmp_path, tiny_conf):
    out = tmp_path / "data"
    assert main(["synth", "--seed", "3", "--out", str(out), "--config", tiny_conf]) == 0
    return out


class TestParserBasics:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        assert "check-geometry" in capsys.readouterr().out

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["synth", "--bogus", "1", "--out", "x"])
        assert e.value.code == 2

    def test_bad_d_choice_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["extract", "--manifold", "m", "--samples", "s", "--d", "0.5", "--out", str(tmp_path)])
        assert e.value.code == 2

    def test_every_subcommand_has_help(self, capsys):
        for cmd in ("synth", "check-geometry", "extract", "train", "crossval", "eval", "predict", "report"):
            with pytest.raises(SystemExit) as e:
                main([cmd, "--help"])
            assert e.value.code == 0
            out = capsys.readouterr().out
            assert "--out" in out and "--seed" in out


class TestConfigFile:
    def test_parses_types(self, tiny_conf):
        cfg = parse_config(tiny_conf)
        assert cfg["epochs"] == 5
        assert cfg["aoa_set"] == (0.0, 6.0, 12.0)
        assert cfg["val_fraction"] == 0.15

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(WingcpError, match="unknown config key"):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("epochs = soon\n")
        with pytest.raises(WingcpError, match="bad value"):
            parse_config(path)

    def test_unknown_key_exits_one(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("warp_speed = 9\n")
        assert main(["synth", "--seed", "1", "--out", str(tmp_path / "o"), "--config", str(conf)]) == 1


class TestSynthCli:
    def test_outputs_and_manifest(self, synth_dir):
        assert (synth_dir / "manifold.csv").exists()
        assert (synth_dir / "samples.csv").exists()
        assert (synth_dir / "dataset_manifest.json").exists()
        run = json.loads((synth_dir / "run_manifest.json").read_text())
        assert run["command"] == "synth" and run["seed"] == 3

    def test_deterministic(self, tmp_path, tiny_conf):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "7", "--out", str(a), "--config", tiny_conf])
        main(["synth", "--seed", "7", "--out", str(b), "--config", tiny_conf])
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
        assert (a / "manifold.csv").read_bytes() == (b / "manifold.csv").read_bytes()


class TestCheckGeometryCli:
    def test_valid_manifold(self, synth_dir, tmp_path):
        out = tmp_path / "geo"
        rc = main(["check-geometry", "--manifold", str(synth_dir / "manifold.csv"), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "geometry_report.json").read_text())
        assert all(rep["valid"] for rep in report.values())

    def test_degenerate_manifold_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        rows = ["patch_id,a,b,x,y,z"]
        # collapse the v=0 boundary row of a (2,2) grid
        for a in range(3):
            for b in range(3):
                x, y = (0.0, 0.0) if b == 0 else (a / 2.0, b / 2.0)
                rows.append(f"dud,{a},{b},{x},{y},0.0")
        path.write_text("\n".join(rows) + "\n")
        rc = main(["check-geometry", "--manifold", str(path), "--out", str(tmp_path / "geo")])
        assert rc == 1
        assert "dud" in capsys.readouterr().err


class TestExtractCli:
    def test_extract_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "features"
        rc = main([
            "extract", "--manifold", str(synth_dir / "manifold.csv"),
            "--samples", str(synth_dir / "samples.csv"),
            "--d", "0.005", "--out", str(out),
        ])
        assert rc == 0
        for name in ("x1.csv", "x2.csv", "x3.csv", "x4.csv", "x5.csv", "y.csv", "meta.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["d"] == 0.005
        assert manifest["dataset_manifest"]["seed"] == 3

    def test_run_manifest_counts(self, synth_dir, tmp_path):
        out = tmp_path / "features"
        assert main([
            "extract", "--manifold", str(synth_dir / "manifold.csv"),
            "--samples", str(synth_dir / "samples.csv"), "--d", "0.005", "--out", str(out),
        ]) == 0
        counts = json.loads((out / "run_manifest.json").read_text())["counts"]
        manifold = load_manifold(synth_dir / "manifold.csv")
        manifold.exempt_all()
        samples = load_samples(synth_dir / "samples.csv")
        stencils = [build_stencil(manifold, s.location, 0.005) for s in samples]
        assert counts == {
            "distinct_centres": len({s.location for s in samples}),
            "distinct_points": len({p for st in stencils for p in st.points}),
            "clamped_stencils": sum(any(st.clamped) for st in stencils),
            "zero_spacing_slots": int(sum(np.sum(st.achieved_spacings == 0.0) for st in stencils)),
        }
        assert counts["zero_spacing_slots"] > 0

    def test_gate_names_failing_patch(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        rows = ["patch_id,a,b,x,y,z"]
        for a in range(3):
            for b in range(3):
                x, y = (0.0, 0.0) if b == 0 else (a / 2.0, b / 2.0)
                rows.append(f"dud,{a},{b},{x},{y},0.0")
        bad.write_text("\n".join(rows) + "\n")
        samples = tmp_path / "s.csv"
        samples.write_text("patch_id,u,v,Ma,AoA,Re,span,cp\ndud,0.5,0.5,0.175,7,1350000,,0.4\n")
        rc = main(["extract", "--manifold", str(bad), "--samples", str(samples),
                   "--d", "0.005", "--out", str(tmp_path / "f")])
        assert rc == 1
        assert "dud" in capsys.readouterr().err


@pytest.fixture
def features_dir(synth_dir, tmp_path):
    out = tmp_path / "features"
    main([
        "extract", "--manifold", str(synth_dir / "manifold.csv"),
        "--samples", str(synth_dir / "samples.csv"),
        "--d", "0.005", "--out", str(out),
    ])
    return out


class TestTrainEvalPredictCli:
    def test_train_eval_predict(self, features_dir, tmp_path, tiny_conf):
        run = tmp_path / "run"
        rc = main(["train", "--features", str(features_dir), "--model", "mtl",
                   "--seed", "1", "--out", str(run), "--config", tiny_conf])
        assert rc == 0
        assert (run / "checkpoint" / "weights.bin").exists()
        with open(run / "losses.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5  # epochs from config
        summary = json.loads((run / "train_summary.json").read_text())
        assert summary["model"] == "mtl" and np.isfinite(summary["final_train_mse"])

        ev = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(run / "checkpoint"),
                   "--features", str(features_dir), "--out", str(ev)])
        assert rc == 0
        with open(ev / "err_map.csv") as fh:
            err_rows = list(csv.DictReader(fh))
        assert len(err_rows) == 24  # every cached sample gets an error row

        pr = tmp_path / "pred"
        rc = main(["predict", "--checkpoint", str(run / "checkpoint"),
                   "--features", str(features_dir), "--out", str(pr)])
        assert rc == 0
        with open(pr / "predictions.csv") as fh:
            pred_rows = list(csv.DictReader(fh))
        assert len(pred_rows) == 24

    def test_weight_log_written_when_requested(self, features_dir, tmp_path):
        conf = tmp_path / "probe.conf"
        conf.write_text("epochs = 3\nprobe_points = 2\n")
        run = tmp_path / "run"
        rc = main(["train", "--features", str(features_dir), "--model", "rgfil",
                   "--seed", "1", "--out", str(run), "--config", str(conf)])
        assert rc == 0
        with open(run / "weight_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2  # epochs x probes
        assert "c0" in rows[0]


def _csv_rows(path):
    """Data rows of a CSV file (header dropped)."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class TestCrossvalReportCli:
    def test_crossval_and_report(self, synth_dir, tmp_path, tiny_conf):
        cv = tmp_path / "cv"
        rc = main(["crossval", "--manifold", str(synth_dir / "manifold.csv"),
                   "--samples", str(synth_dir / "samples.csv"),
                   "--model", "mtl", "--d", "0.005", "--seed", "2",
                   "--out", str(cv), "--config", tiny_conf])
        assert rc == 0
        assert (cv / "fold_6").is_dir() and (cv / "fold_12").is_dir()
        report = json.loads((cv / "report.json").read_text())
        assert set(report["fold_mse"]) == {"6", "12"}
        assert report["average_mse"] == pytest.approx(
            np.mean(list(report["fold_mse"].values()))
        )
        for fold in ("fold_6", "fold_12"):
            assert (cv / fold / "checkpoint" / "model.json").exists()
            assert (cv / fold / "err_map.csv").exists()
            ckpt = json.loads((cv / fold / "checkpoint" / "model.json").read_text())
            assert ckpt["normalizer"]["fitted_on"].startswith("train")

        rep = tmp_path / "rep"
        rc = main(["report", "--run", str(cv), "--baseline", str(cv), "--out", str(rep)])
        assert rc == 0
        rdata = json.loads((rep / "report.json").read_text())
        assert rdata["average_reduction_pct"] == pytest.approx(0.0, abs=1e-12)

        # the report lists folds in crossval's order and repeats its average verbatim
        cv_rows = _csv_rows(cv / "report.csv")
        rep_rows = [r for r in _csv_rows(rep / "report.csv") if not r[0].startswith("#")]
        assert [r[0] for r in rep_rows] == [r[0] for r in cv_rows] == ["6", "12", "average"]
        assert rep_rows[-1][1] == cv_rows[-1][1]

    def test_missing_fold_aoa_fails(self, synth_dir, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("fold_aoas = 99\nepochs = 2\n")
        rc = main(["crossval", "--manifold", str(synth_dir / "manifold.csv"),
                   "--samples", str(synth_dir / "samples.csv"),
                   "--model", "mtl", "--d", "0.005", "--seed", "2",
                   "--out", str(tmp_path / "cv"), "--config", str(conf)])
        assert rc == 1


BAD_TRAINING_SETTINGS = [
    ("epochs = 0", "epochs"),
    ("batch_size = 0", "batch_size"),
    ("learning_rate = -1", "learning_rate"),
    ("learning_rate = 0", "learning_rate"),
    ("learning_rate = nan", "learning_rate"),
    ("learning_rate = inf", "learning_rate"),
    ("val_fraction = 1.5", "val_fraction"),
    ("val_fraction = 1", "val_fraction"),
    ("val_fraction = -0.1", "val_fraction"),
    ("probe_points = -3", "probe_points"),
]


class TestTrainingSettingsRejected:
    @pytest.mark.parametrize("line,key", BAD_TRAINING_SETTINGS)
    def test_exits_one_with_one_error_line(self, features_dir, tmp_path, capsys, line, key):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"epochs = 2\n{line}\n")
        capsys.readouterr()
        rc = main(["train", "--features", str(features_dir), "--model", "mtl",
                   "--seed", "1", "--out", str(tmp_path / "run"), "--config", str(conf)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


BAD_SYNTH_SETTINGS = [
    ("n_patches = 2", "n_patches"),
    ("n_patches = 9", "n_patches"),
    ("stations = 0", "stations"),
    ("points_per_section = 0", "points_per_section"),
]


class TestSynthSettingsRejected:
    @pytest.mark.parametrize("line,key", BAD_SYNTH_SETTINGS)
    def test_exits_one_with_one_error_line(self, tmp_path, capsys, line, key):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{line}\n")
        rc = main(["synth", "--seed", "1", "--out", str(tmp_path / "data"), "--config", str(conf)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


def _edit_rows(path, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(change(rows))


def _first_cell(value):
    return lambda rows: [rows[0], [value] + rows[1][1:]] + rows[2:]


def _meta_cell(column, value):
    """Set ``column`` of the first data row of meta.csv."""
    def change(rows):
        row = list(rows[1])
        row[rows[0].index(column)] = value
        return [rows[0], row] + rows[2:]
    return change


BAD_FEATURE_CACHES = [
    ("x3.csv", lambda rows: rows[:-1]),  # one data row short
    ("x1.csv", lambda rows: rows + rows[-1:]),  # one data row too many
    ("y.csv", lambda rows: rows[:-1]),
    ("x5.csv", lambda rows: rows[:1]),  # header only
    ("meta.csv", lambda rows: rows[:-1]),
    ("meta.csv", lambda rows: [r[:-1] for r in rows]),  # no cp column
    ("x2.csv", lambda rows: [r[:-1] for r in rows]),  # one column short of (1, 9, 3)
    ("x4.csv", _first_cell("abc")),
    ("x5.csv", _first_cell("nan")),
    ("meta.csv", _meta_cell("AoA", "abc")),
    ("meta.csv", _meta_cell("span", "inf")),
]


class TestFeatureCacheRejected:
    @pytest.mark.parametrize("name,change", BAD_FEATURE_CACHES)
    def test_exits_one_with_one_error_line(self, features_dir, tmp_path, capsys, name, change):
        cache = tmp_path / "cache"
        shutil.copytree(features_dir, cache)
        _edit_rows(cache / name, change)
        conf = tmp_path / "short.conf"
        conf.write_text("epochs = 2\n")
        capsys.readouterr()
        rc = main(["train", "--features", str(cache), "--model", "mtl",
                   "--seed", "1", "--out", str(tmp_path / "run"), "--config", str(conf)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]


def test_checkpoint_with_unknown_net_spec_key_exits_one(features_dir, tmp_path, capsys):
    conf = tmp_path / "short.conf"
    conf.write_text("epochs = 2\n")
    run = tmp_path / "run"
    assert main(["train", "--features", str(features_dir), "--model", "mtl",
                 "--seed", "1", "--out", str(run), "--config", str(conf)]) == 0
    path = run / "checkpoint" / "model.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["nets"]["2"]["dilation"] = [1, 1]
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(run / "checkpoint"),
               "--features", str(features_dir), "--out", str(tmp_path / "pred")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "dilation" in err[0]


def test_checkpoint_with_unknown_config_key_exits_one(features_dir, tmp_path, capsys):
    conf = tmp_path / "short.conf"
    conf.write_text("epochs = 2\n")
    run = tmp_path / "run"
    assert main(["train", "--features", str(features_dir), "--model", "mtl",
                 "--seed", "1", "--out", str(run), "--config", str(conf)]) == 0
    path = run / "checkpoint" / "model.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["dropout"] = 0.1
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(run / "checkpoint"),
               "--features", str(features_dir), "--out", str(tmp_path / "pred")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "dropout" in err[0]
