import argparse
import builtins
import csv
import hashlib
import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

import wingcp
from wingcp.bezier import load_manifold
from wingcp import cli
from wingcp.cli import main, parse_config
from wingcp.data import load_samples
from wingcp.errors import WingcpError
from wingcp.files import write_rows
from wingcp.stencil import build_stencil

from oracles import sample_points

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

    @pytest.mark.parametrize("command", ["extract", "crossval"])
    def test_convention_flag_is_gone(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as e:
            main([command, "--manifold", "m", "--samples", "s", "--convention", "standard", "--out", str(tmp_path)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wingcp ") and "unrecognized arguments: --convention" in err

    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_model_choices_in_order(self, command):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        option = next(a for a in sub.choices[command]._actions if "--model" in a.option_strings)
        assert tuple(option.choices) == ("rgfil", "mlp", "mtl", "mdf") and option.default == "rgfil"

    def test_every_subcommand_has_help(self, capsys):
        for cmd in ("synth", "check-geometry", "extract", "train", "crossval", "eval", "predict", "report"):
            with pytest.raises(SystemExit) as e:
                main([cmd, "--help"])
            assert e.value.code == 0
            out = capsys.readouterr().out
            assert "--out" in out and "--seed" in out


def _run_child(argv, **kwargs):
    """``wingcp argv`` in a child Python process that imports this package's sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wingcp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "wingcp.cli", *argv]
    return subprocess.run(argv, capture_output=True, text=True, env=env, **kwargs)


def _outputs(root):
    """Every file under ``root`` with ``root`` masked in its text, by relative path; no elapsed time in run_manifest.json."""
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                data = fh.read().replace(root.encode(), b"<root>")
            if name == "run_manifest.json":
                manifest = json.loads(data)
                assert manifest.pop("elapsed_seconds") >= 0.0
                data = manifest
            out[os.path.relpath(path, root)] = data
    return out


def test_parser_reuse_leaks_nothing_between_calls(synth_dir, tmp_path, tiny_conf, capsys):
    """Commands run one after another in this process write what each writes in a fresh interpreter."""
    manifold, samples = str(synth_dir / "manifold.csv"), str(synth_dir / "samples.csv")

    def commands(root):
        feat, run = f"{root}/features", f"{root}/run"
        return [
            ["predict", "--checkpoint", f"{root}/missing", "--features", feat, "--out", f"{root}/refused"],
            ["extract", "--manifold", manifold, "--samples", samples, "--out", feat],
            ["train", "--features", feat, "--model", "mtl", "--config", tiny_conf, "--seed", "2", "--out", run],
            ["predict", "--checkpoint", f"{run}/checkpoint", "--features", feat, "--out", f"{root}/predict"],
            ["eval", "--checkpoint", f"{run}/checkpoint", "--features", feat, "--out", f"{root}/eval"],
            ["--version"],
        ]

    here, fresh = str(tmp_path / "here"), str(tmp_path / "fresh")
    ran_here = []
    capsys.readouterr()
    for argv in commands(here):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        ran_here.append((rc, out.replace(here, "<root>"), err.replace(here, "<root>")))
    assert [rc for rc, _, _ in ran_here] == [1, 0, 0, 0, 0, 0]
    refused = ran_here[0][2].splitlines()
    assert len(refused) == 1 and refused[0].startswith("error: ")

    ran_fresh = []
    for argv in commands(fresh):
        proc = _run_child(argv)
        ran_fresh.append((proc.returncode, proc.stdout.replace(fresh, "<root>"), proc.stderr.replace(fresh, "<root>")))
    assert ran_here == ran_fresh
    got, want = _outputs(here), _outputs(fresh)
    assert sorted(got) == sorted(want) and "predict/predictions.csv" in got and "eval/err_map.csv" in got
    assert [rel for rel in sorted(got) if got[rel] != want[rel]] == []


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
        names = {"x.npy", "y.npy", "y.csv", "meta.csv", "features_points.csv", "manifest.json", "run_manifest.json"}
        assert {path.name for path in out.iterdir()} == names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == "wingcp-cache-v2" and manifest["d"] == 0.005
        assert manifest["dataset_manifest"]["seed"] == 3

    def test_run_manifest_counts(self, synth_dir, tmp_path):
        out = tmp_path / "features"
        assert main([
            "extract", "--manifold", str(synth_dir / "manifold.csv"),
            "--samples", str(synth_dir / "samples.csv"), "--d", "0.005", "--out", str(out),
        ]) == 0
        counts = json.loads((out / "run_manifest.json").read_text())["counts"]
        manifold = load_manifold(synth_dir / "manifold.csv")
        for pid in manifold.patch_ids:
            manifold.exempt(pid)
        points = sample_points(load_samples(synth_dir / "samples.csv"))
        stencils = [build_stencil(manifold, p, 0.005) for p in points]
        # the axial neighbors E, W, N, S are neighbor slots 4, 3, 1, 6 (slot order without the centre)
        chords = [st.achieved_spacings[k] for st in stencils for k in (4, 3, 1, 6) if not st.clamped[k]]
        assert counts == {
            "distinct_centres": len(set(points)),
            "distinct_points": len({p for st in stencils for p in st.points}),
            "clamped_stencils": sum(any(st.clamped) for st in stencils),
            "zero_spacing_slots": int(sum(np.sum(st.achieved_spacings == 0.0) for st in stencils)),
            "axial_chord_min": min(chords),
            "axial_chord_max": max(chords),
        }
        assert counts["zero_spacing_slots"] > 0

    def test_run_manifest_axial_chords_meet_the_tolerance(self, synth_dir, tmp_path):
        """The spread of achieved axial spacings lies within the calibration's 1e-9 relative stop test."""
        out = tmp_path / "features"
        assert main([
            "extract", "--manifold", str(synth_dir / "manifold.csv"),
            "--samples", str(synth_dir / "samples.csv"), "--d", "0.005", "--out", str(out),
        ]) == 0
        counts = json.loads((out / "run_manifest.json").read_text())["counts"]
        lo, hi = 0.005 * (1.0 - 1e-9), 0.005 * (1.0 + 1e-9)
        assert lo <= counts["axial_chord_min"] <= counts["axial_chord_max"] <= hi

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
        # the split is stratified on the cache's AoA column: one validation sample from
        # each of the 8-sample groups at AoA 0, 6, 12 (one pooled group would give 4)
        assert summary["n_val"] == 3

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

    def test_summary_without_validation_rows_is_strict_json(self, tmp_path):
        """One sample per AoA group leaves no validation rows: final_val_mse is null, not NaN."""
        conf = tmp_path / "one.conf"
        conf.write_text("stations = 1\npoints_per_section = 1\nepochs = 2\n")
        data, features, run = (str(tmp_path / name) for name in ("data", "features", "run"))
        assert main(["synth", "--config", str(conf), "--out", data]) == 0
        assert main(["extract", "--manifold", f"{data}/manifold.csv", "--samples", f"{data}/samples.csv",
                     "--out", features]) == 0
        assert main(["train", "--features", features, "--model", "mtl", "--config", str(conf), "--out", run]) == 0

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        summary = json.loads((tmp_path / "run" / "train_summary.json").read_text(), parse_constant=no_constant)
        assert summary["n_val"] == 0 and summary["n_train"] == 9
        assert summary["final_val_mse"] is None and np.isfinite(summary["final_train_mse"])

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

    def test_probe_points_beyond_training_rows(self, features_dir, tmp_path):
        """probe_points above the training set's size logs every training row once per epoch.

        The child's address space is capped, so a probe array sized by probe_points fails
        there rather than taking the machine's memory.
        """
        conf = tmp_path / "probe.conf"
        conf.write_text("epochs = 2\nprobe_points = 1000000000\n")
        run = tmp_path / "run"
        cap = 3 << 30
        proc = _run_child(
            ["train", "--features", str(features_dir), "--model", "mtl", "--config", str(conf), "--out", str(run)],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 0, proc.stderr
        n_train = json.loads((run / "train_summary.json").read_text())["n_train"]
        with open(run / "weight_log.csv") as fh:
            rows = [(int(row["epoch"]), int(row["probe_row"])) for row in csv.DictReader(fh)]
        assert rows == [(epoch, i) for epoch in (1, 2) for i in range(n_train)]


# floats at the edges of the format; None keeps the trained model's predictions
EDGE_PREDICTIONS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1 / 3, -2.5e-7, 1e16, 123.0, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("values", [None, EDGE_PREDICTIONS], ids=["model", "edge-floats"])
def test_predictions_csv_is_what_write_rows_writes(every_command, tmp_path, monkeypatch, values):
    """predict formats its table itself; the bytes are those write_rows gives the same rows."""
    argv, _ = every_command["predict"]
    if values is not None:
        monkeypatch.setattr(cli, "_predict", lambda *args: np.array(values))
    out = tmp_path / "predict"
    assert main([*argv[:-1], str(out)]) == 0
    preds = [float(row[1]) for row in _csv_rows(out / "predictions.csv")]
    assert len(preds) == (24 if values is None else len(values))
    write_rows(tmp_path / "want.csv", ["row", "prediction"], enumerate(preds))
    assert (out / "predictions.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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
    ("val_fraction = 0", "val_fraction"),
    ("probe_points = -3", "probe_points"),
    ("leaky_slope = 2", "leaky_slope"),
    ("leaky_slope = -0.5", "leaky_slope"),
    ("leaky_slope = nan", "leaky_slope"),
    ("beta1 = 1", "beta1"),
    ("beta1 = nan", "beta1"),
    ("beta2 = 1.5", "beta2"),
    ("epsilon = 0", "epsilon"),
    ("epsilon = -1", "epsilon"),
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


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_exits_one(request, tmp_path, capsys, command):
    extra = []
    if command == "train":
        extra = ["--features", str(request.getfixturevalue("features_dir")), "--model", "mtl"]
    capsys.readouterr()
    rc = main([command, *extra, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]


BAD_SYNTH_SETTINGS = [
    ("n_patches = 2", "n_patches"),
    ("n_patches = 9", "n_patches"),
    ("stations = 0", "stations"),
    ("points_per_section = 0", "points_per_section"),
    ("thickness = nan", "thickness"),
    ("twist = inf", "twist"),
    ("span_length = -inf", "span_length"),
    ("ma = -0.5", "ma"),
    ("ma = nan", "ma"),
    ("reynolds = -1", "reynolds"),
    ("reynolds = inf", "reynolds"),
    ("aoa_set = 0, nan", "aoa_set"),
    ("noise_sigma = -1", "noise_sigma"),
    ("noise_sigma = nan", "noise_sigma"),
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


BAD_CHECK_SAMPLES = ["check_samples = 3", "check_samples = 0", "check_samples = -1"]


class TestCheckSamplesRejected:
    @pytest.mark.parametrize("line", BAD_CHECK_SAMPLES)
    @pytest.mark.parametrize("command", ["check-geometry", "extract", "crossval"])
    def test_exits_one_with_one_error_line(self, every_command, tmp_path, capsys, command, line):
        _, data = every_command["synth"]
        conf = tmp_path / "bad.conf"
        conf.write_text(f"epochs = 2\n{line}\n")
        rest = {
            "check-geometry": [],
            "extract": ["--samples", f"{data}/samples.csv"],
            "crossval": ["--samples", f"{data}/samples.csv", "--model", "mtl"],
        }[command]
        capsys.readouterr()
        rc = main([command, "--manifold", f"{data}/manifold.csv", *rest,
                   "--config", str(conf), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "check_samples" in err[0]


def _edit_rows(path, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(change(rows))


def _meta_cell(column, value):
    """A cache edit: set ``column`` of the first data row of meta.csv."""
    def set_cell(rows):
        row = list(rows[1])
        row[rows[0].index(column)] = value
        return [rows[0], row] + rows[2:]

    def change(path):
        _edit_rows(path, set_cell)
    return change


def _npy(change):
    """A cache edit: replace the array of a .npy file by ``change(array)``, saved with pickling allowed."""
    def edit(path):
        np.save(path, change(np.load(path)), allow_pickle=True)
    return edit


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _first_nan(x):
    x = x.copy()
    x.flat[0] = np.nan
    return x


def _non_utf8(path):
    """Put a byte that is not UTF-8 at the start of the file's second line."""
    data = path.read_bytes()
    cut = data.find(b"\n") + 1
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])


def _manifest_json(change):
    """A cache edit: apply ``change`` to the parsed manifest.json."""
    def edit(path):
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
    return edit


_FIRST_INDEX = _manifest_json(lambda m: m.update(convention="first-index"))
_NO_CONVENTION = _manifest_json(lambda m: m.pop("convention"))


def _no_samples(path):
    """A cache edit: n_samples 0 in manifest.json, and x.npy and y.npy cut to 0 rows."""
    _manifest_json(lambda m: m.update(n_samples=0))(path)
    for name in ("x.npy", "y.npy"):
        np.save(path.parent / name, np.load(path.parent / name)[:0])


def _previous_format(path):
    """A cache edit: the cache as the format before wingcp-cache-v2 held it, x1.npy .. x5.npy and no tag."""
    x = np.load(path.parent / "x.npy")
    ends = np.cumsum([0, 3, 27, 36, 72, 9])
    for z in range(1, 6):
        np.save(path.parent / f"x{z}.npy", x[:, ends[z - 1] : ends[z]])
    (path.parent / "x.npy").unlink()
    _manifest_json(lambda m: m.pop("format"))(path)


# (file edited, edit); the error names the file. train reads the arrays, eval also meta.csv.
BAD_FEATURE_CACHES = [
    pytest.param("x.npy", lambda path: path.unlink(), id="missing-x.npy"),
    pytest.param("y.npy", lambda path: path.unlink(), id="missing-y.npy"),
    pytest.param("x.npy", _truncate, id="truncated-x.npy"),
    pytest.param("x.npy", _npy(lambda x: x[:, :146]), id="x.npy-146-columns"),
    pytest.param("x.npy", _npy(lambda x: x.astype(np.float32)), id="x.npy-float32"),
    pytest.param("x.npy", _npy(lambda x: x.astype(object)), id="x.npy-object-dtype"),
    pytest.param("y.npy", _npy(lambda x: x.astype(object)), id="y.npy-object-dtype"),
    pytest.param("x.npy", _npy(_first_nan), id="x.npy-nan"),
    pytest.param("y.npy", _npy(_first_nan), id="y.npy-nan"),
    pytest.param("manifest.json", _manifest_json(lambda m: m.update(n_samples=m["n_samples"] + 1)),
                 id="manifest.json-n_samples-off"),
    pytest.param("manifest.json", _no_samples, id="manifest.json-n_samples-zero"),
    pytest.param("manifest.json", _manifest_json(lambda m: m.update(n_samples=float(m["n_samples"]))),
                 id="manifest.json-n_samples-float"),
    pytest.param("manifest.json", _manifest_json(lambda m: m.update(n_samples=str(m["n_samples"]))),
                 id="manifest.json-n_samples-text"),
    pytest.param("manifest.json", _manifest_json(lambda m: m.pop("n_samples")), id="manifest.json-no-n_samples"),
    pytest.param("manifest.json", _previous_format, id="manifest.json-previous-format"),
    pytest.param("manifest.json", _manifest_json(lambda m: m.update(format="wingcp-cache-v1")),
                 id="manifest.json-other-format"),
    pytest.param("manifest.json", _FIRST_INDEX, id="manifest.json-first-index"),
    pytest.param("manifest.json", _NO_CONVENTION, id="manifest.json-no-convention"),
    pytest.param("manifest.json", lambda path: path.write_text("[]"), id="manifest.json-not-an-object"),
    ("meta.csv", lambda path: _edit_rows(path, lambda rows: rows[:-1])),
    ("meta.csv", lambda path: _edit_rows(path, lambda rows: [r[:-1] for r in rows])),  # no cp column
    ("meta.csv", _meta_cell("AoA", "abc")),
    ("meta.csv", _meta_cell("span", "inf")),
    pytest.param("manifest.json", _non_utf8, id="manifest.json-not-utf8"),
    pytest.param("manifest.json", lambda path: path.write_text("{"), id="manifest.json-open-brace"),
    pytest.param("meta.csv", _non_utf8, id="meta.csv-not-utf8"),
]


class TestFeatureCacheRejected:
    @pytest.mark.parametrize("name,change", BAD_FEATURE_CACHES)
    def test_exits_one_with_one_error_line(self, every_command, tmp_path, capsys, name, change):
        _, features = every_command["extract"]
        _, run = every_command["train"]
        cache = tmp_path / "cache"
        shutil.copytree(features, cache)
        change(cache / name)
        conf = tmp_path / "short.conf"
        conf.write_text("epochs = 2\n")
        capsys.readouterr()
        if name == "meta.csv":
            argv = ["eval", "--checkpoint", f"{run}/checkpoint", "--features", str(cache)]
        else:
            argv = ["train", "--features", str(cache), "--model", "mtl", "--config", str(conf)]
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("change", [_FIRST_INDEX, _NO_CONVENTION], ids=["first-index", "no-convention"])
    def test_convention_refused_by_inference(self, every_command, tmp_path, capsys, command, change):
        """S has one sign; a cache that records another, or none, is refused before a checkpoint is matched."""
        _, features = every_command["extract"]
        _, run = every_command["train"]
        cache = tmp_path / "cache"
        shutil.copytree(features, cache)
        change(cache / "manifest.json")
        capsys.readouterr()
        rc = main([command, "--checkpoint", f"{run}/checkpoint", "--features", str(cache),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cache}/manifest.json: convention ")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("change", [_previous_format, _no_samples], ids=["previous-format", "n_samples-zero"])
    def test_manifest_refused_by_inference(self, every_command, tmp_path, capsys, command, change):
        """A cache of the previous format, or of no samples, ends in one error line naming its manifest.json."""
        _, features = every_command["extract"]
        _, run = every_command["train"]
        cache = tmp_path / "cache"
        shutil.copytree(features, cache)
        change(cache / "manifest.json")
        capsys.readouterr()
        rc = main([command, "--checkpoint", f"{run}/checkpoint", "--features", str(cache),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cache}/manifest.json: ")


@pytest.fixture(scope="module")
def every_command(tmp_path_factory):
    """All 8 commands run once, in order, on the tiny data: command -> (argv, out dir)."""
    root = tmp_path_factory.mktemp("every_command")
    conf = root / "tiny.conf"
    conf.write_text(TINY_CONF)
    data, feat, run, cv = (str(root / name) for name in ("data", "features", "run", "cv"))
    manifold, samples = f"{data}/manifold.csv", f"{data}/samples.csv"
    args = {
        "synth": ["--config", str(conf), "--seed", "3"],
        "check-geometry": ["--manifold", manifold],
        "extract": ["--manifold", manifold, "--samples", samples, "--d", "0.005"],
        "train": ["--features", feat, "--model", "mtl", "--config", str(conf)],
        "crossval": ["--manifold", manifold, "--samples", samples, "--model", "mtl",
                     "--config", str(conf)],
        "eval": ["--checkpoint", f"{run}/checkpoint", "--features", feat],
        "predict": ["--checkpoint", f"{run}/checkpoint", "--features", feat],
        "report": ["--run", cv],
    }
    outs = {"synth": data, "extract": feat, "train": run, "crossval": cv}
    runs = {}
    for command, rest in args.items():
        out = outs.get(command, str(root / command))
        argv = [command, *rest, "--out", out]
        assert main(argv) == 0, command
        runs[command] = (argv, out)
    return runs


RUN_MANIFEST_KEYS = {"command", "version", "seed", "args", "config", "inputs", "elapsed_seconds"}


class TestRunManifest:
    @pytest.mark.parametrize(
        "command",
        ["synth", "check-geometry", "extract", "train", "crossval", "eval", "predict", "report"],
    )
    def test_written_by_every_command(self, every_command, command):
        argv, out = every_command[command]
        with open(f"{out}/run_manifest.json") as fh:
            manifest = json.load(fh)
        assert set(manifest) == RUN_MANIFEST_KEYS | ({"counts"} if command == "extract" else set())
        assert manifest["command"] == command
        inputs = [argv[argv.index(flag) + 1] for flag in ("--manifold", "--samples") if flag in argv]
        digests = {}
        for path in inputs:
            with open(path, "rb") as fh:
                digests[path] = hashlib.sha256(fh.read()).hexdigest()
        assert manifest["inputs"] == digests


@pytest.mark.parametrize("command", ["train", "predict", "eval"])
def test_cache_files_read(every_command, tmp_path, monkeypatch, command):
    """train and predict read x.npy, y.npy and manifest.json only; eval also meta.csv."""
    _, features = every_command["extract"]
    train_argv, run = every_command["train"]
    conf = train_argv[train_argv.index("--config") + 1]
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(os.path.relpath(file, features))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    rest = {
        "train": ["--features", features, "--model", "mtl", "--config", conf],
        "predict": ["--checkpoint", f"{run}/checkpoint", "--features", features],
        "eval": ["--checkpoint", f"{run}/checkpoint", "--features", features],
    }[command]
    assert main([command, *rest, "--out", str(tmp_path / "out")]) == 0
    read = {name for name in opened if not name.startswith("..")}
    arrays = {"manifest.json", "x.npy", "y.npy"}
    assert read == (arrays | {"meta.csv"} if command == "eval" else arrays)


def test_crossval_on_empty_sample_file_exits_one(synth_dir, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("patch_id,u,v,Ma,AoA,Re,span,cp\n")
    capsys.readouterr()
    rc = main(["crossval", "--manifold", str(synth_dir / "manifold.csv"), "--samples", str(empty),
               "--model", "mtl", "--out", str(tmp_path / "cv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "no samples to extract" in err[0]


@pytest.fixture(scope="module")
def other_caches(every_command):
    """A cache of the tiny data at d = 0.01."""
    argv, features = every_command["extract"]
    caches = {"d0.01": f"{features}_d0.01"}
    assert main([*argv[: argv.index("--d")], "--d", "0.01", "--out", caches["d0.01"]]) == 0
    return caches


def _weight(value, index=5):
    """A checkpoint edit: set one weight of the right-sized weights.bin to ``value``."""
    def edit(ckpt):
        path = ckpt / "weights.bin"
        weights = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
        weights[index] = value
        path.write_bytes(weights.tobytes())
    return edit


def _model_json(change):
    """A checkpoint edit: apply ``change`` to the parsed model.json."""
    def edit(ckpt):
        path = ckpt / "model.json"
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
    return edit


def _transpose_first_rectangular(manifest):
    shapes = [e["shape"] for e in manifest["layout"]]
    next(s for s in shapes if len(s) == 2 and s[0] != s[1]).reverse()


def _list_strides(manifest):
    """List a stride equal to the kernel in every net spec, as older checkpoints did."""
    config = manifest["config"]
    for spec in (config["context"], config["concat"], *config["nets"].values()):
        spec["stride"] = list(spec["kernel"])


# (id, command, cache: None = the one trained on, edit of the checkpoint, text the error names)
BAD_CHECKPOINTS = [
    ("unknown-net-spec-key", "predict", None,
     _model_json(lambda m: m["config"]["nets"]["2"].update(dilation=[1, 1])), "dilation"),
    ("unknown-config-key", "predict", None,
     _model_json(lambda m: m["config"].update(dropout=0.1)), "dropout"),
    ("no-config-context", "predict", None,
     _model_json(lambda m: m["config"].pop("context")), "context"),
    ("no-layout", "predict", None, _model_json(lambda m: m.pop("layout")), "layout"),
    ("nets-as-list", "predict", None,
     _model_json(lambda m: m["config"].update(nets=list(m["config"]["nets"].values()))), "nets"),
    ("transposed-layout-shape", "predict", None, _model_json(_transpose_first_rectangular), "layout"),
    ("renamed-layout-entry", "eval", None,
     _model_json(lambda m: m["layout"][0].update(name="old.name")), "old.name"),
    ("other-format", "predict", None, _model_json(lambda m: m.update(format="other-v9")), "other-v9"),
    ("short-weight-blob", "predict", None,
     lambda ckpt: (ckpt / "weights.bin").write_bytes((ckpt / "weights.bin").read_bytes()[:-3]),
     "weights.bin"),
    ("nan-weight", "predict", None, _weight(np.nan), "weights.bin"),
    ("infinite-weight", "eval", None, _weight(-np.inf), "weights.bin"),
    ("no-recorded-d", "predict", None, _model_json(lambda m: m["extra"].pop("d")), "d = None"),
    ("cache-d", "predict", "d0.01", lambda ckpt: None, "d = 0.01"),
    ("cache-convention", "eval", None, _model_json(lambda m: m["extra"].update(convention="first-index")),
     "convention = 'first-index'"),
    ("normalizer-without-mins", "predict", None, _model_json(lambda m: m["normalizer"].pop("mins")), "mins"),
    ("short-x3-mins", "eval", None, _model_json(lambda m: m["normalizer"]["mins"]["x3"].pop()), "mins.x3"),
    ("text-y-min", "predict", None, _model_json(lambda m: m["normalizer"].update(y_min="abc")), "y_min"),
    ("text-normalize-targets", "predict", None,
     _model_json(lambda m: m["normalizer"].update(normalize_targets="false")),
     "normalizer normalize_targets must be true or false, got 'false'"),
    ("number-fitted-on", "eval", None, _model_json(lambda m: m["normalizer"].update(fitted_on=7)),
     "normalizer fitted_on must be a string, got 7"),
    ("leaky-slope-two", "predict", None, _model_json(lambda m: m["config"].update(leaky_slope=2.0)),
     "leaky_slope"),
    ("text-k-outputs", "predict", None, _model_json(lambda m: m["config"].update(k_outputs="abc")),
     "k_outputs"),
    ("zero-k-outputs", "eval", None, _model_json(lambda m: m["config"].update(k_outputs=0)), "k_outputs"),
    ("text-seed", "predict", None, _model_json(lambda m: m["config"].update(seed="x")), "seed"),
    ("negative-seed", "predict", None, _model_json(lambda m: m["config"].update(seed=-1)), "seed"),
    ("stride-listed", "predict", None, _model_json(_list_strides), "stride"),
    ("text-nets-key", "predict", None,
     _model_json(lambda m: m["config"]["nets"].update(abc=m["config"]["nets"].pop("2"))), "'abc'"),
    ("text-widths", "predict", None, _model_json(lambda m: m["config"]["nets"]["2"].update(widths="abc")),
     "widths"),
    ("one-number-kernel", "predict", None, _model_json(lambda m: m["config"]["nets"]["2"].update(kernel=3)),
     "kernel"),
    ("int-active", "predict", None, _model_json(lambda m: m["config"].update(active=5)), "active"),
    ("text-in-active", "predict", None, _model_json(lambda m: m["config"].update(active=[1, "a"])), "active"),
    ("bool-leaky-slope", "predict", None, _model_json(lambda m: m["config"].update(leaky_slope=True)),
     "leaky_slope"),
    ("model.json-not-utf8", "predict", None, lambda ckpt: _non_utf8(ckpt / "model.json"), "model.json"),
    ("model.json-open-brace", "eval", None, lambda ckpt: (ckpt / "model.json").write_text("{"),
     "model.json"),
]


class TestCheckpointRejected:
    @pytest.mark.parametrize(
        "command,cache,edit,text", [pytest.param(*case[1:], id=case[0]) for case in BAD_CHECKPOINTS]
    )
    def test_exits_one_with_one_error_line(
        self, every_command, other_caches, tmp_path, capsys, command, cache, edit, text
    ):
        _, run = every_command["train"]
        _, features = every_command["extract"]
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(f"{run}/checkpoint", ckpt)
        edit(ckpt)
        capsys.readouterr()
        rc = main([command, "--checkpoint", str(ckpt), "--features", other_caches.get(cache, features),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and text in err[0]
        assert str(ckpt) in err[0]  # the line names the checkpoint


def _report_json(change):
    """A crossval report.json edit: apply ``change`` to the parsed report."""
    def edit(path):
        report = json.loads(path.read_text())
        change(report)
        path.write_text(json.dumps(report))
    return edit


# (id, which run directory is edited, edit of its report.json, text the error names)
BAD_REPORTS = [
    ("baseline-with-other-folds", "baseline",
     _report_json(lambda r: (r["fold_mse"].pop("6"), r["n_samples"].pop("6"))), "fold keys differ"),
    ("baseline-fold-mse-zero", "baseline",
     _report_json(lambda r: r["fold_mse"].update({"6": 0.0})), "positive"),
    ("run-without-fold-mse", "run", _report_json(lambda r: r.pop("fold_mse")), "fold_mse"),
    ("baseline-without-fold-mse", "baseline", _report_json(lambda r: r.pop("fold_mse")), "fold_mse"),
    ("run-with-text-fold-label", "run", _report_json(lambda r: r["fold_mse"].update(abc=0.5)),
     "report.json: fold label 'abc'"),
    ("run-empty-fold-mse", "run", _report_json(lambda r: r.update(fold_mse={}, n_samples={})),
     "report.json: no fold_mse table with a fold in it"),
    ("baseline-empty-fold-mse", "baseline", _report_json(lambda r: r.update(fold_mse={}, n_samples={})),
     "report.json: no fold_mse table with a fold in it"),
    ("run-nan-fold-label", "run", _report_json(lambda r: r["fold_mse"].update(nan=1.0)),
     "report.json: fold label 'nan' is not a finite AoA"),
    ("baseline-infinite-fold-label", "baseline", _report_json(lambda r: r["fold_mse"].update({"-inf": 1.0})),
     "report.json: fold label '-inf' is not a finite AoA"),
    ("run-two-labels-of-one-aoa", "run", _report_json(lambda r: r["fold_mse"].update({"6.0": 1.0})),
     "report.json: fold labels '6' and '6.0' are one AoA"),
    ("baseline-two-labels-of-one-aoa", "baseline", _report_json(lambda r: r["fold_mse"].update({"12.": 1.0})),
     "report.json: fold labels '12' and '12.' are one AoA"),
    ("run-n_samples-not-object", "run", _report_json(lambda r: r.update(n_samples=3)),
     "report.json: n_samples is not an object"),
    ("run-text-fold-mse", "run", _report_json(lambda r: r["fold_mse"].update({"6": "0.5"})),
     "report.json: fold 6 MSE '0.5'"),
    ("run-nan-fold-mse", "run", _report_json(lambda r: r["fold_mse"].update({"6": float("nan")})),
     "report.json: fold 6 MSE nan"),
    ("baseline-infinite-fold-mse", "baseline",
     _report_json(lambda r: r["fold_mse"].update({"6": float("inf")})), "report.json: fold 6 MSE inf"),
    ("run-text-n_samples", "run", _report_json(lambda r: r["n_samples"].update({"6": "abc"})),
     "report.json: n_samples of fold 6 must be an integer >= 0, got 'abc'"),
    ("run-negative-n_samples", "run", _report_json(lambda r: r["n_samples"].update({"6": -1})),
     "report.json: n_samples of fold 6 must be an integer >= 0, got -1"),
    ("baseline-bool-n_samples", "baseline", _report_json(lambda r: r["n_samples"].update({"6": True})),
     "report.json: n_samples of fold 6 must be an integer >= 0, got True"),
    ("run-n_samples-of-no-fold", "run", _report_json(lambda r: r["n_samples"].update({"7": 3})),
     "report.json: n_samples key '7' is not a fold of fold_mse"),
    ("run-not-utf8", "run", _non_utf8, "run/report.json: not UTF-8 text"),
    ("baseline-open-brace", "baseline", lambda path: path.write_text("{"), "baseline/report.json: "),
]


class TestReportRejected:
    @pytest.mark.parametrize(
        "which,edit,text", [pytest.param(*case[1:], id=case[0]) for case in BAD_REPORTS]
    )
    def test_exits_one_with_one_error_line(self, every_command, tmp_path, capsys, which, edit, text):
        _, cv = every_command["crossval"]
        dirs = {}
        for name in ("run", "baseline"):
            dirs[name] = tmp_path / name
            dirs[name].mkdir()
            shutil.copy(f"{cv}/report.json", dirs[name])
        edit(dirs[which] / "report.json")
        capsys.readouterr()
        rc = main(["report", "--run", str(dirs["run"]), "--baseline", str(dirs["baseline"]),
                   "--out", str(tmp_path / "rep")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and text in err[0]


def _edited_copy(name, edit):
    """An input maker: a copy of ``name`` from the command's input directory, changed by ``edit``."""
    def make(tmp_path, given):
        path = tmp_path / name
        shutil.copy(given, path)
        edit(path)
        return path
    return make


def _degree_zero_patch(path):
    """Keep only the a = 0 rows of the first patch: a patch of degree 0 along u."""
    def change(rows):
        first = rows[1][0]
        return [rows[0]] + [r for r in rows[1:] if r[0] != first or r[1] == "0"]
    _edit_rows(path, change)


def _bad_config(tmp_path, given):
    path = tmp_path / "bad.conf"
    path.write_bytes(b"epochs = 2\n\xff\n")
    return path


def _directory(tmp_path, given):
    path = tmp_path / "samples.csv"
    path.mkdir()
    return path


def _plain_file(tmp_path, given):
    path = tmp_path / "features"
    path.write_text("not a feature cache\n")
    return path


# (id, command, option whose value is replaced, maker of the new value from (tmp_path, old value))
UNREADABLE_INPUTS = [
    ("samples.csv-not-utf8", "extract", "--samples", _edited_copy("samples.csv", _non_utf8)),
    ("manifold.csv-not-utf8", "check-geometry", "--manifold", _edited_copy("manifold.csv", _non_utf8)),
    ("config-not-utf8", "check-geometry", "--config", _bad_config),
    ("degree-0-patch", "check-geometry", "--manifold", _edited_copy("manifold.csv", _degree_zero_patch)),
    ("degree-0-patch-extract", "extract", "--manifold", _edited_copy("manifold.csv", _degree_zero_patch)),
    ("samples-is-a-directory", "crossval", "--samples", _directory),
    ("features-is-a-file", "predict", "--features", _plain_file),
]


class TestUnreadableInputRejected:
    @pytest.mark.parametrize(
        "command,option,make", [pytest.param(*case[1:], id=case[0]) for case in UNREADABLE_INPUTS]
    )
    def test_exits_one_with_one_error_line_naming_the_file(
        self, every_command, tmp_path, capsys, command, option, make
    ):
        argv, _ = every_command[command]
        argv = list(argv)
        given = argv[argv.index(option) + 1] if option in argv else None
        path = str(make(tmp_path, given))
        if given is None:
            argv += [option, path]
        else:
            argv[argv.index(option) + 1] = path
        argv[argv.index("--out") + 1] = str(tmp_path / "out")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and path in err[0]


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


class TestReadmeMatchesParser:
    """README's flags and usage lines against the parser, so that no removed option lingers in the docs."""

    def test_backticked_flags_are_options(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        known = {flag for parser in sub.choices.values() for a in parser._actions for flag in a.option_strings}
        named = set(re.findall(r"`(--[a-z][a-z-]*)", _readme()))
        assert "--d" in named and named <= known, sorted(named - known)

    def test_usage_block_parses(self):
        block = _readme().split("## Command-line pipeline", 1)[1].split("```")[1]
        lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("wingcp ")]
        assert len(lines) == 8
        for line in lines:
            cli.build_parser().parse_args(shlex.split(line)[1:])
