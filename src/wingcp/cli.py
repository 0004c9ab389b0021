"""Command-line orchestration for the full pipeline.

Commands: check-geometry, extract, synth, train, crossval, eval,
predict, report. Each job has one code path: crossval assembles its
data with extract's checks (``_extract``) and scores each fold with
eval's code (``_evaluate``), and eval and predict load and match the
checkpoint to the cache the same way (``_load_for_inference``).

A command returns its exit code; ``main`` times it and writes
run_manifest.json (command, config snapshot, seed, digests of the
--manifold/--samples inputs, version, elapsed seconds, and for extract
the assembly counts) for every command that did not raise. Timings
live only in the manifest, so all other output files are bitwise
reproducible for a fixed seed on one BLAS build and CPU kernel, whatever
the BLAS thread count (``wingcp.nn`` names the one known exception).
"""

import argparse
import functools
import hashlib
import inspect
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .bezier import load_manifold
from .data import (
    FOLD_AOAS_DEFAULT,
    assemble,
    fit_normalizer,
    fold_split,
    load_feature_cache,
    load_meta,
    load_samples,
    meta_rows,
    save_feature_cache,
    train_val_split,
)
from .errors import ConfigError, WingcpError, check_int
from .files import read_json, read_text, write_json, write_rows
from .geometry import DEFAULT_CONVENTION
from .model import (
    ModelConfig,
    TrainConfig,
    build_model,
    load_checkpoint,
    loss_mse,
    preset,
    save_checkpoint,
    train,
)
from .report import EvalReport, error_map
from .synth import SynthConfig, generate_synthetic

D_CHOICES = (0.01, 0.005, 0.001)
MODEL_CHOICES = ("rgfil", "mlp", "mtl", "mdf")


def _parse_bool(s):
    low = s.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s):
    return tuple(float(tok) for tok in s.split(",") if tok.strip() != "")


CONFIG_SCHEMA = {
    # training
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "beta1": float,
    "beta2": float,
    "epsilon": float,
    # model
    "k_outputs": int,
    "leaky_slope": float,
    # data handling
    "val_fraction": float,
    "normalize_targets": _parse_bool,
    "fold_aoas": _parse_float_list,
    "probe_points": int,
    "check_samples": int,
    # synthetic generator
    "aoa_set": _parse_float_list,
    "stations": int,
    "points_per_section": int,
    "n_patches": int,
    "noise_sigma": float,
    "ma": float,
    "reynolds": float,
    "span_length": float,
    "thickness": float,
    "twist": float,
}


def parse_config(path) -> dict:
    """Flat key=value config file; '#' comments; unknown keys rejected."""
    out = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise WingcpError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise WingcpError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = CONFIG_SCHEMA[key](val)
        except ValueError as exc:
            raise WingcpError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_manifest(args, cfg, elapsed, counts):
    inputs = [path for path in (getattr(args, "manifold", None), getattr(args, "samples", None)) if path]
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "args": vars(args),
        "config": cfg,
        "inputs": {path: _sha256(path) for path in inputs},
        "elapsed_seconds": elapsed,
    }
    if counts is not None:
        manifest["counts"] = counts
    write_json(os.path.join(args.out, "run_manifest.json"), manifest)


def _given(cfg: dict, fn) -> dict:
    """The config settings named like parameters of ``fn``, as keyword arguments.

    Settings the config leaves out are not passed, so each default is
    stated once, in the library.
    """
    return {k: cfg[k] for k in inspect.signature(fn).parameters if k in cfg}


def _check_all(manifold, cfg):
    """Validity-check every patch, at ``check_samples`` (>= 4) per axis if the config sets it."""
    if "check_samples" in cfg:
        if cfg["check_samples"] < 4:
            raise ConfigError(f"check_samples must be >= 4, got {cfg['check_samples']}")
        return manifold.check_all(samples_per_axis=cfg["check_samples"])
    return manifold.check_all()


def _write_losses(path, result):
    epochs = range(1, len(result.train_curve) + 1)
    write_rows(path, ["epoch", "train_mse", "val_mse"], zip(epochs, result.train_curve, result.val_curve))


def _write_weight_log(path, result, probe_rows):
    header = ["epoch", "probe_row"] + [f"c{i}" for i in range(result.weight_log.shape[2])]
    rows = (
        [e, int(p), *weights]
        for e, frame in enumerate(result.weight_log, start=1)
        for p, weights in zip(probe_rows, frame)
    )
    write_rows(path, header, rows)


def _write_err_map(path, meta, indices, predictions, targets):
    fields = ("patch_id", "u", "v", "x", "y", "z", "AoA", "cp")
    rows = (
        [int(src), *(meta[int(src)][f] for f in fields), p, e]
        for src, p, e in zip(indices, predictions, error_map(predictions, targets))
    )
    write_rows(path, ["row", *fields, "prediction", "abs_err"], rows)


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------

# Feature-cache settings a checkpoint records; eval and predict require the cache to match.
_CACHE_KEYS = ("d", "convention")


def _extract(args, cfg):
    """Check the manifold, load the samples and assemble them."""
    manifold = load_manifold(args.manifold)
    _check_all(manifold, cfg)
    bad = manifold.invalid_patches()
    if bad:
        raise WingcpError(f"geometry check failed for patches: {', '.join(bad)}")
    samples = load_samples(args.samples, known_patches=set(manifold.patch_ids))
    if not samples:
        raise WingcpError(f"{args.samples}: no samples to extract")
    return assemble(manifold, samples, d=args.d)


class _Prepared(NamedTuple):
    """A model ready to train: its settings, normalizer and normalized inputs (see ``_prepare``)."""

    train_cfg: TrainConfig
    model: object
    normalizer: object
    data: tuple
    val: tuple | None
    train_idx: np.ndarray
    val_idx: np.ndarray


def _prepare(batch, model_name, cfg, seed, fold_note) -> _Prepared:
    """Split by the batch's AoA column, fit the normalizer and build the model.

    ``data`` and ``val`` are the training and validation rows as
    ``model.inputs`` prepares them, normalized (``val`` is None without
    validation rows). They are all the features training needs, so a
    caller need not keep ``batch`` while the model trains.
    """
    train_cfg = TrainConfig(seed=seed, **_given(cfg, TrainConfig))
    if cfg.get("probe_points", 0) < 0:
        raise ConfigError(f"probe_points must be >= 0, got {cfg['probe_points']}")
    train_idx, val_idx = train_val_split(
        np.arange(batch.n), batch.x1[:, 1], seed=seed, **_given(cfg, train_val_split)
    )
    train_batch = batch.subset(train_idx)
    normalizer = fit_normalizer(train_batch, fitted_on=f"train({fold_note})", **_given(cfg, fit_normalizer))
    model = build_model(preset(model_name, seed=seed, **_given(cfg, ModelConfig)))
    data = model.inputs(train_batch, normalizer)
    del train_batch
    val = model.inputs(batch.subset(val_idx), normalizer) if val_idx.size else None
    return _Prepared(train_cfg, model, normalizer, data, val, train_idx, val_idx)


def _train_once(prepared: _Prepared, model_name, cfg, seed, outdir, fold_note, settings):
    """Fit a prepared model, checkpoint it and write its logs; returns the TrainResult.

    ``settings`` holds the feature-cache settings (``_CACHE_KEYS``) that
    the checkpoint records.
    """
    model, n_probe = prepared.model, cfg.get("probe_points", 0)
    probes = (
        np.unique(np.linspace(0, prepared.train_idx.size - 1, n_probe).astype(int)) if n_probe > 0 else ()
    )
    result = train(model, prepared.data, prepared.val, prepared.train_cfg, probe_indices=probes)

    os.makedirs(outdir, exist_ok=True)
    save_checkpoint(
        os.path.join(outdir, "checkpoint"),
        model,
        prepared.normalizer,
        extra={
            "model": model_name, "seed": seed, "fold": fold_note, "epochs": result.epochs_run, **settings
        },
    )
    _write_losses(os.path.join(outdir, "losses.csv"), result)
    if result.weight_log is not None:
        _write_weight_log(os.path.join(outdir, "weight_log.csv"), result, probes)
    return result


def _predict(model, normalizer, batch):
    """Denormalized predictions for every row of ``batch``."""
    return normalizer.invert_targets(model.forward(model.inputs(batch, normalizer)))


def _evaluate(outdir, model, normalizer, batch, meta, indices, **fields):
    """Predict rows ``indices``; write err_map.csv and eval.json; return the MSE.

    eval.json holds ``fields`` with ``test_mse`` and ``n_test``.
    """
    sub = batch.subset(indices)
    pred = _predict(model, normalizer, sub)
    mse = loss_mse(pred, sub.y)
    _write_err_map(os.path.join(outdir, "err_map.csv"), meta, indices, pred, sub.y)
    write_json(os.path.join(outdir, "eval.json"), {**fields, "test_mse": mse, "n_test": int(sub.n)})
    return mse


def _load_for_inference(args):
    """Checkpoint and feature cache of eval/predict: (model, normalizer, batch).

    Refuses a checkpoint without a normalizer, and one whose recorded
    ``d`` or ``convention`` is missing or differs from the cache's.
    """
    model, normalizer, manifest = load_checkpoint(args.checkpoint)
    if normalizer is None:
        raise WingcpError(f"checkpoint {args.checkpoint} has no normalizer")
    batch, cache_manifest = load_feature_cache(args.features)
    for key in _CACHE_KEYS:
        have, want = manifest["extra"].get(key), cache_manifest.get(key)
        if have is None or have != want:
            raise WingcpError(
                f"checkpoint {args.checkpoint} has {key} = {have!r}, "
                f"feature cache {args.features} has {key} = {want!r}"
            )
    return model, normalizer, batch


def _read_report(run_dir):
    """A crossval run's report.json, refused unless it holds a fold_mse table of finite numbers keyed by AoA.

    ``n_samples``, where present, must map folds of ``fold_mse`` to integers >= 0.
    """
    path = os.path.join(run_dir, "report.json")
    run = read_json(path)
    if not isinstance(run.get("fold_mse"), dict):
        raise WingcpError(f"{path}: no fold_mse table")
    n_samples = run.get("n_samples", {})
    if not isinstance(n_samples, dict):
        raise WingcpError(f"{path}: n_samples is not an object")
    for label, mse in run["fold_mse"].items():
        try:
            float(label)
        except ValueError:
            raise WingcpError(f"{path}: fold label {label!r} is not an AoA") from None
        if isinstance(mse, bool) or not isinstance(mse, (int, float)) or not np.isfinite(mse):
            raise WingcpError(f"{path}: fold {label} MSE {mse!r} is not a finite number")
    for label, n in n_samples.items():
        if label not in run["fold_mse"]:
            raise WingcpError(f"{path}: n_samples key {label!r} is not a fold of fold_mse")
        check_int(n, f"{path}: n_samples of fold {label}", 0)
    return run


# ---------------------------------------------------------------------------
# Commands: each returns its exit code, extract (exit code, counts)
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg):
    result = generate_synthetic(SynthConfig(seed=args.seed, **_given(cfg, SynthConfig)), args.out)
    print(f"synth: wrote {len(result.samples)} samples to {args.out}")
    return 0


def cmd_check_geometry(args, cfg):
    reports = _check_all(load_manifold(args.manifold), cfg)
    report = {pid: rep.to_dict() for pid, rep in reports.items()}
    write_json(os.path.join(args.out, "geometry_report.json"), report)
    bad = [pid for pid, rep in reports.items() if not rep.valid]
    if bad:
        print(f"check-geometry: invalid patches: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"check-geometry: {len(reports)} patches valid")
    return 0


def cmd_extract(args, cfg):
    result = _extract(args, cfg)
    manifest = {
        "d": args.d,
        "convention": DEFAULT_CONVENTION,
        "source_samples": os.path.abspath(args.samples),
        "source_manifold": os.path.abspath(args.manifold),
        "normalization": "none (fit at training time)",
    }
    sibling = os.path.join(os.path.dirname(os.path.abspath(args.samples)), "dataset_manifest.json")
    if os.path.exists(sibling):
        manifest["dataset_manifest"] = read_json(sibling)
    save_feature_cache(args.out, result, manifest)
    print(f"extract: {len(result.kept)} samples kept, {len(result.dropped)} dropped -> {args.out}")
    return 0, result.counts


def cmd_train(args, cfg):
    batch, cache_manifest = load_feature_cache(args.features)
    settings = {key: cache_manifest.get(key) for key in _CACHE_KEYS}
    prepared = _prepare(batch, args.model, cfg, args.seed, "full-dataset")
    del batch  # the model trains on the prepared inputs alone
    result = _train_once(prepared, args.model, cfg, args.seed, args.out, "full-dataset", settings)
    summary = {
        "model": args.model,
        "final_train_mse": result.final_train_mse,
        "final_val_mse": float(result.val_curve[-1]) if prepared.val_idx.size else None,  # JSON has no NaN
        "n_train": int(prepared.train_idx.size),
        "n_val": int(prepared.val_idx.size),
        **settings,
    }
    write_json(os.path.join(args.out, "train_summary.json"), summary)
    print(f"train: final train MSE {result.final_train_mse:.6g} -> {args.out}")
    return 0


def cmd_crossval(args, cfg):
    result = _extract(args, cfg)
    batch, meta = result.batch, meta_rows(result)
    settings = {"d": args.d, "convention": DEFAULT_CONVENTION}
    fold_aoas = cfg.get("fold_aoas", FOLD_AOAS_DEFAULT)
    folds = fold_split(batch.x1[:, 1], fold_aoas)

    fold_mse, fold_n = {}, {}
    for k, (train_idx, test_idx) in enumerate(folds):
        label = format(fold_aoas[k], "g")
        fold_dir = os.path.join(args.out, f"fold_{label}")
        note, seed = f"fold={label}", args.seed + k
        prepared = _prepare(batch.subset(train_idx), args.model, cfg, seed, note)
        _train_once(prepared, args.model, cfg, seed, fold_dir, note, settings)
        mse = _evaluate(fold_dir, prepared.model, prepared.normalizer, batch, meta, test_idx, fold=label)
        fold_mse[label] = mse
        fold_n[label] = int(test_idx.size)
        print(f"crossval fold {label}: test MSE {mse:.6g} ({test_idx.size} samples)")

    report = EvalReport.from_folds(fold_mse, fold_n)
    write_json(os.path.join(args.out, "report.json"), report.to_dict())
    rows = [[label, fold_mse[label], fold_n[label]] for label in fold_mse]
    rows.append(["average", report.average_mse, ""])
    write_rows(os.path.join(args.out, "report.csv"), ["fold", "test_mse", "n_test"], rows)
    print(f"crossval: average MSE {report.average_mse:.6g} -> {args.out}")
    return 0


def cmd_eval(args, cfg):
    model, normalizer, batch = _load_for_inference(args)
    meta = load_meta(args.features, batch.n)
    mse = _evaluate(args.out, model, normalizer, batch, meta, np.arange(batch.n))
    print(f"eval: MSE {mse:.6g} over {batch.n} samples -> {args.out}")
    return 0


def cmd_predict(args, cfg):
    model, normalizer, batch = _load_for_inference(args)
    pred = _predict(model, normalizer, batch)
    # one formatting pass, byte for byte what write_rows gives the header row,prediction and these rows
    with open(os.path.join(args.out, "predictions.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(["row,prediction\r\n"] + ["%d,%.17g\r\n" % row for row in enumerate(pred.tolist())]))
    print(f"predict: {batch.n} predictions -> {args.out}")
    return 0


def cmd_report(args, cfg):
    run = _read_report(args.run)
    # report.json stores folds key-sorted as strings; list them by numeric AoA
    fold_mse = {label: run["fold_mse"][label] for label in sorted(run["fold_mse"], key=float)}
    report = EvalReport.from_folds(fold_mse, run.get("n_samples"))
    baseline_mse = None
    if args.baseline:
        baseline_mse = _read_report(args.baseline)["fold_mse"]
        try:
            report.attach_baseline(baseline_mse)
        except ValueError as exc:
            raise WingcpError(f"baseline {args.baseline}: {exc}") from None
    write_json(os.path.join(args.out, "report.json"), report.to_dict())
    header = ["fold", "model_mse"]
    rows = [[label, float(mse)] for label, mse in report.fold_mse.items()]
    average = ["average", report.average_mse]
    if baseline_mse is not None:
        header += ["baseline_mse", "reduction_pct"]
        for row in rows:
            row += [float(baseline_mse[row[0]]), report.reduction_vs_baseline[row[0]]]
        average += ["", report.average_reduction]
    note = ["# note: average = unweighted mean of per-fold values"]
    write_rows(os.path.join(args.out, "report.csv"), header, [*rows, average, note])
    if report.average_reduction is not None:
        print(f"report: average reduction {report.average_reduction:.2f}% -> {args.out}")
    else:
        print(f"report: average MSE {report.average_mse:.6g} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wingcp",
        description=(
            "Riemannian geometric features from piecewise Bezier wing surfaces "
            "and multi-feature neural prediction of pressure coefficients."
        ),
    )
    parser.add_argument("--version", action="version", version=f"wingcp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0, help="base random seed")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic wing dataset")
    common(p)

    p = sub.add_parser("check-geometry", help="immersion / self-intersection checks")
    p.add_argument("--manifold", required=True, help="control-grid CSV")
    common(p)

    p = sub.add_parser("extract", help="build stencil feature tensors from samples")
    p.add_argument("--manifold", required=True, help="control-grid CSV")
    p.add_argument("--samples", required=True, help="sample CSV")
    p.add_argument("--d", type=float, choices=D_CHOICES, default=0.005, help="stencil chord spacing")
    common(p)

    p = sub.add_parser("train", help="train one model on a feature cache")
    p.add_argument("--features", required=True, help="feature cache directory (from extract)")
    p.add_argument("--model", choices=MODEL_CHOICES, default="rgfil")
    common(p)

    p = sub.add_parser("crossval", help="leave-one-AoA-out cross-validation")
    p.add_argument("--manifold", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--model", choices=MODEL_CHOICES, default="rgfil")
    p.add_argument("--d", type=float, choices=D_CHOICES, default=0.005)
    common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a feature cache")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    common(p)

    p = sub.add_parser("predict", help="predictions only")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    common(p)

    p = sub.add_parser("report", help="aggregate fold MSEs, optionally vs a baseline")
    p.add_argument("--run", required=True, help="crossval output directory")
    p.add_argument("--baseline", help="baseline crossval output directory")
    common(p)

    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "check-geometry": cmd_check_geometry,
    "extract": cmd_extract,
    "train": cmd_train,
    "crossval": cmd_crossval,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "report": cmd_report,
}


def main(argv=None) -> int:
    """Run one command; write its run_manifest.json unless it raised."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = parse_config(args.config) if args.config else {}
        os.makedirs(args.out, exist_ok=True)
        status = _COMMANDS[args.command](args, cfg)
    except (WingcpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rc, counts = status if isinstance(status, tuple) else (status, None)
    _write_run_manifest(args, cfg, time.perf_counter() - t0, counts)
    return rc


if __name__ == "__main__":
    sys.exit(main())
