"""Command-line orchestration for the full pipeline.

Commands: check-geometry, extract, synth, train, crossval, eval,
predict, report. Every command writes its outputs plus a
run_manifest.json (command, config snapshot, seed, input digests,
version, timings). Timings live only in the manifest, so all other
output files are bitwise reproducible under a fixed seed at a fixed
BLAS thread count.
"""

import argparse
import csv
import hashlib
import inspect
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bezier import load_manifold
from .data import (
    FOLD_AOAS_DEFAULT,
    assemble,
    fit_normalizer,
    fold_split,
    load_feature_cache,
    load_samples,
    meta_rows,
    save_feature_cache,
    train_val_split,
)
from .errors import ConfigError, WingcpError
from .geometry import CONVENTIONS, DEFAULT_CONVENTION
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
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def _write_run_manifest(outdir, command, args, seed, inputs, config, elapsed):
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "args": {k: v for k, v in sorted(args.items())},
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(config.items())},
        "inputs": {path: _sha256(path) for path in inputs},
        "elapsed_seconds": elapsed,
    }
    with open(os.path.join(outdir, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _label(aoa: float) -> str:
    return format(aoa, "g")


def _given(cfg: dict, fn) -> dict:
    """The config settings named like parameters of ``fn``, as keyword arguments.

    Settings the config leaves out are not passed, so each default is
    stated once, in the library.
    """
    return {k: cfg[k] for k in inspect.signature(fn).parameters if k in cfg}


def _check_all(manifold, cfg):
    """Validity-check every patch, at ``check_samples`` per axis if the config sets it."""
    if "check_samples" in cfg:
        return manifold.check_all(samples_per_axis=cfg["check_samples"])
    return manifold.check_all()


def _write_losses(path, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_mse", "val_mse"])
        for e, (tr, va) in enumerate(zip(result.train_curve, result.val_curve), start=1):
            writer.writerow([e, format(tr, ".17g"), format(va, ".17g")])


def _write_weight_log(path, result, probe_rows):
    if result.weight_log is None:
        return
    n_probe, width = result.weight_log.shape[1], result.weight_log.shape[2]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "probe_row"] + [f"c{i}" for i in range(width)])
        for e in range(result.weight_log.shape[0]):
            for p in range(n_probe):
                row = [e + 1, int(probe_rows[p])]
                row += [format(x, ".17g") for x in result.weight_log[e, p]]
                writer.writerow(row)


def _write_err_map(path, meta, indices, predictions, targets):
    errs = error_map(predictions, targets)
    fields = ("patch_id", "u", "v", "x", "y", "z", "AoA", "cp")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", *fields, "prediction", "abs_err"])
        for out_i, src in enumerate(indices):
            row = meta[int(src)]
            writer.writerow(
                [int(src)]
                + [row[f] for f in fields]
                + [format(predictions[out_i], ".17g"), format(errs[out_i], ".17g")]
            )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg):
    t0 = time.perf_counter()
    result = generate_synthetic(SynthConfig(seed=args.seed, **_given(cfg, SynthConfig)), args.out)
    _write_run_manifest(
        args.out, "synth", vars(args), args.seed, [], cfg, time.perf_counter() - t0
    )
    print(f"synth: wrote {len(result.samples)} samples to {args.out}")
    return 0


def cmd_check_geometry(args, cfg):
    t0 = time.perf_counter()
    manifold = load_manifold(args.manifold)
    reports = _check_all(manifold, cfg)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "geometry_report.json"), "w") as fh:
        json.dump(
            {pid: rep.to_dict() for pid, rep in reports.items()}, fh, indent=2, sort_keys=True
        )
        fh.write("\n")
    _write_run_manifest(
        args.out, "check-geometry", vars(args), args.seed, [args.manifold], cfg, time.perf_counter() - t0
    )
    bad = [pid for pid, rep in reports.items() if not rep.valid]
    if bad:
        print(f"check-geometry: invalid patches: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"check-geometry: {len(reports)} patches valid")
    return 0


def _load_checked(manifold_path, cfg):
    manifold = load_manifold(manifold_path)
    _check_all(manifold, cfg)
    bad = manifold.invalid_patches()
    if bad:
        raise WingcpError(f"geometry check failed for patches: {', '.join(bad)}")
    return manifold


def cmd_extract(args, cfg):
    t0 = time.perf_counter()
    manifold = _load_checked(args.manifold, cfg)
    samples = load_samples(args.samples, known_patches=set(manifold.patch_ids))
    if not samples:
        raise WingcpError(f"{args.samples}: no samples to extract")
    result = assemble(manifold, samples, d=args.d, convention=args.convention)
    manifest = {
        "d": args.d,
        "convention": args.convention,
        "source_samples": os.path.abspath(args.samples),
        "source_manifold": os.path.abspath(args.manifold),
        "normalization": "none (fit at training time)",
    }
    sibling = os.path.join(os.path.dirname(os.path.abspath(args.samples)), "dataset_manifest.json")
    if os.path.exists(sibling):
        with open(sibling) as fh:
            manifest["dataset_manifest"] = json.load(fh)
    save_feature_cache(args.out, result, samples, manifest)
    _write_run_manifest(
        args.out,
        "extract",
        vars(args),
        args.seed,
        [args.manifold, args.samples],
        cfg,
        time.perf_counter() - t0,
    )
    print(f"extract: {len(result.kept)} samples kept, {len(result.dropped)} dropped -> {args.out}")
    return 0


def _train_once(batch, meta, model_name, cfg, seed, outdir, fold_note, convention=None):
    """Shared train path: split, normalize, fit, checkpoint. Returns val info."""
    train_cfg = TrainConfig(seed=seed, **_given(cfg, TrainConfig))
    n_probe = cfg.get("probe_points", 0)
    if n_probe < 0:
        raise ConfigError(f"probe_points must be >= 0, got {n_probe}")
    aoas = np.array([float(r["AoA"]) for r in meta])
    train_idx, val_idx = train_val_split(
        np.arange(batch.n), aoas, seed=seed, **_given(cfg, train_val_split)
    )
    normalizer = fit_normalizer(
        batch.subset(train_idx), fitted_on=f"train({fold_note})", **_given(cfg, fit_normalizer)
    )
    norm_all = normalizer.apply(batch)
    train_batch = norm_all.subset(train_idx)
    val_batch = norm_all.subset(val_idx) if val_idx.size else None

    model = build_model(preset(model_name, seed=seed, **_given(cfg, ModelConfig)))
    probes = (
        np.unique(np.linspace(0, train_batch.n - 1, n_probe).astype(int)) if n_probe > 0 else ()
    )
    result = train(model, train_batch, val_batch, train_cfg, probe_indices=probes)

    os.makedirs(outdir, exist_ok=True)
    save_checkpoint(
        os.path.join(outdir, "checkpoint"),
        model,
        normalizer,
        extra={
            "model": model_name,
            "seed": seed,
            "fold": fold_note,
            "epochs": result.epochs_run,
            "convention": convention,
        },
    )
    _write_losses(os.path.join(outdir, "losses.csv"), result)
    if result.weight_log is not None:
        _write_weight_log(os.path.join(outdir, "weight_log.csv"), result, np.asarray(probes))
    return model, normalizer, result, train_idx, val_idx


def cmd_train(args, cfg):
    t0 = time.perf_counter()
    batch, meta, cache_manifest = load_feature_cache(args.features)
    model, normalizer, result, train_idx, val_idx = _train_once(
        batch, meta, args.model, cfg, args.seed, args.out, fold_note="full-dataset",
        convention=cache_manifest.get("convention"),
    )
    summary = {
        "model": args.model,
        "final_train_mse": result.final_train_mse,
        "final_val_mse": float(result.val_curve[-1]),
        "n_train": int(train_idx.size),
        "n_val": int(val_idx.size),
        "d": cache_manifest.get("d"),
        "convention": cache_manifest.get("convention"),
    }
    with open(os.path.join(args.out, "train_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_run_manifest(
        args.out, "train", vars(args), args.seed, [], cfg, time.perf_counter() - t0
    )
    print(f"train: final train MSE {result.final_train_mse:.6g} -> {args.out}")
    return 0


def _evaluate(model, normalizer, batch, indices):
    """Predict a subset and return (predictions, raw targets) denormalized."""
    sub = batch.subset(indices)
    norm = normalizer.apply(sub)
    pred = model.forward(norm)
    pred = normalizer.invert_targets(pred)
    return pred, sub.y


def cmd_crossval(args, cfg):
    t0 = time.perf_counter()
    manifold = _load_checked(args.manifold, cfg)
    samples = load_samples(args.samples, known_patches=set(manifold.patch_ids))
    result = assemble(manifold, samples, d=args.d, convention=args.convention)
    batch = result.batch
    meta = meta_rows(result, samples)
    fold_aoas = cfg.get("fold_aoas", FOLD_AOAS_DEFAULT)
    folds = fold_split([samples[i] for i in result.kept], fold_aoas)

    fold_mse, fold_n = {}, {}
    for k, (train_idx, test_idx) in enumerate(folds):
        label = _label(fold_aoas[k])
        fold_dir = os.path.join(args.out, f"fold_{label}")
        fold_seed = args.seed + k
        train_meta = [meta[i] for i in train_idx]
        model, normalizer, _, _, _ = _train_once(
            batch.subset(train_idx), train_meta, args.model, cfg, fold_seed, fold_dir,
            fold_note=f"fold={label}", convention=args.convention,
        )
        pred, targets = _evaluate(model, normalizer, batch, test_idx)
        mse = loss_mse(pred, targets)
        fold_mse[label] = mse
        fold_n[label] = int(test_idx.size)
        _write_err_map(os.path.join(fold_dir, "err_map.csv"), meta, test_idx, pred, targets)
        with open(os.path.join(fold_dir, "eval.json"), "w") as fh:
            json.dump({"fold": label, "test_mse": mse, "n_test": int(test_idx.size)}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"crossval fold {label}: test MSE {mse:.6g} ({test_idx.size} samples)")

    report = EvalReport.from_folds(fold_mse, fold_n)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "test_mse", "n_test"])
        for label in (_label(a) for a in fold_aoas):
            writer.writerow([label, format(fold_mse[label], ".17g"), fold_n[label]])
        writer.writerow(["average", format(report.average_mse, ".17g"), ""])
    _write_run_manifest(
        args.out,
        "crossval",
        vars(args),
        args.seed,
        [args.manifold, args.samples],
        cfg,
        time.perf_counter() - t0,
    )
    print(f"crossval: average MSE {report.average_mse:.6g} -> {args.out}")
    return 0


def cmd_eval(args, cfg):
    t0 = time.perf_counter()
    model, normalizer, _ = load_checkpoint(args.checkpoint)
    if normalizer is None:
        raise WingcpError(f"checkpoint {args.checkpoint} has no normalizer; cannot evaluate")
    batch, meta, _ = load_feature_cache(args.features)
    pred, targets = _evaluate(model, normalizer, batch, np.arange(batch.n))
    mse = loss_mse(pred, targets)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "eval.json"), "w") as fh:
        json.dump({"test_mse": mse, "n_test": int(batch.n)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_err_map(os.path.join(args.out, "err_map.csv"), meta, np.arange(batch.n), pred, targets)
    _write_run_manifest(args.out, "eval", vars(args), args.seed, [], cfg, time.perf_counter() - t0)
    print(f"eval: MSE {mse:.6g} over {batch.n} samples -> {args.out}")
    return 0


def cmd_predict(args, cfg):
    t0 = time.perf_counter()
    model, normalizer, _ = load_checkpoint(args.checkpoint)
    if normalizer is None:
        raise WingcpError(f"checkpoint {args.checkpoint} has no normalizer; cannot predict")
    batch, meta, _ = load_feature_cache(args.features)
    norm = normalizer.apply(batch)
    pred = normalizer.invert_targets(model.forward(norm))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "predictions.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "prediction"])
        for i, p in enumerate(pred):
            writer.writerow([i, format(p, ".17g")])
    _write_run_manifest(args.out, "predict", vars(args), args.seed, [], cfg, time.perf_counter() - t0)
    print(f"predict: {batch.n} predictions -> {args.out}")
    return 0


def cmd_report(args, cfg):
    t0 = time.perf_counter()
    with open(os.path.join(args.run, "report.json")) as fh:
        run = json.load(fh)
    # report.json stores folds key-sorted as strings; list them by numeric AoA
    fold_mse = {label: run["fold_mse"][label] for label in sorted(run["fold_mse"], key=float)}
    report = EvalReport.from_folds(fold_mse, run.get("n_samples"))
    baseline_mse = None
    if args.baseline:
        with open(os.path.join(args.baseline, "report.json")) as fh:
            baseline_mse = json.load(fh)["fold_mse"]
        report.attach_baseline(baseline_mse)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["fold", "model_mse"]
        if baseline_mse is not None:
            header += ["baseline_mse", "reduction_pct"]
        writer.writerow(header)
        for label in report.fold_mse:
            row = [label, format(report.fold_mse[label], ".17g")]
            if baseline_mse is not None:
                row += [
                    format(float(baseline_mse[label]), ".17g"),
                    format(report.reduction_vs_baseline[label], ".17g"),
                ]
            writer.writerow(row)
        avg_row = ["average", format(report.average_mse, ".17g")]
        if baseline_mse is not None:
            avg_row += ["", format(report.average_reduction, ".17g")]
        writer.writerow(avg_row)
        writer.writerow(["# note: average = unweighted mean of per-fold values"])
    _write_run_manifest(args.out, "report", vars(args), args.seed, [], cfg, time.perf_counter() - t0)
    if report.average_reduction is not None:
        print(f"report: average reduction {report.average_reduction:.2f}% -> {args.out}")
    else:
        print(f"report: average MSE {report.average_mse:.6g} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser():
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
    p.add_argument("--convention", choices=CONVENTIONS, default=DEFAULT_CONVENTION,
                   help="Ricci contraction convention")
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
    p.add_argument("--convention", choices=CONVENTIONS, default=DEFAULT_CONVENTION)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else {}
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](args, cfg)
    except WingcpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
