"""Per-sample error maps, pairwise MSE-reduction arithmetic and the fold report of a crossval run."""

import numpy as np

__all__ = ["error_map", "reduction", "fold_report"]


def error_map(predictions, targets) -> np.ndarray:
    """Absolute per-sample prediction errors |y - yhat|."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {targets.shape}")
    return np.abs(targets - predictions)


def reduction(model_mse_per_fold: dict, baseline_mse_per_fold: dict):
    """Per-fold MSE reduction of a model against a baseline, in percent.

    eta_k = (base_k - model_k) / base_k * 100; the average is the
    unweighted mean over folds. Fold keys must match and every baseline
    MSE must be positive.
    """
    model_keys = set(model_mse_per_fold)
    base_keys = set(baseline_mse_per_fold)
    if model_keys != base_keys:
        raise ValueError(f"fold keys differ: {sorted(model_keys)} vs {sorted(base_keys)}")
    etas = {}
    for key in model_mse_per_fold:
        base = float(baseline_mse_per_fold[key])
        if base <= 0.0:
            raise ValueError(f"baseline MSE must be positive for fold {key!r}, got {base}")
        etas[key] = (base - float(model_mse_per_fold[key])) / base * 100.0
    average = float(np.mean(list(etas.values())))
    return etas, average


def fold_report(fold_mse: dict, n_samples: dict | None = None, baseline_mse: dict | None = None) -> dict:
    """A run's report.json object: per-fold MSEs on denormalized targets and their unweighted mean.

    Given the baseline's per-fold MSEs, it adds each fold's reduction in
    percent and their mean (see :func:`reduction`).
    """
    report = {
        "fold_mse": dict(fold_mse),
        "average_mse": float(np.mean(list(fold_mse.values()))),
        "n_samples": dict(n_samples or {}),
        "notes": ["average = unweighted mean of per-fold MSEs"],
    }
    if baseline_mse is not None:
        report["reduction_pct"], report["average_reduction_pct"] = reduction(fold_mse, baseline_mse)
    return report
