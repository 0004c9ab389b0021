"""Where the traced run wraps wingcp, and how spans become per-layer metrics.

Round metrics are totals over one round (its extract, train and predict
calls and its crossval), taken as the median over the run's rounds. Set-up
metrics (``bezier.check_all.s``, ``synth.generate_synthetic.s``) are
totals over one set-up, median over the run's set-ups.
"""

import statistics

import numpy as np

from tracing import aggregate, child_calls, under

# metric -> (span name, field): field 0 = calls, 1 = total s, 2 = self s
_FROM_SPANS = {
    "bezier.eval_patch.calls": ("bezier.eval_patch", 0),
    "bezier.eval_patch.self_s": ("bezier.eval_patch", 2),
    "bezier.jet.calls": ("bezier.jet", 0),
    "bezier.jet.self_s": ("bezier.jet", 2),
    "stencil.build_stencil.calls": ("stencil.build_stencil", 0),
    "stencil.build_stencil.self_s": ("stencil.build_stencil", 2),
    "stencil.calibrate_offset.calls": ("stencil.calibrate_offset", 0),
    "stencil.calibrate_offset.self_s": ("stencil.calibrate_offset", 2),
    "geometry.feature_bundle.calls": ("geometry.feature_bundle", 0),
    "geometry.feature_bundle.self_s": ("geometry.feature_bundle", 2),
    "geometry.metric.self_s": ("geometry.metric", 2),
    "geometry.christoffel.self_s": ("geometry.christoffel", 2),
    "geometry.riemann_tensor.self_s": ("geometry.riemann_tensor", 2),
    "geometry.contract.self_s": ("geometry.contract", 2),
    "data.load_samples.s": ("data.load_samples", 1),
    "data.assemble.s": ("data.assemble", 1),
    "data.save_feature_cache.s": ("data.save_feature_cache", 1),
    "data.load_feature_cache.s": ("data.load_feature_cache", 1),
    "data.subset.calls": ("data.subset", 0),
    "data.normalizer_apply.s": ("data.normalizer_apply", 1),
    "nn.Conv2d.calls": ("nn.Conv2d.forward", 0),
    "nn.Conv2d.forward.self_s": ("nn.Conv2d.forward", 2),
    "nn.Conv2d.backward.self_s": ("nn.Conv2d.backward", 2),
    "nn.Dense.forward.self_s": ("nn.Dense.forward", 2),
    "nn.Dense.backward.self_s": ("nn.Dense.backward", 2),
    "model.loss_and_grads.calls": ("model.loss_and_grads", 0),
    "model.loss_and_grads.s": ("model.loss_and_grads", 1),
    "model.adam_step.calls": ("model.adam_step", 0),
    "model.adam_step.self_s": ("model.adam_step", 2),
    "model.forward.calls": ("model.forward", 0),
    "model.forward.s": ("model.forward", 1),
    "model.train.s": ("model.train", 1),
    "model.save_checkpoint.s": ("model.save_checkpoint", 1),
    "model.load_checkpoint.s": ("model.load_checkpoint", 1),
}

_SETUP_SPANS = {
    "bezier.check_all.s": "bezier.check_all",
    "synth.generate_synthetic.s": "synth.generate_synthetic",
}

# counters the wrappers keep (cumulative; rounds take differences)
COUNTERS = (
    "stencil.clamped_stencils",
    "stencil.zero_spacing_slots",
    "geometry.distinct_points",
    "data.subset.bytes",
    "data.feature_cache.bytes",
)


def install(tracer, wingcp):
    """Wrap every traced name of the ``wingcp`` package in place."""
    bezier, cli, data, geometry = wingcp.bezier, wingcp.cli, wingcp.data, wingcp.geometry
    model, nn, stencil = wingcp.model, wingcp.nn, wingcp.stencil
    seen = set()

    def new_extract(args):
        seen.clear()

    def end_extract(args, result):
        tracer.count("geometry.distinct_points", len(seen))

    def on_bundle(args, result):
        convention = args[2] if len(args) > 2 else geometry.DEFAULT_CONVENTION
        p = args[1]
        seen.add((p.patch_id, p.u, p.v, convention))

    def on_stencil(args, st):
        tracer.count("stencil.clamped_stencils", int(any(st.clamped)))
        tracer.count("stencil.zero_spacing_slots", int(np.sum(st.achieved_spacings == 0.0)))

    def on_subset(args, batch):
        nbytes = sum(x.nbytes for x in batch.groups().values()) + batch.y.nbytes
        tracer.count("data.subset.bytes", nbytes)

    w = tracer.wrap
    w(stencil, "eval_patch", "bezier.eval_patch")
    w(geometry, "jet", "bezier.jet")
    w(bezier.PiecewiseManifold, "check_all", "bezier.check_all")
    w(data, "build_stencil", "stencil.build_stencil", after=on_stencil)
    w(stencil, "calibrate_offset", "stencil.calibrate_offset")
    w(data, "feature_bundle", "geometry.feature_bundle", after=on_bundle)
    for fn in ("metric", "christoffel", "riemann_tensor", "contract"):
        w(geometry, fn, f"geometry.{fn}")
    w(cli, "load_samples", "data.load_samples")
    w(cli, "assemble", "data.assemble", before=new_extract, after=end_extract)
    w(cli, "save_feature_cache", "data.save_feature_cache")
    w(cli, "load_feature_cache", "data.load_feature_cache")
    w(data.TensorBatch, "subset", "data.subset", after=on_subset)
    w(data.NormalizationSpec, "apply", "data.normalizer_apply")
    for cls in (nn.Conv2d, nn.Dense, nn.LeakyReLU):
        for fn in ("forward", "backward"):
            w(cls, fn, f"nn.{cls.__name__}.{fn}")
    for cls in (model.FusionModel, model.ConcatModel):
        w(cls, "loss_and_grads", "model.loss_and_grads")
        w(cls, "forward", "model.forward")
    w(model, "adam_step", "model.adam_step")
    w(cli, "train", "model.train")
    w(cli, "save_checkpoint", "model.save_checkpoint")
    w(cli, "load_checkpoint", "model.load_checkpoint")
    w(cli, "generate_synthetic", "synth.generate_synthetic")


def _round_values(tracer, arrays, lo, hi, counts):
    agg = aggregate(tracer, arrays, lo, hi)
    out = {m: agg[span][field] for m, (span, field) in _FROM_SPANS.items()}
    out["nn.LeakyReLU.self_s"] = agg["nn.LeakyReLU.forward"][2] + agg["nn.LeakyReLU.backward"][2]
    offsets = out["stencil.calibrate_offset.calls"]
    evals = child_calls(tracer, arrays, lo, hi, "bezier.eval_patch", "stencil.calibrate_offset")
    out["stencil.evals_per_offset"] = evals / offsets if offsets else 0.0
    for key in ("stencil.clamped_stencils", "stencil.zero_spacing_slots"):
        out[key] = counts[key]
    bundles = out["geometry.feature_bundle.calls"]
    distinct = counts["geometry.distinct_points"]
    out["geometry.distinct_point_ratio"] = distinct / bundles if bundles else 0.0
    out["data.subset.bytes"] = counts["data.subset.bytes"]
    out["data.feature_cache.bytes"] = counts["data.feature_cache.bytes"]
    out["cli.crossval.assemble_s"] = under(tracer, arrays, lo, hi, "data.assemble", "cli.crossval")
    return out


def layer_metrics(tracer, per_layer, setups, rounds):
    """Median values of the ``per_layer`` metrics of BENCHMARK.json.

    ``setups``/``rounds`` hold (lo, hi, counter deltas) of each set-up and round.
    """
    arrays = tracer.arrays()
    per_round = [_round_values(tracer, arrays, lo, hi, counts) for lo, hi, counts in rounds]
    out = {}
    for entry in per_layer:
        metric, unit = entry["name"], entry["unit"]
        if metric in _SETUP_SPANS:
            vals = [aggregate(tracer, arrays, lo, hi)[_SETUP_SPANS[metric]][1] for lo, hi, _ in setups]
        else:
            vals = [r[metric] for r in per_round]
        out[metric] = {"value": statistics.median(vals), "unit": unit}
    return out
