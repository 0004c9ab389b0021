"""Whole-pipeline benchmark of the wingcp command line.

Usage (from the repository root):

    python3 pipebench/run.py --workload paper-default --seed 1 --seconds 10 --trace 0

One client runs ``wingcp`` commands in this process, one after another:
set-up (inputs, check-geometry, a warm-up train and predict) several
times, then whole rounds until ``--seconds`` have passed (the last round
runs to its end). A round is two halves with a crossval between them; a
half is an extract and two (train, predict x 10) legs, so the repeated
calls of each kind are spread over the round. Every operation's outputs
are checked (see checks.py) and compared byte for byte with the same
operation's first run in this workload's first process, whose digests
are kept in ``.pipebench_runs/digests/``. ``--seed`` is recorded but
changes nothing: the workloads have fixed inputs (see workloads.py). The
last stdout line is one JSON object with the metrics BENCHMARK.json
names: end-to-end metrics with ``--trace 0``, per-layer metrics from
wrapped library calls with ``--trace 1``. Run artefacts go to ``.pipebench_runs/<workload>/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time

T0 = time.perf_counter()  # set-up time counts every import from here on

# Keep BLAS pools within the CPUs this process may use; must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    D, FIXED_SEED, FOLD_AOAS, WORKLOADS, count_rows, head_samples, make_inputs, write_config,
)

SETUPS = 3
LEGS_PER_HALF = 2  # (train, predict x PREDICTS_PER_LEG) legs in each half of a round
PREDICTS_PER_LEG = 10
WARMUP_SAMPLES = 18  # rows of samples.csv the warm-up extract, train and predict use
WARMUP_EPOCHS = 2
DIGESTS = os.path.join(".pipebench_runs", "digests")  # outlives the per-workload directory


def _import_wingcp():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "wingcp", "__init__.py")):
        sys.exit(f"pipebench: no wingcp sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import wingcp
    import wingcp.cli  # noqa: F401  (loads every wingcp module)

    if not os.path.abspath(wingcp.__file__).startswith(src + os.sep):
        sys.exit(f"pipebench: imported wingcp from {wingcp.__file__}, not from {src}")
    return wingcp


class Runner:
    """Runs CLI operations, times them, checks them and counts failures.

    ``digests`` maps an operation to the output digest of its first run,
    from an earlier process when one left them; a run that differs fails.
    """

    def __init__(self, wingcp, tracer, digests):
        self.main = wingcp.cli.main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.digests = digests

    def cli(self, argv):
        """Run one wingcp command with its stdout captured; returns (exit code, seconds)."""
        span = self.tracer.begin(self.tracer.name_id("cli." + argv[0])) if self.tracer else None
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = self.main(argv)
            finally:
                elapsed = time.perf_counter() - t0
                if span is not None:
                    self.tracer.finish(span)
        return rc, elapsed

    def op(self, key, argv, outdir, check):
        """One counted operation: run it, check its outputs, compare with its first run.

        Returns the operation's wall seconds, or None when it failed.
        """
        shutil.rmtree(outdir, ignore_errors=True)
        self.attempted += 1
        try:
            rc, elapsed = self.cli(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        if rc != 0:
            self.failed += 1
            self.correct = False
            self.problems.append(f"{key}: exit {rc}")
            return None
        try:
            errors = check()
        except (OSError, KeyError, ValueError) as exc:  # an output file missing or malformed
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        d = checks.digest(outdir)
        if self.digests.get(key, d) != d:
            errors.append("outputs differ from the first run of this operation")
        elif not errors:
            self.digests.setdefault(key, d)
        if errors:
            self.failed += 1
            self.correct = False
            self.problems.extend(f"{key}: {e}" for e in errors)
            return None
        return elapsed


def _peak_rss_mb():
    """High-water resident set of this process image.

    VmHWM starts afresh at exec; getrusage's ru_maxrss keeps the parent's
    peak across fork and exec and so reads the launcher's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _source_digest(wingcp):
    """Short SHA-256 over the wingcp package's Python sources."""
    root = os.path.dirname(wingcp.__file__)
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
        with open(os.path.join(root, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files if f != "run_manifest.json")
    return total


def run(args):
    wingcp = _import_wingcp()
    import_s = time.perf_counter() - T0

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer, wingcp)
    # The program's seed is FIXED_SEED in every run, so with the same sources and
    # BLAS thread count (the bits of a BLAS result depend on it) one workload's
    # outputs are the same whatever --seed says: every process after the first
    # checks its outputs against the first one's.
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    digest_file = os.path.join(DIGESTS, f"{wl.name}-{_source_digest(wingcp)}-blas{threads}.json")
    digests = {}
    if os.path.exists(digest_file):
        with open(digest_file) as fh:
            digests = json.load(fh)
    runner = Runner(wingcp, tracer, digests)

    base = os.path.join(".pipebench_runs", wl.name)
    shutil.rmtree(base, ignore_errors=True)
    inputs, warm, ops = (os.path.join(base, d) for d in ("inputs", "warm", "ops"))
    os.makedirs(warm)
    os.makedirs(ops)
    seed = str(FIXED_SEED)
    train_conf, cv_conf, warm_conf = (os.path.join(base, f) for f in ("train.conf", "cv.conf", "warm.conf"))
    write_config(train_conf, {"epochs": wl.train_epochs})
    write_config(cv_conf, {"epochs": wl.crossval_epochs})
    write_config(warm_conf, {"epochs": WARMUP_EPOCHS})
    manifold, samples = os.path.join(inputs, "manifold.csv"), os.path.join(inputs, "samples.csv")

    def traced_range(fn):
        """Run fn; return the span index range and counter deltas it produced."""
        if tracer is None:
            fn()
            return None
        lo, before = len(tracer.start), dict(tracer.counters)
        fn()
        delta = {k: tracer.counters.get(k, 0) - before.get(k, 0) for k in layers.COUNTERS}
        return lo, len(tracer.start), delta

    # ---- set-up, several times; the median is reported
    def setup():
        make_inputs(wl, lambda argv: runner.cli(argv)[0], inputs)
        warm_samples = os.path.join(warm, "samples.csv")
        head_samples(samples, warm_samples, WARMUP_SAMPLES)
        feat, run_dir = os.path.join(warm, "features"), os.path.join(warm, "train")
        for argv in (
            ["check-geometry", "--manifold", manifold, "--out", os.path.join(warm, "geo")],
            ["extract", "--manifold", manifold, "--samples", warm_samples, "--d", str(D), "--out", feat],
            ["train", "--features", feat, "--model", wl.model, "--config", warm_conf, "--seed", seed,
             "--out", run_dir],
            ["predict", "--checkpoint", os.path.join(run_dir, "checkpoint"), "--features", feat,
             "--out", os.path.join(warm, "predict")],
        ):
            rc, _ = runner.cli(argv)
            if rc != 0:
                raise RuntimeError(f"set-up step {argv[0]} failed with exit {rc}")

    setup_times, setup_ranges = [], []
    for _ in range(SETUPS):
        t = time.perf_counter()
        setup_ranges.append(traced_range(setup))
        setup_times.append(time.perf_counter() - t)

    n_samples = count_rows(samples)
    feat, train_dir = os.path.join(ops, "extract"), os.path.join(ops, "train")
    pred_dir, cv_dir = os.path.join(ops, "predict"), os.path.join(ops, "crossval")
    ckpt = os.path.join(train_dir, "checkpoint")

    # ---- whole rounds until --seconds have passed; the last round runs to its end
    rounds, round_ranges, round_times = [], [], []

    def one_round():
        # Short calls are timed several times and the median call reported, and
        # each kind is spread over the round, so that neither a burst of host
        # load nor a slow spell of a few seconds decides the result.
        extract_s, train_s, pred_s, r = [], [], [], {}

        def timed(times, t):
            if t is not None:
                times.append(t)

        def extract():
            timed(extract_s, runner.op(
                "extract", ["extract", "--manifold", manifold, "--samples", samples, "--d", str(D), "--out", feat],
                feat, lambda: checks.check_features(feat, manifold, D)))
            if tracer:
                tracer.count("data.feature_cache.bytes", _dir_bytes(feat))

        def leg():
            timed(train_s, runner.op(
                "train", ["train", "--features", feat, "--model", wl.model, "--config", train_conf,
                          "--seed", seed, "--out", train_dir],
                train_dir, list))
            for _ in range(PREDICTS_PER_LEG):
                timed(pred_s, runner.op(
                    "predict", ["predict", "--checkpoint", ckpt, "--features", feat, "--out", pred_dir],
                    pred_dir, lambda: checks.check_predictions(pred_dir, feat, train_dir)))

        def crossval():
            t = runner.op("crossval", ["crossval", "--manifold", manifold, "--samples", samples,
                                       "--model", wl.model, "--d", str(D), "--config", cv_conf,
                                       "--seed", seed, "--out", cv_dir],
                          cv_dir, lambda: checks.check_crossval(cv_dir, samples, FOLD_AOAS))
            if t is not None:
                r["crossval_s"] = t
                with open(os.path.join(cv_dir, "report.json")) as fh:
                    r["cv_mse"] = json.load(fh)["average_mse"]

        for half in range(2):
            extract()
            for _ in range(LEGS_PER_HALF):
                leg()
            if half == 0:
                crossval()
        if extract_s:
            r["extract_samples_per_s"] = n_samples / statistics.median(extract_s)
        if train_s:
            with open(os.path.join(train_dir, "train_summary.json")) as fh:
                n_train = json.load(fh)["n_train"]
            r["train_samples_per_s"] = wl.train_epochs * n_train / statistics.median(train_s)
        if pred_s:
            r["predict_samples_per_s"] = n_samples / statistics.median(pred_s)
        rounds.append(r)

    start = time.perf_counter()
    while not round_times or time.perf_counter() - start < args.seconds:
        t = time.perf_counter()
        round_ranges.append(traced_range(one_round))
        round_times.append(time.perf_counter() - t)

    end_to_end = {}
    for m in bench["end_to_end"]:
        if m["name"] == "setup_s":
            value = import_s + statistics.median(setup_times)
        elif m["name"] == "peak_rss_mb":
            value = _peak_rss_mb()
        else:
            vals = [r[m["name"]] for r in rounds if m["name"] in r]
            if not vals:  # every operation behind it failed; counted in `failed`
                continue
            value = statistics.median(vals)
        end_to_end[m["name"]] = {"value": value, "unit": m["unit"]}
    if runner.failed == 0 and not os.path.exists(digest_file):
        os.makedirs(DIGESTS, exist_ok=True)
        with open(digest_file, "w") as fh:
            json.dump(runner.digests, fh, indent=2, sort_keys=True)

    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "import_s": import_s, "setup_times": setup_times, "round_times": round_times, "rounds": rounds,
        "n_samples": n_samples, "digests": runner.digests, "problems": runner.problems,
        "end_to_end": end_to_end,
    }
    metrics = end_to_end
    if tracer:
        tracer.unwrap_all()
        metrics = layers.layer_metrics(tracer, bench["per_layer"], setup_ranges, round_ranges)
        detail["per_layer"] = metrics
        detail["spans_per_round"] = statistics.median(hi - lo for lo, hi, _ in round_ranges)
        tracer.save(os.path.join(base, "spans.npz"))
    with open(os.path.join(base, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
    for p in runner.problems:
        print(f"pipebench: {p}", file=sys.stderr)
    return {"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
