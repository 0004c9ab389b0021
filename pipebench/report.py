"""Repeat the benchmark over seeds and summarise it as Markdown.

Usage (from the repository root):

    python3 pipebench/report.py

For every workload of BENCHMARK.json this runs ``run.py`` once per seed
of SEEDS without tracing and TRACED times with tracing on the first seed.
Every run after a workload's first also checks that its outputs are
byte-identical to the first run's (every file but run_manifest.json), so
a failed share of 0 means they were. It prints the median and quartiles
of every metric, the interquartile spread as a share of the median next
to the bound in BENCHMARK.json, the tracing overhead, and the per-layer
medians. Raw results go to ``.pipebench_runs/report.json``.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)
TRACED = 2  # traced runs per workload, on the first seed


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(".pipebench_runs", workload, "result.json")) as fh:
        result["detail"] = json.load(fh)
    print(f"  {workload} seed={seed} trace={trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(x):
    return f"{x:.6g}"


def span_cost(calls=200_000):
    """Seconds one traced call adds to a no-op function (best of 5)."""
    sys.path.insert(0, HERE)
    import types

    from tracing import Tracer

    ns = types.SimpleNamespace(f=lambda: None)

    def loop():
        f = ns.f
        t = time.perf_counter()
        for _ in range(calls):
            f()
        return time.perf_counter() - t

    bare = min(loop() for _ in range(5))
    Tracer().wrap(ns, "f", "noop")
    return (min(loop() for _ in range(5)) - bare) / calls


def machine():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    threads = os.environ.get("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    return (f"{cpu}, nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, BLAS {blas['name']} {blas['version']} with {threads} threads")


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    cost = span_cost()
    lines = [f"Machine: {machine()}. Run length {seconds} s, seeds {SEEDS[0]}-{SEEDS[-1]}.", ""]
    for name in (w["name"] for w in bench["workloads"]):
        untraced = [run_once(name, s, seconds, 0) for s in SEEDS]
        traced = [run_once(name, SEEDS[0], seconds, 1) for _ in range(TRACED)]
        raw[name] = {"untraced": untraced, "traced": traced}

        shares = {r["failed"] / r["attempted"] for r in untraced}
        lines += [f"### {name}", "",
                  f"Operations per run: {sorted({r['attempted'] for r in untraced})} attempted, "
                  f"failed share {sorted(shares)}, all correct: {all(r['correct'] for r in untraced)}. "
                  f"Rounds per run: {sorted({len(r['detail']['round_times']) for r in untraced})}.", "",
                  "| metric | unit | median | q1 | q3 | spread | bound |", "|---|---|---|---|---|---|---|"]
        for metric, entry in untraced[0]["metrics"].items():
            vals = [r["metrics"][metric]["value"] for r in untraced]
            q1, med, q3 = quartiles(vals)
            lines.append(f"| `{metric}` | {entry['unit']} | {fmt(med)} | {fmt(q1)} | {fmt(q3)} | "
                         f"{(q3 - q1) / med:.3f} | {bounds.get(metric, '')} |")
        base = statistics.median(t for r in untraced for t in r["detail"]["round_times"])
        measured = statistics.median(t for r in traced for t in r["detail"]["round_times"]) / base - 1.0
        spans = statistics.median(t["detail"]["spans_per_round"] for t in traced)
        estimate = spans * cost / base
        layer_runs = [t["metrics"] for t in traced]
        counts_repeat = all(
            m1[k]["value"] == m0[k]["value"]
            for m0, m1 in zip(layer_runs, layer_runs[1:]) for k in m0 if m0[k]["unit"] != "s")
        lines += ["", f"Tracing overhead: median traced round {measured:+.1%} against the median "
                  f"untraced round ({len(traced)} traced runs); {spans:.0f} spans per round at "
                  f"{cost * 1e6:.2f} us each add an estimated {estimate:+.1%}. "
                  f"Counts repeat exactly between traced runs: {counts_repeat}.", "",
                  "| per-layer metric | unit | median of traced runs |", "|---|---|---|"]
        for metric, entry in layer_runs[0].items():
            med = statistics.median(r[metric]["value"] for r in layer_runs)
            lines.append(f"| `{metric}` | {entry['unit']} | {fmt(med)} |")
        lines.append("")
    with open(os.path.join(".pipebench_runs", "report.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
