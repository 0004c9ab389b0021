"""No pipeline step wakes OpenBLAS's worker threads on the default wing.

Every product the model makes from OpenBLAS's split size on is taken in
blocks below it (``wingcp.nn._matmul``), so OpenBLAS runs each on the
calling thread and its workers stay asleep. A woken worker spins for a
second or two, on the caller's CPU when both are scheduled on one. A
child process at two OpenBLAS threads runs a default-wing extract, a
2-epoch rgfil train, a predict and a 2-fold crossval, and reads the CPU
time of its threads other than the main one after each step: from the
first step on, it must not grow. It reads them once before the first step
too, so a failure's message gives each thread's ticks at import and in
each step. The child reads utime + stime of
``/proc/self/task/*/stat`` and nothing else; the test skips where that
directory is missing or the child has a single thread.
"""

import json
import os
import subprocess
import sys

import pytest

import wingcp
from wingcp.cli import main

# runs the CLI steps given as a JSON list in one process and prints, before the first and
# after each, the CPU time in clock ticks of every thread but the main one, as JSON;
# "threads" counts them all
CHILD = """
import json, os, sys
from wingcp.cli import main

def others():
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()  # fields from the state on
            ticks[tid] = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks

before = others()  # OpenBLAS's workers spin for a while once numpy's import starts them
after = []
for step in json.loads(sys.argv[1]):
    if main(step) != 0:
        sys.exit(f"{step[0]} failed")
    after.append(others())
print(json.dumps({"threads": len(os.listdir("/proc/self/task")), "before": before, "after": after}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_default_wing_steps_leave_blas_workers_asleep(tmp_path):
    data = str(tmp_path / "data")
    assert main(["synth", "--seed", "7", "--out", data]) == 0
    conf = tmp_path / "steps.conf"
    conf.write_text("epochs = 2\nfold_aoas = 7, 20\n")
    manifold, samples = os.path.join(data, "manifold.csv"), os.path.join(data, "samples.csv")
    features, run = str(tmp_path / "features"), str(tmp_path / "train")
    steps = [
        ["extract", "--manifold", manifold, "--samples", samples, "--out", features],
        ["train", "--features", features, "--model", "rgfil", "--seed", "7", "--out", run, "--config", str(conf)],
        ["predict", "--checkpoint", os.path.join(run, "checkpoint"), "--features", features,
         "--out", str(tmp_path / "predict")],
        ["crossval", "--manifold", manifold, "--samples", samples, "--model", "rgfil", "--seed", "7",
         "--out", str(tmp_path / "crossval"), "--config", str(conf)],
    ]
    # the child imports the same wingcp as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(wingcp.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2", PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(steps)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["threads"] == 1:
        pytest.skip("the child runs a single thread")
    first, *later = result["after"]
    # on failure, the ticks each non-main thread gained before the first step and in each step
    names, snapshots = ["import"] + [step[0] for step in steps], [result["before"]] + result["after"]
    gained = {
        name: {tid: ticks - before.get(tid, 0) for tid, ticks in after.items()}
        for name, before, after in zip(names, [{}] + snapshots, snapshots)
    }
    assert later == [first] * len(later), f"CPU ticks gained per step and thread: {gained}"
