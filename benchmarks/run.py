"""cellforest benchmark: run one workload for a fixed time, print one JSON result line.

    python3 benchmarks/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Passes of the workload run one at a time, each in a fresh interpreter
(``one_pass.py``), until the next one would end after ``--seconds`` (at
least three untraced passes or one traced pass).  With ``--trace 0`` the last
line reports the end-to-end metrics, each a median over the passes: ``pass_s``
(the workload's calls), ``setup_s`` (building their inputs) and
``peak_rss_mb`` (the peak resident memory of a pass).  Times are scaled to a
fixed host speed by the reference computation each pass also times
(``reference.py``).  With ``--trace 1`` every pass runs under the span tracer
and the line reports the per-layer metrics, again medians over the passes,
with times scaled the same way.  Each pass checks its outputs;
``attempted`` and ``failed`` count operations over all passes, and
``correct`` is false if any operation failed other than with the one known
fault's documented wrong output, or if two passes of the same seed gave different outputs.  Every pass's unscaled figures, with
per-call and reference times, are also written to ``benchmarks/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "benchmarks" / "out"
WORKLOADS = ("spectral", "elimination", "census", "verify")
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_PASSES = {0: 3, 1: 1}
# a pass that outlasts PASS_TIMEOUT_S ends the run with an error
PASS_TIMEOUT_S = 50


def run_one(workload, seed, trace):
    """Run one pass in a fresh interpreter and return its report."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "one_pass.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    passes, walls = [], []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_one(workload, seed, trace))
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES[trace] and elapsed + statistics.median(walls) > seconds:
            return passes


def summarize(passes, trace):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    correct = all(not p["unexpected"] for p in passes) and len({p["digest"] for p in passes}) == 1
    if trace:
        units = {name: tracer.unit(name) for name in tracer.METRIC_NAMES}
        values = {name: statistics.median(p["layers"][name] for p in passes) for name in units}
    else:
        units = END_TO_END
        values = {name: statistics.median(p[name] for p in passes) for name in units}
    scale = reference.REFERENCE_S / statistics.median(statistics.mean(p["reference_s"]) for p in passes)
    metrics = {
        name: {"value": v * scale if units[name] == "s" else v, "unit": units[name]}
        for name, v in values.items()
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cellforest" / "__init__.py").is_file():
        print(f"no cellforest sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        passes = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:  # ValueError: bad JSON
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    result = summarize(passes, args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"result": result, "passes": passes}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
