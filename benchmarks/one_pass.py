"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 benchmarks/one_pass.py --workload census --seed 3 --trace 0

``run.py`` starts this once per pass, so no program state (above all the
``lru_cache`` on ``oracle.enumerate_forests``) carries from one pass to the
next and each pass has its own memory peak.  The pass times the host
reference computation (``reference.py``), builds its inputs (timed as set-up,
from before the package is imported), runs the workload's operations (timed
as the pass), times the reference again, then checks every output apart from
the timing.  With ``--trace 1`` the set-up and the operations run under the span
tracer and the line carries the per-layer metrics instead.
"""

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import reference
import tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "benchmarks" / "out"


def import_package():
    """Import cellforest from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import cellforest

    if Path(cellforest.__file__).resolve().parent != ROOT / "src" / "cellforest":
        raise ImportError(f"cellforest imported from {cellforest.__file__}, not from {ROOT / 'src'}")
    import workloads

    return workloads


def run_pass(workload, seed, trace):
    reference_before = reference.reference_seconds()
    started = time.perf_counter()
    workloads = import_package()
    from cellforest import oracle

    census = oracle.enumerate_forests
    setup, operations = workloads.WORKLOADS[workload]
    with tracer.Tracer() if trace else contextlib.nullcontext() as spans:
        inputs = setup(seed)
        setup_s = time.perf_counter() - started
        ops = operations(inputs)
        results, errors, op_seconds = {}, {}, []
        start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                results[op.label] = op.run()
            except Exception as exc:  # a failed operation is counted, the pass goes on
                errors[op.label] = f"{type(exc).__name__}: {exc}"
            op_seconds.append(time.perf_counter() - t)
        pass_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference_after = reference.reference_seconds()

    report = {}
    if trace:
        report["layers"] = tracer.layer_metrics(
            spans.names, spans.spans, len(spans.homology_keys), census.cache_info().hits, pass_s
        )
        OUT.mkdir(parents=True, exist_ok=True)
        spans.dump(OUT / f"trace-{workload}-seed{seed}.json")

    failed, unexpected = [], []
    for op in ops:
        known = False
        if op.label not in errors:
            try:
                if op.check(results[op.label], results):
                    continue
                known = op.known_fault is not None and op.known_fault(results[op.label])
                errors[op.label] = "wrong output"
            except Exception as exc:
                errors[op.label] = f"check raised {type(exc).__name__}: {exc}"
        failed.append(op.label)
        if not known:
            unexpected.append(op.label)

    digest = hashlib.sha256(repr([results.get(op.label) for op in ops]).encode()).hexdigest()
    report.update(
        reference_s=[reference_before, reference_after],
        setup_s=setup_s,
        pass_s=pass_s,
        peak_rss_mb=peak_rss_mb,
        attempted=len(ops),
        failed=failed,
        unexpected=unexpected,
        errors=errors,
        digest=digest,
        ops=[[op.label, s] for op, s in zip(ops, op_seconds)],
    )
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
