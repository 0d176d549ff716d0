"""One benchmark worker process: set up one workload, run its operations once
in order, check every output and write a JSON result file.

run.py starts it in a fresh temporary working directory with the package root
on PYTHONPATH, so the catalog cache is the default ``.polarb-cache`` there and
every in-process memo starts cold, as for a user of the CLI.

    python3 worker.py --workload NAME --seed N --out FILE
                      [--setup-only] [--spans FILE] [--capture FILE]

The result records ``ready``, the CLOCK_MONOTONIC reading when set-up ended,
from which run.py derives the set-up time including interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import random
import resource
import sys
import time
import traceback


def no_span(name: str):
    return contextlib.nullcontext()


def run_op(op, span) -> tuple[float, list[str]]:
    """Run one operation inside ``span``; returns (latency, problems).  An
    exception is a failure of the operation, never of the benchmark."""
    start = time.perf_counter()
    try:
        with span("op:" + op.name):
            out = op.run()
    except Exception:
        return time.perf_counter() - start, [f"{op.name}: raised\n{traceback.format_exc()}"]
    latency = time.perf_counter() - start
    try:
        problems = op.check(out)
    except Exception:
        problems = [f"{op.name}: check raised\n{traceback.format_exc()}"]
    return latency, problems


def run_ops(ops, span=no_span) -> tuple[list[dict], float]:
    records = []
    start = time.perf_counter()
    for op in ops:
        latency, problems = run_op(op, span)
        records.append({"name": op.name, "latency_s": latency, "problems": problems})
    return records, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the run and save its spans to this .npz file")
    ap.add_argument("--capture", help="record golden digests to this file instead of checking them")
    args = ap.parse_args(argv)

    import numpy

    import polarb
    import workloads

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "polarb": polarb.__file__,
    }
    tracer = None
    span = no_span
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.span
    oracle = workloads.Oracle.load(capture=bool(args.capture))
    try:
        with span("setup"):
            ops = workloads.WORKLOADS[args.workload](random.Random(f"{args.workload}/{args.seed}"), oracle)
    except Exception:
        result["error"] = f"set-up failed\n{traceback.format_exc()}"
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 1
    result["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    result["op_names"] = [op.name for op in ops]
    if not args.setup_only:
        result["ops"], result["wall_s"] = run_ops(ops, span)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["maxrss_kb"] = usage.ru_maxrss
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.write_spans(args.spans)
    if args.capture:
        with open(args.capture, "w") as fh:
            json.dump(oracle.golden, fh, indent=1, sort_keys=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
