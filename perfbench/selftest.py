"""Self-test of the benchmark's checking path; takes a few seconds.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Shows that a corrupted golden digest, a
wrong exit code, an exception and a broken worker are each counted as a
failure and never as a pass, and that BENCHMARK.json names exactly the
workloads and metrics the benchmark produces.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops  # noqa: E402


def failures(ops) -> int:
    records, _ = run_ops(ops)
    return run.count_failures([{"ops": records}])[1]


def boom():
    raise RuntimeError("deliberate")


def main() -> int:
    results = []

    def expect(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")

    capture = workloads.Oracle({}, capture=True)
    failures([workloads.cli_op(capture, "info Qplus 2 2")])
    good = workloads.Oracle(dict(capture.golden))
    expect("matching golden digest passes", failures([workloads.cli_op(good, "info Qplus 2 2")]) == 0)

    corrupt = {k: ("0" if v[0] != "0" else "1") + v[1:] for k, v in capture.golden.items()}
    bad = workloads.Oracle(corrupt)
    expect("corrupted golden digest fails", failures([workloads.cli_op(bad, "info Qplus 2 2")]) == 1)
    expect("missing golden digest fails", failures([workloads.cli_op(workloads.Oracle({}), "info Qplus 2 2")]) == 1)

    # q = 6 is no prime power: polarb exits with 2, the usage-error code.
    expect("wrong exit code fails", failures([workloads.cli_op(good, "info Qplus 2 6")]) == 1)
    expect("argparse usage error fails", failures([workloads.cli_op(good, "info Qplus two 2")]) == 1)
    expect("exception in an operation fails", failures([workloads.Op("boom", boom, lambda out: [])]) == 1)
    expect("failed invariant fails", failures([workloads.Op("bad", lambda: 1, lambda out: ["wrong"])]) == 1)

    attempted, failed, _ = run.count_failures([{"error": "crashed", "op_names": ["a", "b", "c"]}, {"error": "no set-up"}])
    expect("broken workers fail all their operations", (attempted, failed) == (4, 4))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect("workloads match", [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS))
    expect(
        "end-to-end metrics match",
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
    )
    layer = [*tracing.Tracer().metrics(), "worker.cpu_s", "tracing.overhead_s"]
    expect(
        "per-layer metrics match",
        {m["name"]: m["unit"] for m in spec["per_layer"]} == {name: run.unit_of(name) for name in layer},
    )
    print(f"{sum(results)}/{len(results)} self-test checks hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
