"""Record the golden digests that the benchmark checks outputs against.

    python3 perfbench/capture_golden.py

Run from the root of a checkout whose outputs are known to be right.  Each
workload runs once with seed 0 in capture mode; the SHA-256 digest of every
CLI operation's ``--json`` stdout and of every ``.plb`` file written by
``enum`` is stored in ``perfbench/golden.json``.  The seed only orders the
CLI operations, so one seed captures them all.  Invariant checks on the
seed-drawn batches still run and must pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import BENCH, WORKLOADS, Runner, count_failures


def main() -> int:
    root = Path.cwd()
    golden: dict[str, str] = {}
    for workload in WORKLOADS:
        runner = Runner(root, workload, 0)
        path = runner.out / f"golden-{workload}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        worker = runner.spawn("--capture", str(path.resolve()))
        _, failed, problems = count_failures([worker])
        if failed:
            print(f"{workload}: {failed} operations failed:\n" + "\n".join(problems), file=sys.stderr)
            return 1
        for key, digest in json.loads(path.read_text()).items():
            if golden.setdefault(key, digest) != digest:
                print(f"{key}: digest differs between workloads", file=sys.stderr)
                return 1
        path.unlink()
        print(f"{workload}: {len(worker['ops'])} operations in {worker['wall_s']:.1f} s", file=sys.stderr)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {BENCH / 'golden.json'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
