"""polarb desk-scale benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; polarb is imported from ``src/`` there.  The
load is a closed loop with one client: each worker process (worker.py) sets
up one workload from scratch and runs its seed-ordered operations once, one
at a time, and the next worker starts only after the previous one ended.
Workers keep starting while another one still fits into S seconds; at least
one always runs.  Set-up is sampled at least three times per run (extra
workers stop after set-up) and reported as the median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs pairs of an
untraced and a traced worker and prints the per-layer metrics, including the
tracing overhead.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record (versions,
thread caps, revision, per-operation latencies and problems) is written to
``.perfbench-out/results/``.  Everything the run writes stays under
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("catalog", "certify", "sweep", "verify")
DEADLINE_S = 170  # every worker has ended by then, within the 180 s a run may take
SETUP_SAMPLES = 3
# Single-threaded worker: BLAS and OpenMP pools capped at one thread.
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts workers one at a time in fresh temporary directories under ``out``."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.out = root / ".perfbench-out"
        self.deadline = monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "POLARB_CACHE_DIR"}
        self.env.update(THREAD_CAPS, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def spawn(self, *extra: str) -> dict:
        """Run one worker to its end; its result gains ``duration_s`` and, once
        set-up finished, ``setup_s`` measured from before the process started."""
        tmp_root = self.out / "tmp"
        tmp_root.mkdir(parents=True, exist_ok=True)
        start = monotonic()
        cwd = Path(tempfile.mkdtemp(dir=tmp_root))
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", "result.json", *extra]
        proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - monotonic()))
            end = monotonic()
            path = cwd / "result.json"
            result = json.loads(path.read_text()) if path.exists() else {}
            if code != 0 and "error" not in result:
                result["error"] = f"worker exited with code {code}"
        except subprocess.TimeoutExpired:
            end = monotonic()
            result = {"error": f"worker still running after the {DEADLINE_S} s deadline"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            shutil.rmtree(cwd, ignore_errors=True)
        result["duration_s"] = end - start
        if "ready" in result:
            result["setup_s"] = result["ready"] - start
        return result

    def fits(self, started: float, next_s: float, seconds: float) -> bool:
        now = monotonic()
        return now - started + next_s <= seconds and now + next_s < self.deadline


def count_failures(workers: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over finished and broken workers.  A
    broken worker fails each of its operations, or one if set-up broke."""
    attempted = failed = 0
    problems = []
    for w in workers:
        if "error" in w:
            n = len(w.get("op_names", ())) or 1
            attempted += n
            failed += n
            problems.append(w["error"])
            continue
        for rec in w.get("ops", ()):
            attempted += 1
            if rec["problems"]:
                failed += 1
                problems += rec["problems"]
    return attempted, failed, problems


def end_to_end_metrics(full: list[dict], setups: list[float], ok_ratio: float) -> dict[str, float]:
    """wall_s is the mean over the run's workers: the host's speed drifts in
    phases of seconds, and a mean covers the whole run where a median of
    three workers lands on one phase.  Set-up and memory are medians."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(w["wall_s"] for w in full),
        "peak_rss_mb": statistics.median(w["maxrss_kb"] / 1024 for w in full),
        "ok_ratio": ok_ratio,
    }


def run_plain(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    started = monotonic()
    workers = []
    while True:
        w = runner.spawn()
        workers.append(w)
        if "error" in w or not runner.fits(started, w["duration_s"], seconds):
            break
    setups = [w["setup_s"] for w in workers if "setup_s" in w]
    while len(setups) < SETUP_SAMPLES and "error" not in workers[-1]:
        w = runner.spawn("--setup-only")
        workers.append(w)
        if "setup_s" in w:
            setups.append(w["setup_s"])
    full = [w for w in workers if "ops" in w]
    attempted, failed, _ = count_failures(workers)
    metrics = end_to_end_metrics(full, setups, 1 - failed / attempted) if full and setups else {}
    return workers, metrics


def source_digest(root: Path) -> str:
    """Digest of the package and benchmark sources, the key under which counts must repeat."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "polarb").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def counts_problems(root: Path, workload: str, seed: int, traced: list[dict]) -> list[str]:
    """Every count (all traced metrics but times) must repeat exactly across the
    traced workers of this run and across runs with the same seed and sources."""
    counts = [{k: v for k, v in w["trace"].items() if not k.endswith("_s")} for w in traced]
    problems = [f"counts differ between traced workers: {c}" for c in counts[1:] if c != counts[0]]
    path = root / ".perfbench-out" / "counts" / f"{workload}-seed{seed}-{source_digest(root)[:16]}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = sorted(k for k in before.keys() | counts[0].keys() if before.get(k) != counts[0].get(k))
        if diff:
            problems.append(f"counts differ from an earlier run with seed {seed}: {diff}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts[0], indent=1, sort_keys=True))
    return problems


def run_traced(runner: Runner, root: Path, seconds: float) -> tuple[list[dict], dict, list[str]]:
    spans = runner.out / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    started = monotonic()
    workers, plain, traced = [], [], []
    while True:
        p = runner.spawn()
        t = runner.spawn("--spans", str(spans / f"{runner.workload}.npz"))
        workers += [p, t]
        if "error" in p or "error" in t:
            break
        plain.append(p)
        traced.append(t)
        if not runner.fits(started, p["duration_s"] + t["duration_s"], seconds):
            break
    if not traced:
        return workers, {}, []
    metrics = {k: statistics.median(w["trace"][k] for w in traced) for k in traced[0]["trace"]}
    metrics["worker.cpu_s"] = statistics.median(w["cpu_s"] for w in plain)
    metrics["tracing.overhead_s"] = statistics.mean(w["wall_s"] for w in traced) - statistics.mean(
        w["wall_s"] for w in plain
    )
    return workers, metrics, counts_problems(root, runner.workload, runner.seed, traced)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    if name.endswith(".yield"):
        return "1"
    return "count"


def environment(root: Path, seed: int, workers: list[dict]) -> dict:
    revision = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # the revision is informational; the source digest identifies the tree
    first = next((w for w in workers if "python" in w), {})
    return {
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "git_revision": revision,
        "source_sha256": source_digest(root),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polarb" / "__init__.py").is_file():
        print(f"error: no polarb sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    if args.trace:
        workers, metrics, problems = run_traced(runner, root, args.seconds)
    else:
        workers, metrics = run_plain(runner, args.seconds)
        problems = []
    attempted, failed, op_problems = count_failures(workers)
    problems = op_problems + problems
    correct = not problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    record_dir = runner.out / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {"environment": environment(root, args.seed, workers), "result": result, "problems": problems, "workers": workers}
    (record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
