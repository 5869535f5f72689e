"""Layered benchmark for delaunay_dilation.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see jobs.py):
    trend-uniform     random-sample trend trials at n=1000 and n=4000
    construct-verify  construct -> verify -> dilation on the paper's families
    plant-stable      planted worst-case configurations

The workload runs in a child process (child.py), so its peak RSS is read
from RUSAGE_CHILDREN without another workload's memory in it.

With --trace 0 the last stdout line reports the end-to-end metrics: wall_s
(the wall time of one pass, as the sum over its job slots of each slot's
median time over the run's passes), peak_rss_mb and setup_s (median import time of
delaunay_dilation.cli over fresh interpreters, measured after the
workload).  stderr and the result file also give job_s_p50, the median job
time, with the job count.

With --trace 1 it reports per-layer self times and counts from traced
passes, and the tracing overhead against an untraced pass of the same jobs.

Every job's outputs are checked against recorded digests (jobs.py); a
mismatch counts as failed (the result's "failed" of "attempted", printed as
failed_frac on stderr) and the run goes on.  Details, provenance and traced
spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170  # every run must end well within three minutes
SETUP_REPEATS = 9
THREADS = "2"  # numeric-library threads; the reference box has two cores

# Times the import in the fresh interpreter itself, without its start-up.
IMPORT_TIMER = ("import time; t = time.perf_counter(); import delaunay_dilation.cli; "
                "print(time.perf_counter() - t)")

sys.path.insert(0, str(BENCH))
import jobs as J  # noqa: E402


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def run_child(cmd: list[str], deadline: float, **kwargs) -> str | None:
    """Run a child to completion, killing it if it outlives the deadline."""
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"child exceeded the deadline: {cmd[1:3]}")
    if proc.returncode != 0:
        raise SystemExit(f"child failed with exit code {proc.returncode}: {cmd[1:3]}")
    return out


def measure_setup(deadline: float) -> list[float]:
    """Import times of the CLI module in fresh interpreters.

    The first import is a warm-up that also writes the bytecode caches.
    """
    cmd = [sys.executable, "-c", IMPORT_TIMER]
    times = [float(run_child(cmd, deadline, stdout=subprocess.PIPE, text=True))
             for _ in range(SETUP_REPEATS + 1)]
    return times[1:]


def provenance(workload: str, seed: int, versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "git_commit": commit,
            "src_sha256": h.hexdigest(), "nproc": os.cpu_count(), **versions}


def pass_wall(passes: list[list[float]]) -> float:
    """Wall time of one pass: each job slot's median over the passes, summed.

    A burst of load on the shared host slows a few jobs of one pass, and an
    input can cost more than the others of its kind; once three passes have
    run, the median of each slot drops one such outlier.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def select(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """The metrics BENCHMARK.json declares, in its order, with its units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(J.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "delaunay_dilation" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child = [sys.executable, str(BENCH / "child.py"), args.workload, str(args.seed),
             repr(args.seconds), str(args.trace), str(stem.with_suffix(".child.json"))]
    run_child(child, deadline, stdout=subprocess.DEVNULL)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    res = json.loads(stem.with_suffix(".child.json").read_text())

    records = res["records"]
    failed = sum(1 for r in records if r["problem"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = dict(res["layers"])
        values["trace.wall_s"] = pass_wall(res["passes"])
        values["trace.overhead_s"] = values["trace.wall_s"] - sum(res["untraced_pass"])
        metrics = select(values, spec["per_layer"])
    else:
        values = {
            "wall_s": pass_wall(res["passes"]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(measure_setup(deadline)),
            # Reported, not declared: the median job jumps between job kinds.
            "job_s_p50": statistics.median(r["seconds"] for r in records),
        }
        metrics = select(values, spec["end_to_end"])
    summary = {
        "provenance": provenance(args.workload, args.seed, res["versions"]),
        "jobs_per_pass": res["job_count_per_pass"],
        "passes": len(res["passes"]),
        "jobs_run": len(records),
        "failed_frac": failed / len(records),
        "self_check": res["self_check"],
        "failures": sorted({f"{r['job']}: {r['problem']}" for r in records if r["problem"]}),
        "values": values,
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        share = ""
        if args.trace and name.endswith(".self_s"):
            share = f"  {100 * value / values['trace.wall_s']:5.1f}% of traced wall"
        print(f"{name:58s} {value:.6g} {units.get(name, 's')}{share}", file=sys.stderr)
    print(f"{'failed_frac':58s} {summary['failed_frac']:.6g} "
          f"({failed} of {len(records)} jobs)", file=sys.stderr)
    print("provenance " + json.dumps(summary["provenance"]))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
