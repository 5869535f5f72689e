"""Runs one workload in its own process and writes the result as JSON.

Usage: child.py WORKLOAD SEED SECONDS TRACE RESULT_PATH

Untraced (TRACE=0): passes run while the next pass is predicted to end
within SECONDS; at least one runs.  Traced (TRACE=1): one untraced pass, then
the same jobs again with every layer wrapped, repeated while time is left.
Each job is timed around ``cli.main``; the correctness gate runs outside it.
The result holds every pass's job times, in job order.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import jobs as J  # noqa: E402
import tracing  # noqa: E402


def run_job(cli, job: J.Job, work: Path) -> tuple[float, int | None, str, str | None]:
    """Run one job; returns (seconds, exit code, stdout, error or None)."""
    J.clear_outputs(job, work)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.args(work))
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crashing job is a failed job; the run goes on
        return time.perf_counter() - start, None, out.getvalue(), traceback.format_exc()
    return time.perf_counter() - start, rc, out.getvalue(), None


def self_check(job: J.Job, rc: int | None, stdout: str, work: Path) -> str:
    """The gate must reject a wrong digest and a wrong exit code."""
    wrong = "0" * 64
    if J.check(job, rc, stdout, work, wrong) is None:
        raise SystemExit("self-check failed: a wrong digest was accepted")
    right = J.digest(job, rc, stdout, work)
    if J.check(job, (rc or 0) + 1, stdout, work, right) is None:
        raise SystemExit("self-check failed: a wrong exit code was accepted")
    return "wrong digest and wrong exit code both rejected"


def bound_self_check(bound: tuple[str, float]) -> None:
    """The bound check must reject a dilation just off the paper's bound."""
    op, target = bound
    if J.bound_problem(bound, target if op == ">" else target * (1 + 1e-9)) is None:
        raise SystemExit(f"self-check failed: a dilation off the bound {op} {target} was accepted")


class Runner:
    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli, self.workload, self.seed, self.work = cli, workload, seed, work
        self.digests = J.load_digests()
        self.records: list[dict] = []
        self.self_check: str | None = None

    def run_pass(self, index: int, tracer: tracing.Tracer | None = None) -> list[float]:
        """Runs one pass; returns its job times."""
        times = []
        for job in J.pass_jobs(self.workload, self.seed, index):
            with tracer.root("bench.job") if tracer else contextlib.nullcontext():
                seconds, rc, stdout, error = run_job(self.cli, job, self.work)
            times.append(seconds)
            problem = error or J.check(job, rc, stdout, self.work, self.digests.get(job.key))
            if problem:
                print(f"FAILED {job.key}: {problem}", file=sys.stderr)
            if self.self_check is None:
                self.self_check = self_check(job, rc, stdout, self.work)
            if job.bound is not None:
                bound_self_check(job.bound)
            self.records.append({"job": job.key, "seconds": seconds, "problem": problem})
        return times


def layer_metrics(tracer: tracing.Tracer, first: int, counts_before) -> dict[str, float]:
    own, calls, under_search = tracing.self_times(tracer.spans, first)
    counts = tracer.counts - counts_before
    m = {}
    for layer in tracing.SPAN_LAYERS:
        m[f"{layer}.self_s"] = float(own[layer])
        m[f"{layer}.calls"] = calls[layer]
    m["bench.job.self_s"] = own["bench.job"]
    m["triangulation.delaunay.under_find_stable_radius.self_s"] = under_search
    for layer, (size, _) in tracing.SIZES.items():
        m[f"{layer}.{size}"] = counts[f"{layer}.{size}"]
    for layer in tracing.COUNT_LAYERS:
        m[f"{layer}.calls"] = counts[layer]
    predicates = m["geom.orient2d.calls"] + m["geom.incircle.calls"]
    m["geom.filter_hit_ratio"] = 1.0 - m["geom.exact.calls"] / predicates if predicates else 1.0
    return m


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    import delaunay_dilation
    from delaunay_dilation import cli

    src = (ROOT / "src").resolve()
    if src not in Path(delaunay_dilation.__file__).resolve().parents:
        raise SystemExit(f"imported {delaunay_dilation.__file__}, not the checkout's src/")

    work = Path(result_path).with_suffix(".work")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(cli, workload, seed, work)
    result: dict = {"job_count_per_pass": len(J.pass_jobs(workload, seed, 0))}
    start = time.perf_counter()

    def more(passes: list[list[float]]) -> bool:
        """At least one pass; another only if it should end within the budget."""
        return not passes or (time.perf_counter() - start
                              + statistics.median(map(sum, passes)) <= seconds)

    try:
        if not trace:
            passes = []
            while more(passes):
                passes.append(runner.run_pass(len(passes)))
            result["passes"] = passes
        else:
            result["untraced_pass"] = runner.run_pass(0)
            tracer = tracing.Tracer()
            tracer.install()
            passes, layers = [], []
            while more(passes):
                first, before = len(tracer.spans), tracer.counts.copy()
                passes.append(runner.run_pass(0, tracer))
                layers.append(layer_metrics(tracer, first, before))
            tracer.uninstall()
            result["passes"] = passes
            result["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
            (Path(result_path).with_suffix(".spans.json")).write_text(json.dumps(tracer.spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import numpy
    import scipy

    result.update(
        records=runner.records,
        self_check=runner.self_check,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
