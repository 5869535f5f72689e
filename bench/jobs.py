"""Seeded workloads and the correctness gate.

A job is one CLI invocation, run in-process through ``cli.main``: one
construction, one verify or dilation call, one trend trial or one plant.
Argument lists name files relative to a work directory through ``{w}``, so a
job's key (its argument list before substitution) is the same in every
checkout and indexes the digests recorded in ``digests.json``.

The workload seed picks each pass's inputs from fixed pools of input seeds
(and of vertex pairs for ``dilation --pair``).  Every pass has the same job
kinds in the same order, so a job slot's time can be taken as a median over
passes.  Every pool member has a digest recorded from the commit that
introduced the benchmark, so every seed's outputs are checked exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Pool sizes: how many distinct recorded inputs each seeded job draws from.
TREND_POOL = {1000: 24, 4000: 12}
PLANT_POOL = 12
PAIR_POOL = 8

# Plant jobs per pass: (configuration, outside points, jobs per pass).
PLANTS = (("convex", 500, 2), ("three-circle", 1000, 1))

# Lower bounds on the construction dilation from the paper.
CONVEX_BOUND = 1.5810
THREE_CIRCLE_BOUND = 1.5846


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]      # CLI arguments; "{w}" stands for the work directory
    outputs: tuple[str, ...] = ()  # files under the work directory the gate digests
    first_line_only: bool = False  # digest only the first stdout line
    bound: tuple[str, float] | None = None  # (">" or "==", value) on report.json

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def args(self, work: Path) -> list[str]:
        return [a.replace("{w}", str(work)) for a in self.argv]


def _construct(name: str, *spec: str, bound=None) -> Job:
    files = ("points.json", "triangulation.json", "report.json", "figure.svg")
    return Job(
        ("construct", *spec, "--out-dir", f"{{w}}/{name}"),
        tuple(f"{name}/{f}" for f in files),
        bound=bound,
    )


def _verify(name: str, eps: str) -> Job:
    # Only the verdict line: the violation margins printed after it are
    # float-formatted diagnostics, not a promised output.
    return Job(
        ("verify", f"{{w}}/{name}/points.json", f"{{w}}/{name}/triangulation.json",
         "--eps", eps),
        first_line_only=True,
    )


def _dilation(name: str) -> Job:
    # No --triangulation: the exactly cocircular input is triangulated again.
    return Job(
        ("dilation", f"{{w}}/{name}/points.json", "--out", f"{{w}}/{name}/dilation.json"),
        (f"{name}/dilation.json",),
    )


def _pair(name: str, n: int, pick: int) -> Job:
    i, j = random.Random(f"{name}:{pick}").sample(range(n), 2)
    return Job(
        ("dilation", f"{{w}}/{name}/points.json",
         "--triangulation", f"{{w}}/{name}/triangulation.json",
         "--pair", str(i), str(j), "--out", f"{{w}}/{name}/pair.json"),
        (f"{name}/pair.json",),
    )


def _trend(n: int, master: int) -> Job:
    return Job(
        ("random", "--ns", str(n), "--trials", "1", "--seed", str(master),
         "--out", f"{{w}}/trend-{n}.csv"),
        (f"trend-{n}.csv",),
    )


def _plant(config: str, n_outside: int, seed: int) -> Job:
    return Job(
        ("plant", "--config", config, "--n-outside", str(n_outside),
         "--seed", str(seed), "--out", f"{{w}}/plant-{config}.json"),
        (f"plant-{config}.json",),
    )


# (directory, construct arguments, point count, bound, run verify --eps 0)
_FAMILIES = (
    ("chew512", ("chew", "--n", "512"), 512, ("==", 256 * math.sin(math.pi / 512)), True),
    ("convex222", ("convex", "--points", "222"), 222, (">", CONVEX_BOUND), True),
    ("convex2000", ("convex", "--points", "2000"), 2000, (">", CONVEX_BOUND), False),
    ("three-circle", ("three-circle",), 1976, (">", THREE_CIRCLE_BOUND), False),
    ("three-circle60", ("three-circle", "--arc-density", "60"), 460, None, True),
)


class Draw:
    """Pool picks for one pass.

    Each job kind walks its own seeded permutation of its pool, so the
    passes of one run use distinct inputs until the pool is exhausted.
    """

    def __init__(self, workload: str, seed: int, pass_index: int):
        self.prefix, self.pass_index = f"{workload}:{seed}", pass_index

    def __call__(self, kind: str, size: int, k: int) -> list[int]:
        perm = random.Random(f"{self.prefix}:{kind}").sample(range(size), size)
        return [perm[(self.pass_index * k + i) % size] for i in range(k)]


def trend_uniform(draw: Draw) -> list[Job]:
    """One n=4000 trial and three n=1000 trials of the uniform trend."""
    return [_trend(n, m) for n, k in ((4000, 1), (1000, 3))
            for m in draw(f"n{n}", TREND_POOL[n], k)]


def _family_jobs(picks) -> list[Job]:
    """construct -> verify -> dilation per family; picks(name) gives pair picks."""
    jobs = []
    for name, spec, n, bound, exact in _FAMILIES:
        jobs.append(_construct(name, *spec, bound=bound))
        jobs.append(_verify(name, "1e-9"))
        if exact:
            jobs.append(_verify(name, "0"))
        jobs.append(_dilation(name))
        jobs += [_pair(name, n, k) for k in picks(name)]
    return jobs


def construct_verify(draw: Draw) -> list[Job]:
    """Every family once, with verify --eps 0 only on the small ones."""
    return _family_jobs(lambda name: draw(name, PAIR_POOL, 1))


def plant_stable(draw: Draw) -> list[Job]:
    """Two convex plants and one three-circle plant, with pooled seeds."""
    return [_plant(config, n_outside, s) for config, n_outside, k in PLANTS
            for s in draw(config, PLANT_POOL, k)]


WORKLOADS = {
    "trend-uniform": trend_uniform,
    "construct-verify": construct_verify,
    "plant-stable": plant_stable,
}


def pass_jobs(workload: str, seed: int, pass_index: int) -> list[Job]:
    """The jobs of one pass; the same (workload, seed, pass) gives the same jobs."""
    return WORKLOADS[workload](Draw(workload, seed, pass_index))


def every_job() -> list[Job]:
    """Every job any seed can produce, in an order that runs (construct first)."""
    jobs = _family_jobs(lambda name: range(PAIR_POOL))
    for n, size in TREND_POOL.items():
        jobs += [_trend(n, m) for m in range(size)]
    for config, n_outside, _ in PLANTS:
        jobs += [_plant(config, n_outside, s) for s in range(PLANT_POOL)]
    return jobs


def clear_outputs(job: Job, work: Path) -> None:
    """Remove a job's output files so a stale file cannot pass the gate."""
    for name in job.outputs:
        (work / name).unlink(missing_ok=True)


def digest(job: Job, rc: int, stdout: str, work: Path) -> str:
    """SHA-256 over the exit code, the stdout (or its first line) and the outputs."""
    text = stdout.split("\n", 1)[0] if job.first_line_only else stdout
    h = hashlib.sha256(f"rc={rc}\n{text}".encode())
    for name in job.outputs:
        h.update(b"\0" + name.encode() + b"\0")
        path = work / name
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def bound_problem(bound: tuple[str, float], value: float) -> str | None:
    """None if a construction's dilation meets the paper's bound, else what is wrong."""
    op, target = bound
    ok = value > target if op == ">" else math.isclose(value, target, rel_tol=1e-12)
    return None if ok else f"dilation {value!r} fails {op} {target!r}"


def check(job: Job, rc: int, stdout: str, work: Path, expected: str | None) -> str | None:
    """None if the job's outputs are correct, else every problem found.

    The paper's bound is checked whether or not the digest matches, so a
    change that alters the output bytes still learns whether the bound holds.
    """
    problems = []
    if expected is None:
        problems.append("no recorded digest")
    else:
        got = digest(job, rc, stdout, work)
        if got != expected:
            problems.append(f"digest {got[:12]} != recorded {expected[:12]}")
    if job.bound is not None:
        report = work / next(o for o in job.outputs if o.endswith("report.json"))
        try:
            value = json.loads(report.read_text())["max_dilation"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append(f"no max_dilation in report.json: {e!r}")
        else:
            problems.append(bound_problem(job.bound, value))
    return "; ".join(p for p in problems if p) or None


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())
