"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here; none are deferred to later calibration.
"""

import math
import random

import numpy as np
import pytest

from delaunay_dilation.constructions import (
    ChewSpec,
    TwoSemicircleSpec,
    closed_form_t,
    generate_chew,
    sweep_d,
)
from delaunay_dilation.dilation import graph_from_triangulation, max_dilation
from delaunay_dilation.experiments import (
    PlantSpec,
    UniformSquare,
    dilation_trend,
    find_stable_radius,
    invariance_check,
    plant,
    sample,
)
from delaunay_dilation.geom import Point2, dist
from delaunay_dilation.triangulation import (
    PointSet,
    delaunay,
    is_valid_delaunay,
    make_unique_delaunay,
)
from oracles import exhaustive_max_dilation

HALF_PI = math.pi / 2.0


def _report(num: int, description: str, ok: bool):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def _dilation(out):
    return max_dilation(graph_from_triangulation(out.points, out.triangulation))


def test_criterion_1_closed_form_and_sweep():
    _, t29 = closed_form_t(0.29, 1.0)
    sweep = sweep_d(0.293, 0.294, 1e-4)
    ok = t29 > 1.581 and all(t > 1.5810528 for _, _, t in sweep.rows)
    _report(
        1,
        f"closed form t(0.29)={t29:.7f} > 1.581 and all 11 sweep samples on "
        "[0.293, 0.294] stay above 1.5810528",
        ok,
    )


def test_criterion_2_convex_position_bounds(two_semi_222, two_semi_18):
    rep222 = _dilation(two_semi_222)
    rep18 = _dilation(two_semi_18)
    ok = (
        len(two_semi_222.points) == 222
        and rep222.max_dilation > 1.5810
        and rep222.witness == (two_semi_222.p, two_semi_222.q)
        and len(two_semi_18.points) == 18
        and rep18.max_dilation > HALF_PI
    )
    _report(
        2,
        f"222 points reach dilation {rep222.max_dilation:.7f} > 1.5810 with the "
        f"marked witness pair; 18 points reach {rep18.max_dilation:.7f} > pi/2",
        ok,
    )


def test_criterion_3_three_circle(three_circle_default):
    out = three_circle_default
    rep = _dilation(out)
    ell = dist(out.points[out.p], out.points[out.q])
    valid = is_valid_delaunay(out.points, out.triangulation, 1e-9).valid
    ok = rep.max_dilation > 1.5846 and abs(ell - 2.4) <= 1e-3 and valid
    _report(
        3,
        f"three-circle dilation {rep.max_dilation:.7f} > 1.5846 with marked-pair "
        f"distance {ell:.6f} within 1e-3 of 2.4 (validity passes)",
        ok,
    )


def test_criterion_4_chew_limit():
    ok = True
    values = {}
    for n in (8, 100, 1000):
        rep = _dilation(generate_chew(ChewSpec(n)))
        expect = (n / 2) * math.sin(math.pi / n)
        values[n] = rep.max_dilation
        ok &= abs(rep.max_dilation - expect) <= 1e-9
        ok &= rep.max_dilation < HALF_PI
    ok &= values[100] > HALF_PI - 0.001
    _report(
        4,
        "circle-ladder dilation equals (n/2)sin(pi/n) within 1e-9 for "
        f"n=8,100,1000 ({values[8]:.7f}, {values[100]:.7f}, {values[1000]:.7f}), "
        "always below pi/2, and above pi/2 - 0.001 at n=100",
        ok,
    )


def test_criterion_5_validity_and_round_trip(
    chew16, two_semi_222, three_circle_default
):
    ok = True
    for out in (chew16, two_semi_222, three_circle_default):
        ok &= is_valid_delaunay(out.points, out.triangulation, 1e-9).valid
        moved = make_unique_delaunay(out.points, out.triangulation, budget=1e-6)
        ok &= delaunay(moved).triangles == out.triangulation.triangles
        ok &= max(dist(p, q) for p, q in zip(out.points, moved)) <= 1e-6
    _report(
        5,
        "all three constructions are valid at eps=1e-9 and perturbation within "
        "budget 1e-6 makes each bespoke triangulation the unique Delaunay",
        ok,
    )


def test_criterion_6_oracle_equivalence():
    ok = True
    for seed in range(200):
        n = random.Random(seed).randrange(4, 9)
        rng = random.Random(10_000 + seed)
        ps = PointSet(
            [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        )
        g = graph_from_triangulation(ps, delaunay(ps))
        rep = max_dilation(g)
        oracle_val, oracle_wit = exhaustive_max_dilation(
            [(p.x, p.y) for p in ps], g.edges
        )
        ok &= rep.max_dilation == oracle_val and rep.witness == oracle_wit
    _report(
        6,
        "max dilation matches exhaustive simple-path enumeration exactly on 200 "
        "random point sets of up to 8 points",
        ok,
    )


def test_criterion_7_similarity_invariance():
    rng = np.random.default_rng(2024)
    ok = True
    for k in range(100):
        n = int(rng.integers(12, 45))
        ps = sample(UniformSquare(), n, seed=50_000 + k)
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
        b = (float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
        ok &= invariance_check(ps, a, b, seed=k)
    _report(
        7,
        "dilation invariant (1e-9 relative) under 100 random similarity "
        "transforms with |a| in [0.1, 10], b in [-10, 10]^2",
        ok,
    )


@pytest.fixture(scope="module")
def planted_config(two_semi_222):
    unique = make_unique_delaunay(
        two_semi_222.points, two_semi_222.triangulation, budget=1e-6
    )
    xs = [p.x for p in unique]
    ys = [p.y for p in unique]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    s = 0.8 / span
    config = PointSet(
        tuple(
            Point2(0.1 + s * (p.x - min(xs)), 0.1 + s * (p.y - min(ys)))
            for p in unique
        )
    )
    tri = delaunay(config)
    base = max_dilation(graph_from_triangulation(config, tri)).max_dilation
    delta = find_stable_radius(config, tri, trials=10, seed=0)
    return config, base, delta


def test_criterion_8_planted_configuration(planted_config):
    config, base, delta = planted_config
    density = UniformSquare((-3.0, -3.0), (4.0, 4.0))
    ok = base > 1.5810 - 1e-6
    worst = math.inf
    for n_outside in (0, 100, 1000):
        for seed in range(10):
            spec = PlantSpec(
                config=config, ball_radius=delta, n_outside=n_outside
            )
            pts = plant(spec, density, seed=seed)
            rep = max_dilation(graph_from_triangulation(pts, delaunay(pts)))
            worst = min(worst, rep.max_dilation)
            ok &= rep.max_dilation >= base - 1e-3
    _report(
        8,
        f"planted configuration (dilation {base:.6f}, ball radius {delta:.2e}) "
        f"keeps dilation >= base - 1e-3 for 10 seeds at each of "
        f"0/100/1000 outside points (worst {worst:.6f})",
        ok,
    )


def test_criterion_9_dilation_trend():
    result = dilation_trend(UniformSquare(), [50, 200, 1000], trials=20, seed=42)
    med = result.medians()
    values = [med[50], med[200], med[1000]]
    inversions = sum(1 for a, b in zip(values, values[1:]) if b < a)
    ok = inversions <= 1
    # Regression baselines pinned from the first measurement (seed 42);
    # trend runs are bitwise reproducible for a fixed seed.
    baselines = {50: 1.326203832834103, 200: 1.3756018186882701, 1000: 1.4143360412629051}
    for n, expect in baselines.items():
        ok &= med[n] == pytest.approx(expect, rel=1e-9)
    _report(
        9,
        "median max-dilation over 20 trials is nondecreasing across "
        f"n=50,200,1000 ({values[0]:.6f}, {values[1]:.6f}, {values[2]:.6f}; "
        f"{inversions} inversions) and matches the pinned baselines",
        ok,
    )
