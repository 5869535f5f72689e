"""is_valid_delaunay against the band reference and the rational predicates.

At eps=0 every (triangle, point) pair is decided by the exact incircle
predicate.  ``oracles.band_is_valid_delaunay`` is the original check, which
applied the exact predicate only to pairs whose float margin exceeded -1e-9;
wherever that band misses nothing, the two reports must be equal.
"""

import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaunay_dilation.cli import main
from delaunay_dilation.constructions import (
    ChewSpec,
    ThreeCircleSpec,
    TwoSemicircleSpec,
    generate_chew,
    generate_three_circle,
    generate_two_semicircle,
)
from delaunay_dilation.geom import ExactIncircle
from delaunay_dilation.triangulation import (
    PointSet,
    Triangulation,
    _has_exact_cocircularity,
    is_valid_delaunay,
    perturb,
    points_to_json,
    triangulation_to_json,
)
from oracles import _sweep_triangulation, band_is_valid_delaunay, incircle_frac, orient_frac


@functools.cache
def _three_circle_60():
    return generate_three_circle(ThreeCircleSpec(arc_density=60.0))


def _three_circle_60_moved():
    out = _three_circle_60()
    return perturb(out.points, 1e-8, seed=3), out.triangulation


# The benchmark's five construction families with their own triangulations,
# and one moved off its circles so that eps=1e-9 reports violations too.
FAMILIES = {
    "chew512": lambda: generate_chew(ChewSpec(512)),
    "convex222": lambda: generate_two_semicircle(TwoSemicircleSpec(n_arc=111)),
    "convex2000": lambda: generate_two_semicircle(TwoSemicircleSpec(n_arc=1000)),
    "three_circle": lambda: generate_three_circle(ThreeCircleSpec()),
    "three_circle60": _three_circle_60,
}
# The band reference takes 10-20 s on these at eps=0.
SLOW_AT_EPS0 = {"convex2000", "three_circle"}


def _family(name):
    if name == "three_circle60_moved":
        return _three_circle_60_moved()
    out = FAMILIES[name]()
    return out.points, out.triangulation


@pytest.mark.parametrize(
    "name,eps",
    [
        pytest.param(
            name, eps, marks=[pytest.mark.slow] if eps == 0 and name in SLOW_AT_EPS0 else []
        )
        for name in [*FAMILIES, "three_circle60_moved"]
        for eps in (0.0, 1e-9)
    ],
)
def test_matches_band_reference(name, eps):
    ps, t = _family(name)
    report = is_valid_delaunay(ps, t, eps)
    assert report == band_is_valid_delaunay(ps, t, eps)
    if name != "three_circle60_moved" and eps == 0:
        assert not report.valid  # float points are not exactly on the circles


SLIVER = [
    (-0.5181941778263308, -0.5181941778263308),
    (0.4818058221736692, 0.4818058221736692),
    (-0.018668926078068915, -0.01866892607806891),
    (0.0013688606100977774, 0.0013688606100977772),
]
SLIVER_TRIANGLES = [(0, 1, 2), (0, 3, 1)]


def test_sliver_violations_found_at_eps0():
    ps = PointSet.from_coords(SLIVER)
    t = Triangulation.from_triples(SLIVER_TRIANGLES)
    assert incircle_frac(*SLIVER) > 0
    # The float circumcentres of both slivers are not finite, so the band
    # reference never sees a candidate.
    assert band_is_valid_delaunay(ps, t, 0.0).valid
    report = is_valid_delaunay(ps, t, 0.0)
    assert [(ti, pi) for ti, pi, _ in report.violations] == [(0, 3), (1, 2)]
    assert all(margin == 0.0 for *_, margin in report.violations)


def test_sliver_verify_eps0_exits_1(tmp_path, capsys):
    ppath = tmp_path / "points.json"
    tpath = tmp_path / "tri.json"
    ppath.write_text(points_to_json(PointSet.from_coords(SLIVER)))
    tpath.write_text(triangulation_to_json(Triangulation.from_triples(SLIVER_TRIANGLES)))
    assert main(["verify", str(ppath), str(tpath), "--eps", "0"]) == 1
    assert "INVALID at eps=0.0: 2 violation(s)" in capsys.readouterr().out


def test_chew512_eps0_peak_memory():
    """The parent of the batched scan peaked at 17.5 MB traced here."""
    out = generate_chew(ChewSpec(512))
    tracemalloc.start()
    try:
        report = is_valid_delaunay(out.points, out.triangulation, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.violations) == 129928
    assert peak < 17.5 * 2**20


# --------------------------------------------------------------------------
# Small exact and nearly exact sets against the rational predicates
# --------------------------------------------------------------------------

# The twelve lattice points on x² + y² = 25: many exactly cocircular quads.
CIRCLE25 = [
    (5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
    (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3),
]
# Scales at which products underflow (1e-78, 2**-520) or overflow (1e150)
# in the float filter.
SCALES = [1.0, 0.1, 1e-78, 2.0**-520, 1e150]


def _ulps(v: float, k: int) -> float:
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


@st.composite
def small_point_sets(draw):
    if draw(st.booleans()):
        base = draw(st.lists(st.sampled_from(CIRCLE25), min_size=3, max_size=12, unique=True))
        cell = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    else:
        base = []
        cell = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    base += draw(st.lists(cell, max_size=12 - len(base)))
    scale = draw(st.sampled_from(SCALES))
    moves = draw(st.lists(st.integers(-2, 2), min_size=24, max_size=24))
    pts = list(dict.fromkeys(base))
    pts = [
        (_ulps(x * scale, moves[2 * k]), _ulps(y * scale, moves[2 * k + 1]))
        for k, (x, y) in enumerate(pts)
    ]
    return list(dict.fromkeys(pts))


def _flip(tris, pts, pick):
    """Flip the pick-th interior edge if its quadrilateral is strictly convex."""
    owners = {}
    for t in tris:
        for e in itertools.combinations(sorted(t), 2):
            owners.setdefault(e, []).append(t)
    inner = sorted(e for e, ts in owners.items() if len(ts) == 2)
    if not inner:
        return tris
    u, v = inner[pick % len(inner)]
    t1, t2 = owners[(u, v)]
    w = next(i for i in t1 if i not in (u, v))
    x = next(i for i in t2 if i not in (u, v))
    if orient_frac(pts[w], pts[x], pts[u]) * orient_frac(pts[w], pts[x], pts[v]) >= 0:
        return tris
    return [t for t in tris if t not in (t1, t2)] + [(w, x, u), (w, x, v)]


@settings(max_examples=150, deadline=None)
@given(small_point_sets(), st.lists(st.integers(0, 10**6), max_size=6))
def test_eps0_violations_are_exactly_the_positive_pairs(pts, picks):
    assume(len(pts) >= 3)
    tris = _sweep_triangulation(pts)
    assume(tris)
    for pick in picks:
        tris = _flip(tris, pts, pick)
    ps = PointSet.from_coords(pts)
    t = Triangulation.from_triples(tris)

    def sign(tri, p):
        return incircle_frac(*(pts[k] for k in tri), pts[p])

    expected = {
        (i, p)
        for i, tri in enumerate(t.triangles)
        for p in range(len(pts))
        if p not in tri and sign(tri, p) > 0
    }
    report = is_valid_delaunay(ps, t, 0.0)
    assert {(i, p) for i, p, _ in report.violations} == expected
    assert all(margin >= 0.0 for *_, margin in report.violations)

    owners = {}
    for tri in t.triangles:
        for e in itertools.combinations(sorted(tri), 2):
            owners.setdefault(e, []).append(tri)
    tied = any(
        sign(t1, next(i for i in t2 if i not in e)) == 0
        for e, (t1, *rest) in owners.items()
        for t2 in rest
    )
    assert _has_exact_cocircularity(ps, t) == tied


def test_exact_incircle_matches_rational_oracle():
    rng = random.Random(11)
    for scale in SCALES + [1e-300, 1e200]:
        cx, cy, r = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
        pts = []
        for _ in range(12):
            a = rng.uniform(0.0, 2.0 * math.pi)
            x, y = (cx + r * math.cos(a)) * scale, (cy + r * math.sin(a)) * scale
            pts.append((_ulps(x, rng.randint(-2, 2)), _ulps(y, rng.randint(-2, 2))))
        pts += [(rng.uniform(-3, 3) * scale, rng.uniform(-3, 3) * scale) for _ in range(4)]
        tris = []
        for tri in itertools.combinations(range(len(pts)), 3):
            o = orient_frac(*(pts[k] for k in tri))
            if o:
                tris.append(tri if o > 0 else (tri[0], tri[2], tri[1]))
        tris = rng.sample(tris, 40)
        rows, points = np.divmod(np.arange(len(tris) * len(pts)), len(pts))
        got = ExactIncircle(np.array(pts), np.array(tris)).signs(rows, points)
        want = [incircle_frac(*(pts[k] for k in tris[i]), pts[p]) for i, p in zip(rows, points)]
        assert got.tolist() == want, scale
