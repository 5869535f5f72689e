"""is_valid_delaunay against the band reference and the rational predicates.

At eps=0 every (triangle, point) pair is decided by the exact incircle
predicate.  ``oracles.band_is_valid_delaunay`` is the original check, which
applied the exact predicate only to pairs whose float margin exceeded -1e-9;
wherever that band misses nothing, the two reports must be equal.  The
output-sensitive paths (the Delaunay lemma at eps=0, the tree's candidates
at eps > 0) must also give the reports of scanning every pair, and
``ExactIncircle``'s reference-circle stage the signs of the rational
predicate.
"""

import functools
import itertools
import logging
import math
import random
import re
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
from delaunay_dilation.experiments import UniformSquare, sample
from delaunay_dilation.geom import ExactIncircle
from delaunay_dilation.triangulation import (
    PointSet,
    Triangulation,
    ValidityReport,
    _delaunay_certificate,
    _exact_scan,
    _structural_check,
    _target_arrays,
    delaunay,
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
    ps = PointSet(SLIVER)
    t = Triangulation(SLIVER_TRIANGLES)
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
    ppath.write_text(points_to_json(PointSet(SLIVER)))
    tpath.write_text(triangulation_to_json(Triangulation(SLIVER_TRIANGLES)))
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
def small_point_sets(draw, scales=SCALES):
    if draw(st.booleans()):
        base = draw(st.lists(st.sampled_from(CIRCLE25), min_size=3, max_size=12, unique=True))
        cell = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    else:
        base = []
        cell = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    base += draw(st.lists(cell, max_size=12 - len(base)))
    scale = draw(st.sampled_from(scales))
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
    ps = PointSet(pts)
    t = Triangulation(tris)

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
    ccw = Triangulation(_structural_check(ps, t)[0])
    assert _delaunay_certificate(ps.coords, _target_arrays(ccw, len(ps)))[1] == tied


def _rational_oracle_inputs(rng):
    """Points near one circle at each scale; then (65, 0), (63, 16) and
    (60, 25) with a fourth point on their circle x² + y² = 4225 or far out."""
    for scale in SCALES + [1e-300, 1e200]:
        cx, cy, r = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
        pts = []
        for _ in range(12):
            a = rng.uniform(0.0, 2.0 * math.pi)
            x, y = (cx + r * math.cos(a)) * scale, (cy + r * math.sin(a)) * scale
            pts.append((_ulps(x, rng.randint(-2, 2)), _ulps(y, rng.randint(-2, 2))))
        pts += [(rng.uniform(-3, 3) * scale, rng.uniform(-3, 3) * scale) for _ in range(4)]
        yield scale, pts
    for d in [(56.0, 33.0), (-2.0**60, 0.0)]:
        yield d, [(65.0, 0.0), (63.0, 16.0), (60.0, 25.0), d]


def test_exact_incircle_matches_rational_oracle():
    rng = random.Random(11)
    for case, pts in _rational_oracle_inputs(rng):
        tris = []
        for tri in itertools.combinations(range(len(pts)), 3):
            o = orient_frac(*(pts[k] for k in tri))
            if o:
                tris.append(tri if o > 0 else (tri[0], tri[2], tri[1]))
        tris = rng.sample(tris, min(40, len(tris)))
        rows, points = np.divmod(np.arange(len(tris) * len(pts)), len(pts))
        got = ExactIncircle(np.array(pts)).signs(*np.array(tris)[rows].T, points)
        want = [incircle_frac(*(pts[k] for k in tris[i]), pts[p]) for i, p in zip(rows, points)]
        assert got.tolist() == want, case


# --------------------------------------------------------------------------
# ExactIncircle's reference-circle stage
# --------------------------------------------------------------------------

# Also 1e-300, whose products underflow to 0, and 1e200, whose products
# overflow: the stage works on the coordinates scaled exactly below 1.
STAGE_SCALES = SCALES + [1e-300, 1e200]


@settings(max_examples=120, deadline=None)
@given(small_point_sets(STAGE_SCALES), st.randoms(use_true_random=False))
def test_reference_stage_agrees_with_rational_oracle(pts, rnd):
    assume(len(pts) >= 4)
    tris = []
    for tri in itertools.combinations(range(len(pts)), 3):
        o = orient_frac(*(pts[k] for k in tri))
        if o:
            tris.append(tri if o > 0 else (tri[0], tri[2], tri[1]))
    assume(tris)
    tris = np.array(rnd.sample(tris, min(len(tris), 30)))
    rows, points = np.divmod(np.arange(len(tris) * len(pts)), len(pts))
    want = np.array([incircle_frac(*(pts[k] for k in tris[i]), pts[p])
                     for i, p in zip(rows, points)])
    a, b, c = tris[rows].T
    exact = ExactIncircle(np.array(pts))
    # More rows than points: the first call builds a reference circle.
    assert exact.signs(a, b, c, points).tolist() == want.tolist()
    # A triangle's own vertices get 0 before either stage.
    off = (points != a) & (points != b) & (points != c)
    assert sum(exact.counts.values()) == np.count_nonzero(off)
    # The stage is off where scaling to |x| < 1 is not exact (5e-324 and 5).
    for tri in tris[:5] if exact._unit is not None else ():
        power = exact._power(*tri)
        if power is None:
            continue
        assert power[tri[0]] == 0
        signs, decided = exact._reference_stage(power, a, b, c, points)
        assert signs[decided].tolist() == want[decided].tolist()
        assert not signs[~decided].any()


def test_reference_stage_decides_a_rounded_circle():
    # chew 512: float points on one circle, which the filter cannot order.
    out = generate_chew(ChewSpec(512))
    tris = np.array(out.triangulation.triangles)
    rng = np.random.default_rng(5)
    rows = rng.integers(0, len(tris), 4000)
    points = rng.integers(0, 512, 4000)
    exact = ExactIncircle(out.points.coords)
    signs = exact.signs(*tris[rows].T, points)
    assert exact.counts["reference"] >= 3900
    some = rng.choice(4000, 150, replace=False)
    pts = out.points.coords.tolist()
    for k in some.tolist():
        want = incircle_frac(*(pts[i] for i in tris[rows[k]]), pts[points[k]])
        assert signs[k] == want


# --------------------------------------------------------------------------
# The output-sensitive scan against the dense ones
# --------------------------------------------------------------------------

def _dense_report(ps, t, eps):
    """All pairs: the exact scan at eps=0, the band reference's float scan
    (which measures every pair) at eps > 0."""
    if eps > 0:
        with np.errstate(all="ignore"):
            return band_is_valid_delaunay(ps, t, eps)
    tris, _ = _structural_check(ps, t)
    scan = _exact_scan(ps.coords, tris, ExactIncircle(ps.coords),
                       dict(candidates=0, filter=0))
    violations = [v for ti, pi, m in scan for v in zip(ti.tolist(), pi.tolist(), m.tolist())]
    return ValidityReport(valid=not violations, violations=tuple(violations))


def _uniform(n, seed, scale=1.0):
    return PointSet(sample(UniformSquare(), n, seed).coords * scale)


def _grid(k, scale=1.0):
    return PointSet([(x * scale, y * scale) for x in range(k) for y in range(k)])


def _swept(ps):
    """A triangulation of the hull that is far from Delaunay: the x-sweep."""
    return Triangulation(_sweep_triangulation(ps.coords.tolist()))


SETS = {
    "uniform1000": lambda: _uniform(1000, 1),
    "uniform300_swept": lambda: _uniform(300, 2),
    "grid20": lambda: _grid(20),
    "grid12_tenth_swept": lambda: _grid(12, 0.1),
    "circle25": lambda: PointSet(CIRCLE25),
    "sliver": lambda: PointSet(SLIVER),
    "uniform200_2e520": lambda: _uniform(200, 3, 2.0**520),
    "uniform200_2e520_swept": lambda: _uniform(200, 4, 2.0**520),
    "uniform200_2e505_swept": lambda: _uniform(200, 4, 2.0**505),
    "uniform200_1e-160": lambda: _uniform(200, 5, 1e-160),
    "uniform200_1e-170_swept": lambda: _uniform(200, 6, 1e-170),
    "grid10_1e-165_swept": lambda: _grid(10, 1e-165),
}


MODERATE = {"uniform300_swept", "grid12_tenth_swept"}


def _case(name):
    ps = SETS[name]()
    if name == "sliver":
        return ps, Triangulation(SLIVER_TRIANGLES)
    return ps, (_swept(ps) if name.endswith("_swept") else delaunay(ps))


@pytest.mark.parametrize(
    "name, eps",
    [
        pytest.param(
            name, eps, marks=[pytest.mark.slow] if eps == 0 and name in SLOW_AT_EPS0 else []
        )
        for name in [*SETS, *FAMILIES, "three_circle60_moved"]
        for eps in (0.0, 1e-9, 1e-3)
    ],
)
def test_matches_the_dense_scan(name, eps):
    ps, t = _case(name) if name in SETS else _family(name)
    with np.errstate(all="ignore"):  # only the reference's float scan warns
        report = is_valid_delaunay(ps, t, eps)
    assert report == _dense_report(ps, t, eps)
    if name.endswith("_swept") and (eps == 0 or name in MODERATE):
        # Far from scale 1 the float circumcentres of these sets overflow or
        # underflow, so that only eps=0 finds their violations.
        assert not report.valid


def test_eps_just_below_a_margin():
    # eps one ulp below a reported margin: that point sits on the edge of
    # the tree's ball, where only the slack keeps it a candidate.
    ps = _uniform(300, 7)
    t = _swept(ps)
    margins = sorted({m for *_, m in band_is_valid_delaunay(ps, t, 1e-12).violations})
    picks = [margins[k] for k in np.linspace(0, len(margins) - 1, 40).astype(int)]
    for eps in [math.nextafter(m, 0.0) for m in picks] + [math.nextafter(1.0, 0.0)]:
        assert is_valid_delaunay(ps, t, eps) == band_is_valid_delaunay(ps, t, eps), eps


def test_eps_near_one_for_a_point_near_a_centre():
    # The circle of triangle (0, 1, 3) has centre (0, 0) and radius a, and
    # p = 2 lies just below it, a tiny distance d from the centre.  With eps
    # one ulp below p's margin, the rounding of r - d (up to half an ulp of
    # r) is large relative to d: the absolute term of the query radius
    # covers it, where the relative slack alone does not.
    rng = random.Random(13)
    t = Triangulation([(0, 1, 3), (0, 2, 1)])
    for _ in range(300):
        a = rng.uniform(1.0, 2.0)
        p = (rng.uniform(-1.0, 1.0) * 2.0**-30, -rng.uniform(0.5, 1.0) * 2.0**-30)
        ps = PointSet([(-a, 0.0), (a, 0.0), p, (0.0, a)])
        (margin,) = [m for *_, m in band_is_valid_delaunay(ps, t, 0.5).violations]
        eps = math.nextafter(margin, 0.0)
        assert is_valid_delaunay(ps, t, eps) == band_is_valid_delaunay(ps, t, eps), (a, p)


@pytest.mark.parametrize("eps", [1.0, 2.0, 1e300, math.inf])
def test_eps_of_one_or_more_admits_nothing(eps):
    ps = _uniform(300, 2)
    assert is_valid_delaunay(ps, _swept(ps), eps).valid


@pytest.mark.parametrize("eps", [-1e-9, -math.inf, math.nan])
def test_negative_or_nan_eps_raises(eps):
    ps = PointSet([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match="nonnegative"):
        is_valid_delaunay(ps, delaunay(ps), eps)


# --------------------------------------------------------------------------
# The debug line
# --------------------------------------------------------------------------

LINE = re.compile(
    r"validity n=(\d+), (\d+) triangles, eps=(\S+): (lemma|tree|dense) path, "
    r"(\d+) candidates, (\d+) filter, (\d+) reference, (\d+) integer, (\d+) violations"
)


def _validity_line(caplog, capsys, ps, t, eps):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="delaunay_dilation.triangulation"):
        report = is_valid_delaunay(ps, t, eps)
    lines = [r.getMessage() for r in caplog.records if r.name == "delaunay_dilation.triangulation"]
    assert len(lines) == 1
    m = LINE.fullmatch(lines[0])
    assert m, lines[0]
    n, tris, got_eps, path, *counts = m.groups()
    assert (int(n), int(tris), float(got_eps)) == (len(ps), len(t), eps)
    names = ("candidates", "filter", "reference", "integer", "violations")
    line = dict(path=path, **dict(zip(names, map(int, counts))))
    assert line["violations"] == len(report.violations)
    assert capsys.readouterr().out == ""
    return line


def _interior_edges(t):
    return 3 * len(t) - len(t.edges)  # each interior edge is in two triangles


@pytest.mark.parametrize("name", ["grid20", "circle25", "uniform1000"])
def test_valid_input_takes_the_lemma(name, caplog, capsys):
    # The grid's unit squares and the circle are exact ties: legal edges.
    ps, t = _case(name)
    line = _validity_line(caplog, capsys, ps, t, 0.0)
    assert line["path"] == "lemma"
    assert line["candidates"] == _interior_edges(t)
    assert line["candidates"] == line["filter"] + line["reference"] + line["integer"]


def test_invalid_input_scans_every_pair(caplog, capsys):
    out = generate_chew(ChewSpec(512))
    ps, t = out.points, out.triangulation
    line = _validity_line(caplog, capsys, ps, t, 0.0)
    assert line["path"] == "dense" and line["violations"] == 129928
    pairs = len(t) * len(ps)
    assert line["candidates"] == _interior_edges(t) + pairs
    own = 3 * len(t)  # a triangle's own vertices are decided without a test
    assert line["filter"] + line["reference"] + line["integer"] + own == line["candidates"]
    assert line["reference"] > 250000 and line["integer"] < 1000


@pytest.mark.parametrize(
    "name, path",
    [("uniform1000", "tree"), ("uniform300_swept", "tree"), ("sliver", "dense"),
     ("uniform200_2e520_swept", "dense"), ("uniform200_2e505_swept", "dense"),
     ("uniform200_1e-160", "dense")],
)
def test_eps_above_zero_path(name, path, caplog, capsys):
    ps, t = _case(name)
    line = _validity_line(caplog, capsys, ps, t, 1e-9)
    assert line["path"] == path
    assert line["filter"] == line["reference"] == line["integer"] == 0
    if path == "dense":
        assert line["candidates"] == len(t) * len(ps)
    else:  # few candidates beyond the violations themselves
        assert line["candidates"] - line["violations"] < len(t)


def test_uniform_16000_is_output_sensitive(caplog, capsys):
    """Valid uniform input: the lemma's edges at eps=0 and no candidate at
    eps=1e-9, where the parent scanned all 5e8 pairs (about 50 s and 10 s)."""
    ps = sample(UniformSquare(), 16000, 1)
    t = delaunay(ps)
    line = _validity_line(caplog, capsys, ps, t, 0.0)
    assert line["path"] == "lemma" and line["candidates"] == _interior_edges(t)
    line = _validity_line(caplog, capsys, ps, t, 1e-9)
    assert line["path"] == "tree" and line["candidates"] == 0
