"""The Delaunay builder against the Bowyer-Watson builder it replaced.

Cocircular ties are broken lexicographically, so the triangles are a pure
function of the points and any correct builder returns the same triples.
``oracles.bowyer_watson_delaunay`` is the original randomized incremental
builder; ``delaunay`` starts from Qhull's joggled triangles, else from Qhull's
default ones, else from an exact x-sweep, and legalises with rounds of exact
Lawson flips.
"""

import functools
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from delaunay_dilation import triangulation
from delaunay_dilation.constructions import (
    ChewSpec,
    ThreeCircleSpec,
    TwoSemicircleSpec,
    generate_chew,
    generate_three_circle,
    generate_two_semicircle,
)
from delaunay_dilation.experiments import UniformSquare, sample
from delaunay_dilation.geom import Point2
from delaunay_dilation.triangulation import (
    AllCollinearError,
    PointSet,
    delaunay,
    perturb,
)
from oracles import bowyer_watson_delaunay

SRC = Path(__file__).resolve().parent.parent / "src"


@functools.cache
def three_circle_60():
    return generate_three_circle(ThreeCircleSpec(arc_density=60.0)).points


CORPUS = {
    "uniform1000": lambda: sample(UniformSquare(), 1000, seed=1),
    "uniform4000": lambda: sample(UniformSquare(), 4000, seed=1),
    "chew16": lambda: generate_chew(ChewSpec(16)).points,
    "chew512": lambda: generate_chew(ChewSpec(512)).points,
    "convex222": lambda: generate_two_semicircle(TwoSemicircleSpec(n_arc=111)).points,
    "convex2000": lambda: generate_two_semicircle(TwoSemicircleSpec(n_arc=1000)).points,
    "three_circle": lambda: generate_three_circle(ThreeCircleSpec()).points,
    "three_circle60": three_circle_60,
    "grid20": lambda: PointSet.from_coords(
        [(x, y) for x in range(20) for y in range(20)]
    ),
}
for _k in range(3, 15):
    CORPUS[f"three_circle60_delta1e-{_k}"] = functools.partial(
        lambda k: perturb(three_circle_60(), 10.0**-k, seed=k), _k
    )

SLIVER = [
    (-0.5181941778263308, -0.5181941778263308),
    (0.4818058221736692, 0.4818058221736692),
    (-0.018668926078068915, -0.01866892607806891),
    (0.0013688606100977774, 0.0013688606100977772),
]
FIVE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.3, 0.6)]


def _near_duplicate():
    ps = sample(UniformSquare(), 40, seed=2)
    p = ps[7]
    return PointSet(ps.points + (Point2(p.x + 1e-15, p.y),))


def _cluster():
    rng = np.random.default_rng(5)
    return PointSet.from_coords(1.0 + 1e-13 * rng.random((50, 2)))


# Inputs whose Qhull output cannot seed the flips: (input, what Qhull does).
FALLBACK = {
    "near_duplicate_1e-15": (_near_duplicate, "coplanar"),
    "collinear_plus_nextafter": (
        lambda: PointSet.from_coords(
            [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
            + [(1.5, math.nextafter(1.5, 2.0))]
        ),
        "error",
    ),
    "five_times_1e-300": (
        lambda: PointSet.from_coords([(x * 1e-300, y * 1e-300) for x, y in FIVE]),
        "error",
    ),
    "five_times_1e300": (
        lambda: PointSet.from_coords([(x * 1e300, y * 1e300) for x, y in FIVE]),
        "error",
    ),
    "collinear_hull_apex_1e-12": (
        lambda: PointSet.from_coords(
            [(i / 50, 0.0) for i in range(51)] + [(0.5, 1e-12)]
        ),
        "coplanar",
    ),
    "sliver": (lambda: PointSet.from_coords(SLIVER), "error"),
    "cluster_1e-13": (_cluster, "coplanar"),
}


@pytest.fixture
def sweep_calls(monkeypatch):
    """Count the builder's fallbacks to the exact x-sweep start."""
    calls = []
    original = triangulation._sweep_triangulation

    def spy(ps):
        calls.append(len(ps))
        return original(ps)

    monkeypatch.setattr(triangulation, "_sweep_triangulation", spy)
    return calls


@pytest.mark.parametrize("name", list(CORPUS))
def test_matches_bowyer_watson(name, sweep_calls):
    ps = CORPUS[name]()
    assert delaunay(ps).triangles == bowyer_watson_delaunay(ps).triangles
    assert sweep_calls == []


@pytest.mark.parametrize("name", list(FALLBACK))
def test_fallback_corpus_takes_sweep_and_matches(name, sweep_calls):
    make, qhull_does = FALLBACK[name]
    ps = make()
    if qhull_does == "error":
        with pytest.raises(scipy.spatial.QhullError):
            scipy.spatial.Delaunay(ps.coords)
    else:
        assert len(scipy.spatial.Delaunay(ps.coords).coplanar) > 0
    got = delaunay(ps)
    assert sweep_calls == [len(ps)]
    assert got.triangles == bowyer_watson_delaunay(ps).triangles


class _FakeQhull:
    def __init__(self, simplices):
        self.simplices = np.array(simplices, dtype=np.int32)


SQUARE_CENTRE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
PENTAGON_CENTRE = [
    (math.cos(0.1 + 0.4 * math.pi * k), math.sin(0.1 + 0.4 * math.pi * k))
    for k in range(5)
] + [(0.0, 0.0)]
# Qhull outputs that must be rejected: (points, triangles).
BAD_QHULL = {
    "unused_point": (SQUARE_CENTRE, [[0, 1, 2], [0, 2, 3]]),
    "flat_triangle": (
        SQUARE_CENTRE, [[0, 4, 2], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    ),
    # Two triangles on the same side of edge 0-1.
    "overlap": (SQUARE_CENTRE, [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4], [0, 1, 2]]),
    # The hull is not covered: the boundary turns right at the centre.
    "hole": (SQUARE_CENTRE, [[0, 1, 4], [1, 2, 4], [2, 3, 4]]),
    # A fan bounded by a pentagram: it turns left everywhere but winds twice.
    "double_cover": (
        PENTAGON_CENTRE, [[0, 2, 5], [2, 4, 5], [4, 1, 5], [1, 3, 5], [3, 0, 5]]
    ),
}


@pytest.mark.parametrize("reason", list(BAD_QHULL))
def test_unusable_qhull_output_takes_sweep(reason, monkeypatch, sweep_calls):
    points, simplices = BAD_QHULL[reason]
    fake = _FakeQhull(simplices)
    monkeypatch.setattr(scipy.spatial, "Delaunay", lambda coords, qhull_options: fake)
    ps = PointSet.from_coords(points)
    got = delaunay(ps)
    assert sweep_calls == [len(ps)]
    assert got.triangles == bowyer_watson_delaunay(ps).triangles


def test_usable_qhull_output_is_legalised(monkeypatch, sweep_calls):
    # Cw triangles with the illegal diagonal: re-oriented and flipped.
    pts = [(0.0, 0.0), (1.0, 0.0), (1.05, 1.05), (0.0, 1.0)]
    fake = _FakeQhull([[0, 2, 1], [0, 3, 2]])
    monkeypatch.setattr(scipy.spatial, "Delaunay", lambda coords, qhull_options: fake)
    got = delaunay(PointSet.from_coords(pts))
    assert sweep_calls == []
    assert got.triangles == ((0, 1, 3), (1, 2, 3))


@pytest.mark.parametrize("refused", [("QJ",), ("QJ", None)])
def test_refused_seeds_fall_through(refused, monkeypatch, caplog):
    # A seed with a flat triangle is refused: the joggled one first, then
    # the plain one, and the x-sweep seeds the flips instead.
    real = scipy.spatial.Delaunay

    def qhull(coords, qhull_options):
        if qhull_options in refused:
            return _FakeQhull([[0, 0, 1]])
        return real(coords, qhull_options=qhull_options)

    monkeypatch.setattr(scipy.spatial, "Delaunay", qhull)
    ps = CORPUS["three_circle60"]()
    counts = _debug_counts(caplog, ps)
    assert counts["seed"] == ("plain" if None not in refused else "sweep")
    assert counts["flips"] > 0
    assert delaunay(ps).triangles == bowyer_watson_delaunay(ps).triangles


def _debug_counts(caplog, ps):
    """The counts of the one debug line delaunay(ps) logs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="delaunay_dilation.triangulation"):
        delaunay(ps)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "delaunay_dilation.triangulation"]
    assert len(lines) == 1
    m = re.fullmatch(
        r"delaunay n=(\d+): (joggled|plain|sweep) seed, (\d+) rounds, "
        r"(\d+) edges tested, (\d+) exact, (\d+) flips, (\d+) ties",
        lines[0],
    )
    assert m, lines[0]
    n, seed, *rest = m.groups()
    assert int(n) == len(ps)
    return dict(seed=seed, **dict(zip(("rounds", "tested", "exact", "flips", "ties"),
                                      map(int, rest))))


def test_debug_line_names_the_seed_and_counts_the_flips(caplog):
    chew = _debug_counts(caplog, CORPUS["chew512"]())
    assert chew["seed"] == "joggled" and chew["flips"] > 0
    assert chew["rounds"] >= 2 and chew["tested"] >= chew["exact"] > 0
    grid = _debug_counts(caplog, CORPUS["grid20"]())
    # Every unit square of the grid is one cocircular tie.
    assert grid["seed"] == "plain" and grid["ties"] == 19 * 19
    uniform = _debug_counts(caplog, CORPUS["uniform1000"]())
    assert uniform["seed"] == "joggled"
    assert uniform["flips"] == uniform["exact"] == uniform["ties"] == 0
    assert uniform["rounds"] == 1
    for name, (make, _) in FALLBACK.items():
        assert _debug_counts(caplog, make())["seed"] == "sweep", name


def test_all_collinear_raises_through_sweep(sweep_calls):
    with pytest.raises(AllCollinearError):
        delaunay(PointSet.from_coords([(float(i), 2.0 * i) for i in range(6)]))
    assert sweep_calls == [6]


def _nudge(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    return value


@st.composite
def near_degenerate_sets(draw):
    """Grids and cocircular sets, some coordinates moved by a few ulps."""
    scale = draw(st.sampled_from([1.0, 0.1, 3.0, 1e-50, 1e50]))
    if draw(st.booleans()):
        kx, ky = draw(st.integers(2, 6)), draw(st.integers(2, 6))
        base = [(x * scale, y * scale) for x in range(kx) for y in range(ky)]
    else:
        m = draw(st.integers(4, 16))
        turn = draw(st.sampled_from([0.0, 0.25, 1.0 / 3.0]))
        angles = [2 * math.pi * (k + turn) / m for k in range(m)]
        base = [(scale * math.cos(a), scale * math.sin(a)) for a in angles]
        if draw(st.booleans()):
            base.append((0.0, 0.0))
    pts = [list(p) for p in base]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(pts) - 1))
        axis = draw(st.integers(0, 1))
        pts[i][axis] = _nudge(pts[i][axis], draw(st.integers(-3, 3)))
    coords = {tuple(p) for p in pts}
    return PointSet.from_coords(sorted(coords))


@given(near_degenerate_sets())
@settings(max_examples=80, deadline=None)
def test_near_degenerate_matches_bowyer_watson(ps):
    assert delaunay(ps).triangles == bowyer_watson_delaunay(ps).triangles


@given(near_degenerate_sets())
@settings(max_examples=60, deadline=None)
def test_legalising_the_sweep_seed_matches(ps):
    # The sweep's fans are the worst seed: most edges start illegal.
    expected = delaunay(ps).triangles
    with mock.patch.object(triangulation, "_qhull_triangles", return_value=None):
        assert delaunay(ps).triangles == expected


def test_cli_import_leaves_scipy_spatial_unloaded():
    # delaunay imports scipy.spatial on first use; importing it with the CLI
    # would add about 0.1 s to every command's start-up.
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, delaunay_dilation.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
