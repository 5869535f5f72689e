"""The structure check against the Euler-count check it replaced.

``_structural_check`` and the builder's fallback decision share one tiling
test: every point used, no directed edge twice, and the unpaired edges one
convex ccw cycle.  ``oracles.euler_structural_check`` is the original check,
which only counted triangles, edges and boundary edges against the hull.
Whatever the tiling test accepts, the Euler counts accept too; the reverse
fails on the pentagram fan, which winds twice around its centre.  The
tiling test's convex-cycle step, ``_ring`` and then ``_ring_sign``, is
checked against its original list-based version,
``oracles.loop_is_convex_cycle``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaunay_dilation.triangulation import (
    AllCollinearError,
    PointSet,
    Triangulation,
    TriangulationStructureError,
    _ring,
    _ring_sign,
    _structural_check,
    convex_hull,
    delaunay,
    is_valid_delaunay,
    stability_check,
)
from oracles import euler_structural_check, loop_is_convex_cycle
from test_builder import BAD_QHULL
from test_validity import _flip


def _accepts(check, ps, t) -> bool:
    try:
        check(ps, t)
    except TriangulationStructureError:
        return False
    return True


def _ccw_triples(ps, t):
    return list(map(tuple, _structural_check(ps, t)[0].tolist()))


@pytest.mark.parametrize("reason", list(BAD_QHULL))
def test_is_valid_delaunay_rejects_unusable_qhull_output(reason):
    points, simplices = BAD_QHULL[reason]
    ps = PointSet(points)
    with pytest.raises(TriangulationStructureError):
        is_valid_delaunay(ps, Triangulation(simplices), 0.0)


@pytest.mark.parametrize("reason", list(BAD_QHULL))
def test_stability_check_refuses_unusable_qhull_output(reason):
    # A flat triangle or a repeated directed edge is refused like a cw row,
    # not raised: no perturbation of the points makes such a target Delaunay.
    points, simplices = BAD_QHULL[reason]
    assert stability_check(PointSet(points), Triangulation(simplices), 1e-9, trials=3, seed=0) is False


def test_double_cover_is_the_known_difference():
    points, simplices = BAD_QHULL["double_cover"]
    ps = PointSet(points)
    t = Triangulation(simplices)
    assert len(euler_structural_check(ps, t)) == 5
    assert not _accepts(_structural_check, ps, t)


def _small_set(draw):
    """A PointSet of 3 to 12 random points, or of 3 or more 4x4-grid points."""
    n = draw(st.integers(3, 12))
    if draw(st.booleans()):
        coords = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, 2))
        pts = [tuple(p) for p in coords.tolist()]
    else:
        cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
        pts = [(float(x), float(y)) for x, y in draw(st.lists(cells, min_size=3, max_size=n, unique=True))]
    return pts, PointSet(pts)


@st.composite
def triangulated_sets(draw):
    """A Delaunay triangulation of a small random or grid set, flipped a few times."""
    pts, ps = _small_set(draw)
    try:
        tris = list(delaunay(ps).triangles)
    except AllCollinearError:
        assume(False)
    for pick in draw(st.lists(st.integers(0, 10**6), max_size=4)):
        tris = _flip(tris, pts, pick)
    return ps, tris


def _corrupt(draw, n, tris):
    """Drop, add or rewire a triangle, or turn one clockwise (still a tiling)."""
    k = draw(st.integers(0, len(tris) - 1))
    kind = draw(st.sampled_from(["drop", "add", "rewire", "turn"]))
    tri = list(tris[k])
    others = [i for i in range(n) if i not in tri]
    if kind == "drop":
        return tris[:k] + tris[k + 1 :]
    if kind == "add":
        return tris + [tuple(draw(st.permutations(range(n)))[:3])]
    if kind == "rewire" and others:
        tri[draw(st.integers(0, 2))] = draw(st.sampled_from(others))
    else:
        tri[1], tri[2] = tri[2], tri[1]
    return tris[:k] + [tuple(tri)] + tris[k + 1 :]


@given(triangulated_sets(), st.data())
@settings(max_examples=300, deadline=None)
def test_tiling_acceptance_implies_euler_acceptance(case, data):
    ps, tris = case
    t = Triangulation(tris)
    assert _ccw_triples(ps, t) == euler_structural_check(ps, t)
    for _ in range(data.draw(st.integers(1, 3))):
        if tris:
            tris = _corrupt(data.draw, len(ps), tris)
    t = Triangulation(tris)
    if _accepts(_structural_check, ps, t):
        assert _ccw_triples(ps, t) == euler_structural_check(ps, t)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_convex_cycle_matches_the_list_version(data):
    # Hull cycles in either direction, rotated, then possibly corrupted; or
    # a random cycle through a random subset of the points.
    _, ps = _small_set(data.draw)
    if data.draw(st.booleans()):
        ring = convex_hull(ps, keep_collinear=data.draw(st.booleans()))
        if data.draw(st.booleans()):
            ring = ring[::-1]
        k = data.draw(st.integers(0, len(ring) - 1))
        ring = ring[k:] + ring[:k]
    else:
        ring = data.draw(st.lists(st.integers(0, len(ps) - 1), min_size=1, unique=True))
    tails, heads = list(ring), ring[1:] + ring[:1]
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(0, len(tails) - 1))
        kind = data.draw(st.sampled_from(["drop", "add", "rewire"]))
        if kind == "drop" and len(tails) > 1:
            del tails[k], heads[k]
        elif kind == "add":
            tails.append(data.draw(st.integers(0, len(ps) - 1)))
            heads.append(data.draw(st.integers(0, len(ps) - 1)))
        else:
            heads[k] = data.draw(st.integers(0, len(ps) - 1))
    ring = _ring(np.array(tails), np.array(heads), len(ps))
    got = ring is not None and _ring_sign(ps.coords, ring) >= 0
    assert got == loop_is_convex_cycle(ps, tails, heads)
