"""Indexed triangulations and a robust Delaunay builder.

A PointSet is one (n, 2) float array and a Triangulation one (T, 3) index
array; edges and adjacency are derived from them on demand.  The Delaunay
builder takes the first seed triangulation that tiles the hull under exact
orientations: Qhull joggled, Qhull with its default options, then an exact
x-sweep.  Rounds of Lawson flips legalise it, each a vectorised float filter
of the incircle predicate, exact integer signs for the rows the filter leaves
open, and a set of flips on disjoint triangle pairs, so cocircular and
collinear degeneracies are handled without tolerances.  Every flip lowers the
lifted surface, so the rounds end.
Exactly cocircular groups are re-triangulated to the lexicographically
smallest completion, so the triangles are a pure function of the points.

Every predicate sign here comes from ``geom``: its batched paths
``_orientations`` and ``_incircle_signs`` (the float filter, then one exact
step on the rows it leaves open).  The float circumcircles are
``geom._circumcircles_array``.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    _IGNORE,
    ExactIncircle,
    GeometryError,
    Point2,
    _circumcircles_array,
    _incircle_signs,
    _orientations,
    orient2d,
)

__all__ = [
    "PointSet",
    "Triangulation",
    "ValidityReport",
    "TriangulationStructureError",
    "AllCollinearError",
    "RealizationError",
    "delaunay",
    "is_valid_delaunay",
    "stability_check",
    "perturb",
    "make_unique_delaunay",
    "convex_hull",
    "points_to_json",
    "points_from_json",
    "triangulation_to_json",
    "triangulation_from_json",
]

log = logging.getLogger(__name__)


class TriangulationStructureError(GeometryError):
    """The triple list is not a triangulation of the point set."""


class AllCollinearError(GeometryError):
    """Triangulation requires at least three non-collinear points."""


class RealizationError(GeometryError):
    """No perturbation within budget realizes the requested triangulation."""


class PointSet:
    """Ordered, duplicate-free points with stable integer indices.

    The points are stored once, as the read-only (n, 2) float64 array
    ``coords``.  ``ps[i]``, iteration and ``points`` are ``Point2`` views of
    it, built on demand.
    """

    def __init__(self, points):
        """points: an (n, 2) array, or an iterable of (x, y) pairs or Point2s.

        Raises GeometryError for anything else, for a coordinate that is not
        finite and for a repeated point.
        """
        coords = _rows(points, 2, np.float64)
        bad = ~np.isfinite(coords).all(axis=1)
        if bad.any():
            x, y = coords[bad.argmax()].tolist()
            raise GeometryError(f"non-finite coordinates ({x!r}, {y!r})")
        repeat = _repeats(coords)
        if repeat.any():
            j = int(repeat.argmax())
            i = int((coords[:j] == coords[j]).all(axis=1).argmax())
            raise GeometryError(f"duplicate point at indices {i} and {j}")
        coords.flags.writeable = False
        self.coords = coords

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Point2:
        return Point2(*self.coords[i].tolist())

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and np.array_equal(self.coords, other.coords)

    @property
    def points(self) -> tuple[Point2, ...]:
        return tuple(Point2(x, y) for x, y in self.coords.tolist())


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Whether each row equals an earlier one, by float or integer ==."""
    order = np.lexsort(rows.T[::-1])
    same = (rows[order[1:]] == rows[order[:-1]]).all(axis=1)
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:][same]] = True  # the sort is stable
    return repeat


def _rows(values, width: int, dtype=None) -> np.ndarray:
    """values, an array or an iterable of rows (Point2s too), as a new
    (k, width) array of dtype; GeometryError for anything else, booleans and
    strings included, which numpy would read as numbers."""
    try:
        rows = values if isinstance(values, np.ndarray) else [tuple(v) for v in values]
        cells = [values.dtype.type()] if rows is values else itertools.chain.from_iterable(rows)
        if any(issubclass(k, (bool, np.bool_, str, bytes)) for k in set(map(type, cells))):
            raise TypeError("booleans and strings are not numbers")
        arr = np.array(rows, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as e:
        raise GeometryError(f"expected rows of {width} numbers: {e}") from None
    if arr.shape == (0,):
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise GeometryError(f"expected rows of {width} numbers")
    return arr


def _index_array(rows, width: int) -> np.ndarray:
    """rows, an array or an iterable of rows, as a new (k, width) int64 array.

    Integral floats, such as JSON's 2.0, are read as integers.  Anything
    else, and an index beyond int64, raises GeometryError.
    """
    arr = _rows(rows, width)
    if arr.dtype.kind in "fu" and ((arr == np.trunc(arr)) & (np.abs(arr) < 2.0**63)).all():
        arr = arr.astype(np.int64)
    if arr.dtype.kind != "i":
        raise GeometryError("indices must be integers within int64")
    return arr.astype(np.int64)


class Triangulation:
    """Counterclockwise index triples, canonically rotated and sorted.

    The triples are stored once, as the read-only (T, 3) int64 array
    ``array``: each row turned so that its first smallest index leads, which
    keeps its cyclic order and so its orientation, and the rows in
    lexicographic order.  ``triangles`` and ``edges`` are tuple views.
    """

    def __init__(self, triples):
        """triples: a (T, 3) array or an iterable of index triples, read as
        ``_index_array`` reads them."""
        tris = _index_array(triples, 3)
        turn = tris.argmin(axis=1)[:, None] + np.arange(3)
        tris = np.take_along_axis(tris, turn % 3, axis=1)
        tris = tris[np.lexsort(tris.T[::-1])]
        tris.flags.writeable = False
        self.array = tris

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        return isinstance(other, Triangulation) and np.array_equal(self.array, other.array)

    @property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(map(tuple, self.array.tolist()))

    @property
    def edge_array(self) -> np.ndarray:
        """The undirected edges, as ascending (E, 2) rows u < v."""
        u, v = self.array.ravel(), self.array[:, [1, 2, 0]].ravel()
        pairs = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
        pairs = pairs[np.lexsort(pairs.T[::-1])]
        twice = np.flatnonzero((pairs[1:] == pairs[:-1]).all(axis=1)) + 1  # interior edges
        return np.delete(pairs, twice, axis=0)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    def triangle_set(self) -> frozenset:
        return frozenset(frozenset(t) for t in self.triangles)


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[tuple[int, int, float], ...]  # (triangle idx, point idx, margin)


# --------------------------------------------------------------------------
# JSON interchange
# --------------------------------------------------------------------------

def points_to_json(ps: PointSet) -> str:
    return json.dumps({"points": ps.coords.tolist()})


def points_from_json(text: str) -> PointSet:
    data = json.loads(text)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError("expected an object with a 'points' array")
    return PointSet(data["points"])


def triangulation_to_json(t: Triangulation) -> str:
    return json.dumps({"triangles": t.array.tolist()})


def triangulation_from_json(text: str) -> Triangulation:
    data = json.loads(text)
    if not isinstance(data, dict) or "triangles" not in data:
        raise ValueError("expected an object with a 'triangles' array")
    return Triangulation(data["triangles"])


# --------------------------------------------------------------------------
# Convex hull (exact orientation; collinear boundary points kept)
# --------------------------------------------------------------------------

def convex_hull(ps: PointSet, keep_collinear: bool = True) -> list[int]:
    """Hull vertex indices in ccw order, from the lexicographically smallest.

    With keep_collinear=True, points lying on hull edges are included.  The
    hull is read from the final chains of ``_sweep_triangulation``; that of
    fully collinear input is the sorted points, or their two ends.
    """
    order = np.lexsort(ps.coords.T[::-1]).tolist()
    if len(ps) < 3:
        return order
    tris, lower, upper = _sweep_triangulation(ps)
    if not len(tris):
        return order if keep_collinear else [order[0], order[-1]]
    ring = np.array(lower[:-1] + upper[:0:-1], dtype=np.int64)
    if not keep_collinear:
        turns = np.stack([np.roll(ring, 1), ring, np.roll(ring, -1)], axis=1)
        ring = ring[_orientations(ps.coords, turns) > 0]
    return ring.tolist()


# --------------------------------------------------------------------------
# Delaunay builder
# --------------------------------------------------------------------------

def delaunay(ps: PointSet) -> Triangulation:
    """Delaunay triangulation, exactly valid under the incircle predicate.

    Seed: the first of three triangulations that tiles the hull exactly, by
    the exact ``_orientations`` and ``_tiling`` test.  Qhull's joggled mode
    (``scipy.spatial.Delaunay`` with ``QJ``) comes first: it is fast on
    nearly cocircular input, but its triangles belong to slightly moved
    points and can be flat or folded, as along a grid's collinear hull.
    Qhull's default options come next, and an x-sweep with exact
    orientations last, for input where Qhull fails or leaves a point out.

    Rounds of Lawson flips then legalise the seed (``_flip_rounds``).  A
    flip lowers the lifted surface, so the rounds end at Lawson's fixed
    point, where no edge is strictly illegal: a Delaunay triangulation.
    The Delaunay triangulations of a point set differ only inside the
    empty circles through four or more points, and the edges whose exact
    incircle is 0 join exactly the triangles of those circles.  Each such
    group is re-triangulated to the lexicographically smallest set of index
    triples, so the result is a pure function of the points, whatever the
    seed.  Logs one debug line per call with the seed taken, the rounds,
    the edges tested, the exact fallbacks (split into those that reference
    circles and those that integers decided), the flips and the tie edges.
    """
    if len(ps) < 3:
        raise GeometryError("need at least 3 points")
    seed, tris, quads = _seed(ps)
    tris, quads, ties, counts = _flip_rounds(ps.coords, tris, quads)
    log.debug(
        "delaunay n=%d: %s seed, %d rounds, %d edges tested, %d exact "
        "(%d reference, %d integer), %d flips, %d ties",
        len(ps), seed, counts["rounds"], counts["tested"], counts["reference"] + counts["integer"],
        counts["reference"], counts["integer"], counts["flips"], len(ties),
    )
    if len(ties):
        tris = _break_cocircular_ties(tris, quads, ties)
    return Triangulation(tris)


def _seed(ps: PointSet):
    """(name, ccw triangles, their half-edges) of the first seed that tiles
    hull(ps): Qhull joggled, Qhull with its default options, the x-sweep.

    Integer grids take the second: their joggled triangles are flat along
    the hull, and from the sweep the 70x70 grid needs 69 rounds and 161,874
    flips, about twice the time of the whole call.
    """
    for name, options in (("joggled", "QJ"), ("plain", None)):
        tris = _qhull_triangles(ps, options)
        frame = None if tris is None else _tiling(ps.coords, tris)
        if frame is not None:
            return name, tris, frame[0]
    tris = _sweep_triangulation(ps)[0]
    if not len(tris):
        raise AllCollinearError("all points are collinear")
    return "sweep", tris, _tiling(ps.coords, tris)[0]


def _flip_rounds(coords: np.ndarray, tris: np.ndarray, quads):
    """Legalise ccw triangles that tile the hull by rounds of exact Lawson flips.

    A round tests the pending interior edges: the float filter, then
    ``geom.ExactIncircle`` on the rows it leaves open (one instance, so its
    integer lift and reference circles are built once, when rows need
    them).  Each triangle then goes to its smallest strictly illegal edge,
    and the edges that get both of their triangles flip.  Their triangle
    pairs are disjoint, so the flips commute, and the smallest illegal edge
    always flips.  Only edges of triangles that had an illegal edge are
    tested again.

    Returns the triangles, their half-edges, the ties and the counts of
    rounds, edges tested and flips, and of the exact fallbacks that
    reference circles and integers decided.  The ties are the
    interior u < v half-edges whose last test gave 0.  An edge's test stays
    current while neither of its triangles changes, and so does its index.
    """
    tris = tris.copy()
    u, v, w, twin = quads
    last = np.zeros(len(u), dtype=np.int8)
    edges = np.flatnonzero((twin >= 0) & (u < v))
    exact = ExactIncircle(coords)
    counts = dict(rounds=0, tested=0, flips=0)
    while len(edges):
        counts["rounds"] += 1
        counts["tested"] += len(edges)
        signs = _incircle_signs(coords, u[edges], v[edges], w[edges], w[twin[edges]], exact)
        last[edges] = signs
        bad = edges[signs > 0]
        if not len(bad):
            break
        left, right = bad // 3, twin[bad] // 3
        claim = np.full(len(tris), len(u))
        np.minimum.at(claim, left, bad)
        np.minimum.at(claim, right, bad)
        flip = bad[(claim[left] == bad) & (claim[right] == bad)]
        fu, fv, fw, fx = u[flip], v[flip], w[flip], w[twin[flip]]
        # Triangles (u, v, w) and (v, u, x) become (u, x, w) and (x, v, w).
        tris[flip // 3] = np.stack([fu, fx, fw], axis=1)
        tris[twin[flip] // 3] = np.stack([fx, fv, fw], axis=1)
        counts["flips"] += len(flip)
        dirty = np.zeros(len(tris), dtype=bool)
        dirty[left] = dirty[right] = True
        u, v, w, twin = _edge_quads(tris)
        edges = np.flatnonzero((twin >= 0) & (u < v))
        edges = edges[dirty[edges // 3] | dirty[twin[edges] // 3]]
    ties = np.flatnonzero((twin >= 0) & (u < v) & (last == 0))
    return tris, (u, v, w, twin), ties, {**counts, **exact.counts}


def _turn_ccw(coords: np.ndarray, tris) -> tuple[np.ndarray, np.ndarray]:
    """A copy of the index triples tris with every row whose orientation is
    not positive turned, (a, b, c) -> (a, c, b), and those orientations.
    The first vertex stays, since ``_circumcircles_array`` measures from it."""
    tris = np.array(tris, dtype=np.int64).reshape(-1, 3)
    signs = _orientations(coords, tris)
    tris[signs <= 0] = tris[signs <= 0][:, [0, 2, 1]]
    return tris, signs


def _qhull_triangles(ps: PointSet, options: str | None) -> np.ndarray | None:
    """Qhull's triangles turned ccw; None on a Qhull error or a flat triangle.

    options are Qhull's (``qhull_options``); None takes scipy's defaults.
    """
    from scipy.spatial import Delaunay, QhullError

    try:
        simplices = Delaunay(ps.coords, qhull_options=options).simplices
    except QhullError:
        return None
    tris, signs = _turn_ccw(ps.coords, simplices)
    return None if (signs == 0).any() else tris


def _sweep_triangulation(ps: PointSet) -> tuple[np.ndarray, list[int], list[int]]:
    """Some triangulation of the hull by an x-sweep with two hull chains:
    the ccw triangles, empty when all points are collinear, and the final
    lower and upper chains, in x order with their collinear points."""
    pts = ps.points
    order = np.lexsort(ps.coords.T[::-1]).tolist()
    tris = []
    lower = [order[0]]
    upper = [order[0]]
    for idx in order[1:]:
        p = pts[idx]
        while len(lower) >= 2 and orient2d(pts[lower[-2]], pts[lower[-1]], p) < 0:
            tris.append((lower[-2], idx, lower[-1]))
            lower.pop()
        while len(upper) >= 2 and orient2d(pts[upper[-2]], pts[upper[-1]], p) > 0:
            tris.append((upper[-2], upper[-1], idx))
            upper.pop()
        lower.append(idx)
        upper.append(idx)
    return np.array(tris, dtype=np.int64).reshape(-1, 3), lower, upper


def _tiling(coords: np.ndarray, tris: np.ndarray):
    """The ``_frame`` of ccw triangles if they tile the hull of coords, else None.

    They tile it when ``_frame`` holds and its hull ring is a convex ccw
    cycle.  Then each point off the edges lies in as many triangles as the
    cycle winds around it: one inside the hull, zero outside.
    """
    frame = _frame(tris, len(coords))
    if frame is None or _ring_sign(coords, frame[1]) < 0:
        return None
    return frame


def _frame(tris: np.ndarray, n: int):
    """(half-edges, hull ring) of triangles tris over n points, or None.

    This is the part of the Delaunay lemma that needs no coordinates: there
    is a triple, every index lies in range(n) and is used, no directed edge
    repeats, and the unpaired edges form one cycle, the hull ring.
    """
    if (
        not len(tris)
        or tris.min() < 0
        or tris.max() >= n
        or np.bincount(tris.ravel(), minlength=n).min() == 0
    ):
        return None
    quads = _edge_quads(tris)
    if quads is None:
        return None
    u, v, _, twin = quads
    hull = twin < 0
    ring = _ring(u[hull], v[hull], n)
    return None if ring is None else (quads, ring)


def _inner(quads):
    """The interior edges of half-edges quads as rows (u, v, w, x): u < v,
    u->v in ccw triangle (u, v, w), and x across the edge."""
    u, v, w, twin = quads
    k = np.flatnonzero((twin >= 0) & (u < v))
    return u[k], v[k], w[k], w[twin[k]]


def _edge_quads(tris: np.ndarray):
    """The half-edges of ccw triangles as arrays (u, v, w, twin).

    Half-edge k runs u->v in triangle k // 3, slot k % 3 being (a, b),
    (b, c), (c, a); w is the triangle's third vertex, and twin the index of
    the half-edge v->u (-1 on the hull), so w[twin] lies across the edge.
    Returns None if a directed edge repeats.
    """
    u = tris.ravel()
    v = tris[:, [1, 2, 0]].ravel()
    w = tris[:, [2, 0, 1]].ravel()
    n = int(tris.max(initial=0)) + 1
    order = np.argsort(u * n + v)
    keys = (u * n + v)[order]
    if (keys[1:] == keys[:-1]).any():
        return None
    back = v * n + u
    pos = np.minimum(np.searchsorted(keys, back), len(keys) - 1)
    twin = np.where(keys[pos] == back, order[pos], -1)
    return u, v, w, twin


def _ring(tails: np.ndarray, heads: np.ndarray, n: int) -> np.ndarray | None:
    """The vertices of the one cycle through every edge tails[k] -> heads[k],
    in order from tails[0]; None unless the edges form one cycle."""
    uses = np.bincount(tails, minlength=n)
    if not len(tails) or uses.max() > 1 or (np.bincount(heads, minlength=n) != uses).any():
        return None
    succ = np.zeros(n, dtype=np.int64)
    succ[tails] = heads
    succ = succ.tolist()
    start = int(tails[0])
    cycle = [start]
    while succ[cycle[-1]] != start:
        cycle.append(succ[cycle[-1]])
    if len(cycle) != len(tails):
        return None
    return np.array(cycle, dtype=np.int64)


def _ring_sign(coords: np.ndarray, ring: np.ndarray) -> int:
    """+1 if the polygon through ring is strictly convex and ccw, 0 if it
    is convex only up to collinear turns, else -1.

    A closed polygon whose vertices rise once and fall once in (x, y) order
    from the smallest, and that never turns right, winds once around its
    convex interior.
    """
    ring = np.roll(ring, -int(np.lexsort(coords[ring].T[::-1])[0]))
    cx, cy = coords[ring].T
    rises = (cx[:-1] < cx[1:]) | ((cx[:-1] == cx[1:]) & (cy[:-1] < cy[1:]))
    if (rises[1:] & ~rises[:-1]).any():  # a rise after a fall
        return -1
    turns = np.stack([np.roll(ring, 2), np.roll(ring, 1), ring], axis=1)
    return int(_orientations(coords, turns).min())


def _break_cocircular_ties(tris: np.ndarray, quads, ties: np.ndarray) -> np.ndarray:
    """Re-triangulate exactly cocircular groups lexicographically smallest.

    quads are the half-edges of the ccw triangles tris (``_edge_quads``), and
    tie half-edge k joins triangles k // 3 and twin[k] // 3.  A group's
    boundary is the ccw cycle of its half-edges whose twin lies outside it.
    """
    u, v, _, twin = quads
    label, _ = _clusters(len(tris), ties // 3, twin[ties] // 3)
    own = label[np.arange(len(u)) // 3]
    across = np.where(twin >= 0, label[twin // 3], -1)
    rim = np.flatnonzero((own >= 0) & (across != own))
    rim = rim[np.argsort(own[rim], kind="stable")]
    out = []
    rows = zip(own[rim].tolist(), u[rim].tolist(), v[rim].tolist())
    for _, group in itertools.groupby(rows, key=lambda row: row[0]):
        succ = {a: b for _, a, b in group}
        cycle = [min(succ)]
        while succ[cycle[-1]] != cycle[0]:
            cycle.append(succ[cycle[-1]])
        out += _lexmin_polygon_triangulation(cycle)
    return np.concatenate([tris[label < 0], np.array(out, dtype=np.int64).reshape(-1, 3)])


def _clusters(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, int]:
    """Labels of the components of two or more nodes of the graph on
    range(n) with edges i-j, numbered by their smallest node, and -1 on the
    other nodes; and the number of those components."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    _, first, size = np.unique(labels, return_index=True, return_counts=True)
    big = np.flatnonzero(size > 1)
    rank = np.full(len(first), -1)
    rank[big[np.argsort(first[big])]] = np.arange(len(big))
    return rank[labels], len(big)


def _lexmin_polygon_triangulation(cycle: list[int]) -> list[tuple[int, int, int]]:
    """Lexicographically smallest triangulation of a convex polygon.

    Greedy: the smallest index triple is always realizable in a convex
    polygon; commit it and recurse on the three remaining chains.
    """
    out = []
    stack = [cycle]
    while stack:
        poly = stack.pop()
        k = len(poly)
        if k < 3:
            continue
        if k == 3:
            out.append(tuple(poly))
            continue
        pos = sorted(sorted(range(k), key=lambda i: poly[i])[:3])
        i, j, l = pos
        out.append((poly[i], poly[j], poly[l]))
        stack.append(poly[i : j + 1])
        stack.append(poly[j : l + 1])
        stack.append(poly[l:] + poly[: i + 1])
    return out


# --------------------------------------------------------------------------
# Validity
# --------------------------------------------------------------------------

def _structural_check(ps: PointSet, t: Triangulation):
    """Raise TriangulationStructureError unless t triangulates hull(ps).

    Returns t's triangles turned ccw, a cw triple (a, b, c) becoming
    (a, c, b), and their ``_frame``.
    """
    n = len(ps)
    if n < 3:
        raise TriangulationStructureError("point set too small")
    if not len(t):
        raise TriangulationStructureError("empty triangulation")
    a, b, c = t.array.T
    repeated = (a == b) | (b == c) | (a == c)
    wrong = np.flatnonzero(repeated | ((t.array < 0) | (t.array >= n)).any(axis=1))
    if len(wrong):
        k = wrong[0]
        why = "repeated index" if repeated[k] else "index out of range"
        raise TriangulationStructureError(f"{why} in triangle {tuple(t.array[k].tolist())}")
    tris, signs = _turn_ccw(ps.coords, t.array)
    if (signs == 0).any():
        tri = tuple(t.array[np.flatnonzero(signs == 0)[0]].tolist())
        raise TriangulationStructureError(f"degenerate triangle {tri}")
    frame = _tiling(ps.coords, tris)
    if frame is None:
        raise TriangulationStructureError(
            "the triangles do not tile the convex hull exactly once"
        )
    return tris, frame


# (triangle, point) pairs per block of the validity scan: the float filter's
# temporaries and a block's exact decisions then take about a megabyte each.
_PAIR_BLOCK = 2**13
# The relative slack of the tree's query radius, and the circumradii and the
# coordinate bound within which squared distances stay normal floats, so that
# the tree may propose the candidates (see _violation_blocks).
_TREE_SLACK = 2.0**-40
_TREE_RADII = (2.0**-400, 2.0**500)
_TREE_COORDS = 2.0**500


def _margins(coords, centers, radii, tri_idx, pt_idx) -> np.ndarray:
    """(r - |p - center|) / r for the broadcast index arrays, in place."""
    r = radii[tri_idx]
    m = coords[pt_idx, 0] - centers[tri_idx, 0]
    dy = coords[pt_idx, 1] - centers[tri_idx, 1]
    m *= m
    dy *= dy
    m += dy
    del dy
    np.sqrt(m, out=m)
    np.subtract(r, m, out=m)
    m /= r
    return m


def is_valid_delaunay(ps: PointSet, t: Triangulation, eps: float = 0.0) -> ValidityReport:
    """Check the empty-circumcircle property.

    A violation is a point strictly inside some circumcircle by relative
    margin greater than eps.  With eps=0 every (triangle, point) pair is
    decided by the exact incircle predicate, so boundary cocircularity is
    never a violation.  The Delaunay lemma decides a valid triangulation
    from its edges alone: if the triangles tile the hull, every point is a
    vertex, and no interior edge is strictly illegal (the point across it
    not strictly inside the circle of the triangle on this side), then the
    lifted surface is convex along every edge, hence convex, and no lifted
    point lies strictly below the plane of any lifted triangle: every
    circumcircle is empty.  Only when some edge is strictly illegal are all
    pairs scanned: the float filter of ``geom.incircle`` settles most and
    ``geom.ExactIncircle`` the rest.  The margin reported with an eps=0
    violation is the float margin if positive, else 0.0.  With eps > 0 a
    ``cKDTree`` proposes the points near each circle and the float margins
    of those alone are measured; ``_violation_blocks`` proves that no
    violation is missed.  The report is that of measuring every pair.
    Pairs are handled in blocks of about 2**13, so memory does not grow
    with T·n.  Structurally malformed triangulations raise, they do not
    report invalid.
    """
    # One int object per triangle, shared by all of its violations.
    tri_ids = np.arange(len(t)).astype(object)
    violations = []
    for ti, pi, margins in _violation_blocks(ps, t, eps):
        violations += zip(tri_ids[ti].tolist(), pi.tolist(), margins.tolist())
    return ValidityReport(valid=not violations, violations=tuple(violations))


def _violation_blocks(ps: PointSet, t: Triangulation, eps: float):
    """The violations of ``is_valid_delaunay``, as arrays (triangle indices,
    point indices, margins), a block at a time, sorted by (triangle, point).

    eps=0.  ``_structural_check`` ensures that the ccw triangles tile the
    hull and use every point.  If then no interior edge is strictly
    illegal, the Delaunay lemma (``is_valid_delaunay``) leaves no violation
    and nothing is scanned.  An exact tie (incircle 0) at an edge is legal.
    Otherwise every pair is scanned (``_exact_scan``).

    eps > 0.  With u = 2**-53, write δ for the exact distance from a point
    p to a float circumcentre c with float radius r.  ``_margins`` rounds
    the differences, their squares, their sum and the root, so while these
    stay normal its distance d is within a relative 3u of δ; it reports p
    when m = fl(fl(r - d) / r) > eps.  Rounding is monotone, so that needs
    fl(r - d) / r > eps, then r - d > eps·r / (1 + u), and so

        δ < (r - eps·r / (1 + u))(1 + 4u) < (r(1 - eps) + r·u)(1 + 4u).

    The tree rounds the same differences, squares them and adds, so its
    squared distance is within a relative 5u of δ², and it keeps p when
    that is at most the square of its query radius.  Its pruning of boxes
    compares distances that are monotone in the same rounded terms, and
    its incremental updates err by about u per level.  The query radius is
    R = r·((1 - eps)(1 + s) + s) with s = 2**-40, computed to within a
    relative 4u (clamped at 0, for eps > 1, where no margin can exceed eps:
    m <= 1).  Since s exceeds those few u by more than a thousand times,
    R² exceeds every such δ² by more than the rounding on either side, so
    the tree proposes every reported pair.  The margins of the candidates
    are computed by ``_margins`` itself, bit for bit as in a full scan.
    The bounds need the squares to stay normal, so every point is a
    candidate of a circle whose radius is not finite or lies outside
    [2**-400, 2**500], and of every circle of a set with a coordinate of
    magnitude 2**500 or more.  (A radius in range also puts the centre,
    a + (ux, uy) with |ux|, |uy| <= r, within 2**501 of the origin.)  (A radius of 2**-400 keeps
    R² above 2**-884 even at eps near 1, so the absolute errors of
    underflowed squares, below 2**-1070, are far under s·R².)

    Logs one debug line on this module's logger with the path taken
    (lemma, tree or dense), the candidate pairs, and the pairs decided by
    the float filter, by reference circles and by integers.
    """
    if not eps >= 0:
        raise ValueError("eps must be a nonnegative number")
    tris, (quads, _) = _structural_check(ps, t)
    coords = ps.coords
    exact = ExactIncircle(coords)
    if eps == 0.0:
        legal = _incircle_signs(coords, *_inner(quads), exact)
        counts = dict(path="lemma", candidates=len(legal))
        counts["filter"] = len(legal) - sum(exact.counts.values())
        scan = ()
        if (legal > 0).any():
            counts["path"] = "dense"
            scan = _exact_scan(coords, tris, exact, counts)
    else:
        counts = dict(path="dense", candidates=0, filter=0)
        scan = _margin_scan(coords, tris, eps, counts)
    found = 0
    for block in scan:
        found += len(block[0])
        yield block
    log.debug(
        "validity n=%d, %d triangles, eps=%r: %s path, %d candidates, %d filter, "
        "%d reference, %d integer, %d violations",
        len(ps), len(tris), eps, counts["path"], counts["candidates"], counts["filter"],
        exact.counts["reference"], exact.counts["integer"], found,
    )


def _exact_scan(coords, tris, exact, counts):
    """The eps=0 violations among all (triangle, point) pairs, a block of
    triangles at a time; adds the pairs and the filter's decisions to counts.
    The filter's count leaves out the pairs of a triangle and its own
    vertices, which ``ExactIncircle`` sets to 0."""
    centers, radii = _circumcircles_array(coords, tris)
    points = np.arange(len(coords))[None, :]
    block = max(1, _PAIR_BLOCK // len(coords))
    for lo in range(0, len(tris), block):
        own = tris[lo : lo + block]
        before = sum(exact.counts.values())
        signs = _incircle_signs(coords, *np.hsplit(own, 3), points, exact)
        decided = sum(exact.counts.values()) - before
        counts["candidates"] += signs.size
        counts["filter"] += signs.size - own.size - decided
        ti, pi = np.nonzero(signs > 0)
        with np.errstate(**_IGNORE):
            m = _margins(coords, centers, radii, lo + ti, pi)
            margins = np.where(m > 0.0, m, 0.0)  # NaN becomes 0.0 too
        if len(ti):
            yield lo + ti, pi, margins


def _margin_scan(coords, tris, eps, counts):
    """The eps > 0 violations, a block at a time: the float margins of the
    tree's candidates, and of every point for the circles the tree cannot
    serve (``_violation_blocks``).  Sets the path in counts to "tree" when
    the tree serves some circle, and adds the candidates."""
    n = len(coords)
    centers, radii = _circumcircles_array(coords, tris)
    with np.errstate(**_IGNORE):
        # NaN and inf fail the range too.
        served = (radii >= _TREE_RADII[0]) & (radii <= _TREE_RADII[1])
        if np.abs(coords).max() >= _TREE_COORDS:
            served[:] = False
        reach = np.maximum(radii * ((1.0 - eps) * (1.0 + _TREE_SLACK) + _TREE_SLACK), 0.0)
    sizes = np.full(len(tris), n)
    if served.any():
        from scipy.spatial import cKDTree

        tree = cKDTree(coords)
        sizes[served] = tree.query_ball_point(centers[served], reach[served], return_length=True)
        counts["path"] = "tree"
    # Blocks of about max(2**13, n) candidates.  A served circle with none
    # is not queried again.
    cuts = np.flatnonzero(np.diff(np.cumsum(sizes) // max(_PAIR_BLOCK, n))) + 1
    for rows in np.split(np.arange(len(tris)), cuts):
        near = rows[served[rows] & (sizes[rows] > 0)]
        full = rows[~served[rows]]
        lists = []
        if len(near):
            lists = tree.query_ball_point(centers[near], reach[near], return_sorted=False)
        lens = np.fromiter(map(len, lists), np.intp, len(near))
        ti = np.concatenate([np.repeat(near, lens), np.repeat(full, n)])
        pi = np.concatenate([
            np.fromiter(itertools.chain.from_iterable(lists), np.intp, lens.sum()),
            np.tile(np.arange(n), len(full)),
        ])
        counts["candidates"] += len(ti)
        with np.errstate(**_IGNORE):
            m = _margins(coords, centers, radii, ti, pi)
        hit = np.flatnonzero((m > eps) & (pi[:, None] != tris[ti]).all(axis=1))
        hit = hit[np.lexsort((pi[hit], ti[hit]))]
        if len(hit):
            yield ti[hit], pi[hit], m[hit]


# --------------------------------------------------------------------------
# Perturbation, stability, uniqueness
# --------------------------------------------------------------------------

def perturb(ps: PointSet, delta: float, seed: int) -> PointSet:
    """Displace each point independently, uniformly in a radius-delta disk."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return ps
    return PointSet(_perturbed_coords(ps.coords, delta, seed))


def _perturbed_coords(coords: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """The coordinates perturb gives, as an (n, 2) array.

    ``math.cos`` and ``math.sin`` are applied per element: numpy's
    vectorised versions may round differently, and the moved points must
    not depend on the numpy build.
    """
    rng = np.random.default_rng(seed)
    n = len(coords)
    radii = delta * np.sqrt(rng.random(n))
    angles = (2.0 * math.pi * rng.random(n)).tolist()
    cos = np.fromiter(map(math.cos, angles), np.float64, n)
    sin = np.fromiter(map(math.sin, angles), np.float64, n)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.stack([coords[:, 0] + radii * cos, coords[:, 1] + radii * sin], axis=1)


def _target_arrays(t: Triangulation, n: int, frame=None):
    """What ``_delaunay_certificate`` reads of target t over n points.

    These are t's triples, its hull ring and its interior edges as rows
    (u, v, w, x) (``_inner``).  None when t fails ``_frame`` and so is no
    Delaunay triangulation of any n distinct points, whatever their
    coordinates.  frame, if given, is ``_frame(t.array, n)``, already built.
    """
    frame = _frame(t.array, n) if frame is None else frame
    if frame is None:
        return None
    quads, ring = frame
    return t.array, ring, _inner(quads)


def _delaunay_certificate(coords: np.ndarray, target) -> tuple[int, bool]:
    """Whether delaunay of the distinct points coords gives the target's
    triangles: +1 yes, -1 no, 0 undecided; and whether some interior edge
    is an exact tie (incircle 0), False if a triple or the ring fails first.

    target is ``_target_arrays(t, n)``.  +1 needs every triple strictly ccw,
    the hull ring strictly convex and every interior edge strictly legal.
    The triangles then tile the hull once (the ring winds once around it)
    and, by the Delaunay lemma, every circumcircle is strictly empty, so t
    is the one Delaunay triangulation.  -1 follows from a flat or cw
    triple, a ring that is not convex or a strictly illegal edge, none of
    which a Delaunay triangulation has.  Any other exact zero gives 0.
    """
    if target is None:
        return -1, False
    tris, ring, quads = target
    if _orientations(coords, tris).min() <= 0:
        return -1, False
    hull = _ring_sign(coords, ring)
    if hull < 0:
        return -1, False
    legal = _incircle_signs(coords, *quads)
    tied = bool((legal == 0).any())
    if (legal > 0).any():
        return -1, tied
    return (0 if hull == 0 or tied else 1), tied


def _realizes(ps: PointSet, t: Triangulation, target) -> tuple[bool, bool, bool]:
    """Whether delaunay(ps) has exactly t's triangles, whether that took a
    rebuild, and the certificate's tie answer: ``_delaunay_certificate``
    with target ``_target_arrays(t, len(ps))`` decides, else delaunay is
    rebuilt."""
    verdict, tied = _delaunay_certificate(ps.coords, target)
    if verdict:
        return verdict > 0, False, tied
    try:
        return delaunay(ps) == t, True, tied
    except GeometryError:
        return False, True, tied


class _StabilityTrials:
    """The perturbation trials of ``stability_check`` for one (ps, t).

    What the trials share is built once: the certificate's target arrays,
    and its tie answer on ps, ``cocircular``.  Counts the trials run, those
    the certificate decided, and those decided by rebuilding with delaunay.
    """

    def __init__(self, ps: PointSet, t: Triangulation):
        self.ps, self.t = ps, t
        self.target = _target_arrays(t, len(ps))
        self.cocircular = _delaunay_certificate(ps.coords, self.target)[1]
        self.run = self.certified = self.rebuilt = 0

    def stable(self, delta: float, trials: int, seed: int) -> bool:
        """``stability_check(ps, t, delta, trials, seed)``."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        if self.cocircular:
            return False
        for trial in range(trials):
            # Raises the GeometryError perturb would.
            moved = PointSet(_perturbed_coords(self.ps.coords, delta, _mix_seed(seed, trial)))
            self.run += 1
            kept, rebuilt, _ = _realizes(moved, self.t, self.target)
            self.rebuilt += rebuilt
            self.certified += not rebuilt
            if not kept:
                return False
        return True


def stability_check(
    ps: PointSet, t: Triangulation, delta: float, trials: int, seed: int
) -> bool:
    """True iff every radius-delta perturbation trial keeps the triangle set.

    A trial moves the points as ``perturb`` does and keeps the set when
    delaunay of the moved points returns t's triangles exactly.  An exactly
    cocircular edge of t fails every trial, and so does a t with a flat or
    cw triangle, a repeated directed edge or an unused point.  Each trial
    is decided by ``_delaunay_certificate`` with exact predicates; delaunay
    is rebuilt only when the certificate meets an exact zero.  A trial
    whose moved points repeat or are not finite raises GeometryError, as
    perturb does.
    """
    return _StabilityTrials(ps, t).stable(delta, trials, seed)


def _mix_seed(*parts: int) -> int:
    """A 32-bit seed mixed from integers by numpy's SeedSequence."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def make_unique_delaunay(ps: PointSet, t: Triangulation, budget: float) -> PointSet:
    """Perturb ps (each point by at most budget) so delaunay(result) == t.

    t must already be Delaunay-valid at eps=0; the freedom being resolved is
    which way cocircular groups are triangulated.  Weights realizing t as a
    regular (lifted) triangulation are found by linear programming, then the
    points move toward their group's circumcenter by those weights, with
    shrinking steps until the builder reproduces t exactly.  A point in
    several groups moves once per group, in group order, each time from
    where its last move left it.  Both acceptance tests use
    ``_delaunay_certificate``; delaunay is rebuilt only when it meets an
    exact zero.  ps itself is returned when t is already its unique
    Delaunay triangulation, with no exactly cocircular edge.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    tris, frame = _structural_check(ps, t)
    # A turned row changes the frame, and the certificate reads t as given.
    target = _target_arrays(t, len(ps), frame if np.array_equal(tris, t.array) else None)
    kept, _, tied = _realizes(ps, t, target)
    if kept and not tied:
        return ps

    centers, quads, labels = _near_cocircular_clusters(ps, tris, frame[0])
    if not len(centers):
        raise RealizationError(
            "triangulation differs from the Delaunay but has no cocircular freedom"
        )
    points, clusters, rank, weights = _cluster_weights(ps.coords, centers, quads, labels)

    dx, dy = (ps.coords[0] - ps.coords).T.tolist()
    scale = max(map(math.hypot, dx, dy)) or 1.0
    step = min(budget, 1e-6 * scale) * 0.999
    wmax = np.bincount(points, weights=weights)[points].max() or 1.0
    # Within one occurrence rank every point moves at most once.
    moves = [np.flatnonzero(rank == k) for k in range(rank.max() + 1)]
    for _ in range(8):
        moved = ps.coords.copy()
        for k in moves:
            p = points[k]
            u = moved[p] - centers[clusters[k]]
            norm = np.fromiter(map(math.hypot, *u.T.tolist()), np.float64, len(k))
            go = norm != 0.0
            f = step * (weights[k][go] / wmax) / norm[go]
            moved[p[go]] -= f[:, None] * u[go]
        try:
            candidate = PointSet(moved)
        except GeometryError:
            candidate = None
        if candidate is not None and _realizes(candidate, t, target)[0]:
            return candidate
        step /= 8.0
    raise RealizationError("could not realize the triangulation within budget")


def _near_cocircular_clusters(ps: PointSet, tris: np.ndarray, quads, rtol: float = 1e-9):
    """Groups of edge-adjacent ccw triangles sharing one circumcircle (within
    rtol); quads are their half-edges (``_edge_quads``).

    Returns arrays: the groups' shared centres, ordered by smallest member,
    their interior edges, and each edge's group.  The edges are rows
    (u, v, w1, w2), one per half-edge u->v of a member i whose twin lies in
    a member j > i, with w1 and w2 the third vertices of i and j, by group,
    then (triangle, slot).  A triangle whose float circle is not finite
    (flat in floats) joins none.
    """
    centers, radii = _circumcircles_array(ps.coords, tris)
    u, v, w, twin = quads
    k = np.flatnonzero(twin // 3 > np.arange(len(twin)) // 3)
    i, j = k // 3, twin[k] // 3
    finite = np.isfinite(radii) & np.isfinite(centers).all(axis=1)
    r = np.maximum(radii[i], radii[j])
    with np.errstate(**_IGNORE):
        near = finite[i] & finite[j] & (np.abs(radii[i] - radii[j]) <= rtol * r) & (
            np.hypot(*(centers[i] - centers[j]).T) <= rtol * r
        )
    label, count = _clusters(len(tris), i[near], j[near])
    k = k[(label[i] >= 0) & (label[i] == label[j])]
    k = k[np.argsort(label[k // 3], kind="stable")]
    quads = np.stack([u[k], v[k], w[k], w[twin[k]]], axis=1)
    # Summed in triangle order from -0.0, the float identity, as mean() sums.
    members = np.flatnonzero(label >= 0)
    sums = np.full((count, 2), -0.0)
    np.add.at(sums, label[members], centers[members])
    return sums / np.bincount(label[members], minlength=count)[:, None], quads, label[k // 3]


def _cluster_weights(coords: np.ndarray, centers, quads, labels):
    """Solve for radial weights making every cluster's diagonals strictly legal.

    Returns arrays (points, clusters, ranks, weights) of one variable per
    (point, cluster) incidence, by cluster, then point; a rank counts the
    point's earlier variables.  A point shared by several clusters moves
    along the sum of its per-cluster inward directions, so a constraint for
    one cluster sees the projections of the others' moves.

    The constraint of quad (u, v, w1 | w2) linearises the lifted incircle
    test: the points sit on a common circle, and lowering point p's lift by
    weight w_p changes incircle(u, v, w1, w2) by -kappa * D(w).  The
    diagonal (u, v) becomes strictly legal when D(w) > 0.  The coefficients
    of D are twice the signed areas of the opposite sub-triangles.
    """
    from scipy.optimize import linprog

    n = len(coords)
    # Each member shares an interior edge with another, so the quads hold
    # every point of a cluster.
    keys = np.unique(labels[:, None] * n + quads)
    points, clusters = keys % n, keys // n
    by_point = np.argsort(points, kind="stable")
    rank = np.empty_like(by_point)
    rank[by_point] = np.arange(len(keys)) - np.searchsorted(points[by_point], points[by_point])
    # Inward unit vectors per variable; norms by math.hypot, as in the moves.
    inward = centers[clusters] - coords[points]
    norm = np.fromiter(map(math.hypot, *inward.T.tolist()), np.float64, len(keys))
    unit = np.zeros_like(inward)
    np.divide(inward, norm[:, None], out=unit, where=norm[:, None] != 0.0)

    with np.errstate(**_IGNORE):
        pu, pv, p1, p2 = (coords[quads[:, s]].T for s in range(4))

        def area2(p, q, r):
            return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

        cu = area2(pv, p1, p2)
        cv = -area2(pu, p1, p2)
        c1 = area2(pu, pv, p2)
        coeff = np.stack([cu, cv, c1, -(cu + cv + c1)], axis=1).ravel()
        # Quad slot s (row s // 4) meets each variable of its point (of rank k
        # in variables[p, k], else -1), which moves along its cluster's inward
        # direction d; the slot sees d's projection on its own cluster's, r.
        variables = np.full((n, rank.max() + 1), -1)
        variables[points, rank] = np.arange(len(keys))
        slots = quads.ravel()
        slot, k = np.nonzero(variables[slots] >= 0)
        var = variables[slots[slot], k]
        d, r = unit[var], unit[np.searchsorted(keys, labels[slot // 4] * n + slots[slot])]
        proj = d[:, 0] * r[:, 0] + d[:, 1] * r[:, 1]
        keep = proj != 0.0
        a_ub = np.zeros((len(quads), len(keys)))
        a_ub[slot[keep] // 4, var[keep]] = -(coeff[slot[keep]] * proj[keep])
    res = linprog(
        c=np.ones(len(keys)),
        A_ub=a_ub,
        b_ub=-np.ones(len(quads)),
        bounds=[(0, None)] * len(keys),
        method="highs",
    )
    if not res.success:
        raise RealizationError(f"weight solve failed: {res.message}")
    return points, clusters, rank, res.x
