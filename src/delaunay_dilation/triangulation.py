"""Indexed triangulations and a robust Delaunay builder.

Triangulations are plain lists of index triples over a PointSet; adjacency is
derived on demand.  The Delaunay builder takes the first seed triangulation
that tiles the hull under exact orientations: Qhull joggled, Qhull with its
default options, then an exact x-sweep.  Rounds of Lawson flips legalise it,
each a vectorised float filter of the incircle predicate, exact integer signs
for the rows the filter leaves open, and a set of flips on disjoint triangle
pairs, so cocircular and collinear degeneracies are handled without
tolerances.  Every flip lowers the lifted surface, so the rounds end.
Exactly cocircular groups are re-triangulated to the lexicographically
smallest completion, so the triangles are a pure function of the points.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .geom import (
    CollinearPointsError,
    ExactIncircle,
    GeometryError,
    Point2,
    Sign,
    _incircle_float,
    _orient2d_exact,
    _orient2d_float,
    dist,
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


@dataclass(frozen=True)
class PointSet:
    """Ordered, duplicate-free points with stable integer indices."""

    points: tuple[Point2, ...]

    def __post_init__(self):
        seen = {}
        for i, p in enumerate(self.points):
            key = (p.x, p.y)
            if key in seen:
                raise GeometryError(f"duplicate point at indices {seen[key]} and {i}")
            seen[key] = i

    @classmethod
    def from_coords(cls, coords) -> "PointSet":
        return cls(tuple(Point2(float(x), float(y)) for x, y in coords))

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point2:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def coords(self) -> np.ndarray:
        return np.array([(p.x, p.y) for p in self.points], dtype=np.float64).reshape(-1, 2)


def _canonical_triple(t) -> tuple[int, int, int]:
    """Rotate so the smallest index leads; cyclic order (orientation) kept."""
    a, b, c = t
    if a <= b and a <= c:
        return (a, b, c)
    if b <= a and b <= c:
        return (b, c, a)
    return (c, a, b)


@dataclass(frozen=True)
class Triangulation:
    """Counterclockwise index triples, canonically rotated and sorted."""

    triangles: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_triples(cls, triples) -> "Triangulation":
        canon = sorted(_canonical_triple(tuple(map(int, t))) for t in triples)
        return cls(tuple(canon))

    def __len__(self) -> int:
        return len(self.triangles)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        es = set()
        for a, b, c in self.triangles:
            es.add((a, b) if a < b else (b, a))
            es.add((b, c) if b < c else (c, b))
            es.add((a, c) if a < c else (c, a))
        return tuple(sorted(es))

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
    return json.dumps({"points": [[p.x, p.y] for p in ps]})


def points_from_json(text: str) -> PointSet:
    data = json.loads(text)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError("expected an object with a 'points' array")
    return PointSet.from_coords(data["points"])


def triangulation_to_json(t: Triangulation) -> str:
    return json.dumps({"triangles": [list(tri) for tri in t.triangles]})


def triangulation_from_json(text: str) -> Triangulation:
    data = json.loads(text)
    if not isinstance(data, dict) or "triangles" not in data:
        raise ValueError("expected an object with a 'triangles' array")
    return Triangulation.from_triples(data["triangles"])


# --------------------------------------------------------------------------
# Convex hull (exact orientation; collinear boundary points kept)
# --------------------------------------------------------------------------

def convex_hull(ps: PointSet, keep_collinear: bool = True) -> list[int]:
    """Hull vertex indices in ccw order.

    With keep_collinear=True, points lying on hull edges are included.
    """
    n = len(ps)
    order = sorted(range(n), key=lambda i: (ps[i].x, ps[i].y))
    if n < 3:
        return order

    def build(indices):
        chain: list[int] = []
        for i in indices:
            while len(chain) >= 2:
                s = orient2d(ps[chain[-2]], ps[chain[-1]], ps[i])
                if s is Sign.NEGATIVE or (s is Sign.ZERO and not keep_collinear):
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    if len(lower) == n and len(upper) == n and all(
        orient2d(ps[order[0]], ps[order[-1]], ps[i]) is Sign.ZERO for i in order[1:-1]
    ):
        # Fully collinear input: the "hull" is the chain itself.
        return order
    return lower[:-1] + upper[:-1]


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
    the edges tested, the exact fallbacks, the flips and the tie edges.
    """
    if len(ps) < 3:
        raise GeometryError("need at least 3 points")
    seed, tris, quads = _seed(ps)
    tris, (u, v, w, _), ties, counts = _flip_rounds(ps.coords, tris, quads)
    log.debug(
        "delaunay n=%d: %s seed, %d rounds, %d edges tested, %d exact, "
        "%d flips, %d ties",
        len(ps), seed, counts["rounds"], counts["tested"], counts["exact"],
        counts["flips"], len(ties),
    )
    if not len(ties):
        return Triangulation.from_triples(tris.tolist())
    opp = dict(zip(zip(u.tolist(), v.tolist()), w.tolist()))
    return Triangulation.from_triples(
        _break_cocircular_ties(opp, set(zip(u[ties].tolist(), v[ties].tolist())))
    )


def _seed(ps: PointSet):
    """(name, ccw triangles, their half-edges) of the first seed that tiles
    hull(ps): Qhull joggled, Qhull with its default options, the x-sweep.

    Integer grids take the second: their joggled triangles are flat along
    the hull, and from the sweep the 70x70 grid needs 69 rounds and 161,874
    flips, about twice the time of the whole call.
    """
    for name, options in (("joggled", "QJ"), ("plain", None)):
        tris = _qhull_triangles(ps, options)
        quads = None if tris is None else _tiling(ps, tris)
        if quads is not None:
            return name, tris, quads
    tris = _sweep_triangulation(ps)
    return "sweep", tris, _tiling(ps, tris)


def _flip_rounds(coords: np.ndarray, tris: np.ndarray, quads):
    """Legalise ccw triangles that tile the hull by rounds of exact Lawson flips.

    A round tests the pending interior edges: the float filter, then
    ``geom.ExactIncircle`` on the rows it leaves open (the integer lift is
    built once, when a row first needs it).  Each triangle then goes to its
    smallest strictly illegal edge, and the edges that get both of their
    triangles flip.  Their triangle pairs are disjoint, so the flips
    commute, and the smallest illegal edge always flips.  Only edges of
    triangles that had an illegal edge are tested again.

    Returns the triangles, their half-edges, the ties and the counts of
    rounds, edges tested, exact fallbacks and flips.  The ties are the
    interior u < v half-edges whose last test gave 0.  An edge's test stays
    current while neither of its triangles changes, and so does its index.
    """
    tris = tris.copy()
    u, v, w, twin = quads
    last = np.zeros(len(u), dtype=np.int8)
    edges = np.flatnonzero((twin >= 0) & (u < v))
    exact = None
    counts = dict(rounds=0, tested=0, exact=0, flips=0)
    while len(edges):
        counts["rounds"] += 1
        counts["tested"] += len(edges)
        a, b, c, x = u[edges], v[edges], w[edges], w[twin[edges]]
        signs = _filter_signs(_incircle_float, coords, a, b, c, x)
        unsure = np.flatnonzero(signs == 0)
        if unsure.size:
            counts["exact"] += unsure.size
            if exact is None:
                exact = ExactIncircle(coords)
            signs[unsure] = exact._quad_signs(a[unsure], b[unsure], c[unsure], x[unsure])
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
    return tris, (u, v, w, twin), ties, counts


def _filter_signs(predicate_float, coords: np.ndarray, *vertices) -> np.ndarray:
    """Signs a float filter of ``geom`` certifies over broadcast index arrays, else 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        det, bound = predicate_float(*(coords[i, k] for i in vertices for k in (0, 1)))
        return np.where(np.abs(det) > bound, np.sign(det), 0.0).astype(np.int8)


def _orientations(coords: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """orient2d of each row: the float filter, then the exact predicate."""
    signs = _filter_signs(_orient2d_float, coords, *tris.T)
    for k in np.flatnonzero(signs == 0).tolist():
        signs[k] = _orient2d_exact(*(Point2(*coords[i].tolist()) for i in tris[k]))
    return signs


def _incircle_signs(coords: np.ndarray, u, v, w, x) -> np.ndarray:
    """incircle(u, v, w, x) per row, for ccw (u, v, w): the float filter,
    then ``geom.ExactIncircle`` on the rows it cannot certify."""
    signs = _filter_signs(_incircle_float, coords, u, v, w, x)
    unsure = np.flatnonzero(signs == 0)
    if unsure.size:
        exact = ExactIncircle(coords)
        signs[unsure] = exact._quad_signs(u[unsure], v[unsure], w[unsure], x[unsure])
    return signs


def _qhull_triangles(ps: PointSet, options: str | None) -> np.ndarray | None:
    """Qhull's triangles turned ccw; None on a Qhull error or a flat triangle.

    options are Qhull's (``qhull_options``); None takes scipy's defaults.
    """
    from scipy.spatial import Delaunay, QhullError

    try:
        tris = Delaunay(ps.coords, qhull_options=options).simplices.astype(np.int64)
    except QhullError:
        return None
    signs = _orientations(ps.coords, tris)
    if (signs == 0).any():
        return None
    tris[signs < 0] = tris[signs < 0][:, ::-1]
    return tris


def _sweep_triangulation(ps: PointSet) -> np.ndarray:
    """Some triangulation of the hull: x-sweep with two hull chains, ccw."""
    pts = ps.points
    order = sorted(range(len(pts)), key=lambda i: (pts[i].x, pts[i].y))
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
    if not tris:
        raise AllCollinearError("all points are collinear")
    return np.array(tris, dtype=np.int64)


def _tiling(ps: PointSet, tris: np.ndarray):
    """The half-edges of ccw triangles if they tile hull(ps), else None.

    They tile it when every point is used, no directed edge repeats, and the
    unpaired edges form one convex ccw cycle.  Then each point off the edges
    lies in as many triangles as the cycle winds around it: one inside the
    hull, zero outside.
    """
    if np.bincount(tris.ravel(), minlength=len(ps)).min() == 0:
        return None
    quads = _edge_quads(tris)
    if quads is None:
        return None
    u, v, _, twin = quads
    hull = twin < 0
    if not _is_convex_cycle(ps, u[hull], v[hull]):
        return None
    return quads


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


def _is_convex_cycle(ps: PointSet, tails: np.ndarray, heads: np.ndarray) -> bool:
    """Whether the edges tails[k] -> heads[k] form one convex ccw polygon."""
    ring = _ring(tails, heads, len(ps))
    return ring is not None and _ring_sign(ps.coords, ring) >= 0


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


def _break_cocircular_ties(opp: dict, ties: set) -> list:
    """Re-triangulate exactly cocircular groups lexicographically smallest."""
    tris = [(u, v, w) for (u, v), w in opp.items() if u < v and u < w]
    if not ties:
        return tris
    index = {t: k for k, t in enumerate(tris)}

    def tri(u, v):
        return index[_canonical_triple((u, v, opp[(u, v)]))]

    pairs = np.array([(tri(u, v), tri(v, u)) for u, v in ties])
    clusters = _clusters(len(tris), pairs[:, 0], pairs[:, 1])
    grouped = {k for members in clusters for k in members}
    out = [t for k, t in enumerate(tris) if k not in grouped]
    for members in clusters:
        member_set = set(members)
        # Boundary cycle of the cluster, ccw because triangles are ccw.
        succ = {}
        for a, b, c in (tris[k] for k in members):
            for u, v in ((a, b), (b, c), (c, a)):
                if (v, u) not in opp or tri(v, u) not in member_set:
                    succ[u] = v
        cycle = [min(succ)]
        while succ[cycle[-1]] != cycle[0]:
            cycle.append(succ[cycle[-1]])
        out.extend(_lexmin_polygon_triangulation(cycle))
    return out


def _clusters(n: int, i: np.ndarray, j: np.ndarray) -> list[list[int]]:
    """The components of two or more nodes of the graph on range(n), edges i-j.

    Members ascend, and the clusters are ordered by their smallest member.
    """
    graph = coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    nodes = np.unique(np.concatenate([i, j]))
    order = nodes[np.argsort(labels[nodes], kind="stable")]
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    groups = np.split(order, cuts) if len(order) else []
    return sorted((g.tolist() for g in groups), key=lambda g: g[0])


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

def _structural_check(ps: PointSet, t: Triangulation) -> list[tuple[int, int, int]]:
    """Raise TriangulationStructureError unless t triangulates hull(ps).

    Returns the triangles turned ccw: a cw triple (a, b, c) becomes (a, c, b).
    """
    n = len(ps)
    if n < 3:
        raise TriangulationStructureError("point set too small")
    if not t.triangles:
        raise TriangulationStructureError("empty triangulation")
    for tri in t.triangles:
        if len(set(tri)) < 3:
            raise TriangulationStructureError(f"repeated index in triangle {tri}")
        if not all(0 <= i < n for i in tri):
            raise TriangulationStructureError(f"index out of range in triangle {tri}")

    tris = np.array(t.triangles, dtype=np.int64)
    signs = _orientations(ps.coords, tris)
    if (signs == 0).any():
        tri = t.triangles[np.flatnonzero(signs == 0)[0]]
        raise TriangulationStructureError(f"degenerate triangle {tri}")
    tris[signs < 0] = tris[signs < 0][:, [0, 2, 1]]
    if _tiling(ps, tris) is None:
        raise TriangulationStructureError(
            "the triangles do not tile the convex hull exactly once"
        )
    return [tuple(tri) for tri in tris.tolist()]


def _circumcircles_array(coords: np.ndarray, tris: np.ndarray):
    a = coords[tris[:, 0]]
    b = coords[tris[:, 1]] - a
    c = coords[tris[:, 2]] - a
    den = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    b2 = (b * b).sum(axis=1)
    c2 = (c * c).sum(axis=1)
    ux = (c[:, 1] * b2 - b[:, 1] * c2) / den
    uy = (b[:, 0] * c2 - c[:, 0] * b2) / den
    centers = a + np.stack([ux, uy], axis=1)
    radii = np.hypot(ux, uy)
    return centers, radii


# (triangle, point) pairs per block of the validity scan: the float filter's
# temporaries and a block's exact decisions then take about a megabyte each.
_PAIR_BLOCK = 2**13


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
    decided by the exact incircle predicate: the float filter of
    ``geom.incircle`` settles most pairs and ``geom.ExactIncircle`` the rest,
    so boundary cocircularity is never a violation.  The margin reported with
    an eps=0 violation is the float margin if positive, else 0.0.  Pairs are
    scanned in blocks of about 2**13, so memory does not grow with T·n.
    Structurally malformed triangulations raise, they do not report invalid.
    """
    # One int object per triangle, shared by all of its violations.
    tri_ids = np.arange(len(t)).astype(object)
    violations = []
    for ti, pi, margins in _violation_blocks(ps, t, eps):
        violations += zip(tri_ids[ti].tolist(), pi.tolist(), margins.tolist())
    return ValidityReport(valid=not violations, violations=tuple(violations))


def _violation_blocks(ps: PointSet, t: Triangulation, eps: float):
    """The violations of ``is_valid_delaunay``, one block of the scan at a
    time, as arrays (triangle indices, point indices, margins)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    tris = np.array(_structural_check(ps, t), dtype=np.intp)
    coords = ps.coords
    points = np.arange(len(ps))[None, :]
    block = max(1, _PAIR_BLOCK // len(ps))
    exact = None
    # The float scan may overflow or divide by zero; the errstate stays
    # inside each block, so it does not reach the caller between blocks.
    ignore = dict(divide="ignore", invalid="ignore", over="ignore")
    with np.errstate(**ignore):
        centers, radii = _circumcircles_array(coords, tris)
    for lo in range(0, len(tris), block):
        own = tris[lo : lo + block]
        rows = np.arange(len(own))[:, None]
        with np.errstate(**ignore):
            if eps == 0.0:
                signs = _filter_signs(_incircle_float, coords, *np.hsplit(own, 3), points)
                signs[rows, own] = -1  # a triangle's own vertices lie on its circle
                unsure = np.nonzero(signs == 0)
                if unsure[0].size:
                    if exact is None:
                        exact = ExactIncircle(coords, tris)
                    signs[unsure] = exact.signs(lo + unsure[0], unsure[1])
                ti, pi = np.nonzero(signs > 0)
                m = _margins(coords, centers, radii, lo + ti, pi)
                margins = np.where(m > 0.0, m, 0.0)  # NaN becomes 0.0 too
            else:
                m = _margins(coords, centers, radii, lo + rows, points)
                m[rows, own] = -np.inf
                ti, pi = np.nonzero(m > eps)
                margins = m[ti, pi]
        if len(ti):
            yield lo + ti, pi, margins


# --------------------------------------------------------------------------
# Perturbation, stability, uniqueness
# --------------------------------------------------------------------------

def perturb(ps: PointSet, delta: float, seed: int) -> PointSet:
    """Displace each point independently, uniformly in a radius-delta disk."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return ps
    return PointSet.from_coords(_perturbed_coords(ps.coords, delta, seed))


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


def _distinct_finite(coords: np.ndarray) -> bool:
    """Whether the rows of coords are finite and distinct, as PointSet needs."""
    if not np.isfinite(coords).all():
        return False
    rows = coords[np.lexsort(coords.T[::-1])]
    return not (rows[1:] == rows[:-1]).all(axis=1).any()


def _has_exact_cocircularity(ps: PointSet, t: Triangulation) -> bool:
    """Whether the two triangles at some interior edge are exactly cocircular."""
    tris = np.array(t.triangles, dtype=np.int64).reshape(-1, 3)
    signs = _orientations(ps.coords, tris)
    if (signs == 0).any():
        raise CollinearPointsError("incircle needs a non-degenerate triangle")
    tris[signs < 0] = tris[signs < 0][:, ::-1]
    quads = _edge_quads(tris)
    if quads is None:
        raise TriangulationStructureError("a directed edge is used twice")
    u, v, w, twin = quads
    inner = np.flatnonzero((twin >= 0) & (u < v))
    signs = _incircle_signs(ps.coords, u[inner], v[inner], w[inner], w[twin[inner]])
    return bool((signs == 0).any())


def _target_arrays(t: Triangulation, n: int):
    """What ``_delaunay_certificate`` reads of target t over n points.

    These are t's triples as given, its hull ring and its interior edges as
    rows (u, v, w, x): u->v in triangle (u, v, w), x across the edge.  None
    when t is no Delaunay triangulation of any n distinct points, whatever
    their coordinates: it is empty or not canonically ordered, misses a
    point, repeats a directed edge, or its unpaired edges are not one cycle.
    """
    tris = np.array(t.triangles, dtype=np.int64).reshape(-1, 3)
    if (
        not len(tris)
        or tris.min() < 0
        or tris.max() >= n
        or Triangulation.from_triples(t.triangles).triangles != t.triangles
        or np.bincount(tris.ravel(), minlength=n).min() == 0
    ):
        return None
    quads = _edge_quads(tris)
    if quads is None:
        return None
    u, v, w, twin = quads
    hull = twin < 0
    ring = _ring(u[hull], v[hull], n)
    if ring is None:
        return None
    inner = np.flatnonzero((twin >= 0) & (u < v))
    return tris, ring, (u[inner], v[inner], w[inner], w[twin[inner]])


def _delaunay_certificate(coords: np.ndarray, target) -> int:
    """Whether delaunay of the distinct points coords gives the target's
    triangles: +1 yes, -1 no, 0 undecided.

    target is ``_target_arrays(t, n)``.  +1 needs every triple strictly ccw,
    the hull ring strictly convex and every interior edge strictly legal.
    The triangles then tile the hull once (the ring winds once around it)
    and, by the Delaunay lemma, every circumcircle is strictly empty, so t
    is the one Delaunay triangulation.  -1 follows from a flat or cw
    triple, a ring that is not convex or a strictly illegal edge, none of
    which a Delaunay triangulation has.  Any other exact zero gives 0.
    """
    if target is None:
        return -1
    tris, ring, quads = target
    if _orientations(coords, tris).min() <= 0:
        return -1
    hull = _ring_sign(coords, ring)
    if hull < 0:
        return -1
    legal = _incircle_signs(coords, *quads)
    if (legal > 0).any():
        return -1
    return 0 if hull == 0 or (legal == 0).any() else 1


def _rebuilds(ps: PointSet, triangles) -> bool:
    """Whether delaunay(ps) has exactly these triangles."""
    try:
        return delaunay(ps).triangles == triangles
    except GeometryError:
        return False


class _StabilityTrials:
    """The perturbation trials of ``stability_check`` for one (ps, t).

    What the trials share is built once: the exact-cocircularity answer and
    the certificate's target arrays.  Counts the trials run, those the
    certificate decided, and those decided by rebuilding with delaunay.
    """

    def __init__(self, ps: PointSet, t: Triangulation):
        self.ps, self.triangles = ps, t.triangles
        self.cocircular = _has_exact_cocircularity(ps, t)
        self.target = _target_arrays(t, len(ps))
        self.run = self.certified = self.rebuilt = 0

    def stable(self, delta: float, trials: int, seed: int) -> bool:
        """``stability_check(ps, t, delta, trials, seed)``."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        if self.cocircular:
            return False
        for trial in range(trials):
            coords = _perturbed_coords(self.ps.coords, delta, _mix_seed(seed, trial))
            if not _distinct_finite(coords):
                PointSet.from_coords(coords)  # raises the GeometryError perturb would
            self.run += 1
            verdict = _delaunay_certificate(coords, self.target)
            if verdict:
                self.certified += 1
                kept = verdict > 0
            else:
                self.rebuilt += 1
                kept = _rebuilds(PointSet.from_coords(coords), self.triangles)
            if not kept:
                return False
        return True


def stability_check(
    ps: PointSet, t: Triangulation, delta: float, trials: int, seed: int
) -> bool:
    """True iff every radius-delta perturbation trial keeps the triangle set.

    A trial moves the points as ``perturb`` does and keeps the set when
    delaunay of the moved points returns t's triangles exactly.  An exactly
    cocircular edge of t fails every trial.  Each trial is decided by
    ``_delaunay_certificate`` with exact predicates; delaunay is rebuilt
    only when the certificate meets an exact zero.  A trial whose moved
    points repeat or are not finite raises GeometryError, as perturb does.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
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
    shrinking steps until the builder reproduces t exactly.  Both
    acceptance tests use ``_delaunay_certificate``; delaunay is rebuilt only
    when it meets an exact zero.  ps itself is returned when t is already
    its unique Delaunay triangulation, with no exactly cocircular edge.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    tris = _structural_check(ps, t)
    target = _target_arrays(t, len(ps))
    verdict = _delaunay_certificate(ps.coords, target)
    if verdict > 0 or (
        verdict == 0
        and _rebuilds(ps, t.triangles)
        and not _has_exact_cocircularity(ps, t)
    ):
        return ps

    clusters = _near_cocircular_clusters(ps, tris)
    if not clusters:
        raise RealizationError(
            "triangulation differs from the Delaunay but has no cocircular freedom"
        )
    weights = _cluster_weights(ps, clusters)

    scale = max(dist(ps[0], p) for p in ps) or 1.0
    step = min(budget, 1e-6 * scale) * 0.999
    total_w: dict[int, float] = {}
    for (pt_idx, _), w in weights:
        total_w[pt_idx] = total_w.get(pt_idx, 0.0) + w
    wmax = max(total_w.values()) or 1.0
    for _ in range(8):
        moved = list(ps.points)
        for (pt_idx, center), w in weights:
            p = moved[pt_idx]
            ux, uy = p.x - center[0], p.y - center[1]
            norm = math.hypot(ux, uy)
            if norm == 0.0:
                continue
            f = step * (w / wmax) / norm
            moved[pt_idx] = Point2(p.x - f * ux, p.y - f * uy)
        try:
            candidate = PointSet(tuple(moved))
        except GeometryError:
            candidate = None
        if candidate is not None:
            verdict = _delaunay_certificate(candidate.coords, target)
            if verdict > 0 or (verdict == 0 and _rebuilds(candidate, t.triangles)):
                return candidate
        step /= 8.0
    raise RealizationError("could not realize the triangulation within budget")


def _near_cocircular_clusters(ps: PointSet, tris: list, rtol: float = 1e-9):
    """Groups of edge-adjacent ccw triangles sharing one circumcircle (within rtol).

    Returns (shared center, interior edges) per group, ordered by the
    smallest member.  The interior edges are rows (u, v, w1, w2), one per
    half-edge u->v of a member i whose twin lies in a member j > i, with w1
    and w2 the third vertices of i and j, in (triangle, slot) order.
    """
    arr = np.array(tris, dtype=np.intp)
    centers, radii = _circumcircles_array(ps.coords, arr)
    u, v, w, twin = _edge_quads(arr)
    k = np.flatnonzero(twin // 3 > np.arange(len(twin)) // 3)
    i, j = k // 3, twin[k] // 3
    r = np.maximum(radii[i], radii[j])
    near = (np.abs(radii[i] - radii[j]) <= rtol * r) & (
        np.hypot(*(centers[i] - centers[j]).T) <= rtol * r
    )
    groups = _clusters(len(tris), i[near], j[near])
    label = np.full(len(tris), -1)
    for c, members in enumerate(groups):
        label[members] = c
    k = k[(label[i] >= 0) & (label[i] == label[j])]
    k = k[np.argsort(label[k // 3], kind="stable")]
    quads = np.stack([u[k], v[k], w[k], w[twin[k]]], axis=1)
    cuts = np.searchsorted(label[k // 3], np.arange(1, len(groups)))
    clusters = []
    for members, edges in zip(groups, np.split(quads, cuts)):
        center = centers[members].mean(axis=0)
        clusters.append(((float(center[0]), float(center[1])), edges.tolist()))
    return clusters


def _cluster_weights(ps: PointSet, clusters):
    """Solve for radial weights making every cluster's diagonals strictly legal.

    One variable per (point, cluster) incidence; a point shared by several
    clusters moves along the sum of its per-cluster inward directions, so a
    constraint for one cluster sees the projections of the others' moves.
    """
    from scipy.optimize import linprog

    def inward_unit(pt_idx, center):
        p = ps[pt_idx]
        ux, uy = center[0] - p.x, center[1] - p.y
        norm = math.hypot(ux, uy)
        return (ux / norm, uy / norm) if norm else (0.0, 0.0)

    # Pass 1: register every (point, cluster) variable.  Each member shares
    # an interior edge with another, so those edges' quads hold every point.
    var_meta: list[tuple[int, tuple[float, float]]] = []
    point_vars: dict[int, list[int]] = {}
    for center, edges in clusters:
        for pt in sorted({p for quad in edges for p in quad}):
            point_vars.setdefault(pt, []).append(len(var_meta))
            var_meta.append((pt, center))

    # Pass 2: one constraint per interior edge of each cluster.
    rows: list[dict[int, float]] = []
    for center, edges in clusters:
        for u, v, w1, w2 in edges:
            coeffs = _lift_row(ps, u, v, w1, w2)
            row: dict[int, float] = {}
            for pt_idx, coeff in coeffs.items():
                radial = inward_unit(pt_idx, center)
                for vi in point_vars.get(pt_idx, ()):
                    d = inward_unit(pt_idx, var_meta[vi][1])
                    proj = d[0] * radial[0] + d[1] * radial[1]
                    if proj != 0.0:
                        row[vi] = row.get(vi, 0.0) + coeff * proj
            rows.append(row)

    nvars = len(var_meta)
    a_ub = np.zeros((len(rows), nvars))
    for r, row in enumerate(rows):
        for k, val in row.items():
            a_ub[r, k] = -val
    b_ub = -np.ones(len(rows))
    res = linprog(
        c=np.ones(nvars),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0, None)] * nvars,
        method="highs",
    )
    if not res.success:
        raise RealizationError(f"weight solve failed: {res.message}")
    return [(meta, float(w)) for meta, w in zip(var_meta, res.x)]


def _lift_row(ps: PointSet, u: int, v: int, w1: int, w2: int) -> dict[int, float]:
    """Linearization of the lifted incircle test for quad (u, v, w1 | w2).

    Points sit on a common circle; lowering point p's lift by weight w_p
    changes incircle(u, v, w1, w2) by -kappa * D(w).  The diagonal (u, v)
    becomes strictly legal when D(w) > 0.  Coefficients are twice the signed
    areas of the opposite sub-triangles.
    """

    def area2(p, q, r):
        return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)

    pu, pv, p1, p2 = ps[u], ps[v], ps[w1], ps[w2]
    cu = area2(pv, p1, p2)
    cv = -area2(pu, p1, p2)
    c1 = area2(pu, pv, p2)
    c2 = -(cu + cv + c1)
    return {u: cu, v: cv, w1: c1, w2: c2}
