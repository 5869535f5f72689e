"""Independent oracles for cross-checking the library.

Deliberately share no code with the package: rational-arithmetic predicates,
a sweep-then-Lawson-flip Delaunay builder, exhaustive simple-path
enumeration for shortest paths, and the original dense all-pairs dilation
reduction.  Six exceptions run on the package's exact predicates: the
original Bowyer-Watson Delaunay builder, the original validity check, which
takes its eps=0 candidates from a float-margin band, the original
structure check, which counts Euler relations against the original
monotone-chain hull, the original convex-cycle test, written with Python
lists, and the original realisation step of ``make_unique_delaunay``, which
builds its linear program in dicts.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from delaunay_dilation import triangulation as _tri
from delaunay_dilation.geom import (
    ExactIncircle,
    GeometryError,
    Point2,
    Sign,
    _incircle_signs,
    incircle,
    orient2d,
)
from delaunay_dilation.triangulation import (
    AllCollinearError,
    PointSet,
    RealizationError,
    Triangulation,
    TriangulationStructureError,
    ValidityReport,
    _orientations,
    _structural_check,
)


def orient_frac(a, b, c) -> int:
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def incircle_frac(a, b, c, d) -> int:
    """Sign of the in-circle determinant; abc may have either orientation."""
    ori = orient_frac(a, b, c)
    if ori == 0:
        raise ValueError("collinear triangle")
    if ori < 0:
        b, c = c, b
    rows = []
    dx, dy = Fraction(d[0]), Fraction(d[1])
    for p in (a, b, c):
        px, py = Fraction(p[0]) - dx, Fraction(p[1]) - dy
        rows.append((px, py, px * px + py * py))
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[2][1] * rows[1][2])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[2][0] * rows[1][2])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[2][0] * rows[1][1])
    )
    return (det > 0) - (det < 0)


def _sweep_triangulation(pts):
    """Any triangulation of the hull: x-sweep with two hull chains."""
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    tris = []
    lower = [order[0]]
    upper = [order[0]]
    for idx in order[1:]:
        p = pts[idx]
        while len(lower) >= 2 and orient_frac(pts[lower[-2]], pts[lower[-1]], p) < 0:
            tris.append((lower[-2], idx, lower[-1]))
            lower.pop()
        while len(upper) >= 2 and orient_frac(pts[upper[-2]], pts[upper[-1]], p) > 0:
            tris.append((upper[-2], upper[-1], idx))
            upper.pop()
        lower.append(idx)
        upper.append(idx)
    return tris


def delaunay_flip_oracle(pts):
    """Delaunay triangulation by Lawson flipping from a sweep triangulation.

    Returns a set of frozenset index triples.  Assumes no exactly cocircular
    quadruple (use on generic inputs only).
    """
    tris = {frozenset(t) for t in _sweep_triangulation(pts)}
    if not tris:
        raise ValueError("degenerate input")

    def edges_of(t):
        a, b, c = sorted(t)
        return (frozenset((a, b)), frozenset((b, c)), frozenset((a, c)))

    edge_map: dict[frozenset, set] = {}
    for t in tris:
        for e in edges_of(t):
            edge_map.setdefault(e, set()).add(t)

    queue = list(edge_map.keys())
    while queue:
        e = queue.pop()
        owners = edge_map.get(e)
        if owners is None or len(owners) != 2:
            continue
        t1, t2 = owners
        u, v = sorted(e)
        a = next(iter(t1 - e))
        b = next(iter(t2 - e))
        pa, pb, pc = pts[u], pts[v], pts[a]
        if incircle_frac(pa, pb, pc, pts[b]) <= 0:
            continue
        # flip e -> (a, b)
        for t in (t1, t2):
            tris.discard(t)
            for ee in edges_of(t):
                edge_map[ee].discard(t)
        for t in (frozenset((a, b, u)), frozenset((a, b, v))):
            tris.add(t)
            for ee in edges_of(t):
                edge_map.setdefault(ee, set()).add(t)
                queue.append(ee)
    return tris


def exhaustive_shortest_paths(pts, edges):
    """All-pairs minimal simple-path lengths by full enumeration."""
    n = len(pts)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        w = math.hypot(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1])
        adj[u].append((v, w))
        adj[v].append((u, w))
    best = {}

    def dfs(start, node, length, visited):
        key = (start, node)
        if key not in best or length < best[key]:
            best[key] = length
        for nxt, w in adj[node]:
            if nxt not in visited:
                visited.add(nxt)
                dfs(start, nxt, length + w, visited)
                visited.discard(nxt)

    for s in range(n):
        dfs(s, s, 0.0, {s})
    return best


def exhaustive_max_dilation(pts, edges):
    """(max dilation, witness pair), ties to the smallest index pair."""
    best = exhaustive_shortest_paths(pts, edges)
    top = None
    witness = None
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            ratio = best[(i, j)] / d
            if top is None or ratio > top:
                top = ratio
                witness = (i, j)
    return top, witness


# Source rows per block of dense_max_dilation: 128 * n entries per array.
_DENSE_ROWS = 128


def dense_max_dilation(pts, edges, include_pairs=False):
    """Witness pair and optional pair table from the dense n x n reduction.

    The original implementation, run over blocks of source rows so that it
    never holds an n x n array: an undirected Dijkstra from the block's
    sources, the Euclidean distances and ratios over their pairs (i, j > i),
    and the first maximum in row-major order.  Assumes a connected graph.
    """
    n = len(pts)
    coords = np.array(pts, dtype=np.float64)
    rows, cols, vals = [], [], []
    for u, v in edges:
        w = math.hypot(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1])
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
    best, witness = -math.inf, None
    pairs = [] if include_pairs else None
    for lo in range(0, n - 1, _DENSE_ROWS):
        src = np.arange(lo, min(lo + _DENSE_ROWS, n - 1))
        graph_d = dijkstra(graph, directed=False, indices=src)
        diff = coords[src, None, :] - coords[None, :, :]
        euclid = np.hypot(diff[:, :, 0], diff[:, :, 1])
        r, ju = np.nonzero(np.arange(n) > src[:, None])
        ratios = graph_d[r, ju] / euclid[r, ju]
        at = int(np.argmax(ratios))
        if ratios[at] > best:  # a later equal ratio is not the first maximum
            best, witness = ratios[at], (int(src[r[at]]), int(ju[at]))
        if include_pairs:
            pairs += zip(src[r].tolist(), ju.tolist(), ratios.tolist())
    return witness, None if pairs is None else tuple(pairs)


# --------------------------------------------------------------------------
# Reference Delaunay builder: the original randomized incremental
# Bowyer-Watson with a ghost rim.  Unlike the oracles above it runs on the
# package's exact predicates (checked against the rational ones in
# test_geom.py), so it is fast enough for thousands of points, and it breaks
# cocircular ties the same way, so its output must equal ``delaunay`` triple
# for triple.
# --------------------------------------------------------------------------

GHOST = -1


def _shuffle_seed(ps: PointSet) -> int:
    digest = hashlib.sha256()
    for p in ps:
        digest.update(struct.pack("<dd", p.x, p.y))
    return int.from_bytes(digest.digest()[:8], "little")


def _between_collinear(a: Point2, b: Point2, p: Point2) -> bool:
    """Strict betweenness for points already known collinear."""
    if a.x != b.x:
        lo, hi = (a.x, b.x) if a.x < b.x else (b.x, a.x)
        return lo < p.x < hi
    lo, hi = (a.y, b.y) if a.y < b.y else (b.y, a.y)
    return lo < p.y < hi


class _Mesh:
    """Mutable triangle soup with directed-edge adjacency and a ghost rim."""

    def __init__(self, ps: PointSet):
        self.ps = ps
        self.tris: dict[int, tuple[int, int, int]] = {}
        self.edge_tri: dict[tuple[int, int], int] = {}
        self.next_id = 0
        self.last_finite = None

    def add(self, a: int, b: int, c: int) -> int:
        # Keep the ghost in the last slot, preserving cyclic order.
        if a == GHOST:
            a, b, c = b, c, a
        elif b == GHOST:
            a, b, c = c, a, b
        tid = self.next_id
        self.next_id += 1
        self.tris[tid] = (a, b, c)
        self.edge_tri[(a, b)] = tid
        self.edge_tri[(b, c)] = tid
        self.edge_tri[(c, a)] = tid
        if c != GHOST:
            self.last_finite = tid
        return tid

    def remove(self, tid: int):
        a, b, c = self.tris.pop(tid)
        for e in ((a, b), (b, c), (c, a)):
            if self.edge_tri.get(e) == tid:
                del self.edge_tri[e]

    def is_bad(self, tid: int, p: Point2) -> bool:
        a, b, c = self.tris[tid]
        pts = self.ps
        if c == GHOST:
            s = orient2d(pts[a], pts[b], p)
            if s is Sign.POSITIVE:
                return True
            if s is Sign.ZERO:
                return _between_collinear(pts[a], pts[b], p)
            return False
        return incircle(pts[a], pts[b], pts[c], p) is Sign.POSITIVE

    def locate_bad(self, p: Point2, rng: random.Random) -> int:
        """Walk toward p from the last insertion; fall back to a scan."""
        cur = self.last_finite
        if cur is None or cur not in self.tris:
            cur = next(iter(self.tris))
        pts = self.ps
        for _ in range(4 * len(self.tris) + 16):
            tri = self.tris.get(cur)
            if tri is None:
                break
            a, b, c = tri
            if c == GHOST:
                if self.is_bad(cur, p):
                    return cur
                break  # degenerate visibility; use the scan
            verts = (a, b, c)
            start = rng.randrange(3)
            moved = False
            for k in range(3):
                u = verts[(start + k) % 3]
                v = verts[(start + k + 1) % 3]
                if orient2d(pts[u], pts[v], p) is Sign.NEGATIVE:
                    cur = self.edge_tri[(v, u)]
                    moved = True
                    break
            if not moved:
                return cur  # p inside or on the closed triangle
        for tid in self.tris:
            if self.is_bad(tid, p):
                return tid
        raise GeometryError("no triangle found for insertion (duplicate point?)")

    def insert(self, idx: int, rng: random.Random):
        p = self.ps[idx]
        seed_tid = self.locate_bad(p, rng)
        cavity = {seed_tid}
        stack = [seed_tid]
        while stack:
            tid = stack.pop()
            a, b, c = self.tris[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                nb = self.edge_tri[(v, u)]
                if nb not in cavity and self.is_bad(nb, p):
                    cavity.add(nb)
                    stack.append(nb)
        boundary = []
        for tid in cavity:
            a, b, c = self.tris[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                if self.edge_tri[(v, u)] not in cavity:
                    boundary.append((u, v))
        for tid in cavity:
            self.remove(tid)
        for u, v in boundary:
            self.add(u, v, idx)


def bowyer_watson_delaunay(ps: PointSet) -> Triangulation:
    """Delaunay triangulation via randomized incremental insertion.

    Exactly valid under the incircle predicate; cocircular ties are broken
    to the lexicographically smallest set of index triples.  The insertion
    order is a shuffle seeded from the point coordinates, so the result is
    a pure function of the input.
    """
    n = len(ps)
    if n < 3:
        raise GeometryError("need at least 3 points")
    rng = random.Random(_shuffle_seed(ps))
    order = list(range(n))
    rng.shuffle(order)

    third = None
    for k in range(2, n):
        if orient2d(ps[order[0]], ps[order[1]], ps[order[k]]) is not Sign.ZERO:
            third = k
            break
    if third is None:
        raise AllCollinearError("all points are collinear")
    order[2], order[third] = order[third], order[2]

    i0, i1, i2 = order[0], order[1], order[2]
    if orient2d(ps[i0], ps[i1], ps[i2]) is Sign.NEGATIVE:
        i1, i2 = i2, i1
    mesh = _Mesh(ps)
    mesh.add(i0, i1, i2)
    mesh.add(i1, i0, GHOST)
    mesh.add(i2, i1, GHOST)
    mesh.add(i0, i2, GHOST)

    for idx in order[3:]:
        mesh.insert(idx, rng)

    finite = [t for t in mesh.tris.values() if t[2] != GHOST]
    finite = _break_cocircular_ties(ps, finite)
    return Triangulation(finite)


def _break_cocircular_ties(ps: PointSet, tris: list) -> list:
    """Re-triangulate exactly cocircular groups lexicographically smallest."""
    tris = [tuple(t) for t in tris]
    edge_tri: dict[tuple[int, int], int] = {}
    for i, (a, b, c) in enumerate(tris):
        edge_tri[(a, b)] = i
        edge_tri[(b, c)] = i
        edge_tri[(c, a)] = i

    parent = list(range(len(tris)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tied = False
    for i, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            j = edge_tri.get((v, u))
            if j is None or j <= i:
                continue
            w = next(x for x in tris[j] if x not in (u, v))
            if incircle(ps[a], ps[b], ps[c], ps[w]) is Sign.ZERO:
                parent[find(i)] = find(j)
                tied = True
    if not tied:
        return tris

    clusters: dict[int, list[int]] = {}
    for i in range(len(tris)):
        clusters.setdefault(find(i), []).append(i)

    out = [t for i, t in enumerate(tris) if len(clusters[find(i)]) == 1]
    for members in clusters.values():
        if len(members) == 1:
            continue
        member_set = set(members)
        # Boundary cycle of the cluster, ccw because triangles are ccw.
        succ = {}
        for i in members:
            a, b, c = tris[i]
            for u, v in ((a, b), (b, c), (c, a)):
                j = edge_tri.get((v, u))
                if j is None or j not in member_set:
                    succ[u] = v
        start = min(succ)
        cycle = [start]
        cur = succ[start]
        while cur != start:
            cycle.append(cur)
            cur = succ[cur]
        out.extend(_lexmin_polygon_triangulation(cycle))
    return out


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
# The original validity check: float margins, with the exact incircle
# applied at eps=0 only to the pairs whose margin exceeds -1e-9.
# --------------------------------------------------------------------------

def _circumcircles_array(coords: np.ndarray, tris: np.ndarray):
    a = coords[tris[:, 0]]
    b = coords[tris[:, 1]] - a
    c = coords[tris[:, 2]] - a
    den = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    b2 = (b * b).sum(axis=1)
    c2 = (c * c).sum(axis=1)
    # A degenerate triangle has den == 0 and gets a centre that is not finite.
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (c[:, 1] * b2 - b[:, 1] * c2) / den
        uy = (b[:, 0] * c2 - c[:, 0] * b2) / den
    centers = a + np.stack([ux, uy], axis=1)
    radii = np.hypot(ux, uy)
    return centers, radii


def band_is_valid_delaunay(ps: PointSet, t: Triangulation, eps: float = 0.0) -> ValidityReport:
    """Check the empty-circumcircle property.

    A violation is a point strictly inside some circumcircle by relative
    margin greater than eps.  With eps=0 the decision falls back to the
    exact predicate, so boundary cocircularity is never a violation.
    Structurally malformed triangulations raise, they do not report invalid.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    tris, _ = _structural_check(ps, t)
    coords = ps.coords
    centers, radii = _circumcircles_array(coords, tris)

    band = 1e-9
    threshold = -band if eps == 0.0 else eps
    exact = ExactIncircle(coords)
    violations = []
    block = 512
    for lo in range(0, len(tris), block):
        hi = min(lo + block, len(tris))
        # margins = (r - |p - center|) / r, computed in place.  A centre that
        # is not finite gives inf - inf = nan, and nan is never a hit.
        diff = coords[None, :, :] - centers[lo:hi, None, :]
        np.square(diff, out=diff)
        margins = diff.sum(axis=2)
        del diff
        np.sqrt(margins, out=margins)
        with np.errstate(invalid="ignore"):
            np.subtract(radii[lo:hi, None], margins, out=margins)
            np.divide(margins, radii[lo:hi, None], out=margins)
        for k in range(3):
            margins[np.arange(hi - lo), tris[lo:hi, k]] = -np.inf
        ti, pi = np.nonzero(margins > threshold)
        found = margins[ti, pi]
        if eps == 0.0:
            # The rows are ccw, so one exact sign per pair decides it.
            inside = _incircle_signs(coords, *tris[lo + ti].T, pi, exact) > 0
            ti, pi, found = ti[inside], pi[inside], found[inside]
            found[found <= 0.0] = 0.0
        violations += zip((lo + ti).tolist(), pi.tolist(), found.tolist())
    violations.sort()
    return ValidityReport(valid=not violations, violations=tuple(violations))


# --------------------------------------------------------------------------
# The original structure check: Euler counts against the convex hull.  It
# accepts a fan that winds twice around its centre (a pentagram boundary
# satisfies every count), which the package's tiling test rejects.
# --------------------------------------------------------------------------

def euler_structural_check(ps: PointSet, t: Triangulation) -> list[tuple[int, int, int]]:
    """Raise TriangulationStructureError unless t triangulates hull(ps).

    Returns the triangles normalized to ccw orientation.
    """
    n = len(ps)
    if n < 3:
        raise TriangulationStructureError("point set too small")
    if not t.triangles:
        raise TriangulationStructureError("empty triangulation")

    normalized = []
    used = set()
    for tri in t.triangles:
        a, b, c = tri
        if len({a, b, c}) < 3:
            raise TriangulationStructureError(f"repeated index in triangle {tri}")
        if not all(0 <= i < n for i in tri):
            raise TriangulationStructureError(f"index out of range in triangle {tri}")
        s = orient2d(ps[a], ps[b], ps[c])
        if s is Sign.ZERO:
            raise TriangulationStructureError(f"degenerate triangle {tri}")
        normalized.append((a, b, c) if s is Sign.POSITIVE else (a, c, b))
        used.update(tri)
    if used != set(range(n)):
        missing = sorted(set(range(n)) - used)
        raise TriangulationStructureError(f"points not used: {missing}")

    directed = set()
    undirected: dict[tuple[int, int], int] = {}
    for a, b, c in normalized:
        for u, v in ((a, b), (b, c), (c, a)):
            if (u, v) in directed:
                raise TriangulationStructureError(
                    f"directed edge {(u, v)} used twice (overlapping triangles)"
                )
            directed.add((u, v))
            key = (u, v) if u < v else (v, u)
            undirected[key] = undirected.get(key, 0) + 1
    if any(cnt > 2 for cnt in undirected.values()):
        raise TriangulationStructureError("an edge borders more than two triangles")

    boundary = [e for e, cnt in undirected.items() if cnt == 1]
    hull = chain_convex_hull(ps, keep_collinear=True)
    h = len(hull)
    n_tri = len(normalized)
    n_edge = len(undirected)
    if n_tri != 2 * n - h - 2 or n_edge != 3 * n - h - 3 or len(boundary) != h:
        raise TriangulationStructureError(
            "Euler relation violated: "
            f"n={n} h={h} triangles={n_tri} edges={n_edge} boundary={len(boundary)}"
        )
    return normalized


# --------------------------------------------------------------------------
# The original convex hull: Andrew's monotone chain, one orient2d call at a
# time.  The package reads its hull from the chains of its x-sweep.
# --------------------------------------------------------------------------

def chain_convex_hull(ps: PointSet, keep_collinear: bool = True) -> list[int]:
    """Hull vertex indices in ccw order from the lexicographically smallest
    point; with keep_collinear=True, points lying on hull edges are included."""
    n = len(ps)
    order = sorted(range(n), key=lambda i: (ps[i].x, ps[i].y))
    if n < 3:
        return order
    pts = ps.points

    def build(indices):
        chain: list[int] = []
        for i in indices:
            while len(chain) >= 2:
                s = orient2d(pts[chain[-2]], pts[chain[-1]], pts[i])
                if s is Sign.NEGATIVE or (s is Sign.ZERO and not keep_collinear):
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    if len(lower) == n and len(upper) == n and all(
        orient2d(pts[order[0]], pts[order[-1]], pts[i]) is Sign.ZERO for i in order[1:-1]
    ):
        # Fully collinear input: the "hull" is the chain itself.
        return order
    return lower[:-1] + upper[:-1]


# --------------------------------------------------------------------------
# The original convex-cycle test of the tiling check, on Python lists; the
# package's version makes the same decision with numpy.
# --------------------------------------------------------------------------

def loop_is_convex_cycle(ps: PointSet, tails: list, heads: list) -> bool:
    succ = dict(zip(tails, heads))
    if len(succ) != len(tails) or set(heads) != set(tails):
        return False
    pts = ps.points
    cycle = [min(tails, key=lambda i: (pts[i].x, pts[i].y))]
    while succ[cycle[-1]] != cycle[0]:
        cycle.append(succ[cycle[-1]])
    xy = [(pts[i].x, pts[i].y) for i in cycle]
    rises = [p < q for p, q in zip(xy, xy[1:])]
    if len(cycle) != len(tails) or rises != sorted(rises, reverse=True):
        return False
    ring = np.array(cycle, dtype=np.int64)
    turns = np.stack([np.roll(ring, 2), np.roll(ring, 1), ring], axis=1)
    return bool((_orientations(ps.coords, turns) >= 0).all())


# --------------------------------------------------------------------------
# The original perturbation loop, one Point2 at a time; ``perturb`` draws the
# same numbers as arrays and must give the same coordinates bit for bit.
# --------------------------------------------------------------------------

def perturb_points(ps: PointSet, delta: float, seed: int) -> PointSet:
    rng = np.random.default_rng(seed)
    n = len(ps)
    radii = delta * np.sqrt(rng.random(n))
    angles = 2.0 * math.pi * rng.random(n)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # Point2 rejects inf and nan
        for p, r, a in zip(ps, radii, angles):
            out.append(Point2(p.x + r * math.cos(a), p.y + r * math.sin(a)))
    return PointSet(tuple(out))


# --------------------------------------------------------------------------
# The original realisation step of ``make_unique_delaunay``: cocircular
# clusters as lists, one linear-program variable per (point, cluster) built
# in dicts, and the moves one point at a time.  It runs on the package's
# half-edges, certificate and builder; the package must move the points to
# the same coordinates bit for bit.
# --------------------------------------------------------------------------

def dict_make_unique_delaunay(ps: PointSet, t: Triangulation, budget: float) -> PointSet:
    """``make_unique_delaunay(ps, t, budget)`` for a t with cocircular
    freedom: the early return for an already unique t is left out."""
    tris, _ = _structural_check(ps, t)
    target = _tri._target_arrays(t, len(ps))
    clusters = _list_clusters(ps, tris)
    if not clusters:
        raise RealizationError("no cocircular freedom")
    weights = _dict_cluster_weights(ps.coords.tolist(), clusters)
    dx, dy = (ps.coords[0] - ps.coords).T.tolist()
    scale = max(map(math.hypot, dx, dy)) or 1.0
    step = min(budget, 1e-6 * scale) * 0.999
    total_w: dict[int, float] = {}
    for (pt_idx, _), w in weights:
        total_w[pt_idx] = total_w.get(pt_idx, 0.0) + w
    wmax = max(total_w.values()) or 1.0
    for _ in range(8):
        moved = ps.coords.tolist()
        for (pt_idx, center), w in weights:
            x, y = moved[pt_idx]
            ux, uy = x - center[0], y - center[1]
            norm = math.hypot(ux, uy)
            if norm == 0.0:
                continue
            f = step * (w / wmax) / norm
            moved[pt_idx] = [x - f * ux, y - f * uy]
        try:
            candidate = PointSet(moved)
        except GeometryError:
            candidate = None
        if candidate is not None:
            verdict, _ = _tri._delaunay_certificate(candidate.coords, target)
            if verdict > 0 or (verdict == 0 and _rebuilds(candidate, t)):
                return candidate
        step /= 8.0
    raise RealizationError("could not realize the triangulation within budget")


def _rebuilds(ps: PointSet, t: Triangulation) -> bool:
    try:
        return _tri.delaunay(ps) == t
    except GeometryError:
        return False


def _list_clusters(ps: PointSet, tris: np.ndarray, rtol: float = 1e-9):
    """(shared center, interior edges as [u, v, w1, w2] lists) per group of
    edge-adjacent ccw triangles sharing one float circumcircle within rtol."""
    centers, radii = _tri._circumcircles_array(ps.coords, tris)
    u, v, w, twin = _tri._edge_quads(tris)
    k = np.flatnonzero(twin // 3 > np.arange(len(twin)) // 3)
    i, j = k // 3, twin[k] // 3
    finite = np.isfinite(radii) & np.isfinite(centers).all(axis=1)
    r = np.maximum(radii[i], radii[j])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        near = finite[i] & finite[j] & (np.abs(radii[i] - radii[j]) <= rtol * r) & (
            np.hypot(*(centers[i] - centers[j]).T) <= rtol * r
        )
    label, count = _tri._clusters(len(tris), i[near], j[near])
    k = k[(label[i] >= 0) & (label[i] == label[j])]
    k = k[np.argsort(label[k // 3], kind="stable")]
    quads = np.stack([u[k], v[k], w[k], w[twin[k]]], axis=1)
    cuts = np.searchsorted(label[k // 3], np.arange(1, count))
    clusters = []
    for c, edges in zip(range(count), np.split(quads, cuts)):
        center = centers[label == c].mean(axis=0)
        clusters.append(((float(center[0]), float(center[1])), edges.tolist()))
    return clusters


def _dict_cluster_weights(pts: list, clusters):
    """[((point, cluster center), weight)] from the linear program, one
    variable per (point, cluster) incidence, the rows built in dicts."""
    from scipy.optimize import linprog

    def inward_unit(pt_idx, center):
        x, y = pts[pt_idx]
        ux, uy = center[0] - x, center[1] - y
        norm = math.hypot(ux, uy)
        return (ux / norm, uy / norm) if norm else (0.0, 0.0)

    var_meta: list[tuple[int, tuple[float, float]]] = []
    point_vars: dict[int, list[int]] = {}
    for center, edges in clusters:
        for pt in sorted({p for quad in edges for p in quad}):
            point_vars.setdefault(pt, []).append(len(var_meta))
            var_meta.append((pt, center))

    rows: list[dict[int, float]] = []
    for center, edges in clusters:
        for u, v, w1, w2 in edges:
            coeffs = _lift_row(pts, u, v, w1, w2)
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
    res = linprog(
        c=np.ones(nvars),
        A_ub=a_ub,
        b_ub=-np.ones(len(rows)),
        bounds=[(0, None)] * nvars,
        method="highs",
    )
    if not res.success:
        raise RealizationError(f"weight solve failed: {res.message}")
    return [(meta, float(w)) for meta, w in zip(var_meta, res.x)]


def _lift_row(pts: list, u: int, v: int, w1: int, w2: int) -> dict[int, float]:
    """Coefficients of the linearised lifted incircle test of quad
    (u, v, w1 | w2): twice the signed areas of the opposite sub-triangles."""

    def area2(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    pu, pv, p1, p2 = pts[u], pts[v], pts[w1], pts[w2]
    cu = area2(pv, p1, p2)
    cv = -area2(pu, p1, p2)
    c1 = area2(pu, pv, p2)
    c2 = -(cu + cv + c1)
    return {u: cu, v: cv, w1: c1, w2: c2}
