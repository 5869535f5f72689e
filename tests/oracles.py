"""Independent oracles for cross-checking the library.

Deliberately share no code with the package: rational-arithmetic predicates,
a sweep-then-Lawson-flip Delaunay builder, exhaustive simple-path
enumeration for shortest paths, and the original dense all-pairs dilation
reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


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


def dense_max_dilation(pts, edges, include_pairs=False):
    """Witness pair and optional pair table from the dense n x n reduction.

    The original implementation: an undirected all-pairs Dijkstra, dense
    Euclidean and ratio arrays over the upper triangle, and the first
    maximum in row-major order.  Assumes a connected graph.
    """
    n = len(pts)
    coords = np.array(pts, dtype=np.float64)
    rows, cols, vals = [], [], []
    for u, v in edges:
        w = math.hypot(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1])
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    graph_d = dijkstra(csr_matrix((vals, (rows, cols)), shape=(n, n)), directed=False)
    diff = coords[:, None, :] - coords[None, :, :]
    euclid = np.hypot(diff[:, :, 0], diff[:, :, 1])
    iu, ju = np.triu_indices(n, k=1)
    ratios = graph_d[iu, ju] / euclid[iu, ju]
    best = int(np.argmax(ratios))
    pairs = None
    if include_pairs:
        pairs = tuple((int(i), int(j), float(r)) for i, j, r in zip(iu, ju, ratios))
    return (int(iu[best]), int(ju[best])), pairs
