"""Shortest paths and dilation of triangulations viewed as Euclidean graphs.

The all-pairs maximum streams over blocks of ``_BLOCK_ROWS`` source rows.
Each block runs one binary-heap Dijkstra per source (scipy's csgraph
implementation) and reduces only the pairs ``j > i``, so memory is
O(B*n) for a block of B sources rather than O(n^2).  The Dijkstra runs in
directed mode: the sparse matrix stores every edge once in each direction,
so each edge is relaxed once per direction and the settled distances are
the same float sums as in undirected mode.  The reduction is deterministic:
ties in the ratio go to the smallest ``(i, j)`` in row-major order, within a
block by the first maximum and across blocks by a strict comparison.
Witness paths and single-pair queries use a local Dijkstra with exact-tie
preference for the lexicographically smallest vertex sequence.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .geom import GeometryError, dist
from .triangulation import PointSet, Triangulation

__all__ = [
    "EuclideanGraph",
    "DilationReport",
    "graph_from_triangulation",
    "shortest_path",
    "pair_dilation",
    "max_dilation",
    "report_to_json",
    "pairs_to_csv",
]

# Sources per Dijkstra block: a block holds _BLOCK_ROWS * n float64 distances.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class EuclideanGraph:
    """Undirected graph whose edge weights are the endpoint distances."""

    points: PointSet
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.points)
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise GeometryError(f"bad edge {(u, v)}")
            # The sparse matrix would sum the weights of a repeated edge.
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GeometryError(f"repeated edge {(u, v)}")
            seen.add(key)

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(dist(self.points[u], self.points[v]) for u, v in self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(len(self.points))]
        for (u, v), w in zip(self.edges, self.weights):
            adj[u].append((v, w))
            adj[v].append((u, w))
        for lst in adj:
            lst.sort()
        return tuple(tuple(lst) for lst in adj)

    @cached_property
    def _csr(self) -> csr_matrix:
        n = len(self.points)
        rows, cols, vals = [], [], []
        for (u, v), w in zip(self.edges, self.weights):
            rows += [u, v]
            cols += [v, u]
            vals += [w, w]
        return csr_matrix((vals, (rows, cols)), shape=(n, n))

    def check_weights(self) -> bool:
        """Recompute every weight from coordinates; exact equality."""
        return all(
            w == dist(self.points[u], self.points[v])
            for (u, v), w in zip(self.edges, self.weights)
        )


@dataclass(frozen=True)
class DilationReport:
    max_dilation: float
    witness: tuple[int, int]
    witness_path: tuple[int, ...]
    pairs: tuple[tuple[int, int, float], ...] | None = None


def graph_from_triangulation(ps: PointSet, t: Triangulation) -> EuclideanGraph:
    return EuclideanGraph(points=ps, edges=t.edges)


def shortest_path(g: EuclideanGraph, u: int, v: int) -> tuple[float, list[int]]:
    """Minimal path length and the lexicographically smallest optimal path.

    Lexicographic preference applies on exact floating-point ties, which do
    occur in the symmetric circle constructions.
    """
    n = len(g.points)
    if not (0 <= u < n and 0 <= v < n):
        raise GeometryError("vertex index out of range")
    if u == v:
        return 0.0, [u]

    adj = g.adjacency
    distv: dict[int, float] = {u: 0.0}
    parent: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, u)]

    def path_to(x: int) -> list[int]:
        out = [x]
        while out[-1] != u:
            out.append(parent[out[-1]])
        out.reverse()
        return out

    while heap:
        d, x = heapq.heappop(heap)
        if x in done or d > distv[x]:
            continue
        done.add(x)
        if x == v:
            break
        for y, w in adj[x]:
            if y in done:
                continue
            nd = d + w
            old = distv.get(y)
            if old is None or nd < old:
                distv[y] = nd
                parent[y] = x
                heapq.heappush(heap, (nd, y))
            elif nd == old and parent.get(y) != x:
                if path_to(x) + [y] < path_to(parent[y]) + [y]:
                    parent[y] = x
    if v not in done:
        raise GeometryError(f"no path from {u} to {v}")
    return distv[v], path_to(v)


def pair_dilation(g: EuclideanGraph, u: int, v: int) -> float:
    if u == v:
        raise GeometryError("dilation of a coincident pair is undefined")
    length, _ = shortest_path(g, u, v)
    return length / dist(g.points[u], g.points[v])


def max_dilation(g: EuclideanGraph, include_pairs: bool = False) -> DilationReport:
    """Maximum dilation over all vertex pairs, with witness pair and path.

    Ties in the ratio go to the smallest ``(i, j)`` in row-major order.  With
    ``include_pairs`` the report carries every ``(i, j, ratio)`` with
    ``i < j``, in that same order.
    """
    n = len(g.points)
    if n < 2:
        raise GeometryError("need at least 2 vertices")
    x, y = g.points.coords.T
    best = -math.inf
    wi = wj = 0
    pairs: list[tuple[int, int, float]] | None = [] if include_pairs else None
    # The last vertex has no partner j > i, so it is never a source.
    for start in range(0, n - 1, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n - 1)
        graph_d = _csgraph_dijkstra(
            g._csr, directed=True, indices=np.arange(start, stop)
        )
        if np.isinf(graph_d).any():
            raise GeometryError("graph is disconnected")
        # Row r is source start + r and column c is target start + 1 + c, so
        # the pair has j > i exactly when c >= r.  The other entries are set
        # to -inf so they never win the argmax.
        upper = np.arange(n - start - 1) >= np.arange(stop - start)[:, None]
        dx = x[start:stop, None] - x[None, start + 1:]
        dy = y[start:stop, None] - y[None, start + 1:]
        ratios = np.hypot(dx, dy, out=dx)
        np.divide(graph_d[:, start + 1:], ratios, out=ratios, where=upper)
        ratios[~upper] = -np.inf
        if pairs is not None:
            for r in range(stop - start):
                i = start + r
                pairs.extend(
                    zip(repeat(i), range(i + 1, n), ratios[r, r:].tolist())
                )
        r, c = divmod(int(np.argmax(ratios)), n - start - 1)
        # Strict > keeps the earlier block's pair on a tie across blocks.
        if ratios[r, c] > best:
            best = ratios[r, c]
            wi, wj = start + r, start + 1 + c
        # Free this block's arrays before the next Dijkstra allocates its own.
        del graph_d, upper, dx, dy, ratios

    _, path = shortest_path(g, wi, wj)
    value = _path_length(g.points.coords, path) / dist(g.points[wi], g.points[wj])
    return DilationReport(
        max_dilation=float(value),
        witness=(wi, wj),
        witness_path=tuple(path),
        pairs=None if pairs is None else tuple(pairs),
    )


def _path_length(coords: np.ndarray, path) -> float:
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += math.hypot(
            coords[a, 0] - coords[b, 0], coords[a, 1] - coords[b, 1]
        )
    return total


def report_to_json(report: DilationReport) -> str:
    doc = {
        "max_dilation": report.max_dilation,
        "witness": list(report.witness),
        "path": list(report.witness_path),
    }
    if report.pairs is not None:
        doc["pairs"] = [[i, j, r] for i, j, r in report.pairs]
    return json.dumps(doc)


def pairs_to_csv(report: DilationReport) -> str:
    if report.pairs is None:
        raise ValueError("report was computed without the per-pair table")
    lines = ["i,j,dilation"]
    lines += [f"{i},{j},{r!r}" for i, j, r in report.pairs]
    return "\n".join(lines) + "\n"
