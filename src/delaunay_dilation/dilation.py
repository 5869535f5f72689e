"""Shortest paths and dilation of triangulations viewed as Euclidean graphs.

``max_dilation`` is exact over all pairs but runs a full Dijkstra only from
a few landmarks; every other source runs a Dijkstra bounded by a distance
limit, or not at all.  It works in three steps, each over blocks of
``_block_rows(n)`` rows: about ``_BLOCK_ENTRIES`` entries, 64 rows up to
n = 1024 and never fewer than 8.

1. Landmark rows.  ``max(1, n // _LANDMARK_SPACING)`` vertices, in Euclidean
   farthest-point order from vertex 0, get full Dijkstra rows (scipy's
   csgraph implementation), a block at a time.  A landmark row is the very
   row the source would get in any other run, so its pairs ``(k, t > k)``
   give exact ratios, and their maximum is a lower bound ``t*`` on the
   answer.  Each block is folded into the answer in float64 and then
   stored as float32, rounded up (see "Storage" below).
2. Landmark bounds.  For a pair ``(s, t > s)`` and any landmark k the
   triangle inequality gives ``d(s, t) <= d(k, s) + d(k, t)`` (the ALT
   bound of Goldberg and Harrelson, SODA 2005), so
   ``(d(k, s) + d(k, t)) / |st|`` bounds its ratio from stored rows.  A
   pair whose bound, raised by the relative slack ``_SLACK``, is below
   ``t*`` cannot reach the maximum.  A first pass bounds every pair through
   the landmark nearest to s (by stored distance).  The pairs it keeps, a
   few percent, are refined: their sum becomes the least over that landmark
   and the ``_REFINE`` landmarks nearest to s and to t, and they are tested
   again.  The source keeps the largest bound over its pairs and a distance
   limit: the largest ``(1 + _SLACK) * (d(k, s) + d(k, t))`` over its kept
   pairs.  Besides the stored rows and the ``_REFINE * n`` nearest-landmark
   indices, the bounds need a few blocks of float64.
3. Bounded rows.  The sources with a kept pair are sorted by their limit
   and run in chunks of a block with ``dijkstra(limit=...)`` set to the
   chunk's largest limit: sources with similar limits share a chunk, so one
   limit serves them all.  Before each chunk, the sources whose largest
   bound has fallen below the best ratio found so far are dropped.

So the working memory is the stored rows, ``n * n / 16`` float32 entries,
and a few blocks besides; only ``include_pairs`` holds more.

Storage.  The bounds need only *upper* bounds on the landmark distances.
A stored entry is the float32 cast of the distance times ``2**-e``, moved
up to the next float32 wherever the cast fell below it; e is the binary
exponent of the longest edge (``math.frexp``), so every distance, at most
n - 1 edges long, lies within float32's range.  A stored entry times
``2**e`` is thus at least its float64 distance, and at most a relative
``2**-23`` above it in float32's normal range (an entry below that range is
a tiny absolute amount above it; one above it is inf).  The bounds form
every sum in float64 from the stored entries, and the scale enters only
through the squared floor and the returned bounds and limits, each times
a power of two.  So every bound and every limit is still at least the one
the float64 rows give, and the slack argument below holds unchanged; the
looser bounds can only keep more pairs, never drop one.

The slack.  Dijkstra's distances are float sums along paths of at most
n - 1 edges, and the landmark path to t and back to s has at most 2n - 2;
a float sum of h positive terms is within a relative (h - 1) * u of the
exact sum (u = 2**-53; Higham, "Accuracy and Stability of Numerical
Algorithms", section 4).  So a computed ``d(s, t)`` exceeds the computed
``d(k, s) + d(k, t)`` by a relative 3n * u at most.  The bounds are
compared squared, which adds a few more u while the squares stay in the
normal float range; a block of sources where they might not keeps every
pair, and so does every block when the scaled floor or the scaled bounds
might leave it.  ``_SLACK`` covers all of that while
``n * 2**-52 <= _SLACK / 4``, that is up to about a million vertices;
beyond that nothing is pruned.

Why the report is bit-identical to a full run.  Dijkstra settles a node
whose distance is within the limit through nodes that are within the limit
too, and a node beyond the limit cannot lower a settled distance, since
``d + w >= d`` in floats too: the settled distances are the same float
sums as in a full run (scipy leaves the others at inf).  Every ratio is the
same ``d(i, j) / hypot(x_i - x_j, y_i - y_j)`` of a row from source i.  A
pair left out has a computed ratio strictly below ``t*``, so it can neither
win nor tie.  The witness is the pair with the largest ratio and, among
equal ratios, the smallest ``(i, j)``, whatever order the rows ran in.
With ``include_pairs`` the same code runs with nothing pruned and no limit.

The Dijkstra runs in directed mode: the sparse matrix stores every edge
once in each direction, so each edge is relaxed once per direction and the
settled distances are the same float sums as in undirected mode.  Witness
paths and single-pair queries use a local Dijkstra with exact-tie
preference for the lexicographically smallest vertex sequence.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .geom import GeometryError, dist
from .triangulation import PointSet, Triangulation, _index_array, _repeats

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

log = logging.getLogger(__name__)

# One landmark per _LANDMARK_SPACING vertices: the landmark rows hold
# n * n / _LANDMARK_SPACING float32 distances.
_LANDMARK_SPACING = 16
# Entries per block of rows (landmark rows, bounds and bounded Dijkstra
# chunks), within 8 to 64 rows; see _block_rows.
_BLOCK_ENTRIES = 2**16
# Landmarks nearest to each end that refine the bound of a pair kept by the
# nearest landmark of its source.
_REFINE = 4
# Relative slack on the landmark bounds and limits; see the module docstring.
_SLACK = 1e-9


class EuclideanGraph:
    """Undirected graph whose edge weights are the endpoint distances.

    The edges are stored once, as the read-only (E, 2) int64 array
    ``edge_array``; ``edges`` is a tuple view of it, and the weights and the
    sparse matrix are derived from it.
    """

    def __init__(self, points: PointSet, edges):
        """edges: an (E, 2) array or an iterable of index pairs."""
        e = _index_array(edges, 2)
        n = len(points)
        bad = ((e < 0) | (e >= n)).any(axis=1) | (e[:, 0] == e[:, 1])
        # The sparse matrix would sum the weights of a repeated edge.
        keys = np.minimum(*e.T) * n + np.maximum(*e.T)
        wrong = np.flatnonzero(bad | _repeats(keys[:, None]))
        if len(wrong):
            k = wrong[0]
            why = "bad" if bad[k] else "repeated"
            raise GeometryError(f"{why} edge {tuple(e[k].tolist())}")
        e.flags.writeable = False
        self.points, self.edge_array = points, e

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def weights(self) -> np.ndarray:
        """Edge lengths by ``math.hypot``, as ``geom.dist`` measures them;
        ``np.hypot`` differs from it in the last bit on some edges."""
        coords = self.points.coords
        dx, dy = (coords[self.edge_array[:, 0]] - coords[self.edge_array[:, 1]]).T
        return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), np.float64, len(dx))

    @cached_property
    def _csr(self) -> csr_matrix:
        """Each edge once in each direction; the column indices ascend."""
        n = len(self.points)
        u, v = np.concatenate([self.edge_array, self.edge_array[:, ::-1]]).T
        return csr_matrix((np.tile(self.weights, 2), (u, v)), shape=(n, n))


@dataclass(frozen=True)
class DilationReport:
    max_dilation: float
    witness: tuple[int, int]
    witness_path: tuple[int, ...]
    pairs: tuple[tuple[int, int, float], ...] | None = None


def graph_from_triangulation(ps: PointSet, t: Triangulation) -> EuclideanGraph:
    return EuclideanGraph(ps, t.edge_array)


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

    starts, heads, weights = (a.tolist() for a in (g._csr.indptr, g._csr.indices, g._csr.data))
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
        lo, hi = starts[x], starts[x + 1]
        for y, w in zip(heads[lo:hi], weights[lo:hi]):
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

    Ties in the ratio go to the smallest ``(i, j)``.  With ``include_pairs``
    the report carries every ``(i, j, ratio)`` with ``i < j``, in row-major
    order.
    """
    n = len(g.points)
    if n < 2:
        raise GeometryError("need at least 2 vertices")
    coords = g.points.coords
    x, y = coords.T
    marks = _landmarks(coords, max(1, n // _LANDMARK_SPACING))
    block = _block_rows(n)
    # The stored rows are scaled by 2**-e, e the binary exponent of the
    # longest edge, so that every distance fits float32's range.
    e = math.frexp(g._csr.data.max(initial=0.0))[1]
    land = np.empty((len(marks), n), dtype=np.float32)
    rows: list[list[float]] | None = [[]] * n if include_pairs else None
    best = (-math.inf, 0, 0)  # (ratio, i, j)
    reduced = 0
    for lo in range(0, len(marks), block):
        chunk = marks[lo:lo + block]
        graph_d = _csgraph_dijkstra(g._csr, directed=True, indices=chunk)
        if lo == 0 and np.isinf(graph_d[0]).any():
            raise GeometryError("graph is disconnected")
        best, count = _reduce(graph_d, chunk, x, y, best, rows)
        reduced += count
        land[lo:lo + block] = _round_up(graph_d, e)
    settled, stored = land.size, land.nbytes
    # The last vertex has no partner j > i, so it is never a source.
    todo = np.ones(n - 1, dtype=bool)
    todo[marks[marks < n - 1]] = False
    if include_pairs or n * 2.0**-52 > _SLACK / 4:
        top = limit = np.full(n - 1, np.inf)
        refined = kept = 0
    else:
        top, limit, refined, kept = _landmark_bounds(land, e, x, y, best[0])
    del land
    sources = np.flatnonzero(todo & (top >= best[0]))
    sources = sources[np.argsort(limit[sources], kind="stable")]
    run = 0
    for lo in range(0, len(sources), block):
        chunk = sources[lo:lo + block]
        chunk = chunk[top[chunk] >= best[0]]
        if not len(chunk):
            continue
        graph_d = _csgraph_dijkstra(
            g._csr, directed=True, indices=chunk, limit=limit[chunk].max()
        )
        settled += int(np.count_nonzero(np.isfinite(graph_d)))
        run += len(chunk)
        best, count = _reduce(graph_d, chunk, x, y, best, rows)
        reduced += count
    log.debug(
        "max_dilation n=%d: %d landmarks, %d sources run, %d skipped, "
        "%d pairs pruned, %d pairs refined, %d kept after refinement, "
        "%d nodes settled, %d bytes of landmark rows",
        n, len(marks), run, int(np.count_nonzero(todo)) - run,
        n * (n - 1) // 2 - reduced, refined, kept, settled, stored,
    )

    _, wi, wj = best
    _, path = shortest_path(g, wi, wj)
    value = _path_length(coords, path) / math.hypot(*(coords[wi] - coords[wj]).tolist())
    pairs = None
    if rows is not None:
        pairs = tuple(
            (i, j, r) for i, row in enumerate(rows) for j, r in enumerate(row, i + 1)
        )
    return DilationReport(
        max_dilation=float(value),
        witness=(wi, wj),
        witness_path=tuple(path),
        pairs=pairs,
    )


def _landmarks(coords: np.ndarray, m: int) -> np.ndarray:
    """m vertices in Euclidean farthest-point order, starting from vertex 0."""
    far = np.full(len(coords), np.inf)
    marks = np.empty(m, dtype=np.intp)
    k = 0
    for r in range(m):
        marks[r] = k
        diff = coords - coords[k]
        np.minimum(far, np.einsum("ij,ij->i", diff, diff), out=far)
        k = int(np.argmax(far))
    return marks


def _block_rows(n: int) -> int:
    """Rows per block of an n-column array: about _BLOCK_ENTRIES entries."""
    return max(8, min(64, _BLOCK_ENTRIES // n))


def _round_up(rows: np.ndarray, e: int) -> np.ndarray:
    """rows (float64, >= 0) times 2**-e, rounded up to float32.

    Each entry of the result is the least float32 at or above the exact
    ``rows * 2**-e``, and inf above float32's range, so the result times
    ``2**e`` is never below rows.
    """
    with np.errstate(over="ignore"):
        scaled = np.ldexp(rows, -e)
        r = scaled.astype(np.float32)
    # ldexp rounds a result below float64's normal range, to 0 at worst,
    # and every such value casts to 0 in float32.
    up = (r < scaled) | ((r == 0) & (rows > 0))
    # For r >= 0, one more in its bits is the next float32 up (np.nextafter
    # with a where mask is ten times slower).
    bits = r.view(np.uint32)
    bits += up
    return r


def _reduce(graph_d, src, x, y, best, rows):
    """Fold the pairs ``(i, j > i)`` that the rows graph_d settle into best.

    Row r of graph_d holds the distances from source src[r]; entries beyond
    a Dijkstra limit are inf.  best is ``(ratio, i, j)``: a larger ratio
    wins, and an equal one goes to the smaller ``(i, j)``.  With rows, row i
    of the pair table is stored at rows[i].  Returns the new best and the
    number of pairs reduced.
    """
    ok = np.isfinite(graph_d)
    ok &= np.arange(graph_d.shape[1]) > src[:, None]
    flat = np.flatnonzero(ok)
    r, j = np.divmod(flat, graph_d.shape[1])
    i = src[r]
    ratios = graph_d.ravel()[flat]
    ratios /= np.hypot(x[i] - x[j], y[i] - y[j])
    if rows is not None:
        ends = np.cumsum(np.count_nonzero(ok, axis=1))[:-1]
        for source, row in zip(src.tolist(), np.split(ratios, ends)):
            rows[source] = row.tolist()
    if not len(ratios):
        return best, 0
    top = ratios.max()
    if top < best[0]:
        return best, len(ratios)
    at = np.flatnonzero(ratios == top)
    witness = min(zip(i[at].tolist(), j[at].tolist()))
    if top > best[0] or witness < best[1:]:
        return (top, *witness), len(ratios)
    return best, len(ratios)


# Squares, bounds and the scaled floor may overflow to inf.  An infinite
# bound keeps its pair, and the range tests send a block with an infinite
# square, or a call with an infinite floor, to keep every pair.
@np.errstate(over="ignore")
def _landmark_bounds(land, e, x, y, floor):
    """Per source s < n - 1: the largest bound and the Dijkstra limit.

    land holds the landmark rows, stored scaled by 2**-e and rounded up by
    _round_up.  The bound of a pair ``(s, t > s)`` is
    ``(1 + _SLACK) * (d(k, s) + d(k, t)) / |st|`` for a landmark k: first
    the landmark nearest to s, and for the pairs whose bound reaches floor
    the best of that one and the ``_REFINE`` landmarks nearest to s and to
    t.  The limit is the largest ``(1 + _SLACK) * (d(k, s) + d(k, t))`` over
    the pairs whose final bound reaches floor (0 if none does).  The sums
    are float64 sums of the stored float32 values, and the scale is folded
    into the squared floor ``cut`` and into the returned top and limit.
    The bounds are compared squared, since np.hypot costs far more than a
    product.  A block whose squares could leave the normal float range
    keeps every pair with no limit, so underflow or overflow never prunes
    one; so does every block when the scaled floor or the scaled bounds
    could.  Also returns the number of pairs refined and the number of
    those still kept.
    """
    m, n = land.shape
    top = np.full(n - 1, np.inf)
    limit = np.full(n - 1, np.inf)
    cut = np.ldexp(np.square(floor / (1 + _SLACK)), -2 * e)
    # A bound is at least about 2**-2e, since d(s, t) >= |st|.
    if e > 484 or not np.isfinite(cut):
        return top, limit, 0, 0
    near = np.empty(n, dtype=np.intp)
    nears = np.empty((min(_REFINE, m), n), dtype=np.intp)
    # argmin over axis 0 would copy all of land; column slices copy little.
    for c in range(0, n, 256):
        cols = land[:, c:c + 256]
        near[c:c + 256] = cols.argmin(axis=0)
        part = np.argpartition(cols, len(nears) - 1, axis=0)
        nears[:, c:c + 256] = part[:len(nears)]
    from_near = land[near, np.arange(n)].astype(np.float64)
    flat = land.ravel()  # a view: land is C-contiguous
    block = _block_rows(n)
    near_rows = np.empty((block, n))
    buf = np.empty((2, block * (n - 1)))
    below = np.tri(block, k=-1, dtype=bool)
    # |st| <= d(k, s) + d(k, t) <= num * 2**e up to rounding, so with
    # e <= 484 these two keep |st|**2, num**2 and num**2 / |st|**2 normal.
    shift = max(e, 0)
    lo_sq, hi_num = 2.0 ** (2 * shift - 969), 2.0 ** (484 - shift)
    refined = kept = 0
    for lo in range(0, n - 1, block):
        hi = min(lo + block, n - 1)
        b = hi - lo
        # Row r is source lo + r and column c is target lo + 1 + c, so the
        # entries with t <= s are those below[r, c] (c < r).
        no_pair = below[:b, :b]
        num = near_rows[:b, lo + 1:]
        np.add(land[near[lo:hi], lo + 1:], from_near[lo:hi, None], out=num)
        sq, ub = (a[:num.size].reshape(num.shape) for a in buf)
        np.subtract(x[lo:hi, None], x[lo + 1:], out=sq)
        sq *= sq
        np.subtract(y[lo:hi, None], y[lo + 1:], out=ub)
        ub *= ub
        sq += ub
        sq[:, :b][no_pair] = 1.0
        if not (sq.min() >= lo_sq and num.max() <= hi_num):
            continue
        np.multiply(num, num, out=ub)
        ub /= sq
        ub[:, :b][no_pair] = -np.inf
        # Refine the pairs the nearest landmark keeps: every landmark's
        # sum bounds d(s, t) by the same argument, so take the least.
        r, c = np.nonzero(ub >= cut)
        s, t = r + lo, c + lo + 1
        sums = num[r, c]
        for row in nears:
            for k in (row[s], row[t]):
                k *= n
                np.minimum(sums, np.add(flat[k + s], flat[k + t], dtype=np.float64),
                           out=sums)
        ub[r, c] = bound = sums * sums / sq[r, c]
        keep = bound >= cut
        refined += len(keep)
        kept += int(np.count_nonzero(keep))
        # Only refined pairs can still reach floor.
        limit[lo:hi] = 0.0
        np.maximum.at(limit, s[keep], sums[keep])
        top[lo:hi] = ub.max(axis=1)
    np.sqrt(top, out=top)
    top *= 1 + _SLACK
    limit *= 1 + _SLACK
    return np.ldexp(top, e), np.ldexp(limit, e), refined, kept


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
