"""Shortest paths and dilation of triangulations viewed as Euclidean graphs.

``max_dilation`` is exact over all pairs but runs a full Dijkstra only from
a few landmarks; every other source runs a Dijkstra bounded by a distance
limit, or not at all.  It works in three steps, over blocks of
``_block_rows(n)`` rows: about ``_BLOCK_ENTRIES`` entries, 64 rows up to
n = 1024 and never fewer than 8.

1. Landmark rows.  ``max(1, n // _LANDMARK_SPACING)`` vertices, in Euclidean
   farthest-point order from vertex 0, get full Dijkstra rows (scipy's
   csgraph implementation), a block at a time.  A landmark row is the very
   row the source would get in any other run, so its pairs ``(k, t > k)``
   give exact ratios, and their maximum is a lower bound ``t*`` on the
   answer.  Each block is folded into the answer in float64 and then
   stored as float32, rounded up (see "Storage" below).
2. Landmark bounds.  For a pair ``(s, t)`` and any landmark k the triangle
   inequality gives ``d(s, t) <= d(k, s) + d(k, t)`` (the ALT bound of
   Goldberg and Harrelson, SODA 2005), so ``(d(k, s) + d(k, t)) / |st|``
   bounds its ratio from stored rows.  A pair whose bound, raised by the
   relative slack ``_SLACK``, is below ``t*`` cannot reach the maximum.
   The vertices are grouped by their nearest landmark (by stored distance),
   the groups taken in landmark order and cut into chunks of a block.  The
   first pass bounds each unordered pair once, from the chunk of the end
   that comes first, through that chunk's landmark.  Before it, a group
   test drops a target for a whole chunk at once: the chunk's largest
   distance to its landmark and the target's distance to the chunk's
   bounding box give a bound for all its pairs with that target.  Each
   term of that bound is the same float operation as a pair's on larger
   or smaller operands, and rounding is monotone, so it drops only pairs
   the first pass would drop.  The pairs the first pass keeps, a few
   percent, are refined over the ``_REFINE`` landmarks nearest to each
   end, nearest first, and dropped as soon as the least sum falls below
   ``t*``.  A kept pair belongs to its smaller index s: the limit of s is
   the largest ``(1 + _SLACK) * (d(k, s) + d(k, t))`` over its kept pairs.
   The kept pairs themselves are stored as keys ``s * n + t`` (int32 up to
   n = 46340), sorted by source once the landmark rows are freed.
3. Bounded rows.  The sources with a kept pair are sorted by their limit
   and run in chunks with ``dijkstra(limit=...)`` set to the chunk's
   largest limit: sources with similar limits share a chunk, so one limit
   serves them all.  Before each chunk, the sources whose largest bound
   has fallen below the best ratio found so far are dropped.  A chunk has
   ``_CHUNK_ROWS`` rows, and each row is folded at its source's kept pairs
   only.  Without kept pairs (nothing pruned, or the pairs overran their
   budget, below) a chunk is a block, and its rows are folded whole.

So the working memory is the stored rows, ``n * n / 16`` float32 entries,
the kept pairs and a few blocks besides; only ``include_pairs`` holds
more.  The kept pairs get at most a quarter of the bytes of the stored
rows (or ``_BLOCK_ENTRIES`` keys, if that is more); past that budget they
are dropped, so however many pairs are kept they add no more than that.
A chunk of bounded rows folded at kept pairs is ``_CHUNK_ROWS * n``
float64 entries, more than a block above n = 1024 and 8 blocks from
n = 8192: 2 MB at n = 4000 against 4 MB of stored rows, and 33 MB at
n = 64000 against 1 GB.

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
normal float range; a pair whose squares might not is kept with an
infinite bound, and so is every pair when the scaled floor or the scaled
bounds might leave it.  ``_SLACK`` covers all of that while
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
# Rows per chunk of bounded Dijkstra rows folded at their kept pairs.
_CHUNK_ROWS = 64
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
    def _csr(self):
        """Each edge once in each direction; the column indices ascend."""
        from scipy.sparse import csr_matrix

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
    from time import perf_counter

    from scipy.sparse.csgraph import dijkstra

    n = len(g.points)
    if n < 2:
        raise GeometryError("need at least 2 vertices")
    started = perf_counter()
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
        graph_d = dijkstra(g._csr, directed=True, indices=chunk)
        if lo == 0 and np.isinf(graph_d[0]).any():
            raise GeometryError("graph is disconnected")
        best, count = _reduce(graph_d, chunk, x, y, best, rows)
        reduced += count
        land[lo:lo + block] = _round_up(graph_d, e)
    settled, stored = land.size, land.nbytes
    landmarks_done = perf_counter()
    # The last vertex has no partner j > i, so it is never a source.
    todo = np.ones(n - 1, dtype=bool)
    todo[marks[marks < n - 1]] = False
    if include_pairs or n * 2.0**-52 > _SLACK / 4:
        top = limit = np.full(n - 1, np.inf)
        kept, counts = None, (0, 0, 0)
    else:
        top, limit, kept, counts = _landmark_bounds(land, e, x, y, best[0])
    del land
    if kept is not None:
        # Sorted only now, in the room the landmark rows took.
        kept = _KeptPairs(n, kept)
    bounds_done = perf_counter()
    sources = np.flatnonzero(todo & (top >= best[0]))
    sources = sources[np.argsort(limit[sources], kind="stable")]
    run = 0
    debug = log.isEnabledFor(logging.DEBUG)
    # Most entries of a bounded row stay inf and only kept pairs are read,
    # so with kept pairs a chunk takes _CHUNK_ROWS rows at any n: fewer
    # Dijkstra calls and folds.
    step = block if kept is None else _CHUNK_ROWS
    for lo in range(0, len(sources), step):
        chunk = sources[lo:lo + step]
        chunk = chunk[top[chunk] >= best[0]]
        if not len(chunk):
            continue
        graph_d = dijkstra(g._csr, directed=True, indices=chunk, limit=limit[chunk].max())
        if debug:
            settled += int(np.count_nonzero(np.isfinite(graph_d)))
        run += len(chunk)
        if kept is None:
            best, count = _reduce(graph_d, chunk, x, y, best, rows)
        else:
            best, count = kept.fold(graph_d, chunk, x, y, best)
        reduced += count
    if debug:
        log.debug(
            "max_dilation n=%d: %d landmarks, %d sources run, %d skipped, "
            "%d pairs pruned, %d dropped by groups, %d pairs refined, "
            "%d kept after refinement, %d nodes settled, "
            "%d bytes of landmark rows, %.4f s landmark rows, %.4f s bounds, "
            "%.4f s bounded rows",
            n, len(marks), run, int(np.count_nonzero(todo)) - run,
            n * (n - 1) // 2 - reduced, *counts, settled, stored,
            landmarks_done - started, bounds_done - landmarks_done,
            perf_counter() - bounds_done,
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


@np.errstate(over="ignore")
def _landmarks(coords: np.ndarray, m: int) -> np.ndarray:
    """m vertices in Euclidean farthest-point order, starting from vertex 0."""
    x, y = np.array(coords.T)
    far = np.full(len(x), np.inf)
    dx, dy = np.empty_like(x), np.empty_like(y)
    marks = np.empty(m, dtype=np.intp)
    k = 0
    for r in range(m):
        marks[r] = k
        np.subtract(x, x[k], out=dx)
        dx *= dx
        np.subtract(y, y[k], out=dy)
        dy *= dy
        dx += dy
        np.minimum(far, dx, out=far)
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
    return _merge(best, ratios, i, j), len(ratios)


def _merge(best, ratios, i, j):
    """best and the pairs ``(i, j)`` with their ratios, as _reduce folds them."""
    if not len(ratios):
        return best
    top = ratios.max()
    if top < best[0]:
        return best
    at = ratios == top
    first = i[at].min()
    witness = (int(first), int(j[at][i[at] == first].min()))
    if top > best[0] or witness < best[1:]:
        return (top, *witness)
    return best


class _KeptPairs:
    """The pairs ``(s, t > s)`` the bounds keep, sorted by source.

    The pairs come as keys ``s * n + t`` in chunks.
    """

    def __init__(self, n, chunks):
        self.keys = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
        del chunks[:]  # frees them before the sort
        self.keys.sort()
        self.n = n
        self.starts = np.searchsorted(
            self.keys, np.arange(n + 1, dtype=self.keys.dtype) * n
        )

    def fold(self, graph_d, src, x, y, best):
        """Fold the kept pairs of the sources src, with rows graph_d, into
        best as _reduce does.
        """
        first, last = self.starts[src], self.starts[src + 1]
        sizes = last - first
        r = np.repeat(np.arange(len(src)), sizes)
        at = np.arange(len(r)) + np.repeat(first - np.cumsum(sizes) + sizes, sizes)
        i = src[r]
        j = self.keys[at] - i * self.n
        ratios = graph_d[r, j]
        # Every kept pair lies within its source's limit (see the module
        # docstring); a pair beyond it would be inf, and _reduce skips those.
        settled = np.isfinite(ratios)
        if not settled.all():
            ratios, i, j = ratios[settled], i[settled], j[settled]
        ratios /= np.hypot(x[i] - x[j], y[i] - y[j])
        return _merge(best, ratios, i, j), len(ratios)


def _nearest_landmarks(land):
    """The ``_REFINE`` nearest landmarks of each vertex, by stored distance
    and then by landmark index: row 0 is each vertex's nearest landmark.
    """
    m, n = land.shape
    nears = np.empty((min(_REFINE, m), n), dtype=np.intp)
    # Each taken landmark is set to inf in a copy of a slice of columns; a
    # copy of all of land would double its memory.
    for c in range(0, n, 256):
        cols = land[:, c:c + 256].copy()
        each = np.arange(cols.shape[1])
        for row in nears[:, c:c + 256]:
            row[:] = cols.argmin(axis=0)
            cols[row, each] = np.inf
    return nears


def _bound_terms(e, floor):
    """The squared, scaled floor ``cut`` and the range of the pair terms
    that keeps the squared bounds normal; None if the floor or the scale
    leaves no such range.
    """
    cut = np.ldexp(np.square(floor / (1 + _SLACK)), -2 * e)
    # A bound is at least about 2**-2e, since d(s, t) >= |st|.
    if e > 484 or not np.isfinite(cut):
        return None
    # |st| <= d(k, s) + d(k, t) <= num * 2**e up to rounding, so with
    # e <= 484 these two keep |st|**2, num**2 and num**2 / |st|**2 normal.
    shift = max(e, 0)
    return cut, 2.0 ** (2 * shift - 969), 2.0 ** (484 - shift)


def _group_pass(land, near, x, y, cut, lo_sq, hi_num):
    """Chunks of sources and the targets the group test keeps for them.

    The vertices are ordered by (nearest landmark, index), and each group of
    a landmark is cut into chunks of at most ``_block_rows(n)``.  A pair is
    bounded from the chunk of its earlier end, through that chunk's
    landmark k; within one chunk the later end is the larger index.  For
    each chunk, yields k, its sources, the vertices from the chunk on (its
    own sources first), and which of those the group test drops.

    The group test bounds the first-pass bound ``num**2 / sq`` of every
    source s at a target t at once.  ``reach + d(k, t)`` is at least each
    ``num = d(k, s) + d(k, t)``, reach the chunk's largest ``d(k, s)``.  The
    gaps of t to the chunk's bounding box are at most its differences to
    each s, so the squared box distance is at most each ``sq``.  Each term
    is the same float operation as the pair's on larger or smaller
    operands, and float rounding is monotone, so a target whose group bound
    is below cut, with the terms in range, has every pair's bound below cut
    and in range: the per-pair test would drop each pair.
    """
    n = land.shape[1]
    order = np.argsort(near, kind="stable")
    heads = np.flatnonzero(np.diff(near[order])) + 1
    block = _block_rows(n)
    starts = [p for lo, hi in zip([0, *heads], [*heads, n]) for p in range(lo, hi, block)]
    ends = [*starts[1:], n]
    marks = near[order[starts]]
    xs, ys = x[order], y[order]
    x0, x1 = np.minimum.reduceat(xs, starts)[:, None], np.maximum.reduceat(xs, starts)[:, None]
    y0, y1 = np.minimum.reduceat(ys, starts)[:, None], np.maximum.reduceat(ys, starts)[:, None]
    reach = np.maximum.reduceat(land[near[order], order], starts).astype(np.float64)[:, None]
    # Several chunks share one pass over the targets from the first one on.
    c = 0
    while c < len(starts):
        lo = starts[c]
        b = max(1, min(block, _BLOCK_ENTRIES // 4 // (n - lo), len(starts) - c))
        part = slice(c, c + b)
        num = land[marks[part, None], order[lo:]].astype(np.float64)
        num += reach[part]
        gap = xs[lo:] - x1[part]
        np.maximum(gap, x0[part] - xs[lo:], out=gap)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        gy = ys[lo:] - y1[part]
        np.maximum(gy, y0[part] - ys[lo:], out=gy)
        np.maximum(gy, 0.0, out=gy)
        gy *= gy
        gap += gy
        bound = np.multiply(num, num, out=gy)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound /= gap
        far = bound < cut
        far &= gap >= lo_sq
        far &= num <= hi_num
        for r in range(b):
            first, last = starts[c + r], ends[c + r]
            yield marks[c + r], order[first:last], order[first:], far[r, first - lo:]
        c += b


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _first_pass(row, sources, targets, own, x, y, cut, lo_sq, hi_num):
    """The first-pass bounds of the pairs of a chunk's sources with
    targets, through the chunk's landmark, whose row of land is row.

    The first own targets are the chunk's sources, and a source pairs only
    with those after it.  Returns the pairs whose bound reaches cut, as
    ``(s, t, num, sq)``, and those whose terms leave the normal range as a
    (2, k) array, or None if there are none.
    """
    # Row r pairs source r with targets[c]; among the own targets, a pair
    # counts where c > r.
    no_pair = np.tri(own, dtype=bool)
    at_t, at_s = row[targets].astype(np.float64), row[sources].astype(np.float64)
    num = at_t + at_s[:, None]
    sq = np.subtract(x[sources, None], x[targets])
    sq *= sq
    dy = np.subtract(y[sources, None], y[targets])
    dy *= dy
    sq += dy
    sq[:, :own][no_pair] = 1.0
    ub = np.multiply(num, num, out=dy)
    ub /= sq
    ub[:, :own][no_pair] = -np.inf
    hit = np.flatnonzero(ub >= cut)
    wild = None
    # Rounding is monotone, so the largest sum is that of the largest terms.
    if not (sq.min() >= lo_sq and at_t.max() + at_s.max() <= hi_num):
        out = (sq < lo_sq) | (num > hi_num)
        out[:, :own][no_pair] = False
        wr, wc = np.nonzero(out)
        wild = np.stack([sources[wr], targets[wc]])
        hit = hit[~out.ravel()[hit]]
    r, c = np.divmod(hit, len(targets))
    return (sources[r], targets[c], num.ravel().take(hit), sq.ravel().take(hit)), wild


# Squares, bounds and the scaled floor may overflow to inf.  An infinite
# bound keeps its pair, and the range tests keep every pair whose squares
# might leave the normal range, or every pair when the floor might.
@np.errstate(over="ignore")
def _landmark_bounds(land, e, x, y, floor):
    """Per source s < n - 1: the largest bound, the Dijkstra limit and the
    kept pairs.

    land holds the landmark rows, stored scaled by 2**-e and rounded up by
    _round_up.  The bound of a pair is ``(1 + _SLACK) * (d(k, s) + d(k, t))
    / |st|`` for a landmark k.  The first pass takes the landmark of the
    pair's chunk (see _group_pass); the pairs whose bound reaches floor are
    refined over the ``_REFINE`` landmarks nearest to each end, one
    landmark at a time, and dropped as soon as the least sum falls below
    floor.  A kept pair belongs to its smaller index s: the limit of s is
    the largest ``(1 + _SLACK) * (d(k, s) + d(k, t))`` over its kept pairs
    (0 if none), and its top is the largest bound over them, or the largest
    float below floor if that is more (every dropped pair has a computed
    ratio below floor).  The sums are float64 sums of the stored float32
    values, and the scale is folded into the squared floor ``cut`` and into
    the returned top and limit.  The bounds are compared squared, since
    np.hypot costs far more than a product.  A pair whose squares could
    leave the normal float range is kept with an infinite bound and limit,
    so underflow or overflow never prunes one; so is every pair when the
    scaled floor or the scaled bounds could.

    The kept pairs come back as chunks of keys ``s * n + t``, or None when
    they overrun a budget of a quarter of the bytes of land (or
    ``_BLOCK_ENTRIES`` keys, if that is more) or nothing is pruned; the
    bounded rows are then folded whole.  Also returns the counts of pairs
    dropped by the group test, refined and kept after refinement.
    """
    m, n = land.shape
    terms = _bound_terms(e, floor)
    if terms is None:
        return np.full(n - 1, np.inf), np.full(n - 1, np.inf), None, (0, 0, 0)
    cut, lo_sq, hi_num = terms
    nears = _nearest_landmarks(land)
    flat = land.ravel()  # a view: land is C-contiguous
    top_sq, limit = np.zeros(n - 1), np.zeros(n - 1)
    key_type = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    room = max(land.nbytes // 4 // np.dtype(key_type).itemsize, _BLOCK_ENTRIES)
    chunks: list | None = []
    grouped = refined = kept = 0

    def keep(s, t, sums, bound):
        nonlocal room, chunks
        np.maximum.at(limit, s, sums)
        np.maximum.at(top_sq, s, bound)
        if chunks is not None and len(s) <= room:
            chunks.append((s * n + t).astype(key_type))
            room -= len(s)
        else:
            # Past the budget every bounded row is folded whole.
            chunks = None

    def refine(batch):
        nonlocal kept
        s, t, sums, sq = (np.concatenate(part) for part in zip(*batch))
        batch.clear()
        # Every landmark's sum bounds d(s, t) by the same argument, so take
        # the least, rank by rank; the first pass took s's nearest.
        for rank, row in enumerate(offsets):
            for k in [row.take(t)] if rank == 0 else [row.take(s), row.take(t)]:
                np.minimum(sums, np.add(flat.take(k + s), flat.take(k + t), dtype=np.float64),
                           out=sums)
            bound = sums * sums
            bound /= sq
            stay = np.flatnonzero(bound >= cut)
            if len(stay) < len(sums):
                s, t, sums, sq, bound = (a.take(stay) for a in (s, t, sums, sq, bound))
        kept += len(sums)
        keep(np.minimum(s, t), np.maximum(s, t), sums, bound)

    offsets = nears * n  # of the landmarks' rows in flat
    batch, queued = [], 0
    for k, sources, targets, far in _group_pass(land, nears[0], x, y, cut, lo_sq, hi_num):
        grouped += len(sources) * int(np.count_nonzero(far))
        targets = targets[~far]
        # The chunk's own sources lead the targets; slices of about a
        # quarter block bound the working memory.
        step = _BLOCK_ENTRIES // 4 // len(sources)
        for lo in range(0, len(targets), step):
            pairs, wild = _first_pass(land[k], sources, targets[lo:lo + step],
                                      len(sources) if lo == 0 else 0, x, y, cut, lo_sq, hi_num)
            if wild is not None:
                inf = np.full(len(wild[0]), np.inf)
                keep(wild.min(axis=0), wild.max(axis=0), inf, inf)
            refined += len(pairs[0])
            batch.append(pairs)
            queued += len(pairs[0])
            if queued >= _BLOCK_ENTRIES // 4:
                refine(batch)
                queued = 0
    if queued:
        refine(batch)
    top = np.sqrt(top_sq)
    top *= 1 + _SLACK
    limit *= 1 + _SLACK
    top = np.maximum(np.ldexp(top, e), np.nextafter(floor, -np.inf))
    return top, np.ldexp(limit, e), chunks, (grouped, refined, kept)


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
