import dataclasses
import logging
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from delaunay_dilation.constructions import (
    ChewSpec,
    ThreeCircleSpec,
    TwoSemicircleSpec,
    generate_chew,
    generate_three_circle,
    generate_two_semicircle,
)
from delaunay_dilation import dilation as dilation_module
from delaunay_dilation.dilation import (
    _BLOCK_ENTRIES,
    _SLACK,
    DilationReport,
    EuclideanGraph,
    _block_rows,
    _bound_terms,
    _group_pass,
    _landmark_bounds,
    _landmarks,
    _nearest_landmarks,
    _path_length,
    _round_up,
    graph_from_triangulation,
    max_dilation,
    pair_dilation,
    pairs_to_csv,
    report_to_json,
    shortest_path,
)
from delaunay_dilation.experiments import (
    Gaussian,
    Mixture,
    UniformDisk,
    UniformSquare,
    sample,
)
from delaunay_dilation.geom import GeometryError, dist
from delaunay_dilation.triangulation import (
    AllCollinearError,
    PointSet,
    Triangulation,
    delaunay,
)
from oracles import dense_max_dilation, exhaustive_max_dilation

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def square_graph():
    ps = PointSet(SQUARE)
    return graph_from_triangulation(ps, delaunay(ps))


def random_graph(n, seed):
    rng = random.Random(seed)
    ps = PointSet(
        [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
    )
    return graph_from_triangulation(ps, delaunay(ps))


class TestGraphFromTriangulation:
    def test_square_weights(self):
        g = square_graph()
        assert sorted(g.weights) == pytest.approx([1, 1, 1, 1, math.sqrt(2)])
        assert len(g.edges) == 5

    def test_345_triangle(self):
        ps = PointSet([(0, 0), (3, 0), (0, 4)])
        g = graph_from_triangulation(ps, delaunay(ps))
        assert sorted(g.weights) == [3.0, 4.0, 5.0]

    def test_chew16_edge_count(self, chew16):
        g = graph_from_triangulation(chew16.points, chew16.triangulation)
        assert len(g.edges) == 3 * 16 - 16 - 3

    def test_weights_recomputable(self):
        g = random_graph(40, seed=3)
        assert g.weights.tolist() == [dist(g.points[u], g.points[v]) for u, v in g.edges]

    @pytest.mark.parametrize(
        "make",
        [lambda: generate_three_circle(ThreeCircleSpec()), lambda: generate_chew(ChewSpec(512))],
        ids=["three-circle", "chew512"],
    )
    def test_weights_are_math_hypot_bit_for_bit(self, make):
        # np.hypot differs from math.hypot in the last bit on 16 of the 4,341
        # three-circle edges and on 1 of the 1,021 chew 512 edges.
        out = make()
        g = graph_from_triangulation(out.points, out.triangulation)
        pts = out.points.coords.tolist()
        diffs = [(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1]) for u, v in g.edges]
        assert g.weights.tolist() == [math.hypot(dx, dy) for dx, dy in diffs]
        assert g.weights.tolist() != np.hypot(*np.array(diffs).T).tolist()

    @pytest.mark.parametrize("repeat", [(3, 1), (1, 3)])
    def test_repeated_edge_rejected(self, repeat):
        # The sparse matrix summed repeated edges: with (3, 1) repeated this
        # graph reported max dilation 1.0 at (1, 3) instead of sqrt(2) at (0, 1).
        ps = PointSet([(0, 0), (2, 0), (1, 1), (3, 0)])
        edges = ((0, 2), (2, 1), (1, 3))
        with pytest.raises(GeometryError, match="repeated edge"):
            EuclideanGraph(points=ps, edges=edges + (repeat,))
        rep = max_dilation(EuclideanGraph(points=ps, edges=edges))
        assert rep.max_dilation == math.sqrt(2)
        assert rep.witness == (0, 1)


class TestShortestPath:
    def test_same_vertex(self):
        g = square_graph()
        assert shortest_path(g, 2, 2) == (0.0, [2])

    def test_square_two_sides(self):
        g = square_graph()
        length, path = shortest_path(g, 1, 3)
        assert length == 2.0
        assert path == [1, 0, 3]  # lexicographically before [1, 2, 3]

    def test_direct_edge(self):
        ps = PointSet([(0, 0), (3, 0), (0, 4)])
        g = graph_from_triangulation(ps, delaunay(ps))
        length, path = shortest_path(g, 0, 1)
        assert length == 3.0 and path == [0, 1]

    def test_symmetry(self):
        # Reversed traversal sums the same weights in the opposite order, so
        # agreement is up to floating-point accumulation, not bitwise.
        g = random_graph(30, seed=5)
        rng = random.Random(0)
        for _ in range(40):
            u, v = rng.sample(range(30), 2)
            a = shortest_path(g, u, v)[0]
            b = shortest_path(g, v, u)[0]
            assert a == pytest.approx(b, rel=1e-12)

    def test_length_at_least_euclidean(self):
        g = random_graph(25, seed=6)
        for u in range(25):
            for v in range(u + 1, 25):
                length, _ = shortest_path(g, u, v)
                assert length >= dist(g.points[u], g.points[v]) - 1e-12

    def test_disconnected_raises(self):
        ps = PointSet([(0, 0), (1, 0), (0, 1), (5, 5)])
        g = EuclideanGraph(points=ps, edges=((0, 1), (0, 2), (1, 2)))
        with pytest.raises(GeometryError):
            shortest_path(g, 0, 3)


class TestPairDilation:
    def test_adjacent_is_one(self):
        g = square_graph()
        assert pair_dilation(g, 0, 1) == 1.0

    def test_square_diagonal_pair(self):
        g = square_graph()
        assert pair_dilation(g, 1, 3) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_chew_antipodal_closed_form(self):
        from delaunay_dilation.constructions import ChewSpec, generate_chew

        out = generate_chew(ChewSpec(1000))
        g = graph_from_triangulation(out.points, out.triangulation)
        got = pair_dilation(g, out.p, out.q)
        assert got == pytest.approx(500 * math.sin(math.pi / 1000), rel=1e-9)
        assert got == pytest.approx(1.5707938, abs=1e-5)

    def test_coincident_pair_rejected(self):
        g = square_graph()
        with pytest.raises(GeometryError):
            pair_dilation(g, 2, 2)


class TestMaxDilation:
    def test_single_triangle(self):
        ps = PointSet([(0, 0), (3, 0), (0, 4)])
        rep = max_dilation(graph_from_triangulation(ps, delaunay(ps)))
        assert rep.max_dilation == 1.0

    def test_square_witness(self):
        rep = max_dilation(square_graph())
        assert rep.max_dilation == pytest.approx(math.sqrt(2), rel=1e-12)
        assert rep.witness == (1, 3)
        assert rep.witness_path == (1, 0, 3)

    def test_witness_path_consistency(self):
        g = random_graph(60, seed=8)
        rep = max_dilation(g)
        length = sum(
            dist(g.points[a], g.points[b])
            for a, b in zip(rep.witness_path, rep.witness_path[1:])
        )
        expect = rep.max_dilation * dist(g.points[rep.witness[0]], g.points[rep.witness[1]])
        assert abs(length - expect) <= 1e-12 * expect

    def test_matches_exhaustive_enumeration(self):
        for seed in range(40):
            n = random.Random(seed).randrange(4, 9)
            g = random_graph(n, seed=seed)
            rep = max_dilation(g)
            coords = [(p.x, p.y) for p in g.points]
            oracle_val, oracle_wit = exhaustive_max_dilation(coords, g.edges)
            assert rep.max_dilation == oracle_val
            assert rep.witness == oracle_wit

    def test_scale_and_translation_invariance(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randrange(10, 35)
            base = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
            a = rng.choice([-1, 1]) * rng.uniform(0.1, 10)
            b = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            ps = PointSet(base)
            moved = PointSet([(a * x + b[0], a * y + b[1]) for x, y in base])
            d0 = max_dilation(graph_from_triangulation(ps, delaunay(ps))).max_dilation
            d1 = max_dilation(
                graph_from_triangulation(moved, delaunay(moved))
            ).max_dilation
            assert abs(d1 - d0) <= 1e-9 * d0

    def test_pairs_table(self):
        g = square_graph()
        rep = max_dilation(g, include_pairs=True)
        assert len(rep.pairs) == 6
        table = {(i, j): r for i, j, r in rep.pairs}
        assert table[(0, 1)] == 1.0
        assert table[(1, 3)] == rep.max_dilation
        csv = pairs_to_csv(rep)
        assert csv.splitlines()[0] == "i,j,dilation"
        assert len(csv.splitlines()) == 7

    def test_report_json(self):
        rep = max_dilation(square_graph())
        import json

        doc = json.loads(report_to_json(rep))
        assert doc["witness"] == [1, 3]
        assert doc["path"] == [1, 0, 3]

    def test_too_few_vertices(self):
        ps = PointSet([(0, 0)])
        g = EuclideanGraph(points=ps, edges=())
        with pytest.raises(GeometryError):
            max_dilation(g)


def dense_report(g, include_pairs):
    """The report as the original dense reduction produced it."""
    coords = [(p.x, p.y) for p in g.points]
    (wi, wj), pairs = dense_max_dilation(coords, g.edges, include_pairs)
    _, path = shortest_path(g, wi, wj)
    value = _path_length(g.points.coords, path) / dist(g.points[wi], g.points[wj])
    return DilationReport(float(value), (wi, wj), tuple(path), pairs)


def construction_graph(out):
    return graph_from_triangulation(out.points, out.triangulation)


def uniform_graph(n):
    ps = sample(UniformSquare(), n, seed=n)
    return graph_from_triangulation(ps, delaunay(ps))


def shuffled_grid_graph(k):
    ps = PointSet(random.Random(k).sample([(x, y) for x in range(k) for y in range(k)], k * k))
    return graph_from_triangulation(ps, delaunay(ps))


def scaled_graph(g, k):
    """g with every coordinate times 2**k: the same edges, exactly scaled."""
    return EuclideanGraph(PointSet(np.ldexp(g.points.coords, k)), g.edge_array)


class TestStreamedMatchesDense:
    """Streaming over source blocks changes no bit of the report."""

    @pytest.mark.parametrize(
        "build",
        [
            # Chew ladders have exact float ties in the ratio.
            lambda: construction_graph(generate_chew(ChewSpec(16))),
            lambda: construction_graph(generate_chew(ChewSpec(64))),
            lambda: construction_graph(
                generate_three_circle(ThreeCircleSpec(arc_density=30.0))
            ),
            # Sizes around the 256-row block boundary.
            *[lambda n=n: uniform_graph(n) for n in (3, 255, 256, 257, 513)],
            # Blocks hold 64 rows up to n = 1024 and 2**16 // n rows above:
            # 63 at n = 1025, where the 64 landmarks take two blocks.
            *[lambda n=n: uniform_graph(n) for n in (1024, 1025)],
            # Far from 1 the stored rows' scale leaves the normal range of the
            # bounds (2**-520, 2**500) or is folded into them (2**-400, 2**400).
            *[lambda k=k: scaled_graph(uniform_graph(300), k) for k in (-520, -400, 400, 500)],
            # Every ratio is exactly 1.0, so every block ties with the first.
            lambda: EuclideanGraph(
                points=PointSet([(k, 0) for k in range(600)]),
                edges=tuple((k, k + 1) for k in range(599)),
            ),
            # The largest ratio ties over 861 pairs, and the least i among
            # them does not come with the least j.
            lambda: shuffled_grid_graph(30),
        ],
        ids=["chew16", "chew64", "three-circle-30",
             "uniform3", "uniform255", "uniform256", "uniform257", "uniform513",
             "uniform1024", "uniform1025",
             "uniform300x2**-520", "uniform300x2**-400", "uniform300x2**400",
             "uniform300x2**500", "collinear-path-600", "shuffled-grid-30"],
    )
    def test_bit_identical(self, build):
        g = build()
        expect = dense_report(g, include_pairs=True)
        assert max_dilation(g, include_pairs=True) == expect
        assert max_dilation(g) == dataclasses.replace(expect, pairs=None)

    def test_convex_222(self, two_semi_222):
        g = construction_graph(two_semi_222)
        assert max_dilation(g, include_pairs=True) == dense_report(g, True)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_small_connected_graphs_match_exhaustive(self, data):
        coords, g = small_connected_graph(data.draw)
        rep = max_dilation(g, include_pairs=True)
        oracle_val, oracle_wit = exhaustive_max_dilation(coords, g.edges)
        assert rep.max_dilation == oracle_val
        assert rep.witness == oracle_wit
        assert len(rep.pairs) == len(coords) * (len(coords) - 1) // 2


class TestPrunedMatchesOracles:
    """Without the pair table, the landmark bounds prune; no bit may change."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_small_connected_graphs_match_exhaustive(self, data):
        coords, g = small_connected_graph(data.draw)
        rep = max_dilation(g)
        oracle_val, oracle_wit = exhaustive_max_dilation(coords, g.edges)
        assert rep.max_dilation == oracle_val
        assert rep.witness == oracle_wit
        assert rep.pairs is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 400), st.integers(0, 2**32 - 1), st.sampled_from([None, 6, 30]))
    def test_delaunay_graphs_match_dense(self, n, seed, grid):
        # Grid points have many exactly tied ratios; random ones have none.
        rng = random.Random(seed)
        if grid is None:
            coords = [(rng.random(), rng.random()) for _ in range(n)]
        else:
            cells = [(x, y) for x in range(grid) for y in range(grid)]
            coords = [(float(x), float(y)) for x, y in rng.sample(cells, min(n, len(cells)))]
        ps = PointSet(coords)
        try:
            g = graph_from_triangulation(ps, delaunay(ps))
        except AllCollinearError:
            return
        assert max_dilation(g) == dense_report(g, include_pairs=False)

    def test_power_of_two_scale_and_integer_translation(self):
        # Integer coordinates make every difference exact under an integer
        # translation, and a power-of-two scale multiplies every rounded
        # distance, sum and square exactly, so every ratio stays the same.
        # Scales near 2**-540 and 2**480 push squares out of the normal range,
        # and from 2**505 on the squares of the differences overflow.
        rng = random.Random(23)
        for _ in range(6):
            n = rng.randrange(50, 400)
            base = rng.sample([(x, y) for x in range(64) for y in range(64)], n)
            ps = PointSet(base)
            rep = max_dilation(graph_from_triangulation(ps, delaunay(ps)))
            for lo, hi in ((-60, 60), (-560, -520), (470, 490), (505, 521), (1000, 1001)):
                k = rng.randrange(lo, hi)
                tx, ty = rng.randrange(-2**20, 2**20), rng.randrange(-2**20, 2**20)
                moved = PointSet(
                    [(math.ldexp(x + tx, k), math.ldexp(y + ty, k)) for x, y in base]
                )
                got = max_dilation(graph_from_triangulation(moved, delaunay(moved)))
                assert got.max_dilation == rep.max_dilation
                assert got.witness == rep.witness
                assert got.witness_path == rep.witness_path

    def test_pairs_out_of_the_normal_range_match_dense(self, monkeypatch):
        # Two points 1e-150 apart among points of size about 1: a pair's
        # squared distance leaves the normal range of the bounds, so the
        # first pass keeps it with an infinite bound.
        coords = np.vstack([sample(UniformSquare(), 300, 3).coords,
                            [(1e-150, 1e-150), (2e-150, 1e-150)]])
        ps = PointSet(coords)
        g = graph_from_triangulation(ps, delaunay(ps))
        wild = []

        def spy(*args):
            pairs, out = first_pass(*args)
            wild.append(0 if out is None else out.shape[1])
            return pairs, out

        first_pass = dilation_module._first_pass
        monkeypatch.setattr(dilation_module, "_first_pass", spy)
        assert max_dilation(g) == dense_report(g, include_pairs=False)
        assert sum(wild) >= 1

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "build",
        [
            lambda: uniform_graph(4000),
            lambda: construction_graph(
                generate_two_semicircle(TwoSemicircleSpec(d=0.29, alpha=1.0, n_arc=1000))
            ),
            lambda: construction_graph(generate_three_circle(ThreeCircleSpec())),
        ],
        ids=["uniform4000", "convex2000", "three-circle"],
    )
    def test_large_inputs_match_dense(self, build):
        g = build()
        assert max_dilation(g) == dense_report(g, include_pairs=False)

    @pytest.mark.parametrize(
        "shape",
        ["uniform", "grid", "line", "integer-line", "chew64", "convex120",
         "three-circle-20", "mixture"],
    )
    def test_bounds_cover_every_pair_that_reaches_the_floor(self, shape):
        # On a path along a line the landmark bound of a pair with the
        # landmark between its ends is tight: only the slack keeps it.
        g = bound_shape(shape)
        n = len(g.points)
        x, y = g.points.coords.T
        full = dijkstra(g._csr, directed=True)
        e = row_scale(g)
        land = _round_up(full[_landmarks(g.points.coords, n // 16)], e)
        i, j = np.triu_indices(n, k=1)
        ratios = full[i, j] / np.hypot(x[i] - x[j], y[i] - y[j])
        for floor in np.quantile(ratios, [0.0, 0.5, 0.9, 0.99, 1.0], method="lower"):
            top, limit, chunks, (grouped, refined, kept) = _landmark_bounds(
                land, e, x, y, floor
            )
            assert (ratios <= top[i]).all()
            reach = ratios >= floor
            assert (full[i, j][reach] <= limit[i[reach]]).all()
            # Every pair that reaches floor is folded: it is among the kept
            # ones, or there are none and every row folds whole.
            if chunks is not None:
                keys = np.concatenate([np.empty(0, np.int64), *chunks])
                assert np.isin(i * n + j, keys)[reach].all()
            # The refinement takes the least over landmarks that include the
            # first pass's, so it never loosens a bound.  A source with no
            # kept pair gets the largest float below floor.
            near_top, near_limit, near_kept = nearest_landmark_bounds(land, e, x, y, floor)
            assert (top <= np.maximum(near_top, np.nextafter(floor, -np.inf))).all()
            assert (limit <= near_limit).all()
            assert kept <= refined == near_kept
            assert grouped == group_dropped_pairs(land, e, x, y, floor)

    @pytest.mark.parametrize(
        "shape",
        ["uniform", "grid", "line", "integer-line", "chew64", "convex120",
         "three-circle-20", "mixture", "convex600", "uniform1500"],
    )
    def test_group_test_drops_only_pairs_the_first_pass_drops(self, shape):
        # Checked densely: every pair comes from exactly one chunk, and no
        # pair the group test drops has a first-pass bound of cut or more.
        g = bound_shape(shape)
        n = len(g.points)
        x, y = g.points.coords.T
        full = dijkstra(g._csr, directed=True)
        e = row_scale(g)
        land = _round_up(full[_landmarks(g.points.coords, n // 16)], e)
        i, j = np.triu_indices(n, k=1)
        ratios = full[i, j] / np.hypot(x[i] - x[j], y[i] - y[j])
        for floor in np.quantile(ratios, [0.0, 0.5, 0.9, 0.99, 1.0], method="lower"):
            cut, lo_sq, hi_num = _bound_terms(e, floor)
            seen = np.zeros((n, n), dtype=int)
            for k, sources, targets, far in _group_pass(
                land, _nearest_landmarks(land)[0], x, y, cut, lo_sq, hi_num
            ):
                assert len(sources) <= _block_rows(n)
                assert (targets[:len(sources)] == sources).all()
                assert not far[:len(sources)].any()
                s, t = sources[:, None], targets[None, :]
                later = np.arange(len(targets)) >= np.arange(1, len(sources) + 1)[:, None]
                np.add.at(seen, (np.minimum(s, t)[later], np.maximum(s, t)[later]), 1)
                t = targets[far][None, :]
                num = np.add(land[k, s], land[k, t], dtype=np.float64)
                sq = (x[s] - x[t]) ** 2 + (y[s] - y[t]) ** 2
                assert (num * num / sq < cut).all()
                assert (sq >= lo_sq).all() and (num <= hi_num).all()
            assert (seen[i, j] == 1).all() and seen.sum() == len(i)

    def test_debug_line_counts_the_pruning(self, caplog):
        g = uniform_graph(1000)
        with caplog.at_level(logging.DEBUG, logger="delaunay_dilation.dilation"):
            max_dilation(g)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "delaunay_dilation.dilation"]
        assert len(lines) == 1
        m = re.fullmatch(
            r"max_dilation n=1000: (\d+) landmarks, (\d+) sources run, (\d+) skipped, "
            r"(\d+) pairs pruned, (\d+) dropped by groups, (\d+) pairs refined, "
            r"(\d+) kept after refinement, (\d+) nodes settled, "
            r"(\d+) bytes of landmark rows, (\d+\.\d{4}) s landmark rows, "
            r"(\d+\.\d{4}) s bounds, (\d+\.\d{4}) s bounded rows",
            lines[0],
        )
        assert m, lines[0]
        landmarks, run, skipped, pruned, grouped, refined, kept, settled, stored = map(
            int, m.groups()[:9]
        )
        assert landmarks == 1000 // 16
        assert stored == landmarks * 1000 * 4  # float32
        assert 0 < pruned < 1000 * 999 // 2
        assert run + skipped + landmarks == 999  # vertex 999 is never a source
        assert landmarks * 1000 <= settled < 300_000
        assert all(float(t) >= 0 for t in m.groups()[9:])
        # The first pass keeps the pairs whose bound through the landmark of
        # their earlier group reaches the best ratio of the landmark rows,
        # less those the group test drops; refinement drops most of them.
        x, y = g.points.coords.T
        marks = _landmarks(g.points.coords, landmarks)
        land = dijkstra(g._csr, directed=True, indices=marks)
        t = np.arange(1000)
        floor = max(
            (row[t > k] / np.hypot(x[k] - x[t > k], y[k] - y[t > k])).max()
            for k, row in zip(marks, land)
        )
        e = row_scale(g)
        stored_rows = _round_up(land, e)
        assert refined == nearest_landmark_bounds(stored_rows, e, x, y, floor)[2]
        assert 0 < grouped == group_dropped_pairs(stored_rows, e, x, y, floor)
        assert 0 < kept < refined

    def test_debug_line_off_counts_nothing(self, caplog):
        g = uniform_graph(300)
        with caplog.at_level(logging.INFO, logger="delaunay_dilation.dilation"):
            max_dilation(g)
        assert not [r for r in caplog.records if r.name == "delaunay_dilation.dilation"]


class TestKeptPairs:
    """The bounds keep few pairs; the fold gathers just those."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: construction_graph(
                generate_three_circle(ThreeCircleSpec(arc_density=20.0))
            ),
            lambda: construction_graph(
                generate_three_circle(ThreeCircleSpec(arc_density=60.0))
            ),
            lambda: construction_graph(
                generate_two_semicircle(TwoSemicircleSpec(d=0.29, alpha=1.0, n_arc=300))
            ),
            lambda: path_graph(1500),
        ],
        ids=["three-circle-20", "three-circle-60", "convex600", "path1500"],
    )
    def test_bit_identical_to_dense(self, build):
        # The group test drops 8%, 80% and 86% of the pairs of the first
        # three; on the path nearly every pair is kept.
        g = build()
        assert max_dilation(g) == dense_report(g, include_pairs=False)

    def test_path_folds_rows_whole_past_the_budget(self):
        g = path_graph(1500)
        n = len(g.points)
        x, y = g.points.coords.T
        marks = _landmarks(g.points.coords, n // 16)
        full = dijkstra(g._csr, directed=True, indices=marks)
        e = row_scale(g)
        land = _round_up(full, e)
        t = np.arange(n)
        floor = max(
            (row[t > k] / np.hypot(x[k] - x[t > k], y[k] - y[t > k])).max()
            for k, row in zip(marks, full)
        )
        _, _, chunks, (grouped, refined, kept) = _landmark_bounds(land, e, x, y, floor)
        assert kept > 0.9 * n * (n - 1) / 2
        # The budget: a quarter of land's bytes in int32 keys.
        assert kept > max(land.nbytes // 4 // 4, _BLOCK_ENTRIES)
        assert chunks is None


def path_graph(n):
    """A path through n points on a line, in shuffled index order: every
    ratio is within rounding of 1, so the bounds keep nearly every pair."""
    rng = random.Random(n)
    xs = np.cumsum([1 + rng.random() for _ in range(n)]).tolist()
    order = list(range(n))
    rng.shuffle(order)
    coords = [(0.0, 0.0)] * n
    for rank, v in enumerate(order):
        coords[v] = (xs[rank], 0.0)
    return EuclideanGraph(points=PointSet(coords), edges=tuple(zip(order, order[1:])))


def bound_shape(shape):
    """A graph for the bound-cover property, 64 to 300 vertices (600 and
    1500 for the two larger shapes, where the group test drops most pairs
    at the top floor)."""
    rng = random.Random(shape)
    n = 300
    if shape in ("line", "integer-line"):
        xs = rng.sample(range(10**6), n)
        if shape == "line":
            xs = [x * (1 + rng.random()) for x in xs]
        rng.shuffle(xs)
        order = sorted(range(n), key=xs.__getitem__)
        return EuclideanGraph(
            points=PointSet([(float(x), 0.0) for x in xs]),
            edges=tuple(zip(order, order[1:])),
        )
    if shape == "grid":
        ps = PointSet(
            rng.sample([(x, y) for x in range(20) for y in range(20)], n)
        )
        return graph_from_triangulation(ps, delaunay(ps))
    if shape == "chew64":
        return construction_graph(generate_chew(ChewSpec(64)))
    if shape == "convex120":
        return construction_graph(
            generate_two_semicircle(TwoSemicircleSpec(d=0.29, alpha=1.0, n_arc=60))
        )
    if shape == "convex600":
        return construction_graph(
            generate_two_semicircle(TwoSemicircleSpec(d=0.29, alpha=1.0, n_arc=300))
        )
    if shape == "uniform1500":
        return uniform_graph(1500)
    if shape == "three-circle-20":
        return construction_graph(generate_three_circle(ThreeCircleSpec(arc_density=20.0)))
    if shape == "mixture":
        density = Mixture(
            (Gaussian((0.0, 0.0), 0.05), UniformDisk((2.0, 1.0), 0.5), UniformSquare()),
            (0.4, 0.3, 0.3),
        )
        ps = sample(density, n, seed=7)
        return graph_from_triangulation(ps, delaunay(ps))
    return uniform_graph(n)


def row_scale(g):
    """The exponent by which max_dilation scales its stored landmark rows."""
    return math.frexp(g._csr.data.max())[1]


def first_pass_landmarks(land):
    """The landmark through which the first pass bounds each pair (s, t > s).

    Vertices are ordered by (nearest landmark, index), and a pair is bounded
    through the nearest landmark of its end that comes first.
    """
    n = land.shape[1]
    near = land.argmin(axis=0)
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort((np.arange(n), near))] = np.arange(n)
    s, t = np.triu_indices(n, k=1)
    return s, t, near[np.where(rank[s] < rank[t], s, t)]


def nearest_landmark_bounds(land, e, x, y, floor):
    """Top, limit and kept-pair count of the first pass alone.

    land holds the stored rows (``_round_up`` by 2**e).  Dense over all
    pairs, with the float operations of the first pass of
    ``_landmark_bounds`` on the same operands, so the values are
    bit-identical.
    """
    n = land.shape[1]
    s, t, k = first_pass_landmarks(land)
    num = np.add(land[k, t], land[k, s], dtype=np.float64)
    dx, dy = x[s] - x[t], y[s] - y[t]
    ub = num * num / (dx * dx + dy * dy)
    keep = ub >= np.ldexp(np.square(floor / (1 + _SLACK)), -2 * e)
    top = np.full(n - 1, -np.inf)
    np.maximum.at(top, s, ub)
    limit = np.zeros(n - 1)
    np.maximum.at(limit, s[keep], num[keep])
    return (np.ldexp(np.sqrt(top) * (1 + _SLACK), e), np.ldexp(limit * (1 + _SLACK), e),
            int(keep.sum()))


def group_dropped_pairs(land, e, x, y, floor):
    """The number of pairs the group test of ``_group_pass`` drops."""
    return sum(
        len(sources) * int(far.sum())
        for _, sources, _, far in _group_pass(
            land, _nearest_landmarks(land)[0], x, y, *_bound_terms(e, floor)
        )
    )


def small_connected_graph(draw):
    """Points with integer coordinates up to 12 and a random connected graph.

    Integer coordinates keep every distance the same under numpy's and
    math's hypot, so ratio ties are exact on both sides.
    """
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=2, max_size=7, unique=True,
        )
    )
    n = len(coords)
    tree = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    extra = draw(
        st.sets(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
    )
    edges = tuple(sorted(tree | extra))
    if draw(st.booleans()):
        edges = tuple((v, u) for u, v in reversed(edges))
    return coords, EuclideanGraph(points=PointSet(coords), edges=edges)


def test_max_dilation_memory_below_one_dense_matrix():
    n = 2000
    g = uniform_graph(n)
    tracemalloc.start()
    try:
        max_dilation(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def test_max_dilation_memory_below_half_a_dense_matrix():
    # The landmark rows are n * n / 16 float32 entries, a quarter of this.
    n = 4000
    g = uniform_graph(n)
    tracemalloc.start()
    try:
        max_dilation(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n / 2


def test_max_dilation_memory_on_a_path_that_keeps_nearly_every_pair():
    # The bounds keep nearly every pair, so most sources fold their rows
    # whole past the budget of the kept pairs.  Folding every bounded row
    # whole, with _reduce on the landmark rows too, peaked at 0.73 n * n.
    n = 4000
    g = path_graph(n)
    tracemalloc.start()
    try:
        max_dilation(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * n / 8


@pytest.mark.parametrize(
    "shape",
    ["uniform", "grid", "line", "integer-line", "chew64", "convex120",
     "three-circle-20", "mixture", "uniform4000"],
)
def test_landmarks_match_the_einsum_loop(shape):
    coords = (uniform_graph(4000) if shape == "uniform4000" else bound_shape(shape)).points.coords
    n, m = len(coords), len(coords) // 16
    far = np.full(n, np.inf)
    marks = []
    k = 0
    for _ in range(m):
        marks.append(k)
        diff = coords - coords[k]
        np.minimum(far, np.einsum("ij,ij->i", diff, diff), out=far)
        k = int(np.argmax(far))
    assert _landmarks(coords, m).tolist() == marks


FLOAT32_MAX = float(np.finfo(np.float32).max)

row_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.0**-1022),  # float64 subnormals
    st.floats(min_value=2.0**-1010, max_value=2.0**-990),
    st.floats(min_value=2.0**990, max_value=2.0**1010),
    st.floats(min_value=0.0, max_value=FLOAT32_MAX, width=32),  # exact in float32
    st.floats(min_value=0.0, max_value=1e6),
    st.just(math.inf),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(row_values, min_size=1, max_size=30), st.integers(-1073, 1024))
def test_round_up_store(values, e):
    rows = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stored = _round_up(rows, e)
    assert stored.dtype == np.float32 and stored.shape == rows.shape
    for r, v in zip(stored.tolist(), values):
        if math.isinf(v) or math.isinf(r):
            assert r == math.inf
            continue
        assert Fraction(r) * Fraction(2) ** e >= Fraction(v)
        scaled = Fraction(v) / Fraction(2) ** e
        if 2.0**-126 <= scaled <= FLOAT32_MAX:
            # The least float32 at or above the scaled value: one ulp at most.
            below = float(np.nextafter(np.float32(r), np.float32(0)))
            assert Fraction(below) < scaled <= Fraction(r)
