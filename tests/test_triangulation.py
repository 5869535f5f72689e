import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaunay_dilation import triangulation as tri_module
from delaunay_dilation.geom import GeometryError, Sign, dist, incircle
from delaunay_dilation.triangulation import (
    AllCollinearError,
    PointSet,
    RealizationError,
    Triangulation,
    TriangulationStructureError,
    _delaunay_certificate,
    _StabilityTrials,
    _mix_seed,
    _target_arrays,
    convex_hull,
    delaunay,
    is_valid_delaunay,
    make_unique_delaunay,
    perturb,
    points_from_json,
    points_to_json,
    stability_check,
    triangulation_from_json,
    triangulation_to_json,
)
from delaunay_dilation.constructions import (
    ChewSpec,
    ThreeCircleSpec,
    TwoSemicircleSpec,
    generate_chew,
    generate_three_circle,
    generate_two_semicircle,
)
from oracles import (
    chain_convex_hull,
    delaunay_flip_oracle,
    dict_make_unique_delaunay,
    incircle_frac,
    orient_frac,
    perturb_points,
)
from test_builder import BAD_QHULL, three_circle_60

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
GRID4 = [(float(x), float(y)) for x in range(4) for y in range(4)]
# Two points one subnormal apart: a subnormal perturbation can merge them.
MERGEABLE = [(0.0, 0.0), (5e-324, 0.0), (0.0, 1.0)]


def random_points(n, seed, lo=0.0, hi=1.0):
    rng = random.Random(seed)
    return PointSet(
        [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]
    )


class TestPointSet:
    def test_duplicate_rejected(self):
        with pytest.raises(GeometryError):
            PointSet([(0, 0), (1, 1), (0, 0)])

    def test_only_numbers_are_coordinates(self):
        # numpy would read booleans and digit strings as numbers.
        for bad in ([[True, 0.5], [0, 1], [1, 1]], [["1", "0"], [0, 1], [1, 1]],
                    ["12", "34", "56"], np.eye(3, 2, dtype=bool), np.array([["1", "0"]])):
            with pytest.raises(GeometryError, match="booleans and strings"):
                PointSet(bad)
        assert PointSet([[2**70, 0], [0, 1], [1, 1]]).coords[0, 0] == 1.1805916207174113e21
        assert PointSet(PointSet(SQUARE)) == PointSet(np.array(SQUARE))

    def test_subclasses_of_booleans_and_strings_are_not_numbers(self):
        class Text(str):
            pass

        class Raw(bytes):
            pass

        for cell in (np.True_, Text("1"), Raw(b"1"), b"1", np.str_("1"), np.bytes_(b"1")):
            for build in (lambda: PointSet([[0.5, 0.5], [cell, 0], [1, 1]]),
                          lambda: Triangulation([[0, 1, 2], [2, cell, 3]])):
                with pytest.raises(GeometryError, match="booleans and strings"):
                    build()

    def test_json_round_trip_full_precision(self):
        ps = random_points(17, seed=3, lo=-1e3, hi=1e3)
        again = points_from_json(points_to_json(ps))
        assert all(a == b for a, b in zip(ps, again))

    def test_triangulation_json_round_trip(self):
        t = Triangulation([(2, 0, 1), (0, 2, 3)])
        again = triangulation_from_json(triangulation_to_json(t))
        assert again.triangles == t.triangles

    @pytest.mark.parametrize("seed", range(20))
    def test_from_triples_is_the_canonical_triple_loop(self, seed):
        # Small index ranges give repeated indices and repeated triples.  The
        # loop turns each triple so that its first smallest index leads.
        rng = np.random.default_rng(seed)
        tris = rng.integers(-2, 1 + 4 * seed, size=(int(rng.integers(0, 60)), 3))
        loop = tuple(sorted(
            t[t.index(min(t)):] + t[:t.index(min(t))] for t in map(tuple, tris.tolist())
        ))
        for given in (tris, tris.astype(np.uint32) if tris.min(initial=0) >= 0 else tris,
                      tris.tolist(), [tuple(t) for t in tris.tolist()]):
            got = Triangulation(given).triangles
            assert got == loop
            assert all(type(i) is int for t in got for i in t)

    def test_from_triples_reads_other_input_with_int(self):
        assert Triangulation([]).triangles == ()
        assert Triangulation(np.zeros((0, 3), dtype=np.int64)).triangles == ()
        floats = Triangulation([[2.0, 0.0, 1.0], [3, 1.0, 0]])
        assert floats.triangles == ((0, 1, 2), (0, 3, 1))
        assert Triangulation(t for t in [(1, 2, 0)]).triangles == ((0, 1, 2),)
        # An int64 array holds the triples, so a larger index is refused.
        for bad in ([[1, 2]], [[1, 2, 3, 4]], [[1, 2, 3], [4, 5]], [[1, 2, 3, 4, 5, 6]],
                    [(2**70, 1, 2)], [(2**63, 1, 2)], [[0, 1, 2.5]], [[0, 1, None]], 3,
                    [[0, True, 2]], [["0", "1", "2"]], np.ones((1, 3), dtype=bool)):
            with pytest.raises(ValueError):
                Triangulation(bad)

    @pytest.mark.parametrize("seed", range(10))
    def test_duplicates_and_edges_match_the_loops(self, seed):
        # The dict and set loops that the array code replaced.
        rng = np.random.default_rng(seed)
        coords = rng.integers(0, 4, size=(int(rng.integers(2, 12)), 2)).astype(float).tolist()
        seen, dup = {}, None
        for i, key in enumerate(map(tuple, coords)):
            if key in seen and dup is None:
                dup = f"duplicate point at indices {seen[key]} and {i}$"
            seen.setdefault(key, i)
        if dup is None:
            assert PointSet(coords).coords.tolist() == coords
        else:
            with pytest.raises(GeometryError, match=dup):
                PointSet(coords)
        tris = rng.integers(0, 6, size=(int(rng.integers(0, 8)), 3)).tolist()
        loop = {tuple(sorted(e)) for a, b, c in tris for e in ((a, b), (b, c), (c, a))}
        assert Triangulation(tris).edges == tuple(sorted(loop))

    def test_signed_zeros_are_one_point(self):
        with pytest.raises(GeometryError, match="duplicate point at indices 0 and 1"):
            PointSet([(0.0, 1.0), (-0.0, 1.0)])

    def test_every_triangulation_is_canonical(self):
        t = Triangulation([(0, 2, 3), (1, 2, 0)])
        assert t.triangles == ((0, 1, 2), (0, 2, 3))
        assert not t.array.flags.writeable
        assert t == Triangulation(t.triangles[::-1])


class TestDelaunay:
    def test_square_tie_break_uses_smallest_triple(self):
        ps = PointSet(SQUARE)
        t = delaunay(ps)
        assert t.triangles == ((0, 1, 2), (0, 2, 3))
        assert len(t.edges) == 5

    def test_three_points(self):
        ps = PointSet([(0, 0), (3, 0), (0, 4)])
        t = delaunay(ps)
        assert t.triangles == ((0, 1, 2),)

    def test_all_collinear_raises(self):
        with pytest.raises(AllCollinearError):
            delaunay(PointSet([(0, 0), (1, 1), (2, 2), (3, 3)]))

    def test_matches_flip_oracle_seed42(self):
        ps = random_points(100, seed=42)
        got = delaunay(ps).triangle_set()
        coords = [(p.x, p.y) for p in ps]
        assert got == delaunay_flip_oracle(coords)

    @pytest.mark.parametrize("seed", [1, 7, 19, 55])
    @pytest.mark.parametrize("n", [10, 40])
    def test_matches_flip_oracle_various(self, n, seed):
        ps = random_points(n, seed=seed)
        coords = [(p.x, p.y) for p in ps]
        assert delaunay(ps).triangle_set() == delaunay_flip_oracle(coords)

    def test_collinear_plus_apex(self):
        # Collinear points on the hull boundary must survive.
        ps = PointSet([(0, 0), (1, 0), (2, 0), (3, 0), (1.5, 2.0)])
        t = delaunay(ps)
        rep = is_valid_delaunay(ps, t, 0.0)
        assert rep.valid
        assert len(t.triangles) == 3

    def test_grid_with_ties_valid(self):
        ps = PointSet([(x, y) for x in range(4) for y in range(4)])
        t = delaunay(ps)
        assert is_valid_delaunay(ps, t, 0.0).valid

    def test_deterministic(self):
        ps = random_points(60, seed=5)
        assert delaunay(ps).triangles == delaunay(ps).triangles

    def test_valid_for_random_sets(self):
        for seed in range(60):
            ps = random_points(random.Random(seed).randrange(5, 30), seed=seed)
            assert is_valid_delaunay(ps, delaunay(ps), 0.0).valid

    @pytest.mark.slow
    def test_valid_for_1000_random_sets(self):
        for seed in range(1000):
            n = random.Random(seed).randrange(5, 16)
            ps = random_points(n, seed=seed)
            assert is_valid_delaunay(ps, delaunay(ps), 0.0).valid


class TestEulerRelation:
    @given(st.integers(min_value=0, max_value=10_000), st.integers(4, 60))
    @settings(max_examples=60, deadline=None)
    def test_euler_counts(self, seed, n):
        ps = random_points(n, seed=seed)
        t = delaunay(ps)
        hull = convex_hull(ps)
        h = len(hull)
        assert len(t.triangles) == 2 * n - h - 2
        assert len(t.edges) == 3 * n - h - 3


class TestValidity:
    def test_square_either_diagonal_valid(self):
        ps = PointSet(SQUARE)
        for tris in [[(0, 1, 2), (0, 2, 3)], [(0, 1, 3), (1, 2, 3)]]:
            rep = is_valid_delaunay(ps, Triangulation(tris), 0.0)
            assert rep.valid

    def test_illegal_diagonal_reports_violations(self):
        # Convex quad with a uniquely legal diagonal; choose the other one.
        ps = PointSet([(0, 0), (1, 0), (1.05, 1.05), (0, 1)])
        bad = Triangulation([(0, 1, 2), (0, 2, 3)])
        rep = is_valid_delaunay(ps, bad, 0.0)
        assert not rep.valid
        assert len(rep.violations) == 2  # both triangles see the opposite point
        offenders = {v[1] for v in rep.violations}
        assert offenders == {1, 3}
        assert all(v[2] > 0 for v in rep.violations)

    def test_delaunay_output_valid(self):
        ps = random_points(80, seed=2)
        assert is_valid_delaunay(ps, delaunay(ps), 0.0).valid

    def test_structural_error_distinct_from_invalid(self):
        ps = PointSet(SQUARE)
        overlapping = Triangulation([(0, 1, 2), (0, 1, 3)])
        with pytest.raises(TriangulationStructureError):
            is_valid_delaunay(ps, overlapping, 0.0)

    def test_bad_index_is_structural(self):
        ps = PointSet(SQUARE)
        with pytest.raises(TriangulationStructureError):
            is_valid_delaunay(ps, Triangulation([(0, 1, 9)]), 0.0)

    def test_unused_point_is_structural(self):
        ps = PointSet(SQUARE + [(0.5, 0.5)])
        with pytest.raises(TriangulationStructureError):
            is_valid_delaunay(
                ps, Triangulation([(0, 1, 2), (0, 2, 3)]), 0.0
            )

    def test_degenerate_triangle_is_structural(self):
        ps = PointSet([(0, 0), (1, 1), (2, 2), (0, 1)])
        with pytest.raises(TriangulationStructureError):
            is_valid_delaunay(
                ps, Triangulation([(0, 1, 2), (0, 1, 3)]), 0.0
            )

    def test_eps_tolerance_masks_tiny_violation(self):
        # Nudge one square corner so one diagonal is barely illegal.
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0 + 1e-12, 1.0), (0.0, 1.0)]
        ps = PointSet(pts)
        tri = Triangulation([(0, 1, 2), (0, 2, 3)])
        strict = is_valid_delaunay(ps, tri, 0.0)
        loose = is_valid_delaunay(ps, tri, 1e-6)
        assert not strict.valid
        assert loose.valid


class TestPerturb:
    def test_zero_delta_identity(self):
        ps = PointSet(SQUARE)
        assert all(a == b for a, b in zip(ps, perturb(ps, 0.0, seed=1)))

    def test_same_seed_identical(self):
        ps = random_points(30, seed=9)
        a = perturb(ps, 1e-3, seed=4)
        b = perturb(ps, 1e-3, seed=4)
        assert all(p == q for p, q in zip(a, b))

    @given(st.integers(0, 10_000), st.floats(1e-12, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_never_moves_farther_than_delta(self, seed, delta):
        ps = random_points(20, seed=seed)
        moved = perturb(ps, delta, seed=seed)
        for p, q in zip(ps, moved):
            assert dist(p, q) <= delta

    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3])
    def test_matches_the_point_loop_bit_for_bit(self, delta):
        ps = random_points(50, seed=31, lo=-1e3, hi=1e3)
        for seed in (0, 1, 7, 2024, 2**32 - 1):
            got = [(p.x.hex(), p.y.hex()) for p in perturb(ps, delta, seed)]
            want = [(p.x.hex(), p.y.hex()) for p in perturb_points(ps, delta, seed)]
            assert got == want

    def test_degenerate_draws_raise_like_the_point_loop(self):
        ps = PointSet(MERGEABLE)
        merged = 0
        for seed in range(50):
            try:
                perturb_points(ps, 5e-324, seed)
            except GeometryError:
                merged += 1
                with pytest.raises(GeometryError, match="duplicate point"):
                    perturb(ps, 5e-324, seed)
            else:
                perturb(ps, 5e-324, seed)
        assert merged
        for run in (perturb, perturb_points):
            with pytest.raises(GeometryError, match="non-finite"):
                run(ps, math.inf, 0)
        huge = PointSet([(1.5e308, 1.5e308), (-1.5e308, 0.0)])
        overflowed = 0
        for seed in range(20):
            try:
                perturb_points(huge, 1e308, seed)
            except GeometryError:
                overflowed += 1
                with pytest.raises(GeometryError, match="non-finite"):
                    perturb(huge, 1e308, seed)
            else:
                perturb(huge, 1e308, seed)
        assert 0 < overflowed < 20

    def test_square_perturbation_has_unique_diagonal(self):
        ps = perturb(PointSet(SQUARE), 1e-9, seed=1)
        pts = list(ps)
        inside1 = incircle(pts[0], pts[1], pts[2], pts[3])
        inside2 = incircle(pts[0], pts[1], pts[3], pts[2])
        assert Sign.ZERO not in (inside1, inside2)
        assert {inside1, inside2} == {Sign.POSITIVE, Sign.NEGATIVE}


class TestStability:
    def test_cocircular_square_unstable(self):
        ps = PointSet(SQUARE)
        assert stability_check(ps, delaunay(ps), 0.1, trials=5, seed=0) is False

    def test_single_triangle_stable(self):
        ps = PointSet([(0, 0), (3, 0), (0, 4)])
        t = delaunay(ps)
        delta = 0.01 * 3.0
        assert stability_check(ps, t, delta, trials=100, seed=0) is True

    def test_hexagon_stable_at_searched_delta(self):
        pts = [
            (math.cos(k * math.pi / 3 + 0.1 * k * k % 0.3), math.sin(k * math.pi / 3))
            for k in range(6)
        ]
        ps = PointSet(pts)
        t = delaunay(ps)
        delta = 0.5
        for _ in range(40):
            if stability_check(ps, t, delta, trials=100, seed=1):
                break
            delta /= 2.0
        else:
            pytest.fail("no stable delta found")
        assert stability_check(ps, t, delta, trials=100, seed=1)

    @pytest.mark.parametrize("kind", ["cw", "drop", "unused"])
    def test_cw_or_non_tiling_target_is_unstable(self, kind):
        ps = random_points(30, seed=8)
        tris = list(delaunay(ps).triangles)
        a, b, c = tris[5]
        if kind == "cw":
            tris[5] = (a, c, b)
        elif kind == "drop":
            del tris[5]
        elif kind == "unused":
            # The Delaunay triangulation of the others, with an inner point left out.
            inner = next(i for i in range(len(ps)) if i not in convex_hull(ps))
            keep = [i for i in range(len(ps)) if i != inner]
            rest = delaunay(PointSet(tuple(ps[i] for i in keep)))
            tris = [tuple(keep[i] for i in tri) for tri in rest.triangles]
        t = Triangulation(tris)
        assert _delaunay_certificate(ps.coords, _target_arrays(t, len(ps))) == (-1, False)
        assert stability_check(ps, t, 1e-9, trials=5, seed=0) is False

    def test_merged_trial_raises_like_perturb(self):
        ps = PointSet(MERGEABLE)
        t = delaunay(ps)
        seeds = []
        for seed in range(100):
            try:
                perturb_points(ps, 5e-324, _mix_seed(seed, 0))
            except GeometryError:
                seeds.append(seed)
        assert seeds
        for seed in seeds:
            with pytest.raises(GeometryError, match="duplicate point"):
                stability_check(ps, t, 5e-324, trials=1, seed=seed)

    def test_failure_monotone_in_delta(self):
        # If a radius flips the triangulation, twice that radius should too
        # (statistically; allow 5% exceptions).
        checked = failures_consistent = 0
        for seed in range(40):
            ps = random_points(10, seed=seed)
            t = delaunay(ps)
            coords = ps.coords
            d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
            np.fill_diagonal(d2, np.inf)
            delta = 0.4 * math.sqrt(float(d2.min()))
            if stability_check(ps, t, delta, trials=5, seed=seed):
                continue
            checked += 1
            if not stability_check(ps, t, 2 * delta, trials=5, seed=seed):
                failures_consistent += 1
        assert checked >= 10
        assert failures_consistent >= 0.95 * checked


FLIPPED = {
    "chew64": lambda: generate_chew(ChewSpec(64)),
    "convex32": lambda: generate_two_semicircle(TwoSemicircleSpec(n_arc=32)),
    "three-circle60": lambda: generate_three_circle(ThreeCircleSpec(arc_density=60.0)),
}


def _flipped(out, k, seed):
    """out's triangulation with k interior edges flipped, on disjoint
    triangle pairs whose new triangles are both strictly ccw."""
    coords = out.points.coords.tolist()
    tris = [list(t) for t in out.triangulation.triangles]
    edges = interior_edges(tris)
    random.Random(seed).shuffle(edges)
    used = set()
    for (i, j), (u, v, w1, w2) in edges:
        if len(used) == 2 * k:
            break
        if i in used or j in used:
            continue
        if orient_frac(coords[u], coords[w2], coords[w1]) > 0 and orient_frac(coords[v], coords[w1], coords[w2]) > 0:
            tris[i], tris[j] = [u, w2, w1], [v, w1, w2]
            used |= {i, j}
    assert len(used) == 2 * k
    return Triangulation(tris)


def _realized_or_refused(ps, target, budget) -> bool:
    """Whether make_unique_delaunay realised target within budget; it may
    refuse, but not warn or return anything else."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            moved = make_unique_delaunay(ps, target, budget)
        except RealizationError:
            return False
    assert delaunay(moved) == target
    assert max(map(math.hypot, *(moved.coords - ps.coords).T.tolist())) <= budget
    return True


class TestMakeUnique:
    def test_square_other_diagonal(self):
        ps = PointSet(SQUARE)
        target = Triangulation([(0, 1, 3), (1, 2, 3)])
        moved = make_unique_delaunay(ps, target, budget=1e-6)
        assert delaunay(moved).triangles == target.triangles
        assert max(dist(p, q) for p, q in zip(ps, moved)) <= 1e-6

    def test_square_default_diagonal_made_unique(self):
        # Even when the builder's tie-break already picks the target, the
        # cocircular square must come back perturbed so the choice is forced.
        ps = PointSet(SQUARE)
        target = Triangulation([(0, 1, 2), (0, 2, 3)])
        assert _delaunay_certificate(ps.coords, _target_arrays(target, 4)) == (0, True)
        moved = make_unique_delaunay(ps, target, budget=1e-6)
        assert moved is not ps
        assert delaunay(moved).triangles == target.triangles
        assert _delaunay_certificate(moved.coords, _target_arrays(target, 4)) == (1, False)

    def test_already_unique_returned_unchanged(self):
        ps = random_points(25, seed=14)
        t = delaunay(ps)
        assert make_unique_delaunay(ps, t, budget=1e-6) is ps

    def test_chew_ladder_realized(self, chew16):
        moved = make_unique_delaunay(
            chew16.points, chew16.triangulation, budget=1e-6
        )
        assert delaunay(moved).triangles == chew16.triangulation.triangles

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_near_cocircular_targets_realized_or_refused(self, data):
        # Grid subsets have exactly cocircular quads, whose diagonal is a free
        # choice; points on a circle have quads that miss cocircularity by a
        # rounding error, so flipping one makes a target that may be out of
        # reach.  Either way the result is the target, strictly Delaunay, or
        # RealizationError.
        coords = data.draw(near_cocircular_coords())
        ps = PointSet(coords)
        try:
            target = delaunay(ps)
        except AllCollinearError:
            return
        tris = [list(t) for t in target.triangles]
        for _ in range(data.draw(st.integers(0, 4))):
            quads = flippable_quads(coords, tris)
            if not quads:
                break
            (i, j), (u, v, w1, w2) = data.draw(st.sampled_from(quads))
            tris[i], tris[j] = [u, w2, w1], [v, w1, w2]
        target = Triangulation(tris)
        try:
            moved = make_unique_delaunay(ps, target, budget=1e-6)
        except RealizationError:
            return
        if moved is not ps:
            want = dict_make_unique_delaunay(ps, target, budget=1e-6)
            assert moved.coords.tobytes() == want.coords.tobytes()
        assert delaunay(moved).triangles == target.triangles
        assert max(dist(p, q) for p, q in zip(ps, moved)) <= 1e-6
        pts = [(p.x, p.y) for p in moved]
        for _, (u, v, w1, w2) in interior_edges(target.triangles):
            assert incircle_frac(pts[u], pts[v], pts[w1], pts[w2]) < 0

    def test_float_flat_sliver_is_refused_or_realized(self):
        # u(1) and u(6) point opposite ways, so triangles (0, 1, 3) and
        # (1, 4, 3) lie on one line up to rounding: their exact orientation
        # is not 0, but their float circles are not finite.  They must join
        # no cocircular cluster, and nothing may warn.
        u = [(math.cos(2 * math.pi * s / 10), math.sin(2 * math.pi * s / 10)) for s in (1, 6, 0)]
        ps = PointSet(u + [(0.5 * x, 0.5 * y) for x, y in u])
        target = Triangulation(
            [(0, 1, 3), (0, 3, 2), (1, 2, 4), (1, 4, 3), (2, 3, 5), (2, 5, 4), (3, 4, 5)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                moved = make_unique_delaunay(ps, target, budget=1e-6)
            except RealizationError:
                return
        assert delaunay(moved) == target

    @pytest.mark.parametrize(
        "build",
        [
            lambda: generate_chew(ChewSpec(64)),
            lambda: generate_chew(ChewSpec(512)),
            lambda: generate_two_semicircle(TwoSemicircleSpec(n_arc=32)),
            lambda: generate_two_semicircle(TwoSemicircleSpec(n_arc=111)),
            lambda: generate_three_circle(ThreeCircleSpec(arc_density=60.0)),
            lambda: generate_three_circle(ThreeCircleSpec()),
        ],
        ids=["chew64", "chew512", "convex32", "convex111", "three-circle60", "three-circle260"],
    )
    def test_realised_points_match_the_dict_solver(self, build):
        out = build()
        got = make_unique_delaunay(out.points, out.triangulation, budget=1e-6)
        want = dict_make_unique_delaunay(out.points, out.triangulation, budget=1e-6)
        assert got is not out.points
        assert got.coords.tobytes() == want.coords.tobytes()

    def test_turned_row_is_refused(self):
        # The structure check turns the cw row back, but the certificate
        # reads the target as given, so no move realises it.
        out = generate_two_semicircle(TwoSemicircleSpec(n_arc=32))
        tris = out.triangulation.array.tolist()
        tris[7] = tris[7][::-1]
        with pytest.raises(RealizationError):
            make_unique_delaunay(out.points, Triangulation(tris), budget=1e-6)

    @pytest.mark.parametrize("build", list(FLIPPED), ids=list(FLIPPED))
    def test_flipped_constructions_realized_or_refused(self, build):
        # Targets k = 1, 5 and 20 flips away from the emitted triangulation,
        # 4 seeds each.  Realised: chew 64 and three-circle 12 of 12 cases,
        # convex 6 of 12 (every k = 20 case is refused).
        out = FLIPPED[build]()
        realised = 0
        for seed in range(4):
            for k in (1, 5, 20):
                target = _flipped(out, k, seed)
                realised += _realized_or_refused(out.points, target, 1e-6)
        assert realised >= 6

    @pytest.mark.parametrize("budget", [1e-17, 1e-300, 5e-324])
    @pytest.mark.parametrize("build", list(FLIPPED), ids=list(FLIPPED))
    def test_budget_below_rounding(self, build, budget):
        # Moves this small round away, so every construction is refused.
        out = FLIPPED[build]()
        assert not _realized_or_refused(out.points, out.triangulation, budget)

    def test_impossible_target_raises(self):
        # Non-Delaunay diagonal of a quad with no cocircular freedom.
        ps = PointSet([(0, 0), (1, 0), (1.05, 1.05), (0, 1)])
        bad = Triangulation([(0, 1, 2), (0, 2, 3)])
        with pytest.raises(RealizationError):
            make_unique_delaunay(ps, bad, budget=1e-9)


class TestOneFramePerCheck:
    """Each check builds the half-edges of its triangulation once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = tri_module._edge_quads

        def counting(tris):
            calls.append(len(tris))
            return original(tris)

        monkeypatch.setattr(tri_module, "_edge_quads", counting)
        return calls

    def test_validity(self, builds):
        ps = random_points(200, seed=3)
        t = delaunay(ps)
        builds.clear()
        assert is_valid_delaunay(ps, t).valid
        assert builds == [len(t)]

    def test_stability_trials(self, builds):
        ps = random_points(200, seed=3)
        t = delaunay(ps)
        builds.clear()
        trials = _StabilityTrials(ps, t)
        assert builds == [len(t)]
        assert trials.stable(1e-12, trials=5, seed=0)
        assert trials.rebuilt == 0 and builds == [len(t)]

    @pytest.mark.parametrize("kind", ["unique", "three-circle60"])
    def test_certified_make_unique(self, kind, builds):
        # Unique: the certificate returns ps at once.  Three-circle: it
        # refuses the emitted points and accepts the first moved ones.
        if kind == "unique":
            ps = random_points(200, seed=3)
            t = delaunay(ps)
        else:
            out = FLIPPED["three-circle60"]()
            ps, t = out.points, out.triangulation
        builds.clear()
        moved = make_unique_delaunay(ps, t, budget=1e-6)
        assert (moved is ps) == (kind == "unique")
        assert builds == [len(t)]


class TestDelaunayCertificate:
    @pytest.mark.parametrize(
        "coords, tied",
        [(SQUARE, True), (GRID4, True), ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)], False)],
        ids=["square", "grid4", "collinear-hull"],
    )
    def test_exact_zero_is_undecided(self, coords, tied):
        # The collinear hull leaves the verdict open with no tied edge.
        ps = PointSet(coords)
        target = _target_arrays(delaunay(ps), len(ps))
        assert _delaunay_certificate(ps.coords, target) == (0, tied)

    @pytest.mark.parametrize("reason", list(BAD_QHULL))
    def test_non_tilings_are_refused(self, reason):
        # Among them a pentagram fan: ccw triangles, left turns, winding twice.
        points, simplices = BAD_QHULL[reason]
        ps = PointSet(points)
        t = Triangulation(simplices)
        assert _delaunay_certificate(ps.coords, _target_arrays(t, len(ps))) == (-1, False)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_the_rebuild(self, data):
        # Whenever the certificate decides, delaunay of the moved points
        # returns the target exactly if and only if the verdict is +1.
        coords = data.draw(certificate_inputs())
        ps = PointSet(coords)
        try:
            tris = [list(t) for t in delaunay(ps).triangles]
        except AllCollinearError:
            return
        kind = data.draw(st.sampled_from(["delaunay", "flip", "cw"]))
        if kind == "flip":
            quads = [
                (ij, (u, v, w1, w2))
                for ij, (u, v, w1, w2) in interior_edges(tris)
                if orient_frac(coords[u], coords[w2], coords[w1]) > 0
                and orient_frac(coords[v], coords[w1], coords[w2]) > 0
            ]
            if quads:
                (i, j), (u, v, w1, w2) = data.draw(st.sampled_from(quads))
                tris[i], tris[j] = [u, w2, w1], [v, w1, w2]
        elif kind == "cw":
            k = data.draw(st.integers(0, len(tris) - 1))
            tris[k] = tris[k][::-1]
        target = Triangulation(tris)
        span = float(np.ptp(ps.coords, axis=0).max())
        rel = data.draw(st.sampled_from([0.0] + [10.0**-k for k in range(1, 15)]))
        moved = perturb(ps, rel * span, seed=data.draw(st.integers(0, 2**32 - 1)))
        verdict, _ = _delaunay_certificate(moved.coords, _target_arrays(target, len(ps)))
        # A large move can turn the reversed row ccw again (see
        # test_a_large_move_can_turn_a_reversed_row_ccw); flat or cw, it
        # rules the target out.
        if kind == "cw" and orient_frac(*(tuple(moved.coords[v]) for v in tris[k])) <= 0:
            assert verdict == -1
        if verdict:
            try:
                rebuilt = delaunay(moved).triangles
            except GeometryError:
                rebuilt = None
            assert (verdict > 0) == (rebuilt == target.triangles)

    def test_a_large_move_can_turn_a_reversed_row_ccw(self):
        # Three random points with their one triangle reversed, moved by a
        # tenth of their span: the reversed row is ccw in the moved points,
        # and the certificate and the rebuild both accept it.
        coords = [tuple(p) for p in np.random.default_rng(10).random((3, 2)).tolist()]
        ps = PointSet(coords)
        target = Triangulation([list(t)[::-1] for t in delaunay(ps).triangles])
        span = float(np.ptp(ps.coords, axis=0).max())
        moved = perturb(ps, 0.1 * span, seed=1)
        (row,) = target.triangles
        assert orient_frac(*(tuple(moved.coords[v]) for v in row)) > 0
        verdict, _ = _delaunay_certificate(moved.coords, _target_arrays(target, len(ps)))
        assert verdict == 1
        assert delaunay(moved).triangles == target.triangles


@st.composite
def certificate_inputs(draw):
    """Random points, a near-cocircular set, or the three-circle set at arc
    density 60."""
    kind = draw(st.sampled_from(["random", "near-cocircular", "three-circle60"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return [tuple(p) for p in rng.random((draw(st.integers(3, 40)), 2)).tolist()]
    if kind == "three-circle60":
        return [(p.x, p.y) for p in three_circle_60()]
    return draw(near_cocircular_coords())


@st.composite
def near_cocircular_coords(draw):
    """A subset of a small integer grid, or points on one or two circles."""
    if draw(st.booleans()):
        k = draw(st.integers(3, 5))
        cells = [(x, y) for x in range(k) for y in range(k)]
        return draw(
            st.lists(st.sampled_from(cells), min_size=4, max_size=12, unique=True)
        )
    m = draw(st.integers(4, 12))
    radius = draw(st.sampled_from([1.0, 3.0, 1e-3, 1e3]))
    cx, cy = draw(st.sampled_from([(0.0, 0.0), (0.5, -2.0), (1e3, 7.0)]))
    steps = draw(st.lists(st.integers(0, m - 1), min_size=3, max_size=m, unique=True))
    rim = [
        (radius * math.cos(2 * math.pi * s / m), radius * math.sin(2 * math.pi * s / m))
        for s in steps
    ]
    extra = draw(st.sampled_from(["none", "centre", "inner"]))
    if extra == "centre":
        rim.append((0.0, 0.0))
    elif extra == "inner":
        rim += [(0.5 * x, 0.5 * y) for x, y in rim]
    return list(dict.fromkeys((cx + x, cy + y) for x, y in rim))


def interior_edges(triangles):
    """((i, j), (u, v, w1, w2)) per edge u-v of ccw triangles i = (u, v, w1)
    and j = (v, u, w2)."""
    third = {}
    for i, (a, b, c) in enumerate(triangles):
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            third[u, v] = (i, w)
    return [
        ((i, third[v, u][0]), (u, v, w1, third[v, u][1]))
        for (u, v), (i, w1) in third.items()
        if u < v and (v, u) in third
    ]


def flippable_quads(coords, triangles):
    """Interior edges whose quad is strictly convex and cocircular to within
    a relative 1e-9 in floats (exactly cocircular on grid points)."""
    out = []
    for ij, (u, v, w1, w2) in interior_edges(triangles):
        a, b, c, d = (coords[k] for k in (u, v, w1, w2))
        if orient_frac(a, d, c) <= 0 or orient_frac(b, c, d) <= 0:
            continue
        pts = np.array([a, b, c, d], dtype=float)
        rel = pts - pts[3]
        lift = (rel * rel).sum(axis=1)
        det = np.linalg.det(np.column_stack([rel[:3], lift[:3]]))
        scale = float(np.abs(rel[:3]).max()) ** 4 or 1.0
        if abs(det) <= 1e-9 * scale:
            out.append((ij, (u, v, w1, w2)))
    return out


class TestConvexHull:
    def test_square_hull(self):
        ps = PointSet(SQUARE)
        assert sorted(convex_hull(ps)) == [0, 1, 2, 3]

    def test_collinear_boundary_points_kept(self):
        ps = PointSet([(0, 0), (1, 0), (2, 0), (1, 1)])
        assert sorted(convex_hull(ps, keep_collinear=True)) == [0, 1, 2, 3]
        assert sorted(convex_hull(ps, keep_collinear=False)) == [0, 2, 3]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_monotone_chain(self, data):
        # Random sets; subsets of a small grid, whose hulls have collinear
        # runs; and points on one line, vertical ones included, at integer
        # steps so that they are exactly collinear.
        kind = data.draw(st.sampled_from(["random", "grid", "collinear"]))
        n = data.draw(st.integers(1, 30))
        if kind == "random":
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            pts = rng.random((n, 2)).tolist()
        elif kind == "grid":
            cells = st.tuples(st.integers(0, 4), st.integers(0, 4))
            pts = data.draw(st.lists(cells, min_size=1, max_size=n, unique=True))
        else:
            dx, dy = data.draw(
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0))
            )
            steps = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=n, unique=True))
            pts = [(0.5 + s * dx, -1.0 + s * dy) for s in steps]
        ps = PointSet(pts)
        for keep in (True, False):
            assert convex_hull(ps, keep_collinear=keep) == chain_convex_hull(ps, keep_collinear=keep)
