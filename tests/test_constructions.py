import hashlib
import math

import pytest

from delaunay_dilation.constructions import (
    ChewSpec,
    ShieldPlacementError,
    SparseSamplingError,
    ThreeCircleSpec,
    TwoSemicircleSpec,
    arc_beats_detour,
    balance_alpha,
    closed_form_t,
    generate_chew,
    generate_three_circle,
    generate_two_semicircle,
    path_lengths_limit,
    shield_position,
    sweep_d,
)
from delaunay_dilation.dilation import graph_from_triangulation, max_dilation
from delaunay_dilation.geom import Circle, GeometryError, Point2, dist
from delaunay_dilation.triangulation import is_valid_delaunay, make_unique_delaunay, delaunay

HALF_PI = math.pi / 2.0


def computed_dilation(out):
    g = graph_from_triangulation(out.points, out.triangulation)
    return max_dilation(g)


class TestArcBeatsDetour:
    def test_zero_arc(self):
        assert arc_beats_detour(0.0, 1.0) is True

    def test_diameter_boundary_equality_fails_strictly(self):
        # At theta = pi the threshold is exactly 1 + pi/2.
        assert arc_beats_detour(1.0 + HALF_PI, math.pi) is False

    def test_unit_angles(self):
        assert arc_beats_detour(1.0, 1.0) is False  # 1 >= 0.5 + sin 0.5

    def test_out_of_range(self):
        with pytest.raises(GeometryError):
            arc_beats_detour(2.0, 1.0)
        with pytest.raises(GeometryError):
            arc_beats_detour(-0.1, 1.0)


class TestClosedForm:
    def test_single_circle_limit(self):
        ell, t = closed_form_t(0.0, 0.7)
        assert ell == 2.0
        assert t == pytest.approx(HALF_PI, rel=1e-15)

    def test_d029(self):
        _, t = closed_form_t(0.29, 1.0)
        assert t > 1.581
        assert t == pytest.approx(1.581052, abs=2e-6)

    def test_d02935(self):
        _, t = closed_form_t(0.2935, 1.0)
        assert t > 1.5810528

    def test_negative_d_rejected(self):
        with pytest.raises(GeometryError):
            closed_form_t(-0.1, 1.0)


class TestPathLengthsLimit:
    def test_balanced_at_one_radian(self):
        per, cross = path_lengths_limit(0.29, 1.0)
        assert per == cross

    def test_degenerate_dependencies(self):
        per, cross = path_lengths_limit(0.29, 0.9)
        assert cross - per == pytest.approx(0.2, rel=1e-12)

    def test_alpha_range_enforced(self):
        with pytest.raises(GeometryError):
            path_lengths_limit(0.0, HALF_PI)

    def test_near_straight_crossing(self):
        per, cross = path_lengths_limit(0.0, HALF_PI - 1e-12)
        assert cross == pytest.approx(2.0, abs=1e-11)
        assert per == pytest.approx(math.pi, rel=1e-15)


class TestBalanceAlpha:
    def test_exact_value(self):
        assert balance_alpha() == 1.0

    @pytest.mark.parametrize("d", [0.0, 0.29, 1.0])
    def test_balances_both_path_types(self, d):
        per, cross = path_lengths_limit(d, balance_alpha())
        assert per == cross


class TestSweep:
    def test_claimed_interval_stays_above(self):
        result = sweep_d(0.293, 0.294, 1e-4)
        assert len(result.rows) == 11
        assert all(t > 1.5810528 for _, _, t in result.rows)

    def test_argmax_location(self):
        result = sweep_d(0.0, 1.0, 1e-3)
        assert 0.29 < result.argmax_d < 0.30
        assert result.argmax_t >= max(t for _, _, t in result.rows)

    def test_degenerate_range(self):
        result = sweep_d(0.0, 0.0, 1e-3)
        assert len(result.rows) == 1
        d, ell, t = result.rows[0]
        assert d == 0.0 and ell == 2.0 and t == pytest.approx(HALF_PI)

    def test_bad_step(self):
        with pytest.raises(GeometryError):
            sweep_d(0.0, 1.0, 0.0)


class TestChew:
    def test_n8_matches_closed_form(self):
        out = generate_chew(ChewSpec(8))
        rep = computed_dilation(out)
        assert rep.max_dilation == pytest.approx(4 * math.sin(math.pi / 8), rel=1e-12)
        assert rep.max_dilation == pytest.approx(1.53073, abs=1e-5)
        assert rep.witness == (out.p, out.q) == (0, 4)

    def test_n1000_approaches_half_pi(self):
        out = generate_chew(ChewSpec(1000))
        rep = computed_dilation(out)
        assert rep.max_dilation == pytest.approx(1.5707938, abs=1e-5)
        assert rep.max_dilation < HALF_PI

    @pytest.mark.parametrize("n", [8, 10, 16, 50, 200])
    def test_always_below_half_pi(self, n):
        out = generate_chew(ChewSpec(n))
        assert computed_dilation(out).max_dilation < HALF_PI

    def test_odd_n_rejected(self):
        with pytest.raises(GeometryError):
            ChewSpec(9)

    def test_validity(self, chew16):
        rep = is_valid_delaunay(chew16.points, chew16.triangulation, 1e-9)
        assert rep.valid

    def test_antipodal_marks(self):
        out = generate_chew(ChewSpec(12))
        p, q = out.points[out.p], out.points[out.q]
        assert p.x == pytest.approx(-q.x) and p.y == pytest.approx(-q.y)


def _arc_position(point, center):
    """Angle off the center's negative-x diameter, positive above the axis."""
    return math.atan2(point.y, -(point.x - center.x))


class TestTwoSemicircle:
    def test_222_points(self, two_semi_222):
        out = two_semi_222
        assert len(out.points) == 222
        rep = computed_dilation(out)
        assert rep.max_dilation > 1.5810
        assert rep.witness == (out.p, out.q)

    def test_18_points(self, two_semi_18):
        out = two_semi_18
        assert len(out.points) == 18
        assert computed_dilation(out).max_dilation > HALF_PI

    def test_validity(self, two_semi_222, two_semi_18):
        for out in (two_semi_222, two_semi_18):
            assert is_valid_delaunay(out.points, out.triangulation, 1e-9).valid

    def test_marks_at_alpha(self, two_semi_222):
        out = two_semi_222
        p = out.points[out.p]
        assert p.x == pytest.approx(-0.29 / 2 - math.cos(1.0), rel=1e-15)
        assert p.y == pytest.approx(math.sin(1.0), rel=1e-15)
        q = out.points[out.q]
        assert (q.x, q.y) == (-p.x, -p.y)

    def test_computed_below_limit_and_monotone(self):
        values = []
        for n_arc in (20, 60, 111, 240):
            out = generate_two_semicircle(TwoSemicircleSpec(n_arc=n_arc))
            val = computed_dilation(out).max_dilation
            assert val < out.predicted_dilation
            values.append(val)
        assert values == sorted(values)

    def test_gap_below_1e3_at_2000_points(self):
        out = generate_two_semicircle(TwoSemicircleSpec(n_arc=1000))
        val = computed_dilation(out).max_dilation
        assert out.predicted_dilation - val < 1e-3

    def test_witness_pair_across_specs(self):
        for d in (0.2, 0.29, 0.35):
            out = generate_two_semicircle(TwoSemicircleSpec(d=d, n_arc=61))
            rep = computed_dilation(out)
            assert rep.witness == (out.p, out.q)

    def test_ladder_chords_respect_arc_inequality(self, two_semi_222):
        # Recheck from the output alone: every chord between two points of
        # one semicircle, other than boundary-arc edges and the closing
        # chord, must leave the boundary arc optimal from the mark.
        out = two_semi_222
        n_half = len(out.points) // 2
        center = Point2(-0.29 / 2, 0.0)
        mark_pos = _arc_position(out.points[out.p], center)
        pos = {i: _arc_position(out.points[i], center) for i in range(n_half)}
        order = sorted(pos, key=lambda i: pos[i])
        rank = {i: k for k, i in enumerate(order)}
        closing = {order[0], order[-1]}
        for u, v in out.triangulation.edges:
            if not (u < n_half and v < n_half):
                continue
            if abs(rank[u] - rank[v]) == 1:
                continue  # boundary arc edge
            if {u, v} == closing:
                continue  # closing chord: balanced, not strictly better
            su = abs(pos[u] - mark_pos)
            sv = abs(pos[v] - mark_pos)
            theta = su + sv
            assert arc_beats_detour(su, theta) and arc_beats_detour(sv, theta)

    def test_sparse_alpha_rejected(self):
        # Past the balance angle the fan chords beat the boundary.
        with pytest.raises(SparseSamplingError):
            generate_two_semicircle(TwoSemicircleSpec(alpha=1.2, n_arc=41))

    def test_round_trip_realizable(self, two_semi_222):
        moved = make_unique_delaunay(
            two_semi_222.points, two_semi_222.triangulation, budget=1e-6
        )
        assert delaunay(moved).triangles == two_semi_222.triangulation.triangles


class TestShieldPosition:
    def _default_junction(self):
        d, r = 0.58, 1.1507
        xj = (1 - r * r - d * d / 4) / d
        yj = math.sqrt(r * r - xj * xj)
        return Point2(-d / 2, 0.0), Point2(xj, yj), Circle(Point2(0, 0), r)

    def test_on_ray_and_outside(self):
        unit_center, junction, big = self._default_junction()
        s = shield_position(unit_center, junction, big, margin=1e-4)
        ux, uy = junction.x - unit_center.x, junction.y - unit_center.y
        sx, sy = s.x - unit_center.x, s.y - unit_center.y
        cross = ux * sy - uy * sx
        assert abs(cross) < 1e-12
        assert dist(s, unit_center) > 1.0
        assert dist(s, big.center) > big.radius

    def test_excess_within_bounds(self):
        unit_center, junction, big = self._default_junction()
        margin = 1e-4
        s = shield_position(unit_center, junction, big, margin)

        # Independent excess evaluation via tangent points and arc angles.
        from delaunay_dilation.geom import tangent_points

        # unit-circle side: pick the tangency point on the sampled-arc side
        # (smaller angle off the -x diameter than the junction).
        cand_u = tangent_points(s, Circle(unit_center, 1.0))
        ang = lambda p: math.atan2(p.y, -(p.x - unit_center.x))
        t_u = min(cand_u, key=ang)
        cand_b = tangent_points(s, big)
        psi = lambda p: math.atan2(p.y, p.x)
        t_b = min(cand_b, key=psi)
        boundary = (ang(junction) - ang(t_u)) * 1.0 + (
            psi(junction) - psi(t_b)
        ) * big.radius
        via_s = dist(t_u, s) + dist(s, t_b)
        excess = via_s - boundary
        assert 0.0 < excess <= 2 * margin

    def test_monotone_in_margin(self):
        unit_center, junction, big = self._default_junction()
        dists = [
            dist(shield_position(unit_center, junction, big, m), junction)
            for m in (1e-5, 1e-4, 1e-3)
        ]
        assert dists == sorted(dists)
        assert dists[0] < dists[2]

    def test_tangent_configuration_rejected(self):
        # Unit circle internally tangent to the big circle: junction on the
        # line of centers, no perpendicular arc direction.
        big = Circle(Point2(0, 0), 2.0)
        unit_center = Point2(1.0, 0.0)
        junction = Point2(2.0, 0.0)
        with pytest.raises(ShieldPlacementError):
            shield_position(unit_center, junction, big, margin=1e-4)

    def test_junction_off_circle_rejected(self):
        unit_center, junction, big = self._default_junction()
        with pytest.raises(ShieldPlacementError):
            shield_position(unit_center, Point2(0.0, 0.5), big, margin=1e-4)

    def test_large_margins_end(self):
        # Past a root of about 8192 adjacent floats lie more than 1e-12
        # apart, so the bisection must also stop at adjacent floats.  At
        # 1e300 the tangent lengths overflow, which is refused.
        unit_center, junction, big = self._default_junction()
        s = shield_position(unit_center, junction, big, margin=1e5)
        near = shield_position(unit_center, junction, big, margin=1e4)
        assert 1e4 < dist(s, junction) and dist(near, junction) < dist(s, junction)
        ux, uy = junction.x - unit_center.x, junction.y - unit_center.y
        assert abs(ux * (s.y - unit_center.y) - uy * (s.x - unit_center.x)) <= 1e-12 * dist(s, unit_center)
        with pytest.raises(ShieldPlacementError, match="overflows"):
            shield_position(unit_center, junction, big, margin=1e300)


class TestThreeCircle:
    def test_defaults_meet_bound(self, three_circle_default):
        out = three_circle_default
        rep = computed_dilation(out)
        assert rep.max_dilation > 1.5846
        assert rep.witness == (out.p, out.q)

    def test_marked_pair_distance(self, three_circle_default):
        out = three_circle_default
        ell = dist(out.points[out.p], out.points[out.q])
        assert abs(ell - 2.4) <= 1e-3

    def test_validity(self, three_circle_default):
        out = three_circle_default
        assert is_valid_delaunay(out.points, out.triangulation, 1e-9).valid

    def test_witness_avoids_shields(self, three_circle_default):
        out = three_circle_default
        rep = computed_dilation(out)
        shields = set(range(len(out.points) - 4, len(out.points)))
        assert not (shields & set(rep.witness_path))

    def test_gap_variant_close_and_above_bound(self):
        # At beta=3.0 the big arc's half-angle is capped by the gap,
        # beta_j - g / r, so g shortens the arc and the two point sets differ
        # (460 and 462 points).  The gap's split between arc and chord is
        # length-neutral to ~1e-8, so the dilations stay close, and both
        # must clear the bound.
        base = generate_three_circle(ThreeCircleSpec(beta=3.0, arc_density=60.0))
        flat = generate_three_circle(ThreeCircleSpec(beta=3.0, arc_density=60.0, g=0.0))
        assert len(base.points) < len(flat.points)
        d_base = computed_dilation(base).max_dilation
        d_flat = computed_dilation(flat).max_dilation
        assert d_base > math.pi / 2 and d_flat > math.pi / 2
        assert abs(d_base - d_flat) < 1e-5

    def test_non_intersecting_circles_rejected(self):
        with pytest.raises(GeometryError):
            generate_three_circle(ThreeCircleSpec(d=0.1, r=3.0))

    def test_predicted_matches_computed(self, three_circle_default):
        out = three_circle_default
        rep = computed_dilation(out)
        assert rep.max_dilation == pytest.approx(out.predicted_dilation, abs=5e-6)
        assert rep.max_dilation < out.predicted_dilation


def output_digest(out):
    h = hashlib.sha256()
    h.update(out.points.coords.tobytes())
    h.update(out.triangulation.array.tobytes())
    h.update(f"{out.p} {out.q} {out.predicted_dilation.hex()}".encode())
    return h.hexdigest()


# Digests of the generators' output (points, triangles, marked pair and
# predicted dilation): the CLI's files hold these bytes, so any change to
# them is a change of output.  g=0 with the default beta equals the default
# output, since beta and not the gap ends the big arc; beta=3.0 lets the
# big arc reach the junctions.  At d=2, r=1.5 two big-circle samples fall
# exactly on the junction samples and are merged with them.
PINNED = [
    (TwoSemicircleSpec(alpha=0.5, n_arc=9),
     "dda608d1f315674b1fcf64c011460867a56d8cb18f32fb06d2c3e9af79acee65"),
    (TwoSemicircleSpec(alpha=0.5, n_arc=111),
     "b4fc6eb1283286b639504cdfbe6165b2164291e61ad88a31c97fd799e7b3d84e"),
    (TwoSemicircleSpec(alpha=1.0, n_arc=9),
     "e104d6cee673e9fb8004f1cbfb9ef47b2f47a8b46068b45a5cdafaa71ed9e272"),
    (TwoSemicircleSpec(alpha=1.0, n_arc=111),
     "6205a98031970c5ac1914debaa2ee82f01c8905b38a3870afcc4efb45432dd29"),
    (ThreeCircleSpec(g=0.0, beta=3.0, arc_density=20.0),
     "7395bd746b3256cfcc1df747cc922c023515e1550f854eefe1c9af3955ecf3ed"),
    (ThreeCircleSpec(g=0.0, beta=3.0, arc_density=60.0),
     "7951741e706cfddcd0913c8e930880b5b0a0d4b9fc76d2ac66a9d7368d92898d"),
    # theta below the junction angle: the strip does not reach the arcs.
    (ThreeCircleSpec(theta=0.8, arc_density=20.0),
     "9981efc62a1a87acaa7ac3d00d8687e84c9999a4e94c20576f7f2788ab8281f7"),
    (ThreeCircleSpec(theta=0.8, arc_density=60.0),
     "a8c99903e293f763edf91a0ef7636e0f84434df758a36977936a1638e6b569eb"),
    (ThreeCircleSpec(arc_density=60.0),
     "8dd002fa20e965d9b6908ae75fcb0183c13a2e369939d9bc601ea07f399da301"),
    (ThreeCircleSpec(d=2.0, r=1.5, theta=2.0, beta=3.0, g=0.0, arc_density=20.0),
     "c76e85c75d2a7dba08591afced6593a4013828e057d9a7036262bb421af40c5d"),
]


@pytest.mark.parametrize("spec, digest", PINNED, ids=[repr(s) for s, _ in PINNED])
def test_generators_are_byte_identical(spec, digest):
    generate = (
        generate_two_semicircle if isinstance(spec, TwoSemicircleSpec) else generate_three_circle
    )
    assert output_digest(generate(spec)) == digest
