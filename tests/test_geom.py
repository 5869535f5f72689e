import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaunay_dilation.geom import (
    TANGENT_RTOL,
    Circle,
    CollinearPointsError,
    GeometryError,
    Point2,
    Sign,
    TangentPointError,
    _circumcircles_array,
    _incircle_float,
    _orientations,
    dist,
    incircle,
    orient2d,
    tangent_points,
)
from oracles import incircle_frac, orient_frac

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def P(x, y):
    return Point2(x, y)


class TestPoint2:
    def test_rejects_nan(self):
        with pytest.raises(GeometryError):
            Point2(float("nan"), 0.0)

    def test_rejects_infinity(self):
        with pytest.raises(GeometryError):
            Point2(0.0, float("inf"))


class TestOrient2d:
    def test_ccw(self):
        assert orient2d(P(0, 0), P(1, 0), P(0, 1)) is Sign.POSITIVE

    def test_collinear(self):
        assert orient2d(P(0, 0), P(1, 1), P(2, 2)) is Sign.ZERO

    def test_cw(self):
        assert orient2d(P(0, 0), P(0, 1), P(1, 0)) is Sign.NEGATIVE

    @given(ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords)
    @settings(max_examples=300)
    def test_antisymmetry(self, ax, ay, bx, by, cx, cy):
        a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
        assert orient2d(a, b, c) == -orient2d(b, a, c)

    def test_near_degenerate_matches_oracle(self):
        rng = random.Random(1234)
        for _ in range(2000):
            base = rng.uniform(-10, 10)
            span = rng.uniform(1e-8, 1e-6)
            pts = []
            for _ in range(3):
                t = rng.uniform(0, 1)
                x = base + t
                y = 3.0 * x + rng.choice([0.0, span, -span])
                pts.append((x, y))
            a, b, c = (P(*q) for q in pts)
            assert int(orient2d(a, b, c)) == orient_frac(*pts)


class TestIncircle:
    def test_cocircular_square(self):
        assert incircle(P(0, 0), P(1, 0), P(0, 1), P(1, 1)) is Sign.ZERO

    def test_center_inside(self):
        assert incircle(P(0, 0), P(1, 0), P(0, 1), P(0.5, 0.5)) is Sign.POSITIVE

    def test_far_outside(self):
        assert incircle(P(0, 0), P(1, 0), P(0, 1), P(5, 5)) is Sign.NEGATIVE

    def test_rejects_collinear_triangle(self):
        with pytest.raises(CollinearPointsError):
            incircle(P(0, 0), P(1, 1), P(2, 2), P(0, 1))

    def test_orientation_normalized(self):
        inside = incircle(P(0, 0), P(0, 1), P(1, 0), P(0.5, 0.5))
        assert inside is Sign.POSITIVE


def _near_cocircular_cases(count, seed, scale=1.0):
    """Points on a common circle, coordinates nudged by a few ulp."""
    rng = random.Random(seed)
    for _ in range(count):
        cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
        r = rng.uniform(0.1, 10.0)
        pts = []
        for _ in range(4):
            ang = rng.uniform(0, 2 * math.pi)
            x = (cx + r * math.cos(ang)) * scale
            y = (cy + r * math.sin(ang)) * scale
            for _ in range(rng.randrange(3)):
                x = math.nextafter(x, rng.choice([-math.inf, math.inf]))
                y = math.nextafter(y, rng.choice([-math.inf, math.inf]))
            pts.append((x, y))
        yield pts


def _run_incircle_vs_oracle(count, seed, scale=1.0):
    checked = 0
    for pts in _near_cocircular_cases(count, seed, scale):
        a, b, c, d = pts
        try:
            expected = incircle_frac(a, b, c, d)
        except ValueError:
            with pytest.raises(CollinearPointsError):
                incircle(P(*a), P(*b), P(*c), P(*d))
            continue
        got = incircle(P(*a), P(*b), P(*c), P(*d))
        assert int(got) == expected
        checked += 1
    assert checked > count * 0.9


def test_incircle_exactness_sample():
    _run_incircle_vs_oracle(20_000, seed=99)


@pytest.mark.parametrize("scale", [1e-78, 2.0**-500], ids=["1e-78", "2**-500"])
def test_incircle_exactness_where_products_underflow(scale):
    """The filters' bounds must not underflow to a false certainty."""
    _run_incircle_vs_oracle(3000, seed=7, scale=scale)
    quads = [q for q in _near_cocircular_cases(3000, seed=8, scale=scale) if orient_frac(*q[:3])]
    quads = [q if orient_frac(*q[:3]) > 0 else [q[0], q[2], q[1], q[3]] for q in quads]
    det, bound = _incircle_float(*np.array(quads).reshape(len(quads), 8).T)
    sure = np.abs(det) > bound
    expected = np.array([incircle_frac(*q) for q in quads])
    assert (np.sign(det[sure]) == expected[sure]).all()


def test_orient2d_exactness_where_products_underflow():
    rng = random.Random(5)
    triples = []
    for _ in range(2000):
        a = (rng.uniform(-1, 1) * 1e-160, rng.uniform(-1, 1) * 1e-160)
        b = (rng.uniform(-1, 1) * 1e-160, rng.uniform(-1, 1) * 1e-160)
        t = rng.random()
        c = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        assert int(orient2d(P(*a), P(*b), P(*c))) == orient_frac(a, b, c)
        triples.append((a, b, c))
    # The batched path decides every row the filter leaves open in one call,
    # on one common scale, here across magnitudes from 2**-1000 to 2**1000.
    for s in (1.0, 2.0**-1000, 2.0**1000):
        triples.append(((-s, -s), (s, 3 * s), (0.5 * s, 2 * s)))
    coords = np.array(triples).reshape(-1, 2)
    signs = _orientations(coords, np.arange(len(coords)).reshape(-1, 3))
    assert (signs[-3:] == 0).all()
    assert signs.tolist() == [orient_frac(*t) for t in triples]


@pytest.mark.slow
def test_incircle_exactness_million():
    _run_incircle_vs_oracle(1_000_000, seed=991)


def _circumcircles(*triples):
    """Centres and radii of ``_circumcircles_array`` over the given triples."""
    coords = np.array(triples, dtype=float).reshape(-1, 2)
    return _circumcircles_array(coords, np.arange(len(coords)).reshape(-1, 3))


class TestCircumcircle:
    # Relative distance of each vertex from the float circle.
    RTOL = 1e-12

    def _assert_equidistant(self, triples):
        centers, radii = _circumcircles(*triples)
        for pts, c, r in zip(triples, centers, radii):
            if not np.isfinite(r):
                continue
            for p in pts:
                assert abs(math.dist(c, p) - r) <= self.RTOL * r

    def test_symmetric_unit(self):
        centers, radii = _circumcircles(((1, 0), (0, 1), (-1, 0)))
        assert abs(centers[0, 0]) < 1e-15 and abs(centers[0, 1]) < 1e-15
        assert abs(radii[0] - 1.0) < 1e-15

    def test_right_triangle(self):
        centers, radii = _circumcircles(((0, 0), (1, 0), (0, 1)))
        assert abs(centers[0, 0] - 0.5) < 1e-15 and abs(centers[0, 1] - 0.5) < 1e-15
        assert abs(radii[0] - math.sqrt(2) / 2) < 1e-15

    def test_bisector_solution(self):
        # Independently derived from the two perpendicular bisectors.
        centers, radii = _circumcircles(((0, 0), (2, 0), (1, 3)))
        assert abs(centers[0, 0] - 1.0) < 1e-12
        assert abs(centers[0, 1] - 4.0 / 3.0) < 1e-12
        assert abs(radii[0] - 5.0 / 3.0) < 1e-12

    def test_collinear_is_not_finite(self):
        # A flat triangle gets a non-finite circle, and its neighbours in the
        # same call are unaffected.
        centers, radii = _circumcircles(((0, 0), (1, 1), (2, 2)), ((0, 0), (1, 0), (0, 1)))
        assert not np.isfinite(radii[0]) and not np.isfinite(centers[0]).all()
        assert radii[1] == math.sqrt(2) / 2

    def test_equidistance_random(self):
        rng = random.Random(7)
        self._assert_equidistant(
            [[(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(3)]
             for _ in range(500)])

    def test_equidistance_near_collinear(self):
        rng = random.Random(8)
        triples = []
        for _ in range(300):
            x1, x2, x3 = sorted(rng.uniform(-1, 1) for _ in range(3))
            eps = rng.uniform(1e-14, 1e-10)
            triples.append([(x1, 2 * x1), (x2, 2 * x2 + eps), (x3, 2 * x3)])
        self._assert_equidistant(triples)


class TestTangentPoints:
    def test_classic(self):
        t1, t2 = tangent_points(P(2, 0), Circle(P(0, 0), 1.0))
        got = sorted([(t1.x, t1.y), (t2.x, t2.y)])
        assert got[0][0] == pytest.approx(0.5, abs=1e-14)
        assert got[0][1] == pytest.approx(-math.sqrt(3) / 2, abs=1e-14)
        assert got[1][1] == pytest.approx(math.sqrt(3) / 2, abs=1e-14)

    def test_vertical(self):
        t1, t2 = tangent_points(P(0, 5), Circle(P(0, 0), 1.0))
        xs = sorted((t1.x, t2.x))
        assert xs[0] == pytest.approx(-math.sqrt(24) / 5, abs=1e-13)
        assert xs[1] == pytest.approx(math.sqrt(24) / 5, abs=1e-13)
        assert t1.y == pytest.approx(0.2, abs=1e-13)
        assert t2.y == pytest.approx(0.2, abs=1e-13)

    def test_on_circle_raises(self):
        with pytest.raises(TangentPointError):
            tangent_points(P(1, 0), Circle(P(0, 0), 1.0))

    def test_inside_raises(self):
        with pytest.raises(TangentPointError):
            tangent_points(P(0.2, 0.1), Circle(P(0, 0), 1.0))

    def test_orthogonality_random(self):
        rng = random.Random(11)
        for _ in range(500):
            c = Circle(P(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.1, 4))
            s = P(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if dist(s, c.center) <= c.radius * 1.0001:
                continue
            for t in tangent_points(s, c):
                radial = (t.x - c.center.x, t.y - c.center.y)
                seg = (t.x - s.x, t.y - s.y)
                dot = radial[0] * seg[0] + radial[1] * seg[1]
                assert abs(dot) <= TANGENT_RTOL * dist(t, s) * c.radius
