"""Geometric primitives with exact sign predicates.

Coordinates are IEEE doubles.  Orientation and in-circle tests are decided
exactly: a cheap floating-point filter (Shewchuk-style error bounds) resolves
the well-conditioned cases, and the near-degenerate ones fall back to
arbitrary-precision integer arithmetic.  Deliberately cocircular inputs are
therefore classified correctly, which the circle constructions in this
package rely on.

This module is the only one that decides a predicate sign, and each
predicate has one path: the batched float filter (``_filter_signs``) over
rows of point indices, then one exact step on every row it leaves open.
``_orientations`` takes that step on integers with one common power-of-two
scale; ``_incircle_signs``, which every incircle sign of the package goes
through, takes it with ``ExactIncircle.signs``.  The scalar
``orient2d`` and ``incircle`` run the same filter on one row, and their
exact names, ``_orient2d_exact`` and ``_incircle_exact``, are one-row calls
into the same exact steps.  ``_circumcircles_array`` is the package's one
float circumcentre formula.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

__all__ = [
    "TANGENT_RTOL",
    "GeometryError",
    "CollinearPointsError",
    "TangentPointError",
    "Sign",
    "Point2",
    "Circle",
    "dist",
    "orient2d",
    "incircle",
    "ExactIncircle",
    "tangent_points",
]

# Relative orthogonality tolerance for tangent points.
TANGENT_RTOL = 1e-10

_EPS = math.ulp(1.0) / 2.0
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS
# The relative bounds assume that no product underflows.  A product that does
# is off by up to 2**-1075 absolutely.  orient2d's determinant sums two such
# errors; incircle's sums at most 21, each scaled by at most the largest lift
# or by 1.  These absolute terms exceed those sums several times over, so an
# underflowed determinant is never taken as certain.
_ORIENT_UNDERFLOW = 2.0**-1070
_INCIRCLE_UNDERFLOW = 2.0**-1068  # per unit of 1 + alift + blift + clift
# ExactIncircle's reference-circle stage; its docstring derives both.
_REFERENCE_BOUND = 16.0 * _EPS
_REFERENCE_UNDERFLOW = 2.0**-1068  # per unit of 1 + S + |P_a| + ... + |P_d|
# The errstate of float steps that may overflow or divide by zero on purpose;
# each use stays inside one call or block, so it never reaches a caller.
_IGNORE = dict(divide="ignore", invalid="ignore", over="ignore")


class GeometryError(ValueError):
    """Invalid geometric input."""


class CollinearPointsError(GeometryError):
    """A non-degenerate triangle was required."""


class TangentPointError(GeometryError):
    """Tangents exist only from points strictly outside the circle."""


class Sign(IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite coordinates ({self.x!r}, {self.y!r})")

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Circle:
    center: Point2
    radius: float

    def __post_init__(self):
        if not math.isfinite(self.radius) or self.radius < 0.0:
            raise GeometryError(f"invalid radius {self.radius!r}")


def dist(a: Point2, b: Point2) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _sign(value) -> Sign:
    # Callers pass only values with |value| > bound > 0.
    return Sign.POSITIVE if value > 0 else Sign.NEGATIVE


def _as_scaled_ints(values):
    """Map floats to integers by a common power-of-two scale, exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    common = max(den for _, den in ratios)
    return [num * (common // den) for num, den in ratios]


def orient2d(a: Point2, b: Point2, c: Point2) -> Sign:
    """Sign of twice the signed area of triangle abc (positive = ccw).

    Exact for all representable inputs.
    """
    det, bound = _orient2d_float(a.x, a.y, b.x, b.y, c.x, c.y)
    if abs(det) > bound:
        return _sign(det)
    return _orient2d_exact(a, b, c)


def _orient2d_float(ax, ay, bx, by, cx, cy):
    """(det, bound) on floats or numpy arrays; det's sign is sure if |det| > bound."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    bound = _ORIENT_BOUND * (abs(detleft) + abs(detright)) + _ORIENT_UNDERFLOW
    return detleft - detright, bound


def _orient2d_exact(a: Point2, b: Point2, c: Point2) -> Sign:
    """orient2d of one row, by the exact step of ``_orientations``."""
    return Sign(int(_orient2d_ints(np.array([[[*a], [*b], [*c]]]))[0]))


def _orient2d_ints(points: np.ndarray) -> np.ndarray:
    """int8 orient2d signs of the rows (a, b, c) of an (m, 3, 2) float array,
    exactly: one common power-of-two scale maps all its coordinates to
    Python integers."""
    ints = np.array(_as_scaled_ints(points.ravel().tolist()), dtype=object)
    (ax, ay), (bx, by), (cx, cy) = ints.reshape(points.shape).transpose(1, 2, 0)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0).astype(np.int8) - (det < 0)


def _filter_signs(predicate_float, coords: np.ndarray, *vertices) -> np.ndarray:
    """Signs a float filter certifies over broadcast index arrays, else 0."""
    with np.errstate(**_IGNORE):
        det, bound = predicate_float(*(coords[i, k] for i in vertices for k in (0, 1)))
        return np.where(np.abs(det) > bound, np.sign(det), 0.0).astype(np.int8)


def _orientations(coords: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """orient2d of each row of index triples: the float filter, then the
    exact step on all the rows it leaves open at once."""
    signs = _filter_signs(_orient2d_float, coords, *tris.T)
    unsure = np.flatnonzero(signs == 0)
    if unsure.size:
        signs[unsure] = _orient2d_ints(coords[tris[unsure]])
    return signs


def incircle(a: Point2, b: Point2, c: Point2, d: Point2) -> Sign:
    """POSITIVE iff d lies strictly inside the circumcircle of abc.

    ZERO means exactly cocircular.  a, b, c must not be collinear; their
    orientation is normalized internally, so either winding is accepted.
    """
    ori = orient2d(a, b, c)
    if ori is Sign.ZERO:
        raise CollinearPointsError("incircle needs a non-degenerate triangle")
    if ori is Sign.NEGATIVE:
        b, c = c, b
    det, bound = _incircle_float(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y)
    if abs(det) > bound:
        return _sign(det)
    return _incircle_exact(a, b, c, d)


def _incircle_float(ax, ay, bx, by, cx, cy, dx, dy):
    """(det, bound) for ccw abc, on floats or arrays, as in _orient2d_float."""
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady
    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy
    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    permanent = (
        alift * (abs(bdxcdy) + abs(cdxbdy))
        + blift * (abs(cdxady) + abs(adxcdy))
        + clift * (abs(adxbdy) + abs(bdxady))
    )
    underflow = _INCIRCLE_UNDERFLOW * (1.0 + alift + blift + clift)
    return det, _INCIRCLE_BOUND * permanent + underflow


def _incircle_exact(a: Point2, b: Point2, c: Point2, d: Point2) -> Sign:
    """incircle of one row with ccw abc, by ``ExactIncircle``."""
    rows = np.arange(4)[:, None]
    return Sign(int(ExactIncircle([[*a], [*b], [*c], [*d]]).signs(*rows)[0]))


def _incircle_signs(coords: np.ndarray, u, v, w, x, exact=None) -> np.ndarray:
    """incircle(u, v, w, x) over broadcast index arrays, for ccw (u, v, w):
    the float filter, then ``ExactIncircle`` (exact, if given) on the
    entries it cannot certify, in row-major order."""
    signs = _filter_signs(_incircle_float, coords, u, v, w, x)
    unsure = signs == 0
    if unsure.any():
        exact = ExactIncircle(coords) if exact is None else exact
        signs[unsure] = exact.signs(*(k[unsure] for k in np.broadcast_arrays(u, v, w, x)))
    return signs


def _circumcircles_array(coords: np.ndarray, tris: np.ndarray):
    """Float circumcentres and radii of the index triples tris; a flat or
    float-flat triangle gets non-finite ones, without a warning."""
    a = coords[tris[:, 0]]
    b = coords[tris[:, 1]] - a
    c = coords[tris[:, 2]] - a
    with np.errstate(**_IGNORE):
        den = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        b2 = (b * b).sum(axis=1)
        c2 = (c * c).sum(axis=1)
        ux = (c[:, 1] * b2 - b[:, 1] * c2) / den
        uy = (b[:, 0] * c2 - c[:, 0] * b2) / den
        centers = a + np.stack([ux, uy], axis=1)
        radii = np.hypot(ux, uy)
    return centers, radii


class ExactIncircle:
    """Exact incircle signs for many (triangle, point) pairs of one point set.

    Rows the float filter of ``incircle`` leaves open are decided in two
    stages: reference circles in floats, then integers for what they leave.

    A row whose d is a vertex of its own triangle gets 0 before either
    stage: a vertex lies on its own circle.

    Integers.  The coordinates are scaled to integers by one common power of
    two, which is exact, and each point is lifted to (X, Y, L = X² + Y²).
    The in-circle determinant of a ccw triangle abc and a point d is the
    4×4 determinant with rows (X, Y, L, 1) of a, b, c, d; it is positive
    when d lies inside.  Expanding it along d's row gives four cofactors per
    triangle, computed once per run of consecutive rows with the same
    triangle, so a pair then costs k0·X + k1·Y + k2·L + k3 in Python
    integers.

    Reference circles.  For any circle with centre (cx, cy) and squared
    radius ρ, a point's power P = (X - cx)² + (Y - cy)² - ρ is
    L - 2cx·X - 2cy·Y + (cx² + cy² - ρ): its lift plus a combination of
    the X, Y and 1 columns.  Replacing the L column by P is therefore a
    column operation and keeps the determinant.  Subtracting d's row from the other three
    and expanding along the P column gives

        det = P_a·M_bc + P_b·M_ca + P_c·M_ab - P_d·(M_bc + M_ca + M_ab),

    where M_bc = b̄x·c̄y - c̄x·b̄y for the translated points b̄ = b - d and
    c̄ = c - d, and so on cyclically.  Each point's power is computed once,
    exactly in integers, and rounded to a float; the rest runs in floats
    on every row at once.  Points near the circle have small powers, so
    the determinant of nearly cocircular points, which the filter of
    ``incircle`` cannot tell from 0, becomes a sum of small terms whose
    rounding is small in proportion.

    The error bound.  The floats are the coordinates times 2**-e, |x| < 1,
    which is exact (else this stage is off), so no sum or product below
    overflows.  Let u = 2**-53 and S_bc = |b̄x·c̄y| + |c̄x·b̄y| (likewise
    S_ca, S_ab; S their sum).  A difference is rounded once, a minor three
    times more, the sum of the minors twice, each product P·M once, the
    four-term sum three times and each power once, on conversion.  With
    P, M and S as computed, this gives

        |det_float - det| <= 12u·(|P_a|·S_bc + |P_b|·S_ca + |P_c|·S_ab
                                   + |P_d|·S)

    as long as nothing underflows.  ``_REFERENCE_BOUND`` is 16u, which also
    covers the rounding of the bound itself.  A product or conversion that
    underflows is off by at most 2**-1075 absolutely; at most about twenty
    such errors enter, each scaled by at most one of |P| or S, so the
    absolute term ``_REFERENCE_UNDERFLOW`` times (1 + S + Σ|P|) exceeds
    them.  A row whose |det_float| exceeds the bound has det's sign;
    every other row goes to the integers.

    A reference circle is the float circumcircle of the first row no
    reference has decided, with its centre on the integer grid and its
    squared radius the exact one through that row's first vertex.  The
    references are kept on the instance.  One costs one exact power per
    point, about what the integers spend on as many rows, so a new one is
    built only when the rows the references leave, counted since the last
    one was built, outnumber the points: the references then never cost
    more than the integer rows already paid for.  A new reference that
    decides no row ends the attempt for the call.  ``counts`` tallies the
    rows each stage decided.
    """

    def __init__(self, coords):
        """coords: (n, 2) floats.  Nothing is computed until a row needs it."""
        self._coords = np.asarray(coords, dtype=np.float64)
        self._references = []  # the float powers of every point, per circle
        self._owed = 0  # rows left to the integers since the last reference
        self.counts = dict(reference=0, integer=0)

    @cached_property
    def _lifted(self):
        ints = np.array(_as_scaled_ints(self._coords.ravel().tolist()), dtype=object)
        x, y = ints[0::2], ints[1::2]
        return x, y, x * x + y * y

    @cached_property
    def _unit(self):
        """(coordinates times 2**-e with all |x| < 1, g with X = x·2**g),
        or None if that scaling is not exact."""
        flat = np.abs(self._coords).ravel()
        top = int(flat.argmax())
        e = int(np.frexp(flat[top])[1])
        unit = np.ldexp(self._coords, -e)
        if not np.array_equal(np.ldexp(unit, e), self._coords):
            return None
        x, y, _ = self._lifted
        return unit, int(abs((x, y)[top % 2][top // 2])).bit_length()

    def signs(self, a, b, c, d):
        """int8 signs of incircle(a[k], b[k], c[k], d[k]) for ccw (a, b, c);
        POSITIVE = inside."""
        signs = np.zeros(len(a), dtype=np.int8)
        off = np.flatnonzero((d != a) & (d != b) & (d != c))
        got = self._reference_signs(*(v[off] for v in (a, b, c, d)))
        signs[off] = got
        left = off[got == 0]
        self.counts["reference"] += len(off) - len(left)
        self.counts["integer"] += len(left)
        if len(left):
            a, b, c, d = (v[left] for v in (a, b, c, d))
            # One set of cofactors per run of rows with the same triangle.
            new = np.concatenate(
                ([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (c[1:] != c[:-1]))
            )
            tris = np.stack([a[new], b[new], c[new]])
            (xa, xb, xc), (ya, yb, yc), (la, lb, lc) = (v[tris] for v in self._lifted)
            ab = xa * yb - ya * xb
            bc = xb * yc - yb * xc
            ca = xc * ya - yc * xa
            run = np.cumsum(new) - 1
            k0, k1, k2, k3 = (k[run] for k in (
                -(ya * (lb - lc) + yb * (lc - la) + yc * (la - lb)),
                xa * (lb - lc) + xb * (lc - la) + xc * (la - lb),
                -(ab + bc + ca),
                la * bc + lb * ca + lc * ab,
            ))
            x, y, lift = (v[d] for v in self._lifted)
            det = k0 * x + k1 * y + k2 * lift + k3
            signs[left] = (det > 0).astype(np.int8) - (det < 0)
        return signs

    def _reference_signs(self, a, b, c, d):
        """int8 signs the reference circles certify, else 0; builds
        references by the class's cost rule."""
        signs = np.zeros(len(a), dtype=np.int8)
        left = np.arange(len(a))
        for k in itertools.count():
            fresh = k == len(self._references)
            if fresh:
                if self._owed + len(left) <= len(self._coords) or self._unit is None:
                    break
                reference = self._power(a[left[0]], b[left[0]], c[left[0]])
                if reference is None:
                    break
                self._references.append(reference)
                self._owed = 0
            rows = (v[left] for v in (a, b, c, d))
            got, done = self._reference_stage(self._references[k], *rows)
            signs[left] = got
            left = left[~done]
            if not len(left) or fresh and not done.any():
                break
        self._owed += len(left)
        return signs

    def _power(self, a, b, c):
        """Every point's float power to the reference circle of triangle abc,
        or None if the float circumcentre is not finite or lies far out."""
        unit, g = self._unit
        centre = _circumcircles_array(unit, np.array([[a, b, c]]))[0][0].tolist()
        if not all(abs(v) < 2.0**60 for v in centre):  # also rejects inf and NaN
            return None
        x, y, _ = self._lifted
        # The centre, floored onto the grid of the integers, and the exact
        # squared radius through a.
        gx, gy = ((num << g) // q for num, q in map(float.as_integer_ratio, centre))
        radius2 = (x[a] - gx) ** 2 + (y[a] - gy) ** 2
        power = (x - gx) ** 2 + (y - gy) ** 2 - radius2
        scale = 1 << 2 * g  # Python's int / int is correctly rounded
        return np.array([p / scale for p in power.tolist()])

    def _reference_stage(self, power, a, b, c, d):
        """(int8 signs, decided) of the rows with this reference: decided
        where the bound certifies the float sign."""
        x, y = self._unit[0].T
        adx, ady = x[a] - x[d], y[a] - y[d]
        bdx, bdy = x[b] - x[d], y[b] - y[d]
        cdx, cdy = x[c] - x[d], y[c] - y[d]
        bc1, bc2 = bdx * cdy, cdx * bdy
        ca1, ca2 = cdx * ady, adx * cdy
        ab1, ab2 = adx * bdy, bdx * ady
        mbc, mca, mab = bc1 - bc2, ca1 - ca2, ab1 - ab2
        sbc = np.abs(bc1) + np.abs(bc2)
        sca = np.abs(ca1) + np.abs(ca2)
        sab = np.abs(ab1) + np.abs(ab2)
        s = sbc + sca + sab
        pa, pb, pc, pd = power[a], power[b], power[c], power[d]
        det = pa * mbc + pb * mca + pc * mab - pd * (mbc + mca + mab)
        pa, pb, pc, pd = np.abs(pa), np.abs(pb), np.abs(pc), np.abs(pd)
        bound = _REFERENCE_BOUND * (pa * sbc + pb * sca + pc * sab + pd * s)
        bound += _REFERENCE_UNDERFLOW * (1.0 + s + pa + pb + pc + pd)
        sure = np.abs(det) > bound
        return np.where(sure, np.sign(det), 0.0).astype(np.int8), sure


def tangent_points(s: Point2, c: Circle) -> tuple[Point2, Point2]:
    """The two points where lines through s touch circle c.

    Requires s strictly outside c.  The pair is ordered lexicographically by
    (x, y) so results are deterministic.
    """
    if c.radius <= 0.0:
        raise TangentPointError("circle must have positive radius")
    dx = s.x - c.center.x
    dy = s.y - c.center.y
    d2 = dx * dx + dy * dy
    r2 = c.radius * c.radius
    if d2 <= r2:
        raise TangentPointError("point is not strictly outside the circle")
    d = math.sqrt(d2)
    tangent_len = math.sqrt(d2 - r2)
    ux, uy = dx / d, dy / d
    # Foot of the tangent chord along s->center, then offset perpendicular.
    fx = c.center.x + (r2 / d) * ux
    fy = c.center.y + (r2 / d) * uy
    off = c.radius * tangent_len / d
    p1 = Point2(fx - off * uy, fy + off * ux)
    p2 = Point2(fx + off * uy, fy - off * ux)
    return (p1, p2) if (p1.x, p1.y) <= (p2.x, p2.y) else (p2, p1)
