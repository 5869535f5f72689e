"""Geometric primitives with exact sign predicates.

Coordinates are IEEE doubles.  Orientation and in-circle tests are decided
exactly: a cheap floating-point filter (Shewchuk-style error bounds) resolves
the well-conditioned cases, and the near-degenerate ones fall back to
arbitrary-precision integer arithmetic.  Deliberately cocircular inputs are
therefore classified correctly, which the circle constructions in this
package rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "CIRCUMCIRCLE_RTOL",
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
    "circumcircle",
    "tangent_points",
]

# Relative residual allowed between the three vertex distances and the
# reported circumradius.
CIRCUMCIRCLE_RTOL = 1e-12
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
    if value > 0:
        return Sign.POSITIVE
    if value < 0:
        return Sign.NEGATIVE
    return Sign.ZERO


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
    ax, ay, bx, by, cx, cy = _as_scaled_ints([a.x, a.y, b.x, b.y, c.x, c.y])
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return _sign(det)


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
    ax, ay, bx, by, cx, cy, dx, dy = _as_scaled_ints(
        [a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y]
    )
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return _sign(det)


class ExactIncircle:
    """Exact incircle signs for many (triangle, point) pairs of one point set.

    The coordinates are scaled to integers by one common power of two, which
    is exact, and each point is lifted to (X, Y, L = X² + Y²) once.  The
    in-circle determinant of a ccw triangle abc and a point d is the 4×4
    determinant with rows (X, Y, L, 1) of a, b, c, d.  Expanding it along
    d's row gives four cofactors per triangle, so a pair then costs
    k0·X + k1·Y + k2·L + k3 in Python integers.
    """

    def __init__(self, coords, tris=None):
        """coords: (n, 2) floats; tris: (T, 3) indices of ccw triangles, the
        rows that ``signs`` reads.  Without tris only the lift is built."""
        ints = np.array(_as_scaled_ints(coords.ravel().tolist()), dtype=object)
        x, y = ints[0::2], ints[1::2]
        self._lifted = (x, y, x * x + y * y)
        if tris is not None:
            self._cofactors = self._cofactors_of(tris)

    def _cofactors_of(self, tris):
        (xa, xb, xc), (ya, yb, yc), (la, lb, lc) = (v[tris.T] for v in self._lifted)
        ab = xa * yb - ya * xb
        bc = xb * yc - yb * xc
        ca = xc * ya - yc * xa
        return (
            -(ya * (lb - lc) + yb * (lc - la) + yc * (la - lb)),
            xa * (lb - lc) + xb * (lc - la) + xc * (la - lb),
            -(ab + bc + ca),
            la * bc + lb * ca + lc * ab,
        )

    def signs(self, rows, points):
        """int8 signs of incircle(tris[rows[k]], points[k]); POSITIVE = inside."""
        return self._signs(tuple(k[rows] for k in self._cofactors), points)

    def _quad_signs(self, u, v, w, x):
        """int8 signs of incircle(u[k], v[k], w[k], x[k]) for ccw (u, v, w)."""
        return self._signs(self._cofactors_of(np.stack([u, v, w], axis=1)), x)

    def _signs(self, cofactors, points):
        x, y, lift = (v[points] for v in self._lifted)
        k0, k1, k2, k3 = cofactors
        det = k0 * x + k1 * y + k2 * lift + k3
        return (det > 0).astype(np.int8) - (det < 0)


def circumcircle(a: Point2, b: Point2, c: Point2) -> Circle:
    """Circle through three non-collinear points.

    The three vertices lie on the result within CIRCUMCIRCLE_RTOL of the
    radius; an exact rational solve backs up the floating-point path when
    the triangle is badly conditioned.
    """
    if orient2d(a, b, c) is Sign.ZERO:
        raise CollinearPointsError("collinear points have no circumcircle")

    bx = b.x - a.x
    by = b.y - a.y
    cx = c.x - a.x
    cy = c.y - a.y
    den = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    if den != 0.0:
        ux = (cy * b2 - by * c2) / den
        uy = (bx * c2 - cx * b2) / den
        center = Point2(a.x + ux, a.y + uy)
        radius = math.hypot(ux, uy)
        if radius > 0 and _circum_residual(center, radius, a, b, c) <= CIRCUMCIRCLE_RTOL:
            return Circle(center, radius)

    # Exact rational fallback: solve the two bisector equations in ℚ.
    from fractions import Fraction

    fax, fay = Fraction(a.x), Fraction(a.y)
    fbx, fby = Fraction(b.x) - fax, Fraction(b.y) - fay
    fcx, fcy = Fraction(c.x) - fax, Fraction(c.y) - fay
    fden = 2 * (fbx * fcy - fby * fcx)
    fb2 = fbx * fbx + fby * fby
    fc2 = fcx * fcx + fcy * fcy
    fux = (fcy * fb2 - fby * fc2) / fden
    fuy = (fbx * fc2 - fcx * fb2) / fden
    center = Point2(float(fax + fux), float(fay + fuy))
    radius = math.sqrt(float(fux * fux + fuy * fuy))
    return Circle(center, radius)


def _circum_residual(center: Point2, radius: float, *pts: Point2) -> float:
    return max(abs(dist(center, p) - radius) for p in pts) / radius


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
