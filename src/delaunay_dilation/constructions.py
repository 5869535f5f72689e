"""Point-set constructions whose Delaunay triangulations have large dilation.

Three families are generated, each with a bespoke triangulation chosen among
the legal Delaunay completions of its cocircular groups:

* ``generate_chew``: evenly spaced points on one circle, triangulated by a
  ladder of chords nearly perpendicular to a marked diameter.  The shortest
  marked-pair path follows a semicircle, so the dilation tends to pi/2.

* ``generate_two_semicircle``: points in convex position on two unit
  semicircles a distance ``d`` apart.  Each semicircle carries a ladder
  oriented so boundary arcs stay optimal (checked per chord against the
  arc-versus-detour inequality); the middle rectangle takes the diagonal
  that does not shorten the marked crossing.  Dilation tends to
  ``(pi + d) / sqrt(4 + d^2 + 4 d cos(alpha))``.

* ``generate_three_circle``: points on arcs of two unit circles and a larger
  third circle, with four exterior shield points whose fans close the hull
  while keeping every outside detour slightly longer than the boundary.
  The points are not in convex position and the dilation edges past the
  convex-position family.

All ladders are produced by one funnel sweep: points merge by boundary
distance from the marked vertex and each step emits a triangle against the
current frontier chord.  The two- and three-circle families share one
layout, ``_mirrored_arcs``: a left unit arc sampled from its mark, its
mirror image through the origin, and a strip ladder between them, with a
checked funnel on each arc.  The two-semicircle middle rectangle is a strip
with no points of its own; the three-circle strip holds the big-circle arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    Circle,
    GeometryError,
    Point2,
    dist,
)
from .triangulation import PointSet, Triangulation, _turn_ccw, delaunay

__all__ = [
    "ChewSpec",
    "TwoSemicircleSpec",
    "ThreeCircleSpec",
    "ConstructionOutput",
    "SweepResult",
    "SparseSamplingError",
    "ShieldPlacementError",
    "arc_beats_detour",
    "closed_form_t",
    "path_lengths_limit",
    "balance_alpha",
    "sweep_d",
    "generate_chew",
    "generate_two_semicircle",
    "generate_three_circle",
    "shield_position",
]


class SparseSamplingError(GeometryError):
    """A ladder chord would beat the boundary arc; sample more points."""


class ShieldPlacementError(GeometryError):
    """Shield root finding failed (degenerate circle configuration)."""


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------

def arc_beats_detour(beta: float, theta: float) -> bool:
    """True iff the arc of angle beta beats the opposite arc plus chord.

    For a unit-circle sector of angle theta with the mark at arc distance
    beta from one endpoint, the direct arc is strictly shorter than going
    the other way and crossing the chord exactly when
    ``beta < theta/2 + sin(theta/2)``.
    """
    if not (0.0 <= beta <= theta <= 2.0 * math.pi):
        raise GeometryError(f"angles out of range: beta={beta}, theta={theta}")
    return beta < theta / 2.0 + math.sin(theta / 2.0)


def closed_form_t(d: float, alpha: float = 1.0) -> tuple[float, float]:
    """Limit dilation of the two-semicircle family.

    Returns (ell, t): the marked-pair distance
    ``ell = sqrt(4 + d^2 + 4 d cos(alpha))`` and ``t = (pi + d) / ell``.
    """
    if d < 0:
        raise GeometryError("d must be nonnegative")
    ell = math.sqrt(4.0 + d * d + 4.0 * d * math.cos(alpha))
    return ell, (math.pi + d) / ell


def path_lengths_limit(d: float, alpha: float) -> tuple[float, float]:
    """Limiting lengths of the two locally optimal marked-pair paths.

    The perimeter path walks one semicircle and bridges the gap:
    ``pi + d``.  The crossing path trades arc for a vertical chord:
    ``pi + 2 - 2*alpha + d``.
    """
    if d < 0:
        raise GeometryError("d must be nonnegative")
    if not (0.0 < alpha < math.pi / 2.0):
        raise GeometryError("alpha must lie in (0, pi/2)")
    return math.pi + d, math.pi + 2.0 - 2.0 * alpha + d


def balance_alpha() -> float:
    """Marker angle at which both path types have equal length.

    The difference (crossing - perimeter) is ``2 - 2*alpha`` independent of
    d, so the balance point is exactly 1 radian.
    """
    return 1.0


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[tuple[float, float, float], ...]  # (d, ell, t)
    argmax_d: float
    argmax_t: float

    def to_csv(self) -> str:
        lines = ["d,ell,t"]
        lines += [f"{d!r},{ell!r},{t!r}" for d, ell, t in self.rows]
        return "\n".join(lines) + "\n"


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer for a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def sweep_d(d_min: float, d_max: float, step: float) -> SweepResult:
    """Evaluate the closed form over a d-range (alpha = 1) and locate its max."""
    if not (0.0 <= d_min <= d_max) or step <= 0.0:
        raise GeometryError("need 0 <= d_min <= d_max and step > 0")
    rows = []
    k = 0
    while True:
        d = d_min + k * step
        if d > d_max + step * 1e-9:
            break
        d = min(d, d_max)
        ell, t = closed_form_t(d, 1.0)
        rows.append((d, ell, t))
        if d >= d_max:
            break
        k += 1
    if d_min == d_max:
        best = d_min
    else:
        best = _golden_max(lambda x: closed_form_t(x, 1.0)[1], d_min, d_max, 1e-9)
    return SweepResult(
        rows=tuple(rows), argmax_d=best, argmax_t=closed_form_t(best, 1.0)[1]
    )


# --------------------------------------------------------------------------
# Construction specs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChewSpec:
    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise GeometryError("n must be even and at least 8")


@dataclass(frozen=True)
class TwoSemicircleSpec:
    d: float = 0.29
    alpha: float = 1.0
    n_arc: int = 111  # points per semicircle

    def __post_init__(self):
        if self.d <= 0:
            raise GeometryError("d must be positive")
        if not (0.0 < self.alpha < math.pi / 2.0):
            raise GeometryError("alpha must lie in (0, pi/2)")
        if self.n_arc < 5:
            raise GeometryError("n_arc must be at least 5")


@dataclass(frozen=True)
class ThreeCircleSpec:
    d: float = 0.58
    r: float = 1.1507
    theta: float = 2.2895 / 2.0  # unit-arc half-angle (capped at the junction)
    beta: float = 1.30432 / 2.0  # big-arc half-angle (capped by the gap)
    g: float = 0.0065            # shielded gap, as arc length near a junction
    arc_density: float = 260.0   # sample points per unit arc length
    shield_margin: float = 1e-4

    def __post_init__(self):
        if self.d <= 0 or self.r <= 0:
            raise GeometryError("d and r must be positive")
        if self.theta <= 0 or self.beta <= 0 or self.g < 0:
            raise GeometryError("theta and beta must be positive, g nonnegative")
        if self.arc_density <= 0 or self.shield_margin <= 0:
            raise GeometryError("arc_density and shield_margin must be positive")


@dataclass(frozen=True)
class ConstructionOutput:
    points: PointSet
    triangulation: Triangulation
    p: int
    q: int
    predicted_dilation: float


# --------------------------------------------------------------------------
# Funnel / strip ladders
# --------------------------------------------------------------------------

def _ladder(side_a, side_b):
    """Zigzag-triangulate between two chains sorted by a shared key.

    side_a and side_b are lists of (index, key); ties take side_a first.
    Returns the triangles, in either orientation, the last vertex on each
    side, and the pair of keys reached before the first rung and after
    each one.
    """
    (la, ka), (lb, kb) = side_a[0], side_b[0]
    tris = []
    frontiers = [(ka, kb)]
    ia = ib = 1
    while ia < len(side_a) or ib < len(side_b):
        take_a = ib >= len(side_b) or (
            ia < len(side_a) and side_a[ia][1] <= side_b[ib][1]
        )
        if take_a:
            v, ka = side_a[ia]
            ia += 1
            tris.append((la, v, lb))
            la = v
        else:
            v, kb = side_b[ib]
            ib += 1
            tris.append((la, v, lb))
            lb = v
        frontiers.append((ka, kb))
    return tris, (la, lb), frontiers


def _funnel(mark, side_a, side_b, terminal=None, check_rungs=False):
    """Zigzag-triangulate a convex chain pair relative to a mark vertex.

    side_a and side_b are lists of (index, boundary distance from mark)
    sorted ascending, excluding the mark and the optional shared terminal.
    Every chord produced connects the two sides, so boundary paths from the
    mark stay shortest; with check_rungs each chord is validated against
    the arc-versus-detour inequality (angles measured on a unit circle).
    The triangles come in either orientation.
    """
    if not side_a or not side_b:
        raise GeometryError("funnel needs points on both sides of the mark")
    rungs, (la, lb), frontiers = _ladder(side_a, side_b)
    tris = [(mark, side_a[0][0], side_b[0][0])] + rungs
    if terminal is not None:
        tris.append((la, terminal, lb))

    if check_rungs:
        used = frontiers if terminal is not None else frontiers[:-1]
        for ka, kb in used:
            theta = ka + kb
            if not (
                arc_beats_detour(ka, theta) and arc_beats_detour(kb, theta)
            ):
                raise SparseSamplingError(
                    f"chord at arc distances ({ka:.6f}, {kb:.6f}) beats the "
                    "boundary; increase the sampling density"
                )
    return tris


def _linspace(a: float, b: float, n_intervals: int) -> list[float]:
    """n_intervals+1 evenly spaced values with exact endpoints."""
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    h = (b - a) / n_intervals
    vals = [a + k * h for k in range(n_intervals)]
    vals.append(b)
    return vals


def _mirrored_arcs(d, mark, end, k_top, k_bot, strip, joined, extra=()):
    """Two unit arcs mirrored through the origin, and a strip between them.

    The left arc (centre (-d/2, 0), angle t off the negative x-axis, t > 0
    above it) runs from t = mark to t = end in k_top steps and to t = -end
    in k_bot steps.  strip is a (top, bottom) pair of point lists in
    ascending x.  Points are numbered p, left top, left bottom, q, right
    top, right bottom, strip top, strip bottom, extra; a repeated point
    keeps its first index.

    Returns the point set, the pair (p, q), the vertex sets of the left
    arc, right arc and strip, and their triangles: a checked funnel on each
    arc and a ladder across the strip keyed by x, which when joined runs
    between the arcs' ends and counts them in the strip family.
    """
    coords: list[tuple[float, float]] = []
    index_of: dict[tuple[float, float], int] = {}

    def add(x: float, y: float) -> int:
        if (x, y) not in index_of:
            index_of[(x, y)] = len(coords)
            coords.append((x, y))
        return index_of[(x, y)]

    top_t = _linspace(mark, end, k_top)[1:]
    bot_t = _linspace(mark, -end, k_bot)[1:]
    left = [(-d / 2.0 - math.cos(t), math.sin(t)) for t in [mark] + top_t + bot_t]
    keys = [t - mark for t in top_t] + [mark - t for t in bot_t]

    arcs, funnels = [], []
    for sign in (1.0, -1.0):
        ids = [add(sign * x, sign * y) for x, y in left]
        chains = list(zip(ids[1:], keys))
        funnels += _funnel(ids[0], chains[:k_top], chains[k_top:], check_rungs=True)
        arcs.append(ids)
    sides = [[(add(x, y), x) for x, y in side] for side in strip]
    for s in extra:
        add(s.x, s.y)

    families = [set(arcs[0]), set(arcs[1]), {i for side in sides for i, _ in side}]
    if joined:
        # The top row ends at the left arc's top end and at the mirror of
        # its bottom end; the bottom row the other way round.
        rows = zip(sides, (arcs[0][k_top], arcs[0][-1]), (arcs[1][-1], arcs[1][k_top]))
        for side, a, b in rows:
            inner = [e for e in side if e[0] not in (a, b)]
            side[:] = [(a, coords[a][0]), *inner, (b, coords[b][0])]
            families[2] |= {a, b}
    pair = (arcs[0][0], arcs[1][0])
    return PointSet(coords), pair, families, funnels + _ladder(*sides)[0]


# --------------------------------------------------------------------------
# Chew's circle construction
# --------------------------------------------------------------------------

def generate_chew(spec: ChewSpec) -> ConstructionOutput:
    """Evenly spaced circle points with the ladder triangulation.

    The marked pair is antipodal (indices 0 and n/2); the shortest path
    between them follows one semicircle, giving dilation (n/2)*sin(pi/n).
    """
    n = spec.n
    pts = [
        Point2(math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    ]
    half = n // 2
    step = 2.0 * math.pi / n
    side_a = [(k, k * step) for k in range(1, half)]
    side_b = [(n - k, k * step) for k in range(1, half)]
    tris = _funnel(0, side_a, side_b, terminal=half)
    ps = PointSet(tuple(pts))
    return ConstructionOutput(
        points=ps,
        triangulation=Triangulation(_turn_ccw(ps.coords, tris)[0]),
        p=0,
        q=half,
        predicted_dilation=half * math.sin(math.pi / n),
    )


# --------------------------------------------------------------------------
# Two-semicircle construction (convex position)
# --------------------------------------------------------------------------

def _split_intervals(total: int, short_frac: float) -> tuple[int, int]:
    k = round(total * short_frac)
    k = max(1, min(total - 1, k))
    return k, total - k


def generate_two_semicircle(spec: TwoSemicircleSpec) -> ConstructionOutput:
    """Convex-position construction on two unit semicircles.

    Each semicircle is sampled anchored at its marked point and carries a
    funnel ladder; the middle rectangle (a strip with no points) takes the
    diagonal that leaves the marked crossing path at its nominal length.
    """
    d, alpha = spec.d, spec.alpha
    half_pi = math.pi / 2.0
    n_top, n_bot = _split_intervals(spec.n_arc - 1, (half_pi - alpha) / math.pi)
    ps, (p, q), _, tris = _mirrored_arcs(d, alpha, half_pi, n_top, n_bot, ([], []), True)
    return ConstructionOutput(
        points=ps,
        triangulation=Triangulation(_turn_ccw(ps.coords, tris)[0]),
        p=p,
        q=q,
        predicted_dilation=closed_form_t(d, alpha)[1],
    )


# --------------------------------------------------------------------------
# Three-circle construction (general position, shield points)
# --------------------------------------------------------------------------

def shield_position(
    unit_center: Point2, junction: Point2, big: Circle, margin: float
) -> Point2:
    """Place a shield point on the ray from unit_center through the junction.

    The point is pushed outward until the tangent path around it exceeds the
    boundary path between the tangency points by about ``margin`` (always
    within (0, 2*margin]); the root is found by bisection to 1e-12, or to
    adjacent floats where those lie farther apart.
    """
    if margin <= 0:
        raise GeometryError("margin must be positive")
    r_u = dist(junction, unit_center)
    if r_u <= 0:
        raise ShieldPlacementError("junction coincides with the unit center")
    if abs(dist(junction, big.center) - big.radius) > 1e-6 * big.radius:
        raise ShieldPlacementError("junction does not lie on the big circle")
    ux = (junction.x - unit_center.x) / r_u
    uy = (junction.y - unit_center.y) / r_u

    # Direction of the big-circle arc away from this junction: the component
    # of the junction radius orthogonal to the line of centers.
    axx = unit_center.x - big.center.x
    axy = unit_center.y - big.center.y
    axn = math.hypot(axx, axy)
    if axn == 0:
        raise ShieldPlacementError("concentric circles")
    jx = junction.x - big.center.x
    jy = junction.y - big.center.y
    perp = jx * (-axy / axn) + jy * (axx / axn)
    if abs(perp) <= 1e-9 * big.radius:
        raise ShieldPlacementError("tangent circle configuration")
    psi_j = math.atan2(jy, jx)
    # The big arc departs the junction toward its midpoint, which lies on
    # the junction's side of the line of centers.
    mid_angle = math.atan2(perp * (axx / axn), -perp * (axy / axn))
    delta = (mid_angle - psi_j + math.pi) % (2.0 * math.pi) - math.pi
    arc_sign = 1.0 if delta > 0 else -1.0

    def excess(sigma: float) -> float:
        s = Point2(junction.x + sigma * ux, junction.y + sigma * uy)
        du = dist(s, unit_center)
        db = dist(s, big.center)
        if du <= r_u or db <= big.radius:
            return -margin  # inside: certainly not longer
        tan_u = math.sqrt(du * du - r_u * r_u)
        a_u = math.acos(r_u / du)
        tan_b = math.sqrt(db * db - big.radius * big.radius)
        a_b = math.acos(big.radius / db)
        psi_s = math.atan2(s.y - big.center.y, s.x - big.center.x)
        psi_tc = psi_s + arc_sign * a_b
        arc_b = big.radius * abs(
            (psi_tc - psi_j + math.pi) % (2.0 * math.pi) - math.pi
        )
        return (tan_u + tan_b) - (r_u * a_u + arc_b)

    lo = 0.0
    hi = max(margin, 1e-6)
    grow = 0
    while excess(hi) < margin:
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise ShieldPlacementError("no bracket: tangent path never exceeds margin")
    if not math.isfinite(excess(hi)):
        raise ShieldPlacementError("margin too large: the tangent path overflows")
    if excess(lo) > margin:
        raise ShieldPlacementError("no sign change in the bisection bracket")
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):  # far out, adjacent floats lie more than 1e-12 apart
            break
        if excess(mid) < margin:
            lo = mid
        else:
            hi = mid
    sigma = hi  # excess(hi) >= margin > 0, and <= 2*margin by continuity
    return Point2(junction.x + sigma * ux, junction.y + sigma * uy)


def generate_three_circle(spec: ThreeCircleSpec) -> ConstructionOutput:
    """General-position construction on three circles with shield points.

    Unit circles sit at (+-d/2, 0); the big circle (radius r) is centered at
    their midpoint.  Unit arcs run junction to junction, the big circle's
    arcs stop a gap short of each junction, and a shield point guards each
    junction from outside shortcuts.  The marked points are placed so the
    boundary route and the cheapest crossing route balance.
    """
    d, r = spec.d, spec.r

    xj = (1.0 - r * r - d * d / 4.0) / d
    yj_sq = r * r - xj * xj
    if yj_sq <= 0 or abs(xj + d / 2.0) >= 1.0:
        raise GeometryError("the unit circles do not intersect the big circle")
    yj = math.sqrt(yj_sq)

    theta_j = math.acos(-(xj + d / 2.0))   # junction angle off the -x axis
    psi_j = math.atan2(yj, xj)             # junction angle seen from center
    beta_j = psi_j - math.pi / 2.0
    theta_eff = min(spec.theta, theta_j)
    beta_eff = min(spec.beta, beta_j - spec.g / r)
    if beta_eff <= 0:
        raise GeometryError("gap leaves no big-circle arc")

    phi = math.sin(theta_eff)  # balance of boundary route vs cheapest crossing
    if not (0.0 < phi < theta_eff):
        raise GeometryError("marked point falls outside the unit arc")

    density = spec.arc_density
    k_top = max(1, round(density * (theta_eff - phi)))
    k_bot = max(1, round(density * (theta_eff + phi)))
    m_big = max(2, round(density * 2.0 * beta_eff * r))

    # Big-circle arcs, left-to-right (descending angle on top).
    big = [(r * math.cos(a), r * math.sin(a))
           for a in _linspace(math.pi / 2.0 + beta_eff, math.pi / 2.0 - beta_eff, m_big - 1)]
    circle = Circle(Point2(0.0, 0.0), r)
    shields = [
        shield_position(Point2(sx * -d / 2.0, 0.0), Point2(sx * xj, sy * yj), circle,
                        spec.shield_margin)
        for sx in (1.0, -1.0) for sy in (1.0, -1.0)
    ]
    # The junction samples lie on the big circle as well, so when the unit
    # arcs reach them they join the big circle's cocircular family and the
    # strip polygon runs junction to junction.
    ps, (p, q), families, ladders = _mirrored_arcs(
        d, phi, theta_eff, k_top, k_bot, (big, [(x, -y) for x, y in big]),
        theta_eff == theta_j, shields,
    )

    # Replace each circle's cocircular block with its route-preserving ladder.
    built = delaunay(ps)
    block = np.zeros(len(built), dtype=bool)
    for ids in families:
        block |= np.isin(built.array, list(ids)).all(axis=1)
    tris = built.array[~block].tolist() + ladders

    # Boundary route: unit arc to the junction, gap hop, big arc, and mirror.
    hop = dist(Point2(-d / 2.0 - math.cos(theta_eff), math.sin(theta_eff)), Point2(*big[0]))
    route = 2.0 * (theta_eff + hop + r * beta_eff)
    ell = dist(ps[p], ps[q])

    return ConstructionOutput(
        points=ps,
        triangulation=Triangulation(_turn_ccw(ps.coords, tris)[0]),
        p=p,
        q=q,
        predicted_dilation=route / ell,
    )
