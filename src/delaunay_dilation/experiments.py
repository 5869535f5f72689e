"""Randomized experiments: sampling, planted configurations, dilation trends.

The executable content of the random-point-set story: dilation is invariant
under similarity transforms, a worst-case configuration planted inside a box
keeps its dilation no matter what lands outside, and the maximum dilation of
i.i.d. samples drifts upward with n.  Every run derives per-trial seeds from
(master seed, n, trial), so results are reproducible and schedule-free.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .geom import GeometryError
from .dilation import graph_from_triangulation, max_dilation
from .triangulation import (
    AllCollinearError,
    PointSet,
    Triangulation,
    _mix_seed,
    _repeats,
    _StabilityTrials,
    delaunay,
)

__all__ = [
    "UniformSquare",
    "UniformDisk",
    "Gaussian",
    "Mixture",
    "DensitySpec",
    "PlantSpec",
    "TrendResult",
    "density_from_name",
    "sample",
    "dilation_trend",
    "plant",
    "invariance_check",
    "find_stable_radius",
]

log = logging.getLogger(__name__)

_MAX_REJECTION_DRAWS = 10**6
# Redraw rounds before sample() gives up on a density that keeps repeating.
_MAX_SAMPLE_ROUNDS = 100


def _require_finite(name: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class UniformSquare:
    low: tuple[float, float] = (0.0, 0.0)
    high: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        _require_finite("low and high", *self.low, *self.high)
        if not all(lo < hi for lo, hi in zip(self.low, self.high)):
            raise ValueError("low must be below high in both coordinates")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo = np.asarray(self.low)
        hi = np.asarray(self.high)
        return lo + rng.random((n, 2)) * (hi - lo)


@dataclass(frozen=True)
class UniformDisk:
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        _require_finite("center and radius", *self.center, self.radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        r = self.radius * np.sqrt(rng.random(n))
        a = 2.0 * math.pi * rng.random(n)
        return np.asarray(self.center) + np.stack(
            [r * np.cos(a), r * np.sin(a)], axis=1
        )


@dataclass(frozen=True)
class Gaussian:
    mean: tuple[float, float] = (0.0, 0.0)
    sigma: float = 1.0

    def __post_init__(self):
        _require_finite("mean and sigma", *self.mean, self.sigma)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray(self.mean) + self.sigma * rng.standard_normal((n, 2))


@dataclass(frozen=True)
class Mixture:
    components: tuple
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("components and weights must match and be nonempty")
        _require_finite("weights", *self.weights)
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        choice = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty((n, 2))
        for i, comp in enumerate(self.components):
            mask = choice == i
            if mask.any():
                out[mask] = comp.draw(rng, int(mask.sum()))
        return out


DensitySpec = UniformSquare | UniformDisk | Gaussian | Mixture


def density_from_name(name: str) -> DensitySpec:
    table = {
        "uniform-square": UniformSquare(),
        "uniform-disk": UniformDisk(),
        "gaussian": Gaussian(),
    }
    if name not in table:
        raise ValueError(
            f"unknown density {name!r}; expected one of {sorted(table)}"
        )
    return table[name]


def sample(density: DensitySpec, n: int, seed: int) -> PointSet:
    """n i.i.d. points from the density; exact duplicates are redrawn.

    Raises ValueError when duplicates remain after ``_MAX_SAMPLE_ROUNDS``
    rounds of redraws, as for a density with too few distinct values.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    rng = np.random.default_rng(seed)
    pts = np.empty((0, 2))
    for _ in range(_MAX_SAMPLE_ROUNDS):
        pts = np.concatenate([pts, density.draw(rng, n - len(pts))])
        pts = pts[~_repeats(pts)]
        if len(pts) == n:
            return PointSet(pts)
    raise ValueError(
        f"density repeated its draws: {len(pts)} distinct of {n} points "
        f"after {_MAX_SAMPLE_ROUNDS} rounds"
    )


@dataclass(frozen=True)
class TrendResult:
    rows: tuple[tuple[int, int, int, float, int, int], ...]
    # (n, trial, master seed, max dilation, witness i, witness j)
    thresholds: tuple[float, ...]

    def _by_n(self) -> list[tuple[int, list[float]]]:
        """The max dilations of each n, in trial order, by ascending n."""
        byn: dict[int, list[float]] = {}
        for n, _, _, dil, _, _ in self.rows:
            byn.setdefault(n, []).append(dil)
        return sorted(byn.items())

    def medians(self) -> dict[int, float]:
        return {n: float(np.median(v)) for n, v in self._by_n()}

    def maxima(self) -> dict[int, float]:
        return {n: max(v) for n, v in self._by_n()}

    def exceed_fractions(self) -> dict[int, dict[float, float]]:
        return {
            n: {
                thr: sum(1 for v in vals if v > thr) / len(vals)
                for thr in self.thresholds
            }
            for n, vals in self._by_n()
        }

    def to_csv(self) -> str:
        lines = ["n,trial,seed,max_dilation,witness_i,witness_j"]
        lines += [
            f"{n},{t},{s},{d!r},{wi},{wj}" for n, t, s, d, wi, wj in self.rows
        ]
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json.dumps(
            {
                "medians": {str(k): v for k, v in self.medians().items()},
                "maxima": {str(k): v for k, v in self.maxima().items()},
                "exceed_fractions": {
                    str(n): {f"{thr:g}": f for thr, f in d.items()}
                    for n, d in self.exceed_fractions().items()
                },
            }
        )


def dilation_trend(
    density: DensitySpec,
    ns: list[int],
    trials: int,
    seed: int,
    thresholds: tuple[float, ...] = (1.4, 1.5, math.pi / 2.0),
) -> TrendResult:
    """Max dilation of the Delaunay of i.i.d. samples, per (n, trial)."""
    if list(ns) != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("ns must be strictly increasing")
    rows = []
    for n in ns:
        for trial in range(trials):
            for attempt in range(16):
                pts = sample(density, n, _mix_seed(seed, n, trial, attempt))
                try:
                    tri = delaunay(pts)
                except AllCollinearError:
                    log.warning(
                        "degenerate sample (n=%d trial=%d); redrawing", n, trial
                    )
                    continue
                break
            else:
                raise GeometryError("could not draw a non-degenerate sample")
            report = max_dilation(graph_from_triangulation(pts, tri))
            rows.append(
                (n, trial, seed, report.max_dilation, *report.witness)
            )
    return TrendResult(rows=tuple(rows), thresholds=tuple(thresholds))


@dataclass(frozen=True)
class PlantSpec:
    """A worst-case configuration to embed inside a placed unit box."""

    config: PointSet          # configuration points inside the unit box
    ball_radius: float        # perturbation ball radius, unit-box units
    box_scale: float = 1.0
    box_offset: tuple[float, float] = (0.0, 0.0)
    n_outside: int = 0

    def __post_init__(self):
        if self.ball_radius < 0 or self.box_scale <= 0 or self.n_outside < 0:
            raise ValueError("bad plant parameters")
        delta = self.ball_radius
        coords = self.config.coords
        if not ((delta < coords) & (coords < 1 - delta)).all():
            raise ValueError("configuration balls must fit strictly inside the unit box")
        if len(coords) > 1 and math.sqrt(_closest_sq_distance(coords)) <= 2 * delta:
            raise ValueError("configuration balls must be disjoint")


def plant(spec: PlantSpec, density: DensitySpec, seed: int) -> PointSet:
    """Perturbed configuration in the box plus density draws outside it.

    Configuration point i becomes a uniform draw from the radius-delta ball
    around it, mapped through the box transform; the remaining points are
    rejection-sampled from the density conditioned on missing the box.
    """
    rng = np.random.default_rng(seed)
    a = spec.box_scale
    bx, by = spec.box_offset
    pts = []
    for x, y in spec.config.coords.tolist():
        r = spec.ball_radius * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        pts.append((a * (x + r * math.cos(ang)) + bx, a * (y + r * math.sin(ang)) + by))

    outside = np.empty((0, 2))
    draws = 0
    while len(outside) < spec.n_outside:
        batch = density.draw(rng, max(64, spec.n_outside))
        draws += len(batch)
        x, y = batch.T
        inside = (bx <= x) & (x <= bx + a) & (by <= y) & (y <= by + a)
        outside = np.concatenate([outside, batch[~inside]])[: spec.n_outside]
        if draws > _MAX_REJECTION_DRAWS:
            raise GeometryError(
                "rejection sampling failed: density concentrated inside the box"
            )
    return PointSet(np.concatenate([np.reshape(pts, (-1, 2)), outside]))


def invariance_check(ps: PointSet, a: float, b: tuple[float, float], seed: int) -> bool:
    """Max dilation is unchanged (1e-9 relative) under x -> a*x + b.

    Requires a non-degenerate input: exact cocircular ties or instability
    under tiny perturbation raise, since their Delaunay is not unique.
    """
    if a == 0:
        raise ValueError("scale factor must be nonzero")
    tri = delaunay(ps)
    trials = _StabilityTrials(ps, tri)
    if trials.cocircular:
        raise GeometryError(
            "point set has cocircular ties; perturb it before checking invariance"
        )
    span = np.ptp(ps.coords, axis=0).max()
    if not trials.stable(delta=1e-12 * span, trials=2, seed=seed):
        raise GeometryError(
            "point set is unstable under tiny perturbation; perturb it first"
        )
    base = max_dilation(graph_from_triangulation(ps, tri)).max_dilation

    moved = PointSet(a * ps.coords + np.asarray(b))
    tri2 = delaunay(moved)
    other = max_dilation(graph_from_triangulation(moved, tri2)).max_dilation
    return abs(other - base) <= 1e-9 * base


def _closest_sq_distance(coords: np.ndarray) -> float:
    """min over i != j of ((coords[i] - coords[j]) ** 2).sum(), bit for bit,
    in memory linear in n.

    A cKDTree gives the least distance m; the pairs within m (1 + 2**-20)
    are then evaluated with that expression.  The tree's squared distances
    are the expression's, so m is the square root of its minimum, rounded;
    the factor covers that rounding, also where the squares are subnormal
    or underflow to 0.  The tree refuses points whose squared extent
    overflows; for those every pair is evaluated.
    """
    from scipy.spatial import cKDTree

    with np.errstate(over="ignore"):
        if np.ptp(coords, axis=0).max() < 2.0**500:
            tree = cKDTree(coords)
            m = tree.query(coords, k=2)[0][:, 1].min()
            pairs = tree.query_pairs(m * (1 + 2**-20), output_type="ndarray")
        else:
            pairs = np.stack(np.triu_indices(len(coords), 1), axis=1)
        d2 = ((coords[pairs[:, 0]] - coords[pairs[:, 1]]) ** 2).sum(axis=1)
    return float(d2.min())


def find_stable_radius(
    ps: PointSet,
    tri: Triangulation | None = None,
    trials: int = 20,
    seed: int = 0,
) -> float:
    """Half the largest perturbation radius that passes stability_check.

    Halving search from a fraction of the smallest pairwise distance.  What
    every radius's trials share (the exact-cocircularity answer and the
    certificate's target arrays) is built once.  Logs one debug line with
    the radii tried, the trials run, the trials the certificate decided and
    those that fell back to rebuilding with delaunay.
    """
    if tri is None:
        tri = delaunay(ps)
    delta = 0.25 * math.sqrt(_closest_sq_distance(ps.coords))
    checks = _StabilityTrials(ps, tri)
    radii = 0
    try:
        for radii in range(1, 61):
            if checks.stable(delta, trials, seed):
                return delta / 2.0
            delta /= 2.0
        raise GeometryError("no stable perturbation radius found")
    finally:
        log.debug(
            "find_stable_radius n=%d: %d radii tried, %d trials run, "
            "%d certified, %d rebuilt",
            len(ps), radii, checks.run, checks.certified, checks.rebuilt,
        )
