import json
import logging
import math
import re
import signal
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from delaunay_dilation.constructions import TwoSemicircleSpec, generate_two_semicircle
from delaunay_dilation.dilation import graph_from_triangulation, max_dilation
from delaunay_dilation.experiments import (
    Gaussian,
    Mixture,
    PlantSpec,
    UniformDisk,
    UniformSquare,
    density_from_name,
    dilation_trend,
    find_stable_radius,
    invariance_check,
    plant,
    sample,
)
from delaunay_dilation import cli, experiments, triangulation
from delaunay_dilation.geom import GeometryError, Point2, dist
from delaunay_dilation.triangulation import PointSet, delaunay, make_unique_delaunay


@contextmanager
def time_limit(seconds):
    """Fail the test with TimeoutError if the block runs longer than this."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def scaled_two_semicircle_config(n_arc=31):
    out = generate_two_semicircle(TwoSemicircleSpec(n_arc=n_arc))
    unique = make_unique_delaunay(out.points, out.triangulation, budget=1e-6)
    xs = [p.x for p in unique]
    ys = [p.y for p in unique]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    s = 0.8 / span
    return PointSet(
        tuple(
            Point2(0.1 + s * (p.x - min(xs)), 0.1 + s * (p.y - min(ys)))
            for p in unique
        )
    )


class TestSample:
    def test_uniform_square_support(self):
        ps = sample(UniformSquare(), 100, seed=7)
        assert all(0.0 <= p.x <= 1.0 and 0.0 <= p.y <= 1.0 for p in ps)

    def test_deterministic(self):
        a = sample(UniformSquare(), 64, seed=3)
        b = sample(UniformSquare(), 64, seed=3)
        assert all(p == q for p, q in zip(a, b))

    def test_gaussian_mean_within_standard_error(self):
        n = 10_000
        ps = sample(Gaussian(mean=(2.0, -1.0), sigma=0.5), n, seed=12)
        xs = np.array([p.x for p in ps])
        ys = np.array([p.y for p in ps])
        bound = 5 * 0.5 / math.sqrt(n)
        assert abs(xs.mean() - 2.0) < bound
        assert abs(ys.mean() + 1.0) < bound

    def test_disk_support(self):
        ps = sample(UniformDisk(center=(1.0, 1.0), radius=2.0), 300, seed=5)
        assert all(dist(p, Point2(1.0, 1.0)) <= 2.0 + 1e-12 for p in ps)

    def test_mixture(self):
        mix = Mixture(
            components=(Gaussian((0, 0), 0.1), Gaussian((10, 10), 0.1)),
            weights=(0.5, 0.5),
        )
        ps = sample(mix, 200, seed=8)
        near_origin = sum(1 for p in ps if p.x < 5)
        assert 40 < near_origin < 160

    def test_density_names(self):
        assert isinstance(density_from_name("uniform-square"), UniformSquare)
        with pytest.raises(ValueError):
            density_from_name("cauchy")

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            sample(UniformSquare(), 2, seed=0)

    def test_one_draw_without_duplicates(self):
        # Valid densities consume the generator as one draw of n points.
        ps = sample(UniformSquare(), 50, seed=4)
        expect = np.random.default_rng(4).random((50, 2))
        assert ps.coords.tolist() == expect.tolist()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Gaussian(sigma=0.0),
            lambda: Gaussian(sigma=-1.0),
            lambda: Gaussian(sigma=math.nan),
            lambda: Gaussian(sigma=math.inf),
            lambda: Gaussian(mean=(math.nan, 0.0)),
            lambda: UniformDisk(radius=0.0),
            lambda: UniformDisk(radius=math.inf),
            lambda: UniformDisk(center=(0.0, math.inf)),
            lambda: UniformSquare(low=(0.0, 0.0), high=(0.0, 1.0)),
            lambda: UniformSquare(low=(1.0, 0.0), high=(0.0, 1.0)),
            lambda: UniformSquare(high=(math.inf, 1.0)),
            lambda: Mixture((Gaussian(), Gaussian()), (1.5, -0.5)),
            lambda: Mixture((Gaussian(),), (math.nan,)),
        ],
        ids=["sigma-zero", "sigma-negative", "sigma-nan", "sigma-inf", "mean-nan",
             "radius-zero", "radius-inf", "center-inf", "square-flat",
             "square-reversed", "square-inf", "weight-negative", "weight-nan"],
    )
    def test_invalid_density_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_zero_sigma_rejected_without_hanging(self):
        with time_limit(10), pytest.raises(ValueError):
            sample(Gaussian(sigma=0.0), 5, 0)

    def test_repeating_draws_raise(self):
        # A square one subnormal wide has at most four distinct points.
        tiny = UniformSquare(low=(0.0, 0.0), high=(5e-324, 5e-324))
        with time_limit(10), pytest.raises(ValueError, match="repeated"):
            sample(tiny, 5, seed=0)


class TestDilationTrend:
    def test_single_triangle_rows(self):
        result = dilation_trend(UniformSquare(), [3], trials=6, seed=1)
        assert all(row[3] == 1.0 for row in result.rows)

    def test_medians_nondecreasing_small(self):
        result = dilation_trend(UniformSquare(), [20, 60, 150], trials=8, seed=42)
        med = list(result.medians().values())
        assert med == sorted(med)

    def test_bitwise_reproducible(self):
        a = dilation_trend(UniformSquare(), [10, 30], trials=4, seed=9)
        b = dilation_trend(UniformSquare(), [10, 30], trials=4, seed=9)
        assert a.rows == b.rows

    def test_requires_increasing_ns(self):
        with pytest.raises(ValueError):
            dilation_trend(UniformSquare(), [50, 50], trials=2, seed=0)

    def test_csv_and_summary(self):
        result = dilation_trend(UniformSquare(), [10], trials=3, seed=2)
        lines = result.to_csv().splitlines()
        assert lines[0] == "n,trial,seed,max_dilation,witness_i,witness_j"
        assert len(lines) == 4
        doc = json.loads(result.summary_json())
        assert "medians" in doc and "10" in doc["medians"]

    def test_all_rows_at_least_one(self):
        result = dilation_trend(UniformSquare(), [12, 25], trials=5, seed=3)
        assert all(row[3] >= 1.0 for row in result.rows)

    @pytest.mark.slow
    def test_regression_n2000_max_above_1_3(self):
        result = dilation_trend(UniformSquare(), [2000], trials=20, seed=42)
        assert result.maxima()[2000] > 1.3


class TestPlant:
    def _square_config(self):
        return PointSet.from_coords([(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)])

    def test_zero_radius_places_exactly(self):
        spec = PlantSpec(
            config=self._square_config(),
            ball_radius=0.0,
            box_scale=2.0,
            box_offset=(1.0, 1.0),
            n_outside=0,
        )
        pts = plant(spec, UniformSquare((-5, -5), (5, 5)), seed=4)
        assert (pts[0].x, pts[0].y) == (2.0 * 0.3 + 1.0, 2.0 * 0.3 + 1.0)

    def test_no_outside_points(self):
        spec = PlantSpec(config=self._square_config(), ball_radius=0.01)
        pts = plant(spec, UniformSquare((-5, -5), (5, 5)), seed=4)
        assert len(pts) == 4

    def test_counts_and_strict_outside(self):
        spec = PlantSpec(
            config=self._square_config(), ball_radius=0.01, n_outside=50
        )
        pts = plant(spec, UniformSquare((-2, -2), (3, 3)), seed=6)
        assert len(pts) == 54
        for p in list(pts)[4:]:
            assert not (0.0 <= p.x <= 1.0 and 0.0 <= p.y <= 1.0)

    def test_perturbation_within_ball(self):
        config = self._square_config()
        spec = PlantSpec(config=config, ball_radius=0.05)
        pts = plant(spec, UniformSquare((-5, -5), (5, 5)), seed=9)
        for x, p in zip(config, pts):
            assert dist(x, p) <= 0.05 + 1e-12

    def test_rejection_failure(self):
        spec = PlantSpec(
            config=self._square_config(), ball_radius=0.01, n_outside=10
        )
        with pytest.raises(GeometryError):
            plant(spec, UniformSquare((0.0, 0.0), (1.0, 1.0)), seed=1)

    def test_ball_containment_validated(self):
        with pytest.raises(ValueError):
            PlantSpec(
                config=PointSet.from_coords([(0.05, 0.5), (0.6, 0.5)]),
                ball_radius=0.1,
            )
        with pytest.raises(ValueError):
            PlantSpec(
                config=PointSet.from_coords([(0.4, 0.5), (0.45, 0.5)]),
                ball_radius=0.1,
            )

    def test_planted_configuration_keeps_dilation(self):
        config = scaled_two_semicircle_config(n_arc=31)
        tri = delaunay(config)
        base = max_dilation(graph_from_triangulation(config, tri)).max_dilation
        assert base > 1.57
        delta = find_stable_radius(config, tri, trials=10, seed=0)
        density = UniformSquare((-3, -3), (4, 4))
        for n_outside in (0, 100):
            spec = PlantSpec(
                config=config, ball_radius=delta, n_outside=n_outside
            )
            pts = plant(spec, density, seed=11)
            rep = max_dilation(graph_from_triangulation(pts, delaunay(pts)))
            assert rep.max_dilation >= base - 1e-3
            assert rep.max_dilation >= 1.57


def dense_closest_sq(coords):
    """The closest-pair expression find_stable_radius once took over all n^2 pairs."""
    with np.errstate(over="ignore"):
        d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return float(d2.min())


CLOSEST_PAIR_INPUTS = {
    "plant_convex": lambda: cli._planted_config("convex", SimpleNamespace(config_n=64)),
    "plant_three_circle": lambda: cli._planted_config("three-circle", None),
    "uniform2000": lambda: sample(UniformSquare(), 2000, seed=1),
    # Every point has up to four nearest neighbours: many exact ties.
    "grid": lambda: PointSet.from_coords(
        [(0.1 * x, 0.1 * y) for x in range(40) for y in range(40)]
    ),
    # Every square underflows to 0, so every pair is a closest one.
    "grid_1e-170": lambda: PointSet.from_coords(
        [(1e-170 * x, 1e-170 * y) for x in range(10) for y in range(10)]
    ),
    # The closest squared distance is subnormal.
    "uniform100_1e-158": lambda: _scaled(sample(UniformSquare(), 100, seed=1), 1e-158),
    # The extent is past 2**500, where the tree refuses the points and
    # every pair is evaluated.
    "uniform100_1e154": lambda: _scaled(sample(UniformSquare(), 100, seed=1), 1e154),
    # Every square overflows: the closest one is inf.
    "uniform100_1e300": lambda: _scaled(sample(UniformSquare(), 100, seed=1), 1e300),
}


def _scaled(ps, factor):
    return PointSet.from_coords(ps.coords * factor)


class TestFindStableRadius:
    @pytest.mark.parametrize("name", list(CLOSEST_PAIR_INPUTS))
    def test_closest_pair_is_the_dense_one_bit_for_bit(self, name):
        coords = CLOSEST_PAIR_INPUTS[name]().coords
        tracemalloc.start()
        try:
            got = experiments._closest_sq_distance(coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == dense_closest_sq(coords).hex()
        # The dense (n, n, 2) difference array alone is 64 MB at n=2000.
        # The inputs that take every pair have 100 points.
        assert peak < 2 * 2**20

    def test_debug_line_counts_the_trials(self, caplog):
        config = scaled_two_semicircle_config(n_arc=31)
        with caplog.at_level(logging.DEBUG, logger="delaunay_dilation.experiments"):
            delta = find_stable_radius(config, trials=10, seed=0)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "delaunay_dilation.experiments"]
        assert len(lines) == 1
        m = re.fullmatch(
            r"find_stable_radius n=(\d+): (\d+) radii tried, (\d+) trials run, "
            r"(\d+) certified, (\d+) rebuilt",
            lines[0],
        )
        assert m, lines[0]
        n, radii, run, certified, rebuilt = map(int, m.groups())
        assert n == len(config)
        assert delta == 0.25 * math.sqrt(dense_closest_sq(config.coords)) / 2.0**radii
        # Every radius but the last fails at some trial; the last runs all.
        assert radii - 1 + 10 <= run <= radii * 10
        assert certified + rebuilt == run
        assert rebuilt == 0


class TestInvarianceCheck:
    def test_cocircularity_decided_once(self, monkeypatch):
        calls = []
        original = triangulation._has_exact_cocircularity

        def counting(ps, t):
            calls.append(1)
            return original(ps, t)

        for module in (triangulation, experiments):
            monkeypatch.setattr(module, "_has_exact_cocircularity", counting, raising=False)
        assert invariance_check(sample(UniformSquare(), 40, seed=21), 2.0, (1.0, 0.0), seed=0)
        assert len(calls) == 1

    def test_identity(self):
        ps = sample(UniformSquare(), 40, seed=21)
        assert invariance_check(ps, 1.0, (0.0, 0.0), seed=0)

    def test_scale_translate(self):
        ps = sample(UniformSquare(), 50, seed=11)
        assert invariance_check(ps, 2.0, (5.0, -3.0), seed=0)

    def test_point_reflection(self):
        ps = sample(UniformSquare(), 50, seed=11)
        assert invariance_check(ps, -1.0, (0.0, 0.0), seed=0)

    def test_degenerate_rejected(self):
        square = PointSet.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(GeometryError):
            invariance_check(square, 2.0, (0.0, 0.0), seed=0)

    def test_zero_scale_rejected(self):
        ps = sample(UniformSquare(), 10, seed=2)
        with pytest.raises(ValueError):
            invariance_check(ps, 0.0, (0.0, 0.0), seed=0)

    def test_many_random_transforms(self):
        rng = np.random.default_rng(77)
        for k in range(25):
            ps = sample(UniformSquare(), 30, seed=1000 + k)
            a = float(rng.choice([-1, 1]) * rng.uniform(0.1, 10))
            b = (float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
            assert invariance_check(ps, a, b, seed=k)
