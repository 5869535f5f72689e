"""Command-line front end.

Subcommands: construct, dilation, sweep, verify, random, plant.
Exit codes: 0 success, 1 domain failure (invalid triangulation or an
--assert-bound not met) or a stdout closed early, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import constructions as cons
from . import experiments as exp
from .dilation import (
    graph_from_triangulation,
    max_dilation,
    pair_dilation,
    pairs_to_csv,
    report_to_json,
)
from .geom import GeometryError
from .svg import render_svg
from .triangulation import (
    PointSet,
    TriangulationStructureError,
    _structural_check,
    _violation_blocks,
    delaunay,
    make_unique_delaunay,
    points_from_json,
    points_to_json,
    triangulation_from_json,
    triangulation_to_json,
)

DEFAULT_SEED = 0
DEFAULT_VERIFY_EPS = 1e-9


class _DomainFailure(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e}") from e


class _UsageError(Exception):
    pass


def _write(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e}") from e


def _load_points(path: str) -> PointSet:
    try:
        return points_from_json(_read(path))
    except (ValueError, GeometryError) as e:
        raise _UsageError(f"malformed point file {path}: {e}") from e


def _load_triangulation(path: str):
    try:
        return triangulation_from_json(_read(path))
    except ValueError as e:
        raise _UsageError(f"malformed triangulation file {path}: {e}") from e


# --------------------------------------------------------------------------
# construct
# --------------------------------------------------------------------------

# Generators by name, looked up in ``constructions`` at call time, so that a
# wrapper put there (such as a tracer's) sees every call.
_GENERATORS = {
    "chew": (cons.ChewSpec, "generate_chew"),
    "convex": (cons.TwoSemicircleSpec, "generate_two_semicircle"),
    "three-circle": (cons.ThreeCircleSpec, "generate_three_circle"),
}


def _construction(kind: str, options: dict, invalid: str):
    """(spec, generator) of kind, one of argparse's choices.  The spec takes
    the options that name its fields and are not None; the others keep its
    defaults.  A bad parameter is the usage error "invalid <kind> <invalid>: ..."."""
    spec_type, name = _GENERATORS[kind]
    names = {f.name for f in dataclasses.fields(spec_type)}
    given = {k: v for k, v in options.items() if k in names and v is not None}
    # The specs check their parameters, so a bad one is an input error.
    try:
        return spec_type(**given), getattr(cons, name)
    except GeometryError as e:
        raise _UsageError(f"invalid {kind} {invalid}: {e}") from e


def _build_construction(args):
    n_arc = max(5, args.points // 2) if args.n_arc is None else args.n_arc
    options = {**vars(args), "n_arc": n_arc}
    return _construction(args.kind, options, "parameters")


def _guide_circles(spec) -> list[tuple[float, float, float]]:
    if isinstance(spec, cons.ChewSpec):
        return [(0.0, 0.0, 1.0)]
    circles = [(-spec.d / 2.0, 0.0, 1.0), (spec.d / 2.0, 0.0, 1.0)]
    if isinstance(spec, cons.ThreeCircleSpec):
        circles.append((0.0, 0.0, spec.r))
    return circles


def _cmd_construct(args) -> int:
    spec, generate = _build_construction(args)
    out = generate(spec)
    graph = graph_from_triangulation(out.points, out.triangulation)
    report = max_dilation(graph)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "points.json", points_to_json(out.points))
    _write(out_dir / "triangulation.json", triangulation_to_json(out.triangulation))
    _write(out_dir / "report.json", report_to_json(report))
    if args.svg:
        annotation = f"dilation {report.max_dilation:.7f}"
        _write(
            out_dir / "figure.svg",
            render_svg(
                out.points,
                out.triangulation,
                report,
                marked=(out.p, out.q),
                circles=_guide_circles(spec),
                annotation=annotation,
            ),
        )
    print(f"marked pair: ({out.p}, {out.q})")
    print(f"predicted dilation: {out.predicted_dilation!r}")
    print(f"computed dilation: {report.max_dilation!r}")
    print(f"witness: {report.witness}")
    if args.assert_bound is not None and not (
        report.max_dilation > args.assert_bound
    ):
        raise _DomainFailure(
            f"computed dilation {report.max_dilation!r} is not above "
            f"{args.assert_bound!r}"
        )
    return 0


# --------------------------------------------------------------------------
# dilation
# --------------------------------------------------------------------------

def _cmd_dilation(args) -> int:
    ps = _load_points(args.points)
    if args.pair and (args.pair[0] == args.pair[1] or not all(0 <= i < len(ps) for i in args.pair)):
        raise _UsageError(f"--pair needs two distinct indices in [0, {len(ps)})")
    if args.triangulation:
        tri = _load_triangulation(args.triangulation)
        try:
            _structural_check(ps, tri)
        except TriangulationStructureError as e:
            raise _UsageError(f"invalid triangulation: {e}") from e
    else:
        try:
            tri = delaunay(ps)
        except GeometryError as e:
            raise _DomainFailure(f"cannot triangulate: {e}") from e
    graph = graph_from_triangulation(ps, tri)
    if args.pair:
        u, v = args.pair
        value = pair_dilation(graph, u, v)
        print(f"pair ({u}, {v}) dilation: {value!r}")
        if args.out:
            _write(Path(args.out), json.dumps({"pair": [u, v], "dilation": value}))
        bound_value = value
    else:
        report = max_dilation(graph, include_pairs=bool(args.pairs_csv))
        print(f"max dilation: {report.max_dilation!r}")
        print(f"witness: {report.witness}")
        print(f"path: {list(report.witness_path)}")
        if args.out:
            _write(Path(args.out), report_to_json(report))
        if args.pairs_csv:
            _write(Path(args.pairs_csv), pairs_to_csv(report))
        bound_value = report.max_dilation
    if args.assert_bound is not None and not (bound_value > args.assert_bound):
        raise _DomainFailure(
            f"dilation {bound_value!r} is not above {args.assert_bound!r}"
        )
    return 0


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    result = cons.sweep_d(args.d_min, args.d_max, args.step)
    csv = result.to_csv()
    if args.out:
        _write(Path(args.out), csv)
    else:
        sys.stdout.write(csv)
    print(f"argmax: d={result.argmax_d!r} t={result.argmax_t!r}")
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if not args.eps >= 0:  # also refuses NaN
        raise _UsageError(f"--eps must be a nonnegative number, not {args.eps!r}")
    ps = _load_points(args.points)
    tri = _load_triangulation(args.triangulation)
    # The count and the first 20 violations of is_valid_delaunay, without
    # holding them all: the convex 2000 construction has 1,002,796 at eps=0.
    count, first = 0, []
    try:
        for ti, pi, margins in _violation_blocks(ps, tri, args.eps):
            count += len(ti)
            keep = slice(20 - len(first))
            first += zip(ti[keep].tolist(), pi[keep].tolist(), margins[keep].tolist())
    except TriangulationStructureError as e:
        raise _UsageError(f"structurally invalid triangulation: {e}") from e
    if not count:
        print(f"valid at eps={args.eps!r}")
        return 0
    print(f"INVALID at eps={args.eps!r}: {count} violation(s)")
    for tri_idx, pt_idx, margin in first:
        print(f"  triangle {tri_idx} contains point {pt_idx} (margin {margin:.3e})")
    raise _DomainFailure("triangulation violates the empty-circumcircle property")


# --------------------------------------------------------------------------
# random / plant
# --------------------------------------------------------------------------

def _cmd_random(args) -> int:
    try:
        density = exp.density_from_name(args.dist)
    except ValueError as e:
        raise _UsageError(str(e)) from e
    try:
        ns = [int(s) for s in args.ns.split(",") if s]
    except ValueError as e:
        raise _UsageError(f"bad --ns list: {e}") from e
    if any(n < 3 for n in ns):
        raise _UsageError("--ns sizes must be at least 3")
    if ns != sorted(set(ns)):
        raise _UsageError("--ns sizes must be strictly increasing")
    result = exp.dilation_trend(density, ns, trials=args.trials, seed=args.seed)
    csv = result.to_csv()
    if args.out:
        _write(Path(args.out), csv)
    else:
        sys.stdout.write(csv)
    if args.summary:
        _write(Path(args.summary), result.summary_json())
    medians = result.medians()
    print("medians: " + ", ".join(f"n={n}: {m:.6f}" for n, m in medians.items()))
    return 0


def _planted_config(kind: str, args) -> PointSet:
    if kind == "chew":
        options = {"n": args.config_n}
    elif kind == "convex":
        options = {"n_arc": max(5, args.config_n // 2)}
    else:
        options = {"arc_density": 60.0}
    spec, generate = _construction(kind, options, "configuration")
    out = generate(spec)
    coords = make_unique_delaunay(out.points, out.triangulation, budget=1e-6).coords
    low = coords.min(axis=0)
    s = 0.8 / (coords.max(axis=0) - low).max()
    return PointSet(0.1 + s * (coords - low))


def _cmd_plant(args) -> int:
    config = _planted_config(args.config, args)
    tri = delaunay(config)
    config_dil = max_dilation(graph_from_triangulation(config, tri)).max_dilation
    delta = exp.find_stable_radius(config, tri, trials=10, seed=args.seed)
    spec = exp.PlantSpec(
        config=config, ball_radius=delta, n_outside=args.n_outside
    )
    density = exp.UniformSquare((-3.0, -3.0), (4.0, 4.0))
    pts = exp.plant(spec, density, seed=args.seed)
    report = max_dilation(graph_from_triangulation(pts, delaunay(pts)))
    print(f"configuration dilation: {config_dil!r} (ball radius {delta:.3e})")
    print(f"planted dilation: {report.max_dilation!r} over {len(pts)} points")
    if args.out:
        _write(Path(args.out), points_to_json(pts))
    if args.assert_bound is not None and not (
        report.max_dilation > args.assert_bound
    ):
        raise _DomainFailure(
            f"planted dilation {report.max_dilation!r} is not above "
            f"{args.assert_bound!r}"
        )
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _at_least(low: int):
    """An argparse type: an integer of at least low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaunay-dilation",
        description="Build and measure worst-case Delaunay dilation instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="generate a construction and its files")
    c.add_argument("kind", choices=["chew", "convex", "three-circle"])
    c.add_argument("--n", type=int, default=16, help="point count (chew)")
    c.add_argument("--d", type=float, default=None, help="circle separation")
    c.add_argument("--alpha", type=float, default=None, help="marker angle (convex)")
    c.add_argument("--points", type=int, default=222, help="total points (convex)")
    c.add_argument("--n-arc", type=int, default=None, help="points per semicircle")
    c.add_argument("--r", type=float, default=None, help="big radius (three-circle)")
    c.add_argument("--theta", type=float, default=None)
    c.add_argument("--beta", type=float, default=None)
    c.add_argument("--g", type=float, default=None)
    c.add_argument("--arc-density", type=float, default=None)
    c.add_argument("--shield-margin", type=float, default=None)
    c.add_argument("--out-dir", default=".")
    c.add_argument("--svg", action=argparse.BooleanOptionalAction, default=True)
    c.add_argument("--assert-bound", type=float, default=None)
    c.set_defaults(func=_cmd_construct)

    d = sub.add_parser("dilation", help="dilation report for a point file")
    d.add_argument("points")
    d.add_argument("--triangulation", default=None)
    d.add_argument("--pair", type=int, nargs=2, metavar=("I", "J"), default=None)
    d.add_argument("--out", default=None)
    d.add_argument("--pairs-csv", default=None)
    d.add_argument("--assert-bound", type=float, default=None)
    d.set_defaults(func=_cmd_dilation)

    s = sub.add_parser("sweep", help="closed-form dilation sweep over d")
    s.add_argument("--d-min", type=float, required=True)
    s.add_argument("--d-max", type=float, required=True)
    s.add_argument("--step", type=float, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_sweep)

    v = sub.add_parser("verify", help="validate the empty-circumcircle property")
    v.add_argument("points")
    v.add_argument("triangulation")
    v.add_argument("--eps", type=float, default=DEFAULT_VERIFY_EPS)
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("random", help="dilation trend over random samples")
    r.add_argument("--dist", default="uniform-square")
    r.add_argument("--ns", default="50,200,1000")
    r.add_argument("--trials", type=_at_least(1), default=20)
    r.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    r.add_argument("--out", default=None)
    r.add_argument("--summary", default=None)
    r.set_defaults(func=_cmd_random)

    p = sub.add_parser("plant", help="embed a worst-case configuration")
    p.add_argument("--config", default="convex",
                   choices=["chew", "convex", "three-circle"])
    p.add_argument("--config-n", type=int, default=64)
    p.add_argument("--n-outside", type=_at_least(0), default=0)
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.add_argument("--assert-bound", type=float, default=None)
    p.set_defaults(func=_cmd_plant)

    return parser


def _run(args) -> int:
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (_DomainFailure, GeometryError) as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "sweep":
        if args.step <= 0:
            parser.error("--step must be positive")
        if not 0 <= args.d_min <= args.d_max:
            parser.error("need 0 <= --d-min <= --d-max")
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe fails here rather than at exit
    except BrokenPipeError:
        # The reader closed stdout early (``... | head``).  Point it at
        # devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
