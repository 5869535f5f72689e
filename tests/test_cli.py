import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from delaunay_dilation.cli import main
from delaunay_dilation.constructions import (
    ThreeCircleSpec,
    TwoSemicircleSpec,
    generate_three_circle,
    generate_two_semicircle,
)
from delaunay_dilation.triangulation import (
    PointSet,
    Triangulation,
    delaunay,
    is_valid_delaunay,
    perturb,
    points_from_json,
    points_to_json,
    triangulation_from_json,
    triangulation_to_json,
)

from test_builder import BAD_QHULL

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SRC = Path(__file__).resolve().parents[1] / "src"


def write_square(tmp_path, tris=None):
    ps = PointSet(SQUARE)
    ppath = tmp_path / "points.json"
    ppath.write_text(points_to_json(ps))
    tpath = None
    if tris is not None:
        tpath = tmp_path / "tri.json"
        tpath.write_text(triangulation_to_json(Triangulation(tris)))
    return ppath, tpath


def write_double_cover(tmp_path):
    """The pentagram fan: every Euler count holds, but it winds twice."""
    points, tris = BAD_QHULL["double_cover"]
    ppath = tmp_path / "points.json"
    ppath.write_text(points_to_json(PointSet(points)))
    tpath = tmp_path / "tri.json"
    tpath.write_text(triangulation_to_json(Triangulation(tris)))
    return ppath, tpath


class TestConstruct:
    def test_convex_222_bound(self, tmp_path, capsys):
        code = main(
            [
                "construct", "convex", "--d", "0.29", "--alpha", "1.0",
                "--points", "222", "--out-dir", str(tmp_path),
                "--assert-bound", "1.5810", "--no-svg",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        computed = float(out.split("computed dilation: ")[1].splitlines()[0])
        assert computed > 1.5810
        assert (tmp_path / "points.json").exists()
        assert (tmp_path / "triangulation.json").exists()

    @pytest.mark.parametrize(
        "argv, generate",
        [
            (["convex", "--points", "64"],
             lambda: generate_two_semicircle(TwoSemicircleSpec(n_arc=32))),
            (["convex", "--points", "64", "--alpha", "0.9"],
             lambda: generate_two_semicircle(TwoSemicircleSpec(alpha=0.9, n_arc=32))),
            (["three-circle", "--arc-density", "60"],
             lambda: generate_three_circle(ThreeCircleSpec(arc_density=60.0))),
            (["three-circle", "--arc-density", "60", "--r", "1.2", "--g", "0.01"],
             lambda: generate_three_circle(ThreeCircleSpec(r=1.2, g=0.01, arc_density=60.0))),
        ],
    )
    def test_unset_options_take_the_spec_defaults(self, argv, generate, tmp_path):
        assert main(["construct", *argv, "--out-dir", str(tmp_path), "--no-svg"]) == 0
        want = generate()
        assert points_from_json((tmp_path / "points.json").read_text()) == want.points
        assert triangulation_from_json((tmp_path / "triangulation.json").read_text()) == (
            want.triangulation
        )

    def test_chew_8(self, tmp_path, capsys):
        code = main(["construct", "chew", "--n", "8", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        computed = float(out.split("computed dilation: ")[1].splitlines()[0])
        assert computed == pytest.approx(1.53073, abs=1e-5)
        svg = (tmp_path / "figure.svg").read_text()
        assert "witness-path" in svg

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (["convex", "--points", "64", "--d", "0.29"], TwoSemicircleSpec(d=0.29)),
            (["three-circle", "--arc-density", "60"], ThreeCircleSpec(arc_density=60.0)),
        ],
        ids=["convex", "three-circle"],
    )
    def test_figure_draws_the_guide_circles(self, argv, spec, tmp_path):
        assert main(["construct", *argv, "--out-dir", str(tmp_path)]) == 0
        svg = (tmp_path / "figure.svg").read_text()
        _, y0, _, vh = map(float, re.search(r'viewBox="([^"]+)"', svg).group(1).split())
        # The guide circles are the dashed ones; the figure flips y about
        # the middle of the view box.
        circles = [
            (float(cx), 2.0 * y0 + vh - float(cy), float(r))
            for cx, cy, r in re.findall(
                r'<circle cx="([^"]+)" cy="([^"]+)" r="([^"]+)" fill="none" '
                r'stroke="#bbbbbb" stroke-dasharray=', svg
            )
        ]
        want = [(-spec.d / 2.0, 0.0, 1.0), (spec.d / 2.0, 0.0, 1.0)]
        if isinstance(spec, ThreeCircleSpec):
            want.append((0.0, 0.0, spec.r))
        assert len(circles) == len(want)
        for got, expect in zip(circles, want):
            assert got == pytest.approx(expect, abs=1e-5)

    def test_assert_bound_failure(self, tmp_path):
        code = main(
            [
                "construct", "chew", "--n", "8", "--out-dir", str(tmp_path),
                "--assert-bound", "1.6", "--no-svg",
            ]
        )
        assert code == 1

    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            main(["construct", "chew", "--n", "12", "--out-dir", str(tmp_path / sub)])
        for name in ("points.json", "triangulation.json", "report.json", "figure.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize("margin", ["1e5", "1e300"])
    def test_large_shield_margin_ends(self, margin, tmp_path):
        code = main(["construct", "three-circle", "--shield-margin", margin,
                     "--out-dir", str(tmp_path), "--no-svg"])
        assert code in (0, 1, 2)

    def test_invalid_spec_usage_error(self, tmp_path):
        code = main(
            ["construct", "chew", "--n", "7", "--out-dir", str(tmp_path), "--no-svg"]
        )
        assert code == 2  # bad construction parameters are an input error


class TestDilation:
    def test_square_default_triangulation(self, tmp_path, capsys):
        ppath, _ = write_square(tmp_path)
        code = main(["dilation", str(ppath)])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("max dilation: ")[1].splitlines()[0])
        assert value == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_pair_restriction(self, tmp_path, capsys):
        ppath, tpath = write_square(tmp_path, tris=[(0, 1, 2), (0, 2, 3)])
        code = main(
            ["dilation", str(ppath), "--triangulation", str(tpath), "--pair", "1", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("dilation: ")[1].splitlines()[0])
        assert value == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_double_cover_triangulation_exit_2(self, tmp_path, capsys):
        ppath, tpath = write_double_cover(tmp_path)
        assert main(["dilation", str(ppath), "--triangulation", str(tpath)]) == 2
        assert "max dilation" not in capsys.readouterr().out

    @pytest.mark.parametrize("k", [510, 1015])
    def test_huge_coordinates_run_clean(self, k, tmp_path, capsys):
        # The squared differences of these coordinates overflow.
        rng = random.Random(k)
        base = rng.sample([(x, y) for x in range(64) for y in range(64)], 300)
        ppath = tmp_path / "points.json"
        ppath.write_text(points_to_json(
            PointSet([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in base])
        ))
        assert main(["dilation", str(ppath)]) == 0
        out, err = capsys.readouterr()
        assert "max dilation: " in out
        assert err == ""

    def test_collinear_points_domain_error(self, tmp_path):
        ppath = tmp_path / "collinear.json"
        ppath.write_text(json.dumps({"points": [[0, 0], [1, 1], [2, 2]]}))
        assert main(["dilation", str(ppath)]) == 1

    def test_malformed_json_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["dilation", str(bad)]) == 2

    def test_report_written(self, tmp_path):
        ppath, _ = write_square(tmp_path)
        out = tmp_path / "report.json"
        assert main(["dilation", str(ppath), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["witness"] == [1, 3]


@pytest.mark.parametrize("command", ["verify", "dilation"])
@pytest.mark.parametrize(
    "doc",
    [
        {"points": [[None, 1], [1, 0], [0, 1]]},
        {"points": 5},
        {"triangles": [[0, 1, None]]},
        {"triangles": 3},
        {"triangles": [[0, 1, 2.5]]},
        {"triangles": [[0, 1, 2**70]]},
        # numpy would read booleans and digit strings as numbers.
        {"points": [[True, 0.5], [0, 1], [1, 1]]},
        {"points": [["1", "0"], [0, 1], [1, 1]]},
        {"points": ["12", "34", "56"]},
        {"triangles": [[0, True, 2]]},
    ],
)
def test_malformed_document_exit_2(command, doc, tmp_path, capsys):
    # A malformed points or triangles file is an input error, not a crash.
    ppath, tpath = write_square(tmp_path, tris=[(0, 1, 2), (0, 2, 3)])
    (ppath if "points" in doc else tpath).write_text(json.dumps(doc))
    flag = ["--triangulation"] if command == "dilation" else []
    assert main([command, str(ppath), *flag, str(tpath)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed")


@pytest.mark.parametrize(
    "argv",
    [
        "plant --n-outside -5",
        "construct convex --n-arc 0",
        "plant --config chew --config-n 7",
        "random --trials 0",
        "random --trials -2",
        "random --seed -1",
        "plant --seed -1",
        "dilation {points} --pair 0 99",
        "dilation {points} --pair -1 3",
        "dilation {points} --pair 3 3",
        "sweep --d-min 2 --d-max 1 --step 0.1",
        "sweep --d-min -1 --d-max 1 --step 0.1",
    ],
)
def test_bad_arguments_exit_2_before_any_work(argv, tmp_path, capsys):
    ppath, _ = write_square(tmp_path)
    try:
        code = main(argv.format(points=ppath).split())
    except SystemExit as e:  # argparse's own usage errors
        code = e.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert "Traceback" not in err


class TestSweep:
    def test_claimed_interval(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--d-min", "0.293", "--d-max", "0.294", "--step", "1e-4",
             "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 11
        assert all(float(r.split(",")[2]) > 1.5810528 for r in rows)
        argmax_line = capsys.readouterr().out
        assert "argmax" in argmax_line

    def test_argmax_interval(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--d-min", "0", "--d-max", "1", "--step", "1e-3",
              "--out", str(out)])
        argmax_d = float(
            capsys.readouterr().out.split("argmax: d=")[1].split(" ")[0]
        )
        assert 0.29 < argmax_d < 0.30

    def test_nonpositive_step_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--d-min", "0", "--d-max", "1", "--step", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_stdout_closed_after_the_first_line(self, unbuffered):
        # The 10,001 CSV rows overflow the pipe, so the writer is still
        # writing when the reader closes it, as with `sweep ... | head -1`.
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, path)),
            "PYTHONUNBUFFERED": unbuffered,
        }
        argv = ["sweep", "--d-min", "0", "--d-max", "1", "--step", "1e-4"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "delaunay_dilation", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"d,ell,t\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestVerify:
    def test_construct_output_verifies(self, tmp_path):
        main(["construct", "chew", "--n", "10", "--out-dir", str(tmp_path), "--no-svg"])
        code = main(
            ["verify", str(tmp_path / "points.json"),
             str(tmp_path / "triangulation.json")]
        )
        assert code == 0

    def test_overlapping_triangles_exit_2(self, tmp_path):
        ppath, tpath = write_square(tmp_path, tris=[(0, 1, 2), (0, 1, 3)])
        assert main(["verify", str(ppath), str(tpath)]) == 2

    def test_double_cover_exit_2(self, tmp_path, capsys):
        ppath, tpath = write_double_cover(tmp_path)
        assert main(["verify", str(ppath), str(tpath)]) == 2
        assert "tile the convex hull" in capsys.readouterr().err

    def test_flipped_diagonal_exit_1(self, tmp_path, capsys):
        ps = perturb(PointSet(SQUARE), 1e-3, seed=1)
        good = delaunay(ps)
        # flip the diagonal of the two triangles
        edges = {e for e in good.edges}
        diag = (0, 2) if (0, 2) in edges else (1, 3)
        other = (1, 3) if diag == (0, 2) else (0, 2)
        flipped = [
            (other[0], other[1], diag[0]),
            (other[0], other[1], diag[1]),
        ]
        ppath = tmp_path / "p.json"
        ppath.write_text(points_to_json(ps))
        tpath = tmp_path / "t.json"
        tpath.write_text(
            triangulation_to_json(Triangulation(flipped))
        )
        code = main(["verify", str(ppath), str(tpath)])
        assert code == 1
        assert "violation" in capsys.readouterr().out

    @pytest.mark.parametrize("n, eps", [(64, "0"), (64, "1e-09"), (512, "0")])
    def test_output_is_that_of_the_full_report(self, n, eps, tmp_path, capsys):
        main(["construct", "chew", "--n", str(n), "--out-dir", str(tmp_path), "--no-svg"])
        capsys.readouterr()
        ppath, tpath = tmp_path / "points.json", tmp_path / "triangulation.json"
        code = main(["verify", str(ppath), str(tpath), "--eps", eps])
        report = is_valid_delaunay(
            points_from_json(ppath.read_text()),
            triangulation_from_json(tpath.read_text()),
            float(eps),
        )
        if report.valid:
            expected = f"valid at eps={float(eps)!r}\n"
        else:
            expected = f"INVALID at eps={float(eps)!r}: {len(report.violations)} violation(s)\n"
            for tri_idx, pt_idx, margin in report.violations[:20]:
                expected += f"  triangle {tri_idx} contains point {pt_idx} (margin {margin:.3e})\n"
        assert code == (0 if report.valid else 1)
        assert capsys.readouterr().out == expected

    def test_violations_are_counted_not_held(self, tmp_path, capsys):
        # chew 512 has 129,928 violations at eps=0: about 16 MB as a report.
        main(["construct", "chew", "--n", "512", "--out-dir", str(tmp_path), "--no-svg"])
        args = ["verify", str(tmp_path / "points.json"),
                str(tmp_path / "triangulation.json"), "--eps", "0"]
        tracemalloc.start()
        try:
            assert main(args) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "129928 violation(s)" in capsys.readouterr().out
        assert peak < 6 * 2**20

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json"), str(tmp_path / "nope2.json")]) == 2

    @pytest.mark.parametrize("eps", ["-1", "-0.5e-9", "nan", "-inf"])
    def test_negative_or_nan_eps_exit_2(self, eps, tmp_path, capsys):
        ppath, tpath = write_square(tmp_path, tris=[(0, 1, 2), (0, 2, 3)])
        assert main(["verify", str(ppath), str(tpath), f"--eps={eps}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --eps must be a nonnegative number, not {float(eps)!r}\n"


# The CLI in a fresh interpreter, which then writes to the file named by its
# first argument which of scipy and its heavy subpackages it loaded.  Any
# scipy module loads the `scipy` package first.
_FRESH_RUN = """
import json, sys
from pathlib import Path
from delaunay_dilation.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as e:
    code = e.code
names = ("scipy", "scipy.sparse", "scipy.sparse.csgraph", "scipy.spatial", "scipy.optimize")
Path(sys.argv[1]).write_text(json.dumps([m for m in names if m in sys.modules]))
sys.exit(code)
"""


class TestStartUp:
    """Commands that need no Qhull, kd-tree or csgraph load none of them, and
    most load no scipy at all: its import takes longer than their work."""

    @pytest.mark.parametrize(
        "argv, expected, loaded",
        [
            ("--help", 0, []),
            ("construct bogus", 2, []),  # argparse's usage error
            ("dilation {chew} --pair 0 99", 2, []),  # the CLI's, after reading the points
            ("verify {chew} {delaunay} --eps 0", 0, []),
            ("verify {chew} {chew_tri} --eps 0", 1, []),
            # shortest_path reads the graph's scipy CSR matrix.
            ("dilation {chew} --triangulation {chew_tri} --pair 3 40", 0,
             ["scipy", "scipy.sparse"]),
            ("dilation {chew} --triangulation {chew_tri} --pair 5 6 --out {out}", 0,
             ["scipy", "scipy.sparse"]),
        ],
    )
    def test_same_output_loading_only_what_it_uses(
        self, argv, expected, loaded, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal
        main(["construct", "chew", "--n", "64", "--out-dir", str(tmp_path), "--no-svg"])
        ppath = tmp_path / "points.json"
        dpath = tmp_path / "delaunay.json"
        dpath.write_text(triangulation_to_json(delaunay(points_from_json(ppath.read_text()))))
        out_path = tmp_path / "pair.json"
        argv = argv.format(chew=ppath, chew_tri=tmp_path / "triangulation.json",
                           delaunay=dpath, out=out_path).split()
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's --help and usage errors
            code = e.code
        out, err = capsys.readouterr()
        written = out_path.read_bytes() if out_path.exists() else None
        out_path.unlink(missing_ok=True)

        modules = tmp_path / "loaded.json"
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        run = subprocess.run(
            [sys.executable, "-c", _FRESH_RUN, str(modules), *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, out, err)
        assert code == expected
        assert json.loads(modules.read_text()) == loaded
        assert (out_path.read_bytes() if out_path.exists() else None) == written


class TestRandomAndPlant:
    def test_random_medians_nondecreasing(self, tmp_path, capsys):
        out = tmp_path / "trend.csv"
        summary = tmp_path / "summary.json"
        code = main(
            ["random", "--dist", "uniform-square", "--ns", "20,60", "--trials", "6",
             "--seed", "42", "--out", str(out), "--summary", str(summary)]
        )
        assert code == 0
        doc = json.loads(summary.read_text())
        med = [doc["medians"]["20"], doc["medians"]["60"]]
        assert med == sorted(med)
        assert out.read_text().startswith("n,trial,seed,max_dilation")

    def test_unknown_distribution_usage_error(self, capsys):
        code = main(["random", "--dist", "zipf", "--ns", "10", "--trials", "2"])
        assert code == 2

    @pytest.mark.parametrize("ns", ["2", "5,3", "5,5"])
    def test_bad_ns_usage_error(self, ns, capsys):
        code = main(["random", "--ns", ns, "--trials", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: --ns")

    def test_plant_keeps_bound(self, tmp_path, capsys):
        code = main(
            ["plant", "--config", "convex", "--config-n", "62",
             "--n-outside", "50", "--seed", "1", "--assert-bound", "1.57"]
        )
        assert code == 0
        out = capsys.readouterr().out
        planted = float(out.split("planted dilation: ")[1].split(" ")[0])
        assert planted > 1.57
