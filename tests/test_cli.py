import json
import math
import tracemalloc

import pytest

from delaunay_dilation.cli import main
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


def write_square(tmp_path, tris=None):
    ps = PointSet.from_coords(SQUARE)
    ppath = tmp_path / "points.json"
    ppath.write_text(points_to_json(ps))
    tpath = None
    if tris is not None:
        tpath = tmp_path / "tri.json"
        tpath.write_text(triangulation_to_json(Triangulation.from_triples(tris)))
    return ppath, tpath


def write_double_cover(tmp_path):
    """The pentagram fan: every Euler count holds, but it winds twice."""
    points, tris = BAD_QHULL["double_cover"]
    ppath = tmp_path / "points.json"
    ppath.write_text(points_to_json(PointSet.from_coords(points)))
    tpath = tmp_path / "tri.json"
    tpath.write_text(triangulation_to_json(Triangulation.from_triples(tris)))
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

    def test_chew_8(self, tmp_path, capsys):
        code = main(["construct", "chew", "--n", "8", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        computed = float(out.split("computed dilation: ")[1].splitlines()[0])
        assert computed == pytest.approx(1.53073, abs=1e-5)
        svg = (tmp_path / "figure.svg").read_text()
        assert "witness-path" in svg

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
        ps = perturb(PointSet.from_coords(SQUARE), 1e-3, seed=1)
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
            triangulation_to_json(Triangulation.from_triples(flipped))
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
