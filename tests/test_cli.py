"""CLI surface: subcommands, exit codes, deterministic artifacts."""

import json

import pytest

from usogrid.cli import main
from usogrid.gen import gen_one_line
from usogrid.grid import OrientedGrid
from usogrid.serialize import load_grid_file
from usogrid.solvers import ALGORITHMS

PLANAR_ALGS = sorted(a for a in ALGORITHMS if a != "ddim")


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_oneline_writes_valid_uso(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        code, _, _ = run(capsys, "gen", "--model", "oneline", "--shape", "8x8",
                         "--seed", "42", "-o", str(path))
        assert code == 0
        doc = load_grid_file(path)
        assert doc.grid.shape.rows == 8
        # 8 + 8 is over the default validator cap: refuse, then allow explicitly
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 3
        code, out, _ = run(capsys, "validate", str(path), "--max-coords", "16")
        assert code == 0 and out.strip() == "ok"

    def test_single_vertex(self, capsys):
        code, out, _ = run(capsys, "gen", "--model", "oneline", "--shape", "1x1",
                           "--seed", "0")
        assert code == 0
        assert json.loads(out)["shape"] == [1, 1]

    def test_bad_shape_exits_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--model", "oneline", "--shape", "0x3",
                         "--seed", "1")
        assert code == 2

    def test_enumerate_index_model(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        code, _, _ = run(capsys, "gen", "--model", "enumerate-index",
                         "--shape", "2x2", "--seed", "5", "-o", str(path))
        assert code == 0
        assert load_grid_file(path).grid.shape.rows == 2
        code, _, _ = run(capsys, "gen", "--model", "enumerate-index",
                         "--shape", "2x2", "--seed", "12")
        assert code == 2  # only 12 USOs

    def test_separable_ddim(self, capsys):
        code, out, _ = run(capsys, "gen", "--model", "separable",
                           "--shape", "2x2x2", "--seed", "3")
        assert code == 0
        assert json.loads(out)["dims"] == [2, 2, 2]

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(capsys, "gen", "--model", "oneline", "--shape", "5x5",
                "--seed", "7", "-o", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestValidate:
    def test_violation_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cyc.json"
        path.write_text(json.dumps({
            "shape": [2, 2],
            "edges": [
                {"a": [1, 1], "b": [1, 2], "dir": "ab"},
                {"a": [1, 2], "b": [2, 2], "dir": "ab"},
                {"a": [2, 1], "b": [2, 2], "dir": "ba"},
                {"a": [1, 1], "b": [2, 1], "dir": "ba"},
            ],
        }))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert json.loads(out)["violation"]["sinks"] == 0

    def test_cap_exits_3(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        run(capsys, "gen", "--model", "oneline", "--shape", "9x9",
            "--seed", "0", "-o", str(path))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3 and "cap" in err

    def test_ddim_validate(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        run(capsys, "gen", "--model", "separable", "--shape", "2x3x2",
            "--seed", "1", "-o", str(path))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and out.strip() == "ok"

    def test_cap_checked_before_building_the_grid(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "huge.json"
        run(capsys, "gen", "--model", "oneline", "--shape", "256x256",
            "--seed", "0", "-o", str(path))

        def expand(*_):
            raise AssertionError("validate built the explicit grid before its cap check")

        monkeypatch.setattr(OrientedGrid, "from_values", expand)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3 and "cap" in err
        assert "(2^256 - 1)(2^256 - 1) subgrids" in err


#: 2x2 orientations that are not USOs: a directed 4-cycle, and two sources
#: pointing at two sinks.
NON_USO_EDGES = {
    "four-cycle": [("ab", [1, 1], [1, 2]), ("ab", [1, 2], [2, 2]),
                   ("ba", [2, 1], [2, 2]), ("ba", [1, 1], [2, 1])],
    "two-sinks": [("ba", [1, 1], [1, 2]), ("ab", [1, 2], [2, 2]),
                  ("ab", [2, 1], [2, 2]), ("ba", [1, 1], [2, 1])],
}


class TestSolveNonUso:
    @pytest.mark.parametrize("alg", PLANAR_ALGS)
    @pytest.mark.parametrize("name", sorted(NON_USO_EDGES))
    def test_exits_1_with_a_message(self, tmp_path, capsys, name, alg):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"shape": [2, 2], "edges": [
            {"a": a, "b": b, "dir": d} for d, a, b in NON_USO_EDGES[name]]}))
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 1
        code, out, err = run(capsys, "solve", "--alg", alg, "--grid", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMalformedFiles:
    @pytest.mark.parametrize("content", [
        b'{"shape": [2, 2, 2], "values": [[1, 2], [3, 4]]}',
        b'{"shape": [2, 2], "values": [[1, 2], [3, "a"]]}',
        b'{"shape": [1, 2], "edges": [{"a": [1, 1]}]}',
        b'5',
        b'\xff\xfe',
    ], ids=["shape-3d", "non-number", "edge-without-b", "not-an-object", "not-utf8"])
    def test_validate_and_solve_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "cannot load" in err
        code, _, err = run(capsys, "solve", "--alg", "rect", "--grid", str(path))
        assert code == 2 and "cannot load" in err


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--shape", "2x2", "--count-only")
        assert code == 0 and out.strip() == "12"

    def test_stream_members(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--shape", "1x3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(json.loads(line)["shape"] == [1, 3] for line in lines)

    def test_cap_exits_3(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--shape", "5x5")
        assert code == 3


class TestSolve:
    def test_diagonal_on_2x2(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run(capsys, "gen", "--model", "oneline", "--shape", "2x2", "--seed", "1",
            "-o", str(path))
        code, out, _ = run(capsys, "solve", "--alg", "diagonal", "--grid", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "ok"
        assert report["queries"]["vertex"] <= 3

    def test_rect_8x13_bound(self, capsys):
        code, out, _ = run(capsys, "solve", "--alg", "rect", "--model", "oneline",
                           "--shape", "8x13", "--seed", "4")
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == 20 and report["bound_ok"]

    def test_dc_edge_64(self, capsys):
        code, out, _ = run(capsys, "solve", "--alg", "dc-edge", "--model",
                           "oneline", "--shape", "64x64", "--seed", "2")
        assert code == 0
        report = json.loads(out)
        assert report["bound_ok"] and report["queries"]["edge"] > 0

    def test_ddim(self, capsys):
        code, out, _ = run(capsys, "solve", "--alg", "ddim", "--model",
                           "separable", "--shape", "3x3x3", "--seed", "5")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "ok" and report["bound"] == 15

    def test_diagonal_requires_square(self, capsys):
        code, _, _ = run(capsys, "solve", "--alg", "diagonal", "--model",
                         "oneline", "--shape", "2x3", "--seed", "0")
        assert code == 2

    def test_rect_1024_oneline(self, capsys):
        code, out, _ = run(capsys, "solve", "--alg", "rect", "--model", "oneline",
                           "--shape", "1024x1024", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        sink = gen_one_line(1024, 1024, 7).argmin_vertex()
        assert report["sink"] == [c + 1 for c in sink]
        assert report["queries"]["vertex"] <= 2047 and report["verdict"] == "ok"

    def test_report_json_stable_up_to_wall_time(self, tmp_path, capsys):
        reports = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            run(capsys, "solve", "--alg", "walk", "--model", "oneline",
                "--shape", "6x6", "--seed", "3", "--report", str(path))
            doc = json.loads(path.read_text())
            doc.pop("wall_time")
            reports.append(doc)
        assert reports[0] == reports[1]


    @pytest.mark.parametrize("alg", PLANAR_ALGS)
    def test_values_are_never_expanded(self, tmp_path, capsys, monkeypatch, alg):
        path = tmp_path / "v.json"
        run(capsys, "gen", "--model", "oneline", "--shape", "6x6", "--seed", "2",
            "-o", str(path))

        def expand(*_):
            raise AssertionError("solve expanded a value matrix into an explicit grid")

        monkeypatch.setattr(OrientedGrid, "from_values", expand)
        for source in (["--grid", str(path)],
                       ["--model", "oneline", "--shape", "6x6", "--seed", "2"]):
            code, out, _ = run(capsys, "solve", "--alg", alg, *source)
            assert code == 0 and json.loads(out)["verdict"] == "ok"


class TestAdversary:
    def test_rect_5x7(self, capsys):
        code, out, _ = run(capsys, "adversary", "--shape", "5x7", "--alg", "rect")
        assert code == 0
        doc = json.loads(out)
        assert doc["queries_vertex"] == 11 == doc["expected"]
        assert doc["verdict"] == "consistent"
        assert doc["materialized_valid"] is True and doc["replay_ok"]

    def test_diagonal_square_only(self, capsys):
        code, _, _ = run(capsys, "adversary", "--shape", "3x4", "--alg", "diagonal")
        assert code == 2

    def test_large_shape_skips_validation(self, capsys):
        code, out, _ = run(capsys, "adversary", "--shape", "16x16", "--alg", "rect")
        assert code == 0
        doc = json.loads(out)
        assert doc["materialized_valid"] == "skipped-cap" and doc["replay_ok"]


class TestBench:
    def test_walk_csv(self, tmp_path, capsys):
        path = tmp_path / "walk.csv"
        code, _, _ = run(capsys, "bench", "--alg", "walk", "--sizes", "8",
                         "--trials", "10", "--csv", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alg,m,n,seed,queries_vertex,queries_edge,bound,bound_ok"
        assert len(lines) == 11
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "walk" and int(fields[4]) <= 64
            assert fields[7] == "true"

    def test_dc_edge_bounds_hold(self, capsys):
        code, out, _ = run(capsys, "bench", "--alg", "dc-edge",
                           "--sizes", "16,32", "--trials", "5")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[7] == "true"

    @pytest.mark.parametrize("alg", PLANAR_ALGS)
    def test_rows_match_solve_reports(self, capsys, alg):
        code, out, _ = run(capsys, "bench", "--alg", alg, "--sizes", "5",
                           "--trials", "4")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        for seed, row in enumerate(rows):
            code, out, _ = run(capsys, "solve", "--alg", alg, "--model", "oneline",
                               "--shape", "5x5", "--seed", str(seed))
            assert code == 0
            r = json.loads(out)
            assert row == (f"{alg},5,5,{seed},{r['queries']['vertex']},"
                           f"{r['queries']['edge']},{r['bound']},"
                           f"{str(r['bound_ok']).lower()}")

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "bench", "--alg", "rect", "--sizes", "4,8",
                "--trials", "6", "--csv", str(path))
        assert a.read_bytes() == b.read_bytes()
