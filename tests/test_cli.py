"""CLI surface: subcommands, exit codes, deterministic artifacts."""

import hashlib
import json

import pytest

from usogrid.cli import main
from usogrid.dgrid import DOrientedGrid
from usogrid.gen import gen_one_line
from usogrid.grid import OrientedGrid
from usogrid.serialize import grid_to_json, load_grid_file
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
        b'{"shape": [1, 2], "edges": [{"a": [1, 1.9], "b": [1, 2], "dir": "ab"}]}',
        b'{"shape": [1, 2], "edges": [{"a": [true, 1], "b": [1, "2"], "dir": "ab"}]}',
        b'{"shape": [1.9, 2], "values": [[1, 2]]}',
        b'{"dims": [2.7], "edges": [{"a": [1], "b": [2], "dir": "ab"}]}',
    ], ids=["shape-3d", "non-number", "edge-without-b", "not-an-object", "not-utf8",
            "float-coordinate", "bool-and-string-coordinates", "float-shape", "float-dims"])
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

    def test_two_axis_dims_file_needs_ddim(self, tmp_path, capsys):
        path = tmp_path / "d2.json"
        grid = DOrientedGrid.from_values(gen_one_line(3, 4, 2).values)
        path.write_text(json.dumps(grid_to_json(grid)))
        assert "dims" in json.loads(path.read_text())
        code, _, err = run(capsys, "solve", "--alg", "rect", "--grid", str(path))
        assert code == 2 and "needs a 2-dimensional grid" in err
        code, out, _ = run(capsys, "solve", "--alg", "ddim", "--grid", str(path))
        assert code == 0 and json.loads(out)["verdict"] == "ok"

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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: sha256 of the standard output of each command, frozen from the line-mask
#: answers commit.  They pin the edge-word orders (enumeration, edge words),
#: the JSON edge order and the "shape"/"dims" choice of the grid writer.
GOLDEN_STDOUT = {
    "enumerate-2x3": (0,
        "8ae73400fd77e31070ca6105078e4bf50e0a3fa04de59bcc80ffe11bff0c7248"),
    "gen-index-3x3-0": (0,
        "d2b34b8e49323e04f30f2980ac5cd6b14d5f5f827d09ab01dc7f8b9fac65506d"),
    "gen-index-3x3-5795": (0,
        "13e107aef93bfa67a3663ae069acb0a9b56ea0e22b58ba555de7b17078eb2323"),
    "gen-separable-3x2x3": (0,
        "f37698943086047ebbeee12d4a6db56d487d69698a8194f89befd088706696ea"),
    "adversary-5x7-rect": (0,
        "06ba48c293608cfe5d7cfdf3617772587cfc9c019dd37fca2acb5390c89a995b"),
    "validate-four-cycle": (1,
        "d3107f4b718b4335796b7d250e376d1ef72c7ebe7195b4c2a304c84bdb18c207"),
    "solve-rect-edges": (0,
        "9fb9efa0314119392f5d5d714a423272cf412599732b55c7cfbd2cb6054d4a83"),
    "solve-ddim-dims": (0,
        "f2cb7c04a1bc9113930a97524b3b54e7903b0aaa2de6923ae97d72e5f962c72e"),
}


class TestGoldenOutputs:
    @pytest.fixture
    def files(self, tmp_path, capsys):
        edges, dims, cycle = (tmp_path / n for n in ("edges.json", "dims.json", "cyc.json"))
        run(capsys, "gen", "--model", "enumerate-index", "--shape", "3x3",
            "--seed", "5795", "-o", str(edges))
        run(capsys, "gen", "--model", "separable", "--shape", "3x2x3", "--seed", "5",
            "-o", str(dims))
        cycle.write_text(json.dumps({"shape": [2, 2], "edges": [
            {"a": a, "b": b, "dir": d} for d, a, b in NON_USO_EDGES["four-cycle"]]}))
        return {"edges": str(edges), "dims": str(dims), "cycle": str(cycle)}

    def _commands(self, files):
        return {
            "enumerate-2x3": ["enumerate", "--shape", "2x3"],
            "gen-index-3x3-0": ["gen", "--model", "enumerate-index", "--shape", "3x3",
                                "--seed", "0"],
            "gen-index-3x3-5795": ["gen", "--model", "enumerate-index", "--shape", "3x3",
                                   "--seed", "5795"],
            "gen-separable-3x2x3": ["gen", "--model", "separable", "--shape", "3x2x3",
                                    "--seed", "5"],
            "adversary-5x7-rect": ["adversary", "--shape", "5x7", "--alg", "rect"],
            "validate-four-cycle": ["validate", files["cycle"]],
            "solve-rect-edges": ["solve", "--alg", "rect", "--grid", files["edges"]],
            "solve-ddim-dims": ["solve", "--alg", "ddim", "--grid", files["dims"]],
        }

    @pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
    def test_output_matches_frozen_hash(self, files, capsys, name):
        code, out, err = run(capsys, *self._commands(files)[name])
        if name.startswith("solve-"):
            report = json.loads(out)
            report.pop("wall_time")
            out = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert (code, _sha(out)) == GOLDEN_STDOUT[name]
        assert err == ""
