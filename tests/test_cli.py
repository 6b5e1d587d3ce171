"""CLI surface: subcommands, exit codes, deterministic artifacts."""

import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest

from usogrid import cli, kernels
from usogrid.cli import main
from usogrid.dgrid import DOrientedGrid
from usogrid.gen import gen_one_line, gen_separable_ddim, uso_words
from usogrid.grid import GridShape, OrientedGrid
from usogrid.serialize import grid_to_json, load_grid_file, values_to_json
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
        assert load_grid_file(path).shape.rows == 8
        # 8x8 has 255^2 = 65025 nonempty subgrids: refuse one below, else validate
        code, _, _ = run(capsys, "validate", str(path), "--max-subgrids", "65024")
        assert code == 3
        code, out, _ = run(capsys, "validate", str(path))
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
        assert load_grid_file(path).shape.rows == 2
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

    def test_one_cap_on_every_file(self, tmp_path, capsys):
        # 3x3 has 7^2 = 49 nonempty subgrids, whatever the file format.
        vm = gen_one_line(3, 3, 4)
        for name, doc in (("values", values_to_json(vm)),
                          ("shape", grid_to_json(OrientedGrid.from_values(vm))),
                          ("dims", grid_to_json(DOrientedGrid.from_values(vm.values)))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "validate", str(path), "--max-subgrids", "48")
            assert (code, out) == (3, ""), name
            assert err.startswith("error: validating dims (3, 3) means 49 subgrids"), name
            code, out, _ = run(capsys, "validate", str(path), "--max-subgrids", "49")
            assert (code, out) == (0, "ok\n"), name

    def test_two_axis_dims_file_validates_like_its_shape_file(self, tmp_path, capsys):
        rng = random.Random(7)
        words = rng.sample(uso_words((3, 3)), 4)
        words += [rng.getrandbits(kernels.edge_count(3, 3)) for _ in range(8)]
        codes = []
        for word in words:
            directed = [(a, b) if word >> e & 1 else (b, a) for e, (a, b)
                        in enumerate(kernels.edge_list((3, 3), kernels.PLANAR_AXES))]
            for name, grid in (("shape", OrientedGrid(GridShape(3, 3), directed)),
                               ("dims", DOrientedGrid((3, 3), directed))):
                (tmp_path / f"{name}.json").write_text(json.dumps(grid_to_json(grid)))
            shape_run = run(capsys, "validate", str(tmp_path / "shape.json"))
            assert run(capsys, "validate", str(tmp_path / "dims.json")) == shape_run
            codes.append(shape_run[0])
        assert codes[:4] == [0] * 4 and 1 in codes[4:]

    def test_two_axis_dims_file_skips_the_d_axis_scan(self, tmp_path, capsys, monkeypatch):
        # 9x9 has 511^2 = 261121 subgrids; the 2-D kernel scans them.
        path = tmp_path / "d9.json"
        path.write_text(json.dumps(grid_to_json(gen_separable_ddim((9, 9), 0))))

        def d_axis_scan(*_, **__):
            raise AssertionError("a two-axis file went to the d-axis validator")

        monkeypatch.setattr(cli, "validate_uso_ddim", d_axis_scan)
        code, out, _ = run(capsys, "validate", str(path), "--max-subgrids", "300000")
        assert (code, out) == (0, "ok\n")

    def test_three_axis_witness_is_subsets(self, tmp_path, capsys):
        # A 2x2x2 grid whose only sink is (0, 0, 0), but whose face at
        # coordinate 1 on axis 0 has two sinks.
        values = np.arange(8.0).reshape(2, 2, 2)
        values[1] = [[4.0, 7.0], [6.0, 5.0]]
        path = tmp_path / "d3.json"
        path.write_text(json.dumps(grid_to_json(DOrientedGrid.from_values(values))))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert set(json.loads(out)["violation"]) == {"subsets", "sinks"}


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


#: Exact stderr and exit code of each cap and non-USO error path.
ERROR_PATHS = {
    "gen-index-cap": (["gen", "--model", "enumerate-index", "--shape", "5x5"], 3,
                      "error: enumerating a 5x5 grid means 2^100 orientations, above the "
                      "cap of 2^20\n"),
    "enumerate-cap": (["enumerate", "--shape", "5x5"], 3,
                      "error: enumerating a 5x5 grid means 2^100 orientations, above the "
                      "cap of 2^20\n"),
    "validate-cap": (["validate", "{values}", "--max-subgrids", "65024"], 3,
                     "error: validating dims (8, 8) means 65025 subgrids, above the cap "
                     "65024; raise max_subgrids explicitly\n"),
    "validate-cap-raised": (["validate", "{values}", "--max-subgrids", "65025"], 0, ""),
    "validate-ddim-cap": (["validate", "{dims}", "--max-subgrids", "10"], 3,
                          "error: validating dims (3, 3, 3, 3) means 2401 subgrids, above "
                          "the cap 10; raise max_subgrids explicitly\n"),
    "solve-rect-cycle": (["solve", "--alg", "rect", "--grid", "{cycle}"], 1,
                         "error: no fully eliminated row/column although the sink is "
                         "unfound: the oracle is not a USO\n"),
    "solve-walk-cycle": (["solve", "--alg", "walk", "--grid", "{cycle}"], 1,
                         "error: walk revisited (0, 0): the orientation has a cycle\n"),
}


class TestErrorPaths:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("errors")
        paths = {name: root / f"{name}.json" for name in ("values", "dims", "cycle")}
        paths["values"].write_text(json.dumps(values_to_json(gen_one_line(8, 8, 0))))
        paths["dims"].write_text(json.dumps(grid_to_json(gen_separable_ddim((3, 3, 3, 3), 0))))
        paths["cycle"].write_text(json.dumps({"shape": [2, 2], "edges": [
            {"a": a, "b": b, "dir": d} for d, a, b in NON_USO_EDGES["four-cycle"]]}))
        return {name: str(path) for name, path in paths.items()}

    @pytest.mark.parametrize("name", sorted(ERROR_PATHS))
    def test_exact_stderr_and_exit_code(self, files, capsys, name):
        argv, code, err = ERROR_PATHS[name]
        got = run(capsys, *(arg.format(**files) for arg in argv))
        assert (got[0], got[2]) == (code, err)
        assert got[1] == ("ok\n" if code == 0 else "")

    @pytest.mark.parametrize("argv", [
        ["gen", "--model", "oneline", "--shape", "3x3"],
        ["gen", "--model", "separable", "--shape", "2x2x2"],
        ["solve", "--alg", "rect", "--model", "oneline", "--shape", "3x3"],
        ["solve", "--alg", "ddim", "--model", "separable", "--shape", "2x2x2"],
    ], ids=["gen-oneline", "gen-separable", "solve-oneline", "solve-separable"])
    def test_negative_model_seed_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and "--seed must be non-negative" in err

    def test_negative_seed_of_a_loaded_grid_still_solves(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(values_to_json(gen_one_line(4, 5, 1))))
        code, out, err = run(capsys, "solve", "--alg", "random-edge", "--grid", str(path),
                             "--seed", "-1")
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "ok"


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
        b'{"shape": [1, 2], "edges": [{"a": [1, 1, 1], "b": [1, 2, 1], "dir": "ab"}]}',
        b'{"shape": [1, 2], "edges": [{"a": [1, 1], "b": [1, 2], "dir": "up"}]}',
        b'{"dims": [1, 2], "shape": [1, 2], "edges": [{"a": [1, 1], "b": [1, 2], "dir": "ab"}]}',
        b'{"values": [[1, 2]]}',
        b'{"shape": [1, 2], "values": [[1, "2"]]}',
        b'{"shape": [1, 2], "values": [[true, false]]}',
        b'{"shape": [1, 2], "values": [[1, 1' + b'0' * 400 + b']]}',
    ], ids=["shape-3d", "non-number", "edge-without-b", "not-an-object", "not-utf8",
            "float-coordinate", "bool-and-string-coordinates", "float-shape", "float-dims",
            "shape-edge-with-3-coordinates", "bad-dir", "dims-and-shape", "no-shape",
            "numeric-string-value", "boolean-values", "integer-beyond-float"])
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

    def test_two_axis_dims_file_solves_like_its_shape_file(self, tmp_path, capsys):
        for m, n in [(3, 4), (4, 4)]:
            vm = gen_one_line(m, n, 2)
            paths = {"dims": tmp_path / "d2.json", "shape": tmp_path / "g.json"}
            paths["dims"].write_text(json.dumps(grid_to_json(DOrientedGrid.from_values(vm.values))))
            paths["shape"].write_text(json.dumps(grid_to_json(OrientedGrid.from_values(vm))))
            assert "dims" in json.loads(paths["dims"].read_text())
            reports = {}
            for alg in sorted(ALGORITHMS):
                if alg == "diagonal" and m != n:
                    continue
                pair = []
                for path in paths.values():
                    code, out, _ = run(capsys, "solve", "--alg", alg, "--grid", str(path))
                    assert code == 0
                    pair.append(json.loads(out))
                    pair[-1].pop("wall_time")
                assert pair[0] == pair[1] and pair[0]["verdict"] == "ok"
                reports[alg] = pair[0]
            assert reports["ddim"] == dict(reports["rect"], algorithm="ddim")
        # Three axes are for ddim alone.
        path = tmp_path / "d3.json"
        path.write_text(json.dumps(grid_to_json(gen_separable_ddim((2, 3, 2), 1))))
        code, _, err = run(capsys, "solve", "--alg", "rect", "--grid", str(path))
        assert code == 2 and "needs a 2-dimensional grid" in err

    def test_ddim_on_values_counts_like_rect(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(values_to_json(gen_one_line(7, 5, 3))))
        for source in (["--grid", str(path)], ["--model", "oneline", "--shape", "9x6"]):
            reports = []
            for alg in ("rect", "ddim"):
                code, out, _ = run(capsys, "solve", "--alg", alg, *source, "--seed", "3")
                assert code == 0
                report = json.loads(out)
                report.pop("wall_time")
                reports.append(report)
            assert reports[1] == dict(reports[0], algorithm="ddim")

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

    def test_ddim_rows_are_rect_rows(self, capsys):
        rows = {}
        for alg in ("rect", "ddim"):
            code, out, _ = run(capsys, "bench", "--alg", alg, "--sizes", "3,6",
                               "--trials", "4")
            assert code == 0
            rows[alg] = [row.split(",", 1) for row in out.strip().splitlines()[1:]]
        assert len(rows["rect"]) == 8
        assert [rest for _, rest in rows["ddim"]] == [rest for _, rest in rows["rect"]]
        assert {alg for alg, _ in rows["ddim"]} == {"ddim"}

    @pytest.mark.parametrize("argv,message", [
        (["--sizes", "4,x"], "bad size 'x'"),
        (["--sizes", "4,0"], "bad size '0'"),
        (["--sizes", "4", "--trials", "0"], "--trials must be positive"),
    ], ids=["non-integer-size", "zero-size", "zero-trials"])
    def test_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "bench", "--alg", "rect", *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("fault,code,verdict", [
        ("bound", 4, "bound-exceeded"), ("sink", 5, "sink-mismatch"),
    ])
    def test_failed_contract_exit_codes(self, capsys, monkeypatch, fault, code, verdict):
        entry = ALGORITHMS["walk"]
        if fault == "bound":
            faulty = dataclasses.replace(entry, bound=lambda dims: 1)
        else:
            def solve_elsewhere(oracle, dims, seed):
                sink, counter = entry.solve(oracle, dims, seed)
                return ((sink[0] + 1) % dims[0], sink[1]), counter
            faulty = dataclasses.replace(entry, solve=solve_elsewhere)
        monkeypatch.setitem(ALGORITHMS, "walk", faulty)
        got, out, _ = run(capsys, "bench", "--alg", "walk", "--sizes", "4", "--trials", "2")
        assert got == code and len(out.splitlines()) == 3
        got, out, _ = run(capsys, "solve", "--alg", "walk", "--model", "oneline",
                          "--shape", "4x4")
        assert got == code and json.loads(out)["verdict"] == verdict

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
    # Frozen before the edge handles answered line queries: pins the
    # dc-edge counts per size and seed.
    "bench-dc-edge-16-32-64": (0,
        "4f1bd7f086879c68d21621a4944420536602cc267a45fc3948f0a7b39f273b2d"),
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
            "bench-dc-edge-16-32-64": ["bench", "--alg", "dc-edge", "--sizes", "16,32,64",
                                       "--trials", "5"],
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


#: Commands whose instance passes through the file loader and the solver
#: choice: exit code, sha256 of stdout (solve reports without wall_time) and
#: the exact stderr.  Frozen while the loader still wrapped every instance
#: and the solver choice read the file format.
REROUTED_OUTPUTS = {
    "validate-values": (0,
        "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22", ""),
    # Two axes validate as a "shape" file: the rows/cols witness of
    # GOLDEN_STDOUT's validate-four-cycle, the same orientation.
    "validate-cycle-dims": (1,
        "d3107f4b718b4335796b7d250e376d1ef72c7ebe7195b4c2a304c84bdb18c207", ""),
    "solve-ddim-dims": (0,
        "c2fb328661d9e5e4b0ea2c95bc8011b0926a1972fe19c20c653a2ac77a541356", ""),
    "solve-dc-edge-values": (0,
        "7eee13893ed19eeaeb391edf084341f05ea766c9264b07d605faf33c4e4f873e", ""),
    "solve-dc-edge-shape": (0,
        "fe61f9f67d7c740efa8cdbd2bda23fe15debe8da21f8f5d9d2fbb6c0a8c26046", ""),
    "solve-diagonal-values": (0,
        "6fceb1ab467a6e82754ced1b38525712a7d0fef1ce05edf25cd75f0446093a48", ""),
    "solve-diagonal-shape": (0,
        "ec2b85fe26cab3a98767a85713d7daa7e4ebb64f35ed66986b8851da991f9760", ""),
    "solve-random-edge-values": (0,
        "38459d100cde033a5209ae6a97c1934d81c1e9dc6dd28ff3d073d3cd53fcc638", ""),
    "solve-random-edge-shape": (0,
        "52943b7eab209137fa5851772ddb037893c622bc58e67784828327a6f6dd2da2", ""),
    "solve-rect-values": (0,
        "dc05e8bc388980e9718b3ade3230c809f575993a04fa462162dac74699a5bfcb", ""),
    "solve-rect-shape": (0,
        "3f8a0c435b90a75523aa518834174103678a9c187f5cf5720cd54e83ae73b015", ""),
    "solve-walk-values": (0,
        "3303b3336d253a317ae97908e9724e5327d0fa838483bbdd78c3d532088f76bc", ""),
    "solve-walk-shape": (0,
        "23339cc6aec8083a076c20446c7acc6c62f27df96870c1ac8c004e3e59e57406", ""),
    "solve-diagonal-thin": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: usogrid [-h] {gen,validate,enumerate,solve,adversary,bench} ...\n"
        "usogrid: error: --alg diagonal needs a square grid\n"),
}


class TestReroutedOutputs:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rerouted")
        paths = {name: root / f"{name}.json"
                 for name in ("values", "shape", "dims", "thin", "cycle-dims")}
        paths["values"].write_text(json.dumps(values_to_json(gen_one_line(5, 5, 11))))
        paths["shape"].write_text(json.dumps(grid_to_json(
            OrientedGrid.from_values(gen_one_line(6, 6, 4)))))
        paths["dims"].write_text(json.dumps(grid_to_json(gen_separable_ddim((2, 3, 4), 2))))
        paths["thin"].write_text(json.dumps(values_to_json(gen_one_line(3, 4, 1))))
        paths["cycle-dims"].write_text(json.dumps({"dims": [2, 2], "edges": [
            {"a": a, "b": b, "dir": d} for d, a, b in NON_USO_EDGES["four-cycle"]]}))
        return {name: str(path) for name, path in paths.items()}

    @staticmethod
    def _argv(name, files):
        command, rest = name.split("-", 1)
        if command == "validate":
            return ["validate", files[rest]]
        alg, instance = rest.rsplit("-", 1)
        return ["solve", "--alg", alg, "--grid", files[instance]]

    @pytest.mark.parametrize("name", sorted(REROUTED_OUTPUTS))
    def test_output_matches_frozen_hash(self, files, capsys, name):
        code, out, err = run(capsys, *self._argv(name, files))
        if name.startswith("solve-") and code == 0:
            report = json.loads(out)
            report.pop("wall_time")
            out = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert (code, _sha(out), err) == REROUTED_OUTPUTS[name]
