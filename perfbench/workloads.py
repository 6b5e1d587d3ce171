"""The benchmark's four workloads, built from the ``--seed`` argument.

Each builder returns the schedule of one pass: a list of rounds, each a list
of :class:`Op`.  An op's ``run`` is the timed call into usogrid; its
``check`` verifies the output afterwards, outside the timed region, and
reports the op's exact query counts.  Every instance is generated here, in
set-up, except where the CLI generates inside the op (``--model``).

Rounds mix op kinds in a fixed ratio, so that a run that stops at a round
boundary measures the same mix whatever its length.  Usogrid functions are
looked up through their modules at call time, so that tracing, which
rebinds those names, sees every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from usogrid import cli, gen, grid, kernels, oracles, report, serialize, solvers

from spans import subgrids_scanned

#: Exact USO counts of the enumeration ops (regression constants of the
#: library's own test suite).
USO_COUNTS = {(2, 2): 12, (3, 3): 5796}


@dataclass
class Outcome:
    """Verdict and cost of one op.

    ``count`` is the op's distinct queries in the model ``report.ALG_QUERY_KIND``
    assigns to its algorithm; a validator op counts the subgrids it scanned,
    an enumeration op 0.  ``bound_use`` is that count over the paper bound.
    """

    ok: bool
    vertex: int = 0
    edge: int = 0
    count: int = 0
    bound_use: float | None = None
    detail: str = ""


@dataclass
class Op:
    kind: str
    instance: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _solve_outcome(rep: report.RunReport) -> Outcome:
    kind = report.ALG_QUERY_KIND[rep.algorithm]
    used = rep.queries[kind]
    return Outcome(rep.verdict == "ok", rep.queries["vertex"], rep.queries["edge"],
                   used, used / rep.bound, rep.verdict)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


# -- vertex-oneline ---------------------------------------------------------

def _rect_op(kind: str, shape: tuple[int, int], seed: int) -> Op:
    m, n = shape
    vm = gen.gen_one_line(m, n, seed)

    def run():
        return solvers.rectangular_solve(oracles.vertex_oracle(vm, record=False), m, n)

    def check(result) -> Outcome:
        sink, counter = result
        return _solve_outcome(report.RunReport.build(
            "rect", (m, n), seed, counter, solvers.rectangular_bound(m, n), sink,
            expected_sink=vm.argmin_vertex()))

    return Op(kind, f"{kind}:{m}x{n}:{seed}", run, check)


def build_vertex_oneline(seed: int, workdir: Path, tiny: bool) -> list[list[Op]]:
    """Rect solves on one-line instances: three square ones per tall one.

    The tall shape runs through ``TransposedVertexOracle``.  Three to one
    keeps the median op inside the square ops rather than on the boundary
    between the two kinds.
    """
    square, tall, rounds = ((16, 16), (32, 8), 2) if tiny else ((256, 256), (512, 128), 12)
    seeds = _seeds(seed, 4 * rounds)
    return [
        [_rect_op("square", square, seeds[4 * r + k]) for k in range(3)]
        + [_rect_op("tall", tall, seeds[4 * r + 3])]
        for r in range(rounds)
    ]


# -- edge-dc ----------------------------------------------------------------

def _dc_op(kind: str, shape: tuple[int, int], seed: int) -> Op:
    m, n = shape
    vm = gen.gen_one_line(m, n, seed)

    def run():
        return solvers.dc_edge_solve(oracles.edge_oracle(vm, record=False), m, n)

    def check(result) -> Outcome:
        sink, counter = result
        return _solve_outcome(report.RunReport.build(
            "dc-edge", (m, n), seed, counter, solvers.dc_edge_bound(m, n), sink,
            expected_sink=vm.argmin_vertex()))

    return Op(kind, f"{kind}:{m}x{n}:{seed}", run, check)


def build_edge_dc(seed: int, workdir: Path, tiny: bool) -> list[list[Op]]:
    """Divide-and-conquer edge solves: three square per padded rectangle.

    The rectangle runs through ``PaddedEdgeOracle``.
    """
    square, padded, rounds = ((16, 16), (12, 16), 2) if tiny else ((512, 512), (384, 512), 6)
    seeds = _seeds(seed, 4 * rounds)
    return [
        [_dc_op("square", square, seeds[4 * r + k]) for k in range(3)]
        + [_dc_op("padded", padded, seeds[4 * r + 3])]
        for r in range(rounds)
    ]


# -- kernels-validate -------------------------------------------------------

def _validate_op(kind: str, g: grid.OrientedGrid, label: str) -> Op:
    m, n = g.shape.rows, g.shape.cols

    def run():
        return grid.validate_uso(g)

    def check(violation) -> Outcome:
        if violation is None:
            return Outcome(kind == "accept", count=subgrids_scanned(m, n, None),
                           detail="accepted")
        rmask = sum(1 << r for r in violation.rows)
        cmask = sum(1 << c for c in violation.cols)
        scanned = subgrids_scanned(m, n, (rmask, cmask, violation.sink_count))
        sub = g.restrict(violation.rows, violation.cols)
        sinks = sum(sub.is_sink(v) for v in sub.shape.vertices())
        ok = kind == "reject" and sinks != 1 and sinks == violation.sink_count
        return Outcome(ok, count=scanned, detail=f"{sinks} sinks in {violation}")

    return Op(kind, label, run, check)


def _enumerate_op(shape: tuple[int, int]) -> Op:
    def check(total) -> Outcome:
        return Outcome(total == USO_COUNTS[shape], detail=f"{total} USOs")

    return Op("enumerate", f"enumerate:{shape[0]}x{shape[1]}",
              lambda: gen.count_usos(shape), check)


def build_kernels_validate(seed: int, workdir: Path, tiny: bool) -> list[list[Op]]:
    """Validator and enumerator: one pass is a single round.

    The round holds one 3x3 enumeration, full-scan validations of one-line
    USOs (most of the time) and, after each, ten validations of uniformly
    random orientations that exit after a few subgrids (most of the ops).
    The round is long enough that a run holds fewer than ten enumerations,
    so the tail percentile lands among the full scans, not on the boundary
    between them and the enumerations.
    """
    side, enum_shape, accepts = (4, (2, 2), 3) if tiny else (7, (3, 3), 96)
    seeds = _seeds(seed, accepts)
    rng = random.Random(seed)
    bits = kernels.edge_count(side, side)
    ops = [_enumerate_op(enum_shape)]
    for k in range(accepts):
        uso = grid.OrientedGrid.from_values(gen.gen_one_line(side, side, seeds[k]))
        ops.append(_validate_op("accept", uso, f"accept:{side}x{side}:{seeds[k]}"))
        for t in range(10):
            word = rng.getrandbits(bits)
            ops.append(_validate_op(
                "reject", grid.OrientedGrid.from_edge_word(side, side, word),
                f"reject:{side}x{side}:{k}.{t}"))
    return [ops]


# -- cli-explicit -----------------------------------------------------------

def _cli_op(kind: str, label: str, argv: list[str], out: Path, expected_sink=None) -> Op:
    full_argv = argv + ["--report" if argv[0] == "solve" else "-o", str(out)]

    def run():
        try:
            return cli.main(full_argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code

    def check(code) -> Outcome:
        if code != 0:
            return Outcome(False, detail=f"exit code {code}")
        doc = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        if argv[0] == "adversary":
            used = doc["queries_vertex"]
            return Outcome(doc["verdict"] == "consistent", used, 0, used,
                           used / doc["expected"], doc["verdict"])
        kind_of = report.ALG_QUERY_KIND[doc["algorithm"]]
        used = doc["queries"][kind_of]
        ok = doc["verdict"] == "ok" and (expected_sink is None or doc["sink"] == expected_sink)
        return Outcome(ok, doc["queries"]["vertex"], doc["queries"]["edge"], used,
                       used / doc["bound"], f"{doc['verdict']} sink {doc['sink']}")

    return Op(kind, label, run, check)


def build_cli_explicit(seed: int, workdir: Path, tiny: bool) -> list[list[Op]]:
    """In-process ``usogrid`` commands; reports go to files in ``workdir``.

    Each round runs the four commands with the adversary twice: sorted by
    cost the round reads ddim < adversary < adversary < oneline < file, so
    the median op is an adversary run and the tail the explicit-file solve.
    """
    if tiny:
        file_side, oneline, ddim, adv, rounds, files = 6, "8x8", "2x2x2x2", "4x4", 2, 1
    else:
        file_side, oneline, ddim, adv, rounds, files = 32, "128x128", "5x5x5x5", "7x7", 16, 4
    seeds = _seeds(seed, files + 2 * rounds)
    report_path = workdir / "report.json"
    grid_files = []
    for f in range(files):
        vm = gen.gen_one_line(file_side, file_side, seeds[f])
        path = workdir / f"grid-{f}.json"
        doc = serialize.grid_to_json(grid.OrientedGrid.from_values(vm))
        path.write_text(json.dumps(doc), encoding="utf-8")
        grid_files.append((path, [c + 1 for c in vm.argmin_vertex()]))
    schedule = []
    for r in range(rounds):
        path, sink = grid_files[r % files]
        s1, s2 = seeds[files + 2 * r], seeds[files + 2 * r + 1]
        adversary = _cli_op("adversary", f"adversary:{adv}",
                            ["adversary", "--shape", adv, "--alg", "rect"], report_path)
        schedule.append([
            _cli_op("file", f"file:{file_side}x{file_side}:{seeds[r % files]}",
                    ["solve", "--alg", "rect", "--grid", str(path)], report_path, sink),
            _cli_op("oneline", f"oneline:{oneline}:{s1}",
                    ["solve", "--alg", "rect", "--model", "oneline", "--shape", oneline,
                     "--seed", str(s1)], report_path),
            _cli_op("ddim", f"ddim:{ddim}:{s2}",
                    ["solve", "--alg", "ddim", "--model", "separable", "--shape", ddim,
                     "--seed", str(s2)], report_path),
            adversary,
            adversary,
        ])
    return schedule


WORKLOADS: dict[str, Callable[[int, Path, bool], list[list[Op]]]] = {
    "vertex-oneline": build_vertex_oneline,
    "edge-dc": build_edge_dc,
    "kernels-validate": build_kernels_validate,
    "cli-explicit": build_cli_explicit,
}
