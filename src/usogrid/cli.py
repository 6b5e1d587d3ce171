"""Command-line surface: generate, validate, enumerate, solve, adversary, bench.

Exit codes: 0 success, 1 validation violation, 2 usage error, 3 cap exceeded,
4 bound violated, 5 sink mismatch, 6 adversary inconsistency.  Identical
command lines produce byte-identical CSV output and JSON output identical up
to the wall_time field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import gen, serialize
from .dgrid import DEFAULT_SUBGRID_CAP, validate_uso_ddim
from .errors import CapExceededError, NotUsoError
from .grid import DEFAULT_VALIDATION_COORDS, OrientedGrid, check_validation_cap, validate_uso
from .oracles import AdversaryVertexOracle, edge_oracle, replay_transcript, vertex_oracle
from .report import CSV_HEADER, RunReport
from .solvers import ALGORITHMS

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BOUND = 4
EXIT_SINK = 5
EXIT_ADVERSARY = 6

_VERDICT_EXIT = {"ok": EXIT_OK, "unverified": EXIT_OK, "bound-exceeded": EXIT_BOUND,
                 "sink-mismatch": EXIT_SINK}


def _parse_shape(text: str, parser: argparse.ArgumentParser, want_dims: int | None = 2):
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        parser.error(f"bad shape {text!r}: expected like 8x8")
    if any(d < 1 for d in dims):
        parser.error(f"bad shape {text!r}: sizes must be positive")
    if want_dims is not None and len(dims) != want_dims:
        parser.error(f"shape {text!r} must have exactly {want_dims} dimensions")
    return dims


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args, parser) -> int:
    if args.model == "oneline":
        m, n = _parse_shape(args.shape, parser)
        doc = serialize.values_to_json(gen.gen_one_line(m, n, args.seed))
    elif args.model == "separable":
        dims = _parse_shape(args.shape, parser, want_dims=None)
        doc = serialize.grid_to_json(gen.gen_separable_ddim(dims, args.seed))
    else:  # enumerate-index: the seed doubles as the index
        m, n = _parse_shape(args.shape, parser)
        try:
            words = gen.uso_words((m, n))
        except CapExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CAP
        if not 0 <= args.seed < len(words):
            parser.error(
                f"index {args.seed} out of range: {m}x{n} has {len(words)} USOs"
            )
        doc = serialize.grid_to_json(OrientedGrid.from_edge_word(m, n, words[args.seed]))
    _emit(doc, args.out)
    return EXIT_OK


def _load_file(path: str, parser) -> serialize.GridDoc:
    try:
        return serialize.load_grid_file(path)
    except (OSError, ValueError) as exc:  # GridError and JSON/UTF-8 decoding
        parser.error(f"cannot load {path}: {exc}")


def _cmd_validate(args, parser) -> int:
    doc = _load_file(args.grid, parser)
    try:
        if doc.is_ddim:
            violation = validate_uso_ddim(doc.grid, max_subgrids=args.max_subgrids)
        else:
            check_validation_cap(*doc.dims, args.max_coords)  # before building the grid
            violation = validate_uso(doc.grid, max_coords=args.max_coords)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    if violation is None:
        print("ok")
        return EXIT_OK
    if doc.is_ddim:
        detail = {
            "subsets": [sorted(c + 1 for c in s) for s in violation.subsets],
            "sinks": violation.sink_count,
        }
    else:
        detail = {
            "rows": sorted(r + 1 for r in violation.rows),
            "cols": sorted(c + 1 for c in violation.cols),
            "sinks": violation.sink_count,
        }
    print(json.dumps({"violation": detail}, sort_keys=True))
    return EXIT_VIOLATION


def _cmd_enumerate(args, parser) -> int:
    m, n = _parse_shape(args.shape, parser)
    try:
        if args.count_only:
            print(gen.count_usos((m, n)))
            return EXIT_OK
        lines = []
        for grid in gen.enumerate_usos((m, n)):
            lines.append(json.dumps(serialize.grid_to_json(grid), sort_keys=True,
                                    separators=(",", ":")))
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_instance(args, parser) -> serialize.GridDoc:
    if args.grid:
        return _load_file(args.grid, parser)
    if not args.model or not args.shape:
        parser.error("need either --grid or --model with --shape")
    if args.model == "oneline":
        m, n = _parse_shape(args.shape, parser)
        return serialize.GridDoc(gen.gen_one_line(m, n, args.seed))
    if args.model == "separable":
        dims = _parse_shape(args.shape, parser, want_dims=None)
        return serialize.GridDoc(gen.gen_separable_ddim(dims, args.seed))
    parser.error(f"model {args.model!r} not usable here")


def _solve_once(alg: str, doc: serialize.GridDoc, seed: int, parser) -> RunReport:
    start = time.perf_counter()
    if alg == "ddim" and not doc.is_ddim:
        parser.error("--alg ddim needs a d-dimensional grid (dims format)")
    if alg != "ddim" and doc.is_ddim:
        parser.error(f"--alg {alg} needs a 2-dimensional grid")
    dims = doc.dims
    if alg == "diagonal" and dims[0] != dims[1]:
        parser.error("--alg diagonal needs a square grid")
    entry = ALGORITHMS[alg]
    make_oracle = edge_oracle if entry.kind == "edge" else vertex_oracle
    sink, counter = entry.solve(make_oracle(doc.source, record=False), dims, seed)
    return RunReport.build(
        alg, dims, seed, counter, entry.bound(dims), sink, expected_sink=doc.sink(),
        wall_time=time.perf_counter() - start,
    )


def _cmd_solve(args, parser) -> int:
    doc = _load_instance(args, parser)
    try:
        report = _solve_once(args.alg, doc, args.seed, parser)
    except NotUsoError as exc:  # from the solver, or the file has no unique sink
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(report.to_json_dict(), args.report)
    return _VERDICT_EXIT[report.verdict]


def _cmd_adversary(args, parser) -> int:
    m, n = _parse_shape(args.shape, parser)
    if args.alg == "diagonal" and m != n:
        parser.error("--alg diagonal needs a square shape")
    oracle = AdversaryVertexOracle((m, n))
    ALGORITHMS[args.alg].solve(oracle, (m, n), 0)
    grid = oracle.materialize()
    try:
        valid = validate_uso(grid) is None
    except CapExceededError:
        valid = "skipped-cap"
    replay_ok = replay_transcript(oracle.transcript, vertex_oracle(grid))
    consistent = replay_ok and valid is not False
    doc = {
        "algorithm": args.alg,
        "shape": [m, n],
        "queries_vertex": oracle.counter.vertex_queries,
        "expected": m + n - 1,
        "materialized_valid": valid,
        "replay_ok": replay_ok,
        "verdict": "consistent" if consistent else "inconsistent",
    }
    _emit(doc, args.out)
    return EXIT_OK if consistent else EXIT_ADVERSARY


def _cmd_bench(args, parser) -> int:
    sizes = []
    for part in args.sizes.split(","):
        try:
            size = int(part)
        except ValueError:
            parser.error(f"bad size {part!r}")
        if size < 1:
            parser.error(f"bad size {part!r}")
        sizes.append(size)
    if args.trials < 1:
        parser.error("--trials must be positive")
    reports = []
    for size in sizes:
        for seed in range(args.trials):
            doc = serialize.GridDoc(gen.gen_one_line(size, size, seed))
            reports.append(_solve_once(args.alg, doc, seed, parser))
    reports.sort(key=lambda r: (r.algorithm, r.shape, r.seed))
    text = CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in reports)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if any(r.verdict == "sink-mismatch" for r in reports):
        return EXIT_SINK
    if any(not r.bound_ok for r in reports):
        return EXIT_BOUND
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usogrid",
        description="Grid unique-sink-orientation toolbox: generate, validate, solve, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a grid instance as JSON")
    p.add_argument("--model", choices=["oneline", "separable", "enumerate-index"],
                   required=True)
    p.add_argument("--shape", required=True, help="e.g. 8x8, or 2x3x4 for separable")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed; for enumerate-index, the index")
    p.add_argument("-o", "--out", help="output path (default stdout)")

    p = sub.add_parser("validate", help="check the unique-sink property of a grid file")
    p.add_argument("grid", help="grid JSON path")
    p.add_argument("--max-coords", type=int, default=DEFAULT_VALIDATION_COORDS,
                   help=f"validator cap on m + n (default {DEFAULT_VALIDATION_COORDS})")
    p.add_argument("--max-subgrids", type=int, default=DEFAULT_SUBGRID_CAP,
                   help="d-dimensional validator cap on subgrid count")

    p = sub.add_parser("enumerate", help="stream every USO of a small shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("-o", "--out", help="output path (default stdout)")

    p = sub.add_parser("solve", help="run a solver and write its run report")
    p.add_argument("--alg", choices=sorted(ALGORITHMS), required=True)
    p.add_argument("--grid", help="grid JSON path")
    p.add_argument("--model", choices=["oneline", "separable"],
                   help="generate the instance instead of loading one")
    p.add_argument("--shape")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="report JSON path (default stdout)")

    p = sub.add_parser("adversary", help="run a solver against the adaptive adversary")
    p.add_argument("--shape", required=True)
    p.add_argument("--alg", choices=["diagonal", "rect", "walk"], required=True)
    p.add_argument("-o", "--out", help="output path (default stdout)")

    p = sub.add_parser("bench", help="CSV of query counts over sizes and seeds")
    p.add_argument("--alg", choices=sorted(a for a in ALGORITHMS if a != "ddim"),
                   required=True)
    p.add_argument("--sizes", required=True, help="comma-separated square sizes")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--csv", help="output path (default stdout)")

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "solve": _cmd_solve,
    "adversary": _cmd_adversary,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _HANDLERS[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
