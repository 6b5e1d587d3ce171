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
from .dgrid import DEFAULT_SUBGRID_CAP, DOrientedGrid, validate_uso_ddim
from .errors import CapExceededError, NotUsoError
from .grid import OrientedGrid, ValueMatrix, brute_force_sink, validate_uso
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

_VERDICT_EXIT = {"ok": EXIT_OK, "bound-exceeded": EXIT_BOUND, "sink-mismatch": EXIT_SINK}


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


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out_path: str | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def _generate(args, parser) -> ValueMatrix | DOrientedGrid:
    """The ``--model`` oneline or separable instance of ``--shape`` and ``--seed``."""
    dims = _parse_shape(args.shape, parser, want_dims=2 if args.model == "oneline" else None)
    if args.seed < 0:
        parser.error(f"--seed must be non-negative for --model {args.model}, got {args.seed}")
    if args.model == "oneline":
        return gen.gen_one_line(*dims, args.seed)
    return gen.gen_separable_ddim(dims, args.seed)


def _cmd_gen(args, parser) -> int:
    if args.model == "oneline":
        doc = serialize.values_to_json(_generate(args, parser))
    elif args.model == "separable":
        doc = serialize.grid_to_json(_generate(args, parser))
    else:  # enumerate-index: the seed doubles as the index
        m, n = _parse_shape(args.shape, parser)
        words = gen.uso_words((m, n))
        if not 0 <= args.seed < len(words):
            parser.error(
                f"index {args.seed} out of range: {m}x{n} has {len(words)} USOs"
            )
        doc = serialize.grid_to_json(OrientedGrid.from_edge_word(m, n, words[args.seed]))
    _emit(doc, args.out)
    return EXIT_OK


def _load_file(path: str, parser) -> ValueMatrix | DOrientedGrid:
    try:
        return serialize.load_grid_file(path)
    except (OSError, ValueError) as exc:  # GridError and JSON/UTF-8 decoding
        parser.error(f"cannot load {path}: {exc}")


def _cmd_validate(args, parser) -> int:
    source = _load_file(args.grid, parser)
    # The axis count picks the validator and its witness, as in _solve_once.
    planar = len(source.dims) == 2
    validate = validate_uso if planar else validate_uso_ddim
    violation = validate(source, max_subgrids=args.max_subgrids)
    if violation is None:
        print("ok")
        return EXIT_OK
    if planar:
        detail = {"rows": sorted(r + 1 for r in violation.rows),
                  "cols": sorted(c + 1 for c in violation.cols)}
    else:
        detail = {"subsets": [sorted(c + 1 for c in s) for s in violation.subsets]}
    detail["sinks"] = violation.sink_count
    print(json.dumps({"violation": detail}, sort_keys=True))
    return EXIT_VIOLATION


def _cmd_enumerate(args, parser) -> int:
    m, n = _parse_shape(args.shape, parser)
    if args.count_only:
        print(gen.count_usos((m, n)))
        return EXIT_OK
    lines = [json.dumps(serialize.grid_to_json(grid), sort_keys=True, separators=(",", ":"))
             for grid in gen.enumerate_usos((m, n))]
    _write("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def _load_instance(args, parser) -> ValueMatrix | DOrientedGrid:
    if args.grid:
        return _load_file(args.grid, parser)
    if not args.model or not args.shape:
        parser.error("need either --grid or --model with --shape")
    return _generate(args, parser)


def _solve_once(alg: str, source: ValueMatrix | DOrientedGrid, seed: int,
                parser) -> RunReport:
    """Solve with ``alg``; ddim runs on any axis count, every other algorithm
    on two axes."""
    start = time.perf_counter()
    dims = source.dims
    if alg != "ddim" and len(dims) != 2:
        parser.error(f"--alg {alg} needs a 2-dimensional grid")
    if alg == "diagonal" and dims[0] != dims[1]:
        parser.error("--alg diagonal needs a square grid")
    entry = ALGORITHMS[alg]
    make_oracle = edge_oracle if entry.kind == "edge" else vertex_oracle
    sink, counter = entry.solve(make_oracle(source, record=False), dims, seed)
    expected = (source.argmin_vertex() if isinstance(source, ValueMatrix)
                else brute_force_sink(source))
    return RunReport.build(
        alg, dims, seed, counter, entry.bound(dims), sink, expected_sink=expected,
        wall_time=time.perf_counter() - start,
    )


def _cmd_solve(args, parser) -> int:
    source = _load_instance(args, parser)
    report = _solve_once(args.alg, source, args.seed, parser)
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
            reports.append(_solve_once(args.alg, gen.gen_one_line(size, size, seed), seed,
                                       parser))
    reports.sort(key=lambda r: (r.algorithm, r.shape, r.seed))
    _write(CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in reports), args.csv)
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
    p.add_argument("--max-subgrids", type=int, default=DEFAULT_SUBGRID_CAP,
                   help="validator cap on the number of nonempty subgrids "
                        f"(default {DEFAULT_SUBGRID_CAP})")

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
    p.add_argument("--alg", choices=sorted(ALGORITHMS), required=True)
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
    try:
        return _HANDLERS[args.command](args, parser)
    except (CapExceededError, NotUsoError) as exc:  # caps; solving a non-USO file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
