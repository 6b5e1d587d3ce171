"""JSON boundary: grid files, point instances, transcript JSON lines.

This is where coordinates turn 1-based.  Grid files carry either a value
matrix or an explicit edge list, never both::

    {"shape": [m, n], "values": [[...], ...]}
    {"shape": [m, n], "edges": [{"a": [i, j], "b": [i, j], "dir": "ab"|"ba"}, ...]}
    {"dims": [n1, ..., nd], "edges": [...]}        (coordinate-tuple endpoints)
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import kernels
from .dgrid import DOrientedGrid, ddim_edge_list
from .errors import GridError
from .gen import PointInstance
from .grid import Direction, GridShape, OrientedGrid, ValueMatrix, brute_force_sink
from .oracles import TranscriptRecord, VertexAnswer


def _v_out(v) -> list[int]:
    return [c + 1 for c in v]


def _ints(xs, what: str) -> list[int]:
    """A JSON list of integers; floats, strings and booleans are refused."""
    if type(xs) is not list or not set(map(type, xs)) <= {int}:
        raise GridError(f"{what} must be a list of integers, got {xs!r}")
    return xs


def _v_in(v) -> tuple[int, ...]:
    """A 0-based vertex from a JSON list of 1-based integer coordinates."""
    coords = tuple([c - 1 for c in v if type(c) is int]) if type(v) is list else None
    if coords is None or len(coords) != len(v) or min(coords, default=0) < 0:
        raise GridError(f"coordinates must be a list of 1-based integers, got {v!r}")
    return coords


def values_to_json(vm: ValueMatrix) -> dict:
    m, n = vm.values.shape
    return {"shape": [m, n], "values": [list(map(float, row)) for row in vm.values]}


def grid_to_json(grid: DOrientedGrid) -> dict:
    """An explicit grid as a file: ``"shape"`` and the kernels' edge order
    for an :class:`OrientedGrid`, ``"dims"`` and :func:`ddim_edge_list`
    order for any other grid."""
    planar = isinstance(grid, OrientedGrid)
    pairs = kernels.edge_list(*grid.dims) if planar else ddim_edge_list(grid.dims)
    edges = [{"a": _v_out(a), "b": _v_out(b), "dir": "ab" if grid.points_to(a, b) else "ba"}
             for a, b in pairs]
    return {"shape" if planar else "dims": list(grid.dims), "edges": edges}


@dataclass(frozen=True)
class GridDoc:
    """A loaded or generated instance: a value matrix, or an explicit 2-D or
    d-dimensional orientation.  Solvers query ``source`` directly; only
    :attr:`grid` expands a value matrix into an explicit line-mask grid."""

    source: ValueMatrix | OrientedGrid | DOrientedGrid

    @property
    def is_ddim(self) -> bool:
        """True for a "dims" grid, of any dimension; an OrientedGrid is 2-D."""
        return isinstance(self.source, DOrientedGrid) and not isinstance(
            self.source, OrientedGrid)

    @property
    def values(self) -> ValueMatrix | None:
        return self.source if isinstance(self.source, ValueMatrix) else None

    @property
    def grid(self) -> OrientedGrid | DOrientedGrid:
        """The explicit orientation, built anew from a value matrix on each access."""
        if isinstance(self.source, ValueMatrix):
            return OrientedGrid.from_values(self.source)
        return self.source

    @property
    def dims(self) -> tuple[int, ...]:
        return self.source.dims

    def sink(self) -> tuple[int, ...]:
        """The unique sink by full scan (0-based); no oracle accounting."""
        if isinstance(self.source, ValueMatrix):
            return self.source.argmin_vertex()
        return brute_force_sink(self.source)


def _directed_pairs(edge_objs) -> list[tuple[tuple, tuple]]:
    pairs = []
    for obj in edge_objs:
        a = _v_in(obj["a"])
        b = _v_in(obj["b"])
        direction = obj["dir"]
        if direction not in ("ab", "ba"):
            raise GridError(f'edge "dir" must be "ab" or "ba", got {direction!r}')
        pairs.append((a, b) if direction == "ab" else (b, a))
    return pairs


def load_grid(doc: dict) -> GridDoc:
    """Parse a grid file's JSON value; anything malformed raises GridError."""
    if not isinstance(doc, dict):
        raise GridError("a grid file holds one JSON object")
    try:
        return GridDoc(_grid_source(doc))
    except GridError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise GridError(f"malformed grid file: {exc!r}") from exc


def _grid_source(doc: dict) -> ValueMatrix | OrientedGrid | DOrientedGrid:
    if "dims" in doc:
        if "edges" not in doc or "values" in doc or "shape" in doc:
            raise GridError('a d-dimensional grid file needs "dims" and "edges" only')
        return DOrientedGrid(_ints(doc["dims"], '"dims"'), _directed_pairs(doc["edges"]))
    if "shape" not in doc:
        raise GridError('grid file needs a "shape" (or "dims") field')
    m, n = _ints(doc["shape"], '"shape"')
    has_values = "values" in doc
    has_edges = "edges" in doc
    if has_values == has_edges:
        raise GridError('grid file needs exactly one of "values" and "edges"')
    if has_values:
        vm = ValueMatrix(doc["values"])
        if vm.values.shape != (m, n):
            raise GridError(f"values are {vm.values.shape}, shape says {(m, n)}")
        return vm
    shape = GridShape(m, n)
    pairs = _directed_pairs(doc["edges"])
    for tail, head in pairs:
        if len(tail) != 2 or len(head) != 2:
            raise GridError("2-dimensional edge endpoints must be [row, col]")
    return OrientedGrid(shape, pairs)


def load_grid_file(path) -> GridDoc:
    with open(path, "r", encoding="utf-8") as fh:
        return load_grid(json.load(fh))


def point_instance_to_json(inst: PointInstance) -> dict:
    return {
        "left": [[float(x), float(y)] for x, y in inst.left],
        "right": [[float(x), float(y)] for x, y in inst.right],
    }


def point_instance_from_json(doc: dict) -> PointInstance:
    return PointInstance(
        tuple((float(x), float(y)) for x, y in doc["left"]),
        tuple((float(x), float(y)) for x, y in doc["right"]),
    )


def transcript_to_jsonl(records: list[TranscriptRecord]) -> str:
    """One JSON object per line: {"q": {...}, "a": {...}}, for audit and replay."""
    lines = []
    for rec in records:
        if rec[0] == "vertex":
            _, v, answer = rec
            obj = {
                "q": {"kind": "vertex", "v": _v_out(v)},
                "a": {
                    "in": sorted(_v_out(w) for w in answer.incoming),
                    "out": sorted(_v_out(w) for w in answer.outgoing),
                },
            }
        elif rec[0] == "edge":
            _, (a, b), head = rec
            obj = {
                "q": {"kind": "edge", "a": _v_out(a), "b": _v_out(b)},
                "a": {"dir": Direction.AB.value if head == b else Direction.BA.value},
            }
        else:
            raise GridError(f"unknown transcript record kind {rec[0]!r}")
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def transcript_from_jsonl(text: str) -> list[TranscriptRecord]:
    records: list[TranscriptRecord] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        q, a = obj["q"], obj["a"]
        if q["kind"] == "vertex":
            v = _v_in(q["v"])
            answer = VertexAnswer(
                v,
                frozenset(_v_in(w) for w in a["in"]),
                frozenset(_v_in(w) for w in a["out"]),
            )
            records.append(("vertex", v, answer))
        elif q["kind"] == "edge":
            ea, eb = _v_in(q["a"]), _v_in(q["b"])
            head = eb if a["dir"] == "ab" else ea
            records.append(("edge", (ea, eb), head))
        else:
            raise GridError(f"unknown transcript query kind {q['kind']!r}")
    return records
