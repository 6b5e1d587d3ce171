"""JSON boundary: grid files.

This is where coordinates turn 1-based.  Grid files carry either a value
matrix or an explicit edge list, never both::

    {"shape": [m, n], "values": [[...], ...]}
    {"shape": [m, n], "edges": [{"a": [i, j], "b": [i, j], "dir": "ab"|"ba"}, ...]}
    {"dims": [n1, ..., nd], "edges": [...]}        (coordinate-tuple endpoints)

An edge's ``"dir"`` is ``"ab"`` when it points from ``"a"`` to ``"b"``.
Oracle transcripts have no file format; they stay in memory for
:func:`usogrid.oracles.replay_transcript`.
"""

from __future__ import annotations

import json

from . import kernels
from .dgrid import DOrientedGrid
from .errors import GridError
from .grid import GridShape, OrientedGrid, ValueMatrix


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
    """An explicit grid as a file: ``"shape"`` and the 2-D edge-word order
    for an :class:`OrientedGrid`, ``"dims"`` and the axis order 0..d-1 for
    any other grid (see :func:`usogrid.kernels.edge_list`)."""
    planar = isinstance(grid, OrientedGrid)
    axes = kernels.PLANAR_AXES if planar else range(len(grid.dims))
    edges = [{"a": _v_out(a), "b": _v_out(b), "dir": "ab" if grid.points_to(a, b) else "ba"}
             for a, b in kernels.edge_list(grid.dims, axes)]
    return {"shape" if planar else "dims": list(grid.dims), "edges": edges}


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


def load_grid(doc: dict) -> ValueMatrix | OrientedGrid | DOrientedGrid:
    """Parse a grid file's JSON value into the instance it holds: a value
    matrix, an explicit 2-D grid or a d-dimensional grid, each an oracle
    source.  Anything malformed raises GridError."""
    if not isinstance(doc, dict):
        raise GridError("a grid file holds one JSON object")
    try:
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
            # numpy would read "1" and true as numbers: refuse all but JSON numbers.
            if not all(type(row) is list and set(map(type, row)) <= {int, float}
                       for row in doc["values"]):
                raise GridError('"values" must be rows of JSON numbers')
            vm = ValueMatrix(doc["values"])
            if vm.values.shape != (m, n):
                raise GridError(f"values are {vm.values.shape}, shape says {(m, n)}")
            return vm
        return OrientedGrid(GridShape(m, n), _directed_pairs(doc["edges"]))
    except GridError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GridError(f"malformed grid file: {exc!r}") from exc


def load_grid_file(path) -> ValueMatrix | OrientedGrid | DOrientedGrid:
    with open(path, "r", encoding="utf-8") as fh:
        return load_grid(json.load(fh))
