"""Explicit (m, n)-grid orientations, the USO validator, and ground-truth ops.

A grid is the Cartesian product of two complete graphs: vertices are (row,
column) pairs and two vertices are adjacent iff they share a row or a column.
Coordinates are 0-based throughout the Python API; the JSON layer
(:mod:`usogrid.serialize`) is the 1-based boundary.

:class:`OrientedGrid` is the d = 2 case of the grid core
:class:`usogrid.dgrid.DOrientedGrid`: every edge direction is stored, as one
column and one row line mask per vertex, so that non-USO candidates can be
represented and rejected; value matrices are a constructor, not the
canonical form.  As everywhere in the core, an edge is a (tail, head) pair
of vertices and ``points_to`` gives its direction.  The sink scan and the
cycle search below take a grid of any dimension.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .dgrid import (
    DEFAULT_SUBGRID_CAP,
    DOrientedGrid,
    _bits,
    _check_dims,
    _check_values,
    _check_vertex,
    _in_masks,
    _strides,
    _subgrid_cap_error,
    _value_lines,
)
from .errors import CyclicOrientationError, GridError, NotUsoError
from .kernels import _bit_list

Vertex = tuple[int, int]


@dataclass(frozen=True)
class GridShape:
    """Dimensions of an (m, n) grid."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        _check_dims((self.rows, self.cols))

    def vertices(self) -> Iterator[Vertex]:
        for i in range(self.rows):
            for j in range(self.cols):
                yield (i, j)


class _PlanarShape:
    """Mixin for a grid or handle that carries ``dims``: ``shape`` is its
    2-D view, the one the 2-D solvers check, and None unless it has two axes."""

    __slots__ = ()

    @property
    def shape(self) -> GridShape | None:
        return GridShape(*self.dims) if len(self.dims) == 2 else None


def _bool_mask(flags: np.ndarray) -> int:
    """Bit c set iff ``flags[c]``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class ValueMatrix(_PlanarShape):
    """m x n matrix of pairwise-distinct finite numbers.

    Comparing entries along rows and columns induces an (acyclic) orientation
    with edges pointing from the larger value to the smaller one.  A value
    matrix is an oracle source (see :mod:`usogrid.dgrid`): it answers vertex
    and edge queries by comparing entries, never building the explicit grid.
    """

    __slots__ = ("values", "dims")

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise GridError("value matrix must be 2-dimensional and nonempty")
        _check_values(arr)
        arr.setflags(write=False)
        self.values = arr
        self.dims = arr.shape

    def _out_lines(self, v: Vertex) -> tuple[int, int]:
        """The out masks along v's column and row: the smaller entries."""
        _check_vertex(self.dims, v)
        i, j = v
        x = self.values[i, j]
        return (_bool_mask(self.values[:, j] < x), _bool_mask(self.values[i] < x))

    def _points_to(self, tail: Vertex, head: Vertex) -> bool:
        """Whether the edge tail-head is directed tail -> head: tail is larger."""
        m, n = self.dims
        if not (len(tail) == 2 == len(head) and 0 <= tail[0] < m and 0 <= tail[1] < n
                and 0 <= head[0] < m and 0 <= head[1] < n):
            raise GridError(f"edge {tail}-{head} out of bounds for dims {self.dims}")
        if tail == head or (tail[0] != head[0] and tail[1] != head[1]):
            raise GridError(f"{tail}-{head} is not a grid edge")
        try:
            return self.values[tail] > self.values[head]
        except IndexError:
            raise GridError(f"edge {tail}-{head} has a coordinate that is not an int") from None

    def argmin_vertex(self) -> Vertex:
        """Position of the global minimum: the sink of the induced orientation."""
        i, j = np.unravel_index(int(np.argmin(self.values)), self.values.shape)
        return (int(i), int(j))

    def __eq__(self, other) -> bool:
        return isinstance(other, ValueMatrix) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:
        return f"ValueMatrix({self.values.tolist()!r})"


class OrientedGrid(DOrientedGrid, _PlanarShape):
    """Total edge orientation of an (m, n) grid: the d = 2 case of
    :class:`DOrientedGrid`.

    Axis 0 is the row coordinate, so ``lines[0][k]`` (bits over rows) holds
    the column through vertex k and ``lines[1][k]`` (bits over columns) its
    row.  This class adds only what 2-D callers read: its 2-D ``shape``,
    restriction to a subgrid and the kernels' row-edges-first edge words.
    Immutable after construction; safe to share across threads.
    """

    __slots__ = ()

    def __init__(self, shape: GridShape, directed_edges: Iterable[tuple[Vertex, Vertex]]):
        """Build from (tail, head) pairs; every grid edge must appear exactly once."""
        super().__init__((shape.rows, shape.cols), directed_edges)

    @classmethod
    def from_values(cls, vm: ValueMatrix) -> "OrientedGrid":
        """Orient every row/column pair from the larger entry to the smaller."""
        return cls._from_lines(vm.values.shape, _value_lines(vm.values))

    @classmethod
    def from_edge_word(cls, m: int, n: int, word: int) -> "OrientedGrid":
        """Decode a kernel edge word (see :mod:`usogrid.kernels`)."""
        dims = _check_dims((m, n))
        return cls._from_lines(dims, kernels.word_to_lines(dims, word, kernels.PLANAR_AXES))

    def restrict(self, rows: Iterable[int], cols: Iterable[int]) -> "OrientedGrid":
        """Induced sub-orientation, re-indexed to |rows| x |cols|.

        Result coordinate p maps to ``sorted(rows)[p]`` (and likewise for
        columns); the sorted order is the coordinate translation map.
        """
        rsel = sorted(set(rows))
        csel = sorted(set(cols))
        if not rsel or not csel:
            raise GridError("restriction needs nonempty row and column sets")
        for i in rsel:
            _check_vertex(self.dims, (i, csel[0]))
        for j in csel:
            _check_vertex(self.dims, (rsel[0], j))
        n = self.dims[1]
        col_lines, row_lines = self.lines
        return OrientedGrid._from_lines((len(rsel), len(csel)), (
            [_select_bits(col_lines[i * n + j], rsel) for i in rsel for j in csel],
            [_select_bits(row_lines[i * n + j], csel) for i in rsel for j in csel]))


def _select_bits(mask: int, order: Sequence[int]) -> int:
    """Bit p of the result is bit ``order[p]`` of ``mask``."""
    return sum(1 << p for p, x in enumerate(order) if mask >> x & 1)


@dataclass(frozen=True)
class UsoViolation:
    """First subgrid (in the validator's scan order) without a unique sink."""

    rows: frozenset[int]
    cols: frozenset[int]
    sink_count: int

    def __str__(self) -> str:
        return (
            f"subgrid rows={sorted(self.rows)} cols={sorted(self.cols)} "
            f"has {self.sink_count} sinks"
        )


def _two_axes(grid: DOrientedGrid | ValueMatrix) -> tuple[int, int]:
    """The sizes (m, n) of a grid with two axes; GridError for any other count."""
    if len(grid.dims) != 2:
        raise GridError(f"needs a grid with two axes, dims are {grid.dims}")
    return grid.dims


def validate_uso(
    source: DOrientedGrid | ValueMatrix, max_subgrids: int = DEFAULT_SUBGRID_CAP
) -> UsoViolation | None:
    """Check that every nonempty subgrid of a two-axis grid, or of the
    orientation a value matrix induces, has exactly one sink.

    Enumerates all (2^m - 1)(2^n - 1) subgrids, so more than
    ``max_subgrids`` of them raise :class:`CapExceededError` before a value
    matrix is oriented; partial validation is never done silently.
    """
    m, n = _two_axes(source)
    if ((1 << m) - 1) * ((1 << n) - 1) > max_subgrids:
        raise _subgrid_cap_error(source.dims, max_subgrids)
    lines = _value_lines(source.values) if isinstance(source, ValueMatrix) else source.lines
    hit = kernels.find_violation(m, n, lines)
    if hit is None:
        return None
    rmask, cmask, sinks = hit
    return UsoViolation(_bits(rmask), _bits(cmask), sinks)


def brute_force_sink(grid: DOrientedGrid) -> tuple[int, ...]:
    """The unique zero-out-degree vertex, by full scan; no oracle accounting."""
    sinks = [k for k, masks in enumerate(zip(*grid.lines)) if not any(masks)]
    if len(sinks) != 1:
        raise NotUsoError(
            f"not a USO: found {len(sinks)} sinks in the "
            f"{'x'.join(map(str, grid.dims))} grid"
        )
    return grid.vertex(sinks[0])


def _line_indices(grid: DOrientedGrid, k: int, masks: Sequence[int]) -> list[int]:
    """Indices of the neighbours of vertex k whose bits are set in ``masks``
    (one mask per axis)."""
    found = []
    for size, stride, mask in zip(grid.dims, _strides(grid.dims), masks):
        base = k - k // stride % size * stride
        found += [base + c * stride for c in _bit_list(mask)]
    return found


def _peel(grid: DOrientedGrid) -> tuple[list[int], list[int]]:
    """Remove sinks one at a time, the smallest vertex index first.

    Returns the removal order and the out-degrees left over: a vertex stays
    (its out-degree stays positive) iff it lies on or leads to a cycle.
    """
    outdeg = [sum(mask.bit_count() for mask in masks) for masks in zip(*grid.lines)]
    ready = [k for k, deg in enumerate(outdeg) if deg == 0]  # ascending: a heap
    order = []
    while ready:
        k = heapq.heappop(ready)
        order.append(k)
        out = tuple(line[k] for line in grid.lines)
        for u in _line_indices(grid, k, _in_masks(grid.vertex(k), grid.dims, out)):
            outdeg[u] -= 1
            if not outdeg[u]:
                heapq.heappush(ready, u)
    return order, outdeg


def find_cycle(grid: DOrientedGrid) -> list[tuple[int, ...]] | None:
    """A directed cycle of the orientation, or None when acyclic."""
    order, outdeg = _peel(grid)
    if len(order) == grid.vertex_count:
        return None
    # Every vertex left has an out-neighbour left; follow the smallest one
    # until a vertex repeats.
    k = next(k for k, deg in enumerate(outdeg) if deg)
    path: list[int] = []
    pos: dict[int, int] = {}
    while k not in pos:
        pos[k] = len(path)
        path.append(k)
        k = min(u for u in _line_indices(grid, k, [line[k] for line in grid.lines])
                if outdeg[u])
    return [grid.vertex(v) for v in path[pos[k] :]]


def topological_values(grid: DOrientedGrid) -> ValueMatrix:
    """Distinct values realizing the orientation of a two-axis grid: every
    edge points from the larger value to the smaller one (re-orienting the
    result reproduces the grid's lines exactly).

    Raises :class:`CyclicOrientationError` carrying a witness cycle when the
    orientation is not acyclic.
    """
    dims = _two_axes(grid)
    order, _ = _peel(grid)
    if len(order) != grid.vertex_count:
        raise CyclicOrientationError(find_cycle(grid))
    # Rank 0 is the first sink peeled.
    values = np.empty(grid.vertex_count, dtype=np.float64)
    values[order] = np.arange(len(order))
    return ValueMatrix(values.reshape(dims))
