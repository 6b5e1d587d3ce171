"""Explicit (m, n)-grid orientations, the USO validator, and ground-truth ops.

A grid is the Cartesian product of two complete graphs: vertices are (row,
column) pairs and two vertices are adjacent iff they share a row or a column.
Coordinates are 0-based throughout the Python API; the JSON layer
(:mod:`usogrid.serialize`) is the 1-based boundary.

:class:`OrientedGrid` is the d = 2 case of the grid core
:class:`usogrid.dgrid.DOrientedGrid`: every edge direction is stored, as one
column and one row line mask per vertex, so that non-USO candidates can be
represented and rejected; value matrices are a constructor, not the
canonical form.  The sink scan and the cycle search below take a grid of
any dimension.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .dgrid import DOrientedGrid, _bits, _check_values, _in_masks, _strides, _value_lines
from .errors import CapExceededError, CyclicOrientationError, GridError, NotUsoError
from .kernels import _bit_list

Vertex = tuple[int, int]

#: Explicit validator cap: refuse to enumerate subgrids when m + n exceeds it.
DEFAULT_VALIDATION_COORDS = 14


@dataclass(frozen=True)
class GridShape:
    """Dimensions of an (m, n) grid; ``coord_count`` is m + n."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise GridError(f"grid shape must be positive, got {self.rows}x{self.cols}")

    @property
    def coord_count(self) -> int:
        return self.rows + self.cols

    @property
    def vertex_count(self) -> int:
        return self.rows * self.cols

    def contains(self, v: Vertex) -> bool:
        return 0 <= v[0] < self.rows and 0 <= v[1] < self.cols

    def vertices(self) -> Iterator[Vertex]:
        for i in range(self.rows):
            for j in range(self.cols):
                yield (i, j)

    def index(self, v: Vertex) -> int:
        return v[0] * self.cols + v[1]

    def vertex(self, idx: int) -> Vertex:
        return divmod(idx, self.cols)


class Direction(Enum):
    """Orientation of a canonical edge: AB points from ``a`` to ``b``."""

    AB = "ab"
    BA = "ba"


@dataclass(frozen=True)
class Edge:
    """Unordered grid edge, stored with the lexicographically smaller endpoint first."""

    a: Vertex
    b: Vertex

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if a == b:
            raise GridError(f"edge endpoints must differ, got {a} twice")
        if a[0] != b[0] and a[1] != b[1]:
            raise GridError(f"edge endpoints must share a row or a column: {a}, {b}")
        if b < a:
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    def other(self, v: Vertex) -> Vertex:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise GridError(f"{v} is not an endpoint of {self}")


def _bool_mask(flags: np.ndarray) -> int:
    """Bit c set iff ``flags[c]``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class ValueMatrix:
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

    @property
    def shape(self) -> GridShape:
        return GridShape(*self.dims)

    def _contains(self, v: Vertex) -> bool:
        m, n = self.dims
        return len(v) == 2 and 0 <= v[0] < m and 0 <= v[1] < n

    def _out_lines(self, v: Vertex) -> tuple[int, int]:
        """The out masks along v's column and row: the smaller entries."""
        if not self._contains(v):
            raise GridError(f"vertex {v} out of bounds for {self.shape}")
        i, j = v
        x = self.values[i, j]
        return (_bool_mask(self.values[:, j] < x), _bool_mask(self.values[i] < x))

    def _points_to(self, tail: Vertex, head: Vertex) -> bool:
        """Whether the edge tail-head is directed tail -> head: tail is larger."""
        if not (self._contains(tail) and self._contains(head)):
            raise GridError(f"edge {tail}-{head} out of bounds for {self.shape}")
        if tail == head or (tail[0] != head[0] and tail[1] != head[1]):
            raise GridError(f"{tail}-{head} is not a grid edge")
        return self.values[tail] > self.values[head]

    def __getitem__(self, v: Vertex) -> float:
        return float(self.values[v])

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


class OrientedGrid(DOrientedGrid):
    """Total edge orientation of an (m, n) grid: the d = 2 case of
    :class:`DOrientedGrid`.

    Axis 0 is the row coordinate, so ``lines[0][k]`` (bits over rows) holds
    the column through vertex k and ``lines[1][k]`` (bits over columns) its
    row.  This class adds the 2-D vocabulary: :class:`GridShape`,
    :class:`Edge`/:class:`Direction`, restriction, permutation and the
    kernels' row-edges-first edge words.  Immutable after construction; safe
    to share across threads.
    """

    __slots__ = ("shape",)

    def __init__(self, shape: GridShape, directed_edges: Iterable[tuple[Vertex, Vertex]]):
        """Build from (tail, head) pairs; every grid edge must appear exactly once."""
        self.shape = shape
        super().__init__((shape.rows, shape.cols), directed_edges)

    @classmethod
    def _from_lines(cls, dims: tuple[int, ...], lines: Sequence[Sequence[int]]):
        grid = super()._from_lines(dims, lines)
        grid.shape = GridShape(*dims)
        return grid

    @classmethod
    def from_values(cls, vm: ValueMatrix) -> "OrientedGrid":
        """Orient every row/column pair from the larger entry to the smaller."""
        return cls._from_lines(vm.values.shape, _value_lines(vm.values))

    @classmethod
    def from_edge_word(cls, m: int, n: int, word: int) -> "OrientedGrid":
        """Decode a kernel edge word (see :mod:`usogrid.kernels`)."""
        return cls._from_lines((m, n), kernels.word_to_lines((m, n), word, (1, 0)))

    def direction_of(self, e: Edge) -> Direction:
        """Stored direction of ``e``; pure lookup, no query accounting."""
        return Direction.AB if self.points_to(e.a, e.b) else Direction.BA

    def head_of(self, e: Edge) -> Vertex:
        """The endpoint the edge points to."""
        return e.b if self.direction_of(e) is Direction.AB else e.a

    def edges(self) -> Iterator[Edge]:
        for a, b in kernels.edge_list(self.shape.rows, self.shape.cols):
            yield Edge(a, b)

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
            if not 0 <= i < self.shape.rows:
                raise GridError(f"row {i} out of bounds")
        for j in csel:
            if not 0 <= j < self.shape.cols:
                raise GridError(f"column {j} out of bounds")
        return self._reindex(rsel, csel)

    def transpose(self) -> "OrientedGrid":
        return self.permute(range(self.shape.rows), range(self.shape.cols), swap=True)

    def permute(
        self, row_order: Iterable[int], col_order: Iterable[int], swap: bool = False
    ) -> "OrientedGrid":
        """Relabel coordinates: result position p holds input row ``row_order[p]``.

        With ``swap`` the two axes are also exchanged (transposition).
        """
        rord = list(row_order)
        cord = list(col_order)
        if sorted(rord) != list(range(self.shape.rows)) or sorted(cord) != list(
            range(self.shape.cols)
        ):
            raise GridError("row/column orders must be permutations")
        return self._reindex(rord, cord, swap)

    def _reindex(self, rows: list[int], cols: list[int], swap: bool = False) -> "OrientedGrid":
        """Vertex (p, q) of the result is input vertex (rows[p], cols[q]), or
        vertex (q, p) with ``swap``; bit p of a line becomes bit rows[p]."""
        col_lines, row_lines = self.lines
        n = self.shape.cols
        new_col, new_row = [], []
        for i in rows:
            for j in cols:
                new_col.append(_select_bits(col_lines[i * n + j], rows))
                new_row.append(_select_bits(row_lines[i * n + j], cols))
        r, c = len(rows), len(cols)
        if not swap:
            return OrientedGrid._from_lines((r, c), (new_col, new_row))
        # Transposed, vertex (q, p) runs along the old row on axis 0.
        order = [p * c + q for q in range(c) for p in range(r)]
        return OrientedGrid._from_lines(
            (c, r), ([new_row[k] for k in order], [new_col[k] for k in order]))


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


def check_validation_cap(m: int, n: int, max_coords: int = DEFAULT_VALIDATION_COORDS) -> None:
    """Raise :class:`CapExceededError` when validating an m x n grid would
    enumerate more subgrids than the cap m + n <= ``max_coords`` allows."""
    if m + n <= max_coords:
        return
    shown = (2**m - 1) * (2**n - 1) if m + n <= 40 else f"(2^{m} - 1)(2^{n} - 1)"
    raise CapExceededError(
        f"validation of a {m}x{n} grid enumerates {shown} "
        f"subgrids which exceeds the cap (m + n <= {max_coords}); "
        "raise max_coords explicitly or fall back to sampled checks"
    )


def validate_uso(
    grid: OrientedGrid, max_coords: int = DEFAULT_VALIDATION_COORDS
) -> UsoViolation | None:
    """Check that every nonempty subgrid has exactly one sink.

    Enumerates all (2^m - 1)(2^n - 1) subgrids, so the shape is capped:
    m + n must not exceed ``max_coords``.  Exceeding the cap raises; partial
    validation is never done silently.
    """
    m, n = grid.shape.rows, grid.shape.cols
    check_validation_cap(m, n, max_coords)
    hit = kernels.find_violation(m, n, grid.lines)
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


def topological_values(grid: OrientedGrid) -> ValueMatrix:
    """Distinct values realizing the orientation: every edge points from the
    larger value to the smaller one (re-orienting the result reproduces the
    grid exactly).

    Raises :class:`CyclicOrientationError` carrying a witness cycle when the
    orientation is not acyclic.
    """
    order, _ = _peel(grid)
    if len(order) != grid.vertex_count:
        raise CyclicOrientationError(find_cycle(grid))
    # Rank 0 is the first sink peeled.
    values = np.empty(grid.vertex_count, dtype=np.float64)
    values[order] = np.arange(len(order))
    return ValueMatrix(values.reshape(grid.shape.rows, grid.shape.cols))
