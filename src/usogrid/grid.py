"""Explicit (m, n)-grid orientations, the USO validator, and ground-truth ops.

A grid is the Cartesian product of two complete graphs: vertices are (row,
column) pairs and two vertices are adjacent iff they share a row or a column.
Coordinates are 0-based throughout the Python API; the JSON layer
(:mod:`usogrid.serialize`) is the 1-based boundary.

Orientations are stored explicitly per edge (as out-neighbour bitmasks) so
that non-USO candidates can be represented and rejected; value matrices are a
constructor, not the canonical form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .errors import CapExceededError, CyclicOrientationError, GridError, NotUsoError

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

    @property
    def is_row_edge(self) -> bool:
        return self.a[0] == self.b[0]

    def other(self, v: Vertex) -> Vertex:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise GridError(f"{v} is not an endpoint of {self}")


class ValueMatrix:
    """m x n matrix of pairwise-distinct finite numbers.

    Comparing entries along rows and columns induces an (acyclic) orientation
    with edges pointing from the larger value to the smaller one.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise GridError("value matrix must be 2-dimensional and nonempty")
        if not np.all(np.isfinite(arr)):
            raise GridError("value matrix entries must be finite")
        if np.unique(arr).size != arr.size:
            raise GridError("value matrix entries must be pairwise distinct")
        arr.setflags(write=False)
        self.values = arr

    @property
    def shape(self) -> GridShape:
        return GridShape(*self.values.shape)

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


class OrientedGrid:
    """Total edge orientation of an (m, n) grid.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("shape", "_out")

    def __init__(self, shape: GridShape, directed_edges: Iterable[tuple[Vertex, Vertex]]):
        """Build from (tail, head) pairs; every grid edge must appear exactly once."""
        out = [0] * shape.vertex_count
        seen: set[tuple[Vertex, Vertex]] = set()
        for tail, head in directed_edges:
            edge = Edge(tail, head)  # validates adjacency
            if not (shape.contains(tail) and shape.contains(head)):
                raise GridError(f"edge {tail}-{head} out of bounds for {shape}")
            key = (edge.a, edge.b)
            if key in seen:
                raise GridError(f"edge {edge.a}-{edge.b} oriented more than once")
            seen.add(key)
            out[shape.index(tail)] |= 1 << shape.index(head)
        expected = kernels.edge_count(shape.rows, shape.cols)
        if len(seen) != expected:
            raise GridError(
                f"orientation is not total: {len(seen)} of {expected} edges given"
            )
        self.shape = shape
        self._out = tuple(out)

    @classmethod
    def _from_out_masks(cls, shape: GridShape, out: Sequence[int]) -> "OrientedGrid":
        grid = object.__new__(cls)
        grid.shape = shape
        grid._out = tuple(out)
        return grid

    @classmethod
    def from_values(cls, vm: ValueMatrix) -> "OrientedGrid":
        """Orient every row/column pair from the larger entry to the smaller."""
        shape = vm.shape
        m, n = shape.rows, shape.cols
        out = [0] * (m * n)
        for i in range(m):
            order = np.argsort(vm.values[i])
            below = 0
            for j in order:
                out[i * n + int(j)] |= below
                below |= 1 << (i * n + int(j))
        for j in range(n):
            order = np.argsort(vm.values[:, j])
            below = 0
            for i in order:
                out[int(i) * n + j] |= below
                below |= 1 << (int(i) * n + j)
        return cls._from_out_masks(shape, out)

    @classmethod
    def from_edge_word(cls, m: int, n: int, word: int) -> "OrientedGrid":
        """Decode a kernel edge word (see :mod:`usogrid.kernels`)."""
        return cls._from_out_masks(
            GridShape(m, n), kernels.word_to_out_masks(m, n, word)
        )

    def _check_vertex(self, v: Vertex) -> None:
        if not self.shape.contains(v):
            raise GridError(f"vertex {v} out of bounds for {self.shape}")

    def out_mask(self, v: Vertex) -> int:
        return self._out[self.shape.index(v)]

    def out_neighbors(self, v: Vertex) -> frozenset[Vertex]:
        """All w adjacent to v with the edge directed v -> w; empty iff v is a sink."""
        self._check_vertex(v)
        mask = self._out[self.shape.index(v)]
        result = []
        while mask:
            result.append(self.shape.vertex((mask & -mask).bit_length() - 1))
            mask &= mask - 1
        return frozenset(result)

    def in_neighbors(self, v: Vertex) -> frozenset[Vertex]:
        self._check_vertex(v)
        idx = self.shape.index(v)
        i, j = v
        result = []
        for jj in range(self.shape.cols):
            if jj != j and self._out[i * self.shape.cols + jj] >> idx & 1:
                result.append((i, jj))
        for ii in range(self.shape.rows):
            if ii != i and self._out[ii * self.shape.cols + j] >> idx & 1:
                result.append((ii, j))
        return frozenset(result)

    def direction_of(self, e: Edge) -> Direction:
        """Stored direction of ``e``; pure lookup, no query accounting."""
        self._check_vertex(e.a)
        self._check_vertex(e.b)
        if self._out[self.shape.index(e.a)] >> self.shape.index(e.b) & 1:
            return Direction.AB
        return Direction.BA

    def head_of(self, e: Edge) -> Vertex:
        """The endpoint the edge points to."""
        return e.b if self.direction_of(e) is Direction.AB else e.a

    def edges(self) -> Iterator[Edge]:
        for a, b in kernels.edge_list(self.shape.rows, self.shape.cols):
            yield Edge(a, b)

    def directed_edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        for e in self.edges():
            head = self.head_of(e)
            yield (e.other(head), head)

    def is_sink(self, v: Vertex) -> bool:
        self._check_vertex(v)
        return self._out[self.shape.index(v)] == 0

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
        shape = GridShape(len(rsel), len(csel))
        out = [0] * shape.vertex_count
        for a, i in enumerate(rsel):
            for b, j in enumerate(csel):
                mask = self._out[self.shape.index((i, j))]
                new = 0
                for a2, i2 in enumerate(rsel):
                    for b2, j2 in enumerate(csel):
                        if mask >> self.shape.index((i2, j2)) & 1:
                            new |= 1 << shape.index((a2, b2))
                out[shape.index((a, b))] = new
        return OrientedGrid._from_out_masks(shape, out)

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
        shape = (
            GridShape(self.shape.cols, self.shape.rows)
            if swap
            else GridShape(self.shape.rows, self.shape.cols)
        )
        new_pos = {}
        for a, i in enumerate(rord):
            for b, j in enumerate(cord):
                new_pos[(i, j)] = (b, a) if swap else (a, b)
        out = [0] * shape.vertex_count
        for (i, j), p in new_pos.items():
            mask = self._out[self.shape.index((i, j))]
            new = 0
            while mask:
                w = self.shape.vertex((mask & -mask).bit_length() - 1)
                new |= 1 << shape.index(new_pos[w])
                mask &= mask - 1
            out[shape.index(p)] = new
        return OrientedGrid._from_out_masks(shape, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedGrid)
            and self.shape == other.shape
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((self.shape, self._out))

    def __repr__(self) -> str:
        return f"<OrientedGrid {self.shape.rows}x{self.shape.cols}>"


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


def _bits(mask: int) -> frozenset[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)


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
    hit = kernels.find_violation(m, n, grid._out)
    if hit is None:
        return None
    rmask, cmask, sinks = hit
    return UsoViolation(_bits(rmask), _bits(cmask), sinks)


def is_uso(grid: OrientedGrid, max_coords: int = DEFAULT_VALIDATION_COORDS) -> bool:
    return validate_uso(grid, max_coords) is None


def brute_force_sink(grid: OrientedGrid) -> Vertex:
    """The unique zero-out-degree vertex, by full scan; no oracle accounting."""
    sinks = [grid.shape.vertex(i) for i, mask in enumerate(grid._out) if mask == 0]
    if len(sinks) != 1:
        raise NotUsoError(
            f"not a USO: found {len(sinks)} sinks in the {grid.shape.rows}x"
            f"{grid.shape.cols} grid"
        )
    return sinks[0]


def find_cycle(grid: OrientedGrid) -> list[Vertex] | None:
    """A directed cycle of the orientation, or None when acyclic."""
    cycle = _find_cycle_masks(grid._out, grid.shape.vertex_count)
    if cycle is None:
        return None
    return [grid.shape.vertex(i) for i in cycle]


def _find_cycle_masks(out: Sequence[int], nverts: int) -> list[int] | None:
    remaining = (1 << nverts) - 1
    outdeg = [m.bit_count() for m in out]
    ready = [v for v in range(nverts) if outdeg[v] == 0]
    heapq.heapify(ready)
    in_masks = [0] * nverts
    for v in range(nverts):
        mask = out[v]
        while mask:
            in_masks[(mask & -mask).bit_length() - 1] |= 1 << v
            mask &= mask - 1
    removed = 0
    while ready:
        v = heapq.heappop(ready)
        remaining &= ~(1 << v)
        removed += 1
        mask = in_masks[v]
        while mask:
            u = (mask & -mask).bit_length() - 1
            outdeg[u] -= 1
            if outdeg[u] == 0:
                heapq.heappush(ready, u)
            mask &= mask - 1
    if removed == nverts:
        return None
    # Every remaining vertex has an out-edge to a remaining vertex; walk until
    # a repeat to extract a cycle.
    start = (remaining & -remaining).bit_length() - 1
    path = [start]
    pos = {start: 0}
    v = start
    while True:
        nxt_mask = out[v] & remaining
        v = (nxt_mask & -nxt_mask).bit_length() - 1
        if v in pos:
            return path[pos[v] :]
        pos[v] = len(path)
        path.append(v)


def topological_values(grid: OrientedGrid) -> ValueMatrix:
    """Distinct values realizing the orientation: every edge points from the
    larger value to the smaller one (re-orienting the result reproduces the
    grid exactly).

    Raises :class:`CyclicOrientationError` carrying a witness cycle when the
    orientation is not acyclic.
    """
    nverts = grid.shape.vertex_count
    cycle = _find_cycle_masks(grid._out, nverts)
    if cycle is not None:
        raise CyclicOrientationError([grid.shape.vertex(i) for i in cycle])
    # Peel sinks first (rank 0 = global-most sink side), deterministically by
    # vertex index.
    outdeg = [m.bit_count() for m in grid._out]
    in_masks = [0] * nverts
    for v in range(nverts):
        mask = grid._out[v]
        while mask:
            in_masks[(mask & -mask).bit_length() - 1] |= 1 << v
            mask &= mask - 1
    ready = [v for v in range(nverts) if outdeg[v] == 0]
    heapq.heapify(ready)
    values = np.empty(nverts, dtype=np.float64)
    rank = 0
    while ready:
        v = heapq.heappop(ready)
        values[v] = rank
        rank += 1
        mask = in_masks[v]
        while mask:
            u = (mask & -mask).bit_length() - 1
            outdeg[u] -= 1
            if outdeg[u] == 0:
                heapq.heappush(ready, u)
            mask &= mask - 1
    return ValueMatrix(values.reshape(grid.shape.rows, grid.shape.cols))
