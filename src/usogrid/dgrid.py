"""The grid core: orientations of products of d complete graphs.

Vertices are coordinate tuples, numbered row-major (the last axis varies
fastest); two vertices are adjacent iff they differ in exactly one
coordinate, i.e. they lie on one line along that axis.  An orientation is
stored as line masks, the bits a vertex query answers: bit c of
``lines[a][k]`` is set iff vertex k points to its neighbour with coordinate c
on axis a (all other coordinates equal).  That is one bit per end of every
edge, so storage grows with the number of edges.  The 2-D grid of
:mod:`usogrid.grid` is the d = 2 case.

Oracle sources.  :mod:`usogrid.oracles` reads an orientation through two
private methods that every source defines, a grid here and a value matrix
(:class:`usogrid.grid.ValueMatrix`) alike, one per query model:
``_out_lines(v)``, the out line masks at v (what a vertex query reveals),
and ``_points_to(tail, head)``, whether that edge is directed tail -> head
(what an edge query reveals).  Both raise :class:`GridError` for a vertex
out of bounds, of the wrong arity, or a pair that is not an edge.  A source
also carries ``dims``.  Everything else is derived from these: a line of
edge queries is the vertex answer's mask on one axis, cut to the range the
edge handle has checked with :func:`_check_line`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .errors import CapExceededError, GridError
from .kernels import _bit_list

DVertex = tuple[int, ...]

#: Exhaustive validation cap: refuse to scan more nonempty subgrids than this.
DEFAULT_SUBGRID_CAP = 100_000

#: Booleans one numpy comparison may produce while building lines from values.
_FLAG_BUDGET = 1 << 22


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """``dims`` as a nonempty tuple of positive integers, else GridError."""
    try:
        dims = tuple(map(operator.index, dims))
    except TypeError:
        raise GridError(f"dims must be positive integers, got {dims!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise GridError(f"dims must be positive, got {dims}")
    return dims


def _strides(dims: Sequence[int]) -> list[int]:
    """Index step of one coordinate along each axis (row-major numbering)."""
    return [math.prod(dims[a + 1 :]) for a in range(len(dims))]


def _full(size: int) -> int:
    return (1 << size) - 1


def _check_line(dims: Sequence[int], axis: int, lo: int, hi: int) -> int:
    """The mask of coordinates [lo, hi) on ``axis``; GridError unless the
    axis exists and 0 <= lo <= hi <= its size."""
    if not (0 <= axis < len(dims) and 0 <= lo <= hi <= dims[axis]):
        raise GridError(f"no line range [{lo}, {hi}) on axis {axis} of dims {tuple(dims)}")
    return _full(hi) >> lo << lo


def _bits(mask: int) -> frozenset[int]:
    return frozenset(_bit_list(mask))


def _in_masks(vertex: tuple, sizes, lines_out) -> tuple[int, ...]:
    """In masks of a total orientation: every other neighbour on each line."""
    return tuple(_full(size) ^ out ^ (1 << c) for size, out, c in zip(sizes, lines_out, vertex))


def _masks_to_vertices(vertex: tuple, masks: tuple[int, ...]) -> frozenset:
    """The neighbours of ``vertex`` whose bits are set in its line masks."""
    return frozenset(vertex[:a] + (c,) + vertex[a + 1 :]
                     for a, mask in enumerate(masks) for c in _bit_list(mask))


def _pack_rows(flags: np.ndarray) -> list[int]:
    """One int per row of a 2-D boolean array: bit c is ``flags[r, c]``."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[r : r + width], "little") for r in range(0, len(data), width)]


def _check_values(arr: np.ndarray) -> None:
    """Refuse values that leave an edge unoriented: entries that are not
    finite (NaN compares neither way) or not pairwise distinct."""
    if not np.all(np.isfinite(arr)):
        raise GridError("value matrix entries must be finite")
    if np.unique(arr).size != arr.size:
        raise GridError("value matrix entries must be pairwise distinct")


def _value_lines(values: np.ndarray) -> list[list[int]]:
    """Line masks orienting every line pair from the larger value to the
    smaller: one numpy comparison per slab of lines, in vertex order."""
    dims = values.shape
    slab = values[0].size  # vertices per coordinate of axis 0
    lines = []
    for axis, size in enumerate(dims):
        step = max(1, _FLAG_BUDGET // (slab * size))
        masks: list[int] = []
        for start in range(0, dims[0], step):
            part = values[start : start + step]
            # rivals[..., c] is the value at coordinate c on this axis.
            rivals = np.expand_dims(np.moveaxis(values if axis == 0 else part, axis, -1), axis)
            masks += _pack_rows((rivals < part[..., None]).reshape(-1, size))
        lines.append(masks)
    return lines


class DOrientedGrid:
    """Total edge orientation of a d-dimensional grid, as line masks.

    Immutable after construction; safe to share across threads.  A grid
    equals only a grid of the same class with the same dims and lines.
    """

    __slots__ = ("dims", "lines")

    def __init__(self, dims: Sequence[int], directed_edges: Iterable[tuple[DVertex, DVertex]]):
        """Build from (tail, head) pairs; every grid edge must appear exactly once."""
        self.dims = _check_dims(dims)
        lines = [[0] * self.vertex_count for _ in self.dims]
        index_of = {v: k for k, v in enumerate(self.vertices())}
        given = 0
        for tail, head in directed_edges:
            tail, head = tuple(tail), tuple(head)
            kt, kh = index_of.get(tail), index_of.get(head)
            differ = list(map(operator.ne, tail, head))
            if kt is None or kh is None or differ.count(True) != 1:
                self._edge_axis(tail, head)  # raises the precise error
            axis = differ.index(True)
            line = lines[axis]
            # An edge given before has its bit set at one of its ends.
            if (line[kt] >> head[axis] | line[kh] >> tail[axis]) & 1:
                a, b = sorted((tail, head))
                raise GridError(f"edge {a}-{b} oriented more than once")
            line[kt] |= 1 << head[axis]
            given += 1
        expected = kernels.edge_count(*self.dims)
        if given != expected:
            raise GridError(f"orientation is not total: {given} of {expected} edges given")
        self.lines = tuple(map(tuple, lines))

    @classmethod
    def _from_lines(cls, dims: tuple[int, ...], lines: Sequence[Sequence[int]]):
        grid = object.__new__(cls)
        grid.dims = dims
        grid.lines = tuple(map(tuple, lines))
        return grid

    @classmethod
    def from_values(cls, values: np.ndarray) -> "DOrientedGrid":
        """Orient every line pair from the larger entry to the smaller."""
        arr = np.asarray(values, dtype=np.float64)
        _check_values(arr)
        return cls._from_lines(_check_dims(arr.shape), _value_lines(arr))

    @classmethod
    def from_edge_word(cls, dims: Sequence[int], word: int) -> "DOrientedGrid":
        """Decode one orientation from a bit per edge of
        ``kernels.edge_list(dims, range(len(dims)))``.

        Bit e set means edge e points from its lexicographically smaller
        endpoint to the larger one.
        """
        dims = _check_dims(dims)
        return cls._from_lines(dims, kernels.word_to_lines(dims, word, range(len(dims))))

    @property
    def vertex_count(self) -> int:
        return math.prod(self.dims)

    def _check_vertex(self, v: DVertex) -> None:
        if len(v) != len(self.dims) or min(v) < 0 or any(map(operator.ge, v, self.dims)):
            raise GridError(f"vertex {v} out of bounds for dims {self.dims}")

    def _edge_axis(self, u: DVertex, w: DVertex) -> int:
        """The axis of the line through u and w; GridError unless they are adjacent."""
        self._check_vertex(u)
        self._check_vertex(w)
        differ = list(map(operator.ne, u, w))
        if differ.count(True) != 1:
            raise GridError(f"{u} and {w} must differ in exactly one coordinate")
        return differ.index(True)

    def index(self, v: DVertex) -> int:
        idx = 0
        for x, s in zip(v, self.dims):
            idx = idx * s + x
        return idx

    def vertex(self, idx: int) -> DVertex:
        coords = []
        for s in reversed(self.dims):
            idx, x = divmod(idx, s)
            coords.append(x)
        return tuple(reversed(coords))

    def vertices(self) -> Iterator[DVertex]:
        yield from itertools.product(*(range(s) for s in self.dims))

    def _out_lines(self, v: DVertex) -> tuple[int, ...]:
        """The out line masks at v, one per axis."""
        self._check_vertex(v)
        k = self.index(v)
        return tuple(line[k] for line in self.lines)

    def is_sink(self, v: DVertex) -> bool:
        return not any(self._out_lines(v))

    def _points_to(self, tail: DVertex, head: DVertex) -> bool:
        """Whether the edge tail-head is directed tail -> head."""
        axis = self._edge_axis(tail, head)
        return bool(self.lines[axis][self.index(tail)] >> head[axis] & 1)

    #: The public name, for callers outside the oracle protocol.
    points_to = _points_to

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.dims == other.dims
            and self.lines == other.lines
        )

    def __hash__(self) -> int:
        return hash((self.dims, self.lines))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {'x'.join(map(str, self.dims))}>"


def _subgrid_cap_error(dims: tuple[int, ...], max_subgrids: int) -> CapExceededError:
    """The refusal to scan more than ``max_subgrids`` nonempty subgrids of
    ``dims``; above 40 coordinates their count is shown as a product."""
    shown = (math.prod(2**s - 1 for s in dims) if sum(dims) <= 40
             else "".join(f"(2^{s} - 1)" for s in dims))
    return CapExceededError(
        f"validating dims {dims} means {shown} subgrids, above the cap "
        f"{max_subgrids}; raise max_subgrids explicitly"
    )


@dataclass(frozen=True)
class DUsoViolation:
    """First subgrid (per-axis subset masks, ascending) without a unique sink."""

    subsets: tuple[frozenset[int], ...]
    sink_count: int


def validate_uso_ddim(
    grid: DOrientedGrid, max_subgrids: int = DEFAULT_SUBGRID_CAP
) -> DUsoViolation | None:
    """Check the unique-sink property over all products of nonempty subsets.

    Refuses, before any scan, when the nonempty subgrids number more than
    ``max_subgrids``.  Subgrids are scanned in ascending order of their
    per-axis masks, axis 0 outermost; single vertices are skipped.  A
    vertex is a sink of the subgrid iff on every axis its line mask misses
    the axis subset.
    """
    if math.prod(2**s - 1 for s in grid.dims) > max_subgrids:
        raise _subgrid_cap_error(grid.dims, max_subgrids)
    axis_subsets = [[(mask, [c * stride for c in _bit_list(mask)]) for mask in range(1, 1 << size)]
                    for size, stride in zip(grid.dims, _strides(grid.dims))]
    for combo in itertools.product(*axis_subsets):
        masks = [mask for mask, _ in combo]
        ids = [sum(offsets) for offsets in itertools.product(*(offs for _, offs in combo))]
        if len(ids) == 1:
            continue
        sinks = sum(1 for k in ids
                    if not any(line[k] & mask for line, mask in zip(grid.lines, masks)))
        if sinks != 1:
            return DUsoViolation(tuple(_bits(mask) for mask in masks), sinks)
    return None
