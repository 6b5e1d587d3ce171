"""Countable query interfaces over grids.

A handle answers vertex queries (all incident edge directions at once) or
edge queries (one direction).  Duplicate queries are served from a per-handle
cache and are not re-counted, so counters measure distinct information and
stay comparable across algorithms.  One handle backs one logical interaction;
distinct handles over immutable grids may run in parallel.

Sources answer for themselves: an explicit grid of any dimension and a value
matrix both define the source protocol of :mod:`usogrid.dgrid`
(``_out_lines``, ``_points_to``, ``dims``, ``shape``).  Over a source,
:func:`vertex_oracle` builds the one source vertex handle and
:func:`edge_oracle` an :class:`EdgeOracle`; each adds only caching, counting
and the transcript.  The other handles answer from other handles: the
adaptive lower-bound adversary, induced block grids, inherited d-dimensional
block grids, and square padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dgrid import DOrientedGrid, _full, _in_masks, _masks_to_vertices
from .errors import AdversaryError, GridError, SubSolverError
from .grid import GridShape, OrientedGrid, ValueMatrix, Vertex


@dataclass
class QueryCounter:
    vertex_queries: int = 0
    edge_queries: int = 0

    def snapshot(self) -> "QueryCounter":
        return QueryCounter(self.vertex_queries, self.edge_queries)

    def as_dict(self) -> dict[str, int]:
        return {"vertex": self.vertex_queries, "edge": self.edge_queries}


def _vertices_to_masks(vertex: tuple, ws) -> tuple[int, ...]:
    """Per-axis line masks of a set of neighbours of ``vertex``."""
    masks = [0] * len(vertex)
    for w in ws:
        axes = [a for a, (x, y) in enumerate(zip(vertex, w)) if x != y]
        if len(w) != len(vertex) or len(axes) != 1:
            raise GridError(f"{w} is not a neighbour of {vertex}")
        masks[axes[0]] |= 1 << w[axes[0]]
    return tuple(masks)


class VertexAnswer:
    """Result of one vertex query: the direction of every incident edge.

    Answers are line masks, one integer per axis: bit c of ``lines_out[a]``
    (``lines_in[a]``) is set when the neighbour with coordinate c on axis a,
    all other coordinates equal to ``vertex``'s, is an out- (in-) neighbour.
    Axis 0 of a 2-D grid runs along the column through ``vertex``, axis 1
    along its row.  The vertex is the global sink iff every out mask is 0.

    ``incoming`` and ``outgoing``, the same partition as vertex sets, are
    derived on first use.  ``VertexAnswer(vertex, incoming, outgoing)``
    builds an answer from those sets; equality and hashing read the masks
    only, so both constructions of one answer compare equal.
    """

    __slots__ = ("vertex", "lines_in", "lines_out", "_incoming", "_outgoing")

    def __init__(self, vertex, incoming, outgoing):
        self.vertex = tuple(vertex)
        self._incoming = frozenset(incoming)
        self._outgoing = frozenset(outgoing)
        self.lines_in = _vertices_to_masks(self.vertex, self._incoming)
        self.lines_out = _vertices_to_masks(self.vertex, self._outgoing)

    @classmethod
    def from_masks(cls, vertex: tuple, lines_in: tuple, lines_out: tuple) -> "VertexAnswer":
        answer = object.__new__(cls)
        answer.vertex = vertex
        answer.lines_in = lines_in
        answer.lines_out = lines_out
        answer._incoming = answer._outgoing = None
        return answer

    @property
    def is_sink(self) -> bool:
        return not any(self.lines_out)

    @property
    def incoming(self) -> frozenset:
        if self._incoming is None:
            self._incoming = _masks_to_vertices(self.vertex, self.lines_in)
        return self._incoming

    @property
    def outgoing(self) -> frozenset:
        if self._outgoing is None:
            self._outgoing = _masks_to_vertices(self.vertex, self.lines_out)
        return self._outgoing

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexAnswer):
            return NotImplemented
        return (self.vertex == other.vertex and self.lines_in == other.lines_in
                and self.lines_out == other.lines_out)

    def __hash__(self) -> int:
        return hash((self.vertex, self.lines_in, self.lines_out))

    def __repr__(self) -> str:
        return (f"VertexAnswer(vertex={self.vertex!r}, lines_in={self.lines_in!r}, "
                f"lines_out={self.lines_out!r})")


# Transcript records are ("vertex", v, VertexAnswer) or ("edge", (a, b), head)
# with (a, b) the canonical (sorted) endpoint pair.
TranscriptRecord = tuple


def replay_transcript(records: Sequence[TranscriptRecord], oracle) -> bool:
    """Feed the recorded queries back; True iff every answer matches."""
    for rec in records:
        if rec[0] == "vertex":
            if oracle.query(rec[1]) != rec[2]:
                return False
        elif rec[0] == "edge":
            if oracle.query_edge(*rec[1]) != rec[2]:
                return False
        else:
            raise GridError(f"unknown transcript record kind {rec[0]!r}")
    return True


class VertexOracle:
    """Base for vertex-query handles: caching, counting, transcript."""

    def __init__(self, record: bool = True):
        self.counter = QueryCounter()
        self.transcript: list[TranscriptRecord] | None = [] if record else None
        self._cache: dict = {}

    def query(self, v) -> VertexAnswer:
        hit = self._cache.get(v)
        if hit is not None:
            return hit
        answer = self._answer(v)
        self.counter.vertex_queries += 1
        self._cache[v] = answer
        if self.transcript is not None:
            self.transcript.append(("vertex", v, answer))
        return answer

    def _answer(self, v) -> VertexAnswer:
        raise NotImplementedError


class SourceVertexOracle(VertexOracle):
    """Vertex oracle over a source (a value matrix, or an explicit grid of
    any dimension): an answer is the source's out line masks at the vertex."""

    def __init__(self, source: ValueMatrix | DOrientedGrid, record: bool = True):
        super().__init__(record)
        self.source = source
        self.dims = source.dims
        self.shape = source.shape

    def _answer(self, v) -> VertexAnswer:
        out = self.source._out_lines(v)
        return VertexAnswer.from_masks(v, _in_masks(v, self.dims, out), out)


#: Names the benchmark's tracer (``perfbench/spans.py``) looks up to name the
#: vertex-query span.  They bind the one source handle, which must define no
#: public method: the tracer wraps a class once per name it is bound to.
ValueVertexOracle = ExplicitVertexOracle = DdimVertexOracle = SourceVertexOracle


def vertex_oracle(
    source: OrientedGrid | DOrientedGrid | ValueMatrix, record: bool = True
) -> VertexOracle:
    if not isinstance(source, (ValueMatrix, DOrientedGrid)):
        raise TypeError(f"cannot build a vertex oracle from {type(source).__name__}")
    return SourceVertexOracle(source, record)


class EdgeOracle:
    """Edge-query handle over a 2-D source (a value matrix or an explicit
    grid): query_edge(u, w) returns the head vertex."""

    def __init__(self, source: ValueMatrix | OrientedGrid, record: bool = True):
        self.counter = QueryCounter()
        self.transcript: list[TranscriptRecord] | None = [] if record else None
        self._cache: dict = {}
        self.source = source
        self.shape = source.shape

    def query_edge(self, u: Vertex, w: Vertex) -> Vertex:
        key = (u, w) if u <= w else (w, u)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        a, b = key
        head = b if self.source._points_to(a, b) else a
        self.counter.edge_queries += 1
        self._cache[key] = head
        if self.transcript is not None:
            self.transcript.append(("edge", key, head))
        return head


def edge_oracle(source: OrientedGrid | ValueMatrix, record: bool = True) -> EdgeOracle:
    if not isinstance(source, (ValueMatrix, OrientedGrid)):
        raise TypeError(f"cannot build an edge oracle from {type(source).__name__}")
    return EdgeOracle(source, record)


class TransposedVertexOracle:
    """Thin coordinate-swapping view; counting stays on the base handle."""

    def __init__(self, base):
        self._base = base
        self.shape = GridShape(base.shape.cols, base.shape.rows)

    @property
    def counter(self) -> QueryCounter:
        return self._base.counter

    def query(self, v: Vertex) -> VertexAnswer:
        ans = self._base.query((v[1], v[0]))
        return VertexAnswer.from_masks(v, ans.lines_in[::-1], ans.lines_out[::-1])


class AdversaryVertexOracle(VertexOracle):
    """Adaptive answerer committed to no fixed grid.

    Strategy: a query landing in a fresh row (while at least two rows are
    still unfrozen) freezes that row — the queried vertex becomes the row's
    sink and the whole row points out to every row frozen later and to the
    surviving row.  Queries inside a frozen row are answered from its frozen
    state.  In the single surviving row, each queried vertex is made larger
    than all still-unqueried vertices of the row, so only the last one can be
    the sink.  Any solver is forced to spend rows + cols - 1 vertex queries.

    After the interaction, :meth:`materialize` emits an explicit grid
    consistent with every answer given.
    """

    def __init__(self, shape: GridShape | tuple[int, int], record: bool = True):
        super().__init__(record)
        self.shape = shape if isinstance(shape, GridShape) else GridShape(*shape)
        self._frozen: dict[int, tuple[int, int]] = {}  # row -> (freeze order, sink col)
        self._survivor: int | None = None
        self._tournament: list[int] = []  # columns queried in the surviving row
        self.sink: Vertex | None = None

    def _row_value(self, row: int, col: int) -> int:
        """Value of a frozen-row vertex inside its band (0 = the row sink)."""
        sink_col = self._frozen[row][1]
        return 0 if col == sink_col else self.shape.cols - col

    def _frozen_row_answer(self, v: Vertex) -> VertexAnswer:
        # Column: rows frozen earlier point in, all others point out.  Row:
        # values n - col, except 0 at the sink column.
        i, j = v
        m, n = self.shape.rows, self.shape.cols
        order, sink_col = self._frozen[i]
        col_in = sum(1 << ii for ii, (o, _) in self._frozen.items() if o < order)
        row_out = 0 if j == sink_col else (_full(n) >> (j + 1) << (j + 1)) | 1 << sink_col
        out = (_full(m) ^ col_in ^ 1 << i, row_out)
        return VertexAnswer.from_masks(v, _in_masks(v, (m, n), out), out)

    def _answer(self, v: Vertex) -> VertexAnswer:
        if not self.shape.contains(v):
            raise GridError(f"vertex {v} out of bounds for {self.shape}")
        i, j = v
        m, n = self.shape.rows, self.shape.cols
        if i in self._frozen:
            return self._frozen_row_answer(v)
        if len(self._frozen) < m - 1:
            self._frozen[i] = (len(self._frozen) + 1, j)
            return self._frozen_row_answer(v)
        # Only one unfrozen row is left: the tournament row.  Its column
        # points in; earlier tournament columns point in, unqueried ones out.
        self._survivor = i
        row_in = sum(1 << c for c in self._tournament)
        row_out = _full(n) ^ row_in ^ 1 << j
        if row_out:
            self._tournament.append(j)
        else:
            self.sink = v
        return VertexAnswer.from_masks(v, (_full(m) ^ 1 << i, row_in), (0, row_out))

    def materialize(self) -> OrientedGrid:
        """Explicit USO consistent with the full transcript.

        Frozen rows get strictly descending value bands in freeze order;
        within a band, values descend by column index with the sink column
        minimal.  The surviving row sits below every band, its values
        descending in query order so the last-queried vertex is the global
        minimum.
        """
        if self.sink is None:
            raise AdversaryError("cannot materialize before the sink is resolved")
        m, n = self.shape.rows, self.shape.cols
        band = n + 2
        vals = np.empty((m, n), dtype=np.float64)
        for row, (order, _) in self._frozen.items():
            base = (m - order) * band
            for j in range(n):
                vals[row, j] = base + self._row_value(row, j)
        survivor = self._survivor if self._survivor is not None else 0
        queried_order = self._tournament + [self.sink[1]]
        for rank, col in enumerate(queried_order):
            vals[survivor, col] = n - 1 - rank
        return OrientedGrid.from_values(ValueMatrix(vals))


@dataclass(frozen=True)
class PartitionPair:
    """Contiguous partitions of the rows and columns into blocks.

    Blocks are half-open (start, stop) ranges in canonical form: nonempty,
    adjacent, starting at 0.
    """

    row_blocks: tuple[tuple[int, int], ...]
    col_blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for blocks in (self.row_blocks, self.col_blocks):
            if not blocks or blocks[0][0] != 0:
                raise GridError("partition blocks must start at 0")
            for t, (start, stop) in enumerate(blocks):
                if stop <= start:
                    raise GridError(f"empty partition block {(start, stop)}")
                if t and start != blocks[t - 1][1]:
                    raise GridError("partition blocks must be adjacent")

    @property
    def block_shape(self) -> GridShape:
        return GridShape(len(self.row_blocks), len(self.col_blocks))

    @property
    def covers(self) -> tuple[int, int]:
        return (self.row_blocks[-1][1], self.col_blocks[-1][1])

    @staticmethod
    def _split(size: int, count: int) -> tuple[tuple[int, int], ...]:
        base, extra = divmod(size, count)
        blocks = []
        start = 0
        for t in range(count):
            stop = start + base + (1 if t < extra else 0)
            blocks.append((start, stop))
            start = stop
        return tuple(blocks)

    @classmethod
    def near_equal(cls, m: int, n: int, k: int, l: int) -> "PartitionPair":
        """k x l blocks with sizes differing by at most one per axis."""
        if not (1 <= k <= m and 1 <= l <= n):
            raise GridError(f"cannot split {m}x{n} into {k}x{l} blocks")
        return cls(cls._split(m, k), cls._split(n, l))


def _block_mask(mask: int, blocks: tuple[tuple[int, int], ...]) -> int:
    """Bit t set iff ``mask`` has a bit inside block t."""
    return sum(1 << t for t, (start, stop) in enumerate(blocks)
               if mask & _full(stop) >> start << start)


class _BlockEdgeView:
    """Edge oracle restricted to one block, in block-local coordinates."""

    def __init__(self, base, rows: tuple[int, int], cols: tuple[int, int]):
        self._base = base
        self._r0, r1 = rows
        self._c0, c1 = cols
        self.shape = GridShape(r1 - self._r0, c1 - self._c0)

    @property
    def counter(self) -> QueryCounter:
        return self._base.counter

    def query_edge(self, u: Vertex, w: Vertex) -> Vertex:
        if not (self.shape.contains(u) and self.shape.contains(w)):
            raise GridError(f"edge {u}-{w} out of bounds for block {self.shape}")
        gu = (u[0] + self._r0, u[1] + self._c0)
        gw = (w[0] + self._r0, w[1] + self._c0)
        return u if self._base.query_edge(gu, gw) == gu else w


class InducedVertexOracle(VertexOracle):
    """Vertex oracle over the block grid of a partition pair.

    A vertex query on block (x, y) finds the block's sink with the supplied
    sub-solver (edge queries restricted to the block), then queries every
    base edge incident to that sink; block x points to block y iff the sink
    has at least one outgoing edge into y.  All base costs land on the shared
    base edge counter; this handle's own counter counts block-level vertex
    queries.
    """

    def __init__(
        self,
        base,
        parts: PartitionPair,
        sub_solver: Callable[[_BlockEdgeView], Vertex],
        record: bool = True,
    ):
        super().__init__(record)
        if parts.covers != (base.shape.rows, base.shape.cols):
            raise GridError(
                f"partition covers {parts.covers}, base oracle is "
                f"{base.shape.rows}x{base.shape.cols}"
            )
        self._base = base
        self._parts = parts
        self._sub = sub_solver
        self._block_sinks: dict[Vertex, Vertex] = {}
        self.shape = parts.block_shape

    def block_sink(self, xy: Vertex) -> Vertex:
        """Base-grid sink of an already-queried block."""
        return self._block_sinks[xy]

    def _answer(self, xy: Vertex) -> VertexAnswer:
        if not self.shape.contains(xy):
            raise GridError(f"block {xy} out of bounds for {self.shape}")
        x, y = xy
        r0, r1 = self._parts.row_blocks[x]
        c0, c1 = self._parts.col_blocks[y]
        local = self._sub(_BlockEdgeView(self._base, (r0, r1), (c0, c1)))
        u = (r0 + local[0], c0 + local[1])
        if not (r0 <= u[0] < r1 and c0 <= u[1] < c1):
            raise SubSolverError(f"sub-solver returned {u} outside block {xy}")
        m, n = self._base.shape.rows, self._base.shape.cols
        ui, uj = u
        row_out = 0
        for j in range(n):
            if j != uj and self._base.query_edge(u, (ui, j)) != u:
                row_out |= 1 << j
        col_out = 0
        for i in range(m):
            if i != ui and self._base.query_edge(u, (i, uj)) != u:
                col_out |= 1 << i
        if row_out & _full(c1) >> c0 << c0 or col_out & _full(r1) >> r0 << r0:
            raise SubSolverError(f"sub-solver sink {u} has an outgoing edge in block {xy}")
        self._block_sinks[xy] = u
        # A block points out along a line iff some base edge into it does.
        out = (_block_mask(col_out, self._parts.row_blocks),
               _block_mask(row_out, self._parts.col_blocks))
        sizes = (self.shape.rows, self.shape.cols)
        return VertexAnswer.from_masks(xy, _in_masks(xy, sizes, out), out)


class PaddedEdgeOracle:
    """Edge oracle over the square padding of a rectangular base oracle.

    Queries between real vertices pass through (and count on) the base
    handle.  Synthetic vertices behave as values base + R*i + j above every
    real value, so any edge touching one is answered free of charge: toward
    the real endpoint, or toward the smaller R*i + j key when both endpoints
    are synthetic-region cells.  The padded sink equals the base sink.
    """

    def __init__(self, base, side: int):
        bm, bn = base.shape.rows, base.shape.cols
        if side < max(bm, bn):
            raise GridError(f"padding side {side} below max({bm}, {bn})")
        self._base = base
        self._m, self._n = bm, bn
        self.shape = GridShape(side, side)
        self._scale = side + 1

    @property
    def counter(self) -> QueryCounter:
        return self._base.counter

    def _real(self, v: Vertex) -> bool:
        return v[0] < self._m and v[1] < self._n

    def query_edge(self, u: Vertex, w: Vertex) -> Vertex:
        if u == w or (u[0] != w[0] and u[1] != w[1]):
            raise GridError(f"{u}-{w} is not a grid edge")
        if not (self.shape.contains(u) and self.shape.contains(w)):
            raise GridError(f"edge {u}-{w} out of bounds for {self.shape}")
        ru, rw = self._real(u), self._real(w)
        if ru and rw:
            return self._base.query_edge(u, w)
        if ru != rw:
            return u if ru else w
        ku = u[0] * self._scale + u[1]
        kw = w[0] * self._scale + w[1]
        return u if ku < kw else w


class _FixedAxesView:
    """(d-k)-dimensional vertex-oracle view with k axes pinned to constants.

    Queries lift to the base oracle (shared counter and cache); answers drop
    the line masks of the pinned axes.
    """

    def __init__(self, base, pinned: dict[int, int]):
        self._base = base
        self._pinned = dict(pinned)
        self._axes = [a for a in range(len(base.dims)) if a not in self._pinned]
        self.dims = tuple(base.dims[a] for a in self._axes)

    @property
    def counter(self) -> QueryCounter:
        return self._base.counter

    def lift(self, sub: tuple) -> tuple:
        full = [0] * len(self._base.dims)
        for axis, coord in self._pinned.items():
            full[axis] = coord
        for pos, axis in enumerate(self._axes):
            full[axis] = sub[pos]
        return tuple(full)

    def query(self, sub: tuple) -> VertexAnswer:
        sub = tuple(sub)
        ans = self._base.query(self.lift(sub))
        return VertexAnswer.from_masks(
            sub,
            tuple(ans.lines_in[a] for a in self._axes),
            tuple(ans.lines_out[a] for a in self._axes),
        )


class InheritedVertexOracle(VertexOracle):
    """2-dimensional vertex oracle over the blocks of two chosen axes.

    A query on block (x, y) pins the two axes to (x, y) and runs the
    sub-solver on the remaining (d-2)-dimensional block with real vertex
    queries.  The sub-solver's final query is the block sink, so its cached
    answer already holds the directions along the pinned axes: deriving the
    block edges costs no extra real queries.
    """

    def __init__(
        self,
        base,
        axes: tuple[int, int] = (0, 1),
        sub_solver: Callable[[_FixedAxesView], tuple] | None = None,
        record: bool = True,
    ):
        super().__init__(record)
        a0, a1 = axes
        if a0 == a1 or not (0 <= a0 < len(base.dims)) or not (0 <= a1 < len(base.dims)):
            raise GridError(f"bad axis pair {axes} for dims {base.dims}")
        if sub_solver is None:
            raise GridError("inherited oracle needs a sub-solver")
        self._base = base
        self._axes = (a0, a1)
        self._sub = sub_solver
        self._block_sinks: dict[Vertex, tuple] = {}
        self.shape = GridShape(base.dims[a0], base.dims[a1])

    def block_sink(self, xy: Vertex) -> tuple:
        return self._block_sinks[xy]

    def _answer(self, xy: Vertex) -> VertexAnswer:
        if not self.shape.contains(xy):
            raise GridError(f"block {xy} out of bounds for {self.shape}")
        a0, a1 = self._axes
        view = _FixedAxesView(self._base, {a0: xy[0], a1: xy[1]})
        local = self._sub(view)
        full = view.lift(tuple(local))
        ans = self._base.query(full)  # cached: the sub-solver queried its sink last
        if any(mask for a, mask in enumerate(ans.lines_out) if a not in (a0, a1)):
            raise SubSolverError(
                f"sub-solver sink {full} has an outgoing edge inside block {xy}"
            )
        self._block_sinks[xy] = full
        return VertexAnswer.from_masks(
            xy, (ans.lines_in[a0], ans.lines_in[a1]), (ans.lines_out[a0], ans.lines_out[a1])
        )
