"""Countable query interfaces over grids.

A handle answers vertex queries (all incident edge directions at once) or
edge queries (one direction, or one line range of them at once).  Duplicate
queries are not re-counted: a vertex handle serves them from its cache, and
an edge handle keeps, per vertex and axis, a line mask of the edges already
known.  Counters so measure distinct information and stay comparable across
algorithms.  One handle backs one logical interaction; distinct handles over
immutable grids may run in parallel.

Sources answer for themselves: an explicit grid of any dimension and a value
matrix both define the source protocol of :mod:`usogrid.dgrid`
(``_out_lines``, ``_points_to``, ``dims``).  Over a source,
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

from .dgrid import (DOrientedGrid, _check_dims, _check_line, _check_vertex, _full, _in_masks,
                    _masks_to_vertices)
from .errors import AdversaryError, GridError, SubSolverError
from .grid import OrientedGrid, ValueMatrix, Vertex, _bool_mask, _PlanarShape
from .kernels import _bit_list


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


class VertexOracle(_PlanarShape):
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


class EdgeOracle(_PlanarShape):
    """Edge-query handle over a two-axis source (a value matrix or an
    explicit grid with two axes).

    ``query_edge(u, w)`` returns the head vertex.  ``query_line(u, axis, lo,
    hi)`` asks every edge from u to the vertices of its line along ``axis``
    with coordinates in [lo, hi) at once and returns u's out mask over that
    range, with the bit convention of ``VertexAnswer.lines_out``: the
    source's out mask at u on that axis, cut to the range.

    Each vertex keeps one known mask per axis; an edge answered for the first
    time sets its bit on both endpoints.  So an edge is counted, and enters
    the transcript, once, whichever method asks for it first; a line query
    records its new edges in ascending coordinate order.
    """

    def __init__(self, source: ValueMatrix | DOrientedGrid, record: bool = True):
        self.counter = QueryCounter()
        self.transcript: list[TranscriptRecord] | None = [] if record else None
        self.source = source
        self.dims = m, n = source.dims
        # _known[axis][k]: bit c set iff the edge from vertex k (row-major) to
        # the vertex with coordinate c on its line along axis is known.
        self._known = tuple([0] * (m * n) for _ in range(2))

    def query_edge(self, u: Vertex, w: Vertex) -> Vertex:
        head = w if self.source._points_to(u, w) else u
        axis = 0 if u[0] != w[0] else 1
        n = self.dims[1]
        known = self._known[axis]
        ku = u[0] * n + u[1]
        if not known[ku] >> w[axis] & 1:
            known[ku] |= 1 << w[axis]
            known[w[0] * n + w[1]] |= 1 << u[axis]
            self.counter.edge_queries += 1
            if self.transcript is not None:
                self.transcript.append(("edge", (u, w) if u <= w else (w, u), head))
        return head

    def query_line(self, u: Vertex, axis: int, lo: int, hi: int) -> int:
        span = _check_line(self.source.dims, axis, lo, hi)
        out = self.source._out_lines(u)[axis] & span
        n = self.dims[1]
        known = self._known[axis]
        ku = u[0] * n + u[1]
        c = u[axis]
        new = span & ~known[ku] & ~(1 << c)
        if not new:
            return out
        # Mark u known at the other end of every edge in the range: at the
        # ends already known the bit is set already, and u's own bit is moot.
        step = n if axis == 0 else 1
        ends = slice(ku + (lo - c) * step, ku + (hi - c) * step, step)
        bit = 1 << c
        known[ends] = [k | bit for k in known[ends]]
        known[ku] |= new
        self.counter.edge_queries += new.bit_count()
        if self.transcript is not None:
            for x in _bit_list(new):
                w = (x, u[1]) if axis == 0 else (u[0], x)
                self.transcript.append(
                    ("edge", (w, u) if x < c else (u, w), w if out >> x & 1 else u))
        return out


def edge_oracle(source: DOrientedGrid | ValueMatrix, record: bool = True) -> EdgeOracle:
    if not isinstance(source, (ValueMatrix, DOrientedGrid)):
        raise TypeError(f"cannot build an edge oracle from {type(source).__name__}")
    if len(source.dims) != 2:
        raise GridError(f"an edge oracle needs a grid with two axes, dims are {source.dims}")
    return EdgeOracle(source, record)


class _View(_PlanarShape):
    """A handle that answers through a base handle and counts on its counter."""

    def __init__(self, base):
        self._base = base

    @property
    def counter(self) -> QueryCounter:
        return self._base.counter


class TransposedVertexOracle(_View):
    """Thin coordinate-swapping view; counting stays on the base handle."""

    def __init__(self, base):
        super().__init__(base)
        # From ``shape``: perfbench/tests' ``_FlipAtSink``, which this view
        # wraps on tall grids, copies only ``shape`` from its base.
        self.dims = (base.shape.cols, base.shape.rows)

    def query(self, v: Vertex) -> VertexAnswer:
        _check_vertex(self.dims, v)
        ans = self._base.query((v[1], v[0]))
        return VertexAnswer.from_masks(v, ans.lines_in[::-1], ans.lines_out[::-1])


class AdversaryVertexOracle(VertexOracle):
    """Adaptive answerer committed to no fixed grid.

    The strategy is an m x n value matrix filled in as queries arrive; -inf
    lies below every value given so far.  A query in a fresh row, while two
    or more rows are unfrozen, freezes the row: it gets the value band
    ``(m - order)·(n+2) + n - col`` (``order`` numbers the frozen rows from
    1), with +0 at the queried column, the row's sink.  In the survivor (the
    last unfrozen row) the r-th query (from 0) gets ``n - 1 - r``, above
    every unqueried vertex, so only the last one is the sink.  An answer
    compares the value with its column and its row.  Any solver is forced
    to spend rows + cols - 1 vertex queries; once the sink is resolved,
    :meth:`materialize` emits the explicit grid of the matrix.
    """

    def __init__(self, shape: tuple[int, int], record: bool = True):
        super().__init__(record)
        self.dims = _check_dims(shape)
        if len(self.dims) != 2:
            raise GridError(f"the adversary needs two axes, dims are {self.dims}")
        self._values = np.full(self.dims, -np.inf)
        self._rows_frozen = 0
        self.sink: Vertex | None = None

    def _answer(self, v: Vertex) -> VertexAnswer:
        _check_vertex(self.dims, v)
        i, j = v
        m, n = self.dims
        vals = self._values
        if vals[i, j] == -np.inf:
            if self._rows_frozen < m - 1:
                self._rows_frozen += 1
                band = (m - self._rows_frozen) * (n + 2)
                vals[i] = band + n - np.arange(n)
                vals[i, j] = band
            else:
                rank = np.count_nonzero(vals[i] > -np.inf)
                vals[i, j] = n - 1 - rank
                if rank == n - 1:
                    self.sink = v
        x = vals[i, j]
        out = (_bool_mask(vals[:, j] < x), _bool_mask(vals[i] < x))
        return VertexAnswer.from_masks(v, _in_masks(v, (m, n), out), out)

    def materialize(self) -> OrientedGrid:
        """Explicit USO consistent with the full transcript."""
        if self.sink is None:
            raise AdversaryError("cannot materialize before the sink is resolved")
        return OrientedGrid.from_values(ValueMatrix(self._values))


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
    def block_dims(self) -> tuple[int, int]:
        return (len(self.row_blocks), len(self.col_blocks))

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
        m, n, k, l = _check_dims((m, n, k, l))
        if not (1 <= k <= m and 1 <= l <= n):
            raise GridError(f"cannot split {m}x{n} into {k}x{l} blocks")
        return cls(cls._split(m, k), cls._split(n, l))


def _block_mask(mask: int, blocks: tuple[tuple[int, int], ...]) -> int:
    """Bit t set iff ``mask`` has a bit inside block t."""
    return sum(1 << t for t, (start, stop) in enumerate(blocks)
               if mask & _full(stop) >> start << start)


class _BlockEdgeView(_View):
    """Edge oracle restricted to one block, in block-local coordinates."""

    def __init__(self, base, rows: tuple[int, int], cols: tuple[int, int]):
        super().__init__(base)
        self._r0, r1 = rows
        self._c0, c1 = cols
        self.dims = (r1 - self._r0, c1 - self._c0)

    def query_edge(self, u: Vertex, w: Vertex) -> Vertex:
        rows, cols = self.dims
        if not (len(u) == 2 == len(w) and 0 <= u[0] < rows and 0 <= u[1] < cols
                and 0 <= w[0] < rows and 0 <= w[1] < cols):
            raise GridError(f"edge {u}-{w} out of bounds for block dims {self.dims}")
        gu = (u[0] + self._r0, u[1] + self._c0)
        gw = (w[0] + self._r0, w[1] + self._c0)
        return u if self._base.query_edge(gu, gw) == gu else w

    def query_line(self, u: Vertex, axis: int, lo: int, hi: int) -> int:
        _check_vertex(self.dims, u)
        _check_line(self.dims, axis, lo, hi)
        shift = self._c0 if axis else self._r0
        gu = (u[0] + self._r0, u[1] + self._c0)
        return self._base.query_line(gu, axis, lo + shift, hi + shift) >> shift


class _BlockGridOracle(VertexOracle):
    """Vertex oracle over a 2-D grid of blocks.

    A query on block xy runs the sub-solver inside the block (in
    :meth:`_solve_block`), which also reads the block sink's out masks along
    the two block axes; those masks answer the query.  Base costs land on the
    base handle's counter; this handle's own counter counts block-level
    vertex queries, and it keeps no transcript.
    """

    def __init__(self, base, sub_solver: Callable, dims: tuple[int, int]):
        super().__init__(record=False)
        self._base = base
        self._sub = sub_solver
        self._block_sinks: dict[Vertex, tuple] = {}
        self.dims = dims

    def block_sink(self, xy: Vertex) -> tuple:
        """Base-grid sink of an already-queried block."""
        return self._block_sinks[xy]

    def _answer(self, xy: Vertex) -> VertexAnswer:
        _check_vertex(self.dims, xy)
        sink, out = self._solve_block(xy)
        self._block_sinks[xy] = sink
        return VertexAnswer.from_masks(xy, _in_masks(xy, self.dims, out), out)

    def _solve_block(self, xy: Vertex) -> tuple[tuple, tuple[int, int]]:
        """The block's sink in base coordinates and its out masks over the
        blocks along axes 0 and 1; SubSolverError unless it is the sink."""
        raise NotImplementedError


class InducedVertexOracle(_BlockGridOracle):
    """Vertex oracle over the block grid of a partition pair.

    A vertex query on block (x, y) finds the block's sink with the supplied
    sub-solver (edge queries restricted to the block), then queries every
    base edge incident to that sink, one line query along its row and one
    along its column; block x points to block y iff the sink has at least
    one outgoing edge into y.
    """

    def __init__(self, base, parts: PartitionPair,
                 sub_solver: Callable[[_BlockEdgeView], Vertex]):
        if parts.covers != base.dims:
            raise GridError(f"partition covers {parts.covers}, base oracle dims are {base.dims}")
        super().__init__(base, sub_solver, parts.block_dims)
        self._parts = parts

    def _solve_block(self, xy: Vertex) -> tuple[Vertex, tuple[int, int]]:
        x, y = xy
        r0, r1 = self._parts.row_blocks[x]
        c0, c1 = self._parts.col_blocks[y]
        local = self._sub(_BlockEdgeView(self._base, (r0, r1), (c0, c1)))
        u = (r0 + local[0], c0 + local[1])
        if not (r0 <= u[0] < r1 and c0 <= u[1] < c1):
            raise SubSolverError(f"sub-solver returned {u} outside block {xy}")
        rows, cols = self._base.dims
        row_out = self._base.query_line(u, 1, 0, cols)
        col_out = self._base.query_line(u, 0, 0, rows)
        if row_out & _full(c1) >> c0 << c0 or col_out & _full(r1) >> r0 << r0:
            raise SubSolverError(f"sub-solver sink {u} has an outgoing edge in block {xy}")
        # A block points out along a line iff some base edge into it does.
        return u, (_block_mask(col_out, self._parts.row_blocks),
                   _block_mask(row_out, self._parts.col_blocks))


class PaddedEdgeOracle(_View):
    """Edge oracle over the square padding of a rectangular base oracle.

    Queries between real vertices pass through (and count on) the base
    handle.  Synthetic vertices behave as values base + R*i + j above every
    real value, so any edge touching one is answered free of charge: toward
    the real endpoint, or toward the smaller R*i + j key when both endpoints
    are synthetic-region cells.  A line query forwards its real part to the
    base handle; a synthetic vertex points to every vertex below it on its
    line.  The padded sink equals the base sink.
    """

    def __init__(self, base, side: int):
        bm, bn = base.dims
        if side < max(bm, bn):
            raise GridError(f"padding side {side} below max({bm}, {bn})")
        super().__init__(base)
        self._m, self._n = bm, bn
        self.dims = (side, side)
        self._scale = side + 1

    def _real(self, v: Vertex) -> bool:
        return v[0] < self._m and v[1] < self._n

    def query_edge(self, u: Vertex, w: Vertex) -> Vertex:
        side = self.dims[0]
        if not (len(u) == 2 == len(w) and 0 <= u[0] < side and 0 <= u[1] < side
                and 0 <= w[0] < side and 0 <= w[1] < side):
            raise GridError(f"edge {u}-{w} out of bounds for dims {self.dims}")
        if u == w or (u[0] != w[0] and u[1] != w[1]):
            raise GridError(f"{u}-{w} is not a grid edge")
        ru, rw = self._real(u), self._real(w)
        if ru and rw:
            return self._base.query_edge(u, w)
        if ru != rw:
            return u if ru else w
        ku = u[0] * self._scale + u[1]
        kw = w[0] * self._scale + w[1]
        return u if ku < kw else w

    def query_line(self, u: Vertex, axis: int, lo: int, hi: int) -> int:
        _check_vertex(self.dims, u)
        span = _check_line(self.dims, axis, lo, hi)
        if not self._real(u):
            # Real neighbours and smaller keys both lie below u on the line.
            return _full(u[axis]) & span
        real = self._n if axis else self._m
        return self._base.query_line(u, axis, lo, min(hi, real)) if lo < real else 0


class _FixedAxesView(_View):
    """(d-k)-dimensional vertex-oracle view with the first k axes pinned to
    the coordinates ``prefix``.

    Queries lift to the base oracle (shared counter and cache); answers drop
    the line masks of the pinned axes.
    """

    def __init__(self, base, prefix: tuple):
        super().__init__(base)
        self._prefix = prefix
        self.dims = base.dims[len(prefix):]

    def lift(self, sub: tuple) -> tuple:
        return self._prefix + sub

    def query(self, sub: tuple) -> VertexAnswer:
        sub = tuple(sub)
        ans = self._base.query(self.lift(sub))
        k = len(self._prefix)
        return VertexAnswer.from_masks(sub, ans.lines_in[k:], ans.lines_out[k:])


class InheritedVertexOracle(_BlockGridOracle):
    """2-dimensional vertex oracle over the blocks of the first two axes.

    A query on block (x, y) pins axes 0 and 1 to (x, y) and runs the
    sub-solver on the remaining (d-2)-dimensional block with real vertex
    queries.  The sub-solver's final query is the block sink, so its cached
    answer already holds the directions along the pinned axes: deriving the
    block edges costs no extra real queries.
    """

    def __init__(self, base, sub_solver: Callable[[_FixedAxesView], tuple]):
        if len(base.dims) < 2:
            raise GridError(f"inherited oracle needs two axes, dims are {base.dims}")
        super().__init__(base, sub_solver, base.dims[:2])

    def _solve_block(self, xy: Vertex) -> tuple[tuple, tuple[int, int]]:
        view = _FixedAxesView(self._base, xy)
        full = view.lift(tuple(self._sub(view)))
        ans = self._base.query(full)  # cached: the sub-solver queried its sink last
        if any(ans.lines_out[2:]):
            raise SubSolverError(
                f"sub-solver sink {full} has an outgoing edge inside block {xy}"
            )
        return full, ans.lines_out[:2]
