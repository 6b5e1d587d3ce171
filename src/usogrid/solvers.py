"""Deterministic sink-finding algorithms and their query bounds.

The vertex-query workhorse is row/column elimination: a queried non-sink
vertex v is the unique sink of the subgrid spanned by its direct incoming
edges (plus its own row and column), so that whole subgrid cannot contain the
global sink.  Querying a square set of vertices in distinct rows and distinct
columns always leaves at least one whole row and one whole column eliminated,
which drives the 2n-1 square solver, its m+n-1 rectangular extension, and —
through induced block grids — the almost-linear edge-query solver and the
d-dimensional recursion.

All solvers follow the convention that the global sink must be queried even
when its position is already forced; counts below and the stated bounds rely
on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .dgrid import _check_dims
from .errors import GridError, NotUsoError
from .grid import GridShape, Vertex
from .kernels import PLANAR_AXES, edge_list
from .oracles import (
    InducedVertexOracle,
    InheritedVertexOracle,
    PaddedEdgeOracle,
    PartitionPair,
    QueryCounter,
    TransposedVertexOracle,
    VertexAnswer,
)


class EliminationState:
    """Bookkeeping for the elimination solvers.

    Tracks the active subgrid, per-vertex eliminated flags (as per-row column
    bitmasks), and which queried vertex currently covers each active
    row/column.  Within the active subgrid, queried vertices always occupy
    distinct rows and distinct columns.
    """

    __slots__ = ("active_rows", "active_cols", "elim", "row_cover", "col_cover", "sink")

    def __init__(self, m: int, n: int):
        self.active_rows = (1 << m) - 1
        self.active_cols = (1 << n) - 1
        self.elim = [0] * m
        self.row_cover: dict[int, Vertex] = {}
        self.col_cover: dict[int, Vertex] = {}
        self.sink: Vertex | None = None

    def is_active(self, v: Vertex) -> bool:
        return bool(self.active_rows >> v[0] & 1 and self.active_cols >> v[1] & 1)

    def is_eliminated(self, v: Vertex) -> bool:
        return bool(self.elim[v[0]] >> v[1] & 1)

    def deactivate(self, row: int | None = None, col: int | None = None) -> None:
        if row is not None:
            self.active_rows &= ~(1 << row)
        if col is not None:
            self.active_cols &= ~(1 << col)


def note_query(state: EliminationState, answer: VertexAnswer) -> None:
    """Fold one vertex answer into the state.

    A sink answer (no outgoing edges) resolves the search; otherwise the
    eliminated subgrid is derived from the answer's direct incoming edges
    only — no transitive closure.  Rows come from the in mask along the
    vertex's column (axis 0), columns from the one along its row (axis 1):
    the vertex is the unique sink of those rows x columns, so when it is not
    the global sink that whole subgrid is ruled out.
    """
    v = answer.vertex
    i, j = v
    if not state.is_active(v):
        raise GridError(f"queried vertex {v} is outside the active subgrid")
    if answer.is_sink:
        state.sink = v
        return
    rmask = answer.lines_in[0] | 1 << i
    cmask = answer.lines_in[1] | 1 << j
    while rmask:
        state.elim[(rmask & -rmask).bit_length() - 1] |= cmask
        rmask &= rmask - 1
    state.row_cover[i] = v
    state.col_cover[j] = v


def _lowest_bit(mask: int) -> int | None:
    if mask == 0:
        return None
    return (mask & -mask).bit_length() - 1


def _eliminated_col(state: EliminationState, cols: int) -> int | None:
    """Lowest column of the mask ``cols`` eliminated in every active row."""
    rbits = state.active_rows
    while rbits:
        cols &= state.elim[(rbits & -rbits).bit_length() - 1]
        rbits &= rbits - 1
    return _lowest_bit(cols)


def eliminated_lines(state: EliminationState) -> tuple[int, int] | None:
    """Lowest-index fully-eliminated active row and column.

    None iff the sink is already found.  When the active subgrid is square
    with one queried non-sink vertex per line, such a pair always exists;
    failing to find one means the oracle is not a USO.
    """
    if state.sink is not None:
        return None
    row = None
    rbits = state.active_rows
    while rbits:
        r = (rbits & -rbits).bit_length() - 1
        if state.active_cols & ~state.elim[r] == 0:
            row = r
            break
        rbits &= rbits - 1
    col = _eliminated_col(state, state.active_cols)
    if row is None or col is None:
        raise NotUsoError(
            "no fully eliminated row/column although the sink is unfound: "
            "the oracle is not a USO"
        )
    return row, col


def _square_phase(oracle, state: EliminationState) -> Vertex:
    # Invariant: active subgrid square, every active line covered by exactly
    # one queried vertex.
    while state.sink is None:
        r, c = eliminated_lines(state)
        q_row = state.row_cover[r]
        q_col = state.col_cover[c]
        state.deactivate(row=r, col=c)
        if q_row != q_col:
            # Both lines lose their covering vertex; one query restores the
            # one-per-line invariant.
            note_query(state, oracle.query((q_col[0], q_row[1])))
    return state.sink


def _check_shape(oracle, m: int, n: int) -> None:
    """GridError unless ``oracle`` answers for an m x n grid.  Reads ``shape``:
    perfbench/tests' ``_FlipAtSink`` copies only that, and a missing ``dims``
    would fail its ops with an AttributeError, not on the flipped answer."""
    if oracle.shape != GridShape(m, n):
        raise GridError(f"oracle shape {oracle.shape} does not match {m}x{n}")


def rectangular_solve(oracle, m: int, n: int) -> tuple[Vertex, QueryCounter]:
    """Find the sink of an m x n grid USO with at most m + n - 1 vertex queries.

    With m <= n (the other case is transposed internally): query the main
    diagonal of the first m columns; while more than m columns are active,
    one covered column is fully eliminated and a single replacement query at
    the uncovered row re-covers a fresh column; once m columns remain, the
    square procedure eliminates one row and one column per query.
    """
    _check_shape(oracle, m, n)
    if m > n:
        sink, counter = rectangular_solve(TransposedVertexOracle(oracle), n, m)
        return (sink[1], sink[0]), counter
    state = EliminationState(m, n)
    for i in range(m):
        note_query(state, oracle.query((i, i)))
        if state.sink is not None:
            return state.sink, oracle.counter.snapshot()
    covered = (1 << m) - 1
    while state.active_cols.bit_count() > m:
        c = _eliminated_col(state, state.active_cols & covered)
        if c is None:
            raise NotUsoError(
                "no eliminated column among the covered ones: the oracle is not a USO"
            )
        lost_row = state.col_cover[c][0]
        state.deactivate(col=c)
        covered &= ~(1 << c)
        j = _lowest_bit(state.active_cols & ~covered)
        note_query(state, oracle.query((lost_row, j)))
        if state.sink is not None:
            return state.sink, oracle.counter.snapshot()
        covered |= 1 << j
    sink = _square_phase(oracle, state)
    return sink, oracle.counter.snapshot()


def diagonal_solve(oracle, n: int) -> tuple[Vertex, QueryCounter]:
    """Find the sink of an n x n grid USO with at most 2n - 1 vertex queries.

    Queries the main diagonal, then repeatedly drops one fully-eliminated row
    and column and re-covers the two uncovered lines with one query.
    """
    return rectangular_solve(oracle, n, n)


def _walk(oracle, start, step) -> tuple:
    """Follow ``step(outgoing)`` from ``start`` to a vertex without outgoing edges.

    Acyclicity of grid USOs guarantees termination within one query per
    vertex; a revisit proves the oracle is not a USO.
    """
    v = start
    seen = set()
    while True:
        if v in seen:
            raise NotUsoError(f"walk revisited {v}: the orientation has a cycle")
        seen.add(v)
        answer = oracle.query(v)
        if answer.is_sink:
            return v
        v = step(answer.outgoing)


def walk_solve(oracle) -> tuple[Vertex, QueryCounter]:
    """Baseline: from (0, 0) follow the lowest-indexed outgoing neighbour."""
    return _walk(oracle, (0, 0), min), oracle.counter.snapshot()


def random_edge_solve(oracle, seed: int) -> tuple[Vertex, QueryCounter]:
    """Baseline: from (0, 0) walk to a uniformly random outgoing neighbour."""
    rng = random.Random(seed)
    sink = _walk(oracle, (0, 0), lambda outgoing: rng.choice(sorted(outgoing)))
    return sink, oracle.counter.snapshot()


def k_schedule(n: int) -> int:
    """Branching factor 2^(2*sqrt(log2 n)), rounded and clamped to [2, ceil(n/2)]."""
    raw = round(2 ** (2 * math.sqrt(math.log2(n))))
    return max(2, min(raw, (n + 1) // 2))


@dataclass(frozen=True)
class KSchedule:
    """Divide-and-conquer tuning: branching factor and base-case size."""

    branching: Callable[[int], int] = k_schedule
    base_threshold: int = 8

    def k(self, n: int) -> int:
        return max(2, min(self.branching(n), (n + 1) // 2))


DEFAULT_SCHEDULE = KSchedule()


def _sink_by_all_edges(edge_o, n: int) -> Vertex:
    """Base case: query every edge of the n x n grid and scan out-degrees."""
    outdeg = [0] * (n * n)
    for u, w in edge_list((n, n), PLANAR_AXES):
        tail = w if edge_o.query_edge(u, w) == u else u
        outdeg[tail[0] * n + tail[1]] += 1
    sinks = [v for v, d in enumerate(outdeg) if d == 0]
    if len(sinks) != 1:
        raise NotUsoError(f"edge scan found {len(sinks)} sinks: not a USO")
    return divmod(sinks[0], n)


def _dc_square(edge_o, n: int, schedule: KSchedule) -> Vertex:
    if n <= schedule.base_threshold:
        return _sink_by_all_edges(edge_o, n)
    k = schedule.k(n)
    parts = PartitionPair.near_equal(n, n, k, k)
    induced = InducedVertexOracle(edge_o, parts, lambda view: _dc_any(view, schedule))
    block, _ = diagonal_solve(induced, k)
    return induced.block_sink(block)


def _dc_any(view, schedule: KSchedule) -> Vertex:
    a, b = view.dims
    if a == b:
        return _dc_square(view, a, schedule)
    side = max(a, b)
    # Padded sinks always land in the real region, so no translation needed.
    return _dc_square(PaddedEdgeOracle(view, side), side, schedule)


def dc_edge_solve(
    oracle, m: int, n: int, schedule: KSchedule = DEFAULT_SCHEDULE
) -> tuple[Vertex, QueryCounter]:
    """Find the sink of an m x n grid USO under the edge-query model.

    Rectangular instances are squared with a zero-cost padding oracle.  At or
    below the base threshold every edge is queried; above it, rows and
    columns are cut into k near-equal contiguous blocks and the square
    vertex-query solver runs on the induced block grid, with this solver as
    the per-block recursion.  Counts stay within :func:`dc_edge_bound`,
    8 * n * 2^(2*sqrt(log2 n)) base edge queries.
    """
    _check_shape(oracle, m, n)
    return _dc_any(oracle, schedule), oracle.counter.snapshot()


def _ddim_sink(oracle, dims: tuple[int, ...]):
    if len(dims) == 0:
        # Single-vertex block; the sink-must-be-queried convention costs 1.
        oracle.query(())
        return ()
    if len(dims) == 1:
        return _walk(oracle, (0,), min)
    inherited = InheritedVertexOracle(oracle, lambda view: _ddim_sink(view, view.dims))
    block, _ = rectangular_solve(inherited, dims[0], dims[1])
    return inherited.block_sink(block)


def ddim_solve(oracle, dims) -> tuple[tuple, QueryCounter]:
    """Find the sink of a d-dimensional grid USO with real vertex queries.

    One dimension is an acyclic tournament walk; otherwise the first two
    dimensions form an inherited block grid solved by the rectangular solver,
    recursing on the remaining d - 2 dimensions inside each block.  Counts
    satisfy the unrolled bound of :func:`ddim_bound`.
    """
    dims = tuple(dims)
    have = getattr(oracle, "dims", None)
    if have is None or dims != tuple(have):
        raise GridError(f"oracle dims {have} do not match {dims}")
    sink = _ddim_sink(oracle, dims)
    return sink, oracle.counter.snapshot()


def diagonal_bound(n: int) -> int:
    return 2 * n - 1


def rectangular_bound(m: int, n: int) -> int:
    return m + n - 1


def dc_edge_bound(m: int, n: int, c: int = 8) -> int:
    """c * s * 2^(2*sqrt(log2 s)) for the padded side s, floored to the
    largest integer count it admits."""
    s = max(m, n)
    return math.floor(c * s * 2 ** (2 * math.sqrt(math.log2(s)))) if s > 1 else c


def ddim_bound(dims) -> int:
    """Unrolled two-dimensions-at-a-time recurrence T(n1, n2, rest) =
    (n1 + n2 - 1)·T(rest), T(n) = n: the product of n1 + n2 - 1 over the
    axis pairs, times the last size when d is odd."""
    dims = _check_dims(dims)
    pairs = math.prod(a + b - 1 for a, b in zip(dims[::2], dims[1::2]))
    return pairs * dims[-1] if len(dims) % 2 else pairs


def exhaustive_bound(m: int, n: int) -> int:
    return m * n


@dataclass(frozen=True)
class Algorithm:
    """One CLI algorithm: the query kind its bound judges ("vertex" or
    "edge"), ``solve(oracle, dims, seed) -> (sink, counter)`` and
    ``bound(dims) -> int``."""

    kind: str
    solve: Callable[..., tuple]
    bound: Callable[[tuple], int]


#: Every solver the CLI, the reports and the benches run, by CLI name.  The
#: entries look the solvers up as module globals when called, so wrappers
#: installed on this module's functions (tracing) see every call.
ALGORITHMS = {
    "diagonal": Algorithm("vertex", lambda o, dims, seed: diagonal_solve(o, dims[1]),
                          lambda dims: diagonal_bound(dims[1])),
    "rect": Algorithm("vertex", lambda o, dims, seed: rectangular_solve(o, *dims),
                      lambda dims: rectangular_bound(*dims)),
    "dc-edge": Algorithm("edge", lambda o, dims, seed: dc_edge_solve(o, *dims),
                         lambda dims: dc_edge_bound(*dims)),
    "ddim": Algorithm("vertex", lambda o, dims, seed: ddim_solve(o, dims),
                      lambda dims: ddim_bound(dims)),
    "walk": Algorithm("vertex", lambda o, dims, seed: walk_solve(o),
                      lambda dims: exhaustive_bound(*dims)),
    "random-edge": Algorithm("vertex", lambda o, dims, seed: random_edge_solve(o, seed),
                             lambda dims: exhaustive_bound(*dims)),
}
