"""Oracle handles: counting, caching, adversary, induced/inherited/pad adapters."""

import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usogrid import (
    AdversaryError,
    AdversaryVertexOracle,
    GridError,
    InducedVertexOracle,
    PaddedEdgeOracle,
    PartitionPair,
    SubSolverError,
    ValueMatrix,
    brute_force_sink,
    edge_oracle,
    gen_one_line,
    gen_separable_ddim,
    kernels,
    replay_transcript,
    validate_uso,
    vertex_oracle,
)
from usogrid.dgrid import DOrientedGrid
from usogrid.grid import GridShape, OrientedGrid
from usogrid.oracles import (
    InheritedVertexOracle,
    SourceVertexOracle,
    TransposedVertexOracle,
    VertexAnswer,
    _BlockEdgeView,
    _FixedAxesView,
)
from usogrid.solvers import dc_edge_solve, diagonal_solve, rectangular_solve, walk_solve

from reference import contiguous_partitions, in_neighbors, out_neighbors, pad_values_to_square


def grid_1234():
    return OrientedGrid.from_values(ValueMatrix([[1, 2], [3, 4]]))


class TestVertexOracle:
    def test_answers(self):
        o = vertex_oracle(grid_1234())
        a = o.query((0, 0))
        assert a.incoming == {(0, 1), (1, 0)} and a.outgoing == frozenset()
        b = o.query((1, 1))
        assert b.outgoing == {(1, 0), (0, 1)} and b.incoming == frozenset()

    def test_duplicate_queries_not_counted(self):
        o = vertex_oracle(grid_1234())
        first = o.query((0, 1))
        again = o.query((0, 1))
        assert first == again
        assert o.counter.vertex_queries == 1
        assert len(o.transcript) == 1

    def test_value_and_explicit_backends_agree(self):
        vm = gen_one_line(3, 4, 5)
        g = OrientedGrid.from_values(vm)
        ov, oe = SourceVertexOracle(vm), SourceVertexOracle(g)
        for v in g.shape.vertices():
            assert ov.query(v) == oe.query(v)

    def test_out_of_bounds(self):
        with pytest.raises(GridError):
            vertex_oracle(grid_1234()).query((2, 0))

    def test_record_false_skips_transcript(self):
        o = vertex_oracle(grid_1234(), record=False)
        o.query((0, 0))
        assert o.transcript is None and o.counter.vertex_queries == 1


class TestEdgeOracle:
    def test_answers_and_caching(self):
        o = edge_oracle(grid_1234())
        assert o.query_edge((0, 0), (1, 0)) == (0, 0)  # 3 > 1
        assert o.query_edge((1, 0), (0, 0)) == (0, 0)
        assert o.counter.edge_queries == 1

    def test_four_edges_determine_2x2_sink(self):
        g = grid_1234()
        o = edge_oracle(g)
        edges = kernels.edge_list(g.dims, kernels.PLANAR_AXES)
        heads = [o.query_edge(a, b) for a, b in edges]
        assert o.counter.edge_queries == 4
        tails = {a if head == b else b for (a, b), head in zip(edges, heads)}
        (sink,) = set(g.shape.vertices()) - tails
        assert sink == brute_force_sink(g)

    def test_never_contradicts_vertex_oracle(self):
        vm = gen_one_line(4, 3, 11)
        g = OrientedGrid.from_values(vm)
        ov, oe = vertex_oracle(g), edge_oracle(vm)
        for v in g.shape.vertices():
            answer = ov.query(v)
            for w in answer.outgoing:
                assert oe.query_edge(v, w) == w
            for w in answer.incoming:
                assert oe.query_edge(v, w) == v

    def test_rejects_non_edges(self):
        o = edge_oracle(gen_one_line(2, 2, 0))
        with pytest.raises(GridError):
            o.query_edge((0, 0), (1, 1))


class TestTranscriptReplay:
    def test_vertex_replay(self):
        g = grid_1234()
        o = vertex_oracle(g)
        o.query((1, 1))
        o.query((0, 0))
        assert replay_transcript(o.transcript, vertex_oracle(g))

    def test_replay_detects_mismatch(self):
        o = vertex_oracle(grid_1234())
        o.query((1, 1))
        other = OrientedGrid.from_values(ValueMatrix([[4, 3], [2, 1]]))
        assert not replay_transcript(o.transcript, vertex_oracle(other))

    def test_edge_replay(self):
        vm = gen_one_line(2, 3, 9)
        o = edge_oracle(vm)
        o.query_edge((0, 0), (0, 2))
        o.query_edge((1, 1), (0, 1))
        assert [rec[0] for rec in o.transcript] == ["edge", "edge"]
        assert replay_transcript(o.transcript, edge_oracle(vm))

    def test_edge_replay_detects_mismatch(self):
        o = edge_oracle(grid_1234())
        o.query_edge((0, 1), (0, 0))
        other = OrientedGrid.from_values(ValueMatrix([[4, 3], [2, 1]]))
        assert not replay_transcript(o.transcript, edge_oracle(other))


class TestVertexArity:
    """A vertex with other than two coordinates is a GridError at every 2-D
    handle, never a silent answer or an untyped error."""

    @staticmethod
    def _induced():
        return InducedVertexOracle(edge_oracle(gen_one_line(4, 4, 2)),
                                   PartitionPair.near_equal(4, 4, 2, 2), _brute_sub_solver)

    @pytest.mark.parametrize("query", [
        lambda: PaddedEdgeOracle(edge_oracle(gen_one_line(3, 4, 1)), 4).query_line(
            (3, 0, 0), 1, 0, 4),
        lambda: PaddedEdgeOracle(edge_oracle(gen_one_line(3, 4, 1)), 4).query_edge(
            (3, 0, 0), (3, 0, 1)),
        lambda: AdversaryVertexOracle((3, 3)).query((0, 0, 0)),
        lambda: AdversaryVertexOracle((3, 3)).query((0,)),
        lambda: TestVertexArity._induced().query((0, 0, 1)),
        lambda: TestVertexArity._induced().query((0,)),
        lambda: TransposedVertexOracle(vertex_oracle(gen_one_line(3, 4, 1))).query((0, 1, 9)),
        lambda: TransposedVertexOracle(vertex_oracle(gen_one_line(3, 4, 1))).query((0,)),
        lambda: _BlockEdgeView(edge_oracle(gen_one_line(4, 4, 2)), (0, 2), (0, 2)).query_edge(
            (0, 0, 7), (0, 1)),
    ], ids=["padded-line", "padded-edge", "adversary-3", "adversary-1", "induced-3",
            "induced-1", "transposed-3", "transposed-1", "block-edge-3"])
    def test_wrong_arity_is_a_grid_error(self, query):
        with pytest.raises(GridError, match="out of bounds"):
            query()


class TestAdversary:
    def test_1x1_single_forced_query(self):
        adv = AdversaryVertexOracle((1, 1))
        answer = adv.query((0, 0))
        assert answer.outgoing == frozenset()
        assert adv.counter.vertex_queries == 1

    def test_2x2_any_strategy_needs_three(self):
        # all 4 first-query choices, then optimal play: 3 distinct queries
        for first in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            adv = AdversaryVertexOracle((2, 2))
            a1 = adv.query(first)
            assert a1.outgoing  # never a sink on the first query
            # the other row is now the survivor; query both of its vertices
            other = 1 - first[0]
            a2 = adv.query((other, 0))
            a3 = adv.query((other, 1))
            assert (a2.outgoing == frozenset()) != (a3.outgoing == frozenset())
            assert adv.counter.vertex_queries == 3

    def test_frozen_row_revisits_give_nothing_new(self):
        adv = AdversaryVertexOracle((3, 3))
        adv.query((0, 1))
        again = adv.query((0, 2))  # same frozen row, different vertex
        assert (0, 1) in again.outgoing  # row sink is at column 1
        assert adv.counter.vertex_queries == 2
        # elimination from this answer stays inside the already-dead row
        rows = {w[0] for w in again.incoming if w[1] == 2}
        assert rows == set()

    @pytest.mark.parametrize("m,n", [(1, 5), (5, 1), (2, 2), (3, 4), (4, 3), (6, 6)])
    def test_materialize_validates_and_replays(self, m, n):
        adv = AdversaryVertexOracle((m, n))
        sink, counter = rectangular_solve(adv, m, n)
        assert counter.vertex_queries == m + n - 1
        grid = adv.materialize()
        assert validate_uso(grid) is None
        assert brute_force_sink(grid) == sink
        assert replay_transcript(adv.transcript, vertex_oracle(grid))

    def test_materialize_before_resolution_fails(self):
        adv = AdversaryVertexOracle((2, 2))
        adv.query((0, 0))
        with pytest.raises(AdversaryError):
            adv.materialize()

    def test_walk_strategy_also_replays(self):
        adv = AdversaryVertexOracle((4, 5))
        sink, counter = walk_solve(adv)
        assert counter.vertex_queries == 4 + 5 - 1
        grid = adv.materialize()
        assert validate_uso(grid) is None
        assert replay_transcript(adv.transcript, vertex_oracle(grid))

    def test_interactions_frozen(self):
        # sha256 of the transcripts, counters, sinks and materialized line
        # masks of rect, diagonal (square shapes) and walk games and of one
        # seeded random full query order, frozen before the adversary kept
        # its strategy as a value matrix.
        def game(shape, play):
            adv = AdversaryVertexOracle(shape)
            play(adv)
            return ([f"{shape} {adv.sink} {adv.counter.as_dict()}"]
                    + [f"{v} {a.lines_in} {a.lines_out}" for _, v, a in adv.transcript]
                    + [str(adv.materialize().lines)])

        text = []
        for shape in [(1, 1), (1, 5), (5, 1), (3, 4), (4, 3), (6, 6), (7, 9)]:
            text += game(shape, lambda adv: rectangular_solve(adv, *shape))
            if shape[0] == shape[1]:
                text += game(shape, lambda adv: diagonal_solve(adv, shape[0]))
            text += game(shape, walk_solve)
        order = [(i, j) for i in range(5) for j in range(5)]
        random.Random(15).shuffle(order)
        text += game((5, 5), lambda adv: [adv.query(v) for v in order])
        assert hashlib.sha256("\n".join(text).encode()).hexdigest() == (
            "829269c193340976994539c82d9b283483e05cba9e1e11e556d5d8642f1aea0e")


def _edge_count(m, n):
    return m * n * (n - 1) // 2 + n * m * (m - 1) // 2


def _brute_sub_solver(view):
    """Independent block solver for tests: query every block edge."""
    m, n = view.shape.rows, view.shape.cols
    outdeg = {}
    for i in range(m):
        for j in range(n):
            outdeg[(i, j)] = 0
    for i in range(m):
        for j1 in range(n):
            for j2 in range(j1 + 1, n):
                head = view.query_edge((i, j1), (i, j2))
                outdeg[(i, j2 if head == (i, j1) else j1)] += 1
    for j in range(n):
        for i1 in range(m):
            for i2 in range(i1 + 1, m):
                head = view.query_edge((i1, j), (i2, j))
                outdeg[(i2 if head == (i1, j) else i1, j)] += 1
    (sink,) = [v for v, d in outdeg.items() if d == 0]
    return sink


class TestPartitionPair:
    def test_near_equal(self):
        parts = PartitionPair.near_equal(7, 5, 3, 2)
        assert parts.row_blocks == ((0, 3), (3, 5), (5, 7))
        assert parts.col_blocks == ((0, 3), (3, 5))

    def test_rejects_gaps(self):
        with pytest.raises(GridError):
            PartitionPair(((0, 1), (2, 3)), ((0, 1),))
        with pytest.raises(GridError):
            PartitionPair(((1, 2),), ((0, 1),))

    @pytest.mark.parametrize("size", range(1, 7))
    def test_contiguous_partitions_are_every_cut(self, size):
        # The reference enumerator that the block-grid sweeps iterate: all
        # C(size - 1, k - 1) cuts into k blocks, and none outside [1, size].
        for k in range(-1, size + 3):
            parts = list(contiguous_partitions(size, k))
            if not 1 <= k <= size:
                assert parts == []
                continue
            assert len(set(parts)) == len(parts) == math.comb(size - 1, k - 1)
            for blocks in parts:
                assert len(blocks) == k and blocks[-1][1] == size
                assert PartitionPair(blocks, blocks).covers == (size, size)


class TestInducedOracle:
    def test_singleton_partition_mirrors_base_grid(self):
        vm = gen_one_line(3, 3, 7)
        g = OrientedGrid.from_values(vm)
        base = edge_oracle(vm)
        parts = PartitionPair.near_equal(3, 3, 3, 3)
        ind = InducedVertexOracle(base, parts, _brute_sub_solver)
        ov = vertex_oracle(g)
        for v in g.shape.vertices():
            before = base.counter.edge_queries
            answer = ind.query(v)
            assert answer == ov.query(v)
            # block sink is the vertex itself: cost is its incident edges
            assert base.counter.edge_queries - before <= 1 + 2 + 2

    def test_whole_grid_block_finds_global_sink(self):
        vm = gen_one_line(4, 4, 3)
        base = edge_oracle(vm)
        parts = PartitionPair.near_equal(4, 4, 1, 1)
        ind = InducedVertexOracle(base, parts, _brute_sub_solver)
        answer = ind.query((0, 0))
        assert answer.outgoing == frozenset()
        assert ind.block_sink((0, 0)) == vm.argmin_vertex()

    def test_query_cost_bound(self):
        # one block-vertex query on an n x n grid split k x k costs at most
        # (all block edges) + 2n - 2 base edge queries
        n, k = 8, 4
        vm = gen_one_line(n, n, 13)
        base = edge_oracle(vm, record=False)
        parts = PartitionPair.near_equal(n, n, k, k)
        ind = InducedVertexOracle(base, parts, _brute_sub_solver)
        for x in range(k):
            for y in range(k):
                before = base.counter.edge_queries
                ind.query((x, y))
                cost = base.counter.edge_queries - before
                assert cost <= _edge_count(n // k, n // k) + 2 * n - 2

    def test_block_relation_is_a_tournament(self):
        # antisymmetric and total on every block row/column
        for seed in range(5):
            vm = gen_one_line(4, 5, seed)
            g = OrientedGrid.from_values(vm)
            parts = PartitionPair.near_equal(4, 5, 2, 3)
            sinks = {}
            for x, (r0, r1) in enumerate(parts.row_blocks):
                for y, (c0, c1) in enumerate(parts.col_blocks):
                    sinks[(x, y)] = brute_force_sink(
                        g.restrict(range(r0, r1), range(c0, c1))
                    )
                    sinks[(x, y)] = (sinks[(x, y)][0] + r0, sinks[(x, y)][1] + c0)

            def points(x1y1, x2y2):
                u = sinks[x1y1]
                (e0, e1) = parts.row_blocks[x2y2[0]]
                (d0, d1) = parts.col_blocks[x2y2[1]]
                return any(
                    w in out_neighbors(g, u)
                    for w in itertools.product(range(e0, e1), range(d0, d1))
                    if w[0] == u[0] or w[1] == u[1]
                )

            for a in sinks:
                for b in sinks:
                    if a == b or (a[0] != b[0] and a[1] != b[1]):
                        continue
                    assert points(a, b) != points(b, a)

    def test_induced_answers_match_materialized_block_grid(self):
        # build the block grid explicitly from block sinks, then compare
        # oracle answers against it
        vm = gen_one_line(5, 4, 21)
        g = OrientedGrid.from_values(vm)
        parts = PartitionPair.near_equal(5, 4, 2, 2)
        base = edge_oracle(vm)
        ind = InducedVertexOracle(base, parts, _brute_sub_solver)
        edges = []
        for x, (r0, r1) in enumerate(parts.row_blocks):
            for y, (c0, c1) in enumerate(parts.col_blocks):
                local = brute_force_sink(g.restrict(range(r0, r1), range(c0, c1)))
                u = (local[0] + r0, local[1] + c0)
                for y2, (d0, d1) in enumerate(parts.col_blocks):
                    if y2 <= y:
                        continue
                    outgoing = any(
                        (u[0], c) in out_neighbors(g, u) for c in range(d0, d1)
                    )
                    edges.append(((x, y), (x, y2)) if outgoing else ((x, y2), (x, y)))
                for x2, (e0, e1) in enumerate(parts.row_blocks):
                    if x2 <= x:
                        continue
                    outgoing = any(
                        (r, u[1]) in out_neighbors(g, u) for r in range(e0, e1)
                    )
                    edges.append(((x, y), (x2, y)) if outgoing else ((x2, y), (x, y)))
        h = OrientedGrid(GridShape(2, 2), edges)
        assert validate_uso(h) is None
        hv = vertex_oracle(h)
        for block in h.shape.vertices():
            assert ind.query(block) == hv.query(block)

    def test_bad_sub_solver_detected(self):
        vm = gen_one_line(4, 4, 2)
        base = edge_oracle(vm)
        parts = PartitionPair.near_equal(4, 4, 2, 2)

        def liar(view):
            sink = _brute_sub_solver(view)
            return ((sink[0] + 1) % view.shape.rows, sink[1])

        ind = InducedVertexOracle(base, parts, liar)
        with pytest.raises(SubSolverError):
            ind.query((0, 0))

    def test_sub_solver_answer_outside_its_block(self):
        base = edge_oracle(gen_one_line(4, 4, 2))
        ind = InducedVertexOracle(base, PartitionPair.near_equal(4, 4, 2, 2),
                                  lambda view: (view.shape.rows, 0))
        with pytest.raises(SubSolverError, match="outside block"):
            ind.query((0, 1))

    def test_partition_must_cover_the_base(self):
        base = edge_oracle(gen_one_line(4, 4, 2))
        with pytest.raises(GridError, match="partition covers"):
            InducedVertexOracle(base, PartitionPair.near_equal(3, 4, 2, 2), _brute_sub_solver)


class TestPadOracle:
    def test_square_base_passthrough(self):
        vm = gen_one_line(3, 3, 1)
        base = edge_oracle(vm)
        padded = PaddedEdgeOracle(base, 3)
        assert padded.query_edge((0, 1), (2, 1)) == base.query_edge((0, 1), (2, 1))
        assert base.counter.edge_queries == 1

    def test_synthetic_edges_cost_nothing(self):
        vm = gen_one_line(2, 4, 5)
        base = edge_oracle(vm)
        padded = PaddedEdgeOracle(base, 4)
        assert padded.query_edge((0, 0), (3, 0)) == (0, 0)  # toward the real vertex
        assert padded.query_edge((2, 1), (3, 1)) == (2, 1)  # lower padding key
        assert base.counter.edge_queries == 0

    def test_matches_padded_value_matrix(self):
        for m, n, seed in [(3, 5, 0), (5, 2, 4), (1, 3, 8)]:
            vm = gen_one_line(m, n, seed)
            gp = OrientedGrid.from_values(pad_values_to_square(vm))
            padded = PaddedEdgeOracle(edge_oracle(vm), max(m, n))
            for a, b in kernels.edge_list(gp.dims, kernels.PLANAR_AXES):
                assert padded.query_edge(a, b) == (b if gp.points_to(a, b) else a)

    def test_solving_padded_grid_gives_base_sink(self):
        for seed in range(25):
            vm = gen_one_line(3, 7, seed)
            base = edge_oracle(vm, record=False)
            sink, _ = dc_edge_solve(base, 3, 7)
            assert sink == vm.argmin_vertex()

    def test_side_too_small(self):
        with pytest.raises(GridError):
            PaddedEdgeOracle(edge_oracle(gen_one_line(2, 4, 0)), 3)

    def test_non_edges_refused(self):
        base = edge_oracle(gen_one_line(2, 4, 0))
        padded = PaddedEdgeOracle(base, 4)
        for u, w in [((0, 0), (1, 1)), ((1, 2), (1, 2)), ((3, 0), (2, 3))]:
            with pytest.raises(GridError, match="not a grid edge"):
                padded.query_edge(u, w)
        assert base.counter.edge_queries == 0


def _line_by_edges(handle, u, axis, lo, hi):
    """u's out mask over [lo, hi) along ``axis``, one edge query at a time."""
    mask = 0
    for c in range(lo, hi):
        w = (c, u[1]) if axis == 0 else (u[0], c)
        if c != u[axis] and handle.query_edge(u, w) == w:
            mask |= 1 << c
    return mask


@functools.cache
def _line_sources():
    """One-line value matrices and explicit orientations up to 4x4: USOs
    (value-derived, and enumerated words up to 3x3) and random words, most
    of them not USOs."""
    rng = random.Random(17)
    sources = []
    for m, n in itertools.product(range(1, 5), repeat=2):
        sources += [gen_one_line(m, n, 3 * m + n),
                    OrientedGrid.from_values(gen_one_line(m, n, m + 5 * n))]
        if m * n <= 9:
            sources += [OrientedGrid.from_edge_word(m, n, word)
                        for word in kernels.enumerate_uso_words(m, n)[::409]]
        sources += [OrientedGrid.from_edge_word(m, n, rng.getrandbits(kernels.edge_count(m, n)))
                    for _ in range(3)]
    return tuple(sources)


#: Each kind of edge handle, built over a given base edge oracle: the base
#: itself, block views (one over another) and square paddings.
_LINE_HANDLES = {
    "edge": lambda base: base,
    "block": lambda base: _BlockEdgeView(base, (base.shape.rows // 2, base.shape.rows),
                                         (0, (base.shape.cols + 1) // 2)),
    "block-of-block": lambda base: _BlockEdgeView(
        _BlockEdgeView(base, (0, base.shape.rows), (base.shape.cols // 3, base.shape.cols)),
        (base.shape.rows // 3, base.shape.rows), (0, base.shape.cols - base.shape.cols // 3)),
    "padded": lambda base: PaddedEdgeOracle(base, max(base.shape.rows, base.shape.cols) + 1),
    "padded-block": lambda base: PaddedEdgeOracle(
        _BlockEdgeView(base, (0, base.shape.rows), (base.shape.cols // 2, base.shape.cols)),
        base.shape.rows + 1),
}


def _lines(shape):
    """Every vertex, axis and range [lo, hi), empty ranges included."""
    for u in shape.vertices():
        for axis, size in enumerate((shape.rows, shape.cols)):
            for lo in range(size + 1):
                for hi in range(lo, size + 1):
                    yield u, axis, lo, hi


class TestLineQueries:
    """query_line(u, axis, lo, hi) answers as the edge queries of that range
    would, and counts and records only the edges not yet known."""

    @pytest.mark.parametrize("kind", sorted(_LINE_HANDLES))
    def test_line_masks_match_edge_queries(self, kind):
        make = _LINE_HANDLES[kind]
        for source in _line_sources():
            line_base, edge_base = edge_oracle(source), edge_oracle(source)
            by_line, by_edge = make(line_base), make(edge_base)
            for u, axis, lo, hi in _lines(by_line.shape):
                mask = by_line.query_line(u, axis, lo, hi)
                assert mask == _line_by_edges(by_edge, u, axis, lo, hi)
                assert mask & ~(((1 << hi) - 1) >> lo << lo) == 0
                assert line_base.counter == edge_base.counter
            # Equal counts after every query and equal final transcripts: each
            # query recorded the same edges in the same order.
            assert line_base.transcript == edge_base.transcript

    @pytest.mark.parametrize("kind", sorted(_LINE_HANDLES))
    def test_mixed_with_edge_queries(self, kind):
        # Random line and edge queries in any order: the line handle counts and
        # records exactly what the same queries made edge by edge do.
        make = _LINE_HANDLES[kind]
        rng = random.Random(kind)
        for m, n in [(4, 4), (3, 4), (4, 2), (1, 4)]:
            for source in (gen_one_line(m, n, m * n), OrientedGrid.from_edge_word(
                    m, n, rng.getrandbits(kernels.edge_count(m, n)))):
                line_base, edge_base = edge_oracle(source), edge_oracle(source)
                by_line, by_edge = make(line_base), make(edge_base)
                lines = list(_lines(by_line.shape))
                for _ in range(60):
                    u, axis, lo, hi = rng.choice(lines)
                    if rng.random() < 0.5:
                        mask = by_line.query_line(u, axis, lo, hi)
                        assert mask == _line_by_edges(by_edge, u, axis, lo, hi)
                    elif hi - lo > 1 or (hi - lo == 1 and lo != u[axis]):
                        c = rng.choice([c for c in range(lo, hi) if c != u[axis]])
                        w = (c, u[1]) if axis == 0 else (u[0], c)
                        pair = (u, w) if rng.random() < 0.5 else (w, u)
                        assert by_line.query_edge(*pair) == by_edge.query_edge(*pair)
                    assert line_base.counter == edge_base.counter
                    assert line_base.transcript == edge_base.transcript

    def test_known_edges_are_not_recounted(self):
        vm = gen_one_line(3, 5, 4)
        o = edge_oracle(vm)
        o.query_edge((1, 4), (1, 0))
        o.query_edge((2, 3), (1, 3))  # another line: not on the row scanned
        assert o.query_line((1, 3), 1, 0, 5) == _line_by_edges(edge_oracle(vm), (1, 3), 1, 0, 5)
        assert o.counter.edge_queries == 2 + 4
        o.query_edge((1, 1), (1, 3))  # known from the line: not counted
        o.query_line((1, 0), 1, 0, 5)  # (1,0)-(1,3) and (1,0)-(1,4) are known
        assert o.counter.edge_queries == 6 + 2
        o.query_line((1, 0), 1, 0, 5)
        assert o.counter.edge_queries == 8
        keys = [key for _, key, _ in o.transcript]
        assert keys == [((1, 0), (1, 4)), ((1, 3), (2, 3)),
                        ((1, 0), (1, 3)), ((1, 1), (1, 3)), ((1, 2), (1, 3)),
                        ((1, 3), (1, 4)), ((1, 0), (1, 1)), ((1, 0), (1, 2))]

    def test_synthetic_lines_are_free(self):
        base = edge_oracle(gen_one_line(2, 3, 6))
        padded = PaddedEdgeOracle(base, 5)
        assert padded.query_line((3, 1), 0, 0, 5) == 0b00111  # real rows, then lower keys
        assert padded.query_line((0, 4), 1, 1, 5) == 0b01110
        assert padded.query_line((1, 2), 1, 3, 5) == 0  # toward the real endpoint
        assert padded.query_line((1, 2), 0, 2, 5) == 0
        assert base.counter.edge_queries == 0 and base.transcript == []

    @pytest.mark.parametrize("kind", sorted(_LINE_HANDLES))
    def test_bad_lines_raise_and_count_nothing(self, kind):
        for source in (gen_one_line(3, 4, 2), OrientedGrid.from_values(gen_one_line(4, 3, 2))):
            base = edge_oracle(source)
            handle = _LINE_HANDLES[kind](base)
            m, n = handle.shape.rows, handle.shape.cols
            bad = [((0, 0), -1, 0, 1), ((0, 0), 2, 0, 1),
                   ((0, 0), 0, -1, m), ((0, 0), 0, 0, m + 1), ((0, 0), 1, 2, 1),
                   ((0, 0), 1, 0, n + 1), ((0, 0), 1, n + 1, n + 1),
                   ((m, 0), 0, 0, m), ((0, n), 1, 0, n), ((-1, 0), 0, 0, m),
                   ((0, -1), 1, 0, n)]
            for args in bad:
                with pytest.raises(GridError):
                    handle.query_line(*args)
            assert base.counter.edge_queries == 0 and base.transcript == []


class TestInheritedOracle:
    def test_two_dims_one_real_query_per_block(self):
        g = gen_separable_ddim((3, 4), 6)
        base = vertex_oracle(g)

        def zero_dim_solver(view):
            view.query(())
            return ()

        inh = InheritedVertexOracle(base, zero_dim_solver)
        before = base.counter.vertex_queries
        answer = inh.query((1, 2))
        assert base.counter.vertex_queries - before == 1
        direct = base.query((1, 2))
        assert answer.incoming == direct.incoming
        assert answer.outgoing == direct.outgoing

    def test_three_dims_block_cost_at_most_line_length(self):
        dims = (2, 3, 4)
        g = gen_separable_ddim(dims, 9)
        base = vertex_oracle(g)

        def line_walk(view):
            v = (0,)
            while True:
                answer = view.query(v)
                if not answer.outgoing:
                    return v
                v = min(answer.outgoing)

        inh = InheritedVertexOracle(base, line_walk)
        for x in range(dims[0]):
            for y in range(dims[1]):
                before = base.counter.vertex_queries
                inh.query((x, y))
                assert base.counter.vertex_queries - before <= dims[2]

    def test_block_sink_is_global_sink_of_sink_block(self):
        dims = (2, 2, 3)
        g = gen_separable_ddim(dims, 4)
        base = vertex_oracle(g)

        def line_walk(view):
            v = (0,)
            while True:
                answer = view.query(v)
                if not answer.outgoing:
                    return v
                v = min(answer.outgoing)

        inh = InheritedVertexOracle(base, line_walk)
        gsink = brute_force_sink(g)
        answer = inh.query((gsink[0], gsink[1]))
        assert answer.outgoing == frozenset()
        assert inh.block_sink((gsink[0], gsink[1])) == gsink

    def test_sub_solver_non_sink_detected(self):
        g = gen_separable_ddim((2, 2, 3), 4)

        def beside_the_sink(view):
            answers = [view.query((c,)) for c in range(3)]
            sink = next(c for c, answer in enumerate(answers) if answer.is_sink)
            return ((sink + 1) % 3,)

        inh = InheritedVertexOracle(vertex_oracle(g), beside_the_sink)
        with pytest.raises(SubSolverError, match="outgoing edge inside block"):
            inh.query((1, 0))

    def test_needs_two_axes(self):
        base = vertex_oracle(gen_separable_ddim((3,), 0))
        with pytest.raises(GridError):
            InheritedVertexOracle(base, lambda view: ())


def test_lemma3_style_sweep_materialized_block_grids():
    # For sampled USOs and every 2-3 block contiguous partition pair, the
    # explicit block grid passes validation and its sink block holds the sink.
    shapes = [(2, 2), (2, 3), (3, 3), (4, 3), (4, 4)]
    for m, n in shapes:
        for seed in range(3):
            vm = gen_one_line(m, n, seed)
            g = OrientedGrid.from_values(vm)
            gsink = brute_force_sink(g)
            for k in (2, 3):
                for l in (2, 3):
                    if k > m or l > n:
                        continue
                    for rblocks in contiguous_partitions(m, k):
                        for cblocks in contiguous_partitions(n, l):
                            parts = PartitionPair(rblocks, cblocks)
                            base = edge_oracle(vm, record=False)
                            ind = InducedVertexOracle(base, parts, _brute_sub_solver)
                            edges = []
                            for x in range(k):
                                for y in range(l):
                                    a = ind.query((x, y))
                                    for w in a.outgoing:
                                        edges.append(((x, y), w))
                            h = OrientedGrid(GridShape(k, l), edges)
                            assert validate_uso(h) is None
                            hsink = brute_force_sink(h)
                            r0, r1 = rblocks[hsink[0]]
                            c0, c1 = cblocks[hsink[1]]
                            assert r0 <= gsink[0] < r1 and c0 <= gsink[1] < c1


def _neighbour_sets(g, v):
    """(incoming, outgoing) of ``v`` read from an explicit 2-D or d-dim grid."""
    return in_neighbors(g, v), out_neighbors(g, v)


def _swapped_sets(g, v):
    """The neighbour sets of ``v`` in the transpose of the 2-D grid ``g``:
    every coordinate pair swapped."""
    return tuple(frozenset((w[1], w[0]) for w in ws) for ws in _neighbour_sets(g, v))


def _check_answer(answer, incoming, outgoing):
    """The mask answer derives the given sets, and the answer built from
    those sets compares and hashes equal to it."""
    from_sets = VertexAnswer(answer.vertex, incoming, outgoing)
    assert from_sets == answer and hash(from_sets) == hash(answer)
    assert answer.incoming == incoming and answer.outgoing == outgoing
    assert answer.is_sink == (not outgoing)


class TestLineMaskAnswers:
    """Every backend and view answers in line masks that derive exactly the
    explicit grid's neighbour sets, on USOs and non-USOs alike."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**64))
    def test_explicit_and_transposed(self, m, n, raw):
        g = OrientedGrid.from_edge_word(m, n, raw % (1 << kernels.edge_count(m, n)))
        explicit = SourceVertexOracle(g)
        transposed = TransposedVertexOracle(SourceVertexOracle(g))
        for i, j in g.shape.vertices():
            _check_answer(explicit.query((i, j)), *_neighbour_sets(g, (i, j)))
            _check_answer(transposed.query((j, i)), *_swapped_sets(g, (i, j)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10**6))
    def test_values_and_transposed(self, m, n, seed):
        vm = gen_one_line(m, n, seed)
        g = OrientedGrid.from_values(vm)
        values = SourceVertexOracle(vm)
        transposed = TransposedVertexOracle(SourceVertexOracle(vm))
        for i, j in g.shape.vertices():
            _check_answer(values.query((i, j)), *_neighbour_sets(g, (i, j)))
            _check_answer(transposed.query((j, i)), *_swapped_sets(g, (i, j)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 2**64),
           st.integers(0, 10**6))
    def test_ddim_and_fixed_axes(self, dims, raw, seed):
        dims = tuple(dims)
        g = DOrientedGrid.from_edge_word(dims, raw % (1 << kernels.edge_count(*dims)))
        base = SourceVertexOracle(g)
        rng = random.Random(seed)
        for v in g.vertices():
            _check_answer(base.query(v), *_neighbour_sets(g, v))
            k = rng.randrange(len(dims) + 1)
            view = _FixedAxesView(base, v[:k])
            incoming, outgoing = _neighbour_sets(g, v)

            def inside(ws):
                return frozenset(w[k:] for w in ws if w[:k] == v[:k])

            _check_answer(view.query(v[k:]), inside(incoming), inside(outgoing))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=2, max_size=4), st.integers(0, 10**6))
    def test_inherited(self, dims, seed):
        dims = tuple(dims)
        g = gen_separable_ddim(dims, seed)

        def sink_by_scan(view):
            return next(v for v in itertools.product(*map(range, view.dims))
                        if view.query(v).is_sink)

        inh = InheritedVertexOracle(vertex_oracle(g), sink_by_scan)
        for x in range(dims[0]):
            for y in range(dims[1]):
                answer = inh.query((x, y))
                sink = inh.block_sink((x, y))
                incoming, outgoing = _neighbour_sets(g, sink)

                def blocks(ws):
                    return frozenset((w[0], y) if w[0] != sink[0] else (x, w[1])
                                     for w in ws if w[:2] != sink[:2])

                _check_answer(answer, blocks(incoming), blocks(outgoing))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
    def test_adversary(self, m, n, rng):
        oracle = AdversaryVertexOracle((m, n))
        vertices = [(i, j) for i in range(m) for j in range(n)]
        rng.shuffle(vertices)
        answers = [oracle.query(v) for v in vertices]
        g = oracle.materialize()
        for answer in answers:
            _check_answer(answer, *_neighbour_sets(g, answer.vertex))

    def test_set_built_answer_rejects_non_neighbours(self):
        with pytest.raises(GridError):
            VertexAnswer((0, 0), {(1, 1)}, set())


def _planar_words():
    """Every orientation of the shapes up to 2x3 and 3x2, and at 3x3 a
    stride through the USOs plus random words (mostly non-USOs)."""
    rng = random.Random(6)
    for m, n in itertools.product(range(1, 4), repeat=2):
        edges = kernels.edge_count(m, n)
        if edges <= 9:
            words = range(1 << edges)
        else:
            words = kernels.enumerate_uso_words(m, n)[::97] + [
                rng.getrandbits(edges) for _ in range(100)]
        for word in words:
            yield OrientedGrid.from_edge_word(m, n, word)


def _ddim_grids():
    """Up to 3 axes of size at most 3, a few random orientations each."""
    rng = random.Random(7)
    for d in (1, 2, 3):
        for dims in itertools.product(range(1, 4), repeat=d):
            for _ in range(4):
                word = rng.getrandbits(kernels.edge_count(*dims))
                yield DOrientedGrid.from_edge_word(dims, word)


def _value_sources():
    return [gen_one_line(m, n, seed)
            for m in range(1, 7) for n in range(1, 7) for seed in (0, 1)]


def _bad_vertices(dims):
    """Out of bounds on each side of every axis, and wrong arity."""
    zero = (0,) * len(dims)
    bad = [zero[:-1], zero + (0,)]
    for a, size in enumerate(dims):
        bad += [zero[:a] + (size,) + zero[a + 1:], zero[:a] + (-1,) + zero[a + 1:]]
    return bad


class TestSourceProtocol:
    """Value matrices and explicit grids of any dimension answer both query
    kinds for themselves, through the one vertex handle and the one edge
    handle."""

    @staticmethod
    def _check_vertex_answers(source, grid):
        o = vertex_oracle(source, record=False)
        for v in grid.vertices():
            answer = o.query(v)
            assert answer.outgoing == out_neighbors(grid, v)
            assert answer.incoming == in_neighbors(grid, v)
            assert answer.is_sink == grid.is_sink(v)
        assert o.counter.vertex_queries == grid.vertex_count

    @staticmethod
    def _check_edge_answers(source, grid):
        ov, oe = vertex_oracle(source, record=False), edge_oracle(source, record=False)
        for a, b in kernels.edge_list(grid.dims, (1, 0)):
            head = oe.query_edge(a, b)
            assert head == (b if b in ov.query(a).outgoing else a)
            assert head == (a if a in ov.query(b).outgoing else b)
            assert oe.query_edge(b, a) == head
        assert oe.counter.edge_queries == kernels.edge_count(*grid.dims)

    def test_explicit_grids(self):
        for g in _planar_words():
            self._check_vertex_answers(g, g)
            self._check_edge_answers(g, g)

    def test_ddim_grids(self):
        for g in _ddim_grids():
            self._check_vertex_answers(g, g)
            if len(g.dims) == 2:
                self._check_edge_answers(g, g)

    def test_value_matrices_answer_like_their_grid(self):
        for vm in _value_sources():
            g = OrientedGrid.from_values(vm)
            self._check_vertex_answers(vm, g)
            self._check_edge_answers(vm, g)
            ov, og = vertex_oracle(vm), vertex_oracle(g)
            for v in g.vertices():
                assert ov.query(v) == og.query(v)
            assert ov.transcript == og.transcript

    def test_answers_frozen(self):
        # sha256 of every vertex answer's masks, and of a seeded mix of edge
        # and line queries (empty, one-wide, partial and full ranges) with
        # their masks, transcript and counter, over one-line value matrices
        # and their explicit grids; frozen while each source still answered
        # line queries itself.
        rng = random.Random(16)
        text = []
        for m, n in [(1, 1), (1, 5), (5, 1), (4, 3), (7, 9), (16, 16)]:
            vm = gen_one_line(m, n, m + 3 * n)
            for source in (vm, OrientedGrid.from_values(vm)):
                ov = vertex_oracle(source, record=False)
                for v in itertools.product(range(m), range(n)):
                    answer = ov.query(v)
                    text.append(f"{v} {answer.lines_in} {answer.lines_out}")
                oe = edge_oracle(source)
                for _ in range(3 * m * n):
                    u = (rng.randrange(m), rng.randrange(n))
                    axis = rng.randrange(2)
                    size = (m, n)[axis]
                    kind = rng.randrange(5)
                    if kind == 0:
                        c = rng.randrange(size)
                        w = (c, u[1]) if axis == 0 else (u[0], c)
                        if w != u:
                            text.append(f"{u} {w} {oe.query_edge(u, w)}")
                        continue
                    if kind == 1:
                        lo = hi = rng.randrange(size + 1)
                    elif kind == 2:
                        lo = rng.randrange(size)
                        hi = lo + 1
                    elif kind == 3:
                        lo, hi = sorted(rng.sample(range(size + 1), 2))
                    else:
                        lo, hi = 0, size
                    text.append(f"{u} {axis} {lo} {hi} {oe.query_line(u, axis, lo, hi)}")
                text += [str(oe.transcript), str(oe.counter.as_dict())]
        assert hashlib.sha256("\n".join(text).encode()).hexdigest() == (
            "8d8377a77fedf548cb40dad8bded9d41dbb7db1d4ffb1556c2ff96365c218d9f")

    def test_bad_queries_raise_grid_error(self):
        vm = gen_one_line(3, 4, 2)
        sources = [vm, OrientedGrid.from_values(vm), DOrientedGrid.from_values(vm.values),
                   gen_separable_ddim((2, 3, 2), 1)]
        for source in sources:
            o = vertex_oracle(source)
            for v in _bad_vertices(source.dims):
                with pytest.raises(GridError):
                    o.query(v)
            assert o.counter.vertex_queries == 0 and o.transcript == []
        for source in sources[:2]:
            o = edge_oracle(source)
            for a, b in [((0, 0), (1, 1)), ((0, 0), (0, 0)), ((0, 0), (3, 0)),
                         ((0, 4), (0, 0)), ((0, -1), (0, 0)), ((0, 0, 0), (0, 0, 1)),
                         ((0,), (1,))]:
                with pytest.raises(GridError):
                    o.query_edge(a, b)
            assert o.counter.edge_queries == 0 and o.transcript == []

    def test_other_types_are_refused(self):
        for bad in (object(), [[1.0, 2.0]], gen_one_line(2, 2, 0).values):
            with pytest.raises(TypeError):
                vertex_oracle(bad)
            with pytest.raises(TypeError):
                edge_oracle(bad)
        with pytest.raises(GridError, match="two axes"):
            edge_oracle(gen_separable_ddim((2, 2, 2), 0))
