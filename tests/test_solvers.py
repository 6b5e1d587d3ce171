"""Elimination bookkeeping, the solvers, and their query bounds."""

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from usogrid import (
    GridError,
    AdversaryVertexOracle,
    NotUsoError,
    ValueMatrix,
    brute_force_sink,
    edge_oracle,
    enumerate_usos,
    gen_one_line,
    gen_separable_ddim,
    kernels,
    oracles,
    vertex_oracle,
)
from usogrid.dgrid import DOrientedGrid
from usogrid.grid import OrientedGrid
from usogrid.oracles import TransposedVertexOracle
from usogrid.solvers import (
    DEFAULT_SCHEDULE,
    EliminationState,
    KSchedule,
    dc_edge_bound,
    dc_edge_solve,
    ddim_bound,
    ddim_solve,
    diagonal_bound,
    diagonal_solve,
    eliminated_lines,
    k_schedule,
    note_query,
    random_edge_solve,
    rectangular_bound,
    rectangular_solve,
    walk_solve,
)

from reference import out_neighbors


def grid_2134():
    return OrientedGrid.from_values(ValueMatrix([[2, 1], [3, 4]]))


class TestNoteQuery:
    def test_incoming_column_edge_extends_rows(self):
        state = EliminationState(2, 2)
        o = vertex_oracle(grid_2134())
        note_query(state, o.query((0, 0)))
        assert state.elim == [0b01, 0b01]  # rows {0, 1} x column {0}
        assert state.is_eliminated((0, 0)) and state.is_eliminated((1, 0))
        assert not state.is_eliminated((0, 1))

    def test_no_incoming_eliminates_only_itself(self):
        state = EliminationState(2, 2)
        o = vertex_oracle(grid_2134())
        note_query(state, o.query((1, 1)))
        assert state.elim == [0b00, 0b10]  # row {1} x column {1}
        assert state.is_eliminated((1, 1)) and not state.is_eliminated((1, 0))

    def test_sink_answer_sets_sink_and_eliminates_nothing(self):
        state = EliminationState(2, 2)
        o = vertex_oracle(grid_2134())
        note_query(state, o.query((0, 1)))
        assert state.sink == (0, 1)
        assert not any(state.is_eliminated(v) for v in [(0, 0), (1, 0), (1, 1)])

    def test_rejects_inactive_vertex(self):
        state = EliminationState(2, 2)
        state.deactivate(row=0)
        o = vertex_oracle(grid_2134())
        with pytest.raises(Exception):
            note_query(state, o.query((0, 0)))


class TestMaskOnlySolve:
    @pytest.mark.parametrize("shape", [(7, 7), (6, 11), (11, 6)])
    def test_rect_never_derives_vertex_sets(self, monkeypatch, shape):
        # Through TransposedVertexOracle both inside (m > n) and outside.
        def derive(*_):
            raise AssertionError("a solver derived the neighbour sets of an answer")

        monkeypatch.setattr(oracles, "_masks_to_vertices", derive)
        m, n = shape
        for seed in range(5):
            vm = gen_one_line(m, n, seed)
            sink, _ = rectangular_solve(vertex_oracle(vm, record=False), m, n)
            assert sink == vm.argmin_vertex()
            wrapped = TransposedVertexOracle(vertex_oracle(vm, record=False))
            sink, _ = rectangular_solve(wrapped, n, m)
            assert sink[::-1] == vm.argmin_vertex()


class TestEliminatedLines:
    def test_diagonal_of_2134(self):
        state = EliminationState(2, 2)
        o = vertex_oracle(grid_2134())
        note_query(state, o.query((0, 0)))
        note_query(state, o.query((1, 1)))
        assert eliminated_lines(state) == (1, 0)

    def test_none_when_sink_found(self):
        state = EliminationState(2, 2)
        o = vertex_oracle(grid_2134())
        note_query(state, o.query((0, 1)))
        assert eliminated_lines(state) is None

    def test_lemma_holds_on_random_square_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            vm = gen_one_line(n, n, int(rng.integers(0, 2**32)))
            perm = rng.permutation(n)
            state = EliminationState(n, n)
            o = vertex_oracle(vm, record=False)
            sink_hit = False
            for i in range(n):
                answer = o.query((i, int(perm[i])))
                if not answer.outgoing:
                    sink_hit = True
                    break
                note_query(state, answer)
            if not sink_hit:
                assert eliminated_lines(state) is not None


class TestDiagonalSolve:
    def test_1x1_takes_one_query(self):
        o = vertex_oracle(OrientedGrid.from_values(ValueMatrix([[3]])))
        sink, counter = diagonal_solve(o, 1)
        assert sink == (0, 0) and counter.vertex_queries == 1

    def test_all_2x2_usos(self):
        for g in enumerate_usos((2, 2)):
            o = vertex_oracle(g)
            sink, counter = diagonal_solve(o, 2)
            assert sink == brute_force_sink(g)
            assert counter.vertex_queries <= 3
            assert ("vertex", sink, o.query(sink)) in o.transcript

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_one_line_sizes(self, n):
        for seed in range(25):
            vm = gen_one_line(n, n, seed)
            o = vertex_oracle(vm, record=False)
            sink, counter = diagonal_solve(o, n)
            assert sink == vm.argmin_vertex()
            assert counter.vertex_queries <= diagonal_bound(n)

    def test_non_uso_oracle_detected(self, four_cycle):
        with pytest.raises(NotUsoError):
            diagonal_solve(vertex_oracle(four_cycle), 2)


class TestRectangularSolve:
    def test_row_grid_exact_at_adversary(self):
        for n in (2, 5, 9):
            adv = AdversaryVertexOracle((1, n))
            sink, counter = rectangular_solve(adv, 1, n)
            assert counter.vertex_queries == n

    def test_all_2x3_usos(self):
        for g in enumerate_usos((2, 3)):
            o = vertex_oracle(g)
            sink, counter = rectangular_solve(o, 2, 3)
            assert sink == brute_force_sink(g)
            assert counter.vertex_queries <= 4

    def test_transposed_shapes(self):
        for seed in range(20):
            vm = gen_one_line(13, 8, seed)
            o = vertex_oracle(vm, record=False)
            sink, counter = rectangular_solve(o, 13, 8)
            assert sink == vm.argmin_vertex()
            assert counter.vertex_queries <= rectangular_bound(13, 8)

    def test_8x13_random(self):
        for seed in range(50):
            vm = gen_one_line(8, 13, seed)
            o = vertex_oracle(vm, record=False)
            sink, counter = rectangular_solve(o, 8, 13)
            assert sink == vm.argmin_vertex()
            assert counter.vertex_queries <= 20

    @pytest.mark.parametrize("solve", [
        lambda o: rectangular_solve(o, 3, 3),
        lambda o: rectangular_solve(o, 4, 5),
        lambda o: diagonal_solve(o, 3),
    ], ids=["rect-3x3", "rect-4x5", "diagonal-3"])
    def test_shape_mismatch_is_a_grid_error(self, solve):
        o = vertex_oracle(gen_one_line(4, 4, 1))
        with pytest.raises(GridError, match="does not match"):
            solve(o)
        assert o.counter.vertex_queries == 0

    def test_three_axis_source_is_a_grid_error(self):
        with pytest.raises(GridError):
            rectangular_solve(vertex_oracle(gen_separable_ddim((2, 2, 2), 0)), 2, 2)

    @pytest.mark.parametrize("dims", [(4, 3), (3, 4), (5, 2)])
    def test_two_axis_dims_grid_either_way(self, dims):
        for seed in range(5):
            g = gen_separable_ddim(dims, seed)
            sink, counter = rectangular_solve(vertex_oracle(g), *dims)
            assert sink == brute_force_sink(g)
            assert counter.vertex_queries <= rectangular_bound(*dims)

    def test_sink_never_eliminated_and_monotone(self):
        # replant the engine by hand to watch the eliminated set grow
        vm = gen_one_line(6, 6, 3)
        g = OrientedGrid.from_values(vm)
        truth = brute_force_sink(g)
        state = EliminationState(6, 6)
        o = vertex_oracle(g)
        seen = 0
        for i in range(6):
            answer = o.query((i, i))
            if not answer.outgoing:
                break
            note_query(state, answer)
            now = sum(state.elim[r].bit_count() for r in range(6))
            assert now >= seen
            seen = now
            assert not state.is_eliminated(truth)


class TestAdversaryMeetsBounds:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (4, 4), (5, 7), (8, 3)])
    def test_rect_exact(self, m, n):
        adv = AdversaryVertexOracle((m, n))
        _, counter = rectangular_solve(adv, m, n)
        assert counter.vertex_queries == rectangular_bound(m, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
    def test_diagonal_exact(self, n):
        adv = AdversaryVertexOracle((n, n))
        _, counter = diagonal_solve(adv, n)
        assert counter.vertex_queries == diagonal_bound(n)

    def test_walk_and_random_edge_forced(self):
        adv = AdversaryVertexOracle((5, 4))
        _, counter = walk_solve(adv)
        assert counter.vertex_queries == 8
        adv = AdversaryVertexOracle((5, 4))
        _, counter = random_edge_solve(adv, seed=11)
        assert counter.vertex_queries >= 8


class TestKSchedule:
    def test_formula_values(self):
        assert k_schedule(2**25) == 1024
        assert k_schedule(1024) == 80
        assert k_schedule(4) == 2  # clamped to ceil(n/2)

    def test_invariant_range(self):
        for n in range(9, 200):
            k = DEFAULT_SCHEDULE.k(n)
            assert 2 <= k < n

    def test_custom_branching_clamped(self):
        sched = KSchedule(branching=lambda n: 99999)
        assert sched.k(10) == 5


class TestDcEdgeSolve:
    def test_base_case_2x2(self):
        for g in enumerate_usos((2, 2)):
            o = edge_oracle(g)
            sink, counter = dc_edge_solve(o, 2, 2)
            assert sink == brute_force_sink(g)
            assert counter.edge_queries <= 4

    def test_forced_recursion_all_3x3(self):
        sched = KSchedule(base_threshold=2)
        for g in itertools.islice(enumerate_usos((3, 3)), 0, None, 7):
            o = edge_oracle(g, record=False)
            sink, _ = dc_edge_solve(o, 3, 3, sched)
            assert sink == brute_force_sink(g)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_bound_and_sink(self, n):
        for seed in range(10):
            vm = gen_one_line(n, n, seed)
            o = edge_oracle(vm, record=False)
            sink, counter = dc_edge_solve(o, n, n)
            assert sink == vm.argmin_vertex()
            assert counter.edge_queries <= dc_edge_bound(n, n)

    def test_rectangular_instances(self):
        for m, n, seed in [(3, 17, 0), (17, 3, 1), (10, 16, 2)]:
            vm = gen_one_line(m, n, seed)
            o = edge_oracle(vm, record=False)
            sink, _ = dc_edge_solve(o, m, n)
            assert sink == vm.argmin_vertex()

    def test_non_uso_detected(self, four_cycle):
        with pytest.raises(NotUsoError):
            dc_edge_solve(edge_oracle(four_cycle), 2, 2)

    @pytest.mark.parametrize("threshold", [1, 2, 8])
    def test_line_queries_keep_counts_and_transcripts(self, threshold):
        # The same run with every line query made edge by edge: same sink,
        # count and transcript.
        sched = KSchedule(base_threshold=threshold)
        for m, n, seed in [(16, 16, 0), (27, 27, 1), (20, 9, 2), (9, 20, 3), (33, 17, 4)]:
            vm = gen_one_line(m, n, seed)
            for source in (vm, OrientedGrid.from_values(vm)):
                by_line, by_edge = edge_oracle(source), edge_oracle(source)
                sink, counter = dc_edge_solve(by_line, m, n, sched)
                assert (sink, counter) == dc_edge_solve(_LinesByEdges(by_edge), m, n, sched)
                assert sink == vm.argmin_vertex()
                assert by_line.transcript == by_edge.transcript

    def test_memory_grows_with_edges(self):
        # A 512x512 solve queries about 1.7e5 of its 1.3e8 edges.  One known
        # mask per vertex and axis stays within the bound; a cache entry per
        # known edge took about 31 MiB.
        vm = gen_one_line(512, 512, 1)
        tracemalloc.start()
        try:
            dc_edge_solve(edge_oracle(vm, record=False), 512, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class _LinesByEdges:
    """Edge handle proxy that scans each queried line one edge query at a
    time, ascending, the way dc-edge scanned lines before edge handles
    answered line queries."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.shape = oracle.shape
        self.dims = oracle.dims
        self.counter = oracle.counter

    def query_edge(self, u, w):
        return self._oracle.query_edge(u, w)

    def query_line(self, u, axis, lo, hi):
        mask = 0
        for c in range(lo, hi):
            w = (c, u[1]) if axis == 0 else (u[0], c)
            if c != u[axis] and self._oracle.query_edge(u, w) == w:
                mask |= 1 << c
        return mask


class TestDdimSolve:
    def test_line_walk_bound(self):
        g = gen_separable_ddim((5,), 2)
        o = vertex_oracle(g)
        sink, counter = ddim_solve(o, (5,))
        assert sink == brute_force_sink(g)
        assert counter.vertex_queries <= 5

    def test_two_dims_matches_rectangular(self):
        # a 2-dimensional oracle answers in (i, j) tuples, so the rectangular
        # solver runs on it directly; the recursion must behave identically
        for seed in range(10):
            g = gen_separable_ddim((3, 4), seed)
            od = vertex_oracle(g)
            sink_d, counter_d = ddim_solve(od, (3, 4))
            orect = vertex_oracle(g)
            sink_r, counter_r = rectangular_solve(orect, 3, 4)
            assert sink_d == sink_r == brute_force_sink(g)
            assert counter_d.vertex_queries == counter_r.vertex_queries
            assert [r[1] for r in od.transcript] == [r[1] for r in orect.transcript]
            assert counter_d.vertex_queries <= rectangular_bound(3, 4)

    def test_3x3x3_recurrence(self):
        for seed in range(10):
            g = gen_separable_ddim((3, 3, 3), seed)
            o = vertex_oracle(g)
            sink, counter = ddim_solve(o, (3, 3, 3))
            assert sink == brute_force_sink(g)
            assert counter.vertex_queries <= (3 + 3 - 1) * 3

    @pytest.mark.parametrize("dims,digest", [
        ((3, 3, 3), "353c349f3855c23d2e3f9efdccc5af05fde32c9f933f9634271042bb08820c4c"),
        ((2, 3, 2, 2), "43631b88d55c6873e701a75c3b3af0c8e7b2600ff9cdc6fed35d13f817759b44"),
        ((4, 1, 3), "f15c9f57cda922525418826e8d06f26b899e856f7daf563d96baaa80356c7f7a"),
        ((3, 4), "dcd202a7fdb5f568f7d1dfa0eb8bb69dec6b3c12025c0096a5a492ca6f93fbf7"),
    ], ids=["3x3x3", "2x3x2x2", "4x1x3", "3x4"])
    def test_transcripts_frozen(self, dims, digest):
        # sha256 of the sink, counts and recorded answers for seeds 0-2,
        # frozen when the inherited oracle still took any pair of axes.
        text = []
        for seed in range(3):
            o = vertex_oracle(gen_separable_ddim(dims, seed))
            sink, counter = ddim_solve(o, dims)
            text.append(f"{sink} {counter.as_dict()}")
            text += [f"{v} {a.lines_in} {a.lines_out}" for _, v, a in o.transcript]
        assert hashlib.sha256("\n".join(text).encode()).hexdigest() == digest

    @pytest.mark.parametrize("m,n", [(2, 3), (5, 7), (7, 5), (16, 16)])
    def test_adversary_forces_m_plus_n_minus_1(self, m, n):
        # Two axes: the inherited oracle over the adversary asks exactly
        # what the rectangular solver asks of it directly.
        od, orect = AdversaryVertexOracle((m, n)), AdversaryVertexOracle((m, n))
        sink, counter = ddim_solve(od, (m, n))
        assert (sink, counter) == rectangular_solve(orect, m, n)
        assert counter.vertex_queries == rectangular_bound(m, n)
        assert od.transcript == orect.transcript
        assert sink == od.sink

    @pytest.mark.parametrize("oracle", [
        lambda: AdversaryVertexOracle((2, 3)),
        lambda: TransposedVertexOracle(vertex_oracle(gen_one_line(3, 2, 0))),
    ], ids=["adversary", "transposed"])
    def test_dims_mismatch_is_a_grid_error(self, oracle):
        o = oracle()
        with pytest.raises(GridError, match="do not match"):
            ddim_solve(o, (3, 2))
        assert o.counter.vertex_queries == 0

    def test_bound_function(self):
        assert ddim_bound((5,)) == 5
        assert ddim_bound((3, 4)) == 6
        assert ddim_bound((3, 3, 3)) == 15
        assert ddim_bound((2, 2, 2, 2)) == 9


class TestBaselines:
    def test_walk_sink_at_start(self):
        vm = ValueMatrix([[1, 2], [3, 4]])
        o = vertex_oracle(vm)
        sink, counter = walk_solve(o)
        assert sink == (0, 0) and counter.vertex_queries == 1

    def test_walk_descends(self):
        o = vertex_oracle(ValueMatrix([[1, 2], [3, 4]]))
        sink, counter = walk_solve(o)
        assert counter.vertex_queries <= 3

    def test_walk_all_3x3(self):
        for g in itertools.islice(enumerate_usos((3, 3)), 0, None, 13):
            o = vertex_oracle(g, record=False)
            sink, counter = walk_solve(o)
            assert sink == brute_force_sink(g)
            assert counter.vertex_queries <= 9

    def test_walk_detects_cycle(self, four_cycle):
        with pytest.raises(NotUsoError):
            walk_solve(vertex_oracle(four_cycle))

    def test_random_edge_deterministic_in_seed(self):
        vm = gen_one_line(6, 6, 8)
        runs = []
        for _ in range(2):
            o = vertex_oracle(vm)
            sink, counter = random_edge_solve(o, seed=99)
            runs.append((sink, counter.vertex_queries, tuple(r[1] for r in o.transcript)))
        assert runs[0] == runs[1]
        assert runs[0][0] == vm.argmin_vertex()

    def test_random_edge_never_revisits(self):
        for seed in range(20):
            vm = gen_one_line(5, 5, seed)
            o = vertex_oracle(vm)
            random_edge_solve(o, seed=seed)
            queried = [r[1] for r in o.transcript]
            assert len(queried) == len(set(queried))


class _QueryBudget:
    """Oracle proxy that fails after ``limit`` query calls, cache hits
    included, so a solver looping on cached answers fails instead of hanging."""

    def __init__(self, oracle, limit: int):
        self._oracle = oracle
        self._left = limit

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def _spend(self):
        self._left -= 1
        if self._left < 0:
            raise AssertionError("query budget exhausted: the solver does not terminate")

    def query(self, v):
        self._spend()
        return self._oracle.query(v)

    def query_edge(self, u, w):
        self._spend()
        return self._oracle.query_edge(u, w)

    def query_line(self, u, axis, lo, hi):
        self._spend()
        return self._oracle.query_line(u, axis, lo, hi)


def _check_terminates(solve, oracle, is_sink, vertices: int, distinct_cap: int):
    """The solver returns a vertex without out-neighbours or raises a
    GridError, within 4 query calls per vertex and ``distinct_cap``
    distinct queries."""
    try:
        sink, _ = solve(_QueryBudget(oracle, 4 * vertices))
    except GridError:
        pass
    else:
        assert is_sink(sink)
    counter = oracle.counter
    assert counter.vertex_queries + counter.edge_queries <= distinct_cap


def _check_planar(g: OrientedGrid):
    m, n = g.shape.rows, g.shape.cols
    vertices, edges = m * n, kernels.edge_count(m, n)
    vertex_solvers = [
        lambda o: rectangular_solve(o, m, n),
        walk_solve,
        lambda o: random_edge_solve(o, seed=0),
    ]
    if m == n:
        vertex_solvers.append(lambda o: diagonal_solve(o, n))
    edge_solvers = [
        lambda o: dc_edge_solve(o, m, n),
        lambda o: dc_edge_solve(o, m, n, KSchedule(base_threshold=1)),
    ]
    for solve in vertex_solvers:
        _check_terminates(solve, vertex_oracle(g, record=False), g.is_sink,
                          vertices, vertices)
    for solve in edge_solvers:
        _check_terminates(solve, edge_oracle(g, record=False), g.is_sink,
                          vertices, edges)


def _check_ddim(g: DOrientedGrid):
    _check_terminates(lambda o: ddim_solve(o, g.dims),
                      vertex_oracle(g, record=False),
                      lambda v: not out_neighbors(g, v),
                      g.vertex_count, g.vertex_count)


class TestTermination:
    """Every solver, on every input including non-USOs, returns a vertex
    without out-neighbours or raises a typed error."""

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_planar_all_orientations(self, shape):
        m, n = shape
        for word in range(1 << kernels.edge_count(m, n)):
            _check_planar(OrientedGrid.from_edge_word(m, n, word))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (3, 5)], ids=["3x3", "4x4", "3x5"])
    def test_planar_sampled(self, shape):
        m, n = shape
        rng = random.Random(11)
        bits = kernels.edge_count(m, n)
        for _ in range(300):
            _check_planar(OrientedGrid.from_edge_word(m, n, rng.getrandbits(bits)))

    @pytest.mark.parametrize("dims", [(3,), (4,)])
    def test_ddim_all_line_orientations(self, dims):
        for word in range(1 << kernels.edge_count(*dims)):
            _check_ddim(DOrientedGrid.from_edge_word(dims, word))

    def test_ddim_sampled_2x2x3(self):
        dims = (2, 2, 3)
        rng = random.Random(13)
        bits = kernels.edge_count(*dims)
        for _ in range(300):
            _check_ddim(DOrientedGrid.from_edge_word(dims, rng.getrandbits(bits)))
