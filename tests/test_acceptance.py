"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is
deterministic: fixed seeds, fixed shapes, frozen regression constants.
"""

import itertools

import numpy as np
import pytest

from usogrid import (
    AdversaryVertexOracle,
    PartitionPair,
    brute_force_sink,
    edge_oracle,
    enumerate_usos,
    gen_one_line,
    gen_separable_ddim,
    replay_transcript,
    validate_uso,
    vertex_oracle,
)
from usogrid.gen import count_usos
from usogrid.grid import GridShape, OrientedGrid
from usogrid.solvers import (
    EliminationState,
    KSchedule,
    dc_edge_bound,
    dc_edge_solve,
    ddim_bound,
    ddim_solve,
    diagonal_bound,
    diagonal_solve,
    eliminated_lines,
    note_query,
    rectangular_bound,
    rectangular_solve,
    walk_solve,
)

from reference import contiguous_partitions, out_neighbors
from uso_counts import USO_COUNTS

EXHAUSTIVE_SHAPES = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)]


def _report(criterion: str, detail: str) -> None:
    print(f"[criterion {criterion}] PASS — {detail}")


def test_criterion_1_exhaustive_correctness():
    """Every solver returns the brute-force sink on every USO up to 3x3."""
    solved = 0
    for m, n in EXHAUSTIVE_SHAPES:
        for g in enumerate_usos((m, n)):
            expected = brute_force_sink(g)
            if m == n:
                sink, _ = diagonal_solve(vertex_oracle(g, record=False), n)
                assert sink == expected, f"diagonal wrong on {m}x{n}"
            sink, _ = rectangular_solve(vertex_oracle(g, record=False), m, n)
            assert sink == expected, f"rect wrong on {m}x{n}"
            sink, _ = dc_edge_solve(edge_oracle(g, record=False), m, n)
            assert sink == expected, f"dc-edge wrong on {m}x{n}"
            sink, _ = walk_solve(vertex_oracle(g, record=False))
            assert sink == expected, f"walk wrong on {m}x{n}"
            solved += 1
    _report("1", f"{solved} USOs x 4 solvers, zero sink mismatches")


def test_criterion_2_upper_bounds():
    """diagonal <= 2n-1 and rect <= m+n-1, exhaustively and on 1000 seeds/shape."""
    checked = 0
    for m, n in EXHAUSTIVE_SHAPES:
        for g in enumerate_usos((m, n)):
            if m == n:
                _, c = diagonal_solve(vertex_oracle(g, record=False), n)
                assert c.vertex_queries <= diagonal_bound(n)
            _, c = rectangular_solve(vertex_oracle(g, record=False), m, n)
            assert c.vertex_queries <= rectangular_bound(m, n)
            checked += 1
    for n in (2, 4, 8, 16, 32, 64):
        for seed in range(1000):
            vm = gen_one_line(n, n, seed)
            o = vertex_oracle(vm, record=False)
            sink, c = diagonal_solve(o, n)
            assert sink == vm.argmin_vertex()
            assert c.vertex_queries <= diagonal_bound(n), (n, seed)
            checked += 1
    for m, n in [(1, 8), (2, 3), (3, 7), (5, 5), (8, 13), (16, 11), (32, 64), (64, 64)]:
        for seed in range(1000):
            vm = gen_one_line(m, n, seed)
            o = vertex_oracle(vm, record=False)
            sink, c = rectangular_solve(o, m, n)
            assert sink == vm.argmin_vertex()
            assert c.vertex_queries <= rectangular_bound(m, n), (m, n, seed)
            checked += 1
    _report("2", f"{checked} solves, zero bound violations")


def test_criterion_3_lower_meets_upper():
    """Adversary forces exactly m+n-1; its materialization is consistent."""
    for m in range(1, 17):
        for n in range(1, 17):
            adv = AdversaryVertexOracle((m, n))
            sink, c = rectangular_solve(adv, m, n)
            assert c.vertex_queries == m + n - 1, (m, n, c.vertex_queries)
            grid = adv.materialize()
            if m + n <= 14:
                assert validate_uso(grid) is None, (m, n)
            assert brute_force_sink(grid) == sink
            assert replay_transcript(adv.transcript, vertex_oracle(grid)), (m, n)
    _report("3", "rect used exactly m+n-1 queries for all m,n <= 16; "
                 "materializations validate (within cap) and replay exactly")


def _lemma4_case(vm, placement) -> bool:
    """True when the row-and-column guarantee (or a sink hit) holds."""
    n = vm.values.shape[0]
    state = EliminationState(n, n)
    o = vertex_oracle(vm, record=False)
    for i, j in placement:
        answer = o.query((i, j))
        if not answer.outgoing:
            return True
        note_query(state, answer)
    return eliminated_lines(state) is not None


def test_criterion_4_row_and_column_elimination():
    """Square query sets in distinct rows/columns always kill a row and a column."""
    rng = np.random.default_rng(20240814)
    trials = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 33))
        vm = gen_one_line(n, n, int(rng.integers(0, 2**63)))
        perm = rng.permutation(n)
        assert _lemma4_case(vm, [(i, int(perm[i])) for i in range(n)])
        trials += 1
    exhaustive = 0
    for n in (2, 3):
        for g in enumerate_usos((n, n)):
            tv = None
            for perm in itertools.permutations(range(n)):
                placement = [(i, perm[i]) for i in range(n)]
                state = EliminationState(n, n)
                o = vertex_oracle(g, record=False)
                hit = False
                for v in placement:
                    answer = o.query(v)
                    if not answer.outgoing:
                        hit = True
                        break
                    note_query(state, answer)
                assert hit or eliminated_lines(state) is not None, (n, perm)
                exhaustive += 1
    _report("4", f"{trials} random trials + {exhaustive} exhaustive placements, "
                 "zero counterexamples")


def test_criterion_5_induced_block_grids():
    """Materialized block grids validate and their sink block holds the sink."""
    checked = 0
    for m in range(2, 9):
        for n in range(2, 11 - m):
            exhaustive = (m, n) in ((2, 2), (2, 3), (3, 2))
            instances = (
                list(enumerate_usos((m, n)))
                if exhaustive
                else [OrientedGrid.from_values(gen_one_line(m, n, seed)) for seed in range(5)]
            )
            partitions = [
                PartitionPair(rb, cb)
                for k in (2, 3)
                for l in (2, 3)
                if k <= m and l <= n
                for rb in contiguous_partitions(m, k)
                for cb in contiguous_partitions(n, l)
            ]
            for g in instances:
                gsink = brute_force_sink(g)
                for parts in partitions:
                    edges = []
                    sinks = {}
                    for x, (r0, r1) in enumerate(parts.row_blocks):
                        for y, (c0, c1) in enumerate(parts.col_blocks):
                            local = brute_force_sink(
                                g.restrict(range(r0, r1), range(c0, c1))
                            )
                            sinks[(x, y)] = (local[0] + r0, local[1] + c0)
                    k, l = parts.block_dims
                    for x in range(k):
                        for y in range(l):
                            u = sinks[(x, y)]
                            outs = out_neighbors(g, u)
                            for y2, (d0, d1) in enumerate(parts.col_blocks):
                                if y2 <= y:
                                    continue
                                fwd = any((u[0], c) in outs for c in range(d0, d1))
                                edges.append(
                                    ((x, y), (x, y2)) if fwd else ((x, y2), (x, y))
                                )
                            for x2, (e0, e1) in enumerate(parts.row_blocks):
                                if x2 <= x:
                                    continue
                                fwd = any((r, u[1]) in outs for r in range(e0, e1))
                                edges.append(
                                    ((x, y), (x2, y)) if fwd else ((x2, y), (x, y))
                                )
                    h = OrientedGrid(GridShape(k, l), edges)
                    assert validate_uso(h) is None, (m, n, parts)
                    hx, hy = brute_force_sink(h)
                    r0, r1 = parts.row_blocks[hx]
                    c0, c1 = parts.col_blocks[hy]
                    assert r0 <= gsink[0] < r1 and c0 <= gsink[1] < c1, (m, n, parts)
                    checked += 1
    _report("5", f"{checked} (instance, partition) pairs, zero failures")


def test_criterion_6_edge_query_bound_and_slope():
    """Divide-and-conquer stays within c=8 of its bound; k=4 scales ~ n^1.4."""
    for n in (16, 32, 64, 128, 256, 512):
        bound = dc_edge_bound(n, n, c=8)
        for seed in range(50):
            vm = gen_one_line(n, n, seed)
            o = edge_oracle(vm, record=False)
            sink, c = dc_edge_solve(o, n, n)
            assert sink == vm.argmin_vertex()
            assert c.edge_queries <= bound, (n, seed, c.edge_queries, bound)
    # Fixed k = 4 on the aligned size ladder (powers of 4, so every level
    # splits evenly); the mean-count growth exponent sits near log_4 7 ~ 1.404,
    # lowered by caching and early sink hits.
    sched = KSchedule(branching=lambda n: 4)
    sizes = [16, 64, 256, 1024]
    means = []
    for n in sizes:
        counts = []
        for seed in range(50):
            vm = gen_one_line(n, n, seed)
            o = edge_oracle(vm, record=False)
            sink, c = dc_edge_solve(o, n, n, sched)
            assert sink == vm.argmin_vertex()
            counts.append(c.edge_queries)
        means.append(float(np.mean(counts)))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    assert 1.25 <= slope <= 1.55, (slope, means)
    _report("6", f"c=8 bound held on 6 sizes x 50 seeds; k=4 log-log slope "
                 f"{slope:.3f} in [1.25, 1.55]")


def test_criterion_7_ddim_recurrence():
    """d-dimensional solves return the true sink within the unrolled bound."""
    dim_sets = [(n1,) for n1 in range(1, 5)]
    dim_sets += [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5)]
    dim_sets += [
        (n1, n2, n3)
        for n1 in range(1, 5)
        for n2 in range(1, 5)
        for n3 in range(1, 5)
    ]
    dim_sets.append((2, 2, 2, 2))
    runs = 0
    for dims in dim_sets:
        bound = ddim_bound(dims)
        for seed in range(5):
            g = gen_separable_ddim(dims, seed)
            o = vertex_oracle(g, record=False)
            sink, c = ddim_solve(o, dims)
            assert sink == brute_force_sink(g), (dims, seed)
            assert c.vertex_queries <= bound, (dims, seed, c.vertex_queries, bound)
            runs += 1
    _report("7", f"{runs} solves over {len(dim_sets)} dimension sets, "
                 "zero bound violations")


def test_criterion_8_enumeration_regression():
    """USO counts: 12 at 2x2 (analytic), 5796 at 3x3 (frozen), stable."""
    assert count_usos((2, 2)) == 12
    first = count_usos((3, 3))
    second = sum(1 for _ in enumerate_usos((3, 3)))
    assert first == second == USO_COUNTS[3, 3] == 5796
    _report("8", "2x2 count 12; 3x3 count 5796, stable across two passes")
