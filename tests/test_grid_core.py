"""Grid representations, the exhaustive validator, and ground-truth ops."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usogrid import (
    CapExceededError,
    CyclicOrientationError,
    GridError,
    NotUsoError,
    OrientedGrid,
    ValueMatrix,
    brute_force_sink,
    enumerate_usos,
    find_cycle,
    gen_one_line,
    gen_separable_ddim,
    topological_values,
    validate_uso,
)
from usogrid import kernels
from usogrid.dgrid import DOrientedGrid, validate_uso_ddim
from usogrid.grid import GridShape
from usogrid.serialize import grid_to_json

from reference import in_neighbors, out_neighbors
from uso_counts import USO_COUNTS


def grid_1234() -> OrientedGrid:
    return OrientedGrid.from_values(ValueMatrix([[1, 2], [3, 4]]))


class TestOutNeighbors:
    def test_global_minimum_is_sink(self):
        g = grid_1234()
        assert out_neighbors(g, (0, 0)) == frozenset()

    def test_maximum_beats_row_and_column(self):
        g = grid_1234()
        assert out_neighbors(g, (1, 1)) == {(1, 0), (0, 1)}

    def test_single_vertex_grid(self):
        g = OrientedGrid.from_values(ValueMatrix([[0.5]]))
        assert out_neighbors(g, (0, 0)) == frozenset()

    def test_in_out_partition_neighbors(self):
        g = OrientedGrid.from_values(ValueMatrix([[3, 1, 4], [1.5, 9, 2.6], [5, 3.5, 8]]))
        for v in g.shape.vertices():
            ins, outs = in_neighbors(g, v), out_neighbors(g, v)
            assert ins | outs == {(v[0], j) for j in range(3) if j != v[1]} | {
                (i, v[1]) for i in range(3) if i != v[0]
            }
            assert not ins & outs


class TestValidator:
    def test_single_vertex_ok(self):
        assert validate_uso(OrientedGrid.from_values(ValueMatrix([[1]]))) is None

    def test_four_cycle_violation_is_whole_grid(self, four_cycle):
        violation = validate_uso(four_cycle)
        assert violation is not None
        assert violation.rows == {0, 1}
        assert violation.cols == {0, 1}
        assert violation.sink_count == 0

    def test_exactly_12_of_16_orientations(self):
        count = sum(
            1
            for w in range(16)
            if validate_uso(OrientedGrid.from_edge_word(2, 2, w)) is None
        )
        assert count == 12

    def test_cap_refuses_loudly(self):
        vm = ValueMatrix(np.arange(64, dtype=float).reshape(8, 8))
        # 255^2 = 65025 nonempty subgrids
        with pytest.raises(CapExceededError):
            validate_uso(OrientedGrid.from_values(vm), max_subgrids=65024)
        assert validate_uso(OrientedGrid.from_values(vm), max_subgrids=65025) is None

    def test_two_sink_matrix_rejected(self):
        violation = validate_uso(OrientedGrid.from_values(ValueMatrix([[1, 3], [4, 2]])))
        assert violation is not None and violation.sink_count == 2


class TestBruteForceSink:
    def test_examples(self):
        assert brute_force_sink(grid_1234()) == (0, 0)
        g = OrientedGrid.from_values(ValueMatrix([[2, 1], [3, 4]]))
        assert brute_force_sink(g) == (0, 1)

    def test_cycle_has_no_sink(self, four_cycle):
        with pytest.raises(NotUsoError):
            brute_force_sink(four_cycle)


class TestTopologicalValues:
    def test_single_vertex(self):
        vm = topological_values(OrientedGrid.from_values(ValueMatrix([[7]])))
        assert vm.values.shape == (1, 1)

    def test_round_trip(self):
        g = grid_1234()
        assert OrientedGrid.from_values(topological_values(g)) == g

    def test_cycle_witness(self, four_cycle):
        with pytest.raises(CyclicOrientationError) as info:
            topological_values(four_cycle)
        assert len(info.value.cycle) == 4
        assert find_cycle(four_cycle) is not None

    def test_cycle_witness_is_a_directed_cycle(self):
        # Random orientations up to 4x4 and of 2x2x2 and 2x3x2; on two axes
        # find_cycle finds nothing exactly when values realize the grid.
        rng = random.Random(5)
        shapes = [(m, n) for m in range(1, 5) for n in range(1, 5)] + [(2, 2, 2), (2, 3, 2)]
        cyclic = 0
        for dims in shapes:
            for _ in range(100):
                g = DOrientedGrid.from_edge_word(dims, rng.getrandbits(kernels.edge_count(*dims)))
                cycle = find_cycle(g)
                if len(dims) == 2:
                    try:
                        topological_values(g)
                    except CyclicOrientationError:
                        assert cycle is not None
                    else:
                        assert cycle is None
                if cycle is None:
                    continue
                cyclic += 1
                assert len(set(cycle)) == len(cycle) >= 3
                for tail, head in zip(cycle, cycle[1:] + cycle[:1]):
                    assert g.points_to(tail, head)
        assert cyclic > len(shapes) * 100 // 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4))
    def test_round_trip_random(self, seed, m, n):
        rng = np.random.default_rng(seed)
        vm = ValueMatrix(rng.permutation(m * n).reshape(m, n).astype(float))
        g = OrientedGrid.from_values(vm)
        assert find_cycle(g) is None
        assert OrientedGrid.from_values(topological_values(g)) == g


class TestRestrict:
    def test_identity(self):
        g = grid_1234()
        assert g.restrict(range(2), range(2)) == g

    def test_row_restriction_sink(self):
        g = grid_1234()
        sub = g.restrict([1], [0, 1])
        assert brute_force_sink(sub) == (0, 0)  # old (1, 0), value 3 < 4

    def test_composition(self):
        vm = ValueMatrix(np.arange(20, dtype=float).reshape(4, 5) ** 1.3)
        g = OrientedGrid.from_values(vm)
        once = g.restrict([0, 2, 3], [1, 2, 4]).restrict([0, 2], [0, 1])
        direct = g.restrict([0, 3], [1, 2])
        assert once == direct

    def test_empty_rejected(self):
        with pytest.raises(GridError):
            grid_1234().restrict([], [0])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**64), st.data())
    def test_matches_pairs_read_from_points_to(self, m, n, raw, data):
        # Any edge word, USO or not; row and column lists unsorted, with repeats.
        g = OrientedGrid.from_edge_word(m, n, raw % (1 << kernels.edge_count(m, n)))
        rows = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
        cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        rsel, csel = sorted(set(rows)), sorted(set(cols))
        verts = [(p, q) for p in range(len(rsel)) for q in range(len(csel))]
        pairs = []
        for a, b in itertools.combinations(verts, 2):
            if a[0] == b[0] or a[1] == b[1]:
                tail_first = g.points_to((rsel[a[0]], csel[a[1]]), (rsel[b[0]], csel[b[1]]))
                pairs.append((a, b) if tail_first else (b, a))
        expected = OrientedGrid(GridShape(len(rsel), len(csel)), pairs)
        assert g.restrict(rows, cols) == expected

    @pytest.mark.parametrize("rows,cols", [([2], [0]), ([-1], [0]), ([0], [3]),
                                           ([0, 1], [1, -1])])
    def test_out_of_range_rejected(self, rows, cols):
        with pytest.raises(GridError, match="out of bounds"):
            OrientedGrid.from_values(gen_one_line(2, 3, 0)).restrict(rows, cols)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_every_subgrid_of_uso_has_sink(self, seed):
        rng = np.random.default_rng(seed)
        vm = ValueMatrix(np.add.outer(rng.permutation(3) * 10.0, rng.permutation(4)))
        g = OrientedGrid.from_values(vm)
        for rows in itertools.chain.from_iterable(
            itertools.combinations(range(3), k) for k in (1, 2, 3)
        ):
            for cols in itertools.chain.from_iterable(
                itertools.combinations(range(4), k) for k in (1, 2, 3, 4)
            ):
                brute_force_sink(g.restrict(rows, cols))  # must not raise


class TestEnumerationClosure:
    def test_2x2_closed_under_symmetries(self):
        usos = set(enumerate_usos((2, 2)))
        assert len(usos) == USO_COUNTS[2, 2]
        relabels = [lambda v: (1 - v[0], v[1]), lambda v: (v[0], 1 - v[1]),
                    lambda v: (v[1], v[0])]  # row flip, column flip, swap
        for g in usos:
            pairs = [(a, b) if g.points_to(a, b) else (b, a)
                     for a, b in kernels.edge_list(g.dims, kernels.PLANAR_AXES)]
            for relabel in relabels:
                image = [(relabel(t), relabel(h)) for t, h in pairs]
                assert OrientedGrid(GridShape(2, 2), image) in usos

    def test_totality_enforced(self):
        with pytest.raises(GridError):
            OrientedGrid(GridShape(2, 2), [((0, 0), (0, 1))])
        with pytest.raises(GridError):
            OrientedGrid(
                GridShape(1, 2), [((0, 0), (0, 1)), ((0, 1), (0, 0))]
            )

    def test_same_direction_duplicate_standing_in_for_a_missing_edge(self):
        # Three edges given for the three edges of a 1x3 grid, but (0,1)-(0,2)
        # is missing and (0,0)->(0,1) comes twice: the count alone looks right.
        with pytest.raises(GridError, match="oriented more than once"):
            OrientedGrid(GridShape(1, 3),
                         [((0, 0), (0, 1)), ((0, 0), (0, 2)), ((0, 0), (0, 1))])

    def test_reversed_duplicate(self):
        with pytest.raises(GridError, match="oriented more than once"):
            OrientedGrid(GridShape(1, 3),
                         [((0, 0), (0, 1)), ((0, 2), (0, 0)), ((0, 1), (0, 0))])

    def test_duplicate_in_a_d_axis_grid(self):
        edges = kernels.edge_list((2, 1, 2), range(3))
        with pytest.raises(GridError, match="oriented more than once"):
            DOrientedGrid((2, 1, 2), edges[:-1] + [edges[0][::-1]])
        with pytest.raises(GridError, match="oriented more than once"):
            DOrientedGrid((2, 1, 2), edges + [edges[2]])
        assert DOrientedGrid((2, 1, 2), edges).dims == (2, 1, 2)


class TestDdim:
    def test_edge_count(self):
        assert kernels.edge_count(2, 2, 2) == 12
        assert len(kernels.edge_list((2, 3, 2), range(3))) == kernels.edge_count(2, 3, 2)

    def test_one_dim_size_two_both_ways(self):
        for word in (0, 1):
            g = DOrientedGrid.from_edge_word((2,), word)
            assert validate_uso_ddim(g) is None

    def test_separable_cube_validates(self):
        g = DOrientedGrid.from_values(
            np.arange(8, dtype=float).reshape(2, 2, 2)
        )
        assert validate_uso_ddim(g) is None
        assert brute_force_sink(g) == (0, 0, 0)

    def test_cap(self):
        g = DOrientedGrid.from_values(np.arange(4**5, dtype=float).reshape([4] * 5))
        with pytest.raises(CapExceededError):
            validate_uso_ddim(g, max_subgrids=1000)

    def test_cyclic_cube_uso_exists(self):
        # Unlike the planar case, 3-dimensional USOs may contain cycles.
        total = cyclic = 0
        for word in range(1 << 12):
            g = DOrientedGrid.from_edge_word((2, 2, 2), word)
            if validate_uso_ddim(g) is None:
                total += 1
                if find_cycle(g) is not None:
                    cyclic += 1
        assert total == 744  # frozen from this enumeration
        assert cyclic > 0

    def test_validator_catches_double_sink(self):
        g = DOrientedGrid.from_values(np.array([[1.0, 3.0], [4.0, 2.0]]))
        violation = validate_uso_ddim(g)
        assert violation is not None and violation.sink_count == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_from_values_refuses_non_finite(self, bad):
        # NaN compares neither way, so the edges at its vertex would point
        # nowhere and the orientation would not be total.
        for values in ([[bad, 1.0], [2.0, 3.0]], [[[1.0, bad]], [[2.0, 3.0]]]):
            with pytest.raises(GridError, match="finite"):
                DOrientedGrid.from_values(np.array(values))
        with pytest.raises(GridError, match="finite"):
            ValueMatrix([[bad, 1.0], [2.0, 3.0]])

    def test_from_values_refuses_repeated_values(self):
        with pytest.raises(GridError, match="distinct"):
            DOrientedGrid.from_values(np.array([[[1.0, 2.0]], [[2.0, 3.0]]]))


class TestOneCore:
    def test_planar_grid_is_the_two_axis_case(self):
        vm = gen_one_line(3, 4, 1)
        g = OrientedGrid.from_values(vm)
        d = DOrientedGrid.from_values(vm.values)
        assert isinstance(g, DOrientedGrid) and g.lines == d.lines and g.dims == d.dims
        assert g != d and d != g
        assert "shape" in grid_to_json(g) and "dims" in grid_to_json(d)
        assert brute_force_sink(g) == brute_force_sink(d) == vm.argmin_vertex()

    def test_lines_hold_the_out_neighbours(self):
        g = OrientedGrid.from_values(ValueMatrix([[3, 1, 4], [1.5, 9, 2.6], [5, 3.5, 8]]))
        for v in g.shape.vertices():
            k = g.index(v)
            rows = frozenset((i, v[1]) for i in range(3) if g.lines[0][k] >> i & 1)
            cols = frozenset((v[0], j) for j in range(3) if g.lines[1][k] >> j & 1)
            assert rows | cols == out_neighbors(g, v)

    def test_two_axis_functions_take_any_two_axis_grid(self):
        # A "dims" grid gets the verdict and witness of the d-axis validator,
        # and values that re-orient to its own lines.
        rng = random.Random(3)
        grids = [gen_separable_ddim((2, 3), 0),
                 DOrientedGrid.from_values(gen_one_line(3, 4, 2).values)]
        grids += [DOrientedGrid.from_edge_word((3, 3), rng.getrandbits(kernels.edge_count(3, 3)))
                  for _ in range(20)]
        for d in grids:
            violation, expected = validate_uso(d), validate_uso_ddim(d)
            if expected is None:
                assert violation is None
            else:
                assert (violation.rows, violation.cols) == expected.subsets
                assert violation.sink_count == expected.sink_count
            if find_cycle(d) is None:
                assert OrientedGrid.from_values(topological_values(d)).lines == d.lines
            else:
                with pytest.raises(CyclicOrientationError):
                    topological_values(d)

    @pytest.mark.parametrize("dims", [(4,), (2, 2, 2)])
    def test_two_axis_functions_refuse_other_axis_counts(self, dims):
        d = gen_separable_ddim(dims, 1)
        with pytest.raises(GridError, match="two axes"):
            validate_uso(d)
        with pytest.raises(GridError, match="two axes"):
            topological_values(d)


class TestMemory:
    """Storage grows with the number of edges, not with the square of the
    vertex count (V^2 / 8 bytes would be 512 MiB and 51 MiB here)."""

    @staticmethod
    def _peak_bytes(build) -> int:
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_from_values_256x256(self):
        vm = gen_one_line(256, 256, 0)
        assert self._peak_bytes(lambda: OrientedGrid.from_values(vm)) < 64 * 2**20

    def test_ddim_from_values_12x12x12x12(self):
        rng = np.random.default_rng(3)
        values = rng.permutation(12**4).reshape((12,) * 4).astype(float)
        assert self._peak_bytes(lambda: DOrientedGrid.from_values(values)) < 32 * 2**20
