"""Instance generators: one-line construction, enumeration, padding, separable."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usogrid import (
    CapExceededError,
    GridError,
    NotUsoError,
    OrientedGrid,
    PointInstance,
    ValueMatrix,
    brute_force_sink,
    count_usos,
    enumerate_usos,
    gen_one_line,
    gen_separable_ddim,
    one_line_instance,
    validate_uso,
)
from usogrid import kernels
from usogrid.dgrid import DOrientedGrid, validate_uso_ddim

from reference import pad_values_to_square
from uso_counts import USO_COUNTS


class TestOrientFromValues:
    def test_uso_example(self):
        g = OrientedGrid.from_values(ValueMatrix([[1, 2], [3, 4]]))
        assert validate_uso(g) is None
        assert brute_force_sink(g) == (0, 0)

    def test_acyclic_but_not_uso(self):
        g = OrientedGrid.from_values(ValueMatrix([[1, 3], [4, 2]]))
        violation = validate_uso(g)
        assert violation is not None and violation.sink_count == 2

    def test_duplicate_values_rejected(self):
        with pytest.raises(GridError):
            ValueMatrix([[1, 1], [2, 3]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_monotone_matrices_are_usos(self, seed):
        rng = np.random.default_rng(seed)
        steps_r = np.cumsum(rng.random(4) + 0.01)
        steps_c = np.cumsum(rng.random(5) + 0.01)
        vm = ValueMatrix(np.add.outer(steps_r, steps_c))
        g = OrientedGrid.from_values(vm)
        assert validate_uso(g) is None
        assert brute_force_sink(g) == (0, 0)


class TestOneLine:
    def test_midpoint_heights(self):
        inst = PointInstance(((-1, 0), (-1, 1)), ((1, 0), (1, 2)))
        assert inst.crossing_heights().tolist() == [[0.0, 1.0], [0.5, 1.5]]
        g = OrientedGrid.from_values(inst.value_matrix())
        assert brute_force_sink(g) == (0, 0)

    def test_general_position_slope(self):
        # points not at x = +-1 still cross where the segment says
        inst = PointInstance(((-2.0, 0.0),), ((2.0, 4.0),))
        assert inst.crossing_heights()[0, 0] == pytest.approx(2.0)

    def test_point_side_validation(self):
        with pytest.raises(GridError):
            PointInstance(((1, 0),), ((2, 1),))
        with pytest.raises(GridError):
            PointInstance((), ((1, 1),))

    def test_single_segment(self):
        vm = gen_one_line(1, 1, 0)
        assert vm.values.shape == (1, 1)

    def test_determinism(self):
        a = gen_one_line(5, 7, 123)
        b = gen_one_line(5, 7, 123)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, gen_one_line(5, 7, 124).values)

    def test_instances_always_validate(self):
        shapes = [(1, 4), (2, 2), (3, 3), (2, 5), (4, 4), (6, 6), (5, 3)]
        for m, n in shapes:
            for seed in range(25):
                g = OrientedGrid.from_values(gen_one_line(m, n, seed))
                assert validate_uso(g) is None, (m, n, seed)

    def test_points_reproducible_from_instance(self):
        inst = one_line_instance(3, 4, 9)
        assert np.array_equal(
            inst.value_matrix().values, gen_one_line(3, 4, 9).values
        )


class TestEnumeration:
    @pytest.mark.parametrize("shape,count", sorted(USO_COUNTS.items()))
    def test_counts(self, shape, count):
        assert count_usos(shape) == count

    def test_members_validate_and_are_distinct(self):
        grids = list(enumerate_usos((2, 3)))
        assert len(set(grids)) == USO_COUNTS[2, 3]
        for g in grids:
            assert validate_uso(g) is None

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (3, 1), (2, 3), (3, 2)],
                             ids=lambda shape: f"{shape[0]}x{shape[1]}")
    def test_enumeration_agrees_with_validator(self, shape):
        # the two independent paths: direct validation of all 2^E words
        # versus the enumerator's acyclic-tournament product
        m, n = shape
        grids = [OrientedGrid.from_edge_word(m, n, w)
                 for w in range(1 << kernels.edge_count(m, n))]
        accepted = [g for g in grids if validate_uso(g) is None]
        assert list(enumerate_usos(shape)) == accepted

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_usos((5, 5)))
        with pytest.raises(CapExceededError):
            count_usos((4, 4))

    @pytest.mark.parametrize("shape", [(0, 4), (2, 0), (-1, 3), (0, 0)],
                             ids=lambda shape: f"{shape[0]}x{shape[1]}")
    def test_non_positive_shape_is_a_grid_error(self, shape):
        with pytest.raises(GridError, match="positive"):
            count_usos(shape)
        with pytest.raises(GridError, match="positive"):
            list(enumerate_usos(shape))


#: Sizes that are not integers, a bare size where a shape belongs, and shapes
#: of the wrong axis count, each refused by the one size check.
BAD_SIZES = {
    "separable-float-size": lambda: gen_separable_ddim((2.7, 3), 1),
    "oneline-float-size": lambda: gen_one_line(2.5, 3, 1),
    "count-float-size": lambda: count_usos((2.5, 2)),
    "count-three-axes": lambda: count_usos((2, 2, 2)),
    "count-one-axis": lambda: count_usos((3,)),
    "enumerate-three-axes": lambda: list(enumerate_usos((2, 2, 2))),
    "edge-word-float-size": lambda: DOrientedGrid.from_edge_word((2.5, 2), 0),
    "edge-word-bare-size": lambda: DOrientedGrid.from_edge_word(3, 0),
}


@pytest.mark.parametrize("build", BAD_SIZES.values(), ids=BAD_SIZES.keys())
def test_bad_sizes_are_grid_errors(build):
    with pytest.raises(GridError):
        build()


class TestPadding:
    def test_identity_when_square(self):
        vm = gen_one_line(3, 3, 0)
        assert pad_values_to_square(vm) is vm

    def test_1x2_example(self):
        padded = pad_values_to_square(ValueMatrix([[1, 2]]))
        assert padded.values.shape == (2, 2)
        assert padded.argmin_vertex() == (0, 0)
        assert np.all(padded.values[1] > 2)

    def test_rejects_non_uso(self):
        with pytest.raises(NotUsoError):
            pad_values_to_square(ValueMatrix([[1, 3], [4, 2], [5, 6]]))

    def test_cap_checked_before_building_the_grid(self, monkeypatch):
        def expand(*_):
            raise AssertionError("padding built the explicit grid before its cap check")

        vm = gen_one_line(400, 300, 0)
        monkeypatch.setattr(OrientedGrid, "from_values", expand)
        with pytest.raises(CapExceededError):
            pad_values_to_square(vm)

    @staticmethod
    def _check_padding(vm):
        m, n = vm.values.shape
        padded = pad_values_to_square(vm)
        s = max(m, n)
        assert padded.values.shape == (s, s)
        g_orig = OrientedGrid.from_values(vm)
        g_pad = OrientedGrid.from_values(padded)
        assert validate_uso(g_pad) is None
        assert brute_force_sink(g_pad) == brute_force_sink(g_orig)
        assert g_pad.restrict(range(m), range(n)) == g_orig

    @pytest.mark.parametrize("m,n", [(3, 5), (5, 3), (1, 6), (4, 2)])
    def test_preserves_uso_sink_and_edges(self, m, n):
        for seed in range(20):
            self._check_padding(gen_one_line(m, n, seed))

    @pytest.mark.parametrize("values", [
        [[1e17, 0.0, 5.0]],
        [[2.0**53, 0.0, 1.0]],
        [[1.7e308, -1.7e308, 0.0]],
    ], ids=["1e17", "2^53", "1.7e308"])
    def test_large_finite_values(self, values):
        # padding offsets above max(values) would round at these magnitudes
        self._check_padding(ValueMatrix(values))
        self._check_padding(ValueMatrix(np.transpose(values)))


class TestSeparableDdim:
    def test_single_dim(self):
        g = gen_separable_ddim([2], 0)
        assert validate_uso_ddim(g) is None

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2, 4), (1, 3)])
    def test_always_validates(self, dims):
        for seed in range(10):
            assert validate_uso_ddim(gen_separable_ddim(dims, seed)) is None

    def test_determinism(self):
        assert gen_separable_ddim((2, 3, 2), 5) == gen_separable_ddim((2, 3, 2), 5)
