"""JSON boundary round trips: grid files."""

import json

import pytest

from usogrid import (
    DOrientedGrid,
    GridError,
    OrientedGrid,
    ValueMatrix,
    gen_one_line,
    gen_separable_ddim,
)
from usogrid.serialize import (
    grid_to_json,
    load_grid,
    values_to_json,
)


class TestGridJson:
    def test_values_round_trip(self):
        vm = gen_one_line(3, 4, 2)
        assert load_grid(json.loads(json.dumps(values_to_json(vm)))) == vm

    def test_edges_round_trip(self):
        g = OrientedGrid.from_values(gen_one_line(3, 3, 5))
        assert load_grid(grid_to_json(g)) == g  # equal grids have one class

    def test_coordinates_are_one_based(self):
        g = OrientedGrid.from_values(ValueMatrix([[1, 2]]))
        edges = grid_to_json(g)["edges"]
        assert edges == [{"a": [1, 1], "b": [1, 2], "dir": "ba"}]

    def test_ddim_round_trip(self):
        g = gen_separable_ddim((2, 3, 2), 4)
        assert load_grid(grid_to_json(g)) == g
        # a "dims" file stays a DOrientedGrid, also with two axes
        d2 = DOrientedGrid.from_values(gen_one_line(2, 3, 4).values)
        assert load_grid(grid_to_json(d2)) == d2

    def test_exactly_one_of_values_edges(self):
        vm = gen_one_line(2, 2, 0)
        doc = values_to_json(vm)
        doc["edges"] = grid_to_json(OrientedGrid.from_values(vm))["edges"]
        with pytest.raises(GridError):
            load_grid(doc)
        with pytest.raises(GridError):
            load_grid({"shape": [2, 2]})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GridError):
            load_grid({"shape": [2, 3], "values": [[1.0, 2.0], [3.0, 4.0]]})

    def test_zero_based_input_rejected(self):
        with pytest.raises(GridError):
            load_grid(
                {
                    "shape": [1, 2],
                    "edges": [{"a": [0, 1], "b": [1, 2], "dir": "ab"}],
                }
            )
