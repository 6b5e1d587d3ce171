"""JSON boundary round trips: grids, point instances, transcript JSONL."""

import json

import numpy as np
import pytest

from usogrid import (
    GridError,
    OrientedGrid,
    PointInstance,
    ValueMatrix,
    gen_one_line,
    gen_separable_ddim,
    one_line_instance,
    replay_transcript,
    vertex_oracle,
    edge_oracle,
)
from usogrid.serialize import (
    grid_to_json,
    load_grid,
    point_instance_from_json,
    point_instance_to_json,
    transcript_from_jsonl,
    transcript_to_jsonl,
    values_to_json,
)


class TestGridJson:
    def test_values_round_trip(self):
        vm = gen_one_line(3, 4, 2)
        doc = load_grid(json.loads(json.dumps(values_to_json(vm))))
        assert doc.values == vm
        assert doc.grid == OrientedGrid.from_values(vm)

    def test_edges_round_trip(self):
        g = OrientedGrid.from_values(gen_one_line(3, 3, 5))
        doc = load_grid(grid_to_json(g))
        assert doc.grid == g and doc.values is None

    def test_coordinates_are_one_based(self):
        g = OrientedGrid.from_values(ValueMatrix([[1, 2]]))
        edges = grid_to_json(g)["edges"]
        assert edges == [{"a": [1, 1], "b": [1, 2], "dir": "ba"}]

    def test_ddim_round_trip(self):
        g = gen_separable_ddim((2, 3, 2), 4)
        doc = load_grid(grid_to_json(g))
        assert doc.is_ddim and doc.grid == g

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


class TestPointInstanceJson:
    def test_round_trip(self):
        inst = one_line_instance(3, 2, 7)
        back = point_instance_from_json(point_instance_to_json(inst))
        assert back == inst
        assert np.array_equal(
            back.value_matrix().values, inst.value_matrix().values
        )


class TestTranscriptJsonl:
    def test_vertex_round_trip_and_replay(self):
        vm = gen_one_line(3, 3, 1)
        o = vertex_oracle(vm)
        o.query((2, 2))
        o.query((0, 1))
        text = transcript_to_jsonl(o.transcript)
        records = transcript_from_jsonl(text)
        assert records == o.transcript
        assert replay_transcript(records, vertex_oracle(vm))

    def test_edge_round_trip_and_replay(self):
        vm = gen_one_line(2, 3, 9)
        o = edge_oracle(vm)
        o.query_edge((0, 0), (0, 2))
        o.query_edge((1, 1), (0, 1))
        text = transcript_to_jsonl(o.transcript)
        for line in text.strip().splitlines():
            obj = json.loads(line)
            assert obj["q"]["kind"] == "edge"
            assert obj["a"]["dir"] in ("ab", "ba")
        records = transcript_from_jsonl(text)
        assert records == o.transcript
        assert replay_transcript(records, edge_oracle(vm))

    def test_empty_transcript(self):
        assert transcript_to_jsonl([]) == ""
        assert transcript_from_jsonl("") == []
