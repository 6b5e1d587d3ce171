"""The benchmark's own tests: its output format, its correctness gate and
its tracing.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from usogrid import cli, grid, oracles
from usogrid.oracles import VertexAnswer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


#: Per-layer metrics each workload must move (the layers it exists for).
LAYERS_HIT = {
    "vertex-oneline": ["oracles.vertex.calls", "oracles.transposed.calls",
                       "solvers.note_query.calls", "solvers.eliminated_lines.calls"],
    "edge-dc": ["oracles.edge.calls", "oracles.induced.calls", "oracles.block_view.calls",
                "oracles.padded.calls", "solvers.eliminated_lines.calls"],
    "kernels-validate": ["kernels.find_violation.accept_s", "kernels.find_violation.reject_s",
                         "kernels.enumerate_uso_words.s", "kernels.subgrids_scanned"],
    "cli-explicit": ["cli.main.calls", "oracles.inherited.calls", "oracles.adversary.calls",
                     "oracles.materialize.s", "grid.from_values.calls",
                     "serialize.load_grid_file.s", "dgrid.from_values.s"],
}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_spec_lists_what_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        moved = [name for name in LAYERS_HIT[workload]
                 if not result["metrics"][name]["value"] > 0]
        assert not moved, f"layers not reached on {workload}: {moved}"


class _FlipAtSink:
    """Vertex oracle proxy that answers the sink query with every edge
    reversed, so the sink looks like a source."""

    def __init__(self, base, sink):
        self._base = base
        self._sink = sink
        self.shape = base.shape
        self.counter = base.counter

    def query(self, v):
        answer = self._base.query(v)
        if v != self._sink:
            return answer
        return VertexAnswer(answer.vertex, answer.outgoing, answer.incoming)


def test_flipped_answer_fails_ops(monkeypatch, capsys):
    real = oracles.vertex_oracle
    monkeypatch.setattr(oracles, "vertex_oracle",
                        lambda vm, record=True: _FlipAtSink(real(vm, record), vm.argmin_vertex()))
    code = run.main(["--workload", "vertex-oneline", "--seed", "2", "--seconds", "0.1",
                     "--trace", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_reject_check_recounts_the_reported_subgrid(monkeypatch):
    # A validator that blames a subgrid with one sink must fail the op.
    g = grid.OrientedGrid.from_edge_word(4, 4, random.Random(0).getrandbits(48))
    op = workloads._validate_op("reject", g, "reject:test")
    assert op.check(grid.validate_uso(g)).ok
    monkeypatch.setattr(grid, "validate_uso", lambda g: grid.UsoViolation(
        frozenset({0}), frozenset({0, 1}), 2))
    assert not run.execute(op).outcome.ok


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "edge-dc", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracing_rebinds_imported_names_and_restores_them():
    originals = (cli.validate_uso, cli.vertex_oracle, grid.validate_uso)
    with spans.Tracer().installed():
        assert cli.validate_uso is grid.validate_uso
        assert cli.validate_uso.__wrapped__ is originals[0]
        assert cli.vertex_oracle.__wrapped__ is originals[1]
    assert (cli.validate_uso, cli.vertex_oracle, grid.validate_uso) == originals


def test_self_times_add_up_to_each_op(tmp_path):
    rounds = workloads.build_cli_explicit(3, tmp_path, tiny=True)
    tracer = spans.Tracer()
    with tracer.installed():
        samples = [run.execute(op, tracer) for op in rounds[0]]
    assert all(s.outcome.ok for s in samples)
    sp = tracer.arrays()
    own = spans.self_times(sp)
    roots = sp["parent"] == -1
    per_op = np.bincount(sp["op"], weights=own)
    assert np.allclose(per_op, (sp["end"] - sp["start"])[roots], rtol=1e-9, atol=1e-12)
    names = {tracer.names[i] for i in sp["name"]}
    assert {"cli.main", "oracles.adversary", "oracles.materialize",
            "oracles.replay_transcript", "kernels.find_violation"} <= names


def test_subgrids_scanned_matches_the_scan_order():
    # 2x2: (rows, cols) masks in ascending order are 1..3 x 1..3.
    assert spans.subgrids_scanned(2, 2, None) == 9
    assert spans.subgrids_scanned(2, 2, (1, 3, 0)) == 3
    assert spans.subgrids_scanned(2, 2, (3, 3, 2)) == 9
