#!/usr/bin/env python3
"""usogrid benchmark: one closed-loop caller, one process, one thread.

Usage, from the repository root::

    python3 perfbench/run.py --workload vertex-oneline --seed 1 --seconds 24 --trace 0

The package is imported from ``src/`` next to this directory; without it the
command exits with code 2 and prints no result.

A run builds the workload's instances from ``--seed`` and warms up (set-up,
repeated ``SETUP_REPEATS`` times), then sends one op after another in rounds
until the ops have been busy for ``--seconds`` and one whole pass over the
instances is done.  Every op's output is checked after it returns, outside
its timing; a failing or raising op counts as failed, never as dropped.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run in which every round runs once untraced and once with every usogrid
layer wrapped in spans (see ``spans.py``).  Details of each run (the
environment, the tail percentile, the query-count fingerprint of every
instance, failures) go to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``
and the spans of the last traced run of a workload to
``perfbench/out/spans-<workload>.npz``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-up is repeated and its median reported, so that one slow set-up
#: does not decide ``setup_s``.
SETUP_REPEATS = 3
#: Samples beyond the tail percentile; the tail is the highest percentile
#: that leaves at least this many.
TAIL_BEYOND = 10
#: A run stops taking new rounds after this much wall time, pass or not,
#: so that it always ends well inside three minutes.
WALL_LIMIT_S = 150.0

END_TO_END = [
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("queries_per_op", "count"),
    ("ok_frac", "ratio"),
]


def _load_usogrid():
    """Import usogrid from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "usogrid" / "__init__.py").is_file():
        print(f"error: no usogrid sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import usogrid

    if Path(usogrid.__file__).resolve().parent != SRC / "usogrid":
        print(f"error: imported usogrid from {usogrid.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return usogrid


@dataclass
class Sample:
    instance: str
    started: float
    latency: float
    outcome: object  # workloads.Outcome


def execute(op, tracer=None) -> Sample:
    """Run one op (timed, traced when a tracer is given), then check it."""
    from workloads import Outcome

    if tracer is not None:
        root = tracer.open(tracer.intern("op"))
        tracer.enabled = True
    error = None
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising op is a failed op, never a lost one
        error = exc
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
        tracer.close(root)
    if error is None:
        try:
            outcome = op.check(result)
        except Exception as exc:
            outcome = Outcome(False, detail=f"check raised {type(exc).__name__}: {exc}")
    else:
        outcome = Outcome(False, detail=f"{type(error).__name__}: {error}")
    return Sample(op.instance, t0, latency, outcome)


def run_rounds(rounds, seconds: float) -> list[Sample]:
    """Closed loop over the schedule, whole rounds at a time, until the ops
    have been busy for ``seconds`` and every round has run once."""
    samples: list[Sample] = []
    busy = 0.0
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            sample = execute(op)
            samples.append(sample)
            busy += sample.latency
        r += 1
        if time.perf_counter() - _START > WALL_LIMIT_S:
            print(f"warning: wall limit reached after {r} rounds", file=sys.stderr)
            return samples
        if busy >= seconds and r >= len(rounds):
            return samples


def run_paired(rounds, seconds: float, tracer) -> tuple[list[Sample], list[Sample]]:
    """Each round runs untraced, then again traced, so that both halves see
    the same ops under the same machine conditions; stops once the ops of
    both have been busy for ``seconds``."""
    plain: list[Sample] = []
    traced: list[Sample] = []
    busy = 0.0
    r = 0
    while busy < seconds and time.perf_counter() - _START < WALL_LIMIT_S:
        rnd = rounds[r % len(rounds)]
        plain += [execute(op) for op in rnd]
        with tracer.installed():
            traced += [execute(op, tracer) for op in rnd]
        busy += sum(s.latency for s in plain[-len(rnd):] + traced[-len(rnd):])
        r += 1
    return plain, traced


def set_up(build, seed: int, workdir: Path, tiny: bool):
    """Build the instances, then warm up on the first op of each kind."""
    rounds = build(seed, workdir, tiny)
    first = {}
    for rnd in rounds:
        for op in rnd:
            first.setdefault(op.kind, op)
    return rounds, [execute(op) for op in first.values()]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    k = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def fingerprint(samples: list[Sample], pass_len: int) -> list[dict]:
    """Exact query counts of every instance of the first pass, with its
    median latency over the run."""
    times: dict[str, list[float]] = {}
    for s in samples:
        times.setdefault(s.instance, []).append(s.latency)
    rows = []
    for s in samples[:pass_len]:
        o = s.outcome
        rows.append({"instance": s.instance, "vertex": o.vertex, "edge": o.edge,
                     "count": o.count, "ok": o.ok,
                     "ms_median": statistics.median(times[s.instance]) * 1e3})
    return rows


def end_to_end(samples, warm, pass_len, setup_s) -> tuple[dict, dict]:
    latencies = [s.latency for s in samples]
    checked = samples + warm
    ok = sum(s.outcome.ok for s in checked)
    tail_s, tail_pct = tail(latencies)
    values = {
        "setup_s": setup_s,
        "instances_per_s": len(samples) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "queries_per_op": statistics.fmean(s.outcome.count for s in samples[:pass_len]),
        "ok_frac": ok / len(checked),
    }
    info = {"tail_percentile": tail_pct, "tail_samples": len(latencies),
            "timed_ops": len(samples), "busy_s": sum(latencies),
            "fail_frac": 1 - ok / len(checked)}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy instance sizes, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    usogrid = _load_usogrid()
    import numpy as np

    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    build = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            warm = set_up(build, args.seed, workdir, args.tiny)[1]
            tracer = Tracer()
            with tracer.installed():
                tracer.enabled = True
                rounds = build(args.seed, workdir, args.tiny)
                tracer.enabled = False
            plain, samples = run_paired(rounds, args.seconds, tracer)
            tracer.save(OUT / f"spans-{args.workload}.npz")
            ips = [len(s) / sum(x.latency for x in s) for s in (plain, samples)]
            uses = [s.outcome.bound_use for s in plain + samples
                    if s.outcome.bound_use is not None]
            metrics = layer_metrics(tracer, 1 - ips[1] / ips[0], max(uses, default=0.0))
            info = {"timed_ops": len(samples), "untraced_ops": len(plain),
                    "spans": len(tracer.start),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            checked = plain + samples + warm
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                rounds = None  # let the previous instances go before rebuilding
                t0 = time.perf_counter()
                rounds, warm = set_up(build, args.seed, workdir, args.tiny)
                setups.append(time.perf_counter() - t0)
            pass_len = sum(len(r) for r in rounds)
            samples = run_rounds(rounds, args.seconds)
            metrics, info = end_to_end(samples, warm, pass_len,
                                       import_s + statistics.median(setups))
            info["import_s"] = import_s
            info["setup_repeats_s"] = setups
            info["fingerprint"] = fingerprint(samples, pass_len)
            info["samples"] = [[s.instance, s.started - samples[0].started, s.latency]
                               for s in samples]
            checked = samples + warm
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{s.instance}: {s.outcome.detail}" for s in checked if not s.outcome.ok]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "kernels": usogrid.kernels.implementation(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    details = {"env": env, **info, "metrics": metrics, "failures": failures[:20]}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(env))
    if "tail_percentile" in info:
        print(f"op_tail_ms is p{info['tail_percentile']:.2f} of {info['tail_samples']} ops")
    for line in failures[:5]:
        print(f"FAILED {line}")
    result = {"correct": not failures, "attempted": len(checked),
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
