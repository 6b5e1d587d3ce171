"""Span tracing of the usogrid layers, installed from outside the package.

:meth:`Tracer.install` wraps the public functions and methods of each
usogrid module at run time and replaces every reference to the original
that a usogrid module holds (``cli`` imports ``validate_uso`` and
``vertex_oracle`` by name, so patching the defining module alone would miss
those calls).  Nothing under ``src/`` changes.

A span is (name, start, end, parent span, op id), plus a flag and a count
(``aux``) that some wrappers fill in: a vertex or edge query sets the flag
when it was not served from the handle's cache, ``find_violation`` sets it
on accept and stores the number of subgrids it scanned.  Spans stay in flat
arrays until :meth:`Tracer.save` writes them out; self times are derived
from them afterwards (a span's duration minus the durations of its
children).
"""

from __future__ import annotations

import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Modules whose public functions and methods are wrapped.  ``kernels.pure``
#: is left out: the ``kernels`` dispatcher is the kernel layer's boundary.
MODULES = ("grid", "dgrid", "gen", "oracles", "solvers", "serialize", "report",
           "kernels", "cli")

#: Value types and coordinate helpers.  They run once per edge or per vertex
#: inside the layers above them, so a span each would multiply the tracing
#: cost without naming a layer; their time stays in the caller's self time.
SKIP_CLASSES = {"GridShape", "Edge", "Direction", "QueryCounter", "VertexAnswer",
                "PartitionPair", "UsoViolation", "DUsoViolation", "GridDoc",
                "PointInstance", "EliminationRecord", "KSchedule"}
SKIP_METHODS = {"DOrientedGrid.index", "DOrientedGrid.vertex", "OrientedGrid.out_mask",
                "EliminationState.is_active", "EliminationState.is_eliminated",
                "EliminationState.deactivate"}

#: Span names of the layer boundaries the per-layer metrics read.
ALIASES = {
    "oracles.EdgeOracle.query_edge": "oracles.edge",
    "oracles.TransposedVertexOracle.query": "oracles.transposed",
    "oracles._BlockEdgeView.query_edge": "oracles.block_view",
    "oracles.PaddedEdgeOracle.query_edge": "oracles.padded",
    "oracles.AdversaryVertexOracle.materialize": "oracles.materialize",
    "grid.OrientedGrid.from_values": "grid.from_values",
    "dgrid.DOrientedGrid.from_values": "dgrid.from_values",
}

#: ``VertexOracle.query`` serves every vertex-query backend; its span is
#: named after the handle's class.
VERTEX_QUERY_NAMES = {
    "ValueVertexOracle": "oracles.vertex",
    "ExplicitVertexOracle": "oracles.vertex",
    "DdimVertexOracle": "oracles.vertex",
    "InducedVertexOracle": "oracles.induced",
    "InheritedVertexOracle": "oracles.inherited",
    "AdversaryVertexOracle": "oracles.adversary",
}


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("H")
        self.nested = array("b")  # an enclosing span has the same name
        self.flag = array("b")
        self.scanned: dict[int, int] = {}  # find_violation span -> subgrids
        self.stack = [-1]
        self.depth: list[int] = []
        self.enabled = False
        self._patches: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.nested.append(self.depth[nid] > 0)
        self.flag.append(0)
        self.end.append(0.0)
        self.depth[nid] += 1
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.depth[self.name[idx]] -= 1

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns.  ``op`` counts the root spans named ``op``
        opened so far (spans open in order), so it is -1 before the first
        op and the op's ordinal after."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op_nid = self._ids.get("op", -1)
        aux = np.zeros(name.size, dtype=np.int32)
        aux[list(self.scanned)] = list(self.scanned.values())
        return {
            "name": name,
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": parent,
            "op": np.cumsum((name == op_nid) & (parent == -1), dtype=np.int32) - 1,
            "nested": np.frombuffer(self.nested, dtype=np.int8),
            "flag": np.frombuffer(self.flag, dtype=np.int8),
            "aux": aux,
        }

    def save(self, path) -> None:
        """Write every span as columns of an ``.npz`` file; ``names`` maps
        the ``name`` column to span names, ``parent`` -1 marks a root."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the usogrid layers; undo with :meth:`uninstall`."""
        replaced: dict[int, object] = {}
        for short in MODULES:
            modname = f"usogrid.{short}"
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and not inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and attr not in SKIP_CLASSES:
                    self._wrap_class(obj, short)
        # Rebind every module-level reference, wherever it was imported to.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "usogrid" or modname.startswith("usogrid.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrap_class(self, cls, short: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") or f"{cls.__name__}.{attr}" in SKIP_METHODS:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                fn, rewrap = member.__func__, type(member)
            elif inspect.isfunction(member):
                fn, rewrap = member, None
            else:  # properties and data
                continue
            if inspect.isgeneratorfunction(fn):
                continue
            wrapped = self._wrap(fn, f"{short}.{cls.__name__}.{attr}")
            self._patches.append((cls, attr, member))
            setattr(cls, attr, rewrap(wrapped) if rewrap else wrapped)

    def _wrap(self, fn, label: str):
        if label == "oracles.VertexOracle.query":
            oracles = sys.modules["usogrid.oracles"]
            by_type = {getattr(oracles, cls): self.intern(name)
                       for cls, name in VERTEX_QUERY_NAMES.items()}
            return self._wrap_counted(fn, self.intern("oracles.vertex"), by_type)
        label = ALIASES.get(label, label)
        nid = self.intern(label)
        if label == "oracles.edge":
            return self._wrap_counted(fn, nid)
        if label == "kernels.find_violation":
            return self._wrap_find_violation(fn, nid)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_counted(self, fn, nid: int, names_by_type=None):
        """Query wrapper: flags the span when the handle's counter moved,
        i.e. the answer was computed rather than served from the cache."""
        tracer = self

        def traced(handle, *args, **kwargs):
            if not tracer.enabled:
                return fn(handle, *args, **kwargs)
            span_nid = nid if names_by_type is None else names_by_type.get(type(handle), nid)
            counter = handle.counter
            before = counter.vertex_queries + counter.edge_queries
            idx = tracer.open(span_nid)
            try:
                return fn(handle, *args, **kwargs)
            finally:
                tracer.close(idx)
                if counter.vertex_queries + counter.edge_queries != before:
                    tracer.flag[idx] = 1

        traced.__wrapped__ = fn
        return traced

    def _wrap_find_violation(self, fn, nid: int):
        tracer = self

        def traced(m, n, out_masks):
            if not tracer.enabled:
                return fn(m, n, out_masks)
            idx = tracer.open(nid)
            try:
                hit = fn(m, n, out_masks)
            finally:
                tracer.close(idx)
            tracer.flag[idx] = hit is None
            tracer.scanned[idx] = subgrids_scanned(m, n, hit)
            return hit

        traced.__wrapped__ = fn
        return traced


def subgrids_scanned(m: int, n: int, hit) -> int:
    """Subgrids ``find_violation`` visited, computed from its result.

    The scan runs over ``(row_mask, col_mask)`` in ascending order, 1x1
    subgrids included (they are visited and skipped), and stops at the
    first violation; an accept visits all ``(2^m - 1)(2^n - 1)``.
    """
    cols = (1 << n) - 1
    if hit is None:
        return ((1 << m) - 1) * cols
    rmask, cmask, _ = hit
    return (rmask - 1) * cols + cmask


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


#: Per-layer metrics of the traced run, with units.  Counts and times are
#: per timed op; ``.s`` is inclusive time (outermost span of the name only,
#: so recursion is not counted twice), ``.self_s`` the time not covered by
#: child spans.  ``setup.*`` are totals over one traced set-up.
PER_LAYER = [
    ("oracles.vertex.calls", "calls/op"),
    ("oracles.vertex.distinct", "queries/op"),
    ("oracles.vertex.hit_ratio", "ratio"),
    ("oracles.vertex.s", "s/op"),
    ("oracles.vertex.us_per_distinct", "us"),
    ("oracles.transposed.calls", "calls/op"),
    ("oracles.transposed.self_s", "s/op"),
    ("oracles.edge.calls", "calls/op"),
    ("oracles.edge.distinct", "queries/op"),
    ("oracles.edge.hit_ratio", "ratio"),
    ("oracles.edge.s", "s/op"),
    ("oracles.induced.calls", "calls/op"),
    ("oracles.induced.self_s", "s/op"),
    ("oracles.block_view.calls", "calls/op"),
    ("oracles.block_view.self_s", "s/op"),
    ("oracles.padded.calls", "calls/op"),
    ("oracles.padded.free_ratio", "ratio"),
    ("oracles.inherited.calls", "calls/op"),
    ("oracles.inherited.self_s", "s/op"),
    ("oracles.adversary.calls", "calls/op"),
    ("oracles.adversary.s", "s/op"),
    ("oracles.materialize.s", "s/op"),
    ("oracles.replay_transcript.s", "s/op"),
    ("solvers.note_query.calls", "calls/op"),
    ("solvers.note_query.s", "s/op"),
    ("solvers.eliminated_lines.calls", "calls/op"),
    ("solvers.eliminated_lines.s", "s/op"),
    ("solvers.self_s", "s/op"),
    ("solvers.bound_use_max", "ratio"),
    ("kernels.find_violation.calls", "calls/op"),
    ("kernels.find_violation.accept_s", "s/op"),
    ("kernels.find_violation.reject_s", "s/op"),
    ("kernels.enumerate_uso_words.s", "s/op"),
    ("kernels.subgrids_scanned", "subgrids/op"),
    ("kernels.subgrids_per_s", "1/s"),
    ("grid.from_values.calls", "calls/op"),
    ("grid.from_values.s", "s/op"),
    ("grid.validate_uso.s", "s/op"),
    ("grid.brute_force_sink.s", "s/op"),
    ("serialize.load_grid_file.s", "s/op"),
    ("dgrid.from_values.s", "s/op"),
    ("dgrid.brute_force_sink_ddim.s", "s/op"),
    ("gen.gen_one_line.calls", "calls/op"),
    ("gen.gen_one_line.s", "s/op"),
    ("gen.gen_separable_ddim.s", "s/op"),
    ("gen.count_usos.s", "s/op"),
    ("setup.gen.s", "s"),
    ("setup.grid.s", "s"),
    ("cli.main.calls", "calls/op"),
    ("cli.main.self_s", "s/op"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.spans_per_op", "spans/op"),
]


def outermost(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The spans of ``mask`` that have no ancestor in ``mask``."""
    has_parent = parent >= 0
    covered = np.zeros(mask.size, dtype=bool)
    while True:
        up = np.zeros(mask.size, dtype=bool)
        up[has_parent] = (mask | covered)[parent[has_parent]]
        if np.array_equal(up, covered):
            return mask & ~covered
        covered = up


def layer_metrics(tracer: Tracer, overhead_frac: float, bound_use_max: float) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Spans of the timed ops have op ids from 0, under a root span named
    ``op``; spans of the traced set-up come first and have op id -1.
    """
    sp = tracer.arrays()
    dur = sp["end"] - sp["start"]
    own = self_times(sp)
    names = sp["name"]
    ids = {name: nid for nid, name in enumerate(tracer.names)}
    timed = sp["op"] >= 0
    setup = ~timed
    roots = timed & (names == ids["op"])
    n_ops = max(int(roots.sum()), 1)
    size = len(tracer.names)
    # Per-name sums over the timed ops, each divided by the op count.
    t_names = names[timed]
    calls_by = np.bincount(t_names, minlength=size) / n_ops
    self_by = np.bincount(t_names, weights=own[timed], minlength=size) / n_ops
    flags_by = np.bincount(t_names, weights=sp["flag"][timed], minlength=size) / n_ops
    outer = timed & (sp["nested"] == 0)
    incl_by = np.bincount(names[outer], weights=dur[outer], minlength=size) / n_ops

    def per_name(table):
        return lambda name: float(table[ids[name]]) if name in ids else 0.0

    calls, self_s, distinct, incl = map(per_name, (calls_by, self_by, flags_by, incl_by))

    def hit_ratio(name):
        c = calls(name)
        return 1.0 - distinct(name) / c if c else 0.0

    def setup_s(prefix: str) -> float:
        # Set-up spans come first, so their parents stay within the prefix.
        head = int(setup.sum())
        hit = [nid for name, nid in ids.items() if name.startswith(prefix)]
        mask = np.isin(names[:head], hit)
        return float(dur[:head][outermost(sp["parent"][:head], mask)].sum())

    violation = timed & (names == ids.get("kernels.find_violation", -1))
    accepted = violation & (sp["flag"] == 1)
    scanned = sp["aux"][violation].sum()
    padded = np.flatnonzero(timed & (names == ids.get("oracles.padded", -1)))
    has_child = np.zeros(dur.size, dtype=bool)
    has_child[sp["parent"][sp["parent"] >= 0]] = True
    vertex_distinct = distinct("oracles.vertex")

    values = {
        "oracles.vertex.calls": calls("oracles.vertex"),
        "oracles.vertex.distinct": vertex_distinct,
        "oracles.vertex.hit_ratio": hit_ratio("oracles.vertex"),
        "oracles.vertex.s": incl("oracles.vertex"),
        "oracles.vertex.us_per_distinct":
            incl("oracles.vertex") / vertex_distinct * 1e6 if vertex_distinct else 0.0,
        "oracles.transposed.calls": calls("oracles.transposed"),
        "oracles.transposed.self_s": self_s("oracles.transposed"),
        "oracles.edge.calls": calls("oracles.edge"),
        "oracles.edge.distinct": distinct("oracles.edge"),
        "oracles.edge.hit_ratio": hit_ratio("oracles.edge"),
        "oracles.edge.s": incl("oracles.edge"),
        "oracles.induced.calls": calls("oracles.induced"),
        "oracles.induced.self_s": self_s("oracles.induced"),
        "oracles.block_view.calls": calls("oracles.block_view"),
        "oracles.block_view.self_s": self_s("oracles.block_view"),
        "oracles.padded.calls": calls("oracles.padded"),
        "oracles.padded.free_ratio":
            1.0 - float(has_child[padded].mean()) if padded.size else 0.0,
        "oracles.inherited.calls": calls("oracles.inherited"),
        "oracles.inherited.self_s": self_s("oracles.inherited"),
        "oracles.adversary.calls": calls("oracles.adversary"),
        "oracles.adversary.s": incl("oracles.adversary"),
        "oracles.materialize.s": incl("oracles.materialize"),
        "oracles.replay_transcript.s": incl("oracles.replay_transcript"),
        "solvers.note_query.calls": calls("solvers.note_query"),
        "solvers.note_query.s": incl("solvers.note_query"),
        "solvers.eliminated_lines.calls": calls("solvers.eliminated_lines"),
        "solvers.eliminated_lines.s": incl("solvers.eliminated_lines"),
        "solvers.self_s": sum(self_s(name) for name in ids if name.startswith("solvers.")),
        "solvers.bound_use_max": bound_use_max,
        "kernels.find_violation.calls": calls("kernels.find_violation"),
        "kernels.find_violation.accept_s": dur[accepted].sum() / n_ops,
        "kernels.find_violation.reject_s": dur[violation & ~accepted].sum() / n_ops,
        "kernels.enumerate_uso_words.s": incl("kernels.enumerate_uso_words"),
        "kernels.subgrids_scanned": scanned / n_ops,
        "kernels.subgrids_per_s":
            scanned / dur[violation].sum() if violation.any() else 0.0,
        "grid.from_values.calls": calls("grid.from_values"),
        "grid.from_values.s": incl("grid.from_values"),
        "grid.validate_uso.s": incl("grid.validate_uso"),
        "grid.brute_force_sink.s": incl("grid.brute_force_sink"),
        "serialize.load_grid_file.s": incl("serialize.load_grid_file"),
        "dgrid.from_values.s": incl("dgrid.from_values"),
        "dgrid.brute_force_sink_ddim.s": incl("dgrid.brute_force_sink_ddim"),
        "gen.gen_one_line.calls": calls("gen.gen_one_line"),
        "gen.gen_one_line.s": incl("gen.gen_one_line"),
        "gen.gen_separable_ddim.s": incl("gen.gen_separable_ddim"),
        "gen.count_usos.s": incl("gen.count_usos"),
        "setup.gen.s": setup_s("gen."),
        "setup.grid.s": setup_s("grid."),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": own[roots].sum() / dur[roots].sum(),
        "trace.spans_per_op": timed.sum() / n_ops,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
