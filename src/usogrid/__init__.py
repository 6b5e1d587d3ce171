"""Sink finding on grid unique sink orientations.

Grids are Cartesian products of complete graphs; a unique sink orientation
(USO) gives every nonempty subgrid exactly one sink.  This package provides
explicit and implicit grid representations with an exhaustive validator,
instance generators, countable vertex/edge oracles (including an adaptive
lower-bound adversary and induced/inherited/padded adapters), the
deterministic elimination solvers with their query bounds, and a CLI.
"""

from .dgrid import DOrientedGrid, validate_uso_ddim
from .errors import (
    AdversaryError,
    CapExceededError,
    CyclicOrientationError,
    GridError,
    NotUsoError,
    SubSolverError,
)
from .gen import (
    PointInstance,
    count_usos,
    enumerate_usos,
    gen_one_line,
    gen_separable_ddim,
    one_line_instance,
    pad_values_to_square,
)
from .grid import (
    Direction,
    Edge,
    GridShape,
    OrientedGrid,
    UsoViolation,
    ValueMatrix,
    brute_force_sink,
    find_cycle,
    topological_values,
    validate_uso,
)
from .oracles import (
    AdversaryVertexOracle,
    InducedVertexOracle,
    InheritedVertexOracle,
    PaddedEdgeOracle,
    PartitionPair,
    QueryCounter,
    VertexAnswer,
    edge_oracle,
    replay_transcript,
    vertex_oracle,
)
from .report import RunReport
from .solvers import (
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

__version__ = "0.1.0"
