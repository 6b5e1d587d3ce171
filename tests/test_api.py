"""The public surface of the package: adding or deleting a name is a test edit."""

import types

import usogrid

PUBLIC_NAMES = sorted("""
    AdversaryError AdversaryVertexOracle CapExceededError CyclicOrientationError
    DEFAULT_SCHEDULE DOrientedGrid EliminationState GridError
    GridShape InducedVertexOracle InheritedVertexOracle KSchedule NotUsoError
    OrientedGrid PaddedEdgeOracle PartitionPair PointInstance QueryCounter RunReport
    SubSolverError UsoViolation ValueMatrix VertexAnswer brute_force_sink
    count_usos dc_edge_bound dc_edge_solve ddim_bound ddim_solve diagonal_bound
    diagonal_solve edge_oracle eliminated_lines enumerate_usos find_cycle
    gen_one_line gen_separable_ddim k_schedule note_query one_line_instance
    random_edge_solve rectangular_bound rectangular_solve
    replay_transcript topological_values validate_uso validate_uso_ddim
    vertex_oracle walk_solve
""".split())


def test_public_names():
    # Submodules are left out: which of them are attributes of the package
    # depends on what has been imported so far.
    names = sorted(name for name, value in vars(usogrid).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_every_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(usogrid, name) is not None
