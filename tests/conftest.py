import pytest

from usogrid.grid import GridShape, OrientedGrid

#: USO counts per shape, frozen from exhaustive enumeration; 2x2 = 12 is
#: also forced analytically: of the 16 orientations, 2 are directed 4-cycles
#: and 2 have two sinks.
USO_COUNTS = {
    (1, 1): 1,
    (1, 2): 2,
    (2, 1): 2,
    (1, 3): 6,
    (3, 1): 6,
    (2, 2): 12,
    (2, 3): 132,
    (3, 2): 132,
    (3, 3): 5796,
}


@pytest.fixture
def four_cycle() -> OrientedGrid:
    """The 2x2 orientation that is a single directed cycle."""
    return OrientedGrid(
        GridShape(2, 2),
        [((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0)), ((1, 0), (0, 0))],
    )
