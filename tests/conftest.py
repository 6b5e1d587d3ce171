import pytest

from usogrid.grid import GridShape, OrientedGrid


@pytest.fixture
def four_cycle() -> OrientedGrid:
    """The 2x2 orientation that is a single directed cycle."""
    return OrientedGrid(
        GridShape(2, 2),
        [((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0)), ((1, 0), (0, 0))],
    )
