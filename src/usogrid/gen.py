"""Instance generators.

Random 2-D instances come from the one-line-and-points construction: segments
between points left and right of a vertical line, compared by the height at
which they cross it.  Crossing heights are separable (left height + right
height), which makes every submatrix minimum unique, so the induced
orientation is always a USO; no rejection sampling is needed.  Exhaustive
enumeration at tiny sizes restores full coverage (including instances no
one-line construction produces) for property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import kernels
from .dgrid import DOrientedGrid, _check_dims
from .errors import CapExceededError, GridError
from .grid import OrientedGrid, ValueMatrix

DEFAULT_ENUMERATION_EDGES = 20


@dataclass(frozen=True)
class PointInstance:
    """Points strictly left and right of the vertical line x = 0.

    Each (left, right) pair defines a segment and hence a grid vertex; its
    value is the height at which the segment crosses the line.  The instance
    is valid when those crossing heights are pairwise distinct.
    """

    left: tuple[tuple[float, float], ...]
    right: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise GridError("need at least one point on each side of the line")
        if any(x >= 0 for x, _ in self.left) or any(x <= 0 for x, _ in self.right):
            raise GridError("left points need x < 0 and right points x > 0")

    def crossing_heights(self) -> np.ndarray:
        lx = np.array([p[0] for p in self.left])
        ly = np.array([p[1] for p in self.left])
        rx = np.array([p[0] for p in self.right])
        ry = np.array([p[1] for p in self.right])
        t = -lx[:, None] / (rx[None, :] - lx[:, None])
        return ly[:, None] + t * (ry[None, :] - ly[:, None])

    def value_matrix(self) -> ValueMatrix:
        return ValueMatrix(self.crossing_heights())


def one_line_instance(m: int, n: int, seed: int) -> PointInstance:
    """Deterministic point instance at x = -1 / x = +1 for the given seed."""
    rng = np.random.default_rng(seed)
    while True:
        ly = rng.random(m)
        ry = rng.random(n)
        inst = PointInstance(
            tuple((-1.0, float(y)) for y in ly),
            tuple((1.0, float(y)) for y in ry),
        )
        # Height collisions have measure zero; resample if they happen.
        heights = inst.crossing_heights()
        if np.unique(heights).size == heights.size:
            return inst


def gen_one_line(m: int, n: int, seed: int) -> ValueMatrix:
    """Value matrix of a random one-line instance; always induces a USO."""
    m, n = _check_dims((m, n))
    return one_line_instance(m, n, seed).value_matrix()


def uso_words(shape: tuple[int, int]) -> list[int]:
    """Edge words (see :meth:`OrientedGrid.from_edge_word`) of every USO of the
    (m, n) shape, ascending; raises CapExceededError above
    ``DEFAULT_ENUMERATION_EDGES`` edges."""
    dims = _check_dims(shape)
    if len(dims) != 2:
        raise GridError(f"enumeration takes a two-axis shape, got dims {dims}")
    m, n = dims
    edges = kernels.edge_count(m, n)
    if edges > DEFAULT_ENUMERATION_EDGES:
        raise CapExceededError(
            f"enumerating a {m}x{n} grid means 2^{edges} orientations, above "
            f"the cap of 2^{DEFAULT_ENUMERATION_EDGES}"
        )
    return kernels.enumerate_uso_words(m, n)


def enumerate_usos(shape: tuple[int, int]) -> Iterator[OrientedGrid]:
    """Every USO of the (m, n) shape, in a deterministic (ascending edge word)
    order."""
    for word in uso_words(shape):
        yield OrientedGrid.from_edge_word(*shape, word)


def count_usos(shape: tuple[int, int]) -> int:
    return len(uso_words(shape))


def gen_separable_ddim(dims: Sequence[int], seed: int) -> DOrientedGrid:
    """Random d-dimensional USO from a separable value function.

    Values are sums of independent per-axis scores, so the coordinate-wise
    argmin of any subgrid is its unique sink; the result always validates.
    """
    dims = _check_dims(dims)
    rng = np.random.default_rng(seed)
    while True:
        scores = [rng.random(d) for d in dims]
        values = scores[0]
        for g in scores[1:]:
            values = np.add.outer(values, g)
        values = values.reshape(dims)
        if np.unique(values).size == values.size:
            return DOrientedGrid.from_values(values)

