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

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import kernels
from .dgrid import DOrientedGrid
from .errors import CapExceededError, GridError, NotUsoError
from .grid import (
    DEFAULT_VALIDATION_COORDS,
    GridShape,
    OrientedGrid,
    ValueMatrix,
    check_validation_cap,
    validate_uso,
)

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
    if m < 1 or n < 1:
        raise GridError(f"shape must be positive, got {m}x{n}")
    return one_line_instance(m, n, seed).value_matrix()


def uso_words(
    shape: GridShape | tuple[int, int],
    max_edges: int = DEFAULT_ENUMERATION_EDGES,
) -> list[int]:
    """Edge words (see :meth:`OrientedGrid.from_edge_word`) of every USO of the
    shape, ascending; raises CapExceededError above ``max_edges`` edges."""
    m, n = (shape.rows, shape.cols) if isinstance(shape, GridShape) else shape
    edges = kernels.edge_count(m, n)
    if edges > max_edges:
        raise CapExceededError(
            f"enumerating a {m}x{n} grid means 2^{edges} orientations, above "
            f"the cap of 2^{max_edges}"
        )
    return kernels.enumerate_uso_words(m, n)


def enumerate_usos(
    shape: GridShape | tuple[int, int],
    max_edges: int = DEFAULT_ENUMERATION_EDGES,
) -> Iterator[OrientedGrid]:
    """Every USO of the shape, in a deterministic (ascending edge word) order."""
    m, n = (shape.rows, shape.cols) if isinstance(shape, GridShape) else shape
    for word in uso_words((m, n), max_edges):
        yield OrientedGrid.from_edge_word(m, n, word)


def count_usos(
    shape: GridShape | tuple[int, int],
    max_edges: int = DEFAULT_ENUMERATION_EDGES,
) -> int:
    return len(uso_words(shape, max_edges))


def pad_values_to_square(
    vm: ValueMatrix, validate: bool = True, max_coords: int = DEFAULT_VALIDATION_COORDS
) -> ValueMatrix:
    """Append dominated rows or columns until the matrix is square.

    The original entries are replaced by their ranks 0 .. m*n-1, which keeps
    every row and column order and leaves the padding exact for any finite
    input.  New entries are all strictly larger than every rank and are
    separable among themselves (m*n + R*i + j), so subgrids touching the
    original rows keep their original sink while all-new subgrids get a
    lexicographic-argmin sink.  USO validity, the sink position and every
    original edge direction are preserved.
    """
    m, n = vm.values.shape
    if validate:
        check_validation_cap(m, n, max_coords)  # before building the grid
        violation = validate_uso(OrientedGrid.from_values(vm), max_coords)
        if violation is not None:
            raise NotUsoError(f"input does not induce a USO: {violation}")
    if m == n:
        return vm
    s = max(m, n)
    base = float(m * n)
    scale = float(s + 1)
    padded = np.empty((s, s), dtype=np.float64)
    padded[:m, :n] = np.argsort(np.argsort(vm.values, axis=None)).reshape(m, n)
    for i in range(s):
        for j in range(s):
            if i >= m or j >= n:
                padded[i, j] = base + scale * i + j
    return ValueMatrix(padded)


def gen_separable_ddim(dims: Sequence[int], seed: int) -> DOrientedGrid:
    """Random d-dimensional USO from a separable value function.

    Values are sums of independent per-axis scores, so the coordinate-wise
    argmin of any subgrid is its unique sink; the result always validates.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise GridError(f"dims must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    while True:
        scores = [rng.random(d) for d in dims]
        values = scores[0]
        for g in scores[1:]:
            values = np.add.outer(values, g)
        values = values.reshape(dims)
        if np.unique(values).size == values.size:
            return DOrientedGrid.from_values(values)


def contiguous_partitions(size: int, blocks: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All ways to cut [0, size) into the given number of contiguous blocks,
    as (start, stop) ranges."""
    if not 1 <= blocks <= size:
        return
    for cuts in itertools.combinations(range(1, size), blocks - 1):
        bounds = (0, *cuts, size)
        yield tuple((bounds[t], bounds[t + 1]) for t in range(blocks))
