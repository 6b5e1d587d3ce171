"""Reference helpers that the tests check the package against.

They live outside ``conftest.py`` for the reason ``uso_counts.py`` gives,
and outside ``src/`` because no command, solver or benchmark runs them.
The neighbour sets are derived from the public ``points_to`` alone, so they
do not share a path with the line masks that oracle answers decode.
"""

import itertools
from typing import Iterator

import numpy as np

from usogrid import NotUsoError, ValueMatrix, validate_uso


def neighbors(g, v) -> frozenset:
    """Every vertex of the grid ``g`` on a line through ``v``, other than ``v``."""
    return frozenset(v[:axis] + (x,) + v[axis + 1 :]
                     for axis, size in enumerate(g.dims) for x in range(size) if x != v[axis])


def out_neighbors(g, v) -> frozenset:
    """All w adjacent to v with the edge directed v -> w; empty iff v is a sink."""
    return frozenset(w for w in neighbors(g, v) if g.points_to(v, w))


def in_neighbors(g, v) -> frozenset:
    return frozenset(w for w in neighbors(g, v) if g.points_to(w, v))


def pad_values_to_square(vm: ValueMatrix) -> ValueMatrix:
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
    violation = validate_uso(vm)
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


def contiguous_partitions(size: int, blocks: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All ways to cut [0, size) into the given number of contiguous blocks,
    as (start, stop) ranges."""
    if not 1 <= blocks <= size:
        return
    for cuts in itertools.combinations(range(1, size), blocks - 1):
        bounds = (0, *cuts, size)
        yield tuple((bounds[t], bounds[t + 1]) for t in range(blocks))
