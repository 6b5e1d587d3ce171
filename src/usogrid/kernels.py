"""The hot loops: subgrid validation and exhaustive USO enumeration.

Pure Python over unbounded integer bitmasks, so no grid size is too wide
for a mask.  Conventions:

* Vertex (i, j) of an (m, n) grid has index ``v = i*n + j``.  An orientation
  is a pair of line-mask sequences ``(col_lines, row_lines)``, the ``lines``
  of :class:`usogrid.dgrid.DOrientedGrid`: bit i' of ``col_lines[v]`` is set
  iff v points to (i', j), and bit j' of ``row_lines[v]`` iff v points to
  (i, j').  Vertex v is a sink of the subgrid R x C (row and column masks)
  iff ``col_lines[v] & R == 0`` and ``row_lines[v] & C == 0``.
* Edges are numbered row edges first, then column edges, the order of
  ``edge_list(dims, (1, 0))`` (``PLANAR_AXES``)::

      row edges     (i, j1)-(i, j2)   i = 0..m-1, pairs (j1, j2) lexicographic
      column edges  (i1, j)-(i2, j)   j = 0..n-1, pairs (i1, i2) lexicographic

  Bit e of an "edge word" is 1 iff edge e points from its lexicographically
  smaller endpoint to the larger one.
* Subgrids are scanned in ascending ``(row_mask, col_mask)`` order;
  ``find_violation`` reports the first subgrid whose sink count is not one.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Sequence


def implementation() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "pure"


#: Axis order of the 2-D edge word: row edges (axis 1), then column edges.
PLANAR_AXES = (1, 0)


def edge_count(*dims: int) -> int:
    """Edges of the grid ``dims``: on each axis, a pair per two vertices of a line."""
    total = math.prod(dims)
    return sum(total // size * (size * (size - 1) // 2) for size in dims)


def edge_list(dims: Sequence[int], axes: Iterable[int]) -> list[tuple[tuple, tuple]]:
    """All edges of the grid ``dims`` in edge-word bit order (see
    :func:`word_to_lines`), each as its lexicographically ordered endpoints."""
    dims = tuple(dims)
    edges: list[tuple[tuple, tuple]] = []
    for a in axes:
        for rest in itertools.product(*map(range, dims[:a] + dims[a + 1 :])):
            line = [rest[:a] + (x,) + rest[a:] for x in range(dims[a])]
            edges += itertools.combinations(line, 2)
    return edges


def word_to_lines(dims: Sequence[int], word: int, axes: Iterable[int]) -> list[list[int]]:
    """Decode an edge word into line masks, ``lines[a][k]`` per axis a and
    vertex k (row-major over ``dims``).

    The word's bits run axis by axis in the order ``axes``; within an axis,
    line by line in lexicographic order of the other coordinates; within a
    line, pair by pair in lexicographic order (one tournament word per line).
    The 2-D edge word above is ``axes=PLANAR_AXES``: row edges, then column
    edges.
    """
    total = math.prod(dims)
    lines = [[0] * total for _ in dims]
    for a in axes:
        size = dims[a]
        stride = math.prod(dims[a + 1 :])
        bits = size * (size - 1) // 2
        for outer in range(0, total, size * stride):
            for base in range(outer, outer + stride):
                lines[a][base : base + size * stride : stride] = _tournament_masks(
                    size, word & ((1 << bits) - 1))
                word >>= bits
    return lines


def _tournament_masks(k: int, word: int) -> list[int]:
    """Out masks of the k vertices of a tournament word: bit e set means the
    e-th pair (a, b), a < b, in lexicographic order points a -> b."""
    out = [0] * k
    for a in range(k - 1):
        for b in range(a + 1, k):
            if word & 1:
                out[a] |= 1 << b
            else:
                out[b] |= 1 << a
            word >>= 1
    return out


def find_violation(
    m: int, n: int, lines: Sequence[Sequence[int]]
) -> tuple[int, int, int] | None:
    """Scan every nonempty subgrid for the unique-sink property.

    ``lines`` is the grid's pair (column lines, row lines).  Returns
    ``(row_mask, col_mask, sink_count)`` for the first offending subgrid, or
    None when the orientation is a USO.  1x1 subgrids are skipped (a single
    vertex is trivially its own sink).
    """
    col_lines, row_lines = lines
    for rmask in range(1, 1 << m):
        rows = _bit_list(rmask)
        for cmask in range(1, 1 << n):
            cols = _bit_list(cmask)
            if len(rows) == 1 and len(cols) == 1:
                continue
            sinks = _sink_count(col_lines, row_lines, n, rmask, rows, cmask, cols)
            if sinks != 1:
                return rmask, cmask, sinks
    return None


def _sink_count(col_lines, row_lines, n: int, rmask: int, rows: list[int],
                cmask: int, cols: list[int]) -> int:
    """Sinks of the subgrid ``rows`` x ``cols`` (with masks R and C): the
    vertices whose column line misses R and whose row line misses C."""
    sinks = 0
    for i in rows:
        for j in cols:
            if not (col_lines[i * n + j] & rmask or row_lines[i * n + j] & cmask):
                sinks += 1
    return sinks


@lru_cache(maxsize=None)
def acyclic_tournament_words(k: int) -> tuple[int, ...]:
    """Edge words of all acyclic tournaments on k vertices, ascending.

    Pair bit order is lexicographic, matching the per-line layout of grid
    edge words.  A tournament is acyclic iff its out-degrees are pairwise
    distinct, i.e. form {0, 1, ..., k-1}.
    """
    return tuple(w for w in range(1 << k * (k - 1) // 2)
                 if len({out.bit_count() for out in _tournament_masks(k, w)}) == k)


def enumerate_uso_words(m: int, n: int) -> list[int]:
    """Edge words of every (m, n)-grid USO, in ascending word order.

    Candidates are assembled from acyclic per-row and per-column tournaments
    (equivalent to requiring a unique sink in every 1xJ and Ix1 subgrid), so
    only subgrids with at least two rows and two columns remain to check.
    """
    rbits = n * (n - 1) // 2
    cbits = m * (m - 1) // 2
    row_words = acyclic_tournament_words(n)
    col_words = acyclic_tournament_words(m)
    row_masks = {t: _tournament_masks(n, t) for t in row_words}
    col_masks = {t: _tournament_masks(m, t) for t in col_words}
    subgrids = [(rmask, _bit_list(rmask), cmask, _bit_list(cmask))
                for rmask in range(1, 1 << m) if rmask & (rmask - 1)
                for cmask in range(1, 1 << n) if cmask & (cmask - 1)]

    # Slot layout, most significant first, so that ascending per-slot
    # iteration yields ascending words: col n-1 .. col 0, row m-1 .. row 0.
    offsets = [m * rbits + j * cbits for j in reversed(range(n))]
    offsets += [i * rbits for i in reversed(range(m))]
    pools = [col_words] * n + [row_words] * m

    words = []
    for parts in itertools.product(*pools):
        row_lines = [mask for t in reversed(parts[n:]) for mask in row_masks[t]]
        col_lines = [0] * (m * n)
        for j, t in enumerate(reversed(parts[:n])):
            col_lines[j::n] = col_masks[t]
        if all(_sink_count(col_lines, row_lines, n, *sub) == 1 for sub in subgrids):
            words.append(sum(part << off for part, off in zip(parts, offsets)))
    return words


def _bit_list(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out
