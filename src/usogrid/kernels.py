"""The hot loops: subgrid validation and exhaustive USO enumeration.

Pure Python over unbounded integer bitmasks, so no grid size is too wide
for a mask.  Conventions:

* Vertex (i, j) of an (m, n) grid has index ``v = i*n + j``.  An orientation
  is a sequence of ``m*n`` bitmasks where bit w of ``out[v]`` is set iff the
  edge v-w points from v to w.
* Edges are numbered row edges first, then column edges::

      row edges     (i, j1)-(i, j2)   i = 0..m-1, pairs (j1, j2) lexicographic
      column edges  (i1, j)-(i2, j)   j = 0..n-1, pairs (i1, i2) lexicographic

  Bit e of an "edge word" is 1 iff edge e points from its lexicographically
  smaller endpoint to the larger one.
* Subgrids are scanned in ascending ``(row_mask, col_mask)`` order;
  ``find_violation`` reports the first subgrid whose sink count is not one.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

Vertex = tuple[int, int]


def implementation() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "pure"


def edge_count(m: int, n: int) -> int:
    return m * (n * (n - 1) // 2) + n * (m * (m - 1) // 2)


def edge_list(m: int, n: int) -> list[tuple[Vertex, Vertex]]:
    """All edges of the (m, n) grid in edge-word bit order."""
    edges: list[tuple[Vertex, Vertex]] = []
    for i in range(m):
        for j1 in range(n - 1):
            for j2 in range(j1 + 1, n):
                edges.append(((i, j1), (i, j2)))
    for j in range(n):
        for i1 in range(m - 1):
            for i2 in range(i1 + 1, m):
                edges.append(((i1, j), (i2, j)))
    return edges


def word_to_out_masks(m: int, n: int, word: int) -> list[int]:
    """Decode an edge word into per-vertex out-neighbour bitmasks."""
    out = [0] * (m * n)
    e = 0
    for i in range(m):
        base = i * n
        for j1 in range(n - 1):
            for j2 in range(j1 + 1, n):
                if word >> e & 1:
                    out[base + j1] |= 1 << (base + j2)
                else:
                    out[base + j2] |= 1 << (base + j1)
                e += 1
    for j in range(n):
        for i1 in range(m - 1):
            for i2 in range(i1 + 1, m):
                if word >> e & 1:
                    out[i1 * n + j] |= 1 << (i2 * n + j)
                else:
                    out[i2 * n + j] |= 1 << (i1 * n + j)
                e += 1
    return out


def _col_selectors(m: int, n: int) -> list[int]:
    """Vertex mask of each single column."""
    col = []
    for j in range(n):
        mask = 0
        for i in range(m):
            mask |= 1 << (i * n + j)
        col.append(mask)
    return col


def find_violation(
    m: int, n: int, out_masks: Sequence[int]
) -> tuple[int, int, int] | None:
    """Scan every nonempty subgrid for the unique-sink property.

    Returns ``(row_mask, col_mask, sink_count)`` for the first offending
    subgrid, or None when the orientation is a USO.  1x1 subgrids are skipped
    (a single vertex is trivially its own sink).
    """
    full_row = (1 << n) - 1
    singles = _col_selectors(m, n)
    # csel[c] = union of column masks selected by bitmask c, built by DP.
    csel = [0] * (1 << n)
    for c in range(1, 1 << n):
        low = c & -c
        csel[c] = csel[c ^ low] | singles[low.bit_length() - 1]
    for rmask in range(1, 1 << m):
        rsel = 0
        t = rmask
        while t:
            i = (t & -t).bit_length() - 1
            rsel |= full_row << (i * n)
            t &= t - 1
        row_single = rmask & (rmask - 1) == 0
        for cmask in range(1, 1 << n):
            if row_single and cmask & (cmask - 1) == 0:
                continue
            sub = rsel & csel[cmask]
            sinks = 0
            t = sub
            while t:
                v = (t & -t).bit_length() - 1
                if not out_masks[v] & sub:
                    sinks += 1
                t &= t - 1
            if sinks != 1:
                return rmask, cmask, sinks
    return None


@lru_cache(maxsize=None)
def acyclic_tournament_words(k: int) -> tuple[int, ...]:
    """Edge words of all acyclic tournaments on k vertices, ascending.

    Pair bit order is lexicographic, matching the per-line layout of grid
    edge words.  A tournament is acyclic iff its out-degrees are pairwise
    distinct, i.e. form {0, 1, ..., k-1}.
    """
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    words = []
    for w in range(1 << len(pairs)):
        outdeg = [0] * k
        for e, (a, b) in enumerate(pairs):
            if w >> e & 1:
                outdeg[a] += 1
            else:
                outdeg[b] += 1
        if len(set(outdeg)) == k:
            words.append(w)
    return tuple(words)


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

    full_row = (1 << n) - 1
    singles = _col_selectors(m, n)
    subgrids = []  # (rsel, csel) for |I| >= 2 and |J| >= 2
    for rmask in range(1, 1 << m):
        if rmask & (rmask - 1) == 0:
            continue
        rsel = 0
        t = rmask
        while t:
            rsel |= full_row << (((t & -t).bit_length() - 1) * n)
            t &= t - 1
        for cmask in range(1, 1 << n):
            if cmask & (cmask - 1) == 0:
                continue
            sel = 0
            t = cmask
            while t:
                sel |= singles[(t & -t).bit_length() - 1]
                t &= t - 1
            subgrids.append((rsel, sel))

    # Slot layout, most significant first, so that ascending per-slot
    # iteration yields ascending words: col n-1 .. col 0, row m-1 .. row 0.
    offsets = [m * rbits + j * cbits for j in reversed(range(n))]
    offsets += [i * rbits for i in reversed(range(m))]
    pools = [col_words] * n + [row_words] * m

    words = []
    for parts in itertools.product(*pools):
        word = 0
        for part, off in zip(parts, offsets):
            word |= part << off
        out = word_to_out_masks(m, n, word)
        ok = True
        for rsel, sel in subgrids:
            sub = rsel & sel
            sinks = 0
            t = sub
            while t:
                v = (t & -t).bit_length() - 1
                if not out[v] & sub:
                    sinks += 1
                    if sinks > 1:
                        break
                t &= t - 1
            if sinks != 1:
                ok = False
                break
        if ok:
            words.append(word)
    return words
