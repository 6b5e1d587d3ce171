"""The kernels' edge-word conventions and the validator's scan order."""

import math
import random

from usogrid import kernels
from usogrid.grid import OrientedGrid


def test_edge_count_matches_edge_list():
    for m in range(1, 5):
        for n in range(1, 5):
            assert len(kernels.edge_list(m, n)) == kernels.edge_count(m, n)


def test_edge_list_convention():
    edges = kernels.edge_list(2, 3)
    # row edges of row 0 first, then row 1, then column edges by column
    assert edges[0] == ((0, 0), (0, 1))
    assert edges[1] == ((0, 0), (0, 2))
    assert edges[2] == ((0, 1), (0, 2))
    assert edges[3] == ((1, 0), (1, 1))
    assert edges[6] == ((0, 0), (1, 0))
    assert edges[-1] == ((0, 2), (1, 2))


def test_word_decoding_orients_every_edge_once():
    m, n = 3, 2
    for word in (0, 5, (1 << kernels.edge_count(m, n)) - 1):
        out = kernels.word_to_out_masks(m, n, word)
        for (i1, j1), (i2, j2) in kernels.edge_list(m, n):
            u, w = i1 * n + j1, i2 * n + j2
            assert (out[u] >> w & 1) + (out[w] >> u & 1) == 1


def test_acyclic_tournament_words_are_factorials():
    # labelled transitive tournaments = linear orders
    for k in range(1, 5):
        assert len(kernels.acyclic_tournament_words(k)) == math.factorial(k)


def test_find_violation_none_on_sorted_values():
    # strictly increasing by row and column: separable, hence a USO
    m, n = 3, 4
    out = [0] * (m * n)
    for (i1, j1), (i2, j2) in kernels.edge_list(m, n):
        u, w = i1 * n + j1, i2 * n + j2  # u < w in value order
        out[w] |= 1 << u
    assert kernels.find_violation(m, n, out) is None


def test_find_violation_reports_first_subgrid():
    # 2x2 directed 4-cycle: the only offending subgrid is the whole grid
    word = 0
    out = kernels.word_to_out_masks(2, 2, word)
    # craft the cycle explicitly: (0,0)->(0,1)->(1,1)->(1,0)->(0,0)
    out = [0] * 4
    out[0] = 1 << 1
    out[1] = 1 << 3
    out[3] = 1 << 2
    out[2] = 1 << 0
    assert kernels.find_violation(2, 2, out) == (0b11, 0b11, 0)


def test_pure_handles_masks_beyond_64_bits():
    # 1x17 line, oriented as a linear order: every subset has a unique sink
    n = 17
    out = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            out[b] |= 1 << a
    assert kernels.find_violation(1, n, out) is None
    out[0] |= 1 << 2  # flip edge 0-2: makes 0 -> 2 -> 1 -> 0 a 3-cycle
    out[2] &= ~1
    assert kernels.find_violation(1, n, out) is not None


def _first_violation_by_restrict(g: OrientedGrid):
    """Reference scan: recount sinks on every restricted subgrid in
    ascending (row_mask, col_mask) order."""
    m, n = g.shape.rows, g.shape.cols
    for rmask in range(1, 1 << m):
        for cmask in range(1, 1 << n):
            sub = g.restrict(
                [r for r in range(m) if rmask >> r & 1],
                [c for c in range(n) if cmask >> c & 1],
            )
            sinks = sum(sub.is_sink(v) for v in sub.shape.vertices())
            if sinks != 1:
                return rmask, cmask, sinks
    return None


def test_find_violation_matches_restrict_on_random_words():
    rng = random.Random(7)
    for m, n in [(2, 2), (3, 3), (4, 3), (2, 5), (4, 4)]:
        bits = kernels.edge_count(m, n)
        for _ in range(200):
            g = OrientedGrid.from_edge_word(m, n, rng.getrandbits(bits))
            assert kernels.find_violation(m, n, g._out) == _first_violation_by_restrict(g)


def test_dispatcher_reports_implementation():
    assert kernels.implementation() == "pure"
