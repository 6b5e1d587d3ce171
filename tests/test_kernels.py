"""The kernels' edge-word conventions and the validator's scan order."""

import math
import random

from usogrid import kernels
from usogrid.dgrid import DOrientedGrid, validate_uso_ddim
from usogrid.grid import GridShape, OrientedGrid, validate_uso


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


def _empty_lines(m, n):
    """(column lines, row lines) of an m x n grid with no edge marked yet."""
    return [0] * (m * n), [0] * (m * n)


def _point(lines, n, tail, head):
    """Mark the edge tail -> head in a line-mask pair of an (m, n) grid."""
    axis = 1 if tail[0] == head[0] else 0
    lines[axis][tail[0] * n + tail[1]] |= 1 << head[axis]


def test_word_decoding_orients_every_edge_once():
    m, n = 3, 2
    for word in (0, 5, (1 << kernels.edge_count(m, n)) - 1):
        lines = kernels.word_to_lines((m, n), word, (1, 0))
        for u, w in kernels.edge_list(m, n):
            axis = 1 if u[0] == w[0] else 0
            forward = lines[axis][u[0] * n + u[1]] >> w[axis] & 1
            backward = lines[axis][w[0] * n + w[1]] >> u[axis] & 1
            assert forward + backward == 1


def test_acyclic_tournament_words_are_factorials():
    # labelled transitive tournaments = linear orders
    for k in range(1, 5):
        assert len(kernels.acyclic_tournament_words(k)) == math.factorial(k)


def test_find_violation_none_on_sorted_values():
    # strictly increasing by row and column: separable, hence a USO
    m, n = 3, 4
    lines = _empty_lines(m, n)
    for u, w in kernels.edge_list(m, n):
        _point(lines, n, w, u)  # u < w in value order
    assert kernels.find_violation(m, n, lines) is None


def test_find_violation_reports_first_subgrid():
    # 2x2 directed 4-cycle: the only offending subgrid is the whole grid
    lines = _empty_lines(2, 2)
    for tail, head in [((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0)),
                       ((1, 0), (0, 0))]:
        _point(lines, 2, tail, head)
    assert kernels.find_violation(2, 2, lines) == (0b11, 0b11, 0)


def test_pure_handles_masks_beyond_64_bits():
    # 1x17 line, oriented as a linear order: every subset has a unique sink
    n = 17
    lines = _empty_lines(1, n)
    for a in range(n):
        for b in range(a + 1, n):
            _point(lines, n, (0, b), (0, a))
    assert kernels.find_violation(1, n, lines) is None
    row = lines[1]
    row[0] |= 1 << 2  # flip edge 0-2: makes 0 -> 2 -> 1 -> 0 a 3-cycle
    row[2] &= ~1
    assert kernels.find_violation(1, n, lines) is not None


def _first_violation_by_edge_word(m: int, n: int, word: int):
    """Reference scan straight from the edge word: direct every edge by its
    bit, then count the vertices of each subgrid, in ascending (row_mask,
    col_mask) order, that have no edge leaving them inside the subgrid."""
    directed = [(a, b) if word >> e & 1 else (b, a)
                for e, (a, b) in enumerate(kernels.edge_list(m, n))]
    for rmask in range(1, 1 << m):
        for cmask in range(1, 1 << n):
            def inside(v):
                return rmask >> v[0] & 1 and cmask >> v[1] & 1

            tails = {t for t, h in directed if inside(t) and inside(h)}
            sinks = sum(1 for i in range(m) for j in range(n)
                        if inside((i, j)) and (i, j) not in tails)
            if sinks != 1:
                return rmask, cmask, sinks
    return None


def test_find_violation_matches_restrict_on_random_words():
    rng = random.Random(7)
    for m, n in [(2, 2), (3, 3), (4, 3), (2, 5), (4, 4)]:
        bits = kernels.edge_count(m, n)
        for _ in range(200):
            word = rng.getrandbits(bits)
            g = OrientedGrid.from_edge_word(m, n, word)
            assert kernels.find_violation(m, n, g.lines) == _first_violation_by_edge_word(
                m, n, word)


def _violation_pair(m: int, n: int, word: int):
    """validate_uso on the OrientedGrid of an edge word and validate_uso_ddim
    on the 2-axis DOrientedGrid built from the same directed edges."""
    directed = [(a, b) if word >> e & 1 else (b, a)
                for e, (a, b) in enumerate(kernels.edge_list(m, n))]
    planar = validate_uso(OrientedGrid(GridShape(m, n), directed))
    ddim = validate_uso_ddim(DOrientedGrid((m, n), directed))
    return (
        None if planar is None else (planar.rows, planar.cols, planar.sink_count),
        None if ddim is None else (*ddim.subsets, ddim.sink_count),
    )


def test_2d_and_ddim_validators_agree():
    words = [(2, 3, w) for w in range(1 << kernels.edge_count(2, 3))]
    rng = random.Random(11)
    for m, n in [(3, 3), (4, 3)]:
        words += [(m, n, rng.getrandbits(kernels.edge_count(m, n))) for _ in range(300)]
    verdicts = set()
    for m, n, word in words:
        planar, ddim = _violation_pair(m, n, word)
        assert planar == ddim, (m, n, word)
        verdicts.add(planar is None)
    assert verdicts == {True, False}


def test_dispatcher_reports_implementation():
    assert kernels.implementation() == "pure"
