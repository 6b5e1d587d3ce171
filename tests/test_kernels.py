"""The kernels' edge-word conventions and the validator's scan order."""

import hashlib
import math
import random

import pytest

from usogrid import kernels
from usogrid.dgrid import DOrientedGrid, validate_uso_ddim
from usogrid.grid import GridShape, OrientedGrid, validate_uso


def test_edge_count_matches_edge_list():
    for m in range(1, 5):
        for n in range(1, 5):
            assert len(kernels.edge_list((m, n), (1, 0))) == kernels.edge_count(m, n)


def test_edge_list_convention():
    edges = kernels.edge_list((2, 3), (1, 0))
    # row edges of row 0 first, then row 1, then column edges by column
    assert edges[0] == ((0, 0), (0, 1))
    assert edges[1] == ((0, 0), (0, 2))
    assert edges[2] == ((0, 1), (0, 2))
    assert edges[3] == ((1, 0), (1, 1))
    assert edges[6] == ((0, 0), (1, 0))
    assert edges[-1] == ((0, 2), (1, 2))


@pytest.mark.parametrize("dims, axes, digest", [
    ((1, 1), (1, 0), "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ((1, 1), (0, 1), "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ((1, 4), (1, 0), "6950fca010da6ea3774b89a3ae6578d01a3d714d0c1a2f5730b2fb4ad0cbd7ef"),
    ((1, 4), (0, 1), "6950fca010da6ea3774b89a3ae6578d01a3d714d0c1a2f5730b2fb4ad0cbd7ef"),
    ((3, 2), (1, 0), "bfaf8accc2614f059f75c8b63fdf9318a06e345e322bbe2ed50df552751a6e8c"),
    ((3, 2), (0, 1), "e1fd52e424f05930e59a8bf2fef6077614fd67b06e7cd26ff43db5ee862f6c4c"),
    ((2, 3), (1, 0), "095599d728ce411d49ebfe2595a66d1d42671be5305ab524d278e1f8a135eae5"),
    ((2, 3), (0, 1), "0b90905c1087dbd5502f9afc82220dc1a8132e6a2e44db8f5db054d6498a76b8"),
    ((2, 3, 2), (0, 1, 2), "0b4d6f5c65d2cd91f4be0b9670321a6013e9e946df1a3a1b885eb946d263949f"),
    ((2, 1, 3), (0, 1, 2), "52a6d1dbe845888bd2c0dd25ef0407fa426ff33647b84532662b6569658e6da9"),
    ((5,), (0,), "668d9f919aa73ab0aff85aca69c3d35406cc9652b49e248f71bbef7e2a11dd51"),
])
def test_edge_orders_are_frozen(dims, axes, digest):
    # The 2-D order (1, 0) numbers kernel edge words and "shape" files; the
    # axis order 0..d-1 numbers d-dimensional edge words and "dims" files.
    edges = kernels.edge_list(dims, axes)
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest


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
        for u, w in kernels.edge_list((m, n), (1, 0)):
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
    for u, w in kernels.edge_list((m, n), (1, 0)):
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
                for e, (a, b) in enumerate(kernels.edge_list((m, n), (1, 0)))]
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
                for e, (a, b) in enumerate(kernels.edge_list((m, n), (1, 0)))]
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
