import random
from itertools import combinations

import pytest

from stabmmi import cli
from stabmmi.gf2 import rank, transpose
from stabmmi.graphs import (
    Graph,
    entropy,
    from_edges,
    from_graph6,
    induced_four_stars,
    local_complement,
    submatrix,
    to_graph6,
    to_json,
)

from oracles import dfs_lc_closure


def k4_star():
    return from_edges(4, [(1, 2), (1, 3), (1, 4)])


def k4112():
    return from_edges(5, [(1, 2), (1, 3), (1, 4), (4, 5)])


def random_graph(rng, n):
    edges = [
        (v, w)
        for v in range(1, n + 1)
        for w in range(v + 1, n + 1)
        if rng.random() < 0.5
    ]
    return from_edges(n, edges)


def test_from_edges_star_adjacency():
    g = k4_star()
    assert g.adj[0] == 0b1110
    for v in range(1, 4):
        assert g.adj[v] == 0b0001
    assert from_edges(3, []).adj == (0, 0, 0)
    # duplicates are idempotent
    assert from_edges(3, [(1, 2), (2, 1), (1, 2)]).edges() == [(1, 2)]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 4)])


def test_graph_invariants_rejected():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # self-loops


def test_local_complement_star_gives_complete_graph():
    star5 = from_edges(5, [(1, v) for v in range(2, 6)])
    k5 = local_complement(star5, 1)
    assert len(k5.edges()) == 10
    assert local_complement(k5, 1) == star5


def test_local_complement_involution():
    rng = random.Random(31)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7))
        a = rng.randint(1, g.n)
        assert local_complement(local_complement(g, a), a) == g


def test_local_complement_isolated_vertex():
    g = from_edges(4, [(2, 3)])
    assert local_complement(g, 1) == g


def test_lc_orbit_fixtures():
    """The LC closure oracle: a lone vertex is its own orbit."""
    assert dfs_lc_closure((0,), 1) == {(0,)}


def test_lc_orbit_of_the_five_star_holds_k5():
    star5 = from_edges(5, [(1, v) for v in range(2, 6)])
    k5 = from_edges(5, list(combinations(range(1, 6), 2)))
    assert k5.adj in dfs_lc_closure(star5.adj, 5)


def test_submatrix_star():
    m = submatrix(k4_star(), 0b1101)  # A = {1, 3, 4}
    assert (m.nrows, m.cols) == (3, 1)
    assert rank(m) == 1
    with pytest.raises(ValueError):
        submatrix(k4_star(), 0)
    with pytest.raises(ValueError):
        submatrix(k4_star(), 0b1111)


def test_submatrix_complement_is_transpose():
    rng = random.Random(33)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        full = (1 << g.n) - 1
        m = rng.randint(1, full - 1)
        assert submatrix(g, full ^ m) == transpose(submatrix(g, m))


def test_k4112_instance_blocks_rank_one():
    # the seven subsystems of the ({1}, {3}, {4,5}) inequality; other
    # subsets (e.g. {1,4}) have rank 2
    g = k4112()
    for m in (0b00001, 0b00100, 0b11000, 0b00101, 0b11001, 0b11100, 0b11101):
        assert rank(submatrix(g, m)) == 1
    assert rank(submatrix(g, 0b01001)) == 2


def test_entropy_fixtures():
    g = k4_star()
    for m in range(1, 15):
        assert entropy(g, m) == 1
    empty = from_edges(4, [])
    assert all(entropy(empty, m) == 0 for m in range(1, 16))
    assert entropy(g, 0b1111) == 0


def test_induced_four_stars():
    assert list(induced_four_stars(k4_star())) == [(1, (2, 3, 4))]
    p4 = from_edges(4, [(1, 2), (2, 3), (3, 4)])
    assert list(induced_four_stars(p4)) == []
    assert (1, (2, 3, 4)) in list(induced_four_stars(k4112()))


def test_graph6_fixtures():
    assert to_graph6(Graph(1, (0,))) == "@"
    g = k4_star()
    assert from_graph6(to_graph6(g)) == g


def test_graph6_round_trips():
    rng = random.Random(35)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 20))
        assert from_graph6(to_graph6(g)) == g


def test_graph6_malformed():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("C")  # truncated body


def test_json_round_trip(tmp_path):
    """to_json writes what the CLI's loader, the one JSON-graph reader, reads back."""
    g = k4112()
    path = tmp_path / "g.json"
    path.write_text(to_json(g))
    assert cli.load_source(str(path)) == g
