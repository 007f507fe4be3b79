import random

import pytest

from stabmmi import graphs as graphmod
from stabmmi.gf2 import BitMatrix, Subspace, rank
from stabmmi.tableau import (
    Tableau,
    apply_cnot,
    apply_cz,
    apply_h,
    apply_s,
    entropy,
    from_graph,
    parse_tableau,
    project,
    rank_vector,
    zero_state,
)

from oracles import random_adjacency


def ghz4():
    t = zero_state(4)
    t = apply_h(t, 3)
    for target in (1, 2, 4):
        t = apply_cnot(t, 3, target)
    return t


def phi4():
    return apply_cnot(ghz4(), 3, 4)


def random_tableau(rng, n):
    t = zero_state(n)
    for _ in range(rng.randint(5, 25)):
        kind = rng.randint(0, 3)
        a = rng.randint(1, n)
        if kind == 0:
            t = apply_h(t, a)
        elif kind == 1:
            t = apply_s(t, a)
        else:
            b = rng.randint(1, n)
            if b == a:
                b = a % n + 1
            t = apply_cnot(t, a, b) if kind == 2 else apply_cz(t, a, b)
    return t


def row_space(t):
    n = t.n
    return Subspace(
        2 * n,
        BitMatrix(tuple(xr | (zr << n) for xr, zr in zip(t.x.rows, t.z.rows)), 2 * n),
    )


def test_zero_state():
    t = zero_state(3)
    assert t.x.rows == (0, 0, 0)
    assert t.z == BitMatrix.identity(3)
    with pytest.raises(ValueError):
        zero_state(0)


def test_zero_state_entropies_vanish():
    t = zero_state(4)
    assert all(entropy(t, m) == 0 for m in range(1, 16))


def test_ghz4_stabilizer_group():
    # row space must match <XXXX, ZZII, IZZI, IIZZ>
    expected = Tableau(
        4,
        BitMatrix((0b1111, 0, 0, 0), 4),
        BitMatrix((0, 0b0011, 0b0110, 0b1100), 4),
    )
    assert row_space(ghz4()) == row_space(expected)


def test_phi4_stabilizer_group():
    # <XXXI, ZZII, IZZI, IIIZ>
    expected = Tableau(
        4,
        BitMatrix((0b0111, 0, 0, 0), 4),
        BitMatrix((0, 0b0011, 0b0110, 0b1000), 4),
    )
    assert row_space(phi4()) == row_space(expected)


def test_h_involution():
    rng = random.Random(21)
    for _ in range(30):
        t = random_tableau(rng, 5)
        a = rng.randint(1, 5)
        assert apply_h(apply_h(t, a), a) == t


def test_cz_symmetric_and_involutive():
    rng = random.Random(22)
    for _ in range(30):
        t = random_tableau(rng, 5)
        a, b = rng.sample(range(1, 6), 2)
        assert apply_cz(t, a, b) == apply_cz(t, b, a)
        assert apply_cz(apply_cz(t, a, b), a, b) == t


def test_cz_on_plus_pair_entangles():
    t = zero_state(2)
    t = apply_h(t, 1)
    t = apply_h(t, 2)
    t = apply_cz(t, 1, 2)
    assert entropy(t, 0b01) == 1


def test_gate_index_errors():
    t = zero_state(3)
    with pytest.raises(IndexError):
        apply_h(t, 4)
    with pytest.raises(ValueError):
        apply_cnot(t, 2, 2)
    with pytest.raises(ValueError):
        apply_cz(t, 1, 1)


def test_project_ranks_for_instance_family():
    mask_123 = 0b0111
    assert rank(project(phi4(), mask_123)) == 3
    assert rank(project(ghz4(), mask_123)) == 4
    t = zero_state(5)
    for m in range(1, 32):
        assert rank(project(t, m)) == bin(m).count("1")
    with pytest.raises(ValueError):
        project(t, 0)


def test_entropy_fixtures():
    assert entropy(ghz4(), 0b0111) == 1
    assert entropy(phi4(), 0b0111) == 0
    assert entropy(ghz4(), 0b1111) == 0


def test_rank_vector_fixtures():
    masks = [0b0001, 0b0010, 0b0100, 0b0011, 0b0101, 0b0110, 0b0111]
    rv = rank_vector(phi4())
    assert [rv[m] for m in masks] == [2, 2, 2, 3, 3, 3, 3]
    rv = rank_vector(ghz4())
    assert [rv[m] for m in masks] == [2, 2, 2, 3, 3, 3, 4]
    rv = rank_vector(zero_state(3))
    assert all(rv[m] == bin(m).count("1") for m in range(1, 8))


def test_complement_rank_identity():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 6)
        t = random_tableau(rng, n)
        full = (1 << n) - 1
        for m in range(1, full):
            a = bin(m).count("1")
            assert rank(project(t, m)) - rank(project(t, full ^ m)) == a - (n - a)
            assert entropy(t, m) == entropy(t, full ^ m)


def test_from_graph_matches_adjacency_entropy():
    rng = random.Random(24)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = graphmod.Graph(n, random_adjacency(rng, n))
        t = from_graph(g)
        for m in range(1, (1 << n) - 1):
            assert entropy(t, m) == graphmod.entropy(g, m)


def test_graph_state_by_cz_construction():
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randint(2, 6)
        g = graphmod.Graph(n, random_adjacency(rng, n))
        t = zero_state(n)
        for q in range(1, n + 1):
            t = apply_h(t, q)
        for u, v in g.edges():
            t = apply_cz(t, u, v)
        direct = from_graph(g)
        for m in range(1, 1 << n):
            assert entropy(t, m) == entropy(direct, m)


def test_invariants_rejected():
    with pytest.raises(ValueError):
        # X1 and Z1 anticommute
        Tableau(2, BitMatrix((0b01, 0b00), 2), BitMatrix((0b00, 0b01), 2))
    with pytest.raises(ValueError):
        # dependent generators
        Tableau(2, BitMatrix((0b01, 0b01), 2), BitMatrix((0, 0), 2))


def test_text_round_trip():
    rng = random.Random(26)
    for _ in range(20):
        t = random_tableau(rng, 4)
        # n rows of 2n '0'/'1' characters: X block then Z block
        rows = [
            "".join(str((row >> j) & 1) for row in (xr, zr) for j in range(4))
            for xr, zr in zip(t.x.rows, t.z.rows)
        ]
        assert parse_tableau(rows) == t
    for bad in (["01", "10"], ["1000\n0100"], ["1000", "", "0100"], [" 1000 ", "0100"], []):
        with pytest.raises(ValueError):
            parse_tableau(bad)
