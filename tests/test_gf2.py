import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from stabmmi import gf2
from stabmmi.gf2 import (
    BitMatrix,
    Subspace,
    intersect,
    is_distributive,
    rank,
    rref,
    sum_spaces,
)

from oracles import brute_intersection, brute_sum, naive_rank


def transpose(m: BitMatrix) -> BitMatrix:
    cols = []
    for j in range(m.cols):
        cols.append(sum(((r >> j) & 1) << i for i, r in enumerate(m.rows)))
    return BitMatrix(tuple(cols), m.nrows)


def column_space(m: BitMatrix) -> Subspace:
    return Subspace(m.nrows, transpose(m))


def triple_intersect(u: Subspace, v: Subspace, w: Subspace) -> Subspace:
    return intersect(intersect(u, v), w)


def random_matrix(rng, rows, cols):
    return BitMatrix(tuple(rng.getrandbits(cols) for _ in range(rows)), cols)


def unpack(m):
    return [[(row >> j) & 1 for j in range(m.cols)] for row in m.rows]


def test_rank_zero_matrix():
    assert rank(BitMatrix.zero(3, 4)) == 0


def test_rank_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, 8, 8)
        assert rank(m) == naive_rank(unpack(m))


def test_rank_equals_rank_of_transpose():
    rng = random.Random(12)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 9))
        assert rank(m) == rank(transpose(m))


def test_rref_identity():
    ident = BitMatrix.identity(4)
    reduced, pivots = rref(ident)
    assert reduced == ident
    assert pivots == [0, 1, 2, 3]


def test_rref_duplicate_row():
    reduced, pivots = rref(BitMatrix((0b11, 0b11), 2))
    assert reduced.rows == (0b11,)
    assert pivots == [0]


def test_rref_preserves_row_space():
    rng = random.Random(13)
    for _ in range(50):
        m = random_matrix(rng, 6, 10)
        reduced, pivots = rref(m)
        space = Subspace(10, m)
        back = Subspace(10, reduced)
        # mutual membership of every row
        assert set(m.rows) <= set(back.elements())
        assert set(reduced.rows) <= set(space.elements())
        assert pivots == sorted(pivots)


def test_column_space_examples():
    assert column_space(BitMatrix.zero(3, 2)).dim == 0
    single = column_space(BitMatrix((1,), 1))
    assert single.dim == 1 and single.ambient == 1
    rng = random.Random(14)
    for _ in range(50):
        m = random_matrix(rng, 5, 6)
        space = column_space(m)
        t = transpose(m)
        assert set(t.rows) <= set(space.elements())
        assert space.dim == rank(m)


def test_subspace_canonical_equality():
    a = Subspace.span(3, [0b011, 0b101])
    b = Subspace.span(3, [0b110, 0b011])
    assert a == b
    assert hash(a) == hash(b)


def test_sum_with_zero_is_identity():
    u = Subspace.span(5, [0b10011, 0b00110])
    assert sum_spaces(u, Subspace(5)) == u


def test_sum_intersect_match_brute_force():
    rng = random.Random(15)
    for _ in range(120):
        ambient = rng.randint(1, 12)
        gens_u = [rng.getrandbits(ambient) for _ in range(rng.randint(0, 4))]
        gens_v = [rng.getrandbits(ambient) for _ in range(rng.randint(0, 4))]
        u = Subspace.span(ambient, gens_u)
        v = Subspace.span(ambient, gens_v)
        assert set(sum_spaces(u, v).elements()) == brute_sum(ambient, gens_u, gens_v)
        assert set(intersect(u, v).elements()) == brute_intersection(
            ambient, gens_u, gens_v
        )


def test_dimension_formula():
    rng = random.Random(16)
    for _ in range(300):
        ambient = rng.randint(1, 10)
        u = Subspace.span(ambient, [rng.getrandbits(ambient) for _ in range(4)])
        v = Subspace.span(ambient, [rng.getrandbits(ambient) for _ in range(4)])
        assert sum_spaces(u, v).dim + intersect(u, v).dim == u.dim + v.dim


def test_intersection_idempotent():
    u = Subspace.span(6, [0b000111, 0b101010])
    assert intersect(u, u) == u


def test_intersection_is_contained_in_both():
    rng = random.Random(17)
    for _ in range(100):
        ambient = rng.randint(2, 9)
        u = Subspace.span(ambient, [rng.getrandbits(ambient) for _ in range(3)])
        v = Subspace.span(ambient, [rng.getrandbits(ambient) for _ in range(3)])
        w = Subspace.span(ambient, [rng.getrandbits(ambient) for _ in range(3)])
        # inclusion: (U∩W + V∩W) ⊆ (U+V)∩W
        lhs = sum_spaces(intersect(u, w), intersect(v, w))
        rhs = intersect(sum_spaces(u, v), w)
        assert set(lhs.basis.rows) <= set(rhs.elements())
        # dim(U∩W) + dim(V∩W) − dim(U∩V∩W) ≤ dim((U+V)∩W)
        assert (
            intersect(u, w).dim + intersect(v, w).dim - triple_intersect(u, v, w).dim
            <= rhs.dim
        )


def _spaces_st():
    w1 = Subspace.span(6, [0b000001, 0b000010])  # <e1, e2>
    w2 = Subspace.span(6, [0b000001, 0b000100])  # <e1, e3>
    w3 = Subspace.span(6, [0b000001, 0b000110])  # <e1, e2+e3>
    return w1, w2, w3


def _spaces_f():
    w1 = Subspace.span(6, [0b000001, 0b000100, 0b001000])  # <e1, e3, e4>
    w2 = Subspace.span(6, [0b000010, 0b000100, 0b001000])  # <e2, e3, e4>
    w3 = Subspace.span(6, [0b000011, 0b000100, 0b001000])  # <e1+e2, e3, e4>
    return w1, w2, w3


def _spaces_s():
    w1 = Subspace.span(6, [0b000001, 0b000010, 0b000100, 0b010000])
    w2 = Subspace.span(6, [0b000001, 0b000010, 0b001000, 0b100000])
    w3 = Subspace.span(6, [0b000011, 0b001100, 0b110000])
    return w1, w2, w3


def test_saturating_construction_dims():
    w1, w2, w3 = _spaces_st()
    assert sum_spaces(w1, w2) == Subspace.span(6, [1, 2, 4])
    assert intersect(w1, w3) == Subspace.span(6, [1])
    assert intersect(w1, w3).dim == 1
    assert intersect(w2, w3).dim == 1
    assert intersect(sum_spaces(w1, w2), w3).dim == 2


def test_failing_construction_is_not_distributive():
    w1, w2, w3 = _spaces_f()
    assert not is_distributive(w1, w2, w3)
    assert intersect(w1, w3).dim + intersect(w2, w3).dim == 4
    assert intersect(sum_spaces(w1, w2), w3).dim == 3


def test_satisfying_construction_dims():
    w1, w2, w3 = _spaces_s()
    assert intersect(w1, w3).dim + intersect(w2, w3).dim == 2
    assert intersect(sum_spaces(w1, w2), w3).dim == 3


def test_distributive_with_zero_space():
    u = Subspace.span(4, [0b0011])
    v = Subspace.span(4, [0b0101])
    assert is_distributive(u, v, Subspace(4))


# intersect() results that make the first two arrangements of
# is_distributive disagree: 0 + 0 == 0, then 0 + 0 == a line
DISAGREEING = """
from stabmmi import gf2
zero, line = gf2.Subspace(2), gf2.Subspace.span(2, [1])
answers = iter([zero, zero, zero, zero, zero, line, zero, zero, zero])
gf2.intersect = lambda a, b: next(answers)
try:
    gf2.is_distributive(zero, zero, zero)
except AssertionError as exc:
    print(__debug__, exc)
"""


def test_distributive_disagreement_raises(monkeypatch):
    zero, line = Subspace(2), Subspace.span(2, [1])
    answers = iter([zero, zero, zero, zero, zero, line, zero, zero, zero])
    monkeypatch.setattr(gf2, "intersect", lambda a, b: next(answers))
    with pytest.raises(AssertionError, match="disagreed"):
        is_distributive(zero, zero, zero)


def test_distributive_disagreement_raises_under_optimize():
    src = Path(gf2.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DISAGREEING],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == "False distributivity disagreed across permutations\n", proc.stderr


def test_distributive_for_disjoint_basis_subsets():
    rng = random.Random(18)
    for _ in range(100):
        ambient = rng.randint(3, 10)
        coords = list(range(ambient))
        rng.shuffle(coords)
        cut1 = rng.randint(0, ambient)
        cut2 = rng.randint(cut1, ambient)
        u = Subspace.span(ambient, [1 << c for c in coords[:cut1]])
        v = Subspace.span(ambient, [1 << c for c in coords[cut1:cut2]])
        w = Subspace.span(ambient, [1 << c for c in coords[cut2:]])
        assert is_distributive(u, v, w)


def test_distributive_agrees_across_permutations():
    # is_distributive internally asserts agreement of all three arrangements;
    # exercise it broadly so any disagreement would surface as AssertionError.
    rng = random.Random(19)
    for _ in range(500):
        ambient = rng.randint(1, 8)
        spaces = [
            Subspace.span(ambient, [rng.getrandbits(ambient) for _ in range(rng.randint(0, 3))])
            for _ in range(3)
        ]
        is_distributive(*spaces)


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        sum_spaces(Subspace(3), Subspace(4))
    with pytest.raises(ValueError):
        intersect(Subspace(3), Subspace(4))
