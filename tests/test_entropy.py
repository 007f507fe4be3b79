import random
from collections import Counter
from itertools import compress, permutations

import numpy as np
import pytest

from stabmmi import tableau as tabmod
from stabmmi.census import mmi_signs
from stabmmi.entropy import (
    EntropyVector,
    MmiInstance,
    MmiOutcome,
    canonicalize,
    entropy_vector,
    evaluate_mmi,
    instance_signs,
    mmi_instances,
    mmi_table,
    mmi_tally,
)
from stabmmi.graphs import from_edges

from oracles import brute_canonical, mmi_instance_count
from test_tableau import ghz4, phi4, random_tableau


def test_vector_invariants_enforced():
    with pytest.raises(ValueError):
        EntropyVector(2, (1, 1, 1))  # nonzero full-system entropy
    with pytest.raises(ValueError):
        EntropyVector(2, (1, 0, 0))  # complement symmetry broken
    with pytest.raises(ValueError):
        EntropyVector(2, (2, 2, 0))  # more than one bit on one qubit
    with pytest.raises(ValueError):
        EntropyVector(2, (-1, -1, 0))
    EntropyVector(2, (1, 1, 0))


def test_star_vector_is_all_ones():
    star = from_edges(4, [(1, 2), (1, 3), (1, 4)])
    ev = entropy_vector(star)
    assert ev.values[:-1] == (1,) * 14


def test_zero_state_vector():
    ev = entropy_vector(tabmod.zero_state(4))
    assert set(ev.values) == {0}


def test_phi_single_qubit_entropies():
    ev = entropy_vector(phi4())
    assert ev[0b1000] == 0
    assert ev[0b0001] == ev[0b0010] == ev[0b0100] == 1


def test_instance_counts():
    assert len(mmi_instances(3)) == 1
    assert len(mmi_instances(4)) == 10
    assert len(mmi_instances(5)) == 65
    assert len(mmi_table(5, False)) == 40
    assert len(mmi_instances(8)) == 7770
    assert mmi_instances(2) == []
    for n in range(1, 9):
        assert len(mmi_instances(n)) == mmi_instance_count(n, True)
        for flag in (True, False):
            assert len(mmi_table(n, flag)) == mmi_instance_count(n, flag)


def test_instances_are_unique_and_disjoint():
    insts = mmi_instances(5)
    assert len(set(insts)) == len(insts)
    for inst in insts:
        assert inst.i < inst.j < inst.k
        assert not (inst.i & inst.j or inst.i & inst.k or inst.j & inst.k)


def test_instance_canonical_ordering():
    assert MmiInstance(0b100, 0b001, 0b010) == MmiInstance(0b001, 0b010, 0b100)
    with pytest.raises(ValueError):
        MmiInstance(0b011, 0b010, 0b100)


def test_ghz_and_phi_outcomes():
    ev_ghz = entropy_vector(ghz4())
    assert evaluate_mmi(ev_ghz, MmiInstance(1, 2, 4)) is MmiOutcome.FAILS
    tally = mmi_tally(ev_ghz)
    assert tally.as_triple() == (0, 6, 4)
    failing = {
        inst
        for inst in mmi_instances(4)
        if evaluate_mmi(ev_ghz, inst) is MmiOutcome.FAILS
    }
    assert failing == {
        MmiInstance(1, 2, 4),
        MmiInstance(1, 2, 8),
        MmiInstance(1, 4, 8),
        MmiInstance(2, 4, 8),
    }
    ev_phi = entropy_vector(phi4())
    assert all(
        evaluate_mmi(ev_phi, inst) is MmiOutcome.SATURATES for inst in mmi_instances(4)
    )


def test_full_union_instances_saturate():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(3, 6)
        ev = entropy_vector(random_tableau(rng, n))
        full = (1 << n) - 1
        for inst in mmi_instances(n):
            if inst.i | inst.j | inst.k == full:
                assert evaluate_mmi(ev, inst) is MmiOutcome.SATURATES


def test_evaluate_symmetric_in_blocks():
    rng = random.Random(42)
    for _ in range(20):
        ev = entropy_vector(random_tableau(rng, 5))
        for inst in mmi_instances(5):
            outs = {
                evaluate_mmi(ev, MmiInstance(a, b, c))
                for a, b, c in permutations((inst.i, inst.j, inst.k))
            }
            assert len(outs) == 1


def test_tally_sums():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randint(3, 6)
        ev = entropy_vector(random_tableau(rng, n))
        assert sum(mmi_tally(ev).as_triple()) == len(mmi_instances(n))
        assert len(instance_signs(ev, False)) == len(mmi_table(n, False))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_vectorised_tally_matches_evaluate_mmi(n):
    """mmi_signs and mmi_tally agree with the per-instance evaluate_mmi; on
    stacked uint8 value rows, as the censuses pass them, each row of signs is
    that of its vector alone.  Without the full union, instance_signs keeps
    the signs of the instances that leave a qubit out."""
    rng = random.Random(46 + n)
    evs = [entropy_vector(random_tableau(rng, n)) for _ in range(4)]
    instances = mmi_instances(n)
    partial = [inst.i | inst.j | inst.k != (1 << n) - 1 for inst in instances]
    stacked = mmi_signs(np.array([ev.values for ev in evs], dtype=np.uint8))
    assert stacked.shape == (len(evs), len(instances))
    for ev, row in zip(evs, stacked.tolist()):
        outcomes = [evaluate_mmi(ev, inst) for inst in instances]
        signs = mmi_signs(ev.values).tolist()
        assert [MmiOutcome.of_sign(s) for s in signs] == outcomes
        assert row == signs
        counts = Counter(outcomes)
        assert mmi_tally(ev).as_triple() == tuple(counts[o] for o in MmiOutcome)
        assert instance_signs(ev, False) == list(compress(signs, partial))


def test_canonicalize_idempotent():
    rng = random.Random(44)
    for _ in range(20):
        ev = entropy_vector(random_tableau(rng, rng.randint(2, 5)))
        canon = canonicalize(ev)
        assert canonicalize(canon) == canon


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_canonicalize_matches_brute_force(n):
    """Random sparse graphs have few symmetries, so their relabeling orbits
    are large; at n = 7 the brute-force loop visits all 5,040 relabelings."""
    rng = random.Random(45 + n)
    for _ in range(2 if n == 7 else 6):
        pairs = [(v, w) for v in range(1, n + 1) for w in range(v + 1, n + 1)]
        ev = entropy_vector(from_edges(n, [e for e in pairs if rng.random() < 0.35]))
        assert canonicalize(ev).values == brute_canonical(n, ev.values)
    ev = entropy_vector(random_tableau(rng, n))
    assert canonicalize(ev).values == brute_canonical(n, ev.values)


def test_star_labelings_share_canonical_vector():
    vectors = set()
    for center in range(1, 5):
        leaves = [v for v in range(1, 5) if v != center]
        star = from_edges(4, [(center, leaf) for leaf in leaves])
        vectors.add(canonicalize(entropy_vector(star)).values)
    assert len(vectors) == 1


def test_json_round_trip():
    ev = entropy_vector(ghz4())
    assert ev.to_json() == entropy_vector(ghz4()).to_json()
