import functools
import itertools
import json
import random

import pytest

from stabmmi import gf2
from stabmmi import graphs as graphmod
from stabmmi.entropy import EntropyVector, MmiInstance, MmiOutcome, evaluate_mmi
from stabmmi.graphs import Graph, from_edges
from stabmmi.star import (
    StarPartition,
    _partitions,
    block_spaces,
    classify,
    entropies_from_blocks,
    find_star_partition,
    four_star_witness,
    generalized_anchoring,
    is_anchored_single_center,
    is_generalized_star,
    mmi_cij_colspace,
)

from oracles import edge_scan_generalized_star, induced_four_stars, random_adjacency
from test_gf2 import column_space, triple_intersect

# Explicit classification examples, one per taxonomy case.
CASE1 = (5, [(3, 1), (1, 5), (5, 2), (2, 4)], ([1, 2], [3], [4], [5]))
CASE2 = (6, [(1, 4), (2, 5), (3, 6)], ([1, 2, 3], [4], [5], [6]))
CASE3 = (8, [(1, 4), (2, 5), (2, 6), (2, 7), (3, 8)], ([1, 2, 3], [4, 5], [6], [7, 8]))
CASE4_SATURATES = (
    9,
    [(1, 4), (2, 5), (1, 6), (3, 7), (1, 8), (2, 9), (3, 9)],
    ([1, 2, 3], [4, 5], [6, 7], [8, 9]),
)
CASE4_FAILS = (
    13,
    [(1, 5), (3, 6), (4, 7), (2, 8), (3, 9), (4, 10), (1, 11), (2, 11), (3, 12), (4, 13)],
    ([1, 2, 3, 4], [5, 6, 7], [8, 9, 10], [11, 12, 13]),
)
CASE4_SATISFIES = (
    17,
    [(1, 7), (2, 8), (3, 9), (5, 10), (1, 11), (2, 12), (4, 13), (6, 14),
     (1, 15), (2, 15), (3, 16), (4, 16), (5, 17), (6, 17)],
    ([1, 2, 3, 4, 5, 6], [7, 8, 9, 10], [11, 12, 13, 14], [15, 16, 17]),
)


def build(fixture):
    n, edges, (c, i, j, k) = fixture
    return from_edges(n, edges), StarPartition.from_sets(n, c, i, j, k)


def k4_star_partition():
    g = from_edges(4, [(1, 2), (1, 3), (1, 4)])
    return g, StarPartition.from_sets(4, [1], [2], [3], [4])


def random_generalized_star(rng, n):
    """Random partition with no I-J/I-K/J-K edges; edges elsewhere random."""
    while True:
        roles = [rng.randint(0, 3) for _ in range(n)]
        if all(roles.count(r) >= 1 for r in range(4)):
            break
    masks = [0, 0, 0, 0]
    for v, r in enumerate(roles):
        masks[r] |= 1 << v
    edges = []
    for v in range(1, n + 1):
        for w in range(v + 1, n + 1):
            rv, rw = roles[v - 1], roles[w - 1]
            if rv != rw and rv != 0 and rw != 0:
                continue  # would join two different blocks
            if rng.random() < 0.5:
                edges.append((v, w))
    g = from_edges(n, edges)
    return g, StarPartition(*masks)


def test_partition_validation():
    with pytest.raises(ValueError):
        StarPartition(0, 1, 2, 4)
    with pytest.raises(ValueError):
        StarPartition(1, 1, 2, 4)
    p = StarPartition.from_sets(4, [1], [2], [3], [4])
    with pytest.raises(ValueError):
        p.validate_for(5)


def test_is_generalized_star_examples():
    star5 = from_edges(5, [(1, v) for v in range(2, 6)])
    p = StarPartition.from_sets(5, [1], [2], [3], [4, 5])
    assert is_generalized_star(star5, p)
    triangle = from_edges(4, [(2, 3), (3, 4), (2, 4)])
    assert not is_generalized_star(
        triangle, StarPartition.from_sets(4, [1], [2], [3], [4])
    )


def test_is_generalized_star_matches_edge_scan():
    rng = random.Random(51)
    for _ in range(300):
        n = rng.randint(4, 8)
        edges = [
            (v, w)
            for v in range(1, n + 1)
            for w in range(v + 1, n + 1)
            if rng.random() < 0.4
        ]
        g = from_edges(n, edges)
        roles = [rng.randint(0, 3) for _ in range(n)]
        masks = [0, 0, 0, 0]
        for v, r in enumerate(roles):
            masks[r] |= 1 << v
        if any(m == 0 for m in masks):
            continue
        p = StarPartition(*masks)
        assert is_generalized_star(g, p) == edge_scan_generalized_star(
            g.adj, p.i, p.j, p.k
        )


def test_anchoring_examples():
    g, p = k4_star_partition()
    assert is_anchored_single_center(g, p)
    gap = from_edges(5, [(1, 2), (1, 4), (1, 5)])  # J = {3} isolated
    p5 = StarPartition.from_sets(5, [1], [2], [3], [4, 5])
    assert not is_anchored_single_center(gap, p5)
    two_center = from_edges(5, [(1, 3), (2, 4), (1, 5)])
    p2 = StarPartition.from_sets(5, [1, 2], [3], [4], [5])
    with pytest.raises(ValueError):
        is_anchored_single_center(two_center, p2)


def test_anchoring_matches_mask_oracle():
    rng = random.Random(52)
    checked = 0
    while checked < 100:
        n = rng.randint(4, 8)
        g, p = random_generalized_star(rng, n)
        if bin(p.c).count("1") != 1:
            continue
        checked += 1
        c = p.c.bit_length() - 1
        expected = all(g.adj[c] & m for m in (p.i, p.j, p.k))
        assert is_anchored_single_center(g, p) == expected


def test_block_spaces_k4():
    g, p = k4_star_partition()
    w = block_spaces(g, p)
    assert w.w_i == w.w_j == w.w_k == {0, 1}  # members are vertex masks in C


def test_block_spaces_zero_block():
    g = from_edges(4, [(1, 2), (1, 3)])
    p = StarPartition.from_sets(4, [1], [2], [3], [4])
    assert block_spaces(g, p).w_k == {0}


def test_classification_of_explicit_examples():
    expectations = [
        (CASE1, 1, MmiOutcome.SATISFIES),
        (CASE2, 2, MmiOutcome.SATURATES),
        (CASE3, 3, MmiOutcome.FAILS),
        (CASE4_SATURATES, 4, MmiOutcome.SATURATES),
        (CASE4_FAILS, 4, MmiOutcome.FAILS),
        (CASE4_SATISFIES, 4, MmiOutcome.SATISFIES),
    ]
    for fixture, case, outcome in expectations:
        g, p = build(fixture)
        cls = classify(g, p)
        assert cls.case == case
        assert mmi_cij_colspace(g, p) is outcome
        if case != 4:
            assert cls.predicted is outcome
        else:
            assert cls.predicted is None


def test_k4_partition_fails():
    g, p = k4_star_partition()
    assert classify(g, p).case == 3
    assert mmi_cij_colspace(g, p) is MmiOutcome.FAILS
    assert generalized_anchoring(g, p)


def test_generalized_anchoring_examples():
    empty = from_edges(4, [])
    p = StarPartition.from_sets(4, [1], [2], [3], [4])
    assert generalized_anchoring(empty, p)  # vacuously, all spaces zero
    assert classify(empty, p).case == 2
    g, p = build(CASE4_FAILS)
    assert not generalized_anchoring(g, p)


def test_colspace_outcome_matches_entropy_evaluation():
    rng = random.Random(53)
    fixtures = [build(f) for f in (CASE1, CASE2, CASE3, CASE4_SATURATES, CASE4_FAILS)]
    for _ in range(200):
        fixtures.append(random_generalized_star(rng, rng.randint(4, 8)))
    for g, p in fixtures:
        from stabmmi.entropy import entropy_vector

        ev = entropy_vector(g)
        direct = evaluate_mmi(ev, MmiInstance(p.c, p.i, p.j))
        assert mmi_cij_colspace(g, p) is direct


def test_entropies_from_blocks_match_direct():
    rng = random.Random(54)
    for _ in range(200):
        g, p = random_generalized_star(rng, rng.randint(4, 8))
        got = entropies_from_blocks(g, p)
        expect = {
            "S_C": graphmod.entropy(g, p.c),
            "S_I": graphmod.entropy(g, p.i),
            "S_J": graphmod.entropy(g, p.j),
            "S_CI": graphmod.entropy(g, p.c | p.i),
            "S_CJ": graphmod.entropy(g, p.c | p.j),
            "S_IJ": graphmod.entropy(g, p.i | p.j),
            "S_CIJ": graphmod.entropy(g, p.c | p.i | p.j),
        }
        assert got == expect


def test_single_center_anchored_entropies_all_one():
    g, p = k4_star_partition()
    assert set(entropies_from_blocks(g, p).values()) == {1}


def test_case_guarantees_on_random_stars():
    rng = random.Random(55)
    for _ in range(400):
        g, p = random_generalized_star(rng, rng.randint(4, 8))
        cls = classify(g, p)
        outcome = mmi_cij_colspace(g, p)
        if cls.case in (1, 2, 3):
            assert outcome is cls.predicted


def test_nontrivial_intersection_gives_four_star_witness():
    rng = random.Random(56)
    found = 0
    for _ in range(600):
        g, p = random_generalized_star(rng, rng.randint(4, 8))
        if classify(g, p).nontrivial_intersection:
            found += 1
            witness = four_star_witness(g, p)
            assert witness is not None
            c, i, j, k = witness
            for leaf in (i, j, k):
                assert (g.adj[c - 1] >> (leaf - 1)) & 1
            for u, v in ((i, j), (i, k), (j, k)):
                assert not (g.adj[u - 1] >> (v - 1)) & 1
            assert (p.c >> (c - 1)) & 1
            assert (p.i >> (i - 1)) & 1
            assert (p.j >> (j - 1)) & 1
            assert (p.k >> (k - 1)) & 1
    assert found > 20  # the suite actually exercised the property


def test_four_star_witness_rejects_a_non_star_partition():
    triangle = from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3)])
    p = StarPartition.from_sets(4, [1], [2], [3], [4])
    with pytest.raises(ValueError, match="not a generalized star"):
        four_star_witness(triangle, p)
    with pytest.raises(ValueError, match="not a generalized star"):
        is_anchored_single_center(triangle, p)


def test_find_star_partition():
    star5 = from_edges(5, [(1, v) for v in range(2, 6)])
    p = find_star_partition(star5)
    assert p is not None
    assert classify(star5, p).nontrivial_intersection

    p5 = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert find_star_partition(p5) is None

    k4 = from_edges(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert find_star_partition(k4) is None  # no independent triple at all


def test_find_star_partition_results_are_valid():
    rng = random.Random(57)
    found = 0
    for _ in range(100):
        n = rng.randint(4, 7)
        g = Graph(n, random_adjacency(rng, n))
        p = find_star_partition(g)
        if p is None:
            continue
        found += 1
        assert is_generalized_star(g, p)
        assert classify(g, p).nontrivial_intersection
        assert four_star_witness(g, p) is not None
    assert found > 10


def test_classification_json_record():
    g, p = k4_star_partition()
    record = json.loads(classify(g, p).to_json(p))
    assert record["partition"] == {"C": [1], "I": [2], "J": [3], "K": [4]}
    assert record["case"] == 3
    assert record["outcome"] == "Fails"
    # case 4 predicts nothing; the record still carries the outcome
    for fixture in (CASE4_SATURATES, CASE4_FAILS, CASE4_SATISFIES):
        g, p = build(fixture)
        assert json.loads(classify(g, p).to_json(p))["outcome"] == mmi_cij_colspace(g, p).value


@functools.lru_cache(maxsize=None)
def _role_masks(n):
    """(c, i, j, k) masks of every assignment of the n vertices to four
    nonempty parts."""
    out = []
    for roles in itertools.product(range(4), repeat=n):
        masks = [0, 0, 0, 0]
        for v, r in enumerate(roles):
            masks[r] |= 1 << v
        if all(masks):
            out.append(tuple(masks))
    return out


def _star_partitions(g):
    """Every generalized-star partition, filtered from all role assignments."""
    for c, i, j, k in _role_masks(g.n):
        if not any(g.adj[u] & (j | k) for u in range(g.n) if (i >> u) & 1) and not any(
            g.adj[u] & k for u in range(g.n) if (j >> u) & 1
        ):
            yield StarPartition(c, i, j, k)


def _gf2_block(g, p, block):
    """The C×block adjacency block as a gf2 matrix with a row for every vertex
    (zero outside C), so its column-space members are vertex masks in C."""
    return gf2.BitMatrix(
        tuple(g.adj[r] & block if (p.c >> r) & 1 else 0 for r in range(g.n)), g.n
    )


@functools.lru_cache(maxsize=None)
def _gf2_spaces(blocks):
    """Members, nontrivial triple intersection and distributivity of the
    three blocks' column spaces, by rref and Zassenhaus intersection."""
    w = [column_space(b) for b in blocks]
    members = tuple(set(x.elements()) for x in w)
    return members, triple_intersect(*w).dim > 0, gf2.is_distributive(*w)


def _gf2_oracle(g, p):
    return _gf2_spaces(tuple(_gf2_block(g, p, b) for b in (p.i, p.j, p.k)))


def test_block_spaces_and_classify_match_gf2_on_every_small_partition():
    checked = 0
    for n in range(4, 6):
        for m in range(1 << (n * (n - 1) // 2)):
            g = graphmod.from_edge_mask(n, m)
            partitions = list(_star_partitions(g))
            # _partitions yields each star once up to the order of its blocks
            unordered = [(c, frozenset(blocks)) for c, *blocks in _partitions(g)]
            assert len(unordered) == len(set(unordered))
            assert set(unordered) == {(p.c, frozenset((p.i, p.j, p.k))) for p in partitions}
            for p in partitions:
                members, nontrivial, distributive = _gf2_oracle(g, p)
                w = block_spaces(g, p)
                assert (w.w_i, w.w_j, w.w_k) == members
                cls = classify(g, p)
                assert (cls.nontrivial_intersection, cls.distributive) == (
                    nontrivial,
                    distributive,
                )
                checked += 1
    assert checked == 13632


def test_four_star_witness_is_the_least_induced_four_star_across_the_blocks():
    """On every generalized-star partition of every graph with n ≤ 5, the
    witness is the least (c, i, j, k) among the induced four-stars with
    center c in C and one leaf in each of I, J, K, or None if there is none."""
    checked = 0
    for n in range(4, 6):
        for m in range(1 << (n * (n - 1) // 2)):
            g = graphmod.from_edge_mask(n, m)
            stars = list(induced_four_stars(g))
            for p in _star_partitions(g):
                across = [
                    (c, *leaves)
                    for c, three in stars
                    for leaves in itertools.permutations(three)
                    if all((part >> (v - 1)) & 1 for part, v in zip(p, (c, *leaves)))
                ]
                assert four_star_witness(g, p) == min(across, default=None)
                checked += 1
    assert checked == 13632


def _gf2_find_nontrivial(g):
    """The partition find_star_partition(g) should return: among those
    whose triple intersection is nontrivial, the largest |C∪I∪J|, then the
    smallest (c, i, j)."""
    for p in sorted(
        _star_partitions(g), key=lambda p: (-bin(p.c | p.i | p.j).count("1"), p.c, p.i, p.j)
    ):
        if _gf2_oracle(g, p)[1]:
            return p
    return None


def test_nontrivial_search_matches_gf2_search_on_a_sample():
    """Every labeled graph with n ≤ 5, then seeded graphs with n = 6, 7."""
    rng = random.Random(58)
    small = [
        graphmod.from_edge_mask(n, m) for n in range(1, 6) for m in range(1 << (n * (n - 1) // 2))
    ]
    positives = negatives = 0
    for g in small + [Graph(n, random_adjacency(rng, n)) for n in (6, 6, 6, 7) * 12]:
        expect = _gf2_find_nontrivial(g)
        assert find_star_partition(g) == expect
        if expect is None:
            negatives += 1
        else:
            positives += 1
    assert positives >= 5 and negatives > 0
