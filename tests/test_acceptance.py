"""End-to-end acceptance gate.

Each test prints exactly one line "ACCEPTANCE <k>: PASS" (or WARN for the
conjecture scans, whose counterexamples would be findings, not failures).
Run with `pytest -s tests/test_acceptance.py` to see the lines inline.
"""

import functools
import os
import random
import time
import warnings

from stabmmi import census as C
from stabmmi import entropy as E
from stabmmi import gf2
from stabmmi import graphs as G
from stabmmi import star as ST
from stabmmi import tableau as T

from oracles import span_elements
from test_gf2 import _spaces_f, _spaces_s, _spaces_st
from test_star import (
    CASE1,
    CASE2,
    CASE3,
    CASE4_FAILS,
    CASE4_SATISFIES,
    CASE4_SATURATES,
    build,
    random_generalized_star,
)

JOBS = min(8, os.cpu_count() or 1)


def acceptance(num, budget_seconds=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                verdict = fn() or "PASS"
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL")
                raise
            elapsed = time.monotonic() - start
            if budget_seconds is not None and elapsed > budget_seconds:
                print(f"ACCEPTANCE {num}: FAIL")
                raise AssertionError(
                    f"criterion {num} took {elapsed:.1f}s, budget {budget_seconds}s"
                )
            print(f"ACCEPTANCE {num}: {verdict}")

        return wrapper

    return deco


@acceptance(1, budget_seconds=1)
def test_acceptance_01_four_qubit_mechanism():
    t = T.zero_state(4)
    for gate in (
        lambda s: T.apply_h(s, 3),
        lambda s: T.apply_cnot(s, 3, 1),
        lambda s: T.apply_cnot(s, 3, 2),
    ):
        t = gate(t)
    phi = t
    ev = E.entropy_vector(phi)
    assert E.mmi_tally(ev).as_triple() == (0, 10, 0)
    ghz = T.apply_cnot(phi, 3, 4)
    rv = T.rank_vector(ghz)
    assert tuple(rv[m] for m in (1, 2, 4, 3, 5, 6, 7)) == (2, 2, 2, 3, 3, 3, 4)
    tally = E.mmi_tally(E.entropy_vector(ghz))
    assert tally.fails == 4


@acceptance(2, budget_seconds=1)
def test_acceptance_02_rank_one_blocks():
    star4 = G.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    for m in range(1, 15):
        assert gf2.rank(G.submatrix(star4, m)) == 1
    k4112 = G.from_edges(5, [(1, 2), (1, 3), (1, 4), (4, 5)])
    inst = E.MmiInstance(0b00001, 0b00100, 0b11000)
    for m in (
        inst.i, inst.j, inst.k,
        inst.i | inst.j, inst.i | inst.k, inst.j | inst.k,
        inst.i | inst.j | inst.k,
    ):
        assert gf2.rank(G.submatrix(k4112, m)) == 1
    ev = E.entropy_vector(k4112)
    assert E.evaluate_mmi(ev, inst) == E.MmiOutcome.FAILS


@acceptance(3, budget_seconds=30)
def test_acceptance_03_anchored_single_center_stars_fail():
    rng = random.Random(301)
    for _ in range(1000):
        n = rng.randint(4, 10)
        anchors = rng.sample(range(2, n + 1), 3)
        roles = {anchors[0]: 1, anchors[1]: 2, anchors[2]: 3}
        for v in range(2, n + 1):
            roles.setdefault(v, rng.randint(1, 3))
        edges = [(1, a) for a in anchors]
        for v in range(2, n + 1):
            if v not in anchors and rng.random() < 0.6:
                edges.append((1, v))
        for v in range(2, n + 1):
            for w in range(v + 1, n + 1):
                if roles[v] == roles[w] and rng.random() < 0.3:
                    edges.append((v, w))
        g = G.from_edges(n, edges)
        sets = {r: [v for v in range(2, n + 1) if roles[v] == r] for r in (1, 2, 3)}
        p = ST.StarPartition.from_sets(n, [1], sets[1], sets[2], sets[3])
        assert ST.is_anchored_single_center(g, p)
        assert ST.mmi_cij_colspace(g, p) == E.MmiOutcome.FAILS


@acceptance(4, budget_seconds=120)
def test_acceptance_04_taxonomy_and_colspace_equivalence():
    expected = [
        (CASE1, 1, E.MmiOutcome.SATISFIES),
        (CASE2, 2, E.MmiOutcome.SATURATES),
        (CASE3, 3, E.MmiOutcome.FAILS),
        (CASE4_SATURATES, 4, E.MmiOutcome.SATURATES),
        (CASE4_FAILS, 4, E.MmiOutcome.FAILS),
        (CASE4_SATISFIES, 4, E.MmiOutcome.SATISFIES),
    ]
    for fixture, case, outcome in expected:
        g, p = build(fixture)
        cls = ST.classify(g, p)
        assert cls.case == case
        assert ST.mmi_cij_colspace(g, p) == outcome
        if cls.predicted is not None:
            assert cls.predicted == outcome
    rng = random.Random(401)
    for _ in range(10_000):
        g, p = random_generalized_star(rng, rng.randint(4, 9))
        ev = E.entropy_vector(g)
        direct = E.evaluate_mmi(ev, E.MmiInstance(p.c, p.i, p.j))
        assert ST.mmi_cij_colspace(g, p) == direct


@acceptance(5, budget_seconds=60)
def test_acceptance_05_subspace_oracles():
    rng = random.Random(501)
    for _ in range(300):
        ambient = rng.randint(2, 12)
        spans = [
            gf2.Subspace.span(
                ambient,
                [rng.getrandbits(ambient) for _ in range(rng.randint(0, 4))],
            )
            for _ in range(3)
        ]
        a, b, c = spans

        def elems(s):
            return span_elements(s.ambient, list(s.basis.rows))

        assert elems(gf2.sum_spaces(a, b)) == {
            x ^ y for x in elems(a) for y in elems(b)
        }
        assert elems(gf2.intersect(a, b)) == elems(a) & elems(b)
        lhs = gf2.intersect(gf2.sum_spaces(a, b), c)
        rhs = gf2.sum_spaces(gf2.intersect(a, c), gf2.intersect(b, c))
        assert gf2.is_distributive(a, b, c) == (lhs == rhs)
    def dims(t):
        w1, w2, w3 = t
        lhs = gf2.intersect(w1, w3).dim + gf2.intersect(w2, w3).dim
        rhs = gf2.intersect(gf2.sum_spaces(w1, w2), w3).dim
        assert not gf2.is_distributive(w1, w2, w3)
        return lhs, rhs

    w1, w2, w3 = _spaces_st()
    assert gf2.intersect(w1, w3).dim == 1
    assert gf2.intersect(gf2.sum_spaces(w1, w2), w3).dim == 2
    assert dims(_spaces_st()) == (2, 2)
    lhs_f, rhs_f = dims(_spaces_f())
    assert lhs_f > rhs_f
    lhs_s, rhs_s = dims(_spaces_s())
    assert lhs_s < rhs_s


@acceptance(6, budget_seconds=300)
def test_acceptance_06_census_up_to_five():
    r3 = C.state_census(3)
    assert (r3.saturate_all, r3.satisfy_some_fail_none, r3.fail_some) == (1080, 0, 0)
    r4 = C.state_census(4)
    assert (r4.saturate_all, r4.satisfy_some_fail_none, r4.fail_some) == (
        18576, 15552, 2592,
    )
    assert (r4.failing_vector_count, r4.distinct_vectors, r4.classes_up_to_exchange) == (
        1, 18, 6,
    )
    r5 = C.state_census(5)
    assert (r5.saturate_all, r5.satisfy_some_fail_none, r5.fail_some) == (
        370656, 1648512, 404352,
    )
    assert (r5.failing_vector_count, r5.distinct_vectors, r5.classes_up_to_exchange) == (
        16, 93, 11,
    )


@acceptance(7, budget_seconds=3600)
def test_acceptance_07_census_six():
    assert C.stabilizer_group_count(6) == 4_922_775
    row = C.state_census(6, jobs=JOBS)
    assert (row.saturate_all, row.satisfy_some_fail_none, row.fail_some) == (
        9118656, 175115520, 130823424,
    )
    assert row.distinct_vectors == 760
    assert row.classes_up_to_exchange == 26
    assert row.failing_vector_count == 287


@acceptance(8, budget_seconds=1800)
def test_acceptance_08_graph_census_seven():
    result = C.vector_census(7, source="graphs", jobs=JOBS)
    assert len(result.vectors) == 10773
    assert len(result.classes) == 59


@acceptance(9, budget_seconds=30)
def test_acceptance_09_eight_qubit_spot_checks():
    star8 = G.from_edges(8, [(1, v) for v in range(2, 9)])
    ev = E.entropy_vector(star8)
    assert E.mmi_tally(ev).as_triple() == (0, 966, 6804)
    g33 = G.from_edges(
        8, [(1, 4), (2, 5), (3, 8), (4, 6), (5, 7), (6, 7), (6, 8), (7, 8)]
    )
    ev33 = E.entropy_vector(g33)
    assert E.mmi_tally(ev33).as_triple() == (4004, 3766, 0)
    assert len(E.mmi_instances(8)) == 7770


@acceptance(10, budget_seconds=600)
def test_acceptance_10_property_suites():
    rng = random.Random(1001)

    def rand_graph(n):
        edges = [
            (v, w)
            for v in range(1, n + 1)
            for w in range(v + 1, n + 1)
            if rng.random() < 0.5
        ]
        return G.from_edges(n, edges)

    # local complementation leaves the entropy vector unchanged
    for _ in range(10_000):
        g = rand_graph(rng.randint(2, 6))
        v = rng.randint(1, g.n)
        assert E.entropy_vector(g) == E.entropy_vector(G.local_complement(g, v))

    # pure states: S_A equals S of the complement of A
    checked = 0
    while checked < 10_000:
        g = rand_graph(rng.randint(2, 7))
        vals = E.entropy_vector(g).values
        full = (1 << g.n) - 1
        for m in range(1, full + 1):
            comp = full ^ m
            ref = vals[comp - 1] if comp else 0
            assert vals[m - 1] == ref
            checked += 1

    # instances whose union is every qubit always saturate
    checked = 0
    while checked < 10_000:
        g = rand_graph(rng.randint(3, 6))
        ev = E.entropy_vector(g)
        for inst in E.mmi_instances(g.n):
            if inst.i | inst.j | inst.k == (1 << g.n) - 1:
                assert E.evaluate_mmi(ev, inst) == E.MmiOutcome.SATURATES
                checked += 1

    # tableau-derived and adjacency-derived entropies agree
    for _ in range(10_000):
        g = rand_graph(rng.randint(1, 6))
        t = T.from_graph(g)
        mask = rng.randint(1, (1 << g.n) - 1)
        assert T.entropy(t, mask) == G.entropy(g, mask)

    # distributivity is permutation-independent
    for _ in range(10_000):
        ambient = rng.randint(2, 8)
        a, b, c = (
            gf2.Subspace.span(
                ambient,
                [rng.getrandbits(ambient) for _ in range(rng.randint(0, 3))],
            )
            for _ in range(3)
        )
        results = {
            gf2.is_distributive(*perm)
            for perm in ((a, b, c), (b, c, a), (c, a, b))
        }
        assert len(results) == 1

    # graph6 encoding round-trips
    for _ in range(10_000):
        g = rand_graph(rng.randint(1, 8))
        assert G.from_graph6(G.to_graph6(g)) == g


@acceptance(11, budget_seconds=60)
def test_acceptance_11_conjecture_scans():
    verdict = "PASS"
    for n in (4, 5, 6):
        report = C.four_star_conjecture_scan(n)
        assert report["failing_vectors"] > 0
        if report["counterexamples"]:
            warnings.warn(f"four-star scan n={n}: counterexamples {report['counterexamples']}")
            verdict = "WARN"
    for n in (4, 5, 6):
        report = C.nontrivial_intersection_scan(n)
        if report["counterexamples"]:
            warnings.warn(
                f"intersection scan n={n}: counterexamples {report['counterexamples']}"
            )
            verdict = "WARN"
    return verdict
