"""The one-state path of `entropy` against the rank-per-mask oracles, the
batch kernel and MMI-sign gather of `census`, the per-instance
`evaluate_mmi`, and the minimum over numpy relabeling tables
(`oracles.table_canonical`)."""

import random
from functools import cache
from itertools import combinations, compress, product

import numpy as np
import pytest

from stabmmi import census
from stabmmi import entropy as entmod
from stabmmi import graphs as graphmod
from stabmmi import tableau as tabmod
from stabmmi.graphs import MmiOutcome

from oracles import generator_entropy_rows, random_adjacency, relabeling_tables, table_canonical
from test_tableau import random_tableau


def kernel_row(adj) -> tuple[int, ...]:
    """The batch kernel's row for one graph state."""
    return tuple(census._graph_entropy_rows(np.array([adj]))[0].tolist())


def reference_row(x, z) -> tuple[int, ...]:
    """The general-group reference kernel's row for one state's generator rows."""
    return tuple(generator_entropy_rows([x], [z])[0].tolist())


def rank_values(module, source) -> tuple[int, ...]:
    return tuple(module.entropy(source, m) for m in range(1, 1 << source.n))




@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_entropy_vector_matches_oracles_on_every_small_graph(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        g = graphmod.from_edge_mask(n, mask)
        values = entmod.entropy_vector(g).values
        assert values == rank_values(graphmod, g)
        assert values == kernel_row(g.adj)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_entropy_vector_matches_oracles_on_seeded_tableaux(n):
    rng = random.Random(70 + n)
    for _ in range(200):
        t = random_tableau(rng, n)
        values = entmod.entropy_vector(t).values
        assert values == rank_values(tabmod, t)
        assert values == reference_row(t.x.rows, t.z.rows)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("include_full_union", [True, False])
def test_instance_signs_match_evaluate_mmi_and_mmi_signs(n, include_full_union):
    """The one-vector signs, the per-instance outcomes and the numpy gather
    agree, and the numpy gather reads the same mask table; without the full
    union, the instances and signs are those that leave a qubit out."""
    rng = random.Random(80 + n)
    sources = [graphmod.Graph(n, random_adjacency(rng, n)) for _ in range(6)]
    if n > 1:
        sources += [random_tableau(rng, n) for _ in range(6)]
    full_table = entmod.mmi_table(n, True)
    assert census._mmi_table(n).tolist() == [list(row) for row in full_table]
    kept = [include_full_union or row[6] != (1 << n) - 1 for row in full_table]
    table = entmod.mmi_table(n, include_full_union)
    instances = list(compress(entmod.mmi_instances(n), kept))
    assert [(t.i, t.j, t.k) for t in instances] == [row[3:6] for row in table]
    if n < 3:
        assert table == ()
    for source in sources:
        ev = entmod.entropy_vector(source)
        signs = entmod.instance_signs(ev, include_full_union)
        assert [MmiOutcome.of_sign(s) for s in signs] == [
            entmod.evaluate_mmi(ev, inst) for inst in instances
        ]
        all_signs = census.mmi_signs(ev.values).tolist()
        assert signs == list(compress(all_signs, kept))
        tally = entmod.mmi_tally(ev)
        assert tally.as_triple() == (all_signs.count(1), all_signs.count(0), all_signs.count(-1))


def test_mmi_table_rows_are_the_sorted_instance_masks():
    for n, include_full_union in product(range(1, 9), (True, False)):
        full = (1 << n) - 1
        triples = sorted(
            (i, j, k)
            for i, j, k in combinations(range(1, full + 1), 3)
            if not (i & j or i & k or j & k) and (include_full_union or i | j | k != full)
        )
        assert entmod.mmi_table(n, include_full_union) == tuple(
            (i | j, i | k, j | k, i, j, k, i | j | k) for i, j, k in triples
        ), (n, include_full_union)


@pytest.mark.parametrize("n", range(1, 7))
def test_canonicalize_matches_the_census_on_every_graph_vector(n):
    """Every distinct vector of the graph census, against the tables."""
    rows = list(census.vector_census(n, "graphs").vectors)
    want = table_canonical(n, rows)
    for row in rows:
        ev = entmod.EntropyVector(n, row)
        assert entmod.canonicalize(ev).values == want[row]


def test_canonicalize_matches_the_census_on_seeded_7_qubit_vectors():
    """200 seeded distinct vectors of the 7-qubit graph census, against the
    tables."""
    rows = list(census.vector_census(7, "graphs").vectors)
    sample = random.Random(77).sample(rows, 200)
    want = table_canonical(7, sample)
    for row in sample:
        ev = entmod.EntropyVector(7, row)
        assert entmod.canonicalize(ev).values == want[row]


# symmetric 8-qubit graphs, whose relabelings tie at many steps of the search;
# the star, K4,4 and pair labels are scrambled, away from the least relabeling
_PAIRS8 = list(combinations(range(1, 9), 2))
_CUBE = [(a + 1, b + 1) for a, b in combinations(range(8), 2) if (a ^ b).bit_count() == 1]
_SYMMETRIC8 = {
    "empty": [],
    "complete": _PAIRS8,
    "star": [(5, v) for v in range(1, 9) if v != 5],
    "cube": _CUBE,
    "cube-complement": [e for e in _PAIRS8 if e not in _CUBE],
    "K4,4": [(a, b) for a in (1, 4, 6, 7) for b in (2, 3, 5, 8)],
    "four-bell-pairs": [(1, 6), (2, 8), (3, 5), (4, 7)],
    "ghz4-ghz4": [(2, 1), (2, 5), (2, 7), (8, 3), (8, 4), (8, 6)],
}


@cache
def _relabelings8():
    return list(relabeling_tables(8))


@pytest.mark.parametrize("name", list(_SYMMETRIC8))
def test_canonicalize_matches_every_relabeling_on_symmetric_8_qubit_vectors(name):
    ev = entmod.entropy_vector(graphmod.from_edges(8, _SYMMETRIC8[name]))
    want = table_canonical(8, [ev.values], _relabelings8())
    assert entmod.canonicalize(ev).values == want[ev.values]
