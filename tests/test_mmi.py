"""The one-state path of `mmi` against the rank-per-mask oracles, the batch
kernel of `entropy`, and the per-instance `evaluate_mmi`."""

import random
from itertools import combinations

import numpy as np
import pytest

from stabmmi import entropy as entmod
from stabmmi import graphs as graphmod
from stabmmi import mmi
from stabmmi import tableau as tabmod
from stabmmi.graphs import MmiOutcome

from test_tableau import random_tableau


def kernel_row(x, z) -> tuple[int, ...]:
    """The batch kernel's row for one state's generator rows."""
    return tuple(entmod._entropy_rows(np.array([x]), np.array([z]))[0].tolist())


def rank_values(module, source) -> tuple[int, ...]:
    return tuple(module.entropy(source, m) for m in range(1, 1 << source.n))


def random_graph(rng, n):
    pairs = list(combinations(range(1, n + 1), 2))
    return graphmod.from_edges(n, [e for e in pairs if rng.random() < 0.5])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_entropy_vector_matches_oracles_on_every_small_graph(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        g = graphmod.from_edge_mask(n, mask)
        values = mmi.entropy_vector(g).values
        assert values == rank_values(graphmod, g)
        assert values == kernel_row([1 << v for v in range(n)], g.adj)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_entropy_vector_matches_oracles_on_seeded_tableaux(n):
    rng = random.Random(70 + n)
    for _ in range(200):
        t = random_tableau(rng, n)
        values = mmi.entropy_vector(t).values
        assert values == rank_values(tabmod, t)
        assert values == kernel_row(t.x.rows, t.z.rows)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("include_full_union", [True, False])
def test_instance_signs_match_evaluate_mmi_and_mmi_signs(n, include_full_union):
    """The one-vector signs, the per-instance outcomes and the numpy gather
    agree, and the numpy gather reads the same mask table."""
    rng = random.Random(80 + n)
    sources = [random_graph(rng, n) for _ in range(6)]
    if n > 1:
        sources += [random_tableau(rng, n) for _ in range(6)]
    table = mmi.mmi_table(n, include_full_union)
    assert entmod._mmi_table(n, include_full_union).tolist() == [list(row) for row in table]
    instances = mmi.mmi_instances(n, include_full_union)
    assert [(t.i, t.j, t.k) for t in instances] == [row[3:6] for row in table]
    if n < 3:
        assert table == ()
    for source in sources:
        ev = mmi.entropy_vector(source)
        signs = mmi.instance_signs(ev, include_full_union)
        assert [MmiOutcome.of_sign(s) for s in signs] == [
            mmi.evaluate_mmi(ev, inst) for inst in instances
        ]
        assert signs == entmod.mmi_signs(ev.values, include_full_union).tolist()
        tally = mmi.mmi_tally(ev, include_full_union)
        assert tally.as_triple() == (signs.count(1), signs.count(0), signs.count(-1))


def test_mmi_table_rows_are_the_sorted_instance_masks():
    table = mmi.mmi_table(5, True)
    assert list(table) == sorted(table, key=lambda row: row[3:6])
    for ij, ik, jk, i, j, k, ijk in table:
        assert 0 < i < j < k and not (i & j or i & k or j & k)
        assert (ij, ik, jk, ijk) == (i | j, i | k, j | k, i | j | k)


def test_entropy_reexports_the_one_state_names():
    for name in ("EntropyVector", "MmiInstance", "MmiTally", "entropy_vector",
                 "mmi_instances", "evaluate_mmi", "mmi_tally"):
        assert getattr(entmod, name) is getattr(mmi, name)
