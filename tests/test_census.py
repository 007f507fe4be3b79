import dataclasses
import random
from collections import Counter
from itertools import chain, combinations

import numpy as np
import pytest

from stabmmi import census as C
from stabmmi import graphs as graphmod
from stabmmi import star as starmod
from stabmmi import tableau as tabmod
from stabmmi.entropy import EntropyVector, MmiOutcome, entropy_vector
from stabmmi.entropy import evaluate_mmi, mmi_instances, mmi_tally
from stabmmi.gf2 import BitMatrix, rref
from stabmmi.graphs import CapExceeded, from_edges
from stabmmi.star import find_star_partition

from oracles import brute_canonical, brute_lagrangians, dfs_lc_closure, edge_mask_adjacency
from oracles import exchange_labels_by_row_search, generator_entropy_rows
from oracles import induced_four_stars
from oracles import per_graph_vector_counts, random_adjacency, span_elements, table_canonical
from oracles import per_class_state_census, union_find_least


def rank_entropies(source) -> tuple[int, ...]:
    """S_A for every nonempty mask, one GF(2) rank per mask."""
    module = graphmod if isinstance(source, graphmod.Graph) else tabmod
    return tuple(module.entropy(source, m) for m in range(1, 1 << source.n))


def test_group_count_formula():
    assert C.stabilizer_group_count(1) == 3
    assert C.stabilizer_group_count(4) == 2295
    assert C.stabilizer_group_count(6) == 4922775


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_group_stream_length_and_uniqueness(n):
    seen = set()
    for t in C.enumerate_stabilizer_groups(n):
        seen.add((t.x.rows, t.z.rows))
    assert len(seen) == C.stabilizer_group_count(n)


@pytest.mark.parametrize("n", [1, 2])
def test_groups_match_brute_force_lagrangians(n):
    expected = brute_lagrangians(n)
    got = set()
    for t in C.enumerate_stabilizer_groups(n):
        gens = [xr | (zr << n) for xr, zr in zip(t.x.rows, t.z.rows)]
        got.add(frozenset(span_elements(2 * n, gens)))
    assert got == expected


def test_single_qubit_groups():
    groups = {(t.x.rows, t.z.rows) for t in C.enumerate_stabilizer_groups(1)}
    # <X>, <Y>, <Z> as unsigned rows
    assert groups == {((1,), (0,)), ((1,), (1,)), ((0,), (1,))}


def test_support_counting_matches_rank_entropies():
    rng = random.Random(61)
    for t in list(C.enumerate_stabilizer_groups(3))[::7]:
        assert entropy_vector(t).values == rank_entropies(t)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = graphmod.Graph(n, random_adjacency(rng, n))
        assert entropy_vector(g).values == rank_entropies(g)


def test_numpy_graph_batch_matches_python():
    """Kernel rows of an edge-mask window equal the rank-per-mask oracle, and
    kernel rows of the LC walk's roots, its production input, equal the
    general-group reference kernel with identity X-parts; the oracle's
    adjacency row m is that of the graph with edge mask m."""
    for n, root_count in ((6, 777), (7, 11683)):
        start = (1 << 12) + 1234
        vals = C._graph_entropy_rows(edge_mask_adjacency(n, range(start, start + 64)))
        assert vals.shape == (64, (1 << n) - 1)
        for offset in range(64):
            g = graphmod.from_edge_mask(n, start + offset)
            assert tuple(vals[offset].tolist()) == rank_entropies(g)
        cols, _label, roots, _rows = C._lc_orbits(n)
        adj = cols[:, roots].T
        assert len(adj) == root_count
        want = generator_entropy_rows(np.broadcast_to(1 << np.arange(n), adj.shape), adj)
        assert np.array_equal(C._graph_entropy_rows(adj), want)
    for n in range(1, 6):
        total = 1 << (n * (n - 1) // 2)
        for m, row in enumerate(edge_mask_adjacency(n, range(total)).tolist()):
            assert tuple(row) == graphmod.from_edge_mask(n, m).adj


def subsets(items):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def graph_groups(g):
    """The groups graph g stands for, built with the tableau gates: for each
    free set F of vertices with no larger neighbour, and each phase subset
    of the other qubits, S on the phase subset, then H on F."""
    lonely = [v for v in range(g.n) if not g.adj[v] >> (v + 1)]
    for free in subsets(lonely):
        for phases in subsets([v for v in range(g.n) if v not in free]):
            t = tabmod.from_graph(g)
            for v in phases:
                t = tabmod.apply_s(t, v + 1)
            for v in free:
                t = tabmod.apply_h(t, v + 1)
            yield t


def canonical_group(t):
    n = t.n
    return rref(BitMatrix(tuple(x | (z << n) for x, z in zip(t.x.rows, t.z.rows)), 2 * n))[0].rows


def test_numpy_group_batch_matches_python():
    """Every group built from a graph, n ≤ 4, has the rank-per-mask entropies
    of the graph's kernel row; the graph's weight counts them, and together
    they are every group once."""
    for n in (1, 2, 3, 4):
        adj = edge_mask_adjacency(n, range(1 << (n * (n - 1) // 2)))
        seen = set()
        for m, (row, weight) in enumerate(zip(C._graph_entropy_rows(adj), C._group_weights(adj))):
            g = graphmod.from_edge_mask(n, m)
            groups = list(graph_groups(g))
            assert len(groups) == weight
            assert tuple(row.tolist()) == rank_entropies(g)
            for t in groups:
                assert rank_entropies(t) == rank_entropies(g)
                seen.add(canonical_group(t))
        assert len(seen) == C.stabilizer_group_count(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_group_rows_and_weights_total(n):
    """One row per labeled graph, whose 2^(n−d)·3^d weights total every group."""
    adj = C._lc_orbits(n)[0].T
    assert len(adj) == 1 << (n * (n - 1) // 2)
    weights = C._group_weights(adj)
    assert int(weights.sum()) == C.stabilizer_group_count(n)
    assert weights.dtype == np.int64
    if n <= 6:  # the formula graph by graph
        d = [sum(not row >> (v + 1) for v, row in enumerate(g)) for g in adj.tolist()]
        assert weights.tolist() == [(1 << (n - k)) * 3**k for k in d]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weighted_group_counts_match_every_group(n):
    """The weighted tally counts each vector as often as a plain count over
    every enumerated group does."""
    groups = list(C.enumerate_stabilizer_groups(n))
    x = np.array([t.x.rows for t in groups])
    z = np.array([t.z.rows for t in groups])
    plain = Counter(map(tuple, generator_entropy_rows(x, z).tolist()))
    assert list(C.vector_census(n, "groups").vectors.items()) == list(plain.items())


def test_sampled_graph_groups_match_rank_entropies():
    """Seeded graphs at n = 5, 6: every group built from each has the
    rank-per-mask entropies of the graph's kernel row."""
    rng = random.Random(66)
    for n, count in ((5, 8), (6, 4)):
        masks = [rng.randrange(1 << (n * (n - 1) // 2)) for _ in range(count)]
        adj = np.array([graphmod.from_edge_mask(n, m).adj for m in masks])
        for m, row, weight in zip(masks, C._graph_entropy_rows(adj), C._group_weights(adj)):
            groups = list(graph_groups(graphmod.from_edge_mask(n, m)))
            assert len(groups) == weight
            assert len({canonical_group(t) for t in groups}) == weight
            for t in groups:
                assert rank_entropies(t) == tuple(row.tolist())


@pytest.mark.parametrize(
    "call",
    [
        lambda: C.state_census(7),
        lambda: C.vector_census(8, source="graphs"),
        lambda: C.four_star_conjecture_scan(9),
        lambda: C.four_star_conjecture_scan(8),
        lambda: C.four_star_conjecture_scan(0),
        lambda: C.nontrivial_intersection_scan(8),
    ],
    ids=[
        "groups",
        "graph-census",
        "four-star-scan",
        "four-star-scan-8",
        "four-star-scan-0",
        "intersection-scan",
    ],
)
def test_caps_raise_cap_exceeded(call):
    with pytest.raises(CapExceeded):
        call()


def test_vector_census_n4():
    result = C.vector_census(4, source="groups")
    assert len(result.vectors) == 18
    assert len(result.classes) == 6
    assert sum(info.state_count for info in result.classes.values()) == 2295 * 16
    # the failing class holds 2592 states
    failing = [info for info in result.classes.values() if info.tally.fails]
    assert len(failing) == 1
    assert failing[0].state_count == 2592


def test_census_classes_match_canonicalize_oracle():
    """Census classes are the relabeling orbits the brute-force loop finds."""
    for n in (3, 4, 5):
        result = C.vector_census(n, source="graphs")
        oracle = {}
        for vals, cnt in result.vectors.items():
            canon = brute_canonical(n, vals)
            oracle[canon] = oracle.get(canon, 0) + cnt
        assert {k: v.state_count for k, v in result.classes.items()} == oracle


@pytest.mark.parametrize(
    "n, source", [(n, "groups") for n in range(1, 7)] + [(n, "graphs") for n in range(1, 8)]
)
def test_census_classes_are_the_table_grouping_of_the_vectors(n, source):
    """The classes are the census's vectors grouped by their least relabeled
    tuple over the numpy relabeling tables, in first-seen order: each with
    the one-state tally of its canonical vector, its state count and member
    number, and its first vector's representative."""
    result = C.vector_census(n, source)
    canon = table_canonical(n, result.vectors)
    members = {}
    for vals in result.vectors:
        members.setdefault(canon[vals], []).append(vals)
    multiplier = (1 << n) if source == "groups" else 1
    want = {
        key: C.ClassInfo(
            key,
            mmi_tally(EntropyVector(n, key)),
            sum(result.vectors[v] for v in vals) * multiplier,
            len(vals),
            result.representatives[vals[0]],
        )
        for key, vals in members.items()
    }
    assert list(result.classes.items()) == list(want.items())


@pytest.mark.parametrize("n", range(1, 8))
def test_exchange_labels_are_relabeling_orbits(n):
    """Each distinct row's exchange label, walked through its first graph's
    vertex swaps, is the first row with the same least relabeled tuple:
    each component is one whole relabeling orbit, whose least member the
    census takes as the canonical form, and whose index comes second.  The
    relabeling tables and a binary search of the sorted row keys, with no
    graphs, both agree."""
    c = C._census_arrays(n, "graphs")
    rank = np.argsort(np.argsort(C._row_keys(c.rows)))
    label, least = C._exchange_labels(n, c.firsts, c.vec, rank)
    assert label.dtype == np.int32
    rows = list(map(tuple, c.rows.tolist()))
    canon = table_canonical(n, rows)
    first = {}
    want = [first.setdefault(canon[vals], i) for i, vals in enumerate(rows)]
    assert label.tolist() == want
    index = {vals: i for i, vals in enumerate(rows)}
    assert least.tolist() == [index[canon[vals]] for vals in rows]
    assert exchange_labels_by_row_search(n, c.rows) == (label.tolist(), least.tolist())


def swapped_vertices_mask(n: int, k: int, mask: int) -> int:
    """The edge mask of graph `mask` with vertices k and k + 1 swapped, moved
    edge by edge."""
    g = graphmod.from_edge_mask(n, mask)
    image = list(range(n))
    image[k], image[k + 1] = k + 1, k
    adj = [0] * n
    for v, w in combinations(range(n), 2):
        if g.adj[v] >> w & 1:
            adj[image[v]] |= 1 << image[w]
            adj[image[w]] |= 1 << image[v]
    return edge_mask(graphmod.Graph(n, tuple(adj)))


@pytest.mark.parametrize("n", range(2, 8))
def test_swapped_edges_swap_two_vertices(n):
    """`_swapped_edges(n, k, ·)` is each graph with vertices k and k + 1
    swapped, and applied twice gives back its input: every edge mask for
    n ≤ 5, 2,000 seeded masks at n = 6 and 7."""
    total = 1 << (n * (n - 1) // 2)
    sample = range(total) if n <= 5 else random.Random(50 + n).sample(range(total), 2000)
    masks = np.array(sample)
    for k in range(n - 1):
        swapped = C._swapped_edges(n, k, masks)
        assert swapped.dtype == masks.dtype
        assert swapped.tolist() == [swapped_vertices_mask(n, k, m) for m in masks.tolist()]
        assert np.array_equal(C._swapped_edges(n, k, swapped), masks)


@pytest.mark.parametrize("seed", range(6))
def test_orbit_labels_match_union_find(seed):
    """Each index's label is the least index of its component under three
    seeded random involutions of range(200).  The first two swap alternate
    neighbours along a shuffled order, which joins long runs of it into
    paths that need several sweeps; the third swaps ten random pairs."""
    rng = random.Random(90 + seed)
    size = 200
    order = rng.sample(range(size), size)
    images = [np.arange(size) for _ in range(3)]
    for image, offset in zip(images, (0, 1)):
        for a, b in zip(order[offset::2], order[offset + 1 :: 2]):
            if rng.random() < 0.9:
                image[a], image[b] = b, a
    picked = rng.sample(range(size), 20)
    images[2][picked[::2]], images[2][picked[1::2]] = picked[1::2], picked[::2]
    sweeps = []

    def moves():
        sweeps.append(None)
        return iter(images)

    label = C._orbit_labels(np.arange(size, dtype=np.int32), moves)
    assert label.dtype == np.int32
    least = union_find_least(size, images)
    assert label.tolist() == least
    assert len(sweeps) >= 3
    # one sweep: each label is its own label and lies in its index's component
    swept = C._sweep(np.arange(size, dtype=np.int32), lambda: iter(images))
    assert swept.dtype == np.int32 and (swept[swept] == swept).all()
    assert [least[i] for i in swept.tolist()] == least


def test_vector_census_order_is_first_seen():
    """Vectors, representatives and classes come in the order that a walk
    over the edge masks, with rank-per-mask entropies, first meets them."""
    n = 5
    counts, firsts = {}, {}
    for mask in range(1 << (n * (n - 1) // 2)):
        vals = rank_entropies(graphmod.from_edge_mask(n, mask))
        counts[vals] = counts.get(vals, 0) + 1
        firsts.setdefault(vals, mask)
    result = C.vector_census(n, source="graphs")
    assert list(result.vectors.items()) == list(counts.items())
    reps = {vals: graphmod.from_edge_mask(n, mask) for vals, mask in firsts.items()}
    assert list(result.representatives.items()) == list(reps.items())
    members = {}
    for vals in counts:
        members.setdefault(brute_canonical(n, vals), []).append(vals)
    assert [(k, v.representative) for k, v in result.classes.items()] == [
        (canon, reps[vals[0]]) for canon, vals in members.items()
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_representatives_are_first_graphs_of_the_per_graph_walk(n):
    """Each vector's representative is the graph of its first edge mask in
    the per-graph walk, in that walk's order."""
    rows, _counts, firsts = per_graph_vector_counts(n, "graphs")
    want = [
        (tuple(row), graphmod.from_edge_mask(n, first))
        for row, first in zip(rows.tolist(), firsts.tolist())
    ]
    assert list(C.vector_census(n, source="graphs").representatives.items()) == want


def test_graphs_and_groups_same_vector_sets():
    for n in (2, 3, 4):
        graph_vectors = set(C.vector_census(n, source="graphs").vectors)
        group_vectors = set(C.vector_census(n, source="groups").vectors)
        assert graph_vectors == group_vectors


@pytest.mark.parametrize("n", range(1, 7))
def test_state_census_is_the_per_class_tally(n):
    """The array aggregation gives the row that a loop over the group
    census's classes reads off their tallies, in Python ints."""
    row = dataclasses.astuple(C.state_census(n))
    assert row == per_class_state_census(C.vector_census(n, "groups"))
    assert all(type(v) is int for v in row)


def test_state_census_small():
    row3 = C.state_census(3)
    assert (row3.saturate_all, row3.satisfy_some_fail_none, row3.fail_some) == (
        1080,
        0,
        0,
    )
    row4 = C.state_census(4)
    assert (row4.saturate_all, row4.satisfy_some_fail_none, row4.fail_some) == (
        18576,
        15552,
        2592,
    )
    assert row4.distinct_vectors == 18
    assert row4.classes_up_to_exchange == 6
    assert row4.failing_vector_count == 1
    assert row4.total_states == 36720


def edge_mask(g) -> int:
    """Inverse of `graphs.from_edge_mask`."""
    pairs = combinations(range(g.n), 2)
    return sum(1 << b for b, (i, j) in enumerate(pairs) if g.adj[i] >> j & 1)


def lc_orbit_masks(g) -> list[int]:
    """The edge masks of g's LC orbit, by the depth-first closure oracle."""
    return [edge_mask(graphmod.Graph(g.n, adj)) for adj in dfs_lc_closure(g.adj, g.n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_orbit_labels_are_least_lc_orbit_masks(n):
    """Run until it converges, the LC walk labels each graph with the least
    edge mask of its LC orbit, and the graphs that share a distinct row of
    the census core are exactly that orbit, both as found by depth-first
    search: every labeled graph for n ≤ 5, seeded samples at n = 6 and 7.
    On every graph, the least mask is its row's first graph, so orbits and
    distinct rows are equal in number.  `vec` is int32, and the adjacency
    columns are the graph rows."""
    c = C._census_arrays(n, "graphs")
    total = 1 << (n * (n - 1) // 2)
    assert c.vec.dtype == np.int32 and c.cols.dtype == np.uint8 and len(c.vec) == total
    # LC at v toggles every pair inside N(v)
    pair_bits = list(enumerate(combinations(range(n), 2)))
    toggled = np.array(
        [sum(1 << b for b, (i, j) in pair_bits if s >> i & s >> j & 1) for s in range(1 << n)]
    )
    edge_masks = np.arange(total)
    least = C._orbit_labels(
        edge_masks.astype(np.int32), lambda: (toggled[col] ^ edge_masks for col in c.cols)
    )
    masks = range(total) if n <= 5 else random.Random(70 + n).sample(range(total), 15)
    checked = set()  # one search per orbit
    for m in masks:
        assert tuple(c.cols[:, m].tolist()) == graphmod.from_edge_mask(n, m).adj
        if m not in checked:
            orbit = sorted(lc_orbit_masks(graphmod.from_edge_mask(n, m)))
            assert np.flatnonzero(c.vec == c.vec[m]).tolist() == orbit
            assert (least[orbit] == orbit[0]).all()
            checked.update(orbit)
    assert np.array_equal(c.firsts[c.vec], least)
    assert len(np.unique(least)) == len(c.rows) == len(c.firsts)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_one_sweep_labels_lie_in_lc_orbits(n):
    """After one sweep, each graph's label is an edge mask of its LC orbit,
    as found by depth-first search, no larger than its own, and its own
    label: every labeled graph for n ≤ 5, seeded samples at n = 6 and 7."""
    _cols, label, roots, _rows = C._lc_orbits(n)
    masks = np.arange(1 << (n * (n - 1) // 2))
    assert (label <= masks).all() and (label[label] == label).all()
    assert roots.tolist() == sorted(set(label.tolist()))
    sample = masks.tolist() if n <= 5 else random.Random(80 + n).sample(masks.tolist(), 15)
    orbits: dict[int, set[int]] = {}  # one search per orbit
    for m in sample:
        if m not in orbits:
            orbit = set(lc_orbit_masks(graphmod.from_edge_mask(n, m)))
            orbits.update(dict.fromkeys(orbit, orbit))
        assert label[m] in orbits[m]


@pytest.mark.parametrize("n, classes, vectors", [(6, 777, 760), (7, 11683, 10773)])
def test_one_sweep_leaves_classes_that_share_a_vector(n, classes, vectors):
    """One sweep leaves more label classes than distinct vectors, so the
    census merges the rows of classes that share an LC orbit."""
    rows = C._lc_orbits(n)[3]
    assert len(rows) == classes
    assert len(np.unique(C._row_keys(rows))) == vectors


@pytest.mark.parametrize("source", ["graphs", "groups"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_vector_counts_match_per_graph_walk(n, source):
    """The orbit census gives the per-graph walk's vectors and counts, in
    that walk's order."""
    rows, counts, _firsts = per_graph_vector_counts(n, source)
    want = list(zip(map(tuple, rows.tolist()), counts.tolist()))
    assert list(C.vector_census(n, source).vectors.items()) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scan_fail_flags_match_per_graph_kernel(n, monkeypatch):
    """The intersection scan searches exactly the labeled graphs whose own
    kernel row fails no MMI instance, in ascending edge-mask order."""
    adj = edge_mask_adjacency(n, range(1 << (n * (n - 1) // 2)))
    instances = mmi_instances(n)
    want = []
    for mask, row in enumerate(C._graph_entropy_rows(adj).tolist()):
        ev = EntropyVector(n, tuple(row))
        if not any(evaluate_mmi(ev, inst) is MmiOutcome.FAILS for inst in instances):
            want.append(mask)
    searched = []
    monkeypatch.setattr(starmod, "find_star_partition", lambda g: searched.append(edge_mask(g)))
    report = C.nontrivial_intersection_scan(n)
    assert searched == want
    assert report == {"n": n, "graphs_searched": len(want), "counterexamples": []}


def test_intersection_scan_lists_a_planted_counterexample(monkeypatch):
    """A partition found on one non-failing graph makes that graph, and only
    it, a counterexample; the searched set stays the same."""
    n = 5
    planted = from_edges(n, [(1, 2), (2, 3), (3, 4), (4, 5)])  # the path
    ev = EntropyVector(n, rank_entropies(planted))
    assert all(evaluate_mmi(ev, inst) is not MmiOutcome.FAILS for inst in mmi_instances(n))
    want = C.nontrivial_intersection_scan(n)
    searched = []

    def find(g):
        searched.append(g)
        return "partition" if g == planted else None

    monkeypatch.setattr(starmod, "find_star_partition", find)
    report = C.nontrivial_intersection_scan(n)
    assert planted in searched and len(searched) == want["graphs_searched"]
    assert report == {**want, "counterexamples": [graphmod.to_graph6(planted)]}


def test_four_star_scan_small():
    report = C.four_star_conjecture_scan(4)
    assert report["failing_vectors"] == 1
    assert len(report["witnesses"]) == 1
    assert report["counterexamples"] == []
    report5 = C.four_star_conjecture_scan(5)
    assert report5["failing_vectors"] == 16
    assert len(report5["witnesses"]) == 16
    assert report5["counterexamples"] == []


@pytest.mark.parametrize("n", [4, 5, 6])
def test_four_star_witness_is_least_orbit_mask_with_a_four_star(n):
    """Every witness lies in the depth-first LC orbit of its vector's
    representative, has an induced four-star, and is the least such edge
    mask; `orbit_searched` is its rank among the orbit's masks.  Every
    failing vector at n = 4, 5, a seeded sample at n = 6."""
    report = C.four_star_conjecture_scan(n)
    records = report["witnesses"]
    assert len(records) == report["failing_vectors"] and not report["counterexamples"]
    if n == 6:
        records = random.Random(76).sample(records, 25)
    for rec in records:
        rep = graphmod.from_graph6(rec["representative"])
        orbit = sorted(lc_orbit_masks(rep))
        hits = [m for m in orbit if list(induced_four_stars(graphmod.from_edge_mask(n, m)))]
        witness = edge_mask(graphmod.from_graph6(rec["witness"]))
        assert edge_mask(rep) == orbit[0] and witness == hits[0]
        assert rec["orbit_searched"] == orbit.index(witness) + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_first_graph_is_each_orbits_first_member(n):
    """Each row's first graph is the first of its graphs in ascending
    edge-mask order, the order in which the four-star scan searches a
    row's LC orbit."""
    c = C._census_arrays(n, "graphs")
    by_row = np.argsort(c.vec, kind="stable")
    ends = np.cumsum(c.counts)
    assert np.array_equal(by_row[ends - c.counts], c.firsts)


def test_four_star_scan_builds_each_searched_graph_once(monkeypatch):
    """The representative is the first graph searched, built once: the
    scan builds one `Graph` per searched member and no other."""
    built = []

    def graph(n, adj):
        built.append(adj)
        return graphmod.Graph(n, adj)

    monkeypatch.setattr(C, "Graph", graph)
    report = C.four_star_conjecture_scan(6)
    searched = sum(rec["orbit_searched"] for rec in report["witnesses"])
    assert len(built) == searched > len(report["witnesses"])


def test_four_star_scan_lists_a_planted_counterexample(monkeypatch):
    """With no induced four-star anywhere in one failing vector's LC orbit,
    that vector's record moves to the counterexamples, having searched the
    whole orbit; every other record stays as it was."""
    n = 5
    want = C.four_star_conjecture_scan(n)
    planted = want["witnesses"][3]
    rep = graphmod.from_graph6(planted["representative"])
    orbit = set(lc_orbit_masks(rep))
    find = graphmod.has_induced_four_star
    monkeypatch.setattr(
        graphmod, "has_induced_four_star", lambda g: edge_mask(g) not in orbit and find(g)
    )
    report = C.four_star_conjecture_scan(n)
    moved = {k: v for k, v in planted.items() if k != "witness"}
    assert report == {
        **want,
        "witnesses": [rec for rec in want["witnesses"] if rec is not planted],
        "counterexamples": [{**moved, "orbit_searched": len(orbit)}],
    }


def test_four_star_scan_report_keys_do_not_depend_on_n():
    keys = {"n", "failing_vectors", "witnesses", "counterexamples"}
    for n in range(1, 6):
        report = C.four_star_conjecture_scan(n)
        assert set(report) == keys
        assert report["failing_vectors"] == (0 if n < 4 else len(report["witnesses"]))


def test_intersection_scan_small():
    report = C.nontrivial_intersection_scan(5)
    assert report["counterexamples"] == []
    star5 = from_edges(5, [(1, v) for v in range(2, 6)])
    assert find_star_partition(star5) is not None
    assert mmi_tally(entropy_vector(star5)).fails > 0
    p6 = from_edges(6, [(v, v + 1) for v in range(1, 6)])
    assert find_star_partition(p6) is None


def test_paths_and_cycles_never_fail():
    for n in range(3, 11):
        path = from_edges(n, [(v, v + 1) for v in range(1, n)])
        cycle = from_edges(n, [(v, v + 1) for v in range(1, n)] + [(n, 1)])
        for g in (path, cycle):
            vals = tuple(
                graphmod.entropy(g, m) for m in range(1, (1 << n) - 1)
            ) + (0,)
            assert mmi_tally(EntropyVector(n, vals)).fails == 0


def test_caps_enforced():
    with pytest.raises(ValueError):
        C.vector_census(8, source="graphs")
    with pytest.raises(ValueError):
        C.vector_census(7, source="groups")
    with pytest.raises(ValueError):
        C.state_census(7)
    with pytest.raises(ValueError):
        next(C.enumerate_stabilizer_groups(7))
