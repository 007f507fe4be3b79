"""Exhaustive censuses of labeled graphs and unsigned stabilizer groups.

Entropy vectors are aggregated into distinct-vector sets and qubit-exchange
classes with MMI tallies.  Local complementation (LC) of a graph is a local
Clifford, and local Cliffords change no subsystem entropy (Van den Nest,
Dehaene, De Moor, PRA 69, 022316, 2004), so the support-counting kernel
`_graph_entropy_rows`, the numpy batch form of `entropy.entropy_vector` for
graph states, runs once per label class of one sweep of a min-label LC
walk, on the class's least edge mask: each class lies inside one LC orbit,
and equal rows are merged afterwards.  A graph state's generators are X on
vertex v times Z on its neighbours, so the kernel reads adjacency rows.
The distinct vectors are labeled by the same walk with the n − 1 adjacent
qubit transpositions, read off their first graphs, as moves.  These
generate every relabeling, and the distinct vectors are closed under
relabeling, so each component is one whole exchange class, and its least
vector, first in the keys the row dedup sorts, is its canonical form (the
one `entropy.canonicalize` gives).  One core, `_census_arrays`, serves both
censuses and both conjecture scans: one walk, one dedup, and `mmi_signs`
once per exchange class, since relabeling permutes the MMI instances.  At
every n the census admits, the graphs that share a distinct row form exactly
one LC orbit, so the four-star scan reads each orbit off the rows.  The
intersection scan runs the same walk over every labeled graph, with the
vertex transpositions as moves, and searches one graph per relabeling class.

Both censuses walk the same orbits: the group census weights each graph, so
the kernel only ever sees graph states.  An unsigned stabilizer group is a
maximal symplectically self-orthogonal subspace of Z_2^{2n}, and every one
is local-Clifford equivalent to a graph state (ibid.).  The weight counts an
explicit bijection.  Put the X-parts of a group in RREF, with pivot qubits P
and free qubits F = V ∖ P.  The group is then fixed by a symmetric P×P
matrix M and by the free RREF entries A, which sit at (p, c) with c > p
only.  H on every qubit of F, then S on each pivot whose diagonal bit of M
is set, gives the graph state Γ with edges M among P, A between P and F, and
none inside F.

Let D(Γ) be the vertices with no larger neighbour (an independent set).  A
vertex set is the free set F of a group mapped to Γ exactly when F ⊆ D(Γ),
and the 2^(n−|F|) diagonals of M are then free.  So Γ stands for
Σ_{F⊆D} 2^(n−|F|) = 2^(n−d)·3^d groups, with d = |D(Γ)|; over all graphs
these weights total ∏(2^k + 1).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

import numpy as np

from . import graphs as graphmod
from . import star as starmod
from .entropy import MmiTally, mmi_table
from .gf2 import BitMatrix, rref
from .graphs import Graph, check_census_size
from .tableau import Tableau

__all__ = [
    "CensusRow",
    "ClassInfo",
    "CensusResult",
    "enumerate_stabilizer_groups",
    "stabilizer_group_count",
    "mmi_signs",
    "vector_census",
    "state_census",
    "four_star_conjecture_scan",
    "nontrivial_intersection_scan",
]

@dataclass(frozen=True)
class CensusRow:
    n: int
    total_states: int
    saturate_all: int
    satisfy_some_fail_none: int
    fail_some: int
    distinct_vectors: int
    classes_up_to_exchange: int
    failing_vector_count: int

    def __post_init__(self) -> None:
        if self.saturate_all + self.satisfy_some_fail_none + self.fail_some != self.total_states:
            raise ValueError("state buckets must sum to total_states")
        if self.total_states != (1 << self.n) * stabilizer_group_count(self.n):
            raise ValueError("total_states disagrees with the group-count formula")


@dataclass
class ClassInfo:
    canonical: tuple[int, ...]
    tally: MmiTally
    state_count: int
    member_vectors: int
    # realizing graph of the class's first member vector (None for groups)
    representative: Graph | None


@dataclass
class CensusResult:
    n: int
    source: str
    # distinct entropy-value tuples -> graph or group count
    vectors: dict[tuple[int, ...], int]
    representatives: dict[tuple[int, ...], Graph | None]
    classes: dict[tuple[int, ...], ClassInfo]


def stabilizer_group_count(n: int) -> int:
    total = 1
    for k in range(1, n + 1):
        total *= (1 << k) + 1
    return total


# ---------------------------------------------------------------------------
# batch kernels: graph-state entropy rows and MMI signs


def _graph_entropy_rows(adj: np.ndarray) -> np.ndarray:
    """Entropy rows of a batch of graph states.

    For a stabilizer group S, the number of elements supported inside A is
    2^(|A| − S_A) (Fattal et al., quant-ph/0406168), so a histogram of the
    2^n element supports plus a subset-sum (zeta) transform yields every
    subsystem entropy at once.

    adj has shape (B, n): entry [b, v] is N(v) in graph b, the Z-bitmask of
    generator v, whose X-bitmask is 1 << v.  Returns uint8 rows of shape
    (B, 2^n − 1) whose entry m − 1 is S_A for the nonempty mask m = A.  Work
    arrays are laid out mask-major, (2^n, B), so every slice below is a
    contiguous block; they are int32, which holds B·2^n < 2^31.
    """
    batch, n = adj.shape
    size = 1 << n
    # element s is the product of the generators in bitmask s: its X-part is
    # s itself, and its support is the union of s and its Z-part
    z = np.asarray(adj, dtype=np.int32).T
    supports = np.zeros((size, batch), dtype=np.int32)
    for i in range(n):
        np.bitwise_xor(supports[: 1 << i], z[i], out=supports[1 << i : 2 << i])
    # in place from here on: fresh arrays of this size cost more than the
    # arithmetic; each support becomes its bincount slot, support·B + b
    supports |= np.arange(size, dtype=np.int32)[:, None]
    supports *= batch
    supports += np.arange(batch, dtype=np.int32)
    counts = np.bincount(supports.ravel().astype(np.intp), minlength=size * batch)
    counts = counts.reshape(size, batch)
    # subset sums: counts[m] becomes the number of elements supported in m
    for k in range(n):
        half = counts.reshape(-1, 2, 1 << k, batch)
        half[:, 1] += half[:, 0]
    popcount = (np.arange(size)[:, None] >> np.arange(n) & 1).sum(axis=1).astype(np.uint8)
    log2 = np.zeros(size + 1, dtype=np.uint8)
    log2[1 << np.arange(n + 1)] = np.arange(n + 1)
    return (popcount[1:, None] - log2[counts[1:]]).T.copy()


@cache
def _mmi_table(n: int) -> np.ndarray:
    """`entropy.mmi_table` as an index array; read-only."""
    table = np.array(mmi_table(n, True), dtype=np.intp).reshape(-1, 7)
    table.flags.writeable = False
    return table


def mmi_signs(values) -> np.ndarray:
    """Sign of S_IJ + S_IK + S_JK − (S_I + S_J + S_K + S_IJK) for every MMI
    instance, in `mmi_instances` order: 1 satisfies, 0 saturates, −1 fails.

    `values` holds value rows of shape (..., 2^n − 1), n read from the last
    axis (one vector: `ev.values`); the result has shape (..., instances).
    The seven terms are gathered one mask-table column at a time and summed
    in place in int8, since entropies are at most n/2 and sums of four fit."""
    padded = np.insert(np.asarray(values, dtype=np.int8), 0, 0, axis=-1)
    table = _mmi_table(padded.shape[-1].bit_length() - 1)
    s = padded[..., table[:, 0]]
    for k in (1, 2):
        s += padded[..., table[:, k]]
    for k in range(3, 7):
        s -= padded[..., table[:, k]]
    return np.sign(s, out=s)


# ---------------------------------------------------------------------------
# stabilizer groups as weighted graphs


def _group_weights(adj: np.ndarray) -> np.ndarray:
    """Groups per graph row, 2^(n−d)·3^d: d counts the vertices with no
    larger neighbour."""
    n = adj.shape[1]
    d = (adj >> np.arange(1, n + 1, dtype=np.uint8) == 0).sum(axis=1, dtype=np.uint8)
    return np.array([(1 << (n - k)) * 3**k for k in range(n + 1)])[d]


def enumerate_stabilizer_groups(n: int):
    """Each unsigned stabilizer group once, as a canonical-RREF Tableau: from
    each graph Γ in edge-mask order, each free set F ⊆ D(Γ) and each phase
    subset of V ∖ F, S on the phase subset, then H on F."""
    check_census_size(n, "groups")
    full = (1 << n) - 1
    for mask in range(1 << (n * (n - 1) // 2)):
        adj = graphmod.from_edge_mask(n, mask).adj
        d_set = sum(1 << v for v in range(n) if not adj[v] >> (v + 1))
        for free, phases in product(range(full + 1), repeat=2):
            if free & ~d_set or phases & free:
                continue
            gens = []
            for v, zv in enumerate(adj):
                xv = 1 << v
                zv ^= xv & phases
                swap = (xv ^ zv) & free
                gens.append(xv ^ swap | (zv ^ swap) << n)
            reduced, _ = rref(BitMatrix(tuple(gens), 2 * n))
            yield Tableau(
                n,
                BitMatrix(tuple(r & full for r in reduced.rows), n),
                BitMatrix(tuple(r >> n for r in reduced.rows), n),
            )


# ---------------------------------------------------------------------------
# labeled LC orbits


def _sweep(label: np.ndarray, moves) -> np.ndarray:
    """One sweep of the min-label walk over a set of involutions.  `label`
    gives each index an int32 index of its orbit no larger than itself (at
    first its own); `moves()` yields each involution's image array.  Each
    index takes the least label of its images, move after move, then its
    label's label until every label is its own label.  Labels move only
    along the involutions, so each stays in its index's orbit."""
    for image in moves():
        label = np.minimum(label, label.take(image))
    while not np.array_equal(jumped := label.take(label), label):
        label = jumped
    return label


def _orbit_labels(label: np.ndarray, moves) -> np.ndarray:
    """The least index in the orbit of each index: `_sweep` from `label`,
    as `_sweep` takes it, until a sweep changes no label."""
    while not np.array_equal(swept := _sweep(label, moves), label):
        label = swept
    return label


def _lc_orbits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One `_sweep` of the LC walk over every labeled graph.

    Returns N(v) of every graph as n uint8 columns indexed by edge mask, the
    label of each graph (an edge mask in its LC orbit, no larger than its
    own), the roots (the graphs that are their own label) in ascending order,
    and the kernel entropy rows of the roots.  LC at v toggles every pair
    inside N(v), so it maps edge mask g to g ^ pairs[N(v)]."""
    cols = np.zeros((n, 1), dtype=np.uint8)
    subsets = np.arange(1 << n)
    pairs = np.zeros(1 << n, dtype=np.int32)
    for b, (i, j) in enumerate(combinations(range(n), 2)):
        edge = np.zeros((n, 1), dtype=np.uint8)
        edge[i], edge[j] = 1 << j, 1 << i
        cols = np.concatenate([cols, cols | edge], axis=1)
        pairs |= (subsets >> i & subsets >> j & 1) << b
    masks = np.arange(cols.shape[1], dtype=np.int32)
    label = _sweep(masks, lambda: (pairs.take(col) ^ masks for col in cols))
    roots = np.flatnonzero(label == masks)
    return cols, label, roots, _graph_entropy_rows(cols[:, roots].T)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One void scalar per uint8 row, which sorts and compares as its bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


# ---------------------------------------------------------------------------
# exchange classes and census aggregation


def _swapped_edges(n: int, k: int, masks: np.ndarray) -> np.ndarray:
    """The edge masks of the graphs `masks` with vertices k and k + 1 swapped:
    each pair's bit moves by 0, ±1 ({i, k} ↔ {i, k + 1}) or ±(n − k − 2)
    ({k, j} ↔ {k + 1, j}), so the swap is one mask-and-shift per shift."""
    pairs = list(combinations(range(n), 2))
    swap = {k: k + 1, k + 1: k}
    groups: dict[int, int] = {}
    for b, (i, j) in enumerate(pairs):
        shift = pairs.index(tuple(sorted((swap.get(i, i), swap.get(j, j))))) - b
        groups[shift] = groups.get(shift, 0) | 1 << b
    out = np.zeros_like(masks)
    for shift, group in groups.items():
        moved = masks & group
        out |= moved << shift if shift >= 0 else moved >> -shift
    return out


def _exchange_labels(n: int, firsts, vec, rank) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first and of the least row of each distinct row's
    relabeling orbit: row r has first graph `firsts[r]` (an edge mask) and
    rank `rank[r]` among the rows' sorted keys, and `vec` is every labeled
    graph's row index.  The moves are the n − 1 adjacent transpositions:
    relabeling a graph relabels its row, so row r with qubits k and k + 1
    swapped is the row of its first graph with vertices k and k + 1
    swapped, and an orbit's least row is its row of least rank."""
    images = [vec.take(_swapped_edges(n, k, firsts)) for k in range(n - 1)]
    label = _orbit_labels(np.arange(len(firsts), dtype=np.int32), lambda: images)
    least = np.full(len(firsts), len(firsts))
    np.minimum.at(least, label, rank)
    return label, np.argsort(rank).take(least.take(label))


_Census = namedtuple("_Census", "cols vec rows counts firsts cls heads canon signs")


def _census_arrays(n: int, source: str) -> _Census:
    """One source family's census as arrays: the adjacency columns of every
    labeled graph (`_lc_orbits`), each graph's int32 index `vec` of its
    distinct row, the distinct rows in first-seen order with their graph or
    group counts (int64) and first edge masks, each row's class index, the
    class heads (each exchange class's first row) in ascending order, the
    index of each class's canonical row and the classes' MMI signs.

    The graphs that share a distinct row form one LC orbit at every n the
    census admits, so `vec` groups the graphs by orbit as well."""
    check_census_size(n, source)
    cols, label, roots, rows = _lc_orbits(n)
    # one sweep suffices: each label class lies inside one LC orbit, and the
    # classes that share a row merge here
    _keys, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    order = np.argsort(first)  # into the first-seen order
    # each root's distinct-row index by edge mask, read through every label
    root_vec = np.empty(len(label), dtype=np.int32)
    root_vec[roots] = np.argsort(order)[inverse]
    vec = root_vec.take(label)
    weights = _group_weights(cols.T) if source == "groups" else None
    # float sums of integer weights are exact below 2^53
    counts = np.bincount(vec, weights).astype(np.int64)
    rows, firsts = rows[first[order]], roots[first[order]]
    class_id, least = _exchange_labels(n, firsts, vec, order)
    heads = np.flatnonzero(class_id == np.arange(len(rows)))
    canon = least[heads]
    cls = np.searchsorted(heads, class_id)
    return _Census(cols, vec, rows, counts, firsts, cls, heads, canon, mmi_signs(rows[canon]))


def vector_census(n: int, source: str = "graphs", jobs: int = 1) -> CensusResult:
    """Distinct entropy vectors and exchange classes over one source family;
    `jobs` is accepted and ignored: every census runs in one process."""
    c = _census_arrays(n, source)
    keys = list(map(tuple, c.rows.tolist()))
    vectors = dict(zip(keys, c.counts.tolist()))
    reps = dict.fromkeys(keys)
    if source == "graphs":
        reps.update(zip(keys, (Graph(n, tuple(a)) for a in c.cols[:, c.firsts].T.tolist())))
    states = np.bincount(c.cls, c.counts).astype(np.int64) << (source == "groups") * n
    tallies = np.stack([(c.signs == s).sum(axis=-1) for s in (1, 0, -1)], axis=-1)
    members = np.bincount(c.cls)
    classes = {
        keys[i]: ClassInfo(keys[i], MmiTally(*tally), state_count, member_vectors, reps[keys[h]])
        for i, h, tally, state_count, member_vectors in zip(
            c.canon.tolist(), c.heads.tolist(), tallies.tolist(), states.tolist(), members.tolist()
        )
    }
    return CensusResult(n, source, vectors, reps, classes)


def state_census(n: int, jobs: int = 1) -> CensusRow:
    """Per-state MMI bucket counts over all signed stabilizer states: each
    state falls in its class's bucket, since relabeling qubits permutes the
    MMI instances among themselves.  `jobs` is accepted and ignored: every
    census runs in one process."""
    c = _census_arrays(n, "groups")
    fails = (c.signs < 0).any(axis=-1)[c.cls]
    bucket = np.where(fails, 2, (c.signs > 0).any(axis=-1)[c.cls])
    states = np.bincount(bucket, c.counts, minlength=3).astype(np.int64) << n
    total = (1 << n) * stabilizer_group_count(n)
    return CensusRow(n, total, *states.tolist(), len(c.rows), len(c.heads), int(fails.sum()))


# ---------------------------------------------------------------------------
# conjecture scans


def _orbit_four_star_search(n: int, cols, members, rep: Graph) -> tuple[Graph | None, int]:
    """The first of an orbit's graphs, edge masks `members` in order, that
    has an induced four-star (None if none has), and the graphs tested up to
    it.  members[0] is the row's first graph, `rep`, so it is searched first."""
    for searched, mask in enumerate(members.tolist(), start=1):
        g = Graph(n, tuple(cols[:, mask].tolist())) if searched > 1 else rep
        if graphmod.has_induced_four_star(g):
            return g, searched
    return None, searched


def four_star_conjecture_scan(n: int) -> dict:
    """For every MMI-failing entropy vector, test the LC orbit of its first
    graph, member by member in ascending edge-mask order, for an induced
    four-star; counterexamples are expected empty."""
    c = _census_arrays(n, "graphs")
    fails = (c.signs < 0).any(axis=-1)[c.cls]
    failing = sorted(zip(c.rows[fails].tolist(), np.flatnonzero(fails).tolist()))
    # each row's graphs, its LC orbit, in ascending edge-mask order
    by_row = np.argsort(c.vec, kind="stable")
    ends = np.cumsum(c.counts)
    witnesses = []
    counterexamples = []
    for idx, (_vals, i) in enumerate(failing, start=1):
        members = by_row[ends[i] - c.counts[i] : ends[i]]
        rep = Graph(n, tuple(c.cols[:, c.firsts[i]].tolist()))
        member, searched = _orbit_four_star_search(n, c.cols, members, rep)
        rep6 = graphmod.to_graph6(rep)
        record = {"vector_id": idx, "representative": rep6, "orbit_searched": searched}
        if member is not None:
            record["witness"] = rep6 if member is rep else graphmod.to_graph6(member)
        (witnesses if member is not None else counterexamples).append(record)
    return {
        "n": n,
        "failing_vectors": len(failing),
        "witnesses": witnesses,
        "counterexamples": counterexamples,
    }


def nontrivial_intersection_scan(n: int) -> dict:
    """Verify: a nontrivial-intersection partition implies the state fails
    some MMI instance.  Relabeling maps star partitions to star partitions,
    so one search decides each relabeling class whose vector fails nothing,
    on its least edge mask, and a hit makes each member a counterexample."""
    check_census_size(n, "graphs")  # before the 2^E-entry walk
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int32)
    label = _orbit_labels(masks, lambda: (_swapped_edges(n, k, masks) for k in range(n - 1)))
    roots = np.flatnonzero(label == masks)
    del masks  # freed before the census core
    c = _census_arrays(n, "graphs")
    fails = (c.signs < 0).any(axis=-1)[c.cls]  # one flag per distinct row
    searched = roots[~fails[c.vec.take(roots)]].tolist()
    hits = [m for m in searched if starmod.find_star_partition(graphmod.from_edge_mask(n, m))]
    members = np.flatnonzero(np.isin(label, hits)).tolist()
    found = [graphmod.to_graph6(graphmod.from_edge_mask(n, m)) for m in members]
    return {"n": n, "graphs_searched": int(c.counts[~fails].sum()), "counterexamples": found}
