"""Exhaustive censuses of labeled graphs and unsigned stabilizer groups.

Entropy vectors are aggregated into distinct-vector sets and qubit-exchange
classes with MMI tallies.  Local complementation (LC) of a graph is a local
Clifford, and local Cliffords change no subsystem entropy (Van den Nest,
Dehaene, De Moor, PRA 69, 022316, 2004), so the support-counting kernel
`_entropy_rows`, the numpy batch form of `entropy.entropy_vector`, runs
once per labeled LC orbit, on its least edge mask.  A graph state's
generators are X on vertex v times Z on its neighbours.  The distinct
vectors are labeled by the same walk with the n − 1 adjacent qubit
transpositions as moves.  These generate every relabeling, and the
distinct vectors are closed under relabeling, so each component is one
whole exchange class, and its least vector is the class's canonical form
(the one `entropy.canonicalize` gives).  `mmi_signs` tallies the classes in
one gather through the mask table of `entropy.mmi_table`.  The four-star
scan reads each orbit's members off the LC-orbit labels.

Both censuses walk the same orbits: the group census weights each graph.  An
unsigned stabilizer group is a maximal symplectically self-orthogonal
subspace of Z_2^{2n}, and every one is local-Clifford equivalent to a graph
state (ibid.).  The weight counts an explicit bijection.  Put the X-parts
of a group in RREF, with pivot qubits P and free qubits F = V ∖ P.  The
group is then fixed by a symmetric P×P matrix M and by the free RREF
entries A, which sit at (p, c) with c > p only.  H on every qubit of F, then
S on each pivot whose diagonal bit of M is set, gives the graph state Γ
with edges M among P, A between P and F, and none inside F.

Let D(Γ) be the vertices with no larger neighbour (an independent set).  A
vertex set is the free set F of a group mapped to Γ exactly when F ⊆ D(Γ),
and the 2^(n−|F|) diagonals of M are then free.  So Γ stands for
Σ_{F⊆D} 2^(n−|F|) = 2^(n−d)·3^d groups, with d = |D(Γ)|; over all graphs
these weights total ∏(2^k + 1).
"""

from __future__ import annotations

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
# batch kernels: entropy rows and MMI signs


def _entropy_rows(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Entropy rows from batches of generator rows.

    For a stabilizer group S, the number of elements supported inside A is
    2^(|A| − S_A) (Fattal et al., quant-ph/0406168), so a histogram of the
    2^n element supports plus a subset-sum (zeta) transform yields every
    subsystem entropy at once.

    x and z have shape (B, n): entry [b, i] is the X- or Z-bitmask of
    generator i of group b.  Returns uint8 rows of shape (B, 2^n − 1) whose
    entry m − 1 is S_A for the nonempty mask m = A.  Work arrays are laid out
    mask-major, (2^n, B), so every slice below is a contiguous block; they
    are int32, which holds B·2^n < 2^31.
    """
    batch, n = z.shape
    size = 1 << n
    # element s is the product of the generators in bitmask s; its support
    # is the union of its X- and Z-parts
    x = np.asarray(x, dtype=np.int32).T
    z = np.asarray(z, dtype=np.int32).T
    x_parts = np.zeros((size, batch), dtype=np.int32)
    z_parts = np.zeros((size, batch), dtype=np.int32)
    for i in range(n):
        np.bitwise_xor(x_parts[: 1 << i], x[i], out=x_parts[1 << i : 2 << i])
        np.bitwise_xor(z_parts[: 1 << i], z[i], out=z_parts[1 << i : 2 << i])
    # in place from here on: fresh arrays of this size cost more than the
    # arithmetic; each support becomes its bincount slot, support·B + b
    supports = x_parts
    supports |= z_parts
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
    The gather is int8: entropies are at most n/2, so sums of four fit."""
    padded = np.insert(np.asarray(values, dtype=np.int8), 0, 0, axis=-1)
    s = padded[..., _mmi_table(padded.shape[-1].bit_length() - 1)]
    return np.sign(s[..., :3].sum(axis=-1, dtype=np.int8) - s[..., 3:].sum(axis=-1, dtype=np.int8))


# ---------------------------------------------------------------------------
# graph rows and stabilizer groups


def _graph_entropy_rows(adj: np.ndarray) -> np.ndarray:
    """Kernel entropy rows of a batch of graph states."""
    return _entropy_rows(np.broadcast_to(1 << np.arange(adj.shape[1]), adj.shape), adj)


def _group_weights(adj: np.ndarray) -> np.ndarray:
    """Groups per graph row, 2^(n−d)·3^d: d counts the vertices with no
    larger neighbour."""
    n = adj.shape[1]
    d = (adj >> np.arange(1, n + 1) == 0).sum(axis=1)
    return (1 << (n - d)) * 3**d


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
# labeled LC orbits and distinct-vector tallies


def _orbit_labels(size: int, moves) -> np.ndarray:
    """The least index in the orbit of each of range(size) under a set of
    involutions, as int32.  `moves()` yields each involution's image array
    once per sweep.  Each index takes the least label of its images, move
    after move, then its label's label, until a sweep changes no label."""
    label = np.arange(size, dtype=np.int32)
    while True:
        before = label
        for image in moves():
            label = np.minimum(label, label[image])
        label = label[label]
        if np.array_equal(label, before):
            return label


def _lc_orbits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every labeled graph's LC orbit.

    Returns N(v) of every graph as n uint8 columns indexed by edge mask, the
    label of each graph (the least edge mask in its orbit, int32), the roots
    (the graphs that are their own label) in ascending order, and the kernel
    entropy rows of the roots.  LC at v toggles every pair inside N(v), so
    it maps edge mask g to g ^ pairs[N(v)]; each sweep recomputes these
    images."""
    cols = np.zeros((n, 1), dtype=np.uint8)
    subsets = np.arange(1 << n)
    pairs = np.zeros(1 << n, dtype=np.int32)
    for b, (i, j) in enumerate(combinations(range(n), 2)):
        edge = np.zeros((n, 1), dtype=np.uint8)
        edge[i], edge[j] = 1 << j, 1 << i
        cols = np.concatenate([cols, cols | edge], axis=1)
        pairs |= (subsets >> i & subsets >> j & 1) << b
    masks = np.arange(cols.shape[1], dtype=np.int32)
    label = _orbit_labels(len(masks), lambda: (pairs[col] ^ masks for col in cols))
    roots = np.flatnonzero(label == masks)
    return cols, label, roots, _graph_entropy_rows(cols[:, roots].T)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One void scalar per uint8 row, which sorts and compares as its bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def _distinct_rows(rows: np.ndarray, weights: np.ndarray, firsts: np.ndarray):
    """The distinct rows of uint8 `rows`, which come in ascending order of
    their first edge masks `firsts`: the distinct rows in first-seen order,
    their summed weights as int64, and their first edge masks."""
    _keys, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    order = np.argsort(first)
    inverse = np.argsort(order)[inverse]  # into the first-seen order
    # float sums of integer weights are exact below 2^53
    counts = np.bincount(inverse, weights).astype(np.int64)
    first = first[order]
    return rows[first], counts, firsts[first]


def _vector_counts(n: int, source: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct entropy vectors over all labeled graphs, or over all unsigned
    stabilizer groups as graphs weighted by the groups each stands for.

    Returns the distinct value rows in first-seen order, the graph or group
    count of each, and the edge mask of its first graph.  Every graph of an
    orbit has its root's vector, so a vector's first graph is the least root
    among the orbits that have it."""
    cols, label, roots, rows = _lc_orbits(n)
    weights = _group_weights(cols.T) if source == "groups" else None
    return _distinct_rows(rows, np.bincount(label, weights)[roots], roots)


def _graph_fails(n: int) -> np.ndarray:
    """Whether each labeled graph's vector fails some MMI instance, indexed
    by edge mask: each graph reads its root's flag."""
    _cols, label, roots, rows = _lc_orbits(n)
    return (mmi_signs(rows) < 0).any(axis=-1)[np.searchsorted(roots, label)]


# ---------------------------------------------------------------------------
# exchange classes and census aggregation


def _exchange_labels(n: int, rows: np.ndarray) -> np.ndarray:
    """The index of the first row of each value row's relabeling orbit, for
    distinct value rows `rows` that are closed under qubit relabeling.

    The moves are the n − 1 adjacent transpositions, which generate every
    relabeling: swapping qubits k and k + 1 maps mask m to the entry
    m ^ (bit k ≠ bit k + 1)·0b11 << k, and each swapped row is found among
    the rows by a binary search of their sorted keys."""
    keys = _row_keys(rows)
    order = np.argsort(keys)
    keys = keys[order]
    masks = np.arange(1, 1 << n)
    images = []
    for k in range(n - 1):
        swapped = masks ^ ((masks >> k ^ masks >> (k + 1)) & 1) * (3 << k)
        images.append(order[np.searchsorted(keys, _row_keys(rows[:, swapped - 1]))])
    return _orbit_labels(len(rows), lambda: images)


def vector_census(n: int, source: str = "graphs", jobs: int = 1) -> CensusResult:
    """Distinct entropy vectors and exchange classes over one source family.

    `jobs` is accepted and ignored: every census runs in one process."""
    check_census_size(n, source)
    rows, counts, firsts = _vector_counts(n, source)
    keys = list(map(tuple, rows.tolist()))
    vectors = dict(zip(keys, counts.tolist()))
    reps = {
        key: graphmod.from_edge_mask(n, first) if source == "graphs" else None
        for key, first in zip(keys, firsts.tolist())
    }

    components: dict[int, list[tuple[int, ...]]] = {}
    for vals, label in zip(keys, _exchange_labels(n, rows).tolist()):
        components.setdefault(label, []).append(vals)
    # each component is a whole relabeling orbit, so its least member is the
    # canonical form of every member
    members = {min(vals): vals for vals in components.values()}
    # satisfies, saturates and fails of every class in one gather
    signs = mmi_signs(np.array(list(members), dtype=np.int8))
    tallies = (signs[..., None] == np.array([1, 0, -1])).sum(axis=-2).tolist()
    multiplier = (1 << n) if source == "groups" else 1
    classes = {
        canon: ClassInfo(
            canon,
            MmiTally(*tally),
            sum(vectors[v] for v in vals) * multiplier,
            len(vals),
            reps[vals[0]],
        )
        for (canon, vals), tally in zip(members.items(), tallies)
    }
    return CensusResult(n, source, vectors, reps, classes)


def state_census(n: int, jobs: int = 1) -> CensusRow:
    """Per-state MMI bucket counts over all signed stabilizer states.

    A class's tally is that of each member vector, since relabeling qubits
    permutes the MMI instances among themselves.  `jobs` is accepted and
    ignored: every census runs in one process."""
    result = vector_census(n, source="groups")
    saturate = satisfy = fail = failing_vectors = 0
    for info in result.classes.values():
        if info.tally.fails:
            fail += info.state_count
            failing_vectors += info.member_vectors
        elif info.tally.satisfies:
            satisfy += info.state_count
        else:
            saturate += info.state_count
    return CensusRow(
        n,
        (1 << n) * stabilizer_group_count(n),
        saturate,
        satisfy,
        fail,
        len(result.vectors),
        len(result.classes),
        failing_vectors,
    )


# ---------------------------------------------------------------------------
# conjecture scans


def _orbit_four_star_search(n: int, members: np.ndarray) -> tuple[Graph | None, int]:
    """The first graph of an orbit's edge masks `members` that has an induced
    four-star (None if none has), and the members tested up to it."""
    for searched, mask in enumerate(members.tolist(), start=1):
        g = graphmod.from_edge_mask(n, mask)
        if next(graphmod.induced_four_stars(g), None) is not None:
            return g, searched
    return None, len(members)


def four_star_conjecture_scan(n: int) -> dict:
    """For every MMI-failing entropy vector, test the LC orbit of its first
    graph, member by member in ascending edge-mask order, for an induced
    four-star; counterexamples are expected empty."""
    check_census_size(n, "graphs")
    _cols, label, roots, rows = _lc_orbits(n)
    vals, _counts, firsts = _distinct_rows(rows, np.ones(len(roots)), roots)
    fails = (mmi_signs(vals) < 0).any(axis=-1)
    failing = sorted(zip(vals[fails].tolist(), firsts[fails].tolist()))
    # each orbit's edge masks in ascending order, the orbits in root order
    by_orbit = np.argsort(label, kind="stable")
    orbits = np.split(by_orbit, np.searchsorted(label[by_orbit], roots[1:]))
    witnesses = []
    counterexamples = []
    for idx, (_vals, rep_mask) in enumerate(failing, start=1):
        # a vector's first graph is a root
        member, searched = _orbit_four_star_search(n, orbits[np.searchsorted(roots, rep_mask)])
        record = {
            "vector_id": idx,
            "representative": graphmod.to_graph6(graphmod.from_edge_mask(n, rep_mask)),
            "orbit_searched": searched,
        }
        if member is not None:
            record["witness"] = graphmod.to_graph6(member)
            witnesses.append(record)
        else:
            counterexamples.append(record)
    return {
        "n": n,
        "failing_vectors": len(failing),
        "witnesses": witnesses,
        "counterexamples": counterexamples,
    }


def nontrivial_intersection_scan(n: int) -> dict:
    """Verify: a nontrivial-intersection partition implies the state fails
    some MMI instance.  Only graphs whose vector fails nothing need the
    partition search; any hit there is a counterexample."""
    check_census_size(n, "graphs")
    counterexamples = []
    # a failing graph satisfies the implication whatever its partitions
    searched = np.flatnonzero(~_graph_fails(n)).tolist()
    for mask in searched:
        g = graphmod.from_edge_mask(n, mask)
        if starmod.find_star_partition(g) is not None:
            counterexamples.append(graphmod.to_graph6(g))
    return {
        "n": n,
        "graphs_searched": len(searched),
        "counterexamples": counterexamples,
    }
