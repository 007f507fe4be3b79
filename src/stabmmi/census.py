"""Exhaustive censuses of labeled graphs and unsigned stabilizer groups.

Entropy vectors are aggregated into distinct-vector sets and qubit-exchange
classes with MMI tallies.  Local complementation (LC) of a graph is a local
Clifford, and local Cliffords change no subsystem entropy (Van den Nest,
Dehaene, De Moor, PRA 69, 022316, 2004), so the support-counting kernel
`_entropy_rows`, the numpy batch form of `entropy.entropy_vector`, runs
once per label class of one sweep of a min-label LC walk, on the class's
least edge mask: each class lies inside one LC orbit, and equal rows are
merged afterwards.  A graph state's generators are X on vertex v times Z on
its neighbours.  The distinct vectors are labeled by the same walk with the
n − 1 adjacent qubit transpositions as moves.  These generate every
relabeling, and the distinct vectors are closed under relabeling, so each
component is one whole exchange class, and its least vector, the first in
the sorted keys of the binary search, is the class's canonical form (the
one `entropy.canonicalize` gives).  Class counts are `np.bincount`s over
the class ids, and `mmi_signs` tallies the classes through the mask table
of `entropy.mmi_table`.  The four-star scan runs the LC walk until it
converges and reads each orbit's members off its labels.

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


_MMI_CHUNK = 1024  # rows per `mmi_signs` gather: 12 MB at n = 7


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
    The gather is int8, since entropies are at most n/2 and sums of four
    fit, and runs `_MMI_CHUNK` rows at a time, which bounds its peak."""
    padded = np.insert(np.asarray(values, dtype=np.int8), 0, 0, axis=-1)
    table = _mmi_table(padded.shape[-1].bit_length() - 1)
    flat = padded.reshape(-1, padded.shape[-1])
    signs = np.empty((len(flat), len(table)), dtype=np.int8)
    for start in range(0, len(flat), _MMI_CHUNK):
        s = flat[start : start + _MMI_CHUNK][:, table]
        s = s[..., :3].sum(axis=-1, dtype=np.int8) - s[..., 3:].sum(axis=-1, dtype=np.int8)
        signs[start : start + _MMI_CHUNK] = np.sign(s)
    return signs.reshape(padded.shape[:-1] + (len(table),))


# ---------------------------------------------------------------------------
# graph rows and stabilizer groups


def _graph_entropy_rows(adj: np.ndarray) -> np.ndarray:
    """Kernel entropy rows of a batch of graph states."""
    return _entropy_rows(np.broadcast_to(1 << np.arange(adj.shape[1]), adj.shape), adj)


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
# labeled LC orbits and distinct-vector tallies


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


def _lc_orbits(n: int, walk) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every labeled graph's LC label under `walk`, `_sweep` or `_orbit_labels`.

    Returns N(v) of every graph as n uint8 columns indexed by edge mask, the
    label of each graph (an edge mask in its orbit, no larger than its own;
    the least one under `_orbit_labels`), the roots (the graphs that are
    their own label) in ascending order, and the kernel entropy rows of the
    roots.  LC at v toggles every pair inside N(v), so it maps edge mask g
    to g ^ pairs[N(v)]; each sweep recomputes these images."""
    cols = np.zeros((n, 1), dtype=np.uint8)
    subsets = np.arange(1 << n)
    pairs = np.zeros(1 << n, dtype=np.int32)
    for b, (i, j) in enumerate(combinations(range(n), 2)):
        edge = np.zeros((n, 1), dtype=np.uint8)
        edge[i], edge[j] = 1 << j, 1 << i
        cols = np.concatenate([cols, cols | edge], axis=1)
        pairs |= (subsets >> i & subsets >> j & 1) << b
    masks = np.arange(cols.shape[1], dtype=np.int32)
    label = walk(masks, lambda: (pairs.take(col) ^ masks for col in cols))
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
    order = np.argsort(first)  # into the first-seen order
    # float sums of integer weights are exact below 2^53
    counts = np.bincount(inverse, weights)[order].astype(np.int64)
    first = first[order]
    return rows[first], counts, firsts[first]


# ---------------------------------------------------------------------------
# exchange classes and census aggregation


def _exchange_labels(n: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first and of the least row of each value row's
    relabeling orbit, for distinct value rows `rows` that are closed under
    qubit relabeling.  The moves are the n − 1 adjacent transpositions:
    swapping qubits k and k + 1 maps mask m to the entry
    m ^ (bit k ≠ bit k + 1)·0b11 << k, and each swapped row is found among
    the rows by a binary search of their sorted keys, in which an orbit's
    least row comes first."""
    keys = _row_keys(rows)
    order = np.argsort(keys)
    keys = keys[order]
    masks = np.arange(1, 1 << n)
    images = []
    for k in range(n - 1):
        swapped = masks ^ ((masks >> k ^ masks >> (k + 1)) & 1) * (3 << k)
        images.append(order[np.searchsorted(keys, _row_keys(rows[:, swapped - 1]))])
    label = _orbit_labels(np.arange(len(rows), dtype=np.int32), lambda: images)
    first_sorted = np.full(len(rows), len(rows))
    np.minimum.at(first_sorted, label.take(order), np.arange(len(rows)))
    return label, order.take(first_sorted.take(label))


def _census_arrays(n: int, source: str):
    """One source family's census as arrays: the distinct rows in first-seen
    order, their graph or group counts (int64), the adjacency rows of their
    first graphs, each row's class id (its exchange class's first row), the
    class heads (the rows that are their own class id) in ascending order,
    the index of each class's canonical row and the classes' MMI signs."""
    check_census_size(n, source)
    # one sweep suffices: a vector's first graph is the least root among the
    # label classes that `_distinct_rows` merges into it
    cols, label, roots, rows = _lc_orbits(n, _sweep)
    weights = _group_weights(cols.T) if source == "groups" else None
    rows, counts, firsts = _distinct_rows(rows, np.bincount(label, weights)[roots], roots)
    class_id, least = _exchange_labels(n, rows)
    heads = np.flatnonzero(class_id == np.arange(len(rows)))
    canon = least[heads]
    return rows, counts, cols[:, firsts].T, class_id, heads, canon, mmi_signs(rows[canon])


def vector_census(n: int, source: str = "graphs", jobs: int = 1) -> CensusResult:
    """Distinct entropy vectors and exchange classes over one source family;
    `jobs` is accepted and ignored: every census runs in one process."""
    rows, counts, adj, class_id, heads, canon, signs = _census_arrays(n, source)
    keys = list(map(tuple, rows.tolist()))
    vectors = dict(zip(keys, counts.tolist()))
    reps = dict.fromkeys(keys)
    if source == "graphs":
        reps.update(zip(keys, (Graph(n, tuple(a)) for a in adj.tolist())))
    states = np.bincount(class_id, counts)[heads].astype(np.int64) << (source == "groups") * n
    members = np.bincount(class_id)[heads]
    tallies = np.stack([(signs == s).sum(axis=-1) for s in (1, 0, -1)], axis=-1)
    classes = {
        keys[c]: ClassInfo(keys[c], MmiTally(*tally), state_count, member_vectors, reps[keys[h]])
        for c, h, tally, state_count, member_vectors in zip(
            canon.tolist(), heads.tolist(), tallies.tolist(), states.tolist(), members.tolist()
        )
    }
    return CensusResult(n, source, vectors, reps, classes)


def state_census(n: int, jobs: int = 1) -> CensusRow:
    """Per-state MMI bucket counts over all signed stabilizer states: each
    state falls in its class's bucket, since relabeling qubits permutes the
    MMI instances among themselves.  `jobs` is accepted and ignored: every
    census runs in one process."""
    rows, counts, _adj, class_id, heads, _canon, signs = _census_arrays(n, "groups")
    fails = (signs < 0).any(axis=-1)
    bucket = np.where(fails, 2, (signs > 0).any(axis=-1))[np.searchsorted(heads, class_id)]
    states = np.bincount(bucket, counts, minlength=3).astype(np.int64) << n
    failing_vectors = int(np.bincount(class_id)[heads][fails].sum())
    total = (1 << n) * stabilizer_group_count(n)
    return CensusRow(n, total, *states.tolist(), len(rows), len(heads), failing_vectors)


# ---------------------------------------------------------------------------
# conjecture scans


def _orbit_four_star_search(cols: np.ndarray, members: np.ndarray) -> tuple[Graph | None, int]:
    """The first graph of an orbit's edge masks `members`, read off the
    adjacency columns `cols`, that has an induced four-star (None if none
    has), and the members tested up to it."""
    for searched, mask in enumerate(members, start=1):
        g = Graph(len(cols), tuple(cols[:, mask].tolist()))
        if next(graphmod.induced_four_stars(g), None) is not None:
            return g, searched
    return None, len(members)


def four_star_conjecture_scan(n: int) -> dict:
    """For every MMI-failing entropy vector, test the LC orbit of its first
    graph, member by member in ascending edge-mask order, for an induced
    four-star; counterexamples are expected empty."""
    check_census_size(n, "graphs")
    cols, label, roots, rows = _lc_orbits(n, _orbit_labels)
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
        member, searched = _orbit_four_star_search(cols, orbits[np.searchsorted(roots, rep_mask)])
        record = {
            "vector_id": idx,
            "representative": graphmod.to_graph6(Graph(n, tuple(cols[:, rep_mask].tolist()))),
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
    cols, label, roots, rows = _lc_orbits(n, _sweep)
    # a failing graph satisfies the implication whatever its partitions;
    # each graph reads its root's fail flag; the MMI gather, which sets the
    # scan's peak memory, runs once per distinct row
    _keys, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    fails = (mmi_signs(rows[first]) < 0).any(axis=-1)[inverse][np.searchsorted(roots, label)]
    searched = np.flatnonzero(~fails).tolist()
    counterexamples = []
    for mask in searched:
        g = Graph(n, tuple(cols[:, mask].tolist()))
        if starmod.find_star_partition(g) is not None:
            counterexamples.append(graphmod.to_graph6(g))
    return {
        "n": n,
        "graphs_searched": len(searched),
        "counterexamples": counterexamples,
    }
