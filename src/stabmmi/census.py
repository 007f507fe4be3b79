"""Exhaustive censuses of labeled graphs and unsigned stabilizer groups.

Entropy vectors are aggregated into distinct-vector sets and qubit-exchange
classes with MMI tallies.  Every census entropy vector comes from the
support-counting kernel of `entropy`: labeled graphs (x = identity,
z = adjacency) and stabilizer groups are both fed to it in fixed-size chunks
of generator rows.  Exchange classes are minimised over the relabeling
tables of `entropy`, each relabeling orbit once.

Unsigned stabilizer groups are enumerated through an exact parametrization:
a maximal symplectically self-orthogonal subspace of Z_2^{2n} is determined
by the subspace T spanned by the X-parts of its elements together with a
symmetric binary matrix over a basis of T.  Summing over dim T reproduces
the product formula ∏(2^k + 1).

The censuses produce only the groups whose symmetric matrix has a zero
diagonal.  With the X-part in RREF, generator i is the only one with an X on
its pivot qubit, so toggling diagonal entry i is the phase gate S on that
qubit: a local unitary, which changes no subsystem entropy.  Each produced
group therefore stands for 2^t groups, t = dim T, and its row is tallied
with weight 2^t; ∏_{k<n}(1 + 2^k) rows cover all ∏(2^k + 1) groups.  For
groups the first index in a tally counts produced rows, and is unused.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import graphs as graphmod
from . import star as starmod
from .entropy import EntropyVector, MmiTally, mmi_tally, relabeled, relabelings
from .entropy import _entropy_rows, _index_bits
from .gf2 import BitMatrix, rref
from .graphs import CapExceeded, Graph, enumerate_graphs
from .tableau import Tableau

__all__ = [
    "CensusRow",
    "ClassInfo",
    "CensusResult",
    "enumerate_graphs",
    "enumerate_stabilizer_groups",
    "stabilizer_group_count",
    "vector_census",
    "state_census",
    "four_star_conjecture_scan",
    "nontrivial_intersection_scan",
]

# rows per kernel call; also the unit of work handed to pool workers
CHUNK = 1 << 12


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
    # distinct entropy-value tuples -> (multiplicity, representative)
    vectors: dict[tuple[int, ...], int]
    representatives: dict[tuple[int, ...], Graph | None]
    classes: dict[tuple[int, ...], ClassInfo]


def stabilizer_group_count(n: int) -> int:
    total = 1
    for k in range(1, n + 1):
        total *= (1 << k) + 1
    return total


# ---------------------------------------------------------------------------
# entropy-row producers


def _graph_rows(n: int, start: int, stop: int) -> np.ndarray:
    """Entropy rows of the labeled graphs with edge masks start..stop−1."""
    pairs = list(combinations(range(n), 2))
    weights = np.zeros((len(pairs), n), dtype=np.int64)
    for e, (v, w) in enumerate(pairs):
        weights[e, v] = 1 << w
        weights[e, w] = 1 << v
    z = _index_bits(np.arange(start, stop, dtype=np.int64), len(pairs)) @ weights
    x = np.broadcast_to(1 << np.arange(n, dtype=np.int64), z.shape)
    return _entropy_rows(x, z)


# ---------------------------------------------------------------------------
# stabilizer group enumeration


def _rref_matrices(n: int, t: int):
    """All full-rank t×n matrices in RREF, as (rows, pivots)."""
    if t == 0:
        yield [], ()
        return
    for pivots in combinations(range(n), t):
        pivot_set = set(pivots)
        slots = [
            (i, c)
            for i in range(t)
            for c in range(pivots[i] + 1, n)
            if c not in pivot_set
        ]
        base = [1 << pivots[i] for i in range(t)]
        for bits in range(1 << len(slots)):
            rows = base.copy()
            for s, (i, c) in enumerate(slots):
                if (bits >> s) & 1:
                    rows[i] |= 1 << c
            yield rows, pivots


def _kernel_basis(rows, pivots, n: int) -> list[int]:
    """Basis of {v : every row · v = 0} for an RREF matrix."""
    pivot_set = set(pivots)
    out = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = 1 << f
        for i, p in enumerate(pivots):
            if (rows[i] >> f) & 1:
                v |= 1 << p
        out.append(v)
    return out


def _subspace_blocks(n: int):
    """Generator rows of every unsigned stabilizer group with a zero-diagonal
    symmetric matrix, as arrays of shape (b, 2, n) holding x and z, one
    X-part subspace at a time.

    The group built on RREF rows with pivots p and symmetric t×t matrix a has
    x rows = rows (padded with zeros) and z rows = (a · pivot bits, kernel).
    The index of a enumerates its strict upper triangle bit by bit, so its
    z rows are a sum of per-bit weights, computed for CHUNK indices at a time.
    """
    for t in range(n + 1):
        tri = [(i, j) for i in range(t) for j in range(i + 1, t)]
        total = 1 << len(tri)
        low_bits = _index_bits(np.arange(min(total, CHUNK)), len(tri))
        for rows, pivots in _rref_matrices(n, t):
            weights = np.zeros((len(tri), n), dtype=np.int64)
            for s, (i, j) in enumerate(tri):
                weights[s, i] |= 1 << pivots[j]
                weights[s, j] |= 1 << pivots[i]
            z = np.array([0] * t + _kernel_basis(rows, pivots, n)) + low_bits @ weights
            for lo in range(0, total, CHUNK):
                block = np.empty((z.shape[0], 2, n), dtype=np.int64)
                block[:, 0] = rows + [0] * (n - t)
                block[:, 1] = z + _index_bits(np.array([lo]), len(tri)) @ weights
                yield block


def _group_chunks(n: int):
    """The blocks of `_subspace_blocks`, packed into chunks of CHUNK groups
    (the last one shorter), so small subspaces share one kernel call."""
    if not 1 <= n <= 6:
        raise CapExceeded("group enumeration capped at 1 ≤ n ≤ 6")
    pending: list[np.ndarray] = []
    held = 0
    for block in _subspace_blocks(n):
        pending.append(block)
        held += block.shape[0]
        if held >= CHUNK:
            joined = np.concatenate(pending)
            yield joined[:CHUNK]
            pending = [joined[CHUNK:]]
            held -= CHUNK
    if held:
        yield np.concatenate(pending)


def enumerate_stabilizer_groups(n: int):
    """Each unsigned stabilizer group once, as a canonical-RREF Tableau:
    every produced group with each of its 2^t diagonals."""
    low = (1 << n) - 1
    for chunk in _group_chunks(n):
        for x_rows, z_rows in chunk.tolist():
            base = [xr | (zr << n) for xr, zr in zip(x_rows, z_rows)]
            # diagonal entry i adds generator i's pivot, the lowest bit of
            # x_i, to z_i; the t nonzero X-parts come first
            flips = [(xr & -xr) << n for xr in x_rows if xr]
            for diagonal in range(1 << len(flips)):
                gens = base.copy()
                for i, flip in enumerate(flips):
                    if (diagonal >> i) & 1:
                        gens[i] ^= flip
                reduced, _ = rref(BitMatrix(tuple(gens), 2 * n))
                yield Tableau(
                    n,
                    BitMatrix(tuple(r & low for r in reduced.rows), n),
                    BitMatrix(tuple(r >> n for r in reduced.rows), n),
                )


# ---------------------------------------------------------------------------
# distinct-vector tallies


def _tally_rows(
    rows: np.ndarray, start: int, weights: np.ndarray | None = None
) -> dict[bytes, tuple[int, int]]:
    """Distinct rows in first-seen order -> (count, start + first row index),
    where row r counts weights[r] times if weights are given, else once."""
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    if weights is None:
        counts = Counter(keys)
    else:
        counts = Counter()
        for key, weight in zip(keys, weights.tolist()):
            counts[key] += weight
    return {key: (cnt, start + first[key]) for key, cnt in counts.items()}


def _merge_tallies(parts) -> dict[bytes, tuple[int, int]]:
    """Sum chunk tallies, given in enumeration order."""
    merged: dict[bytes, tuple[int, int]] = {}
    for part in parts:
        for key, (cnt, first) in part.items():
            prev = merged.get(key)
            merged[key] = (cnt, first) if prev is None else (prev[0] + cnt, prev[1])
    return merged


def _graph_chunk_tally(args) -> dict[bytes, tuple[int, int]]:
    n, start, stop = args
    return _tally_rows(_graph_rows(n, start, stop), start)


def _vector_counts_graphs(n: int, jobs: int = 1) -> dict[bytes, tuple[int, int]]:
    """Distinct entropy vectors over all labeled graphs.

    Returns vector-bytes -> (graph count, smallest realizing edge mask).
    """
    total = 1 << (n * (n - 1) // 2)
    chunks = [(n, s, min(s + CHUNK, total)) for s in range(0, total, CHUNK)]
    if jobs > 1 and len(chunks) > 1:
        with multiprocessing.Pool(jobs) as pool:
            return _merge_tallies(pool.map(_graph_chunk_tally, chunks))
    return _merge_tallies(map(_graph_chunk_tally, chunks))


def _vector_counts_groups(n: int) -> dict[bytes, tuple[int, int]]:
    """Distinct entropy vectors over all unsigned stabilizer groups.

    Returns vector-bytes -> (group count, index of the first produced row).
    A produced row with t nonzero X-parts stands for its 2^t diagonals.
    """

    def parts():
        start = 0
        for chunk in _group_chunks(n):
            weights = 1 << np.count_nonzero(chunk[:, 0], axis=1)
            yield _tally_rows(_entropy_rows(chunk[:, 0], chunk[:, 1]), start, weights)
            start += chunk.shape[0]

    return _merge_tallies(parts())


# ---------------------------------------------------------------------------
# canonicalization and census aggregation


def _canonical_values(
    key: bytes, tables: list[np.ndarray], known: dict[bytes, tuple[int, ...]]
) -> tuple[int, ...]:
    """Lexicographic minimum of a value row over all qubit relabelings.

    The relabeled rows are the row's whole orbit, and they all share its
    minimum, so each orbit is recorded in `known` and computed only once.
    """
    canon = known.get(key)
    if canon is None:
        orbit = set(chain.from_iterable(relabeled(key, tables)))
        canon = tuple(min(orbit))
        known.update(dict.fromkeys(orbit, canon))
    return canon


def vector_census(
    n: int, source: str = "graphs", jobs: int = 1, allow_heavy: bool = False
) -> CensusResult:
    """Distinct entropy vectors and exchange classes over one source family.

    `jobs` worker processes share the graph census; the group census runs
    in one process, where a pool would cost more to start than it saves."""
    if source == "graphs":
        if not 1 <= n <= 8 or (n == 8 and not allow_heavy):
            raise CapExceeded("graph census capped at 1 ≤ n ≤ 7 (8 with allow_heavy)")
        raw = _vector_counts_graphs(n, jobs)
        reps = {
            tuple(key): graphmod.from_edge_mask(n, first) for key, (_c, first) in raw.items()
        }
    elif source == "groups":
        raw = _vector_counts_groups(n)
        reps = {tuple(key): None for key in raw}
    else:
        raise ValueError(f"unknown source {source!r}")
    vectors = {tuple(key): cnt for key, (cnt, _first) in raw.items()}

    tables = list(relabelings(n))
    known: dict[bytes, tuple[int, ...]] = {}
    classes: dict[tuple[int, ...], ClassInfo] = {}
    multiplier = (1 << n) if source == "groups" else 1
    for vals, cnt in vectors.items():
        canon = _canonical_values(bytes(vals), tables, known)
        info = classes.get(canon)
        if info is None:
            tally = mmi_tally(EntropyVector(n, canon))
            classes[canon] = ClassInfo(canon, tally, cnt * multiplier, 1, reps[vals])
        else:
            info.state_count += cnt * multiplier
            info.member_vectors += 1
    return CensusResult(n, source, vectors, reps, classes)


def state_census(n: int, jobs: int = 1) -> CensusRow:
    """Per-state MMI bucket counts over all signed stabilizer states.

    A class's tally is that of each member vector, since relabeling qubits
    permutes the MMI instances among themselves."""
    result = vector_census(n, source="groups", jobs=jobs)
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


def _orbit_four_star_search(g: Graph, budget: int) -> tuple[Graph | None, int]:
    """BFS the LC orbit until a member has an induced four-star."""
    seen = {g}
    queue = deque([g])
    while queue:
        cur = queue.popleft()
        if graphmod.induced_four_stars(cur):
            return cur, len(seen)
        for a in range(1, g.n + 1):
            if cur.adj[a - 1] == 0:
                continue
            nxt = graphmod.local_complement(cur, a)
            if nxt not in seen:
                if len(seen) >= budget:
                    return None, len(seen)
                seen.add(nxt)
                queue.append(nxt)
    return None, len(seen)


def four_star_conjecture_scan(n: int, budget: int = 10**6, jobs: int = 1) -> dict:
    """For every MMI-failing entropy vector, search a realizing graph's LC
    orbit for an induced four-star; counterexamples are expected empty."""
    if n > 8:
        raise CapExceeded("scan capped at n ≤ 8")
    if n < 4:
        return {"n": n, "failing_vectors": 0, "witnesses": [], "counterexamples": []}
    raw = _vector_counts_graphs(n, jobs)
    witnesses = []
    counterexamples = []
    budget_exceeded = []
    idx = 0
    for key, (_cnt, rep_mask) in sorted(raw.items()):
        tally = mmi_tally(EntropyVector(n, tuple(key)))
        if not tally.fails:
            continue
        idx += 1
        g = graphmod.from_edge_mask(n, rep_mask)
        member, searched = _orbit_four_star_search(g, budget)
        record = {
            "vector_id": idx,
            "representative": graphmod.to_graph6(g),
            "orbit_searched": searched,
        }
        if member is not None:
            record["witness"] = graphmod.to_graph6(member)
            witnesses.append(record)
        elif searched >= budget:
            budget_exceeded.append(record)
        else:
            counterexamples.append(record)
    return {
        "n": n,
        "failing_vectors": idx,
        "witnesses": witnesses,
        "counterexamples": counterexamples,
        "budget_exceeded": budget_exceeded,
    }


def has_nontrivial_partition(g: Graph) -> bool:
    """Whether some generalized-star partition has a nontrivial triple
    intersection of block column spaces."""
    return (
        starmod.find_star_partition(g, require_nontrivial=True) is not None
    )


def nontrivial_intersection_scan(n: int) -> dict:
    """Verify: a nontrivial-intersection partition implies the state fails
    some MMI instance.  Only graphs whose vector fails nothing need the
    partition search; any hit there is a counterexample."""
    if not 1 <= n <= 7:
        raise CapExceeded("scan capped at 1 ≤ n ≤ 7")
    counterexamples = []
    searched = 0
    fails_cache: dict[bytes, bool] = {}
    total = 1 << (n * (n - 1) // 2)
    for start in range(0, total, CHUNK):
        rows = _graph_rows(n, start, min(start + CHUNK, total))
        for offset, row in enumerate(rows):
            key = row.tobytes()
            fails = fails_cache.get(key)
            if fails is None:
                fails = mmi_tally(EntropyVector(n, tuple(row.tolist()))).fails > 0
                fails_cache[key] = fails
            if fails:
                continue  # implication holds whatever the partitions are
            searched += 1
            if n >= 4:
                g = graphmod.from_edge_mask(n, start + offset)
                if has_nontrivial_partition(g):
                    counterexamples.append(graphmod.to_graph6(g))
    return {
        "n": n,
        "graphs_searched": searched,
        "counterexamples": counterexamples,
    }
