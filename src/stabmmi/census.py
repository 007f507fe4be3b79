"""Exhaustive censuses of labeled graphs and unsigned stabilizer groups.

Entropy vectors are aggregated into distinct-vector sets and qubit-exchange
classes with MMI tallies.  Every census entropy vector comes from the
support-counting kernel of `entropy`, fed CHUNK generator rows at a time.
Exchange classes are minimised over the relabeling tables of `entropy`,
each relabeling orbit once.

An unsigned stabilizer group is a maximal symplectically self-orthogonal
subspace of Z_2^{2n}.  It is fixed by the RREF basis of the span T of its
X-parts, with pivot columns p (t = dim T), and a symmetric binary t×t
matrix over that basis; the kernel of the RREF rows adds n − t Z-only
generators.  All groups with one pivot set form a cell.  Group r of a cell
has generator rows base + bits(r) · weights, and its index bits, least
significant first, are:

* triangle: bit (i, j), i < j, sets bit p_j of z_i and bit p_i of z_j;
* free RREF entry: bit (i, c), c > p_i not a pivot, sets bit c of x_i and
  bit p_i of the kernel row of column c;
* diagonal: the top t bits; bit i sets bit p_i of z_i.

Every bit sets different output bits, so the sum is their OR.  Summed over
all pivot sets, the cells reproduce the product formula ∏(2^k + 1).  The
cell p = (0, …, n − 1) holds the labeled graphs: x is the identity, z the
adjacency matrix, and the index below the diagonal bits is the edge mask.

With the X-part in RREF, generator i is the only one with an X on qubit
p_i, so diagonal bit i is the phase gate S on that qubit: a local unitary,
which changes no subsystem entropy.  The censuses therefore stop each cell
before its top t bits and count each group row 2^t times (each graph once):
∏_{k<n}(1 + 2^k) rows cover all ∏(2^k + 1) groups.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
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
_CHUNK_BITS = CHUNK.bit_length() - 1


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
# cells: the groups with one X-part pivot set


def _check_size(n: int, source: str, allow_heavy: bool = False) -> None:
    """Raise CapExceeded for sizes outside the census caps."""
    if source == "graphs":
        if not 1 <= n <= 8 or (n == 8 and not allow_heavy):
            raise CapExceeded("graph census capped at 1 ≤ n ≤ 7 (8 with allow_heavy)")
    elif source == "groups":
        if not 1 <= n <= 6:
            raise CapExceeded("group census capped at 1 ≤ n ≤ 6")
    else:
        raise ValueError(f"unknown source {source!r}")


def _pivot_sets(n: int, source: str):
    """Pivot sets of the cells a census walks: all qubits for graphs, every
    subset, by size, for groups."""
    if source == "graphs":
        return [tuple(range(n))]
    return chain.from_iterable(combinations(range(n), t) for t in range(n + 1))


def _cell(n: int, pivots: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Base row and per-index-bit weights (least significant bit first) of
    the cell with X-part pivots `pivots`; x in columns :n, z in columns n:."""
    t = len(pivots)
    free = [c for c in range(n) if c not in pivots]
    base = np.zeros(2 * n, dtype=np.int64)
    base[:t] = [1 << p for p in pivots]
    base[n + t :] = [1 << c for c in free]
    # each index bit as the (column, bit) pairs it sets
    bits = [
        [(n + i, pivots[j]), (n + j, pivots[i])] for i, j in combinations(range(t), 2)
    ]
    bits += [
        [(i, c), (n + t + k, pivots[i])]
        for i in range(t)
        for k, c in enumerate(free)
        if c > pivots[i]
    ]
    bits += [[(n + i, pivots[i])] for i in range(t)]
    weights = np.zeros((len(bits), 2 * n), dtype=np.int64)
    for b, sets in enumerate(bits):
        for column, bit in sets:
            weights[b, column] = 1 << bit
    return base, weights


@lru_cache(maxsize=1)
def _cell_table(n: int, pivots: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a cell's first CHUNK indices (all of them, if fewer), and the
    weights of its higher index bits.  Only the last cell is kept, read-only,
    since every caller shares it."""
    base, weights = _cell(n, pivots)
    low = base[None]
    for weight in weights[:_CHUNK_BITS]:
        low = np.concatenate([low, low + weight])
    low.flags.writeable = weights.flags.writeable = False
    return low, weights[_CHUNK_BITS:]


def _cell_rows(n: int, pivots: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """Generator rows of the groups start..stop−1 of a cell, for one chunk:
    start a multiple of CHUNK, stop − start ≤ CHUNK."""
    low, high = _cell_table(n, pivots)
    return low[: stop - start] + _index_bits(np.array([start >> _CHUNK_BITS]), len(high)) @ high


def _chunks(n: int, pivots: tuple[int, ...], diagonals: bool = False):
    """(start, stop) of each chunk of a cell's indices, stopping before the
    top t (diagonal) bits unless `diagonals`."""
    width = len(_cell(n, pivots)[1]) - (0 if diagonals else len(pivots))
    return [(s, min(s + CHUNK, 1 << width)) for s in range(0, 1 << width, CHUNK)]


def enumerate_stabilizer_groups(n: int):
    """Each unsigned stabilizer group once, as a canonical-RREF Tableau:
    every index of every cell, diagonal bits included."""
    _check_size(n, "groups")
    low = (1 << n) - 1
    for pivots in _pivot_sets(n, "groups"):
        for start, stop in _chunks(n, pivots, diagonals=True):
            for row in _cell_rows(n, pivots, start, stop).tolist():
                gens = tuple(x | (z << n) for x, z in zip(row[:n], row[n:]))
                reduced, _ = rref(BitMatrix(gens, 2 * n))
                yield Tableau(
                    n,
                    BitMatrix(tuple(r & low for r in reduced.rows), n),
                    BitMatrix(tuple(r >> n for r in reduced.rows), n),
                )


# ---------------------------------------------------------------------------
# distinct-vector tallies


def _tally_rows(rows: np.ndarray, start: int, weight: int = 1) -> dict[bytes, tuple[int, int]]:
    """Distinct rows in first-seen order -> (weight × count, start + first
    row index)."""
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return {key: (cnt * weight, start + first[key]) for key, cnt in Counter(keys).items()}


def _merge_tallies(parts) -> dict[bytes, tuple[int, int]]:
    """Sum chunk tallies, given in enumeration order."""
    merged: dict[bytes, tuple[int, int]] = {}
    for part in parts:
        for key, (cnt, first) in part.items():
            prev = merged.get(key)
            merged[key] = (cnt, first) if prev is None else (prev[0] + cnt, prev[1])
    return merged


def _chunk_tally(task) -> dict[bytes, tuple[int, int]]:
    n, pivots, start, stop, weight = task
    rows = _cell_rows(n, pivots, start, stop)
    return _tally_rows(_entropy_rows(rows[:, :n], rows[:, n:]), start, weight)


def _vector_counts(n: int, source: str, jobs: int = 1) -> dict[bytes, tuple[int, int]]:
    """Distinct entropy vectors over all labeled graphs or all unsigned
    stabilizer groups, from the indices of their cells below the diagonal
    bits.

    Returns vector-bytes -> (graph or group count, first index in its cell);
    a graph's index is its edge mask.  A group row stands for its 2^t
    diagonals.  `jobs` worker processes share the graph census only."""
    tasks = [
        (n, pivots, start, stop, 1 << len(pivots) if source == "groups" else 1)
        for pivots in _pivot_sets(n, source)
        for start, stop in _chunks(n, pivots)
    ]
    if source == "graphs" and jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(jobs) as pool:
            return _merge_tallies(pool.map(_chunk_tally, tasks))
    return _merge_tallies(map(_chunk_tally, tasks))


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
    _check_size(n, source, allow_heavy)
    raw = _vector_counts(n, source, jobs)
    reps = {
        tuple(key): graphmod.from_edge_mask(n, first) if source == "graphs" else None
        for key, (_cnt, first) in raw.items()
    }
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
    member, seen, _within = graphmod.lc_search(g, budget, graphmod.induced_four_stars)
    return member, len(seen)


def four_star_conjecture_scan(n: int, budget: int = 10**6, jobs: int = 1) -> dict:
    """For every MMI-failing entropy vector, search a realizing graph's LC
    orbit for an induced four-star; counterexamples are expected empty."""
    _check_size(n, "graphs")
    if n < 4:
        return {"n": n, "failing_vectors": 0, "witnesses": [], "counterexamples": []}
    raw = _vector_counts(n, "graphs", jobs)
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


def nontrivial_intersection_scan(n: int) -> dict:
    """Verify: a nontrivial-intersection partition implies the state fails
    some MMI instance.  Only graphs whose vector fails nothing need the
    partition search; any hit there is a counterexample."""
    _check_size(n, "graphs")
    counterexamples = []
    searched = 0
    fails_cache: dict[bytes, bool] = {}
    pivots = tuple(range(n))
    for start, stop in _chunks(n, pivots):
        gens = _cell_rows(n, pivots, start, stop)
        for offset, row in enumerate(_entropy_rows(gens[:, :n], gens[:, n:])):
            key = row.tobytes()
            fails = fails_cache.get(key)
            if fails is None:
                fails = mmi_tally(EntropyVector(n, tuple(row.tolist()))).fails > 0
                fails_cache[key] = fails
            if fails:
                continue  # implication holds whatever the partitions are
            searched += 1
            g = graphmod.from_edge_mask(n, start + offset)
            if starmod.find_star_partition(g, require_nontrivial=True) is not None:
                counterexamples.append(graphmod.to_graph6(g))
    return {
        "n": n,
        "graphs_searched": searched,
        "counterexamples": counterexamples,
    }
