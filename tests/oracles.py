"""Independent reference implementations used to validate the package.

Everything here is written in the most literal textbook style possible and
deliberately shares no code with stabmmi, except `per_graph_vector_counts`:
it checks the census's LC-orbit reduction, not the entropy kernel (which
has its own rank-per-mask oracle), so it runs that kernel on every labeled
graph.
"""

from __future__ import annotations

from itertools import permutations
from math import comb

import numpy as np


def naive_rank(rows: list[list[int]]) -> int:
    """Gaussian elimination on explicit 0/1 lists."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_cols = len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] % 2 == 1:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] % 2 == 1:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def span_elements(ambient: int, generators: list[int]) -> set[int]:
    """All members of the span, by closure under XOR."""
    elems = {0}
    for g in generators:
        elems |= {e ^ g for e in elems}
    return elems


def brute_sum(ambient: int, gens_u: list[int], gens_v: list[int]) -> set[int]:
    return span_elements(ambient, gens_u + gens_v)


def brute_intersection(ambient: int, gens_u: list[int], gens_v: list[int]) -> set[int]:
    return span_elements(ambient, gens_u) & span_elements(ambient, gens_v)


def brute_canonical(n: int, values: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest mask-ordered value tuple over all n! qubit relabelings,
    moving each mask bit v to bit perm[v] one bit at a time."""
    best = None
    for perm in permutations(range(n)):
        candidate = []
        for mask in range(1, 1 << n):
            moved = 0
            for v in range(n):
                if (mask >> v) & 1:
                    moved |= 1 << perm[v]
            candidate.append(values[moved - 1])
        if best is None or tuple(candidate) < best:
            best = tuple(candidate)
    return best


def relabeling_tables(n: int, block: int = 720):
    """Index tables of every qubit relabeling, `block` relabelings per table.
    Entry [p, m − 1] is the index of mask m after relabeling p, which moves
    bit v to bit p[v]; indexing a value row by a table relabels it."""
    masks = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    dtype = np.min_scalar_type((1 << n) - 2)
    perms = list(permutations(range(n)))
    for start in range(0, len(perms), block):
        yield ((1 << np.array(perms[start : start + block])) @ masks.T - 1).astype(dtype)


def table_canonical(n: int, vectors, tables=None) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The least relabeled value tuple of each vector, over the rows of every
    relabeling table.  Those rows are the vector's whole orbit, and they
    share its minimum, so each orbit is relabeled once."""
    tables = list(relabeling_tables(n)) if tables is None else tables
    known: dict[bytes, tuple[int, ...]] = {}
    out = {}
    for vals in vectors:
        key = bytes(vals)
        if key not in known:
            row = np.array(vals, dtype=np.uint8)
            orbit = set()
            for table in tables:
                orbit.update(row[table].view(np.dtype((np.void, table.shape[1]))).ravel().tolist())
            known.update(dict.fromkeys(orbit, tuple(min(orbit))))
        out[tuple(vals)] = known[key]
    return out


def union_find_least(size: int, images) -> list[int]:
    """The least index in the component of each of range(size), joining i
    with image[i] for every image array, by union-find with the smaller root
    kept."""
    parent = list(range(size))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for image in images:
        for i, j in enumerate(image):
            a, b = find(i), find(int(j))
            parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(size)]


def stirling2(m: int, k: int) -> int:
    """Stirling numbers of the second kind, by recurrence."""
    table = [[0] * (k + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for a in range(1, m + 1):
        for b in range(1, k + 1):
            table[a][b] = b * table[a - 1][b] + table[a - 1][b - 1]
    return table[m][k]


def mmi_instance_count(n: int, include_full_union: bool) -> int:
    """Unordered triples of disjoint nonempty subsets of [n]: choose the
    union's size m, then partition it into 3 blocks."""
    total = sum(comb(n, m) * stirling2(m, 3) for m in range(3, n + 1))
    if not include_full_union:
        total -= stirling2(n, 3)
    return total


def dfs_lc_closure(adj: tuple[int, ...], n: int) -> set[tuple[int, ...]]:
    """Depth-first closure under local complementation (oracle for the census's
    LC orbit labels)."""

    def complement_at(a_rows: tuple[int, ...], a: int) -> tuple[int, ...]:
        nb = a_rows[a]
        rows = list(a_rows)
        for u in range(n):
            if (nb >> u) & 1:
                rows[u] ^= nb ^ (1 << u)
        return tuple(rows)

    seen: set[tuple[int, ...]] = set()
    stack = [adj]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for a in range(n):
            if cur[a]:
                stack.append(complement_at(cur, a))
    return seen


def edge_scan_generalized_star(adj: tuple[int, ...], i: int, j: int, k: int) -> bool:
    """Literal double loop over vertex pairs across the three blocks."""
    n = len(adj)
    blocks = [i, j, k]
    for a in range(3):
        for b in range(a + 1, 3):
            for u in range(n):
                if not (blocks[a] >> u) & 1:
                    continue
                for v in range(n):
                    if (blocks[b] >> v) & 1 and (adj[u] >> v) & 1:
                        return False
    return True


def brute_lagrangians(n: int) -> set[frozenset[int]]:
    """Every maximal symplectically self-orthogonal subspace of Z_2^{2n},
    found by scanning all n-dimensional subspaces (tiny n only)."""

    def symplectic(a: int, b: int) -> int:
        mask = (1 << n) - 1
        xa, za = a & mask, a >> n
        xb, zb = b & mask, b >> n
        return (bin(xa & zb).count("1") + bin(za & xb).count("1")) & 1

    vectors = list(range(1, 1 << (2 * n)))
    out: set[frozenset[int]] = set()

    def extend(basis: list[int], start: int) -> None:
        if len(basis) == n:
            out.add(frozenset(span_elements(2 * n, basis)))
            return
        for idx in range(start, len(vectors)):
            v = vectors[idx]
            if v in span_elements(2 * n, basis):
                continue
            if all(symplectic(v, b) == 0 for b in basis):
                extend(basis + [v], idx + 1)

    extend([], 0)
    return out


def edge_mask_adjacency(n: int, masks) -> np.ndarray:
    """Adjacency rows, one int64 neighbourhood bitmask per vertex, of the
    graphs with the given edge masks: bit b of a mask is the b-th vertex
    pair (i, j), i < j, in lexicographic order."""
    masks = np.asarray(masks, dtype=np.int64)
    adj = np.zeros((len(masks), n), dtype=np.int64)
    b = 0
    for i in range(n):
        for j in range(i + 1, n):
            edge = masks >> b & 1
            adj[:, i] |= edge << j
            adj[:, j] |= edge << i
            b += 1
    return adj


def per_graph_vector_counts(n: int, source: str):
    """The census tally without LC orbits: the entropy kernel on every labeled
    graph, tallied in one dict keyed by the bytes of each row.  Returns the
    distinct rows in order of their first edge mask, their graph (or
    weighted group) counts and their first edge masks, with the dtypes of
    `census._vector_counts`."""
    from stabmmi import census as C

    counts: dict[bytes, int] = {}
    firsts: dict[bytes, int] = {}
    rows: dict[bytes, np.ndarray] = {}
    adj = edge_mask_adjacency(n, np.arange(1 << (n * (n - 1) // 2)))
    weights = C._group_weights(adj) if source == "groups" else np.ones(len(adj), dtype=int)
    for mask, (row, weight) in enumerate(zip(C._graph_entropy_rows(adj), weights.tolist())):
        key = row.tobytes()
        if key not in counts:
            counts[key], firsts[key], rows[key] = 0, mask, row
        counts[key] += weight
    return (
        np.array(list(rows.values()), dtype=np.uint8),
        np.array(list(counts.values()), dtype=np.int64),
        np.array(list(firsts.values()), dtype=np.int64),
    )
