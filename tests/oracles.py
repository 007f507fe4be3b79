"""Independent reference implementations used to validate the package.

Everything here is written in the most literal textbook style possible and
deliberately shares no code with stabmmi, except `per_graph_vector_counts`:
it checks the census's LC-orbit reduction, not the entropy kernel (which
has its own rank-per-mask oracle), so it runs that kernel on every labeled
graph.  `generator_entropy_rows` is that kernel's general-group form, the
reference for groups that are not graph states; `test_mmi` checks it
against the rank-per-mask oracle.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, permutations
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


def exchange_labels_by_row_search(n: int, rows: np.ndarray) -> tuple[list[int], list[int]]:
    """The index of the first and of the least row of each value row's
    relabeling orbit, for distinct uint8 value rows closed under qubit
    relabeling, found from the rows alone: swapping qubits k and k + 1 maps
    mask m to m ^ (bit k ≠ bit k + 1)·0b11 << k, each swapped row is found
    by a binary search of the rows' sorted byte keys, and the n − 1 moves
    are joined by union-find.  An orbit's least row is its first in that
    sorted order."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    key = np.dtype((np.void, rows.shape[1]))
    order = np.argsort(rows.view(key).ravel())
    keys = rows[order].view(key).ravel()
    masks = np.arange(1, 1 << n)
    images = []
    for k in range(n - 1):
        swapped = masks ^ ((masks >> k ^ masks >> (k + 1)) & 1) * (3 << k)
        moved = np.ascontiguousarray(rows[:, swapped - 1]).view(key).ravel()
        found = np.searchsorted(keys, moved)
        assert (keys[found] == moved).all(), "rows not closed under relabeling"
        images.append(order[found])
    label = union_find_least(len(rows), images)
    least: dict[int, int] = {}
    for i in order.tolist():
        least.setdefault(label[i], i)
    return label, [least[root] for root in label]


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


def random_adjacency(rng, n: int) -> tuple[int, ...]:
    """Adjacency bitmasks of a random graph on n vertices: each pair v < w,
    in lexicographic order, is an edge when rng.random() < 0.5."""
    adj = [0] * n
    for v in range(n):
        for w in range(v + 1, n):
            if rng.random() < 0.5:
                adj[v] |= 1 << w
                adj[w] |= 1 << v
    return tuple(adj)


def bit_list_graph6(n: int, adj: tuple[int, ...]) -> str:
    """graph6 of a graph on n ≤ 62 vertices, literally: the size character,
    then the bits of the upper triangle column by column in a list, cut into
    zero-padded chunks of six, each chunk read first bit highest."""
    bits = []
    for w in range(1, n):
        for v in range(w):
            bits.append((adj[v] >> w) & 1)
    chars = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        chunk = bits[i : i + 6] + [0] * (6 - len(bits[i : i + 6]))
        chars.append(chr(63 + sum(b << (5 - k) for k, b in enumerate(chunk))))
    return "".join(chars)


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


def induced_four_stars(g) -> Iterator[tuple[int, tuple[int, int, int]]]:
    """Each induced K_{1,3} subgraph as (center, (leaf, leaf, leaf)), 1-based:
    every 4-subset, every center in it."""
    for quad in combinations(range(g.n), 4):
        for c in quad:
            leaves = [v for v in quad if v != c]
            if all((g.adj[c] >> v) & 1 for v in leaves) and not any(
                (g.adj[u] >> v) & 1 for u, v in combinations(leaves, 2)
            ):
                yield c + 1, tuple(v + 1 for v in leaves)


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


def generator_entropy_rows(x, z) -> np.ndarray:
    """Entropy rows of any batch of stabilizer groups, from generator rows:
    the support-counting kernel of `census._graph_entropy_rows` with general
    X-parts, where that kernel's are the identity (X on vertex v).

    For a stabilizer group S, the number of elements supported inside A is
    2^(|A| − S_A) (Fattal et al., quant-ph/0406168), so a histogram of the
    2^n element supports plus a subset-sum (zeta) transform yields every
    subsystem entropy at once.  x and z have shape (B, n): entry [b, i] is
    the X- or Z-bitmask of generator i of group b.  Returns uint8 rows of
    shape (B, 2^n − 1) whose entry m − 1 is S_A for the nonempty mask m = A.
    """
    batch, n = np.shape(z)
    size = 1 << n
    # element s is the product of the generators in bitmask s
    x = np.asarray(x, dtype=np.int32).T
    z = np.asarray(z, dtype=np.int32).T
    x_parts = np.zeros((size, batch), dtype=np.int32)
    z_parts = np.zeros((size, batch), dtype=np.int32)
    for i in range(n):
        np.bitwise_xor(x_parts[: 1 << i], x[i], out=x_parts[1 << i : 2 << i])
        np.bitwise_xor(z_parts[: 1 << i], z[i], out=z_parts[1 << i : 2 << i])
    # each support becomes its bincount slot, support·B + b
    slots = (x_parts | z_parts) * batch + np.arange(batch, dtype=np.int32)
    counts = np.bincount(slots.ravel(), minlength=size * batch).reshape(size, batch)
    # subset sums: counts[m] becomes the number of elements supported in m
    for k in range(n):
        half = counts.reshape(-1, 2, 1 << k, batch)
        half[:, 1] += half[:, 0]
    popcount = (np.arange(size)[:, None] >> np.arange(n) & 1).sum(axis=1).astype(np.uint8)
    log2 = np.zeros(size + 1, dtype=np.uint8)
    log2[1 << np.arange(n + 1)] = np.arange(n + 1)
    return (popcount[1:, None] - log2[counts[1:]]).T.copy()


def per_graph_vector_counts(n: int, source: str):
    """The census tally without LC orbits: the entropy kernel on every labeled
    graph, tallied in one dict keyed by the bytes of each row.  Returns the
    distinct rows in order of their first edge mask, their graph (or
    weighted group) counts and their first edge masks: uint8 rows, int64
    counts and masks."""
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


def per_class_state_census(result) -> tuple[int, ...]:
    """The `state_census` row, in `CensusRow` field order, read class by
    class off a group `vector_census` result: a class's states go to the
    fail bucket if its tally fails some instance, else to the satisfy
    bucket if it satisfies some, else to the saturate bucket."""
    saturate = satisfy = fail = failing_vectors = 0
    for info in result.classes.values():
        if info.tally.fails:
            fail += info.state_count
            failing_vectors += info.member_vectors
        elif info.tally.satisfies:
            satisfy += info.state_count
        else:
            saturate += info.state_count
    return (
        result.n,
        saturate + satisfy + fail,
        saturate,
        satisfy,
        fail,
        len(result.vectors),
        len(result.classes),
        failing_vectors,
    )
