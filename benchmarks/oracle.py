"""Independent reference computations for the benchmark's output checks.

Nothing here imports stabmmi.  Subsets are bitmasks with qubit t at bit
t-1; graphs are adjacency-row tuples; tableaus are (x_rows, z_rows) lists.
The code is written literally so that it shares no algorithm with the
timed code path.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb

OUTCOMES = ("Satisfies", "Saturates", "Fails")


# ---------------------------------------------------------------------------
# counts


def group_count(n: int) -> int:
    """Unsigned stabilizer groups on n qubits: prod_k (2^k + 1)."""
    out = 1
    for k in range(1, n + 1):
        out *= (1 << k) + 1
    return out


def edge_count(n: int) -> int:
    """Vertex pairs of an n-vertex graph; there are 2^edge_count labeled graphs."""
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# GF(2) rank and entropies


def rank(rows: list[int]) -> int:
    """GF(2) rank of integer-packed rows, by literal elimination."""
    rows = [r for r in rows if r]
    r = 0
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        r += 1
        low = pivot & -pivot
        rows = [row ^ pivot if row & low else row for row in rows]
    return r


def graph_entropy(n: int, adj: tuple[int, ...], mask: int) -> int:
    """Rank of the adjacency block between A and its complement."""
    rows = []
    for v in range(n):
        if (mask >> v) & 1:
            rows.append(adj[v] & ~mask)
    return rank(rows)


def graph_entropies(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(graph_entropy(n, adj, m) for m in range(1, 1 << n))


def projected_rank(n: int, x_rows: list[int], z_rows: list[int], mask: int) -> int:
    """Rank of the generators restricted to the X and Z columns in A."""
    return rank([(x & mask) | ((z & mask) << n) for x, z in zip(x_rows, z_rows)])


def tableau_entropies(n: int, x_rows: list[int], z_rows: list[int]) -> tuple[int, ...]:
    return tuple(
        projected_rank(n, x_rows, z_rows, m) - bin(m).count("1") for m in range(1, 1 << n)
    )


# ---------------------------------------------------------------------------
# tableau simulation (1-based qubits, signs ignored)


def zero_tableau(n: int) -> tuple[list[int], list[int]]:
    return [0] * n, [1 << q for q in range(n)]


def apply_gate(x: list[int], z: list[int], name: str, qubits: tuple[int, ...]) -> None:
    """Update the tableau rows in place under H, S, CNOT or CZ."""
    if name == "H":
        b = 1 << (qubits[0] - 1)
        for r in range(len(x)):
            xb, zb = x[r] & b, z[r] & b
            x[r] = (x[r] & ~b) | zb
            z[r] = (z[r] & ~b) | xb
    elif name == "S":
        b = 1 << (qubits[0] - 1)
        for r in range(len(x)):
            z[r] ^= x[r] & b
    elif name in ("CNOT", "CZ"):
        a, t = (1 << (q - 1) for q in qubits)
        for r in range(len(x)):
            if name == "CNOT":
                if x[r] & a:
                    x[r] ^= t
                if z[r] & t:
                    z[r] ^= a
            else:
                if x[r] & a:
                    z[r] ^= t
                if x[r] & t:
                    z[r] ^= a
    else:
        raise ValueError(f"unknown gate {name}")


# ---------------------------------------------------------------------------
# MMI


def stirling2(m: int, k: int) -> int:
    table = [[0] * (k + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for a in range(1, m + 1):
        for b in range(1, k + 1):
            table[a][b] = b * table[a - 1][b] + table[a - 1][b - 1]
    return table[m][k]


def instance_count(n: int) -> int:
    """Unordered triples of disjoint nonempty subsets: sum_m C(n,m) S(m,3)."""
    return sum(comb(n, m) * stirling2(m, 3) for m in range(3, n + 1))


@lru_cache(maxsize=None)
def mmi_instances(n: int) -> tuple[tuple[int, int, int], ...]:
    """Every (i, j, k) of pairwise-disjoint nonempty masks with i < j < k."""
    full = 1 << n
    out = []
    for i in range(1, full):
        for j in range(i + 1, full):
            if i & j:
                continue
            for k in range(j + 1, full):
                if not (k & (i | j)):
                    out.append((i, j, k))
    return tuple(out)


def mmi_outcome(values: tuple[int, ...], i: int, j: int, k: int) -> str:
    def s(m: int) -> int:
        return values[m - 1]

    lhs = s(i | j) + s(i | k) + s(j | k)
    rhs = s(i) + s(j) + s(k) + s(i | j | k)
    return OUTCOMES[0] if lhs > rhs else OUTCOMES[1] if lhs == rhs else OUTCOMES[2]


def mmi_tally(values: tuple[int, ...], n: int) -> tuple[int, int, int]:
    counts = dict.fromkeys(OUTCOMES, 0)
    for inst in mmi_instances(n):
        counts[mmi_outcome(values, *inst)] += 1
    return counts["Satisfies"], counts["Saturates"], counts["Fails"]


# ---------------------------------------------------------------------------
# relabeling


@lru_cache(maxsize=None)
def relabel_table(n: int):
    """Row p, column m-1: the mask m with bit v moved to bit perm_p[v]."""
    # numpy is imported here, not at the top, so that a benchmark worker's
    # set-up time still includes stabmmi's own numpy import
    import numpy as np

    perms = np.array(list(permutations(range(n))), dtype=np.int16)
    masks = np.arange(1, 1 << n, dtype=np.int16)
    table = np.zeros((perms.shape[0], masks.shape[0]), dtype=np.int16)
    for v in range(n):
        table |= ((masks[None, :] >> v) & 1) << perms[:, v : v + 1]
    return table - 1


def canonical(values: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Lexicographic minimum of the value tuple over every qubit relabeling."""
    import numpy as np

    cand = np.asarray(values, dtype=np.uint8)[relabel_table(n)]
    return tuple(min(row.tobytes() for row in cand))


# ---------------------------------------------------------------------------
# graphs


def decode_graph6(text: str) -> tuple[int, tuple[int, ...]]:
    s = text.strip()
    n = ord(s[0]) - 63
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        bits.extend((val >> (5 - k)) & 1 for k in range(6))
    adj = [0] * n
    idx = 0
    for w in range(1, n):
        for v in range(w):
            if bits[idx]:
                adj[v] |= 1 << w
                adj[w] |= 1 << v
            idx += 1
    return n, tuple(adj)


def encode_graph6(n: int, adj: tuple[int, ...]) -> str:
    bits = [(adj[v] >> w) & 1 for w in range(1, n) for v in range(w)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        chars.append(chr(63 + sum(b << (5 - k) for k, b in enumerate(bits[i : i + 6]))))
    return "".join(chars)


def has_edge(adj: tuple[int, ...], u: int, v: int) -> bool:
    return bool((adj[u] >> v) & 1)


def has_induced_four_star(n: int, adj: tuple[int, ...]) -> bool:
    """Some 4 vertices induce K_{1,3}: a center joined to three pairwise
    non-adjacent leaves."""
    for quad in combinations(range(n), 4):
        for c in quad:
            leaves = [v for v in quad if v != c]
            if all(has_edge(adj, c, v) for v in leaves) and not any(
                has_edge(adj, u, v) for u, v in combinations(leaves, 2)
            ):
                return True
    return False


def local_complement(adj: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Toggle every edge between two neighbours of vertex a (0-based)."""
    rows = list(adj)
    nbrs = [v for v in range(len(adj)) if has_edge(adj, a, v)]
    for u, v in combinations(nbrs, 2):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return tuple(rows)


def lc_orbit(adj: tuple[int, ...]) -> set[tuple[int, ...]]:
    seen = {adj}
    todo = [adj]
    while todo:
        cur = todo.pop()
        for a in range(len(adj)):
            nxt = local_complement(cur, a)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# generalized stars and block column spaces


def span(vectors: list[int]) -> set[int]:
    elems = {0}
    for v in vectors:
        elems |= {e ^ v for e in elems}
    return elems


def block_columns(adj: tuple[int, ...], c: int, block: int) -> list[int]:
    """Columns of the C x block adjacency matrix, as sets of C-vertices."""
    return [adj[v] & c for v in range(len(adj)) if (block >> v) & 1]


def is_star(adj: tuple[int, ...], c: int, i: int, j: int, k: int) -> bool:
    """Literal edge scan: no edge joins two of the blocks I, J, K."""
    n = len(adj)
    for u in range(n):
        for v in range(n):
            if not has_edge(adj, u, v):
                continue
            for a, b in ((i, j), (i, k), (j, k)):
                if (a >> u) & 1 and (b >> v) & 1:
                    return False
    return True


def column_spaces(adj, c, i, j, k) -> tuple[set[int], set[int], set[int]]:
    return tuple(span(block_columns(adj, c, b)) for b in (i, j, k))


def is_distributive(w_i: set[int], w_j: set[int], w_k: set[int]) -> bool:
    """(A∩C + B∩C) == (A+B)∩C in all three arrangements."""

    def one(a, b, c):
        return span(list((a & c) | (b & c))) == span(list(a | b)) & c

    return one(w_i, w_j, w_k) and one(w_k, w_j, w_i) and one(w_i, w_k, w_j)


def has_nontrivial_star(n: int, adj: tuple[int, ...]) -> bool:
    """Whether some partition (C, I, J, K), all nonempty, is a generalized
    star whose three block column spaces share a nonzero vector."""
    for labels in _assignments(n):
        parts = [0, 0, 0, 0]
        for v, part in enumerate(labels):
            parts[part] |= 1 << v
        c, i, j, k = parts
        if not all(parts) or not is_star(adj, c, i, j, k):
            continue
        w_i, w_j, w_k = column_spaces(adj, c, i, j, k)
        if len(w_i & w_j & w_k) > 1:
            return True
    return False


def _assignments(n: int):
    for code in range(4**n):
        labels = []
        for _ in range(n):
            labels.append(code % 4)
            code //= 4
        yield labels
