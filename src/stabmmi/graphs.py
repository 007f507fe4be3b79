"""Simple graphs for graph states: adjacency bitmasks, local complementation,
bipartition submatrices, adjacency-rank entropies, induced four-star
detection, graph6 I/O, and the JSON edge-list writer (the CLI's `load_source`
reads JSON graphs).  The three MMI outcomes and the census size caps live
here too, so that `entropy`, `star` and the CLI can use them without numpy.

Vertices are 1-based in the public edge API; `adj[v]` is the neighborhood
bitmask of vertex v+1 with bit w = vertex w+1.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from itertools import combinations

from .gf2 import BitMatrix, rank

__all__ = [
    "CapExceeded",
    "check_census_size",
    "MmiOutcome",
    "Graph",
    "from_edges",
    "from_edge_mask",
    "local_complement",
    "submatrix",
    "entropy",
    "has_induced_four_star",
    "to_graph6",
    "from_graph6",
    "to_json",
]


class CapExceeded(ValueError):
    """A requested size lies outside a documented cap."""


def check_census_size(n: int, source: str) -> None:
    """Raise CapExceeded for sizes outside the census caps."""
    if source == "graphs":
        if not 1 <= n <= 7:
            raise CapExceeded("graph census capped at 1 ≤ n ≤ 7")
    elif source == "groups":
        if not 1 <= n <= 6:
            raise CapExceeded("group census capped at 1 ≤ n ≤ 6")
    else:
        raise ValueError(f"unknown source {source!r}")


class MmiOutcome(Enum):
    SATISFIES = "Satisfies"
    SATURATES = "Saturates"
    FAILS = "Fails"

    @classmethod
    def of_sign(cls, sign: int) -> "MmiOutcome":
        """The outcome of an `mmi_signs` entry."""
        if sign > 0:
            return cls.SATISFIES
        return cls.SATURATES if sign == 0 else cls.FAILS


class Graph(namedtuple("Graph", "n adj")):
    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]) -> Graph:
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(adj) != n:
            raise ValueError("adjacency row count must equal n")
        for v, row in enumerate(adj):
            if row >> n:
                raise ValueError("adjacency bits beyond vertex range")
            if (row >> v) & 1:
                raise ValueError("self-loop")
            for w in range(v + 1, n):
                if ((row >> w) & 1) != ((adj[w] >> v) & 1):
                    raise ValueError("adjacency not symmetric")
        return super().__new__(cls, n, adj)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted 1-based edge list."""
        out = []
        for v in range(self.n):
            for w in range(v + 1, self.n):
                if (self.adj[v] >> w) & 1:
                    out.append((v + 1, w + 1))
        return out


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if type(u) is not int or type(v) is not int:  # bool is an int subclass
            raise ValueError(f"vertex ids must be integers, got ({u!r},{v!r})")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"vertex out of range in edge ({u},{v})")
        if u == v:
            raise ValueError(f"self-loop ({u},{v})")
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return Graph(n, tuple(adj))


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the subgraph induced by the open neighborhood of a."""
    if not 1 <= a <= g.n:
        raise IndexError(f"vertex {a} out of range")
    nb = g.adj[a - 1]
    adj = list(g.adj)
    v = nb
    while v:
        low = v & -v
        i = low.bit_length() - 1
        adj[i] ^= nb ^ low
        v ^= low
    return Graph(g.n, tuple(adj))


def submatrix(g: Graph, a_mask: int) -> BitMatrix:
    """|A|×|Ā| block of the adjacency matrix, both sides in ascending order."""
    full = (1 << g.n) - 1
    if a_mask == 0 or a_mask == full:
        raise ValueError("subsystem must be nonempty and proper")
    if a_mask >> g.n:
        raise ValueError("mask outside vertex range")
    comp_cols = [w for w in range(g.n) if not (a_mask >> w) & 1]
    rows = []
    for v in range(g.n):
        if (a_mask >> v) & 1:
            row = g.adj[v]
            rows.append(sum(((row >> w) & 1) << out for out, w in enumerate(comp_cols)))
    return BitMatrix(tuple(rows), len(comp_cols))


def entropy(g: Graph, a_mask: int) -> int:
    """S_A of the graph state = GF(2) rank of the A-vs-complement block."""
    if a_mask == 0:
        raise ValueError("empty subsystem")
    if a_mask == (1 << g.n) - 1:
        return 0
    return rank(submatrix(g, a_mask))


def has_induced_four_star(g: Graph) -> bool:
    """Whether g has an induced K_{1,3}: some vertex v with three pairwise
    non-adjacent neighbours u < w < x, found on neighbourhood bitmasks."""
    for nv in g.adj:
        for u in range(g.n):
            if nv >> u & 1:
                free = nv & ~g.adj[u] & -2 << u  # N(v) ∖ N(u) above u
                if any(free >> w & 1 and free & ~g.adj[w] & -2 << w for w in range(u + 1, g.n)):
                    return True
    return False


def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise ValueError("only the short graph6 form (n ≤ 62) is supported")
    # the size character's six bits, then the upper triangle column by
    # column, zero-padded to whole characters; the first bit is the highest
    x, bits = g.n, g.n * (g.n - 1) // 2
    for w, row in enumerate(g.adj):
        for v in range(w):
            x = x << 1 | row >> v & 1
    pad = -bits % 6
    x <<= pad
    return "".join([chr(63 + (x >> i & 63)) for i in range(bits + pad, -1, -6)])


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    n = ord(s[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError("unsupported graph6 size byte")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 character {ch!r}")
        bits.extend((val >> (5 - k)) & 1 for k in range(6))
    adj = [0] * n
    idx = 0
    for w in range(1, n):
        for v in range(w):
            if bits[idx]:
                adj[v] |= 1 << w
                adj[w] |= 1 << v
            idx += 1
    if any(bits[idx:]):
        raise ValueError("nonzero padding bits")
    return Graph(n, tuple(adj))


def to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]})


def from_edge_mask(n: int, mask: int) -> Graph:
    """The graph whose edge set is bit e of mask for the e-th vertex pair
    (v, w), v < w, in lexicographic order."""
    pairs = list(combinations(range(n), 2))
    adj = [0] * n
    while mask:
        low = mask & -mask
        v, w = pairs[low.bit_length() - 1]
        adj[v] |= 1 << w
        adj[w] |= 1 << v
        mask ^= low
    return Graph(n, tuple(adj))
