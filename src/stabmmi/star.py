"""Generalized-star partitions of graphs and the column-space analysis of
MMI over (C∪I, C∪J): block column spaces, the four-case distributivity /
intersection taxonomy, anchoring guarantees, and partition search.

A generalized star splits the vertices into a center C and blocks I, J, K
with no edges among I, J, K pairwise.  Everything below works with the
column spaces W_I, W_J, W_K of the C×I, C×J, C×K adjacency blocks inside
Z_2^{|C|}, each held as the frozenset of its members: vertex masks inside C
(column u of the C×X block is adj[u] & C).  ∩ is `&`, W + W' is the span of
W | W', dim W = log2 |W|, and the cost grows as 2^dim W ≤ 2^|C| ≤ 2^(n−3):
at most 32 members under the CLI's n ≤ 8 cap.  The search enumerates each
unordered block triple {I, J, K} once; on a hit all six orders compete.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import permutations, product

from .graphs import Graph, MmiOutcome

__all__ = [
    "StarPartition",
    "BlockSpaces",
    "StarClassification",
    "is_generalized_star",
    "is_anchored_single_center",
    "block_spaces",
    "classify",
    "mmi_cij_colspace",
    "entropies_from_blocks",
    "generalized_anchoring",
    "find_star_partition",
    "four_star_witness",
]


class StarPartition(namedtuple("StarPartition", "c i j k")):
    """Disjoint masks c, i, j, k covering all vertices, each nonempty."""

    __slots__ = ()

    def __new__(cls, c: int, i: int, j: int, k: int) -> StarPartition:
        parts = (c, i, j, k)
        if any(p == 0 for p in parts):
            raise ValueError("all four parts must be nonempty")
        union = 0
        for p in parts:
            if union & p:
                raise ValueError("parts must be disjoint")
            union |= p
        return super().__new__(cls, c, i, j, k)

    def validate_for(self, n: int) -> None:
        if (self.c | self.i | self.j | self.k) != (1 << n) - 1:
            raise ValueError("partition must cover all vertices")

    @staticmethod
    def from_sets(n: int, c, i, j, k) -> "StarPartition":
        def mask(vs) -> int:
            out = 0
            for v in vs:
                if type(v) is not int:  # bool is an int subclass
                    raise ValueError(f"vertex {v!r} is not an integer")
                if not 1 <= v <= n:
                    raise ValueError(f"vertex {v} out of range")
                if out >> (v - 1) & 1:
                    raise ValueError(f"vertex {v} repeated")
                out |= 1 << (v - 1)
            return out

        p = StarPartition(mask(c), mask(i), mask(j), mask(k))
        p.validate_for(n)
        return p


# the column spaces W_I, W_J, W_K, each the frozenset of its members
BlockSpaces = namedtuple("BlockSpaces", "w_i w_j w_k")


class StarClassification(
    namedtuple("StarClassification", "nontrivial_intersection distributive case predicted outcome")
):
    """`predicted` is the case's MmiOutcome, or None for undetermined (case
    4); `outcome` is the MMI outcome over (C∪I, C∪J, rest) itself."""

    __slots__ = ()

    def to_json(self, p: StarPartition) -> str:
        return json.dumps(
            {
                "partition": {
                    name: [v + 1 for v in _bits(mask)]
                    for name, mask in zip("CIJK", (p.c, p.i, p.j, p.k))
                },
                "case": self.case,
                "distributive": self.distributive,
                "nontrivial_intersection": self.nontrivial_intersection,
                "outcome": self.outcome.value,
            },
            sort_keys=True,
        )


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def is_generalized_star(g: Graph, p: StarPartition) -> bool:
    """No edge may join any two of the blocks I, J, K."""
    p.validate_for(g.n)
    for v in _bits(p.i):
        if g.adj[v] & (p.j | p.k):
            return False
    for v in _bits(p.j):
        if g.adj[v] & p.k:
            return False
    return True


def is_anchored_single_center(g: Graph, p: StarPartition) -> bool:
    """Single-center anchoring: every block touches the center vertex, that
    is, the partition has a four-star witness."""
    if bin(p.c).count("1") != 1:
        raise ValueError("anchoring test requires |C| == 1")
    return four_star_witness(g, p) is not None


def _span(vectors) -> frozenset[int]:
    """Every member of the GF(2) span of `vectors` (vertex masks)."""
    members = {0}
    for v in vectors:
        if v not in members:
            members |= {m ^ v for m in members}
    return frozenset(members)


def _dim(w: frozenset[int]) -> int:
    return len(w).bit_length() - 1


def block_spaces(g: Graph, p: StarPartition) -> BlockSpaces:
    if not is_generalized_star(g, p):
        raise ValueError("partition is not a generalized star")
    return BlockSpaces(
        *(_span(g.adj[u] & p.c for u in _bits(block)) for block in (p.i, p.j, p.k))
    )


def _cij_dims(w: BlockSpaces) -> tuple[int, int]:
    """dim(W_I∩W_K) + dim(W_J∩W_K), and dim((W_I+W_J)∩W_K)."""
    return _dim(w.w_i & w.w_k) + _dim(w.w_j & w.w_k), _dim(_span(w.w_i | w.w_j) & w.w_k)


_CASE_PREDICTION = {
    # (distributive, nontrivial_intersection) -> (case, predicted outcome)
    (False, False): (1, MmiOutcome.SATISFIES),
    (True, False): (2, MmiOutcome.SATURATES),
    (True, True): (3, MmiOutcome.FAILS),
    (False, True): (4, None),
}


def classify(g: Graph, p: StarPartition) -> StarClassification:
    """W_I∩W_K + W_J∩W_K ⊆ (W_I+W_J)∩W_K: distributive when the dimensions
    agree.  rhs − (lhs − dim(W_I∩W_J∩W_K)) is symmetric in I, J, K, so one
    test covers all three arrangements of the identity.  The same two
    dimensions give the MMI outcome over (C∪I, C∪J, rest): lhs below / at /
    above rhs means the inequality holds strictly / with equality / fails."""
    w = block_spaces(g, p)
    triple = w.w_i & w.w_j & w.w_k
    lhs, rhs = _cij_dims(w)
    nontrivial = len(triple) > 1
    dist = lhs - _dim(triple) == rhs
    case, predicted = _CASE_PREDICTION[(dist, nontrivial)]
    return StarClassification(nontrivial, dist, case, predicted, MmiOutcome.of_sign(rhs - lhs))


def mmi_cij_colspace(g: Graph, p: StarPartition) -> MmiOutcome:
    """MMI over (C∪I, C∪J, rest) from block column spaces alone."""
    return classify(g, p).outcome


def entropies_from_blocks(g: Graph, p: StarPartition) -> dict[str, int]:
    """The seven subsystem entropies of the (C∪I, C∪J) instance, from block
    ranks (dim W_X) and intersection dimensions only."""
    w = block_spaces(g, p)
    r_i, r_j, r_k = _dim(w.w_i), _dim(w.w_j), _dim(w.w_k)
    d_ij, d_ik, d_jk = _dim(w.w_i & w.w_j), _dim(w.w_i & w.w_k), _dim(w.w_j & w.w_k)
    _, rhs = _cij_dims(w)
    return {
        "S_C": r_i + r_j + r_k - d_ij - rhs,
        "S_I": r_i,
        "S_J": r_j,
        "S_CI": r_j + r_k - d_jk,
        "S_CJ": r_i + r_k - d_ik,
        "S_IJ": r_i + r_j - d_ij,
        "S_CIJ": r_k,
    }


def generalized_anchoring(g: Graph, p: StarPartition) -> bool:
    """All three block column spaces coincide (possibly trivially)."""
    w = block_spaces(g, p)
    return w.w_i == w.w_j and w.w_j == w.w_k


def four_star_witness(
    g: Graph, p: StarPartition
) -> tuple[int, int, int, int] | None:
    """An induced four-star with its center in C and one leaf in each block,
    if any: the first center whose neighborhood meets I, J and K, with its
    least neighbor in each (1-based).  No edge joins two blocks, so the
    leaves are pairwise non-adjacent."""
    if not is_generalized_star(g, p):
        raise ValueError("partition is not a generalized star")
    for c in _bits(p.c):
        leaves = [g.adj[c] & block for block in (p.i, p.j, p.k)]
        if all(leaves):
            return (c + 1, *((leaf & -leaf).bit_length() for leaf in leaves))
    return None


def _components(g: Graph, mask: int) -> list[int]:
    """Vertex masks of the connected components of G[mask], the component
    holding the lowest vertex first."""
    comps, left = [], mask
    while left:
        comp = frontier = left & -left
        while frontier:
            grown, f = comp, frontier
            while f:
                low = f & -f
                grown |= g.adj[low.bit_length() - 1] & mask
                f ^= low
            frontier = grown & ~comp
            comp = grown
        comps.append(comp)
        left &= ~comp
    return comps


def _partitions(g: Graph):
    """Every generalized-star partition once up to the order of its blocks,
    as masks (C, X, Y, Z): pick M = I∪J∪K, then split the connected
    components of G[M] into three nonempty blocks, X holding the first
    component and Y's lowest vertex below Z's."""
    full = (1 << g.n) - 1
    for m_mask in range(1, full):  # C = complement stays nonempty
        first, *rest = _components(g, m_mask)
        if len(rest) < 2:
            continue
        for assign in product(range(3), repeat=len(rest)):
            blocks = [first, 0, 0]
            for comp, part in zip(rest, assign):
                blocks[part] |= comp
            x, y, z = blocks
            if y and z and y & -y < z & -z:
                yield full ^ m_mask, x, y, z


def find_star_partition(g: Graph) -> StarPartition | None:
    """Among the generalized-star partitions whose block column spaces share
    a nonzero vector (W_I ∩ W_J ∩ W_K ≠ {0}), the one with the largest
    |C∪I∪J|, then the smallest (c, i, j) mask triple; None if there is
    none.  The test is symmetric in I, J, K, so each unordered block triple
    is spanned once, and on a hit all six orders of it compete."""
    hits = []
    for c, *blocks in _partitions(g):  # each a star by construction: no re-validation
        w_x, w_y, w_z = (_span(g.adj[u] & c for u in _bits(b)) for b in blocks)
        if len(w_x & w_y & w_z) > 1:
            hits += (StarPartition(c, i, j, k) for i, j, k in permutations(blocks))
    return min(hits, key=lambda p: (-bin(p.c | p.i | p.j).count("1"), p.c, p.i, p.j), default=None)
