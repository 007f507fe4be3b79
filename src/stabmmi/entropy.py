"""One state's entropy vector and MMI outcomes, without numpy.

Subsets of qubits are bitmasks with qubit t at bit t−1.  An entropy vector
stores S_A for every nonempty mask A; entries are exact naturals (bits).

`entropy_vector` runs the support-counting kernel of `census._entropy_rows`
on Python ints for one state; the batch kernel serves the censuses.  MMI
instances are rows of one cached mask table per n, which `census.mmi_signs`
gathers for value batches and `instance_signs` reads for one vector.  The
rank-per-mask `graphs.entropy` and `tableau.entropy`, and the per-instance
`evaluate_mmi`, are the test oracles of both paths.

`canonicalize` gives the qubit-exchange canonical form of one vector by a
level-wise search over relabelings.  The census needs no search: its
distinct vectors hold every exchange class whole, and a class's least
member is its canonical form.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import add
import json

from . import graphs as graphmod
from . import tableau as tabmod
from .graphs import MmiOutcome

__all__ = [
    "EntropyVector",
    "MmiInstance",
    "MmiOutcome",
    "MmiTally",
    "entropy_vector",
    "canonicalize",
    "mmi_table",
    "mmi_instances",
    "evaluate_mmi",
    "instance_signs",
    "mmi_tally",
]


class EntropyVector(namedtuple("EntropyVector", "n values")):
    """S_A for all nonempty masks A; values[m-1] holds mask m."""

    __slots__ = ()

    def __new__(cls, n: int, values: tuple[int, ...]) -> EntropyVector:
        full = (1 << n) - 1
        if len(values) != full:
            raise ValueError("entropy vector needs one value per nonempty mask")
        if values[full - 1] != 0:
            raise ValueError("pure state: full-system entropy must be zero")
        for mask in range(1, full):
            if values[mask - 1] != values[(full ^ mask) - 1]:
                raise ValueError("pure state: S_A must equal S_complement")
            # with the symmetry above, this bounds S_A by n/2, as census.mmi_signs needs
            if not 0 <= values[mask - 1] <= bin(mask).count("1"):
                raise ValueError("entropy out of range: 0 ≤ S_A ≤ |A| qubits")
        return super().__new__(cls, n, values)

    # indexing is by mask; the field accessors read the tuple slots directly
    def __getitem__(self, mask: int) -> int:
        if mask == 0:
            return 0
        return self.values[mask - 1]

    def to_json(self, canonical: bool = False) -> str:
        ent = {str(mask): self.values[mask - 1] for mask in range(1, (1 << self.n))}
        return json.dumps({"n": self.n, "entropies": ent, "canonical": canonical}, sort_keys=True)


class MmiInstance(namedtuple("MmiInstance", "i j k")):
    """Unordered triple of disjoint nonempty subsystem masks, stored i<j<k."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, k: int) -> MmiInstance:
        if not (0 < i and 0 < j and 0 < k):
            raise ValueError("subsystems must be nonempty")
        if i & j or i & k or j & k:
            raise ValueError("subsystems must be pairwise disjoint")
        if not i < j < k:
            i, j, k = sorted((i, j, k))
        return super().__new__(cls, i, j, k)


class MmiTally(namedtuple("MmiTally", "satisfies saturates fails")):
    __slots__ = ()

    @classmethod
    def of_signs(cls, signs: list[int]) -> "MmiTally":
        """The tally of a list of `instance_signs`."""
        return cls(signs.count(1), signs.count(0), signs.count(-1))

    def as_triple(self) -> tuple[int, int, int]:
        return (self.satisfies, self.saturates, self.fails)


def entropy_vector(source) -> EntropyVector:
    """Full entropy vector of a Graph (x = identity, z = adjacency) or a
    Tableau.

    The same kernel as `census._entropy_rows`, for one state: the number of
    group elements supported inside A is 2^(|A| − S_A) (Fattal et al.,
    quant-ph/0406168), counted by a histogram of the 2^n element supports
    and a subset-sum (zeta) transform."""
    if isinstance(source, graphmod.Graph):
        x, z = [1 << v for v in range(source.n)], source.adj
    elif isinstance(source, tabmod.Tableau):
        x, z = source.x.rows, source.z.rows
    else:
        raise TypeError(f"unsupported source {type(source).__name__}")
    n = source.n
    size = 1 << n
    # element s is the product of the generators in bitmask s, its X-part in
    # the low n bits and its Z-part above; its support is their union
    elements = [0]
    for xi, zi in zip(x, z):
        gen = xi | zi << n
        elements += [e ^ gen for e in elements]
    counts = [0] * size
    for e in elements:
        counts[(e | e >> n) & (size - 1)] += 1
    # subset sums: counts[m] becomes the number of elements supported in m
    for k in range(n):
        bit = 1 << k
        for base in range(0, size, bit << 1):
            top = base + bit
            counts[top : top + bit] = map(add, counts[top : top + bit], counts[base:top])
    values = tuple(m.bit_count() - c.bit_length() + 1 for m, c in enumerate(counts) if m)
    return EntropyVector(n, values)


def canonicalize(ev: EntropyVector) -> EntropyVector:
    """Minimum over all qubit relabelings of the mask-ordered value tuple.

    A relabeling p places one qubit at each position 0..n−1, and the
    relabeled value at mask m is S of p(m).  Masks below 2^(k+1) read only
    positions 0..k, so qubits are placed one position at a time: step k
    fixes the values of masks 2^k … 2^(k+1)−1 (the block), and only the
    partial maps whose block equals the least block of the step survive.

    Survivors are then merged by a residual key: the values S of p(T) | U
    for every set T of placed positions and every set U of remaining
    qubits, with U enumerated in the remaining qubits' ascending order.
    Two partial maps with equal keys have the same set of completions: the
    order-preserving bijection between their remaining qubits carries each
    completion of one to a completion of the other with the same value
    tuple.  So a fully symmetric vector keeps one partial map per step.
    Each map is held as its image list: entry m is p(m) for m < 2^k."""
    n = ev.n
    s = (0, *ev.values)
    full = (1 << n) - 1
    level = [[0]]
    for _ in range(n):
        best, survivors = None, []
        for images in level:
            free = full ^ images[-1]
            while free:
                bit = free & -free
                free ^= bit
                block = [s[bit | m] for m in images]
                if best is None or block < best:
                    best, survivors = block, [(images, bit)]
                elif block == best:
                    survivors.append((images, bit))
        merged = {}
        for images, bit in survivors:
            placed = images + [bit | m for m in images]
            # the images of the completion by the remaining qubits in ascending order
            completed, rest = placed, full ^ placed[-1]
            while rest:
                low = rest & -rest
                rest ^= low
                completed = completed + [low | m for m in completed]
            merged.setdefault(tuple([s[m] for m in completed]), placed)
        level = list(merged.values())
    return EntropyVector(n, tuple([s[m] for m in level[0][1:]]))


def _submasks_above(mask: int, low: int):
    """Nonempty submasks of mask above low, which is disjoint from mask, in
    ascending order.  Disjoint masks differ at their higher top bit, so a
    submask is above low exactly when it has a bit above low's top bit."""
    sub = mask >> low.bit_length() << low.bit_length()
    sub &= -sub
    while sub:
        yield sub
        sub = (sub - mask) & mask


@cache
def mmi_table(n: int, include_full_union: bool) -> tuple[tuple[int, ...], ...]:
    """Masks I|J, I|K, J|K, I, J, K, I|J|K of every unordered triple of
    pairwise-disjoint nonempty subsystems I < J < K, one row per instance,
    sorted by (I, J, K); none for n < 3.  Without the full union, the
    triples that cover all n qubits are left out."""
    full = (1 << n) - 1
    rows = []
    for i in range(1, full + 1):
        rest_i = full ^ i
        for j in _submasks_above(rest_i, i):
            rest_j = rest_i ^ j
            for k in _submasks_above(rest_j, j):
                if include_full_union or k != rest_j:
                    rows.append((i | j, i | k, j | k, i, j, k, i | j | k))
    return tuple(rows)


def mmi_instances(n: int) -> list[MmiInstance]:
    """The MMI instances of `mmi_table`, in its order."""
    return [MmiInstance(i, j, k) for _, _, _, i, j, k, _ in mmi_table(n, True)]


def evaluate_mmi(ev: EntropyVector, inst: MmiInstance) -> MmiOutcome:
    """Compare S_IJ + S_IK + S_JK against S_I + S_J + S_K + S_IJK."""
    i, j, k = inst.i, inst.j, inst.k
    lhs = ev[i | j] + ev[i | k] + ev[j | k]
    rhs = ev[i] + ev[j] + ev[k] + ev[i | j | k]
    if lhs > rhs:
        return MmiOutcome.SATISFIES
    if lhs == rhs:
        return MmiOutcome.SATURATES
    return MmiOutcome.FAILS


def instance_signs(ev: EntropyVector, include_full_union: bool = True) -> list[int]:
    """Sign of S_IJ + S_IK + S_JK − (S_I + S_J + S_K + S_IJK) for every MMI
    instance of one vector, in `mmi_table` order: 1 satisfies, 0 saturates,
    −1 fails."""
    s = (0, *ev.values)
    return [
        (d > 0) - (d < 0)
        for d in (
            s[ij] + s[ik] + s[jk] - s[i] - s[j] - s[k] - s[ijk]
            for ij, ik, jk, i, j, k, ijk in mmi_table(ev.n, include_full_union)
        )
    ]


def mmi_tally(ev: EntropyVector) -> MmiTally:
    return MmiTally.of_signs(instance_signs(ev))
