"""Entropy vectors, MMI instances, outcomes, tallies, and qubit-exchange
canonicalization.  `MmiOutcome` is defined in `graphs` and re-exported here.

Subsets of qubits are bitmasks with qubit t at bit t−1.  An entropy vector
stores S_A for every nonempty mask A; entries are exact naturals (bits).

Every entropy vector comes from one support-counting kernel, `_entropy_rows`,
which maps numpy batches of generator rows to value rows: one row for
`entropy_vector`, chunks of thousands for the censuses.  The rank-per-mask
`graphs.entropy` and `tableau.entropy` are its test oracle.  Qubit
relabelings act on value rows through index tables of RELABEL_BLOCK
relabelings each, which bounds the memory of a canonicalization.  MMI
instances act on value rows through one cached index table per n, so a
tally is one gather; the per-instance `evaluate_mmi` is its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice, permutations
import json

import numpy as np

from . import graphs as graphmod
from . import tableau as tabmod
from .graphs import MmiOutcome

__all__ = [
    "EntropyVector",
    "MmiInstance",
    "MmiOutcome",
    "MmiTally",
    "entropy_vector",
    "mmi_instances",
    "evaluate_mmi",
    "mmi_signs",
    "mmi_tally",
    "relabelings",
    "relabeled",
    "canonicalize",
]

# qubit relabelings per index table
RELABEL_BLOCK = 720


@dataclass(frozen=True)
class EntropyVector:
    """S_A for all nonempty masks A; values[m-1] holds mask m."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        if len(self.values) != full:
            raise ValueError("entropy vector needs one value per nonempty mask")
        if self.values[full - 1] != 0:
            raise ValueError("pure state: full-system entropy must be zero")
        for mask in range(1, full):
            if self.values[mask - 1] != self.values[(full ^ mask) - 1]:
                raise ValueError("pure state: S_A must equal S_complement")
            # with the symmetry above, this bounds S_A by n/2; mmi_signs relies on it
            if not 0 <= self.values[mask - 1] <= bin(mask).count("1"):
                raise ValueError("entropy out of range: 0 ≤ S_A ≤ |A| qubits")

    def __getitem__(self, mask: int) -> int:
        if mask == 0:
            return 0
        return self.values[mask - 1]

    def to_json(self, canonical: bool = False) -> str:
        ent = {str(mask): self.values[mask - 1] for mask in range(1, (1 << self.n))}
        return json.dumps({"n": self.n, "entropies": ent, "canonical": canonical}, sort_keys=True)


@dataclass(frozen=True)
class MmiInstance:
    """Unordered triple of disjoint nonempty subsystem masks, stored i<j<k."""

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        i, j, k = self.i, self.j, self.k
        if not (0 < i and 0 < j and 0 < k):
            raise ValueError("subsystems must be nonempty")
        if i & j or i & k or j & k:
            raise ValueError("subsystems must be pairwise disjoint")
        if not i < j < k:
            lo, mid, hi = sorted((i, j, k))
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", mid)
            object.__setattr__(self, "k", hi)


@dataclass(frozen=True)
class MmiTally:
    satisfies: int
    saturates: int
    fails: int

    def as_triple(self) -> tuple[int, int, int]:
        return (self.satisfies, self.saturates, self.fails)


def _index_bits(index: np.ndarray, width: int) -> np.ndarray:
    """Rows of the low `width` bits of each index, least significant first."""
    return (index[:, None] >> np.arange(width)) & 1


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
    popcount = _index_bits(np.arange(size), n).sum(axis=1).astype(np.uint8)
    log2 = np.zeros(size + 1, dtype=np.uint8)
    log2[1 << np.arange(n + 1)] = np.arange(n + 1)
    return (popcount[1:, None] - log2[counts[1:]]).T.copy()


def entropy_vector(source) -> EntropyVector:
    """Full entropy vector of a Graph (x = identity, z = adjacency) or a
    Tableau, as one kernel row."""
    if isinstance(source, graphmod.Graph):
        x, z = [1 << v for v in range(source.n)], source.adj
    elif isinstance(source, tabmod.Tableau):
        x, z = source.x.rows, source.z.rows
    else:
        raise TypeError(f"unsupported source {type(source).__name__}")
    row = _entropy_rows(np.array([x]), np.array([z]))[0]
    return EntropyVector(source.n, tuple(row.tolist()))


def _submasks(mask: int):
    """Nonempty submasks of mask."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def mmi_instances(n: int, include_full_union: bool = True) -> list[MmiInstance]:
    """All unordered triples of pairwise-disjoint nonempty subsystems, sorted;
    none for n < 3."""
    full = (1 << n) - 1
    out = []
    for i in range(1, full + 1):
        comp_i = full ^ i
        for j in _submasks(comp_i):
            if j <= i:
                continue
            comp_ij = comp_i ^ j
            for k in _submasks(comp_ij):
                if k <= j:
                    continue
                if not include_full_union and (i | j | k) == full:
                    continue
                out.append(MmiInstance(i, j, k))
    out.sort(key=lambda t: (t.i, t.j, t.k))
    return out


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


@cache
def _mmi_table(n: int, include_full_union: bool) -> np.ndarray:
    """Masks I|J, I|K, J|K, I, J, K, I|J|K of each MMI instance, one row per
    instance in `mmi_instances` order; read-only."""
    instances = mmi_instances(n, include_full_union)
    table = np.array(
        [(t.i | t.j, t.i | t.k, t.j | t.k, t.i, t.j, t.k, t.i | t.j | t.k) for t in instances],
        dtype=np.intp,
    ).reshape(-1, 7)
    table.flags.writeable = False
    return table


def mmi_signs(values, include_full_union: bool = True) -> np.ndarray:
    """Sign of S_IJ + S_IK + S_JK − (S_I + S_J + S_K + S_IJK) for every MMI
    instance, in `mmi_instances` order: 1 satisfies, 0 saturates, −1 fails.

    `values` holds value rows of shape (..., 2^n − 1), n read from the last
    axis (one vector: `ev.values`); the result has shape (..., instances).
    The gather is int8: entropies are at most n/2, so sums of four fit."""
    padded = np.insert(np.asarray(values, dtype=np.int8), 0, 0, axis=-1)
    s = padded[..., _mmi_table(padded.shape[-1].bit_length() - 1, include_full_union)]
    return np.sign(s[..., :3].sum(axis=-1, dtype=np.int8) - s[..., 3:].sum(axis=-1, dtype=np.int8))


def mmi_tally(ev: EntropyVector, include_full_union: bool = True) -> MmiTally:
    fails, saturates, satisfies = np.bincount(
        mmi_signs(ev.values, include_full_union) + 1, minlength=3
    ).tolist()
    return MmiTally(satisfies, saturates, fails)


def relabelings(n: int):
    """Index tables of every qubit relabeling, RELABEL_BLOCK rows per table.

    Entry [p, m − 1] is the index of mask m after relabeling p, which moves
    bit v to bit p[v]; indexing a value row by a table relabels it.
    """
    masks = _index_bits(np.arange(1, 1 << n), n)
    dtype = np.min_scalar_type((1 << n) - 2)
    perms = permutations(range(n))
    while block := list(islice(perms, RELABEL_BLOCK)):
        yield ((1 << np.array(block)) @ masks.T - 1).astype(dtype)


def relabeled(row: bytes, tables):
    """The value row (bytes, one per nonempty mask) under the relabelings of
    each table: one list of bytes per table."""
    values = np.frombuffer(row, dtype=np.uint8)
    for table in tables:
        yield values[table].view(np.dtype((np.void, table.shape[1]))).ravel().tolist()


def canonicalize(ev: EntropyVector) -> EntropyVector:
    """Minimum over all qubit relabelings of the mask-ordered value tuple."""
    best = min(min(rows) for rows in relabeled(bytes(ev.values), relabelings(ev.n)))
    return EntropyVector(ev.n, tuple(best))
