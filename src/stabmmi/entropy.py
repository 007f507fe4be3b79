"""The numpy batch kernels: entropy rows and MMI signs.  The one-state
names of `mmi` (`EntropyVector`, `MmiInstance`, `MmiTally`,
`entropy_vector`, `canonicalize`, `mmi_instances`, `evaluate_mmi`,
`mmi_tally`) and `MmiOutcome` of `graphs` are re-exported here.

`_entropy_rows` maps numpy batches of generator rows to value rows, the
thousands of LC-orbit roots of a census at once; `mmi.entropy_vector` runs
the same support-counting kernel on Python ints for one state.  The
rank-per-mask `graphs.entropy` and `tableau.entropy` are the test oracle of
both.  MMI instances act on value rows through the mask table of
`mmi.mmi_table`, so a batch of tallies is one gather; the per-instance
`evaluate_mmi` is its test oracle.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .graphs import MmiOutcome
from .mmi import EntropyVector, MmiInstance, MmiTally, canonicalize, entropy_vector
from .mmi import evaluate_mmi, mmi_instances, mmi_table, mmi_tally

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
    "canonicalize",
]


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


@cache
def _mmi_table(n: int, include_full_union: bool) -> np.ndarray:
    """`mmi.mmi_table` as an index array; read-only."""
    table = np.array(mmi_table(n, include_full_union), dtype=np.intp).reshape(-1, 7)
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

