"""Stabilizer tableaux [X | Z] without signs, Clifford updates, and entropies.

Row i of (x, z) is the i-th generator; bit a of a row is qubit a+1.  Signs
are omitted throughout: they never influence entanglement entropies.  Gate
functions take 1-based qubit indices and return new tableaux.
"""

from __future__ import annotations

from collections import namedtuple

from .gf2 import BitMatrix, rank

__all__ = [
    "Tableau",
    "zero_state",
    "apply_h",
    "apply_s",
    "apply_cnot",
    "apply_cz",
    "project",
    "entropy",
    "rank_vector",
    "from_graph",
    "parse_tableau",
]


class Tableau(namedtuple("Tableau", "n x z")):
    __slots__ = ()

    def __new__(cls, n: int, x: BitMatrix, z: BitMatrix) -> Tableau:
        if n < 1:
            raise ValueError("tableau needs at least one qubit")
        if x.nrows != n or z.nrows != n or x.cols != n or z.cols != n:
            raise ValueError("x and z must be n×n")
        combined = BitMatrix(tuple(xr | (zr << n) for xr, zr in zip(x.rows, z.rows)), 2 * n)
        if rank(combined) != n:
            raise ValueError("generators are not independent")
        for i in range(n):
            for j in range(i + 1, n):
                sym = bin(x.rows[i] & z.rows[j]).count("1")
                sym += bin(z.rows[i] & x.rows[j]).count("1")
                if sym & 1:
                    raise ValueError(f"generators {i} and {j} anticommute")
        return super().__new__(cls, n, x, z)


def zero_state(n: int) -> Tableau:
    """|0...0> stabilized by <Z_1, ..., Z_n>."""
    return Tableau(n, BitMatrix.zero(n, n), BitMatrix.identity(n))


def _check_index(t: Tableau, a: int) -> int:
    if not 1 <= a <= t.n:
        raise IndexError(f"qubit index {a} out of range 1..{t.n}")
    return 1 << (a - 1)


def apply_h(t: Tableau, a: int) -> Tableau:
    """Hadamard on qubit a: swap X and Z columns a."""
    bit = _check_index(t, a)
    x_rows, z_rows = [], []
    for xr, zr in zip(t.x.rows, t.z.rows):
        xb, zb = xr & bit, zr & bit
        x_rows.append((xr & ~bit) | zb)
        z_rows.append((zr & ~bit) | xb)
    return Tableau(t.n, BitMatrix(tuple(x_rows), t.n), BitMatrix(tuple(z_rows), t.n))


def apply_s(t: Tableau, a: int) -> Tableau:
    """Phase gate on qubit a: XOR X column a into Z column a."""
    bit = _check_index(t, a)
    z_rows = tuple(zr ^ (xr & bit) for xr, zr in zip(t.x.rows, t.z.rows))
    return Tableau(t.n, t.x, BitMatrix(z_rows, t.n))


def apply_cnot(t: Tableau, a: int, b: int) -> Tableau:
    """CNOT with control a, target b: X col a feeds X col b, Z col b feeds Z col a."""
    abit = _check_index(t, a)
    bbit = _check_index(t, b)
    if a == b:
        raise ValueError("control and target must differ")
    x_rows, z_rows = [], []
    for xr, zr in zip(t.x.rows, t.z.rows):
        x_rows.append(xr ^ (bbit if xr & abit else 0))
        z_rows.append(zr ^ (abit if zr & bbit else 0))
    return Tableau(t.n, BitMatrix(tuple(x_rows), t.n), BitMatrix(tuple(z_rows), t.n))


def apply_cz(t: Tableau, a: int, b: int) -> Tableau:
    """Controlled-Z as H_b CNOT_{a,b} H_b; symmetric in (a, b)."""
    if a == b:
        raise ValueError("CZ needs two distinct qubits")
    return apply_h(apply_cnot(apply_h(t, b), a, b), b)


def project(t: Tableau, a_mask: int) -> BitMatrix:
    """n×2|A| matrix of the X then Z columns restricted to subsystem A."""
    if a_mask == 0:
        raise ValueError("empty subsystem")
    if a_mask >> t.n:
        raise ValueError("mask outside qubit range")
    cols = [q for q in range(t.n) if (a_mask >> q) & 1]
    k = len(cols)
    rows = []
    for xr, zr in zip(t.x.rows, t.z.rows):
        packed = 0
        for out, q in enumerate(cols):
            packed |= ((xr >> q) & 1) << out
            packed |= ((zr >> q) & 1) << (k + out)
        rows.append(packed)
    return BitMatrix(tuple(rows), 2 * k)


def entropy(t: Tableau, a_mask: int) -> int:
    """Entanglement entropy of subsystem A in bits: rank(projection) − |A|."""
    return rank(project(t, a_mask)) - bin(a_mask).count("1")


def rank_vector(t: Tableau) -> dict[int, int]:
    """R_A = rank of the tableau restricted to subsystem A, per nonempty mask A."""
    return {mask: rank(project(t, mask)) for mask in range(1, 1 << t.n)}


def from_graph(g) -> Tableau:
    """Graph-state tableau: X = identity, Z = adjacency matrix."""
    n = g.n
    return Tableau(n, BitMatrix.identity(n), BitMatrix(tuple(g.adj), n))


def parse_tableau(text: str) -> Tableau:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    n = len(lines)
    if n == 0:
        raise ValueError("empty tableau text")
    x_rows, z_rows = [], []
    for ln in lines:
        if len(ln) != 2 * n or set(ln) - {"0", "1"}:
            raise ValueError(f"expected {2*n} binary characters per line, got {ln!r}")
        x_rows.append(sum(1 << j for j in range(n) if ln[j] == "1"))
        z_rows.append(sum(1 << j for j in range(n) if ln[n + j] == "1"))
    return Tableau(n, BitMatrix(tuple(x_rows), n), BitMatrix(tuple(z_rows), n))
