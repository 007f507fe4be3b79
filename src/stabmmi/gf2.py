"""Bit-packed GF(2) matrices and subspace lattice operations.

Rows are stored as Python integers with bit ``i`` holding column ``i``
(little-endian), so row elimination is a single word-parallel XOR.
Subspaces are kept in reduced row-echelon form with sorted pivot columns,
which makes equality a plain tuple comparison.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator


class BitMatrix(namedtuple("BitMatrix", "rows cols")):
    """A matrix over GF(2); `rows[i]` packs row i, bit j = column j."""

    __slots__ = ()

    def __new__(cls, rows: tuple[int, ...], cols: int) -> BitMatrix:
        if cols < 0:
            raise ValueError("negative column count")
        for r in rows:
            if r >> cols:
                raise ValueError("row has bits beyond column count")
        return super().__new__(cls, rows, cols)

    @staticmethod
    def zero(rows: int, cols: int) -> "BitMatrix":
        return BitMatrix((0,) * rows, cols)

    @staticmethod
    def identity(n: int) -> "BitMatrix":
        return BitMatrix(tuple(1 << i for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form with zero rows dropped.

    Returns the reduced matrix and the (strictly increasing) pivot columns.
    """
    rows = list(m.rows)
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, len(rows)) if (rows[i] >> c) & 1), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return BitMatrix(tuple(rows[:r]), m.cols), pivots


def rank(m: BitMatrix) -> int:
    return len(rref(m)[1])


class Subspace(namedtuple("Subspace", "ambient basis")):
    """A subspace of Z_2^ambient with a canonical RREF basis."""

    __slots__ = ()

    def __new__(cls, ambient: int, basis: BitMatrix | None = None) -> Subspace:
        if basis is None:
            basis = BitMatrix((), ambient)
        if basis.cols != ambient:
            raise ValueError("basis width must equal ambient dimension")
        return super().__new__(cls, ambient, rref(basis)[0])

    @staticmethod
    def span(ambient: int, vectors: Iterable[int]) -> "Subspace":
        return Subspace(ambient, BitMatrix(tuple(vectors), ambient))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def elements(self) -> Iterator[int]:
        """All 2^dim member vectors (small spaces only)."""
        for mask in range(1 << self.dim):
            v = 0
            for i, row in enumerate(self.basis.rows):
                if (mask >> i) & 1:
                    v ^= row
            yield v


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient != v.ambient:
        raise ValueError("ambient dimension mismatch")


def sum_spaces(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    return Subspace(u.ambient, BitMatrix(u.basis.rows + v.basis.rows, u.ambient))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Subspace intersection via Zassenhaus block reduction.

    Rows [x | x] for x in u and [y | 0] for y in v are reduced together;
    rows whose left block vanished have right blocks spanning u ∩ v.
    """
    _check_ambient(u, v)
    n = u.ambient
    stacked = [r | (r << n) for r in u.basis.rows] + list(v.basis.rows)
    reduced, _ = rref(BitMatrix(tuple(stacked), 2 * n))
    low_mask = (1 << n) - 1
    inter = [r >> n for r in reduced.rows if not (r & low_mask)]
    return Subspace(n, BitMatrix(tuple(inter), n))


def is_distributive(u: Subspace, v: Subspace, w: Subspace) -> bool:
    """Whether (u∩w + v∩w) == (u+v)∩w, checked in all three arrangements.

    The single identity is conjecturally permutation-invariant; all three
    are evaluated, and AssertionError is raised if they disagree.
    """
    _check_ambient(u, v)
    _check_ambient(u, w)

    def one(a: Subspace, b: Subspace, c: Subspace) -> bool:
        return sum_spaces(intersect(a, c), intersect(b, c)) == intersect(sum_spaces(a, b), c)

    results = (one(u, v, w), one(w, v, u), one(u, w, v))
    if len(set(results)) != 1:
        raise AssertionError("distributivity disagreed across permutations")
    return results[0]
