"""Bit-packed exact linear algebra over GF(2) for lengths up to 128.

Vectors are Python ints used as bit sets: coordinate i (1-indexed) lives in
bit i-1.  The serialized form is a '0'/'1' string whose leftmost character
is coordinate 1, so string order is "low coordinates first".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, ParseError

__all__ = [
    "MAX_LEN",
    "BitVector",
    "BitMatrix",
    "RrefResult",
    "rref",
    "kernel",
]

MAX_LEN = 128


def _mask(n: int) -> int:
    return (1 << n) - 1


@dataclass(frozen=True)
class BitVector:
    """A vector in GF(2)^n, n between 1 and 128, packed into one int."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_LEN:
            raise DomainError(f"vector length must be in 1..{MAX_LEN}, got {self.n}")
        if not 0 <= self.bits <= _mask(self.n):
            raise DomainError(f"bits 0x{self.bits:x} out of range for length {self.n}")

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, _mask(n))

    @classmethod
    def from01(cls, s: str) -> "BitVector":
        """Parse a '0'/'1' string, leftmost character = coordinate 1."""
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ParseError(f"invalid character {ch!r} in vector string")
        if not s:
            raise ParseError("empty vector string")
        return cls(len(s), bits)

    @classmethod
    def from_support(cls, n: int, coords: Iterable[int]) -> "BitVector":
        """Build from 1-indexed coordinates of the set bits."""
        bits = 0
        for c in coords:
            if not 1 <= c <= n:
                raise DomainError(f"coordinate {c} out of range 1..{n}")
            bit = 1 << (c - 1)
            if bits & bit:
                raise DomainError(f"duplicate coordinate {c}")
            bits |= bit
        return cls(n, bits)

    @classmethod
    def unit(cls, n: int, i: int) -> "BitVector":
        return cls.from_support(n, (i,))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def bit(self, i: int) -> int:
        """Coordinate i, 1-indexed."""
        if not 1 <= i <= self.n:
            raise DomainError(f"coordinate {i} out of range 1..{self.n}")
        return (self.bits >> (i - 1)) & 1

    def support(self) -> Tuple[int, ...]:
        """Sorted 1-indexed coordinates of the set bits."""
        return tuple(i + 1 for i in range(self.n) if (self.bits >> i) & 1)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))

    def __str__(self) -> str:
        return self.to01()

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector(self.n, self.bits & other.bits)

    def dot(self, other: "BitVector") -> int:
        self._check_same_length(other)
        return (self.bits & other.bits).bit_count() & 1

    def rotated(self, s: int) -> "BitVector":
        """Cyclic shift moving each coordinate s places toward higher indices."""
        n = self.n
        s %= n
        if s == 0:
            return self
        bits = ((self.bits << s) | (self.bits >> (n - s))) & _mask(n)
        return BitVector(n, bits)

    def dropped(self, coords: Iterable[int]) -> "BitVector":
        """Delete the given 1-indexed coordinates, shrinking the vector."""
        todo = sorted(set(coords), reverse=True)
        for c in todo:
            if not 1 <= c <= self.n:
                raise DomainError(f"coordinate {c} out of range 1..{self.n}")
        n, bits = self.n, self.bits
        for c in todo:
            low = bits & _mask(c - 1)
            bits = low | ((bits >> c) << (c - 1))
            n -= 1
        if n < 1:
            raise DomainError("cannot drop every coordinate")
        return BitVector(n, bits)

    def permuted(self, images: Sequence[int]) -> "BitVector":
        """Apply a coordinate permutation given as 1-indexed images.

        Coordinate i of self lands on coordinate images[i-1] of the result.
        """
        if len(images) != self.n or sorted(images) != list(range(1, self.n + 1)):
            raise DomainError("images must be a permutation of 1..n")
        bits = 0
        for i in range(self.n):
            if (self.bits >> i) & 1:
                bits |= 1 << (images[i] - 1)
        return BitVector(self.n, bits)

    def _check_same_length(self, other: "BitVector") -> None:
        if self.n != other.n:
            raise DomainError(f"length mismatch: {self.n} vs {other.n}")


@dataclass(frozen=True)
class BitMatrix:
    """A matrix over GF(2) stored as a tuple of BitVector rows."""

    ncols: int
    rows: Tuple[BitVector, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.ncols <= MAX_LEN:
            raise DomainError(f"column count must be in 1..{MAX_LEN}, got {self.ncols}")
        for r in self.rows:
            if r.n != self.ncols:
                raise DomainError(f"row length {r.n} does not match {self.ncols} columns")

    @classmethod
    def from_rows(cls, rows: Iterable[BitVector], ncols: Optional[int] = None) -> "BitMatrix":
        rows = tuple(rows)
        if ncols is None:
            if not rows:
                raise DomainError("cannot infer column count from an empty row list")
            ncols = rows[0].n
        return cls(ncols, rows)

    @classmethod
    def from_strings(cls, strings: Iterable[str], ncols: Optional[int] = None) -> "BitMatrix":
        return cls.from_rows((BitVector.from01(s) for s in strings), ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, tuple(BitVector.unit(n, i) for i in range(1, n + 1)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return all(r.is_zero for r in self.rows)

    def row_ints(self) -> List[int]:
        return [r.bits for r in self.rows]

    def to_strings(self) -> List[str]:
        return [r.to01() for r in self.rows]

    def transpose(self) -> "BitMatrix":
        if not self.rows:
            raise DomainError("cannot transpose a matrix with no rows")
        cols = []
        for j in range(self.ncols):
            bits = 0
            for i, r in enumerate(self.rows):
                if (r.bits >> j) & 1:
                    bits |= 1 << i
            cols.append(BitVector(self.nrows, bits))
        return BitMatrix(self.nrows, tuple(cols))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise DomainError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        bt = other.transpose()
        out = []
        for r in self.rows:
            bits = 0
            for j, col in enumerate(bt.rows):
                if (r.bits & col.bits).bit_count() & 1:
                    bits |= 1 << j
            out.append(BitVector(other.ncols, bits))
        return BitMatrix(other.ncols, tuple(out))


@dataclass(frozen=True)
class RrefResult:
    matrix: BitMatrix
    rank: int
    pivots: Tuple[int, ...]  # 1-indexed column indices


# Raw-int helpers shared by the sibling modules; these skip BitVector wrapping
# so the hot paths stay allocation-free.

def rref_raw(
    rows: Sequence[int], ncols: int, col_order: Optional[Sequence[int]] = None
) -> Tuple[List[int], int, List[int]]:
    """Reduced row echelon form; returns (rows, rank, 0-indexed pivot columns).

    Pivot selection is deterministic: lowest column index first, or the
    first usable column of col_order when one is given (columns missing
    from col_order never become pivots).  Zero rows sink to the bottom;
    row count is preserved.
    """
    work = list(rows)
    rank = 0
    pivots: List[int] = []
    for col in range(ncols) if col_order is None else col_order:
        bit = 1 << col
        piv = None
        for r in range(rank, len(work)):
            if work[r] & bit:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(len(work)):
            if r != rank and work[r] & bit:
                work[r] ^= work[rank]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work, rank, pivots

def pivots_of_rref_raw(rows: Sequence[int]) -> List[int]:
    """0-indexed pivot columns of rows already in reduced echelon form."""
    return [(r & -r).bit_length() - 1 for r in rows if r]

def reduce_raw(v: int, red_rows: Sequence[int], pivots: Sequence[int]) -> int:
    """Reduce v against an rref basis, clearing every pivot position."""
    for row, p in zip(red_rows, pivots):
        if (v >> p) & 1:
            v ^= row
    return v

def kernel_raw(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {v : r . v = 0 for every row r}, one vector per free column."""
    red, rank, pivots = rref_raw(rows, ncols)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = 1 << free
        for idx in range(rank):
            if (red[idx] >> free) & 1:
                v |= 1 << pivots[idx]
        basis.append(v)
    return basis


def rref(m: BitMatrix) -> RrefResult:
    """Reduced row echelon form with deterministic lowest-column pivots."""
    red, rank, pivots = rref_raw(m.row_ints(), m.ncols)
    mat = BitMatrix(m.ncols, tuple(BitVector(m.ncols, r) for r in red))
    return RrefResult(mat, rank, tuple(p + 1 for p in pivots))


def kernel(m: BitMatrix) -> BitMatrix:
    """Canonical (rref) basis of the right null space of m."""
    basis = kernel_raw(m.row_ints(), m.ncols)
    red, rank, _ = rref_raw(basis, m.ncols)
    return BitMatrix(m.ncols, tuple(BitVector(m.ncols, r) for r in red[:rank]))
