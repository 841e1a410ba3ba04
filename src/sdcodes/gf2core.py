"""Exact linear algebra over GF(2) for lengths up to 128.

A word is a Python int used as a bit set: coordinate i (1-indexed) lives
in bit i-1.  Text carries a word as a '0'/'1' string whose leftmost
character is coordinate 1; `parse01` and `format01` are the only places
that convert between the two.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, ParseError

__all__ = [
    "MAX_LEN",
    "parse01",
    "format01",
    "permute_word",
    "rref_raw",
    "reduce_raw",
    "pivots_of_rref_raw",
    "kernel_raw",
]

MAX_LEN = 128


def parse01(s: str) -> Tuple[int, int]:
    """(length, word) of a '0'/'1' string, leftmost character = coordinate 1."""
    bad = s.strip("01")
    if bad:
        raise ParseError(f"invalid character {bad[0]!r} in vector string")
    if not s:
        raise ParseError("empty vector string")
    if len(s) > MAX_LEN:
        raise DomainError(f"vector length must be in 1..{MAX_LEN}, got {len(s)}")
    return len(s), int(s[::-1], 2)


def format01(bits: int, n: int) -> str:
    """The '0'/'1' string of an n-coordinate word, coordinate 1 first."""
    return format(bits, f"0{n}b")[::-1]


def permute_word(v: int, images: Sequence[int]) -> int:
    """Send coordinate i of v to coordinate images[i-1].  images is taken
    to be a permutation; callers check that once, not once per word."""
    out = 0
    for i, img in enumerate(images):
        if (v >> i) & 1:
            out |= 1 << (img - 1)
    return out


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
