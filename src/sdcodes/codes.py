"""Binary linear codes and their self-duality structure.

A LinearCode is its canonical int rows: the reduced-echelon basis, with
coordinate i in bit i-1.  Every constructor reduces the rows it is given,
so equal codes compare equal; rows are '0'/'1' strings only in JSON code
files and `from_strings`.  Facts computed about a code (self-duality,
weight and shadow distributions, minimum weight, codewords of a weight,
the invariant signature) are memoised on the code itself and freed with
it.  On top of that sit the dual, the parity classes of self-dual codes,
the doubly-even subcode with its shadow cosets, and the two-coordinate
subtraction construction.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from .errors import DomainError, IntegrityError, ParseError
from .gf2core import (
    MAX_LEN,
    format01,
    kernel_raw,
    parse01,
    permute_word,
    pivots_of_rref_raw,
    reduce_raw,
    rref_raw,
)

__all__ = [
    "ParityClass",
    "LinearCode",
    "ShadowParts",
    "dual",
    "is_self_dual",
    "parity_class",
    "shadow_parts",
    "subtract_coordinates",
    "permuted_code",
    "load_code",
    "save_code",
]

class ParityClass(enum.Enum):
    ODD_CONTAINING = "odd-containing"
    SINGLY_EVEN = "singly-even"
    DOUBLY_EVEN = "doubly-even"


@dataclass(frozen=True)
class LinearCode:
    """An [n, k] binary code held as its canonical int rows.

    `rows` may be any spanning ints of at most n bits; the constructor
    replaces them with their reduced-echelon basis, so k is the rank and
    equality and hashing are those of the code.  `memo` holds facts derived
    from the code, keyed by what they are; it takes no part in equality,
    hashing or JSON.
    """

    n: int
    rows: Tuple[int, ...]
    name: Optional[str] = field(default=None, compare=False)
    memo: Dict[Any, Any] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_LEN:
            raise DomainError(f"code length must be in 1..{MAX_LEN}, got {self.n!r}")
        rows = tuple(self.rows)
        for r in rows:
            if not isinstance(r, int) or r < 0 or r >> self.n:
                raise DomainError(f"row {r!r} does not fit in {self.n} bits")
        red, rank, _ = rref_raw(rows, self.n)
        object.__setattr__(self, "rows", tuple(red[:rank]))

    @property
    def k(self) -> int:
        return len(self.rows)

    @classmethod
    def from_int_rows(cls, ints: Sequence[int], n: int, name: Optional[str] = None) -> "LinearCode":
        return cls(n, tuple(ints), name)

    @classmethod
    def from_strings(cls, rows: Sequence[str], name: Optional[str] = None) -> "LinearCode":
        """The code spanned by '0'/'1' rows of one common length."""
        parsed = [parse01(s) for s in rows]
        if not parsed:
            raise DomainError("need an explicit length for an empty row list")
        n = parsed[0][0]
        for m, _ in parsed:
            if m != n:
                raise DomainError(f"row length {m} does not match n={n}")
        return cls(n, tuple(bits for _, bits in parsed), name)

    def with_name(self, name: Optional[str]) -> "LinearCode":
        return LinearCode(self.n, self.rows, name, self.memo)

    def label(self) -> str:
        return self.name if self.name is not None else f"[{self.n},{self.k}] code"

    def to_json(self) -> dict:
        return {
            "name": self.name or "",
            "n": self.n,
            "k": self.k,
            "rows": [format01(r, self.n) for r in self.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinearCode":
        try:
            n = int(obj["n"])
            rows = list(obj["rows"])
            k = int(obj["k"]) if "k" in obj else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(
                f"code object needs integer 'n', list 'rows' and, if given, integer 'k': {exc}"
            ) from None
        words = []
        for idx, s in enumerate(rows):
            if not isinstance(s, str):
                raise ParseError(f"row {idx + 1} is not a string")
            m, bits = parse01(s)
            if m != n:
                raise ParseError(f"row {idx + 1} has length {m}, expected {n}")
            words.append(bits)
        name = obj.get("name") or None
        code = cls(n, tuple(words), name)
        if k is not None and k != code.k:
            raise ParseError(f"declared k={k} but rows span dimension {code.k}")
        return code


def load_code(path: Union[str, Path]) -> LinearCode:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return LinearCode.from_json(obj)


def save_code(code: LinearCode, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(code.to_json(), indent=2) + "\n")


def dual(c: LinearCode) -> LinearCode:
    """The [n, n-k] dual code under the standard inner product."""
    basis = kernel_raw(c.rows, c.n)
    return LinearCode.from_int_rows(basis, c.n)


def is_self_dual(c: LinearCode) -> bool:
    """Whether c is its own dual; the verdict is memoised on c."""
    got = c.memo.get("self dual")
    if got is None:
        got = c.memo["self dual"] = 2 * c.k == c.n and _rows_orthogonal(c.rows)
    return got


def _rows_orthogonal(rows: Sequence[int]) -> bool:
    """Whether every two rows, and each row with itself, meet evenly."""
    for i, a in enumerate(rows):
        for b in rows[i:]:
            if (a & b).bit_count() & 1:
                return False
    return True


def parity_class(c: LinearCode) -> ParityClass:
    """Weight class from the generators plus the mod-4 closure rule; the
    class is memoised on c."""
    got = c.memo.get("parity class")
    if got is None:
        got = c.memo["parity class"] = _parity_class(c.rows)
    return got


def _parity_class(rows: Sequence[int]) -> ParityClass:
    if any(r.bit_count() & 1 for r in rows):
        return ParityClass.ODD_CONTAINING
    doubly = all(r.bit_count() % 4 == 0 for r in rows) and all(
        (a & b).bit_count() % 2 == 0
        for i, a in enumerate(rows)
        for b in rows[i + 1 :]
    )
    return ParityClass.DOUBLY_EVEN if doubly else ParityClass.SINGLY_EVEN


@dataclass(frozen=True)
class ShadowParts:
    """The doubly-even subcode plus the two coset representatives whose
    cosets of it make up the shadow.  The shadow itself is never stored."""

    c0: LinearCode
    coset_reps: Tuple[int, int]


def shadow_parts(c: LinearCode) -> ShadowParts:
    """Split a singly even self-dual code into C_0 and the shadow cosets."""
    if not is_self_dual(c) or parity_class(c) is not ParityClass.SINGLY_EVEN:
        raise DomainError("shadow decomposition needs a singly even self-dual code")
    rows = c.rows
    psi = [(r.bit_count() % 4) // 2 for r in rows]
    t_idx = psi.index(1)
    t = rows[t_idx]
    c0_ints = [r ^ t if psi[i] else r for i, r in enumerate(rows) if i != t_idx]
    c0 = LinearCode.from_int_rows(c0_ints, c.n)

    code_pivots = pivots_of_rref_raw(rows)
    s = 0
    for v in kernel_raw(c0.rows, c.n):
        if reduce_raw(v, rows, code_pivots) != 0:
            s = v
            break
    else:
        raise IntegrityError("no shadow representative found; not a proper C_0")

    c0_pivots = pivots_of_rref_raw(c0.rows)
    reps = sorted(
        (reduce_raw(s, c0.rows, c0_pivots), reduce_raw(s ^ t, c0.rows, c0_pivots)),
        key=lambda v: format01(v, c.n),
    )
    return ShadowParts(c0, (reps[0], reps[1]))


def subtract_coordinates(c: LinearCode, i: int, j: int) -> LinearCode:
    """Keep codewords agreeing on coordinates i and j, then delete both.

    For a self-dual [n, n/2] input this lands on a self-dual [n-2, n/2-1]
    code; that is re-verified rather than assumed.
    """
    if i == j:
        raise DomainError("the two coordinates must differ")
    for coord in (i, j):
        if not 1 <= coord <= c.n:
            raise DomainError(f"coordinate {coord} out of range 1..{c.n}")
    if not is_self_dual(c):
        raise DomainError("subtraction is defined on self-dual codes")
    if c.n < 4:
        raise DomainError("code too short to subtract two coordinates")
    rows = c.rows
    i0, j0 = i - 1, j - 1
    differs = [((r >> i0) ^ (r >> j0)) & 1 for r in rows]
    if any(differs):
        t_idx = differs.index(1)
        t = rows[t_idx]
        kept = [r ^ t if differs[idx] else r for idx, r in enumerate(rows) if idx != t_idx]
    else:
        kept = list(rows)
    lo, hi = sorted((i0, j0))
    shrunk = []
    for r in kept:
        r = (r & ((1 << hi) - 1)) | ((r >> (hi + 1)) << hi)
        r = (r & ((1 << lo) - 1)) | ((r >> (lo + 1)) << lo)
        shrunk.append(r)
    out = LinearCode.from_int_rows(shrunk, c.n - 2)
    if out.k != (c.n - 2) // 2 or not is_self_dual(out):
        raise IntegrityError(
            f"subtracting ({i},{j}) from {c.label()} did not yield a self-dual code"
        )
    return out


def permuted_code(c: LinearCode, images: Sequence[int], name: Optional[str] = None) -> LinearCode:
    """The equivalent code with coordinate i sent to images[i-1]."""
    if sorted(images) != list(range(1, c.n + 1)):
        raise DomainError("images must be a permutation of 1..n")
    return LinearCode(c.n, tuple(permute_word(r, images) for r in c.rows), name)
