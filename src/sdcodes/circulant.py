"""Four-circulant codes: a [4n, 2n] generator (I | M) where M stacks the
circulants of two first rows ra, rb as [[A, B], [B^T, A^T]].

Self-duality reduces to an autocorrelation identity on (ra, rb), so the
exhaustive search never materializes a matrix until a pair has survived
the cheap filters: signature bucketing pairs ra with compatible rb in one
lookup, row-sum and two-row weight filters run vectorized over each
bucket, and only then is a code built for an exact minimum-weight check.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .codes import LinearCode
from .errors import DomainError, ParseError, ResourceLimitError
from .gf2core import BitMatrix, BitVector
from .wenum import _min_weight_staged

__all__ = [
    "CirculantPair",
    "SearchRules",
    "circulant_matrix",
    "build_four_circulant",
    "self_dual_condition",
    "search_four_circulant",
    "parse_pairs",
    "format_pairs",
    "load_pairs",
    "save_pairs",
    "SEARCH_BLOCK_LIMIT",
]

SEARCH_BLOCK_LIMIT = 16


def _rot(bits: int, s: int, n: int) -> int:
    s %= n
    if s == 0:
        return bits
    return ((bits << s) | (bits >> (n - s))) & ((1 << n) - 1)


def _reversed_row(bits: int, n: int) -> int:
    """First row of the transpose of the circulant with first row ``bits``."""
    out = bits & 1
    for j in range(1, n):
        out |= ((bits >> (n - j)) & 1) << j
    return out


@dataclass(frozen=True)
class CirculantPair:
    """The two defining first rows of a four-circulant generator."""

    block: int
    ra: BitVector
    rb: BitVector

    def __post_init__(self) -> None:
        if self.block < 1:
            raise DomainError(f"block size must be positive, got {self.block}")
        if self.ra.n != self.block or self.rb.n != self.block:
            raise DomainError(
                f"first rows have lengths {self.ra.n}, {self.rb.n}; expected {self.block}"
            )

    @property
    def weight_sum(self) -> int:
        return self.ra.weight + self.rb.weight

    def shifted(self, s: int) -> "CirculantPair":
        return CirculantPair(self.block, self.ra.rotated(s), self.rb.rotated(s))

    def serialize(self) -> str:
        return f"{self.ra.to01()};{self.rb.to01()}"

    @classmethod
    def parse(cls, text: str, line: Optional[int] = None) -> "CirculantPair":
        parts = text.strip().split(";")
        if len(parts) != 2:
            raise ParseError(f"expected 'ra;rb', got {text.strip()!r}", line=line)
        try:
            ra = BitVector.from01(parts[0])
            rb = BitVector.from01(parts[1])
        except (DomainError, ValueError) as exc:
            raise ParseError(str(exc), line=line) from None
        if ra.n != rb.n:
            raise ParseError(
                f"first rows have different lengths {ra.n} and {rb.n}", line=line
            )
        return cls(ra.n, ra, rb)


def parse_pairs(text: str) -> List[CirculantPair]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            out.append(CirculantPair.parse(raw, line=lineno))
    return out


def format_pairs(pairs: Sequence[CirculantPair]) -> str:
    return "".join(p.serialize() + "\n" for p in pairs)


def load_pairs(path) -> List[CirculantPair]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_pairs(fh.read())


def save_pairs(path, pairs: Sequence[CirculantPair]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_pairs(pairs))


def circulant_matrix(first_row: BitVector) -> BitMatrix:
    """Square matrix whose row i+1 is row i rotated one place right."""
    n = first_row.n
    return BitMatrix(
        n, tuple(BitVector(n, _rot(first_row.bits, i, n)) for i in range(n))
    )


def _generator_ints(block: int, ra: int, rb: int) -> List[int]:
    n = block
    rat = _reversed_row(ra, n)
    rbt = _reversed_row(rb, n)
    rows = []
    for i in range(n):
        rows.append((1 << i) | (_rot(ra, i, n) << (2 * n)) | (_rot(rb, i, n) << (3 * n)))
    for i in range(n):
        rows.append(
            (1 << (n + i)) | (_rot(rbt, i, n) << (2 * n)) | (_rot(rat, i, n) << (3 * n))
        )
    return rows


def build_four_circulant(p: CirculantPair, name: Optional[str] = None) -> LinearCode:
    """The [4n, 2n] code generated by (I | [[A, B], [B^T, A^T]])."""
    return LinearCode.from_int_rows(
        _generator_ints(p.block, p.ra.bits, p.rb.bits), 4 * p.block, name=name
    )


def self_dual_condition(p: CirculantPair) -> bool:
    """AA^T + BB^T = I, tested as an autocorrelation identity on (ra, rb)."""
    n, ra, rb = p.block, p.ra.bits, p.rb.bits
    for s in range(n // 2 + 1):
        aa = (ra & _rot(ra, s, n)).bit_count() & 1
        bb = (rb & _rot(rb, s, n)).bit_count() & 1
        if aa ^ bb != (1 if s == 0 else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# search

@dataclass(frozen=True)
class SearchRules:
    """Normalization filters applied to candidate pairs.

    weight_bound is a lower bound on wt(ra)+wt(rb); congruence constrains
    that sum mod 4 (self-duality already forces it odd); rb_last_one pins
    the last coordinate of rb.  None disables a filter.
    """

    weight_bound: Optional[int]
    congruence: Optional[int] = 1
    rb_last_one: bool = True

    def __post_init__(self) -> None:
        if self.congruence is not None and self.congruence % 4 not in (1, 3):
            raise DomainError(
                f"congruence must be 1 or 3 mod 4, got {self.congruence}"
            )

    @classmethod
    def for_target(cls, d_target: int, congruence: int = 1) -> "SearchRules":
        """Smallest admissible weight bound: every generator row has weight
        1 + wt(ra) + wt(rb), which must reach d_target."""
        bound = max(d_target - 1, 1)
        while bound % 4 != congruence % 4:
            bound += 1
        return cls(weight_bound=bound, congruence=congruence)

    @classmethod
    def unrestricted(cls) -> "SearchRules":
        return cls(weight_bound=None, congruence=None, rb_last_one=False)


@lru_cache(maxsize=4)
def _search_tables(n: int):
    mask = np.uint32((1 << n) - 1)
    v = np.arange(1 << n, dtype=np.uint32)
    wt = np.bitwise_count(v).astype(np.int32)
    sig = (wt & 1).astype(np.uint32)
    for s in range(1, n // 2 + 1):
        r = ((v << np.uint32(s)) | (v >> np.uint32(n - s))) & mask
        sig |= (np.bitwise_count(v & r).astype(np.uint32) & 1) << np.uint32(s)
    w2 = np.zeros((1 << n, n // 2 + 1), dtype=np.int32)
    for s in range(1, n // 2 + 1):
        r = ((v << np.uint32(s)) | (v >> np.uint32(n - s))) & mask
        w2[:, s] = np.bitwise_count(v ^ r)
    rev = (v & 1).astype(np.uint32)
    for j in range(1, n):
        rev |= ((v >> np.uint32(n - j)) & 1) << np.uint32(j)
    return v, wt, sig, w2, rev


def _search_range(
    block: int,
    d_target: int,
    rules: SearchRules,
    ra_lo: int,
    ra_hi: int,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[Tuple[int, int]]:
    n = block
    mask = np.uint32((1 << n) - 1)
    v, wt, sig, w2, rev = _search_tables(n)

    pool = v
    if rules.rb_last_one:
        pool = pool[(pool >> np.uint32(n - 1)) & 1 == 1]
    order = np.argsort(sig[pool], kind="stable")
    pool = pool[order]
    pool_sig = sig[pool]

    min_sum = max(d_target - 1, rules.weight_bound or 0)
    pair_need = d_target - 2
    cross_need = (d_target - 1) // 2  # ceil((d_target - 2) / 2)

    found: List[Tuple[int, int]] = []
    for ra in range(ra_lo, ra_hi):
        want = int(sig[ra]) ^ 1
        lo = int(np.searchsorted(pool_sig, want, side="left"))
        hi = int(np.searchsorted(pool_sig, want, side="right"))
        if progress is not None and (ra - ra_lo) % 1024 == 1023:
            progress(ra + 1 - ra_lo, ra_hi - ra_lo)
        if lo == hi:
            continue
        cand = pool[lo:hi]
        sums = wt[cand] + int(wt[ra])
        keep = sums >= min_sum
        if rules.congruence is not None:
            keep &= sums % 4 == rules.congruence % 4
        cand = cand[keep]
        if not cand.size:
            continue
        # every two rows from the same half combine to weight 2 + w2 terms
        m = np.ones(cand.shape, dtype=bool)
        for s in range(1, n // 2 + 1):
            m &= w2[cand, s] >= pair_need - int(w2[ra, s])
        cand = cand[m]
        if not cand.size:
            continue
        # a top and a bottom row combine to weight 2 + 2*wt(ra ^ rot(rb^T))
        rbt = rev[cand]
        m = np.ones(cand.shape, dtype=bool)
        rau = np.uint32(ra)
        for u in range(n):
            ru = ((rbt << np.uint32(u)) | (rbt >> np.uint32(n - u))) & mask
            m &= np.bitwise_count(rau ^ ru) >= cross_need
        cand = cand[m]
        for rb in cand.tolist():
            code = LinearCode.from_int_rows(_generator_ints(n, ra, rb), 4 * n)
            if _min_weight_staged(code, d_target) >= d_target:
                found.append((ra, rb))
    if progress is not None:
        progress(ra_hi - ra_lo, ra_hi - ra_lo)
    return found


def _search_worker(args) -> List[Tuple[int, int]]:
    block, d_target, rules, lo, hi = args
    return _search_range(block, d_target, rules, lo, hi)


def search_four_circulant(
    block: int,
    d_target: int,
    rules: Optional[SearchRules] = None,
    threads: int = 1,
    ra_range: Optional[Tuple[int, int]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[CirculantPair]:
    """All pairs whose code is self-dual with min weight >= d_target and
    which pass the normalization rules, in serialization order.

    The ra interval is split into contiguous ranges across workers, so
    the result is identical for every thread count.
    """
    if block < 1:
        raise DomainError(f"block size must be positive, got {block}")
    if block > SEARCH_BLOCK_LIMIT:
        raise ResourceLimitError(
            f"search budget is 2^(2*block-1) pair evaluations; "
            f"block {block} exceeds the limit {SEARCH_BLOCK_LIMIT}"
        )
    if rules is None:
        rules = SearchRules.for_target(d_target)
    lo, hi = ra_range if ra_range is not None else (0, 1 << block)
    if not 0 <= lo <= hi <= 1 << block:
        raise DomainError(f"ra range ({lo}, {hi}) outside [0, 2^{block}]")
    threads = max(1, threads)
    if threads == 1 or hi - lo < 2 * threads:
        raw = _search_range(block, d_target, rules, lo, hi, progress)
    else:
        bounds = [lo + (hi - lo) * i // threads for i in range(threads + 1)]
        jobs = [
            (block, d_target, rules, bounds[i], bounds[i + 1]) for i in range(threads)
        ]
        raw = []
        with ProcessPoolExecutor(max_workers=threads) as pool:
            done = 0
            for part in pool.map(_search_worker, jobs):
                raw.extend(part)
                done += 1
                if progress is not None:
                    progress(bounds[done] - lo, hi - lo)
    pairs = [
        CirculantPair(block, BitVector(block, ra), BitVector(block, rb))
        for ra, rb in raw
    ]
    pairs.sort(key=lambda p: (p.ra.to01(), p.rb.to01()))
    return pairs
