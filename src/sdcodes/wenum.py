"""Exact weight and shadow distributions, minimum weight, and the
weight-enumerator family arithmetic for lengths 58 and 60.

Weight distributions come from one of two engines.  A self-dual code of
length n <= 64 and dimension above 22 is never enumerated in full: by
Gleason's theorem its enumerator is an integer combination of
(x^2+y^2)^(n/2-4j) * (x^2 y^2 (x^2-y^2)^2)^j, j = 0..n//8, and the
combination is unit-triangular in A_0, A_2, ..., A_{2(n//8)}.  So only the
words of weight <= 2(n//8) (14 at n = 58 and 60) are counted, by level
walks over two complementary information sets, and the rest is solved for
exactly.  Every other code is enumerated: the generator rows split into an
inner block, materialized once as a packed-word numpy array, and an outer
block walked in Gray order, so each outer step is one vectorized xor +
popcount + histogram pass.

The shadow distribution of a singly even self-dual code is the transform
S(x, y) = W(x+y, i(x-y)) / 2^(n/2) of its weight distribution.  Every
count is an exact Python int, and derived counts are re-checked (integral,
non-negative, symmetric, summing to 2^k) before they are returned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .codes import LinearCode, ParityClass, is_self_dual, parity_class
from .errors import DomainError, IntegrityError, ParseError, ResourceLimitError
from .gf2core import pivots_of_rref_raw, rref_raw

__all__ = [
    "WeightDistribution",
    "ShadowDistribution",
    "FamilyTag",
    "FamilyParams",
    "BalanceStatus",
    "BalanceOutcome",
    "weight_distribution",
    "shadow_distribution",
    "min_weight",
    "codewords_of_weight",
    "macwilliams_check",
    "classify_enumerator",
    "check_shadow_balance",
    "solve_shadow_balance",
    "extremal_min_weight",
    "EXTREMAL_MIN_WEIGHT",
]

ENUM_DIMENSION_LIMIT = 34
_INNER_LOG = 16
# up to this dimension a whole-span Gray walk is cheaper than level walks
_FULL_SPAN_MAX_K = 22

# largest minimum weight a singly even self-dual code of these lengths can have
EXTREMAL_MIN_WEIGHT = {58: 10, 60: 12}


def extremal_min_weight(n: int) -> int:
    try:
        return EXTREMAL_MIN_WEIGHT[n]
    except KeyError:
        raise DomainError(
            f"no built-in extremal threshold for length {n}; supply one explicitly"
        ) from None


# ---------------------------------------------------------------------------
# distributions

def _format_csv(counts: Sequence[int]) -> str:
    lines = ["weight,count"]
    lines += [f"{i},{c}" for i, c in enumerate(counts) if c]
    return "\n".join(lines) + "\n"


def _parse_csv(text: str, n: Optional[int]) -> Tuple[int, Tuple[int, ...]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "weight,count":
        raise ParseError("expected header 'weight,count'", line=1)
    pairs = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'weight,count', got {ln!r}", line=lineno)
        try:
            i, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer entry in {ln!r}", line=lineno) from None
        if i < 0 or c < 0:
            raise ParseError(f"negative entry in {ln!r}", line=lineno)
        pairs.append((i, c))
    top = max((i for i, _ in pairs), default=0)
    if n is None:
        n = top
    elif top > n:
        raise ParseError(f"weight {top} exceeds declared length {n}")
    counts = [0] * (n + 1)
    for i, c in pairs:
        counts[i] += c
    return n, tuple(counts)


@dataclass(frozen=True)
class WeightDistribution:
    """Exact codeword counts A_0..A_n."""

    n: int
    counts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.n + 1:
            raise DomainError(f"need {self.n + 1} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise DomainError("negative count")

    @property
    def min_weight(self) -> Optional[int]:
        for i in range(1, self.n + 1):
            if self.counts[i]:
                return i
        return None

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_csv(self) -> str:
        return _format_csv(self.counts)

    @classmethod
    def from_csv(cls, text: str, n: Optional[int] = None) -> "WeightDistribution":
        n, counts = _parse_csv(text, n)
        return cls(n, counts)


@dataclass(frozen=True)
class ShadowDistribution:
    """Exact shadow-vector counts B_0..B_n."""

    n: int
    counts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.n + 1:
            raise DomainError(f"need {self.n + 1} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise DomainError("negative count")

    @property
    def min_weight(self) -> Optional[int]:
        for i in range(self.n + 1):
            if self.counts[i]:
                return i
        return None

    def to_csv(self) -> str:
        return _format_csv(self.counts)

    @classmethod
    def from_csv(cls, text: str, n: Optional[int] = None) -> "ShadowDistribution":
        n, counts = _parse_csv(text, n)
        return cls(n, counts)


# ---------------------------------------------------------------------------
# enumeration engine

def _span_lane(rows: List[int], seed: int) -> np.ndarray:
    arr = np.array([seed], dtype=np.uint64)
    for r in rows:
        arr = np.concatenate([arr, arr ^ np.uint64(r)])
    return arr


def _histogram_words(rows: Sequence[int], n: int, offset: int = 0) -> List[int]:
    """Weight histogram of {offset ^ v : v in span(rows)} as exact ints.

    Rows must be linearly independent; dependent rows would count words
    with multiplicity.
    """
    k = len(rows)
    counts = np.zeros(n + 1, dtype=np.int64)
    inner_k = min(k, _INNER_LOG)
    if n <= 64:
        inner = _span_lane(list(rows[:inner_k]), offset)
        outer = [np.uint64(r) for r in rows[inner_k:]]
        buf = np.empty_like(inner)
        wbuf = np.empty(inner.shape, dtype=np.uint8)
        word = np.uint64(0)
        for idx in range(1 << (k - inner_k)):
            if idx:
                word = word ^ outer[(idx & -idx).bit_length() - 1]
            np.bitwise_xor(inner, word, out=buf)
            np.bitwise_count(buf, out=wbuf)
            counts += np.bincount(wbuf, minlength=n + 1)
    else:
        mask64 = (1 << 64) - 1
        lo = _span_lane([r & mask64 for r in rows[:inner_k]], offset & mask64)
        hi = _span_lane([r >> 64 for r in rows[:inner_k]], offset >> 64)
        outer = [(np.uint64(r & mask64), np.uint64(r >> 64)) for r in rows[inner_k:]]
        blo = np.empty_like(lo)
        bhi = np.empty_like(hi)
        wlo = np.empty(lo.shape, dtype=np.uint8)
        whi = np.empty(hi.shape, dtype=np.uint8)
        word_lo = np.uint64(0)
        word_hi = np.uint64(0)
        for idx in range(1 << (k - inner_k)):
            if idx:
                flip_lo, flip_hi = outer[(idx & -idx).bit_length() - 1]
                word_lo = word_lo ^ flip_lo
                word_hi = word_hi ^ flip_hi
            np.bitwise_xor(lo, word_lo, out=blo)
            np.bitwise_xor(hi, word_hi, out=bhi)
            np.bitwise_count(blo, out=wlo)
            np.bitwise_count(bhi, out=whi)
            counts += np.bincount(wlo.astype(np.int16) + whi, minlength=n + 1)
    return [int(x) for x in counts]


_DIST_CACHE: Dict[LinearCode, WeightDistribution] = {}
_SHADOW_CACHE: Dict[LinearCode, ShadowDistribution] = {}
_MINW_CACHE: Dict[LinearCode, int] = {}
_WORDS_CACHE: Dict[Tuple[LinearCode, int], List[int]] = {}


def weight_distribution(c: LinearCode) -> WeightDistribution:
    """Exact A_0..A_n; budget k <= 34.

    Self-dual codes with n <= 64 and k > 22 count their words of weight
    <= 2(n//8) and take the rest from Gleason's theorem; every other code
    is enumerated in full.
    """
    cached = _DIST_CACHE.get(c)
    if cached is not None:
        return cached
    if c.k > ENUM_DIMENSION_LIMIT:
        raise ResourceLimitError(
            f"weight distribution is limited to k <= {ENUM_DIMENSION_LIMIT}, got k={c.k}"
        )
    counts = None
    if c.k > _FULL_SPAN_MAX_K and c.n <= 64 and is_self_dual(c):
        bases = _disjoint_information_bases(c)
        if len(bases) == 2:
            counts = _gleason_distribution(c.n, c.k, _low_weight_counts(c.n, bases))
    if counts is None:
        counts = tuple(_histogram_words(c.row_ints(), c.n))
    dist = WeightDistribution(c.n, counts)
    _DIST_CACHE[c] = dist
    if c.k >= 1:
        mw = dist.min_weight
        if mw is not None:
            _MINW_CACHE.setdefault(c, mw)
    return dist


def shadow_distribution(c: LinearCode) -> ShadowDistribution:
    """Exact B_0..B_n of a singly even self-dual code.

    S(x, y) = W(x+y, i(x-y)) / 2^(n/2), so B_j = 2^(-n/2) sum_w
    (-1)^(w/2) A_w K_j(w) with K_j the Krawtchouk polynomials
    (Conway and Sloane, IEEE Trans. Inform. Theory 36 (1990)).
    """
    cached = _SHADOW_CACHE.get(c)
    if cached is not None:
        return cached
    if c.k > ENUM_DIMENSION_LIMIT:
        raise ResourceLimitError(
            f"shadow distribution is limited to k <= {ENUM_DIMENSION_LIMIT}, got k={c.k}"
        )
    if not is_self_dual(c) or parity_class(c) is not ParityClass.SINGLY_EVEN:
        raise DomainError("the shadow needs a singly even self-dual code")
    dist = ShadowDistribution(c.n, _shadow_counts(c.n, weight_distribution(c).counts))
    _SHADOW_CACHE[c] = dist
    return dist


def _shadow_counts(n: int, counts: Sequence[int]) -> Tuple[int, ...]:
    """B_0..B_n from the weight distribution of a self-dual code.

    For a doubly even code the transform returns the distribution itself.
    """
    scale = 1 << (n // 2)
    out = []
    for j in range(n + 1):
        t = sum(
            (-1) ** (i // 2) * a * _krawtchouk(j, i, n)
            for i, a in enumerate(counts)
            if a
        )
        q, r = divmod(t, scale)
        if r or q < 0:
            raise IntegrityError(
                f"shadow coefficient B_{j} = {t}/2^{n // 2} is not a non-negative integer"
            )
        out.append(q)
    return tuple(out)


# ---------------------------------------------------------------------------
# Gleason's theorem: low-weight counts fix the whole distribution

@lru_cache(maxsize=None)
def _gleason_basis(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Coefficients in u = y^2 of (1+u)^(n/2-4j) * (u (1-u)^2)^j, j = 0..n//8.

    Polynomial j starts at u^j with coefficient 1, which makes the system
    for the combination unit-triangular.
    """
    m = n // 2
    out = []
    for j in range(n // 8 + 1):
        poly = [0] * (m + 1)
        for a in range(m - 4 * j + 1):
            ca = math.comb(m - 4 * j, a)
            for b in range(2 * j + 1):
                poly[j + a + b] += (-1) ** b * ca * math.comb(2 * j, b)
        out.append(tuple(poly))
    return tuple(out)


def _gleason_distribution(n: int, k: int, low: Sequence[int]) -> Tuple[int, ...]:
    """A_0..A_n of a self-dual [n, k] code from its counts A_0..A_{2(n//8)}.

    Raises IntegrityError unless the result is non-negative, zero at odd
    weights, symmetric, sums to 2^k, reproduces every counted entry and
    has a shadow transform of non-negative integers.
    """
    t = n // 8
    if 2 * k != n or len(low) != 2 * t + 1:
        raise DomainError(f"need A_0..A_{2 * t} of a self-dual [{n},{n // 2}] code")
    basis = _gleason_basis(n)
    coef: List[int] = []
    for i in range(t + 1):
        coef.append(low[2 * i] - sum(a * basis[j][i] for j, a in enumerate(coef)))
    counts = [0] * (n + 1)
    for i in range(n // 2 + 1):
        counts[2 * i] = sum(a * basis[j][i] for j, a in enumerate(coef))
    problems = []
    if any(x < 0 for x in counts):
        problems.append("a negative coefficient")
    if any(counts[1::2]):
        problems.append("an odd-weight coefficient")
    if counts != counts[::-1]:
        problems.append("an asymmetric distribution")
    if sum(counts) != 1 << k:
        problems.append(f"total {sum(counts)} instead of 2^{k}")
    if counts[: len(low)] != list(low):
        problems.append("counted coefficients it does not reproduce")
    if problems:
        raise IntegrityError(
            f"Gleason reconstruction for length {n} gave " + ", ".join(problems)
        )
    _shadow_counts(n, counts)
    return tuple(counts)


def _low_weight_counts(n: int, bases: Sequence[Sequence[int]]) -> List[int]:
    """A_0..A_{2t}, t = n//8, of a self-dual code from two complementary
    systematic bases.

    A word with at most t ones on the first basis's pivot set combines at
    most t rows of that basis.  A word of weight <= 2t with more than t
    ones there has at most t-1 ones on the complement, so it combines at
    most t-1 rows of the second basis; there it is kept only if it has
    more than t ones on the first pivot set.  Every word of weight <= 2t
    is counted exactly once.
    """
    t = n // 8
    first, second = bases
    pivot_mask = sum(1 << p for p in pivots_of_rref_raw(first))
    hist = _level_histogram(first, n, t) + _level_histogram(second, n, t - 1, pivot_mask, t)
    low = [int(x) for x in hist[: 2 * t + 1]]
    low[0] += 1  # the zero word, level 0 of the first basis
    return low


# ---------------------------------------------------------------------------
# minimum weight

def _disjoint_information_bases(c: LinearCode) -> List[List[int]]:
    """Systematic generator bases over disjoint coordinate sets (1 or 2).

    For self-dual codes the complement of the pivot set is always an
    information set again, which is what makes the level bound 2(w+1) work.
    """
    rows = c.row_ints()
    bases = [rows]
    pivots = set(pivots_of_rref_raw(rows))
    comp = [j for j in range(c.n) if j not in pivots]
    red, rank, _ = rref_raw(rows, c.n, comp)
    if rank == c.k:
        bases.append(red)
    return bases


class _LevelState:
    """Size-w XOR combinations of k generator rows, grouped by largest index."""

    def __init__(self, rows: Sequence[int]):
        self.rows_np = np.array(rows, dtype=np.uint64)
        self.k = len(rows)
        self.vals = self.rows_np.copy()
        self.last = np.arange(self.k, dtype=np.int32)

    def _prefix_sizes(self) -> np.ndarray:
        """For j = 1..k-1, how many current combinations use only rows
        below j; those are the ones row j extends."""
        return np.searchsorted(self.last, np.arange(1, self.k))

    def chunks(self):
        """The size-(w+1) combinations without storing them: one
        (j, array) pair per largest row index j."""
        for j, p in enumerate(self._prefix_sizes().tolist(), start=1):
            if p:
                yield j, self.vals[:p] ^ self.rows_np[j]

    def extend(self) -> bool:
        """Replace the combinations by the next level's, in chunks() order."""
        sizes = self._prefix_sizes()
        total = int(sizes.sum())
        if not total:
            return False
        last = np.repeat(np.arange(1, self.k, dtype=np.int32), sizes)
        # in place where possible: a level near 2^20 words is megabytes
        pos = np.arange(total)
        pos -= np.repeat(np.cumsum(sizes) - sizes, sizes)
        vals = self.vals[pos]
        del pos
        vals ^= self.rows_np[last]
        self.vals, self.last = vals, last
        return True

    def level_min(self) -> int:
        return int(np.bitwise_count(self.vals).min())


def _level_histogram(
    rows: Sequence[int], n: int, top: int, mask: int = 0, above: int = 0
) -> np.ndarray:
    """Weight histogram of the XOR combinations of 1..top rows.

    With a mask, only words with more than `above` ones inside it count.
    Levels up to top-2 are materialized; the last two are streamed one
    largest index j1 at a time, so level top is never held whole.
    """
    hist = np.zeros(n + 1, dtype=np.int64)

    def add(vals: np.ndarray) -> None:
        if mask:
            vals = vals[np.bitwise_count(vals & np.uint64(mask)) > above]
        hist[:] += np.bincount(np.bitwise_count(vals), minlength=n + 1)

    if top < 1 or not rows:
        return hist
    st = _LevelState(rows)
    add(st.vals)
    level = 1
    while level < top - 2:
        if not st.extend():
            return hist
        level += 1
        add(st.vals)
    if level < top:
        for j1, vals in st.chunks():
            add(vals)
            if level + 2 == top:
                add((vals[:, None] ^ st.rows_np[None, j1 + 1 :]).ravel())
    return hist


def _min_weight_staged(c: LinearCode, target: Optional[int]) -> int:
    bases = _disjoint_information_bases(c)
    states = [_LevelState(b) for b in bases]
    nsets = len(states)
    best = c.n + 1
    w = 0
    while w < c.k:
        w += 1
        if w > 1:
            live = [st for st in states if st.extend()]
            if not live:
                break
            states = live
        for st in states:
            best = min(best, st.level_min())
            if target is not None and best < target:
                return best
        # anything not yet seen has more than w ones in each pivot set
        if best <= nsets * (w + 1):
            return best
        if states and states[0].vals.size > (1 << 23):
            # combination arrays are ballooning; finish with the full histogram
            for i, x in enumerate(weight_distribution(c).counts):
                if i and x:
                    return min(best, i)
    return best


def min_weight(c: LinearCode, target: Optional[int] = None) -> int:
    """Exact minimum nonzero weight.

    With a target, the scan may stop as soon as any codeword of weight
    below the target is seen; the return value is then that codeword's
    weight, an upper bound witnessing min_weight < target.  Whenever the
    returned value is >= target (or no target was given) it is exact.
    """
    if c.k == 0:
        raise DomainError("the zero code has no nonzero codeword")
    cached = _MINW_CACHE.get(c)
    if cached is not None:
        return cached
    dist = _DIST_CACHE.get(c)
    if dist is None and c.k <= _FULL_SPAN_MAX_K:
        dist = weight_distribution(c)
    if dist is not None:
        mw = dist.min_weight
        if mw is None:
            raise DomainError("the zero code has no nonzero codeword")
        _MINW_CACHE[c] = mw
        return mw
    if c.k > ENUM_DIMENSION_LIMIT:
        raise ResourceLimitError(
            f"minimum weight is limited to k <= {ENUM_DIMENSION_LIMIT}, got k={c.k}"
        )
    if c.n > 64:
        mw = weight_distribution(c).min_weight
        _MINW_CACHE[c] = mw
        return mw
    got = _min_weight_staged(c, target)
    if target is None or got >= target:
        _MINW_CACHE[c] = got
    return got


def codewords_of_weight(c: LinearCode, w: int) -> List[int]:
    """All codewords of exactly weight w, as sorted packed ints.

    Small dimensions enumerate the whole span; larger ones walk XOR
    combinations over two disjoint information sets, which see every
    word of weight w by level floor(w/2).
    """
    if not 0 <= w <= c.n:
        raise DomainError(f"weight {w} outside 0..{c.n}")
    if w == 0:
        return [0]
    if c.k == 0:
        return []
    cached = _WORDS_CACHE.get((c, w))
    if cached is not None:
        return list(cached)
    got = _codewords_of_weight(c, w)
    _WORDS_CACHE[(c, w)] = got
    return list(got)


def _codewords_of_weight(c: LinearCode, w: int) -> List[int]:
    if c.k <= _FULL_SPAN_MAX_K:
        if c.n <= 64:
            arr = _span_lane([], 0)
            for r in c.row_ints():
                arr = np.concatenate([arr, arr ^ np.uint64(r)])
            sel = arr[np.bitwise_count(arr) == w]
            return sorted(int(x) for x in sel)
        return sorted(
            v for v in _span_iter(c.row_ints()) if v.bit_count() == w
        )
    if c.k > ENUM_DIMENSION_LIMIT:
        raise ResourceLimitError(
            f"codeword collection is limited to k <= {ENUM_DIMENSION_LIMIT}, got k={c.k}"
        )
    bases = _disjoint_information_bases(c)
    if len(bases) < 2 or c.n > 64:
        raise ResourceLimitError(
            "codeword collection needs two disjoint information sets for k > 22"
        )
    out = set()
    for rows in bases:
        st = _LevelState(rows)
        for level in range(1, w // 2 + 1):
            if level > 1 and not st.extend():
                break
            hit = st.vals[np.bitwise_count(st.vals) == w]
            out.update(int(x) for x in hit)
    return sorted(out)


def _span_iter(rows: Sequence[int]):
    word = 0
    yield 0
    for idx in range(1, 1 << len(rows)):
        word ^= rows[(idx & -idx).bit_length() - 1]
        yield word


# ---------------------------------------------------------------------------
# MacWilliams self-check

@lru_cache(maxsize=None)
def _krawtchouk(j: int, i: int, n: int) -> int:
    return sum(
        (-1) ** l * math.comb(i, l) * math.comb(n - i, j - l)
        for l in range(max(0, j - (n - i)), min(i, j) + 1)
    )


def macwilliams_check(w: WeightDistribution, k: int) -> bool:
    """True iff transforming w by W(x+y, x-y)/2^k reproduces w exactly."""
    n = w.n
    scale = 1 << k
    for j in range(n + 1):
        t = sum(a * _krawtchouk(j, i, n) for i, a in enumerate(w.counts) if a)
        q, r = divmod(t, scale)
        if r or q != w.counts[j]:
            return False
    return True


# ---------------------------------------------------------------------------
# enumerator families

class FamilyTag(enum.Enum):
    W60_1 = "W60_1"
    W60_2 = "W60_2"
    W58_1 = "W58_1"
    W58_2 = "W58_2"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FamilyParams:
    family: FamilyTag
    beta: Optional[int] = None
    gamma: Optional[int] = None
    note: Optional[str] = None


def classify_enumerator(w: WeightDistribution, s: ShadowDistribution) -> FamilyParams:
    """Match a distribution against the known extremal families.

    Works on (n, d) = (60, 12) and (58, 10); at length 58 the shadow
    decides the family first: shadow minimum weight 1 means the first
    family, anything else the second.
    """
    n, d = w.n, w.min_weight
    if (n, d) == (60, 12):
        a12, a14 = w.counts[12], w.counts[14]
        if (a12, a14) == (3451, 24128):
            return FamilyParams(FamilyTag.W60_2)
        beta, rem = divmod(a12 - 2555, 64)
        if rem == 0 and a14 == 33600 - 384 * beta:
            return FamilyParams(FamilyTag.W60_1, beta=beta)
        return FamilyParams(
            FamilyTag.UNKNOWN, note=f"A_12={a12}, A_14={a14} fit neither length-60 family"
        )
    if (n, d) == (58, 10):
        a10, a12 = w.counts[10], w.counts[12]
        if s.counts[1] >= 1:
            gamma, rem = divmod(165 - a10, 2)
            if rem == 0 and a12 == 5078 + 2 * gamma:
                return FamilyParams(FamilyTag.W58_1, gamma=gamma)
            return FamilyParams(
                FamilyTag.UNKNOWN,
                note=f"shadow min weight 1 but A_10={a10}, A_12={a12} do not fit",
            )
        beta, rem = divmod(a10 + a12 - 3451, 128)
        if rem == 0 and 0 <= beta <= 2:
            gamma, grem = divmod(319 - 24 * beta - a10, 2)
            if (
                grem == 0
                and a10 == 319 - 24 * beta - 2 * gamma
                and a12 == 3132 + 152 * beta + 2 * gamma
            ):
                return FamilyParams(FamilyTag.W58_2, beta=beta, gamma=gamma)
        return FamilyParams(
            FamilyTag.UNKNOWN,
            note=f"A_10={a10}, A_12={a12} fit no second-family parameters with beta in 0..2",
        )
    raise DomainError(f"no catalogued families for (n, min weight) = ({n}, {d})")


# ---------------------------------------------------------------------------
# shadow balance identity

class BalanceStatus(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not applicable"


@dataclass(frozen=True)
class BalanceOutcome:
    status: BalanceStatus
    note: Optional[str] = None


def check_shadow_balance(
    w: WeightDistribution, s: ShadowDistribution, d: int
) -> BalanceOutcome:
    """Check B_{d-1} = A_d under the identity's hypotheses, else report why not.

    Applicable when n = 2 mod 8, d = 2 mod 4, and the shadow has a
    weight-1 vector.  Multiple weight-1 vectors get flagged in the note
    rather than silently accepted.
    """
    reasons = []
    if w.n % 8 != 2:
        reasons.append(f"n={w.n} is not 2 mod 8")
    if d % 4 != 2:
        reasons.append(f"d={d} is not 2 mod 4")
    if s.counts[1] < 1:
        reasons.append("shadow has no weight-1 vector")
    if reasons:
        return BalanceOutcome(BalanceStatus.NOT_APPLICABLE, note="; ".join(reasons))
    note = None
    if s.counts[1] > 1:
        note = f"shadow contains {s.counts[1]} weight-1 vectors, not a single one"
    status = BalanceStatus.HOLDS if s.counts[d - 1] == w.counts[d] else BalanceStatus.FAILS
    return BalanceOutcome(status, note)


def solve_shadow_balance(
    a_intercept: int, a_slope: int, b_intercept: int, b_slope: int
) -> Union[Fraction, str, None]:
    """Solve a_intercept + a_slope*t = b_intercept + b_slope*t exactly.

    Returns the unique rational t, the string "all" for identical lines,
    or None for parallel distinct lines.
    """
    if a_slope == b_slope:
        return "all" if a_intercept == b_intercept else None
    return Fraction(b_intercept - a_intercept, a_slope - b_slope)
