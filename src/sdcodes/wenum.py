"""Exact weight and shadow distributions, minimum weight, and the
weight-enumerator family arithmetic for lengths 58 and 60.

Weight distributions come from one of two engines.  A self-dual code of
length n <= 64 and dimension above 22 is never enumerated in full: by
Gleason's theorem its enumerator is an integer combination of
(x^2+y^2)^(n/2-4j) * (x^2 y^2 (x^2-y^2)^2)^j, j = 0..n//8, and the
combination is unit-triangular in A_0, A_2, ..., A_{2(n//8)}.  So only the
words of weight <= 2(n//8) (14 at n = 58 and 60) are counted, and the rest
is solved for exactly.  Every other code is enumerated: the generator rows
split into an inner block, materialized once as packed-word numpy arrays,
and an outer block walked in Gray order, so each outer step is one
vectorized xor + popcount + histogram pass.

Low-weight words come from one walk, `_low_weight_words`: XOR
combinations of a systematic basis level by level, or of two bases on
disjoint information sets, each word of weight <= top seen exactly once.
The Gleason counts and the words of a given weight are read off it; the
minimum weight uses the same level walk with a stopping bound.

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
from .gf2core import MAX_LEN, pivots_of_rref_raw, rref_raw

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
    "family_profile",
]

ENUM_DIMENSION_LIMIT = 34
_INNER_LOG = 16
# up to this dimension walking the whole span (2^22 words) is cheap
_FULL_SPAN_MAX_K = 22


# ---------------------------------------------------------------------------
# distributions

@dataclass(frozen=True)
class _Distribution:
    """Exact counts at weights 0..n, validated, with a CSV round trip."""

    n: int
    counts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.n + 1:
            raise DomainError(f"need {self.n + 1} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise DomainError("negative count")

    def _first_weight(self, start: int) -> Optional[int]:
        return next((i for i in range(start, self.n + 1) if self.counts[i]), None)

    def to_csv(self) -> str:
        lines = ["weight,count"]
        lines += [f"{i},{c}" for i, c in enumerate(self.counts) if c]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, n: Optional[int] = None):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "weight,count":
            raise ParseError("expected header 'weight,count'", line=1)
        pairs: Dict[int, int] = {}
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
            if i in pairs:
                raise ParseError(f"repeated weight {i}", line=lineno)
            pairs[i] = c
        top = max(pairs, default=0)
        if n is None:
            n = top
        elif top > n:
            raise ParseError(f"weight {top} exceeds declared length {n}")
        return cls(n, tuple(pairs.get(i, 0) for i in range(n + 1)))


class WeightDistribution(_Distribution):
    """Exact codeword counts A_0..A_n."""

    @property
    def min_weight(self) -> Optional[int]:
        return self._first_weight(1)

    @property
    def total(self) -> int:
        return sum(self.counts)


class ShadowDistribution(_Distribution):
    """Exact shadow-vector counts B_0..B_n."""

    @property
    def min_weight(self) -> Optional[int]:
        return self._first_weight(0)


def _check_dimension(c: LinearCode, what: str) -> None:
    """Refuse a code whose span is past the enumeration budget."""
    if c.k > ENUM_DIMENSION_LIMIT:
        raise ResourceLimitError(
            f"{what} is limited to k <= {ENUM_DIMENSION_LIMIT}, got k={c.k}"
        )


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
    with multiplicity.  Words are split into 64-bit lanes (two at most,
    since n <= 128) whose popcounts are summed.
    """
    k = len(rows)
    inner_k = min(k, _INNER_LOG)
    mask = (1 << 64) - 1
    shifts = range(0, n, 64)
    inner = [
        _span_lane([(r >> s) & mask for r in rows[:inner_k]], (offset >> s) & mask)
        for s in shifts
    ]
    outer = [[np.uint64((r >> s) & mask) for s in shifts] for r in rows[inner_k:]]
    word = [np.uint64(0)] * len(inner)
    buf = np.empty_like(inner[0])
    lane_w = np.empty(buf.shape, dtype=np.uint8)
    weights = np.empty(buf.shape, dtype=np.uint8)
    counts = np.zeros(n + 1, dtype=np.int64)
    for idx in range(1 << (k - inner_k)):
        if idx:
            flip = outer[(idx & -idx).bit_length() - 1]
            word = [a ^ b for a, b in zip(word, flip)]
        weights.fill(0)
        for lane, w in zip(inner, word):
            np.bitwise_xor(lane, w, out=buf)
            weights += np.bitwise_count(buf, out=lane_w)
        counts += np.bincount(weights, minlength=n + 1)
    return [int(x) for x in counts]


def weight_distribution(c: LinearCode) -> WeightDistribution:
    """Exact A_0..A_n; budget k <= 34.

    Self-dual codes with n <= 64 and k > 22 count their words of weight
    <= 2(n//8) and take the rest from Gleason's theorem; every other code
    is enumerated in full.
    """
    cached = c.memo.get("weights")
    if cached is not None:
        return cached
    _check_dimension(c, "weight distribution")
    if c.k > _FULL_SPAN_MAX_K and c.n <= 64 and is_self_dual(c):
        low = _low_weight_counts(c.n, _disjoint_information_bases(c))
        counts, shadow = _gleason_distribution(c.n, c.k, low)
        if any(counts[2::4]):  # singly even: keep the checked shadow
            c.memo["shadow"] = ShadowDistribution(c.n, shadow)
    else:
        counts = tuple(_histogram_words(c.rows, c.n))
    dist = c.memo["weights"] = WeightDistribution(c.n, counts)
    return dist


def shadow_distribution(c: LinearCode) -> ShadowDistribution:
    """Exact B_0..B_n of a singly even self-dual code.

    S(x, y) = W(x+y, i(x-y)) / 2^(n/2), so B_j = 2^(-n/2) sum_w
    (-1)^(w/2) A_w K_j(w) with K_j the Krawtchouk polynomials
    (Conway and Sloane, IEEE Trans. Inform. Theory 36 (1990)).
    """
    cached = c.memo.get("shadow")
    if cached is not None:
        return cached
    _check_dimension(c, "shadow distribution")
    if not is_self_dual(c) or parity_class(c) is not ParityClass.SINGLY_EVEN:
        raise DomainError("the shadow needs a singly even self-dual code")
    counts = _shadow_counts(c.n, weight_distribution(c).counts)
    dist = c.memo["shadow"] = ShadowDistribution(c.n, counts)
    return dist


def _shadow_counts(n: int, counts: Sequence[int]) -> Tuple[int, ...]:
    """B_0..B_n from the weight distribution of a self-dual code:
    2^(n/2) B_j = sum_i (-1)^(i/2) A_i K_j(i).

    For a doubly even code the transform returns the distribution itself.
    """
    scale = 1 << (n // 2)
    terms = [(i, (-1) ** (i // 2) * a) for i, a in enumerate(counts) if a]
    out = []
    for j, row in enumerate(_krawtchouk_table(n)):
        t = sum(a * row[i] for i, a in terms)
        q, r = divmod(t, scale)
        if r or q < 0:
            raise IntegrityError(
                f"shadow coefficient B_{j} = {t}/2^{n // 2} is not a non-negative integer"
            )
        out.append(q)
    return tuple(out)


@lru_cache(maxsize=MAX_LEN)
def _krawtchouk_table(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Row j holds the Krawtchouk values K_j(i) for i = 0..n.

    sum_j K_j(i) z^j = (1-z)^i (1+z)^(n-i), so (1+z) times column i+1 is
    (1-z) times column i: K_j(i+1) = K_j(i) - K_{j-1}(i) - K_{j-1}(i+1).
    """
    cols = [[math.comb(n, j) for j in range(n + 1)]]
    for _ in range(n):
        prev, col = cols[-1], [cols[-1][0]]
        for j in range(1, n + 1):
            col.append(prev[j] - prev[j - 1] - col[j - 1])
        cols.append(col)
    return tuple(zip(*cols))


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


@lru_cache(maxsize=None)
def _shadow_basis(n: int) -> Tuple[Dict[int, Fraction], ...]:
    """{y power: coefficient} of the shadow of Gleason polynomial j, j =
    0..n//8: (-1)^j 2^(n/2-6j) y^(n/2-4j) (1-y^4)^(2j)."""
    m = n // 2
    return tuple(
        {m - 4 * j + 4 * b: (-1) ** (j + b) * Fraction(2) ** (m - 6 * j) * math.comb(2 * j, b)
         for b in range(2 * j + 1)}
        for j in range(n // 8 + 1)
    )


def _gleason_distribution(
    n: int, k: int, low: Sequence[int], head: Sequence = ()
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """A_0..A_n and B_0..B_n of a self-dual [n, k] code from its counts
    A_0..A_{2(n//8)}, or from fewer counts and its shadow coefficients
    B_{n/2-4j} = head, j = n//8, n//8-1, ... down to where the counts stop.
    Raises IntegrityError unless the result is integral, non-negative, zero
    at odd weights, symmetric, sums to 2^k, reproduces every given entry and
    has a shadow transform of non-negative integers.
    """
    t = n // 8
    if 2 * k != n or len(low) + 2 * len(head) != 2 * t + 1:
        raise DomainError(f"need A_0..A_{2 * t} of a self-dual [{n},{n // 2}] code")
    basis, shadow = _gleason_basis(n), _shadow_basis(n)
    coef: List = []
    for i in range(len(low) // 2 + 1):
        coef.append(low[2 * i] - sum(a * basis[j][i] for j, a in enumerate(coef)))
    # the shadow of polynomial j starts at y^(n/2-4j), so B_{n/2-4i} fixes
    # coefficient i once those above it are known
    high: Dict[int, Fraction] = {}
    for i, b in zip(range(t, len(coef) - 1, -1), head):
        y = n // 2 - 4 * i
        high[i] = (b - sum(a * shadow[j][y] for j, a in high.items())) / shadow[i][y]
    coef += [high[i] for i in sorted(high)]
    counts = [0] * (n + 1)
    for i in range(n // 2 + 1):
        counts[2 * i] = sum(a * basis[j][i] for j, a in enumerate(coef))
    problems = []
    if any(Fraction(x).denominator != 1 for x in counts):
        problems.append("a non-integral coefficient")
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
    counts = tuple(int(x) for x in counts)
    return counts, _shadow_counts(n, counts)


def _low_weight_counts(n: int, bases: Sequence[Sequence[int]]) -> List[int]:
    """A_0..A_{2(n//8)} of a self-dual code from two complementary
    systematic bases."""
    top = 2 * (n // 8)
    hist = np.zeros(n + 1, dtype=np.int64)
    for vals in _low_weight_words(bases, top):
        hist += np.bincount(np.bitwise_count(vals), minlength=n + 1)
    low = [int(x) for x in hist[: top + 1]]
    low[0] = 1  # the zero word
    return low


# ---------------------------------------------------------------------------
# minimum weight

def _disjoint_information_bases(c: LinearCode) -> Tuple[Tuple[int, ...], ...]:
    """Systematic generator bases over disjoint coordinate sets (1 or 2).

    For self-dual codes the complement of the pivot set is always an
    information set again, which is what makes the level bound 2(w+1) work.
    The bases are memoised on c.
    """
    bases = c.memo.get("bases")
    if bases is None:
        rows = c.rows
        pivots = set(pivots_of_rref_raw(rows))
        comp = [j for j in range(c.n) if j not in pivots]
        red, rank, _ = rref_raw(rows, c.n, comp)
        bases = c.memo["bases"] = (rows, tuple(red)) if rank == c.k else (rows,)
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


def _level_words(rows: Sequence[int], top: int):
    """The XOR combinations of 1..top rows, each once, as uint64 arrays.

    Levels up to top-2 are materialized; the last two are streamed one
    largest index j1 at a time, so level top is never held whole.
    """
    if top < 1 or not rows:
        return
    st = _LevelState(rows)
    yield st.vals
    level = 1
    while level < top - 2:
        if not st.extend():
            return
        level += 1
        yield st.vals
    if level < top:
        for j1, vals in st.chunks():
            yield vals
            if level + 2 == top:
                yield (vals[:, None] ^ st.rows_np[None, j1 + 1 :]).ravel()


def _low_weight_words(bases: Sequence[Sequence[int]], top: int):
    """Every nonzero codeword of weight <= top exactly once, as uint64
    arrays that may also hold some heavier words (none twice).

    One systematic basis is walked to level top.  With two bases on
    disjoint pivot sets and t = top//2, a word with at most t ones on the
    first pivot set combines at most t rows of the first basis; a word of
    weight <= top with more than t ones there has at most top-t-1 ones on
    the second pivot set, so it combines at most top-t-1 rows of the
    second basis, and there it is kept only if it has more than t ones on
    the first pivot set.
    """
    if len(bases) == 1:
        yield from _level_words(bases[0], top)
        return
    first, second = bases
    t = top // 2
    pivot_mask = np.uint64(sum(1 << p for p in pivots_of_rref_raw(first)))
    yield from _level_words(first, t)
    for vals in _level_words(second, top - t - 1):
        yield vals[np.bitwise_count(vals & pivot_mask) > t]


def _min_weight_staged(
    bases: Sequence[Sequence[int]], n: int, target: Optional[int]
) -> int:
    """Minimum weight of the length-n code spanned by each of the bases:
    one systematic basis, or two on disjoint information sets."""
    states = [_LevelState(b) for b in bases]
    nsets = len(states)
    k = len(bases[0])
    best = n + 1
    w = 0
    while w < k:
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
            code = LinearCode.from_int_rows(bases[0], n)
            for i, x in enumerate(weight_distribution(code).counts):
                if i and x:
                    return min(best, i)
    return best


def min_weight(c: LinearCode, target: Optional[int] = None) -> int:
    """Exact minimum nonzero weight.

    With a target, the scan may stop as soon as any codeword of weight
    below the target is seen; the return value is then that codeword's
    weight, an upper bound witnessing min_weight < target.  Whenever the
    returned value is >= target (or no target was given) it is exact.

    The weight distribution is read when it is memoised or n > 64;
    otherwise words are scanned level by level over one or two
    information sets, whatever the dimension.
    """
    if c.k == 0:
        raise DomainError("the zero code has no nonzero codeword")
    cached = c.memo.get("min_weight")
    if cached is not None:
        return cached
    _check_dimension(c, "minimum weight")
    if "weights" in c.memo or c.n > 64:
        return weight_distribution(c).min_weight
    got = _min_weight_staged(_disjoint_information_bases(c), c.n, target)
    if target is None or got >= target:
        c.memo["min_weight"] = got
    return got


def codewords_of_weight(c: LinearCode, w: int) -> List[int]:
    """All codewords of exactly weight w, as sorted packed ints.

    For n <= 64 they are filtered from the low-weight walk over one
    systematic basis, or two on disjoint information sets, which yields
    every word of weight <= w once; longer codes walk the whole span.
    """
    if not 0 <= w <= c.n:
        raise DomainError(f"weight {w} outside 0..{c.n}")
    if w == 0:
        return [0]
    if c.k == 0:
        return []
    got = c.memo.get(("words", w))
    if got is None:
        got = c.memo[("words", w)] = _codewords_of_weight(c, w)
    return list(got)


def _codewords_of_weight(c: LinearCode, w: int) -> List[int]:
    if c.n > 64:
        if c.k > _FULL_SPAN_MAX_K:
            raise ResourceLimitError(
                f"codeword collection past length 64 walks the whole span and is "
                f"limited to k <= {_FULL_SPAN_MAX_K}, got k={c.k}"
            )
        return sorted(v for v in _span_iter(c.rows) if v.bit_count() == w)
    _check_dimension(c, "codeword collection")
    bases = _disjoint_information_bases(c)
    if len(bases) < 2 and c.k > _FULL_SPAN_MAX_K:
        raise ResourceLimitError(
            f"codeword collection needs two disjoint information sets for k > {_FULL_SPAN_MAX_K}"
        )
    hits = [np.zeros(0, dtype=np.uint64)]
    hits += [vals[np.bitwise_count(vals) == w] for vals in _low_weight_words(bases, w)]
    return np.sort(np.concatenate(hits)).tolist()


def _span_iter(rows: Sequence[int]):
    word = 0
    yield 0
    for idx in range(1, 1 << len(rows)):
        word ^= rows[(idx & -idx).bit_length() - 1]
        yield word


# ---------------------------------------------------------------------------
# MacWilliams self-check

def macwilliams_check(w: WeightDistribution, k: int) -> bool:
    """True iff transforming w by W(x+y, x-y)/2^k reproduces w exactly."""
    n = w.n
    scale = 1 << k
    terms = [(i, a) for i, a in enumerate(w.counts) if a]
    for j, row in enumerate(_krawtchouk_table(n)):
        t = sum(a * row[i] for i, a in terms)
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


# The extremal families (Conway and Sloane, IEEE Trans. Inform. Theory 36 (1990);
# Dougherty, Gulliver and Harada, ibid. 43 (1997)): tag -> (n, d, shadow head,
# parameter ranges).  A family has A_0 = 1, A_2 = ... = A_{d-2} = 0 and sets
# B_{n/2-4j}, j = n//8 down to d/2, to integers or named parameters.
_FAMILIES = {
    FamilyTag.W60_2: (60, 12, (1, 0), {}),
    FamilyTag.W60_1: (60, 12, (0, "beta"), {}),
    FamilyTag.W58_1: (58, 10, (1, 0, "gamma"), {}),
    FamilyTag.W58_2: (58, 10, (0, "beta", "gamma"), {"beta": range(3)}),
}


def extremal_min_weight(n: int) -> int:
    """Largest minimum weight of a singly even self-dual code of length n."""
    for m, d, _, _ in _FAMILIES.values():
        if m == n:
            return d
    raise DomainError(f"no built-in extremal threshold for length {n}; supply one explicitly")


def family_profile(tag: FamilyTag, **params: int) -> Tuple[WeightDistribution, ShadowDistribution]:
    """W and S of one member of a family, through the checked Gleason
    reconstruction and shadow transform."""
    n, d, head, ranges = _FAMILIES[tag]
    names = {h for h in head if isinstance(h, str)}
    if set(params) != names or any(params[p] not in r for p, r in ranges.items()):
        raise DomainError(f"{tag.value} has no member with parameters {params}")
    counts, shadow = _gleason_distribution(n, n // 2, [1] + [0] * (d - 2), [params.get(h, h) for h in head])
    return WeightDistribution(n, counts), ShadowDistribution(n, shadow)


def classify_enumerator(w: WeightDistribution, s: ShadowDistribution) -> FamilyParams:
    """Match a distribution against the extremal families of its (n, d).

    A_0..A_{d+2} and the family's shadow head above them fix W, and W's
    shadow must show the rest of the head.  So A_d and A_{d+2} fix the
    family and its parameters, and where they leave head coefficients open
    (B_1 at length 58) the shadow s picks the family first: it must agree
    on which of them are nonzero.
    """
    n, d = w.n, w.min_weight
    t, m = n // 8, n // 2
    tags = [tag for tag, row in _FAMILIES.items() if row[:2] == (n, d)]
    if not tags:
        raise DomainError(f"no catalogued families for (n, min weight) = ({n}, {d})")
    for tag in tags:
        _, _, head, ranges = _FAMILIES[tag]
        top = head[: t - d // 2 - 1]
        if any((s.counts[m - 4 * (t - i)] > 0) != (h > 0) for i, h in enumerate(top)):
            continue
        low = [1] + [0] * (d - 1) + [w.counts[d], 0, w.counts[d + 2]]
        try:
            _, b = _gleason_distribution(n, m, low, top)
        except IntegrityError:
            continue
        slots = [b[m - 4 * j] for j in range(t, d // 2 - 1, -1)]
        params = {h: v for h, v in zip(head, slots) if isinstance(h, str)}
        in_range = all(params[p] in r for p, r in ranges.items())
        if in_range and [params.get(h, h) for h in head] == slots:
            return FamilyParams(tag, **params)
    note = f"A_{d}={w.counts[d]}, A_{d + 2}={w.counts[d + 2]} fit no length-{n} family"
    return FamilyParams(FamilyTag.UNKNOWN, note=note)


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
