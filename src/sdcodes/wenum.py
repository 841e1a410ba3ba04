"""Exact weight and shadow distributions, minimum weight, and the
weight-enumerator family arithmetic for lengths 58 and 60.

Weight distributions come from one of two engines.  A self-dual code of
length n <= 64 and dimension above 16 is never enumerated in full: by
Gleason's theorem its enumerator is an integer combination of
(x^2+y^2)^(n/2-4j) * (x^2 y^2 (x^2-y^2)^2)^j, j = 0..n//8, and the
combination is unit-triangular in A_0, A_2, ..., A_{2(n//8)}.  The shadow
of term j starts at y^(n/2-4j), so the last coefficient is also fixed by
the shadow count B_{n/2-4(n//8)}, a weight of at most 3 that is counted
directly off the generator.  So only the words of weight <= 2(n//8) - 2
(12 at n = 58 and 60) are counted, and the rest is solved for exactly.
Every other code is enumerated by one span engine, `_span_lanes`: the
generator rows split into an inner block, materialized once as
packed-word numpy arrays, and an outer block walked in Gray order, so
each outer step yields the block's words as 64-bit lanes for one
vectorized xor + popcount pass.  Both engines feed one tally, `_tally`,
which counts their words and keeps those of each `_word_levels` class it
reaches, so a signature and a refinement of the code enumerate it once.
Words are held as rows of 64-bit lanes, and `codewords_of_weight` turns
them into packed ints.

Low-weight words come from one walk, `_low_weight_words`: XOR
combinations of a systematic basis level by level, or of two bases on
disjoint information sets, each word of weight <= top seen exactly once.
The Gleason counts and words, and the words of any other weight in a
code of length <= 64 and dimension 16 or more, are read off it.  Other
codes filter the words of any other weight from the span's lanes.

The minimum weight comes from one staged scan, `_min_weight_staged`, over
a stack of codes with the same level bound: a lone code takes the level
walk, and a stack whose rows a shared automorphism permutes in cycles
(the four-circulant search) walks one row combination per orbit of that
shift, XORed for the whole stack at once.

The shadow distribution of a singly even self-dual code is the transform
S(x, y) = W(x+y, i(x-y)) / 2^(n/2) of its weight distribution, and the
MacWilliams self-check is W(x+y, x-y) / 2^k; both are one Krawtchouk
matrix product, in int64 when it provably cannot overflow and over Python
ints otherwise.  Every count is an exact Python int, and derived counts
are re-checked (integral, non-negative, symmetric, summing to 2^k) before
they are returned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
# the most words a level of the staged minimum-weight scan holds at once:
# a stack of codes is cut to STACK_WORDS // (words per code) codes
STACK_WORDS = 1 << 20


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
    """Entry i is seed ^ the XOR of the rows at the set bits of i."""
    arr = np.empty(1 << len(rows), dtype=np.uint64)
    arr[0] = seed
    for i, r in enumerate(rows):
        np.bitwise_xor(arr[: 1 << i], np.uint64(r), out=arr[1 << i : 2 << i])
    return arr


def _span_lanes(rows: Sequence[int], n: int, offset: int = 0):
    """The words {offset ^ v : v in span(rows)}, each once, as 64-bit lanes.

    The first _INNER_LOG rows span an inner block materialized once per
    lane; the rest are walked in Gray order, and each outer step yields
    one list of uint64 arrays, lane i holding bits 64i..64i+63 of the
    block's words (two lanes at most, since n <= 128).  The arrays must not
    be written to; the outer steps reuse one set of them.
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
    yield inner
    word = [np.uint64(0)] * len(inner)
    lanes = [np.empty_like(lane) for lane in inner]
    for idx in range(1, 1 << (k - inner_k)):
        flip = outer[(idx & -idx).bit_length() - 1]
        word = [a ^ b for a, b in zip(word, flip)]
        for lane, w, out in zip(inner, word, lanes):
            np.bitwise_xor(lane, w, out=out)
        yield lanes


def _lane_weights(lanes: Sequence[np.ndarray]) -> np.ndarray:
    """The weight of each word split into lanes, as uint8."""
    weights = np.bitwise_count(lanes[0])
    for lane in lanes[1:]:
        weights += np.bitwise_count(lane)
    return weights


def _histogram_words(
    rows: Sequence[int], n: int
) -> Tuple[List[int], Dict[int, np.ndarray]]:
    """The span pass: the weight histogram of span(rows) as exact ints,
    and the `_tally` words of its levels.

    Rows must be linearly independent; dependent rows would count words
    with multiplicity.
    """
    return _tally(_span_lanes(rows, n), n, n)


def _tally(
    chunks: Iterable[Sequence[np.ndarray]], n: int, top: int
) -> Tuple[List[int], Dict[int, np.ndarray]]:
    """The weight histogram of the words in chunks, lists of uint64 lanes
    with no word twice, and the words of each `_levels` class of weight
    <= top in increasing order, one row of lanes each.

    A running cap, taken after each chunk is counted and before it is
    filtered, drops the words that can no longer lie in a level: a stand-in
    word at weight top keeps every weight open until the words counted so
    far fill the levels, and more counted words can only lower the last.
    The first chunk is filtered only once a second follows, so its arrays
    must stay as they are while the second is made; the levels of a single
    chunk are read straight from it.
    """
    hist = np.zeros(n + 1, dtype=np.int64)
    whole, kept = None, []  # each chunk as [weights, *lanes]
    for i, lanes in enumerate(chunks):
        chunk = [_lane_weights(lanes), *lanes]
        hist += np.bincount(chunk[0], minlength=n + 1)
        if not i:
            whole = chunk
            continue
        cap = _levels([*hist[:top].tolist(), 1], n)[-1]
        for weights, *words in filter(None, (whole, chunk)):
            keep = np.flatnonzero(weights <= cap)
            if keep.size:
                kept.append([weights[keep], *(lane[keep] for lane in words)])
        whole = None
    counts = hist.tolist()
    levels = [w for w in _levels(counts, n) if w <= top]
    if not levels:  # no word lies in a level, so none was kept
        return counts, {}
    weights, *words = whole or [np.concatenate(part) for part in zip(*kept)]
    return counts, {w: _sorted_rows([lane[weights == w] for lane in words]) for w in levels}


def _sorted_rows(lanes: List[np.ndarray]) -> np.ndarray:
    """Words split into lanes, as rows of lanes in increasing order."""
    if len(lanes) == 1:
        return np.sort(lanes[0])[:, None]
    return np.stack(lanes, axis=1)[np.lexsort(lanes)]


def weight_distribution(c: LinearCode) -> WeightDistribution:
    """Exact A_0..A_n; budget k <= 34.

    Self-dual codes with n <= 64 and k > 16 count their words of weight
    <= 2(n//8) - 2 and one shadow coefficient, and take the rest from
    Gleason's theorem; every other code is enumerated in full by the span
    pass.  Both memoise the words of the `_word_levels` classes that their
    pass reaches.
    """
    cached = c.memo.get("weights")
    if cached is not None:
        return cached
    _check_dimension(c, "weight distribution")
    if c.k > _INNER_LOG and c.n <= 64 and is_self_dual(c):
        counts, shadow, words = _gleason_counts(c)
        if any(counts[2::4]):  # singly even: keep the checked shadow
            c.memo["shadow"] = ShadowDistribution(c.n, shadow)
    else:
        counts, words = _histogram_words(c.rows, c.n)
    dist = c.memo["weights"] = WeightDistribution(c.n, tuple(counts))
    c.memo.update((("words", w), x) for w, x in words.items())
    return dist


def _word_levels(c: LinearCode) -> List[int]:
    """Weight classes used for matching: the minimum-weight class, extended
    upward while the word set stays small relative to n."""
    return _levels(weight_distribution(c).counts, c.n)


def _levels(counts: Sequence[int], n: int) -> List[int]:
    """The nonzero weights of counts from weight 1 up, until they hold 2n
    words."""
    levels: List[int] = []
    total = 0
    for w in range(1, len(counts)):
        if counts[w]:
            levels.append(w)
            total += counts[w]
            if total >= 2 * n:
                break
    return levels


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


@lru_cache(maxsize=256)
def _shadow_counts(n: int, counts: Tuple[int, ...]) -> Tuple[int, ...]:
    """B_0..B_n from the weight distribution of a self-dual code:
    2^(n/2) B_j = sum_i (-1)^(i/2) A_i K_j(i).

    For a doubly even code the transform returns the distribution itself.
    Results are cached by (n, counts), the latest 256, since codes
    classified together usually share one W; a distribution whose
    transform fails raises on every call.
    """
    scale = 1 << (n // 2)
    signed = [(-1) ** (i // 2) * a for i, a in enumerate(counts)]
    out = []
    for j, t in enumerate(_krawtchouk_transform(n, signed)):
        q, r = divmod(t, scale)
        if r or q < 0:
            raise IntegrityError(
                f"shadow coefficient B_{j} = {t}/2^{n // 2} is not a non-negative integer"
            )
        out.append(q)
    return tuple(out)


def _krawtchouk_transform(n: int, coeffs: Sequence[int]) -> List[int]:
    """sum_i coeffs[i] K_j(i) for j = 0..n, as exact ints.

    |K_j(i)| <= C(n, j) <= C(n, n//2), so when sum |coeffs| times that
    bound stays below 2^63 one int64 product is exact; otherwise the
    product runs over Python ints.
    """
    live = [i for i, a in enumerate(coeffs) if a]
    terms = [coeffs[i] for i in live]
    dtype = np.int64 if sum(map(abs, terms)) * math.comb(n, n // 2) < 1 << 63 else object
    return _krawtchouk_matrix(n, dtype)[:, live].dot(np.array(terms, dtype=dtype)).tolist()


@lru_cache(maxsize=MAX_LEN)
def _krawtchouk_matrix(n: int, dtype: type) -> np.ndarray:
    """`_krawtchouk_table(n)` as a read-only array of dtype."""
    table = np.array(_krawtchouk_table(n), dtype=dtype)
    table.flags.writeable = False
    return table


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
    at odd weights, symmetric, sums to 2^k, reproduces every given count,
    and has a shadow transform of non-negative integers that reproduces
    every given shadow coefficient.
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
    shadow_counts = _shadow_counts(n, counts)
    if [shadow_counts[n // 2 - 4 * i] for i in high] != list(head):
        raise IntegrityError(
            f"Gleason reconstruction for length {n} gave a shadow that does not reproduce {list(head)}"
        )
    return counts, shadow_counts


def _gleason_counts(
    c: LinearCode,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Dict[int, np.ndarray]]:
    """A_0..A_n and B_0..B_n of a self-dual code of length <= 64, and the
    words of its `_word_levels` classes of weight <= 2(n//8) - 2, keyed by
    weight in the layout of `_words`.

    The counts A_0..A_{2(n//8)-2} fix every Gleason coefficient but the
    last, and B_{n/2-4(n//8)}, read off the generator, fixes that one.  One
    walk, tallied by `_tally`, gives the counts and the words.
    """
    n, top = c.n, 2 * (c.n // 8) - 2
    chunks = ([vals] for vals in _low_weight_words(_disjoint_information_bases(c), top))
    low, words = _tally(chunks, n, top)
    counts, shadow = _gleason_distribution(n, c.k, [1] + low[1 : top + 1], [_lowest_shadow_count(c)])
    return counts, shadow, words


def _lowest_shadow_count(c: LinearCode) -> int:
    """B_w, w = n/2 - 4(n//8) in 0..3, of a self-dual code, from its
    generator rows.

    On a self-dual code wt(x)/2 mod 2 is linear, so v lies in the shadow
    exactly when v . r = wt(r)/2 mod 2 for every row r: when the XOR of the
    generator columns on v's support is the vector of those halves.  At
    most C(64, 3) supports are tried.
    """
    n = c.n
    rows = np.array(c.rows, dtype=np.uint64)
    bits = (rows[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    cols = np.bitwise_or.reduce(bits << np.arange(c.k, dtype=np.uint64)[:, None], axis=0)
    halves = sum((r.bit_count() >> 1 & 1) << i for i, r in enumerate(c.rows))
    # each support is extended by a coordinate above its last one
    sums, last = np.array([halves], dtype=np.uint64), np.array([-1])
    for _ in range(n // 2 - 4 * (n // 8)):
        grow = np.arange(n) > last[:, None]
        sums = (sums[:, None] ^ cols)[grow]
        last = np.nonzero(grow)[1]
    return int(np.count_nonzero(sums == 0))


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


def _level_words(rows: Sequence[int], top: int):
    """The XOR combinations of 1..top rows, each once, as uint64 arrays.

    Levels 1..top-2 are yielded whole, in order, until one is empty; the
    last two are streamed one largest index j at a time (level top-1's
    combinations ending at j, then level top's whose second-largest index
    is j), so level top is never held whole.  The arrays must not be
    written to.
    """
    if top < 1 or not rows:
        return
    k = len(rows)
    basis = np.array(rows, dtype=np.uint64)
    # the current level's combinations, grouped by their largest row index
    vals, last = basis, np.arange(k, dtype=np.int32)
    yield vals
    for _ in range(top - 3):
        # row j extends the combinations that use only rows below j
        sizes = np.searchsorted(last, np.arange(1, k))
        total = int(sizes.sum())
        if not total:
            return
        last = np.repeat(np.arange(1, k, dtype=np.int32), sizes)
        # in place where possible: a level near 2^20 words is megabytes
        pos = np.arange(total)
        pos -= np.repeat(np.cumsum(sizes) - sizes, sizes)
        vals = vals[pos]
        del pos
        vals ^= basis[last]
        yield vals
    if top < 2:
        return
    for j, p in enumerate(np.searchsorted(last, np.arange(1, k)).tolist(), start=1):
        if p:
            chunk = vals[:p] ^ basis[j]
            yield chunk
            if top > 2:
                yield (chunk[:, None] ^ basis[None, j + 1 :]).ravel()


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
    bases: Sequence[np.ndarray], n: int, target: Optional[int], shift: Optional[int] = None
) -> np.ndarray:
    """Minimum weights of a stack of length-n codes, n <= 64, each given by
    the same row of every array in bases: one systematic basis per code
    (codes x k uint64 rows), or two on disjoint information sets.

    Level w scans the XORs of w rows of each basis.  A code leaves the
    stack as soon as it is decided: a word below target rejects it, and
    once best <= len(bases) * (w + 1) best is exact, since every word not
    yet seen has more than w ones on each pivot set.  A rejected code's
    entry is the weight of a word below target; every other one is exact.

    With shift = m, every code of the stack has an automorphism that sends
    row i of each basis to the next row of its cycle of m rows (cycles
    i - i % m .. i - i % m + m - 1), so the XOR of a w-subset of rows has
    the weight of every subset in its orbit, and level w walks one subset
    per orbit (`_orbit_table`) for the whole stack at once.  The level's
    minimum over these is its minimum, so the stopping bound still holds.
    Without a shift the stack is one code, whose levels come from
    `_level_words`; when its next level would pass STACK_WORDS words, it
    finishes from its weight distribution.
    """
    stacks = [np.asarray(b, dtype=np.uint64) for b in bases]
    codes, k = stacks[0].shape
    if shift is None and codes != 1:
        raise DomainError(f"an unshifted scan takes one code, got {codes}")
    best = np.full(codes, n + 1, dtype=np.int64)
    live = np.arange(codes)
    # a walk to k + 2 yields every level 1..k whole
    walks = [_level_words(b[0].tolist(), k + 2) for b in stacks] if shift is None else None
    for w in range(1, k + 1):
        if walks is not None and math.comb(k, w) > STACK_WORDS:
            code = LinearCode.from_int_rows(stacks[0][0].tolist(), n)
            return np.minimum(best, weight_distribution(code).min_weight)
        for i, rows in enumerate(stacks):
            if walks is None:
                got = _orbit_minima(rows[live], _orbit_table(k, shift, w))
            else:
                got = int(np.bitwise_count(next(walks[i])).min())
            best[live] = np.minimum(best[live], got)
            if target is not None:
                live = live[best[live] >= target]
            if not live.size:
                return best
        # anything not yet seen has more than w ones in each pivot set
        live = live[best[live] > len(stacks) * (w + 1)]
        if not live.size:
            break
    return best


def _orbit_minima(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """For each code (row of rows), the least weight of the XORs of its rows
    at each column of table (w x representatives).  Stacks of codes and
    runs of representatives are cut so no array passes STACK_WORDS words."""
    out = np.empty(len(rows), dtype=np.int64)
    per = max(1, STACK_WORDS // table.shape[1])
    step = max(1, STACK_WORDS // per)
    for lo in range(0, len(rows), per):
        stack = rows[lo : lo + per]
        least = []
        for start in range(0, table.shape[1], step):
            cols = table[:, start : start + step]
            words = stack[:, cols[0]]
            for col in cols[1:]:
                words ^= stack[:, col]
            least.append(np.bitwise_count(words).min(axis=1))
        out[lo : lo + per] = np.min(least, axis=0)
    return out


@lru_cache(maxsize=64)
def _orbit_table(k: int, m: int, w: int) -> np.ndarray:
    """The w-subsets of k rows that are the least mask of their orbit under
    the shift of `_block_shift`, as a read-only (w x subsets) index table.

    The subsets are the level-w words of the unit rows, and a subset is
    kept when no shift of its mask is smaller."""
    walk = _level_words([1 << i for i in range(k)], w + 2)
    for _ in range(w):
        masks = next(walk)
    least, moved = masks.copy(), masks
    for _ in range(m - 1):
        moved = _block_shift(moved, m, k)
        np.minimum(least, moved, out=least)
    reps = masks[least == masks]
    bits = (reps[:, None] >> np.arange(k, dtype=np.uint64)) & np.uint64(1)
    table = np.ascontiguousarray(np.nonzero(bits)[1].reshape(-1, w).T)
    table.flags.writeable = False
    return table


def _block_shift(words: np.ndarray, m: int, width: int) -> np.ndarray:
    """uint64 words of width bits with each block of m bits, from bit 0 up,
    rotated up by one: bit i goes to i + 1, or to i - m + 1 from the top
    of its block."""
    low = sum(1 << i for i in range(0, width, m))
    up = np.uint64(((1 << width) - 1) & ~low)
    return ((words << np.uint64(1)) & up) | ((words >> np.uint64(m - 1)) & np.uint64(low))


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
    stack = [np.array([b], dtype=np.uint64) for b in _disjoint_information_bases(c)]
    got = int(_min_weight_staged(stack, c.n, target)[0])
    if target is None or got >= target:
        c.memo["min_weight"] = got
    return got


def codewords_of_weight(c: LinearCode, w: int) -> List[int]:
    """All codewords of exactly weight w, as sorted packed ints.

    The pass of `weight_distribution` keeps the words of the
    `_word_levels` classes it reaches, and a code of dimension below
    _INNER_LOG runs it first.  Other classes are filtered by popcount from
    the span's lanes below that dimension or past length 64 (k <= 22), and
    otherwise from the low-weight walk over one systematic basis, or two on
    disjoint information sets, which yields every word of weight <= w
    once; from k = 16 on it was measured faster than building the span.
    """
    if not 0 <= w <= c.n:
        raise DomainError(f"weight {w} outside 0..{c.n}")
    if w == 0:
        return [0]
    if c.k == 0:
        return []
    return _ints(_words(c, w))


def _ints(lanes: np.ndarray) -> List[int]:
    """Words given as rows of uint64 lanes, as packed ints."""
    low = lanes[:, 0].tolist()
    if lanes.shape[1] == 1:
        return low
    return [(h << 64) | x for h, x in zip(lanes[:, 1].tolist(), low)]


def _words(c: LinearCode, w: int) -> np.ndarray:
    """The codewords of weight w >= 1 in increasing order, one row of
    uint64 lanes each (lane i holds bits 64i..64i+63), memoised on c."""
    key = ("words", w)
    if key not in c.memo and c.k < _INNER_LOG:
        weight_distribution(c)
    got = c.memo.get(key)
    if got is None:
        got = c.memo[key] = _codewords_of_weight(c, w)
    return got


def _codewords_of_weight(c: LinearCode, w: int) -> np.ndarray:
    if c.n > 64 and c.k > _FULL_SPAN_MAX_K:
        raise ResourceLimitError(
            f"codeword collection past length 64 walks the whole span and is "
            f"limited to k <= {_FULL_SPAN_MAX_K}, got k={c.k}"
        )
    _check_dimension(c, "codeword collection")
    if c.n > 64 or c.k < _INNER_LOG:
        return _span_hits(c.rows, c.n, w)
    bases = _disjoint_information_bases(c)
    if len(bases) < 2 and c.k > _FULL_SPAN_MAX_K:
        raise ResourceLimitError(
            f"codeword collection needs two disjoint information sets for k > {_FULL_SPAN_MAX_K}"
        )
    hits = [np.zeros(0, dtype=np.uint64)]
    hits += [vals[np.bitwise_count(vals) == w] for vals in _low_weight_words(bases, w)]
    return _sorted_rows([np.concatenate(hits)])


def _span_hits(rows: Sequence[int], n: int, w: int) -> np.ndarray:
    """The words of weight w in span(rows) in increasing order, one row of
    lanes each."""
    hits: List[List[np.ndarray]] = [[] for _ in range(0, n, 64)]
    for lanes in _span_lanes(rows, n):
        keep = _lane_weights(lanes) == w
        for got, lane in zip(hits, lanes):
            got.append(lane[keep])
    return _sorted_rows([np.concatenate(got) for got in hits])


# ---------------------------------------------------------------------------
# MacWilliams self-check

def macwilliams_check(w: WeightDistribution, k: int) -> bool:
    """True iff transforming w by W(x+y, x-y)/2^k reproduces w exactly."""
    scale = 1 << k
    return all(t == scale * a for t, a in zip(_krawtchouk_transform(w.n, w.counts), w.counts))


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
