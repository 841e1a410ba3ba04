"""Four-circulant codes: a [4n, 2n] generator (I | M) where M stacks the
circulants of two first rows ra, rb as [[A, B], [B^T, A^T]].

Self-duality reduces to an autocorrelation identity on (ra, rb), so the
exhaustive search never materializes a matrix.  The affine maps
i -> u*i + s (mod n), u a unit, applied to both rows permute the code's
coordinates, and every search filter is invariant under them, so the
search walks one ra per orbit: signature bucketing pairs it with
compatible rb in one lookup, and row-sum and two-row weight filters run
vectorized over each bucket.  A survivor is self-dual, so (I | M) and
(M^T | I) are systematic bases on disjoint information sets, both in
closed form.  The survivors of a part are stacked, their bases built by
vectorized rotations, and one staged minimum-weight scan decides them
all without building a code.  Shifting each of the four blocks by one
sends every row of either basis to the next row of its half, so the scan
walks one combination of rows per orbit of that shift.  Each orbit of
hits is then walked once: search_orbits returns one pair per orbit, and
search_four_circulant every pair that passes the rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .codes import LinearCode
from .errors import DomainError, IntegrityError, ParseError, ResourceLimitError
from .gf2core import format01, parse01
from .parts import run_parts
from .wenum import _block_shift, _min_weight_staged

__all__ = [
    "CirculantPair",
    "SearchRules",
    "build_four_circulant",
    "self_dual_condition",
    "search_four_circulant",
    "search_orbits",
    "parse_pairs",
    "format_pairs",
    "load_pairs",
    "save_pairs",
    "SEARCH_BLOCK_LIMIT",
]

SEARCH_BLOCK_LIMIT = 16
# the orbit representatives are cut into this many parts per thread;
# progress is reported as each part ends
_PARTS_PER_WORKER = 8


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
    """The two defining first rows of a four-circulant generator, as
    words of `block` coordinates."""

    block: int
    ra: int
    rb: int

    def __post_init__(self) -> None:
        if self.block < 1:
            raise DomainError(f"block size must be positive, got {self.block}")
        for row in (self.ra, self.rb):
            if not isinstance(row, int) or row < 0 or row >> self.block:
                raise DomainError(f"first row {row!r} does not fit in {self.block} bits")

    @property
    def weight_sum(self) -> int:
        return self.ra.bit_count() + self.rb.bit_count()

    def shifted(self, s: int) -> "CirculantPair":
        n = self.block
        return CirculantPair(n, _rot(self.ra, s, n), _rot(self.rb, s, n))

    def serialize(self) -> str:
        return f"{format01(self.ra, self.block)};{format01(self.rb, self.block)}"

    @classmethod
    def parse(cls, text: str, line: Optional[int] = None) -> "CirculantPair":
        parts = text.strip().split(";")
        if len(parts) != 2:
            raise ParseError(f"expected 'ra;rb', got {text.strip()!r}", line=line)
        try:
            (na, ra), (nb, rb) = parse01(parts[0]), parse01(parts[1])
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from None
        if na != nb:
            raise ParseError(
                f"first rows have different lengths {na} and {nb}", line=line
            )
        return cls(na, ra, rb)


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
        _generator_ints(p.block, p.ra, p.rb), 4 * p.block, name=name
    )


def self_dual_condition(p: CirculantPair) -> bool:
    """AA^T + BB^T = I, tested as an autocorrelation identity on (ra, rb)."""
    n, ra, rb = p.block, p.ra, p.rb
    for s in range(n // 2 + 1):
        aa = (ra & _rot(ra, s, n)).bit_count() & 1
        bb = (rb & _rot(rb, s, n)).bit_count() & 1
        if aa ^ bb != (1 if s == 0 else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# the affine group i -> u*i + s (mod n), u a unit, acting on both rows

@lru_cache(maxsize=4)
def _affine_positions(n: int) -> np.ndarray:
    """Row g holds the image u*i + s (mod n) of every coordinate i."""
    i = np.arange(n, dtype=np.int64)
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    return np.array([(u * i + s) % n for u in units for s in range(n)])


@lru_cache(maxsize=4)
def _orbit_tables(n: int):
    """Sorted orbit representatives (each its orbit's least row) and the
    orbit sizes, from a running minimum over the group elements."""
    v = np.arange(1 << n, dtype=np.int32)
    bits = [(v >> i) & 1 for i in range(n)]
    canon = v.copy()
    img = np.empty_like(v)
    for row in _affine_positions(n).tolist():
        img.fill(0)
        for b, p in zip(bits, row):
            img |= b << p
        np.minimum(canon, img, out=canon)
    reps = np.flatnonzero(canon == v)
    sizes = np.bincount(canon, minlength=1 << n)[reps]
    return reps, sizes


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
    """Per row v of n bits: its weight, its self-duality signature, the
    weights of v ^ rot(v, s), its transpose row, and the rows sorted by
    signature with their signatures."""
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
    # rb_last_one is not invariant under the group, so every rb is searched
    pool = np.argsort(sig, kind="stable").astype(np.uint32)
    return wt, sig, w2, rev, pool, sig[pool]


def _stacked_bases(n: int, ras: np.ndarray, rbs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of (I | M) and of (M^T | I), M^T = [[A^T, B], [B^T, A]], for
    each pair (ras[i], rbs[i]), as two (pairs x 2n) uint64 arrays.  For a
    self-dual pair M M^T = I, so both are systematic bases of its code,
    on the first and the last 2n coordinates."""
    rev = _search_tables(n)[3]
    i = np.arange(n, dtype=np.uint64)
    mask = np.uint64((1 << n) - 1)

    def rotations(rows):  # column i holds rot(row, i)
        rows = rows.astype(np.uint64)[:, None]
        return ((rows << i) | (rows >> (np.uint64(n) - i))) & mask

    a, b, at, bt = (rotations(r) for r in (ras, rbs, rev[ras], rev[rbs]))
    unit = np.uint64(1) << np.arange(2 * n, dtype=np.uint64)
    n1, n2, n3 = (np.uint64(j * n) for j in (1, 2, 3))
    first = np.hstack([(a << n2) | (b << n3), (bt << n2) | (at << n3)]) | unit
    second = np.hstack([at | (b << n1), bt | (a << n1)]) | (unit << n2)
    return first, second


def _search_range(
    block: int,
    d_target: int,
    rules: SearchRules,
    ra_lo: int,
    ra_hi: int,
) -> List[Tuple[int, int]]:
    """Every hit (r, rb) whose ra = r is an orbit representative in
    [ra_lo, ra_hi), with rb unrestricted by rb_last_one.

    The filtered candidates of the whole range are stacked, and one staged
    scan walks them, one row combination per orbit of the block shift."""
    n = block
    mask = np.uint32((1 << n) - 1)
    wt, sig, w2, rev, pool, pool_sig = _search_tables(n)
    reps, _ = _orbit_tables(n)
    reps = reps[(reps >= ra_lo) & (reps < ra_hi)].tolist()

    min_sum = max(d_target - 1, rules.weight_bound or 0)
    pair_need = d_target - 2
    cross_need = (d_target - 1) // 2  # ceil((d_target - 2) / 2)

    ras, rbs = [], []
    for ra in reps:
        want = int(sig[ra]) ^ 1
        lo = int(np.searchsorted(pool_sig, want, side="left"))
        hi = int(np.searchsorted(pool_sig, want, side="right"))
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
        ras.append(np.full(cand.size, ra, dtype=np.uint32))
        rbs.append(cand)
    if not ras:
        return []
    # every candidate passed the signature bucket, so it is self-dual
    ras, rbs = np.concatenate(ras), np.concatenate(rbs)
    bases = _stacked_bases(n, ras, rbs)
    # shifting each block by one sends row i of a half to row i + 1 mod n
    j = np.arange(2 * n)
    successor = j - j % n + (j + 1) % n
    for rows in bases:
        if not np.array_equal(_block_shift(rows, n, 4 * n), rows[:, successor]):
            raise IntegrityError("the block shift does not send each basis row to the next")
    keep = _min_weight_staged(bases, 4 * n, d_target, shift=n) >= d_target
    return list(zip(ras[keep].tolist(), rbs[keep].tolist()))


def _search_orbits(
    block: int, d_target: int, rules: Optional[SearchRules], threads: int, progress
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The search's pairs by orbit, as words ra << block | rb: one
    representative per orbit, the number of pairs in each, and every pair
    in format01 order.  The ra rows' orbit representatives are cut into
    _PARTS_PER_WORKER contiguous parts per thread, run in order, so the
    result is identical for every thread count; progress(done, total)
    counts ra rows as each part ends.

    A hit's ra is the least of its orbit, so the orbit of (ra, rb) meets
    that ra in the images of rb under the stabiliser of ra; the least of
    them names it, and that hit's images walk the orbit once.  The orbit's
    first member passing rb_last_one in format01 order represents it, and
    orbits come in order of their least member, passing or not."""
    if block < 1:
        raise DomainError(f"block size must be positive, got {block}")
    if block > SEARCH_BLOCK_LIMIT:
        raise ResourceLimitError(
            f"search budget is 2^block rb rows for each affine orbit of ra rows; "
            f"block {block} exceeds the limit {SEARCH_BLOCK_LIMIT}"
        )
    if rules is None:
        rules = SearchRules.for_target(d_target)
    reps, sizes = _orbit_tables(block)
    end = 1 << block
    parts = min(len(reps), max(1, threads) * _PARTS_PER_WORKER)
    cuts = [len(reps) * i // parts for i in range(parts + 1)]
    bounds = [0] + [int(reps[c]) for c in cuts[1:-1]] + [end]
    jobs = [(block, d_target, rules, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    hits = []
    for i, part in enumerate(run_parts(_search_range, jobs, threads)):
        hits.extend(part)
        if progress is not None:
            progress(int(sizes[: cuts[i + 1]].sum()), end)
    n = block
    # format01 order of a row is the integer order of its bit reversal (an
    # involution), the transpose row rotated down by one
    rev = _search_tables(n)[3].astype(np.int64)
    flip = (rev >> 1) | ((rev & 1) << (n - 1))
    failed = np.int64(1) << (2 * n)  # above every key
    # an empty orbit list keeps the concatenations defined without hits
    orbits = [(np.zeros(0, dtype=np.int64),) * 4]
    pos = _affine_positions(n)
    for ra, group in groupby(hits, key=lambda h: h[0]):
        rows = np.array([ra] + [rb for _, rb in group], dtype=np.int64)
        images = np.zeros((len(pos), rows.size), dtype=np.int64)
        for i in range(n):
            images |= ((rows >> i) & 1) << pos[:, i, None]
        ras, images = images[:, :1], images[:, 1:]
        images = images[:, rows[1:] == images[ras[:, 0] == ra].min(axis=0)]
        keys = (flip[ras] << n) | flip[images]
        least = keys.min(axis=0)
        if rules.rb_last_one:
            keys[(images >> (n - 1)) & 1 == 0] = failed
        keys.sort(axis=0)
        new = keys < failed
        new[1:] &= keys[1:] != keys[:-1]
        orbits.append((least, keys[0], new.sum(axis=0), keys[new]))
    least, firsts, counts, members = (np.concatenate(c) for c in zip(*orbits))
    order = np.flatnonzero(firsts < failed)  # an orbit with no passing member is dropped
    order = order[np.argsort(least[order])]
    firsts, members = ((flip[k >> n] << n) | flip[k % end] for k in (firsts[order], np.sort(members)))
    return firsts, counts[order], members


def _pairs(block: int, words: np.ndarray) -> List[CirculantPair]:
    mask = (1 << block) - 1
    return [CirculantPair(block, w >> block, w & mask) for w in words.tolist()]


def search_four_circulant(
    block: int,
    d_target: int,
    rules: Optional[SearchRules] = None,
    threads: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[CirculantPair]:
    """All pairs whose code is self-dual with min weight >= d_target and
    which pass the normalization rules, in serialization order, identical
    for every thread count; progress(done, total) counts ra rows."""
    return _pairs(block, _search_orbits(block, d_target, rules, threads, progress)[2])


def search_orbits(
    block: int,
    d_target: int,
    rules: Optional[SearchRules] = None,
    threads: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Tuple[List[CirculantPair], List[int]]:
    """One pair per affine orbit of search_four_circulant's pairs, and the
    number of its pairs in each orbit; one orbit gives equivalent codes.
    The representative is the orbit's first pair in serialization order,
    and orbits come in order of their least serialization, rules or not."""
    reps, sizes, _ = _search_orbits(block, d_target, rules, threads, progress)
    return _pairs(block, reps), sizes.tolist()
