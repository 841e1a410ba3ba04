"""Self-dual neighbors: single constructions and exhaustive enumeration.

Two self-dual codes of the same length are neighbors when they meet in
codimension 1.  Given an even-weight x outside C, the code spanned by
(C meet x-perp) and x is again self-dual; every neighbor arises this way.
The exhaustive walk runs over hyperplanes of C through the all-one
vector, two neighbors per hyperplane, streamed and never materialized.

A survey keeps the neighbors of minimum weight >= d_min without building
the others.  No vector of odd weight lies in a self-dual code, so each
vector v up to the largest even weight below d_min is walked once, as its
syndrome s(v) = (<v, r_j>)_j against the RREF rows r_j and its bits p(v)
at their pivots.  A light codeword (s = 0) lies in both neighbors over the
functional w exactly when <p, w> = 0, so the survivors solve the affine
system <p, w> = 1 over the light codewords.  A light vector outside C
lies in a neighbor over w only when s = w: in the first when <p, s> = 0,
in the second otherwise, so the walk clears that side's mark in one
boolean array of two marks per functional.  Only the survivors are built.
No self-dual code beats Rains' bound, so a d_min above it has no
survivors and walks nothing.  A survey whose walk and marks would need
more than 2^SURVEY_MEMORY_LOG bytes fails with ResourceLimitError before
it walks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .codes import LinearCode, is_self_dual
from .equivalence import EquivalenceClass, are_equivalent, classify
from .errors import DomainError, IntegrityError, ParseError, ResourceLimitError
from .gf2core import pivots_of_rref_raw, reduce_raw, rref_raw
from .parts import run_parts
from .wenum import _level_words

__all__ = [
    "NeighborDescriptor",
    "neighbor",
    "neighbor_from_support",
    "enumerate_self_dual_neighbors",
    "extremal_neighbor_survey",
    "load_descriptors",
    "save_descriptors",
]

# hyperplane counts above 2^20 are survey-scale and need the extended flag
SURVEY_BUDGET_LOG = 20
# a survey whose light-vector walk and marks need more than 2^30 bytes
# fails early, extended or not
SURVEY_MEMORY_LOG = 30
# a survey tests its functionals this many at a time
_FUNCTIONAL_CHUNK = 1 << 16


@dataclass(frozen=True)
class NeighborDescriptor:
    """A neighbor step: base code name plus the support of x, 1-indexed."""

    base: str
    support: Tuple[int, ...]
    name: Optional[str] = None

    def __post_init__(self):
        supp = tuple(sorted(self.support))
        if len(set(supp)) != len(supp):
            raise DomainError("support coordinates must be distinct")
        if supp and supp[0] < 1:
            raise DomainError("support coordinates are 1-indexed")
        if len(supp) % 2:
            raise DomainError(
                f"support size {len(supp)} is odd; x must be self-orthogonal"
            )
        object.__setattr__(self, "support", supp)

    def vector(self, n: int) -> int:
        """x as a word of n coordinates."""
        if self.support and self.support[-1] > n:
            raise DomainError(
                f"support coordinate {self.support[-1]} exceeds length {n}"
            )
        bits = 0
        for i in self.support:
            bits |= 1 << (i - 1)
        return bits

    def to_json_line(self) -> str:
        body = {"base": self.base, "supp": list(self.support)}
        if self.name is not None:
            body["name"] = self.name
        return json.dumps(body)

    @classmethod
    def from_json_line(cls, line: str, lineno: int = 0) -> "NeighborDescriptor":
        try:
            body = json.loads(line)
            return cls(body["base"], tuple(body["supp"]), body.get("name"))
        except (ValueError, KeyError, TypeError) as e:
            raise ParseError(f"bad neighbor descriptor on line {lineno}: {e}") from None


def load_descriptors(path) -> List[NeighborDescriptor]:
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                out.append(NeighborDescriptor.from_json_line(line, lineno))
    return out


def save_descriptors(path, descriptors: Iterable[NeighborDescriptor]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for d in descriptors:
            fh.write(d.to_json_line() + "\n")


def neighbor(c: LinearCode, x: int, name: Optional[str] = None) -> LinearCode:
    """The self-dual code spanned by (c meet x-perp) and x.

    x is a word of c.n coordinates; it must have even weight and lie
    outside c.  The result meets c in dimension n/2 - 1.
    """
    if not is_self_dual(c):
        raise DomainError(f"{c.label()} is not self-dual")
    if not isinstance(x, int) or x < 0 or x >> c.n:
        raise DomainError(f"vector {x!r} does not fit in code length {c.n}")
    if x.bit_count() % 2:
        raise DomainError(
            f"weight {x.bit_count()} is odd; x cannot lie in a self-orthogonal code"
        )
    rows = c.rows
    if reduce_raw(x, rows, pivots_of_rref_raw(rows)) == 0:
        raise DomainError("not a proper neighbor")
    odd = [r for r in rows if (r & x).bit_count() % 2]
    keep = [r for r in rows if (r & x).bit_count() % 2 == 0]
    t = odd[0]
    sub = keep + [r ^ t for r in odd[1:]]
    out = LinearCode.from_int_rows(sub + [x], c.n, name=name)
    if out.k != c.k or not is_self_dual(out):
        raise IntegrityError(
            f"neighbor construction from {c.label()} lost self-duality"
        )
    return out


def neighbor_from_support(
    c: LinearCode, support: Sequence[int], name: Optional[str] = None
) -> LinearCode:
    """neighbor() with x given by 1-indexed support coordinates."""
    d = NeighborDescriptor(c.label(), tuple(support), name)
    return neighbor(c, d.vector(c.n), name=name)


def _all_one_check(c: LinearCode) -> None:
    if not is_self_dual(c):
        raise DomainError(f"{c.label()} is not self-dual")
    rows = c.rows
    ones = (1 << c.n) - 1
    if c.k and reduce_raw(ones, rows, pivots_of_rref_raw(rows)) != 0:
        raise IntegrityError(
            f"{c.label()} claims self-duality but misses the all-one vector"
        )


def _hyperplane_pair(
    rows: Sequence[int], pivots: Sequence[int], n: int, w: int,
    first: bool = True, second: bool = True,
) -> Tuple[LinearCode, ...]:
    """The two self-dual codes beside c over the hyperplane ker(w), or
    those of them that `first` and `second` ask for, in that order.

    w gives a functional by its values on the generator rows; the
    hyperplane contains the all-one vector exactly when w has even
    popcount, and the coset leader y (w scattered into pivot columns)
    is then automatically even-weight and orthogonal to the hyperplane.
    """
    y = 0
    t = -1
    sub = []
    for j in range(len(rows)):
        if (w >> j) & 1:
            y |= 1 << pivots[j]
            if t < 0:
                t = j
            else:
                sub.append(rows[j] ^ rows[t])
        else:
            sub.append(rows[j])
    leaders = [x for x, keep in ((y, first), (y ^ rows[t], second)) if keep]
    return tuple(LinearCode.from_int_rows(sub + [x], n) for x in leaders)


def _neighbors_in_range(
    rows: Sequence[int], n: int, start: int, stop: int
) -> Iterator[LinearCode]:
    """Both neighbors over each hyperplane through 1 whose functional lies
    in start..stop-1, in functional order."""
    pivots = pivots_of_rref_raw(rows)
    for w in range(start, stop):
        if w.bit_count() % 2 == 0:
            yield from _hyperplane_pair(rows, pivots, n, w)


def enumerate_self_dual_neighbors(c: LinearCode) -> Iterator[LinearCode]:
    """Stream every self-dual neighbor of c exactly once.

    Distinct hyperplanes give distinct neighbors (a neighbor N recovers
    its hyperplane as N meet c), so no dedup pass is needed.
    """
    _all_one_check(c)
    yield from _neighbors_in_range(c.rows, c.n, 1, 1 << c.k)


def _rains_bound(n: int) -> int:
    """Largest minimum weight of any self-dual code of length n (Rains,
    "Shadow bounds for self-dual codes", IEEE Trans. Inform. Theory 44 (1998))."""
    return 4 * (n // 24) + (6 if n % 24 == 22 else 4)


def _walk_bytes(n: int, top: int) -> int:
    """Bytes the two lanes of the light walk to weight top hold at once.

    _level_words holds level top-2 whole and streams levels top-1 and top
    one largest index j at a time; the chunk of level top is the C(j,
    top-2) combinations below j, each with every column above j.  Per
    word and lane, a held level with its next level's build takes about
    16 bytes and a streamed chunk with the survey's masks and copies about
    24.
    """
    if top < 2:
        return 0
    level = max(1, top - 2)
    streamed = max(math.comb(j, level) * (n - 1 - j if top > 2 else 1) for j in range(n))
    return 2 * (16 * math.comb(n, level) + 24 * streamed)


def _light_syndromes(rows: Sequence[int], pivots: Sequence[int], n: int, top: int):
    """(s, p) uint64 arrays over every nonzero vector v of weight <= top,
    each once: bit j of s is <v, rows[j]> and bit j of p is v's bit at
    pivots[j].  Column i of the walk is (s, p) of the unit vector at
    coordinate i; s and p are walked as two lanes in lockstep.
    """
    s_cols = [sum(((r >> i) & 1) << j for j, r in enumerate(rows)) for i in range(n)]
    p_cols = [0] * n
    for j, p in enumerate(pivots):
        p_cols[p] = 1 << j
    return zip(_level_words(s_cols, top), _level_words(p_cols, top))


def _light_hits(rows: Sequence[int], n: int, d_min: int, start: int, stop: int):
    """What the vectors of weight below d_min rule out among the neighbors
    over the functionals start..stop-1 (start >= 1), or None when they
    rule out every one.

    Returns the affine system of the light codewords, as (a, b) pairs
    that a surviving functional w meets with <a, w> = b, and a boolean
    array free of shape (2, stop - start): free[0, w - start] (free[1, w -
    start]) is False when the first (second) neighbor over w holds a light
    vector outside C.
    """
    if d_min > _rains_bound(n):
        return None
    # an odd-weight vector lies in no self-dual code
    top = (d_min - 1) & ~1
    # the marks are held twice at most: here, and in a pool worker's copy
    # of its slice
    need = _walk_bytes(n, top) + 4 * (stop - start)
    if need > 1 << SURVEY_MEMORY_LOG:
        raise ResourceLimitError(
            f"a survey of length {n} at d_min {d_min} needs about {-(-need >> 20)} MiB "
            f"for its light walk and marks, over the {1 << (SURVEY_MEMORY_LOG - 20)} MiB limit"
        )
    k = len(rows)
    pivots = pivots_of_rref_raw(rows)
    # bit k of each equation holds its right-hand side
    rhs = 1 << k
    equations: List[int] = []
    free = np.ones((2, stop - start), dtype=bool)
    for s, p in _light_syndromes(rows, pivots, n, top):
        in_code = s == 0
        if in_code.any():
            # a hyperplane free of light codewords has <p, w> = 1 for each
            new = {a | rhs for a in p[in_code].tolist()}
            red, rank, _ = rref_raw(equations + list(new), k + 1)
            equations = red[:rank]
            if rhs in equations:
                return None
        # an odd-weight vector has a syndrome of odd popcount, never a functional
        keep = (s >= start) & (s < stop) & (np.bitwise_count(s) % 2 == 0)
        s = s[keep]
        odd = np.bitwise_count(s & p[keep]) % 2
        free[odd, s - np.uint64(start)] = False
    system = [(np.uint64(e & (rhs - 1)), e >> k) for e in equations]
    return system, free


def _survey_range(
    rows: Sequence[int],
    n: int,
    system: Sequence[Tuple[np.uint64, int]],
    free: np.ndarray,
    start: int,
    stop: int,
) -> List[LinearCode]:
    """The neighbors that _light_hits leaves over the hyperplanes through
    1 whose functionals lie in start..stop-1, in functional order: over
    each functional that meets the system, the sides still marked free.
    Column i of free belongs to functional start + i."""
    pivots = pivots_of_rref_raw(rows)
    found: List[LinearCode] = []
    for lo in range(start, stop, _FUNCTIONAL_CHUNK):
        hi = min(lo + _FUNCTIONAL_CHUNK, stop)
        w = np.arange(lo, hi, dtype=np.uint64)
        w = w[np.bitwise_count(w) % 2 == 0]
        for a, b in system:
            w = w[np.bitwise_count(w & a) % 2 == b]
        sides = free[:, w - np.uint64(start)]
        live = sides[0] | sides[1]
        for f, first, second in zip(w[live].tolist(), *sides[:, live].tolist()):
            found.extend(_hyperplane_pair(rows, pivots, n, f, first, second))
    return found


def _survivors(rows: Sequence[int], n: int, d_min: int, threads: int) -> List[LinearCode]:
    """The neighbors of minimum weight >= d_min, in functional order.

    The light vectors are walked once; the functionals are then cut into
    one contiguous range per thread, whose survivors are concatenated in
    order, so the result does not depend on the thread count.
    """
    top = 1 << len(rows)
    light = _light_hits(rows, n, d_min, 1, top)
    if light is None:
        return []
    system, free = light
    parts = max(1, min(threads, top // 2))
    bounds = [max(1, top * i // parts) for i in range(parts + 1)]
    jobs = [
        (rows, n, system, free[:, lo - 1 : hi - 1], lo, hi) for lo, hi in zip(bounds, bounds[1:])
    ]
    found: List[LinearCode] = []
    for part in run_parts(_survey_range, jobs, threads):
        found.extend(part)
    return found


def extremal_neighbor_survey(
    c: LinearCode,
    d_min: int,
    known: Sequence[LinearCode] = (),
    extended: bool = False,
    threads: int = 1,
) -> List[EquivalenceClass]:
    """Classify the neighbors of c with minimum weight >= d_min, dropping
    classes already represented in `known`.

    The survivors are classified in one final stage, after the light
    vectors' marks are freed.
    """
    _all_one_check(c)
    if c.k - 1 > SURVEY_BUDGET_LOG and not extended:
        raise ResourceLimitError(
            f"surveying 2^{c.k - 1} hyperplanes needs the extended budget"
        )
    classes = classify(_survivors(c.rows, c.n, d_min, threads))
    fresh = []
    for cl in classes:
        if any(are_equivalent(cl.representative, k) for k in known):
            continue
        fresh.append(cl)
    return fresh
