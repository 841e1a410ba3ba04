"""Self-dual neighbors: single constructions and exhaustive enumeration.

Two self-dual codes of the same length are neighbors when they meet in
codimension 1.  Given an even-weight x outside C, the code spanned by
(C meet x-perp) and x is again self-dual; every neighbor arises this way.
The exhaustive walk runs over hyperplanes of C through the all-one
vector, two neighbors per hyperplane, streamed and never materialized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .codes import LinearCode, is_self_dual
from .equivalence import EquivalenceClass, are_equivalent, classify
from .errors import DomainError, IntegrityError, ParseError, ResourceLimitError
from .gf2core import pivots_of_rref_raw, reduce_raw
from .parts import run_parts
from .wenum import min_weight

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
    rows: Sequence[int], pivots: Sequence[int], n: int, w: int
) -> Tuple[LinearCode, LinearCode]:
    """The two self-dual codes beside c over the hyperplane ker(w).

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
    first = LinearCode.from_int_rows(sub + [y], n)
    second = LinearCode.from_int_rows(sub + [y ^ rows[t]], n)
    return first, second


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


def _survey_range(
    rows: Sequence[int], n: int, d_min: int, start: int, stop: int
) -> List[LinearCode]:
    return [
        nb
        for nb in _neighbors_in_range(rows, n, start, stop)
        if min_weight(nb, target=d_min) >= d_min
    ]


def extremal_neighbor_survey(
    c: LinearCode,
    d_min: int,
    known: Sequence[LinearCode] = (),
    extended: bool = False,
    threads: int = 1,
) -> List[EquivalenceClass]:
    """Classify the neighbors of c with minimum weight >= d_min, dropping
    classes already represented in `known`.

    Enumeration is cut into one contiguous functional range per thread,
    whose survivors are concatenated in order and classified in one final
    stage, so the result does not depend on the thread count.
    """
    _all_one_check(c)
    if c.k - 1 > SURVEY_BUDGET_LOG and not extended:
        raise ResourceLimitError(
            f"surveying 2^{c.k - 1} hyperplanes needs the extended budget"
        )
    rows = c.rows
    top = 1 << c.k
    parts = max(1, min(threads, top // 2))
    bounds = [max(1, top * i // parts) for i in range(parts + 1)]
    jobs = [(rows, c.n, d_min, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    found: List[LinearCode] = []
    for part in run_parts(_survey_range, jobs, threads):
        found.extend(part)
    classes = classify(found)
    fresh = []
    for cl in classes:
        if any(are_equivalent(cl.representative, k) for k in known):
            continue
        fresh.append(cl)
    return fresh
