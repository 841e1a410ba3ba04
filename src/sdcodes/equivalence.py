"""Permutation equivalence of binary codes, with verifiable certificates.

Coordinates are matched through the incidence structure of low-weight
codewords.  Iterated color refinement over the word/coordinate incidence
(words colored by the sorted colors of their support, coordinates by the
sorted colors of the words through them) prunes the search; when a color
class stays ambiguous, one coordinate is individualized and refinement
re-run.  At a leaf the coordinate matching is read off as a permutation
and checked by generator-row membership before being returned, so a
positive answer never depends on the refinement being correct.  A
"distinct" verdict names the first separating invariant, or records that
the refined search space was exhausted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .codes import LinearCode, ParityClass, is_self_dual, parity_class
from .errors import DomainError, IntegrityError
from .gf2core import pivots_of_rref_raw, reduce_raw
from .wenum import (
    _check_dimension,
    codewords_of_weight,
    shadow_distribution,
    weight_distribution,
)

__all__ = [
    "InvariantSignature",
    "EquivalenceCertificate",
    "EquivalenceClass",
    "signature",
    "are_equivalent",
    "classify",
    "classification_report",
    "identity_certificate",
]


# ---------------------------------------------------------------------------
# signatures

@dataclass(frozen=True)
class InvariantSignature:
    """Cheap permutation-invariant fingerprint used to pre-sort codes."""

    n: int
    k: int
    d: Optional[int]
    dist_prefix: Tuple[int, ...]
    shadow_min: Optional[int]
    shadow_prefix: Optional[Tuple[int, ...]]
    incidence_counts: Tuple[int, ...]
    cooccurrence_counts: Tuple[int, ...]


def signature(c: LinearCode) -> InvariantSignature:
    cached = c.memo.get("signature")
    if cached is not None:
        return cached
    _check_dimension(c, "signature")
    w = weight_distribution(c)
    d = w.min_weight
    if d is None:
        sig = InvariantSignature(c.n, 0, None, (), None, None, (), ())
        c.memo["signature"] = sig
        return sig
    dist_prefix = tuple(w.counts[d : min(d + 9, c.n + 1)])
    shadow_min = None
    shadow_prefix = None
    if is_self_dual(c) and parity_class(c) is ParityClass.SINGLY_EVEN:
        s = shadow_distribution(c)
        shadow_min = s.min_weight
        shadow_prefix = tuple(s.counts[shadow_min : min(shadow_min + 9, c.n + 1)])
    words = codewords_of_weight(c, d)
    per_coord = [0] * c.n
    pair: Counter = Counter()
    for v in words:
        supp = _support(v, c.n)
        for i in supp:
            per_coord[i] += 1
        for a in range(len(supp)):
            for b in range(a + 1, len(supp)):
                pair[(supp[a], supp[b])] += 1
    co = sorted(pair.values())
    zero_pairs = c.n * (c.n - 1) // 2 - len(co)
    sig = InvariantSignature(
        c.n,
        c.k,
        d,
        dist_prefix,
        shadow_min,
        shadow_prefix,
        tuple(sorted(per_coord)),
        tuple([0] * zero_pairs + co),
    )
    c.memo["signature"] = sig
    return sig


def _support(v: int, n: int) -> List[int]:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class EquivalenceCertificate:
    """Either a coordinate permutation (1-indexed images) or a refusal."""

    perm: Optional[Tuple[int, ...]]
    distinct_reason: Optional[str] = None

    @property
    def equivalent(self) -> bool:
        return self.perm is not None

    def __bool__(self) -> bool:
        return self.equivalent

    def inverse(self) -> "EquivalenceCertificate":
        if self.perm is None:
            raise DomainError("a distinct verdict has no inverse")
        inv = [0] * len(self.perm)
        for i, img in enumerate(self.perm):
            inv[img - 1] = i + 1
        return EquivalenceCertificate(tuple(inv))

    def compose(self, then: "EquivalenceCertificate") -> "EquivalenceCertificate":
        """Apply this permutation, then the other."""
        if self.perm is None or then.perm is None:
            raise DomainError("cannot compose a distinct verdict")
        return EquivalenceCertificate(
            tuple(then.perm[p - 1] for p in self.perm)
        )


def identity_certificate(n: int) -> EquivalenceCertificate:
    return EquivalenceCertificate(tuple(range(1, n + 1)))


def _permute_word(v: int, images: Sequence[int]) -> int:
    out = 0
    for i, img in enumerate(images):
        if (v >> i) & 1:
            out |= 1 << (img - 1)
    return out


def _maps_into(a: LinearCode, images: Sequence[int], b_rows: Sequence[int], b_piv: Sequence[int]) -> bool:
    for r in a.rows:
        if reduce_raw(_permute_word(r, images), b_rows, b_piv) != 0:
            return False
    return True


def verify_certificate(a: LinearCode, b: LinearCode, cert: EquivalenceCertificate) -> bool:
    """Membership check: permuted generator rows of a all land in b."""
    if cert.perm is None or len(cert.perm) != a.n or a.n != b.n or a.k != b.k:
        return False
    return _maps_into(a, cert.perm, b.rows, pivots_of_rref_raw(b.rows))


# ---------------------------------------------------------------------------
# incidence structure and refinement

class _Incidence:
    def __init__(self, c: LinearCode, levels: Sequence[int]):
        self.n = c.n
        self.word_class: List[int] = []
        self.supports: List[List[int]] = []
        self.class_sizes: List[int] = []
        for ci, w in enumerate(levels):
            words = codewords_of_weight(c, w)
            self.class_sizes.append(len(words))
            for v in words:
                self.word_class.append(ci)
                self.supports.append(_support(v, c.n))
        self.coord_words: List[List[int]] = [[] for _ in range(c.n)]
        for wi, supp in enumerate(self.supports):
            for i in supp:
                self.coord_words[i].append(wi)


def _word_levels(c: LinearCode) -> List[int]:
    """Weight classes used for matching: the minimum-weight class, extended
    upward while the word set stays small relative to n."""
    counts = weight_distribution(c).counts
    levels: List[int] = []
    total = 0
    for w in range(1, c.n + 1):
        if counts[w]:
            levels.append(w)
            total += counts[w]
            if total >= 2 * c.n:
                break
    return levels


def _refine(
    inc_a: _Incidence,
    inc_b: _Incidence,
    ca: List[int],
    cb: List[int],
) -> Optional[Tuple[List[int], List[int]]]:
    """Stable joint refinement, or None when the color profiles diverge."""
    while True:
        intern: Dict[Tuple, int] = {}
        wa = _color_words(inc_a, ca, intern)
        wb = _color_words(inc_b, cb, intern)
        if sorted(wa) != sorted(wb):
            return None
        intern2: Dict[Tuple, int] = {}
        na = _color_coords(inc_a, ca, wa, intern2)
        nb = _color_coords(inc_b, cb, wb, intern2)
        if sorted(na) != sorted(nb):
            return None
        if len(set(na)) == len(set(ca)):
            return na, nb
        ca, cb = na, nb


def _color_words(inc: _Incidence, coord_colors: List[int], intern: Dict[Tuple, int]) -> List[int]:
    out = []
    for wi, supp in enumerate(inc.supports):
        key = (inc.word_class[wi], tuple(sorted(coord_colors[i] for i in supp)))
        color = intern.get(key)
        if color is None:
            color = len(intern)
            intern[key] = color
        out.append(color)
    return out


def _color_coords(
    inc: _Incidence, coord_colors: List[int], word_colors: List[int], intern: Dict[Tuple, int]
) -> List[int]:
    out = []
    for i in range(inc.n):
        key = (coord_colors[i], tuple(sorted(word_colors[w] for w in inc.coord_words[i])))
        color = intern.get(key)
        if color is None:
            color = len(intern)
            intern[key] = color
        out.append(color)
    return out


def _match(
    a: LinearCode,
    inc_a: _Incidence,
    inc_b: _Incidence,
    ca: List[int],
    cb: List[int],
    b_rows: Sequence[int],
    b_piv: Sequence[int],
) -> Optional[Tuple[int, ...]]:
    refined = _refine(inc_a, inc_b, ca, cb)
    if refined is None:
        return None
    ca, cb = refined
    counts = Counter(ca)
    open_colors = [col for col, m in counts.items() if m > 1]
    if not open_colors:
        pos_b = {col: j for j, col in enumerate(cb)}
        images = tuple(pos_b[col] + 1 for col in ca)
        if _maps_into(a, images, b_rows, b_piv):
            return images
        return None
    target = min(open_colors, key=lambda col: (counts[col], col))
    i = ca.index(target)
    fresh = max(max(ca), max(cb)) + 1
    for j in range(len(cb)):
        if cb[j] != target:
            continue
        ca2 = list(ca)
        cb2 = list(cb)
        ca2[i] = fresh
        cb2[j] = fresh
        got = _match(a, inc_a, inc_b, ca2, cb2, b_rows, b_piv)
        if got is not None:
            return got
    return None


def are_equivalent(a: LinearCode, b: LinearCode) -> EquivalenceCertificate:
    """Sound and complete equivalence test with a verified certificate."""
    if (a.n, a.k) != (b.n, b.k):
        raise DomainError(
            f"cannot compare a [{a.n},{a.k}] code with a [{b.n},{b.k}] code"
        )
    if a.k == 0:
        return identity_certificate(a.n)
    sig_a, sig_b = signature(a), signature(b)
    for field in (
        "d",
        "dist_prefix",
        "shadow_min",
        "shadow_prefix",
        "incidence_counts",
        "cooccurrence_counts",
    ):
        if getattr(sig_a, field) != getattr(sig_b, field):
            return EquivalenceCertificate(None, distinct_reason=field)
    if a.rows == b.rows:
        return identity_certificate(a.n)
    levels = _word_levels(a)
    inc_a = _Incidence(a, levels)
    inc_b = _Incidence(b, levels)
    if inc_a.class_sizes != inc_b.class_sizes:
        return EquivalenceCertificate(None, distinct_reason="weight class sizes")
    b_rows = b.rows
    b_piv = pivots_of_rref_raw(b_rows)
    images = _match(a, inc_a, inc_b, [0] * a.n, [0] * b.n, b_rows, b_piv)
    if images is None:
        return EquivalenceCertificate(None, distinct_reason="exhausted coordinate matching")
    return EquivalenceCertificate(images)


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class EquivalenceClass:
    """One class: members in first-seen order, certificates into the
    lexicographically least representative."""

    representative: LinearCode
    members: Tuple[LinearCode, ...]
    certificates: Tuple[EquivalenceCertificate, ...]


def _serialized(c: LinearCode) -> str:
    return "\n".join(c.gen.to_strings())


def classify(codes: Sequence[LinearCode]) -> List[EquivalenceClass]:
    """Partition into equivalence classes; input order never changes the
    partition, and representatives are the lex-least serialized members."""
    codes = list(codes)
    if not codes:
        return []
    shape = (codes[0].n, codes[0].k)
    for c in codes:
        if (c.n, c.k) != shape:
            raise DomainError(
                f"classification needs uniform parameters; saw [{shape[0]},{shape[1]}] "
                f"and [{c.n},{c.k}]"
            )
    buckets: Dict[InvariantSignature, List[int]] = {}
    for idx, c in enumerate(codes):
        buckets.setdefault(signature(c), []).append(idx)

    classes: List[Tuple[List[int], List[EquivalenceCertificate]]] = []
    class_order: List[int] = []
    for sig in sorted(buckets, key=lambda s: min(buckets[s])):
        reps: List[int] = []  # indices into `classes`
        for idx in buckets[sig]:
            placed = False
            for ci in reps:
                members, certs = classes[ci]
                cert = are_equivalent(codes[idx], codes[members[0]])
                if cert:
                    members.append(idx)
                    certs.append(cert)
                    placed = True
                    break
            if not placed:
                classes.append(([idx], [identity_certificate(codes[idx].n)]))
                reps.append(len(classes) - 1)
                class_order.append(idx)

    out = []
    for members, certs_to_first in classes:
        lex = min(members, key=lambda idx: _serialized(codes[idx]))
        lex_pos = members.index(lex)
        to_first_inv = certs_to_first[lex_pos].inverse()
        final_certs = []
        for idx, cert in zip(members, certs_to_first):
            final = cert.compose(to_first_inv)
            if not verify_certificate(codes[idx], codes[lex], final):
                raise IntegrityError(
                    "composed certificate failed membership verification"
                )
            final_certs.append(final)
        out.append(
            EquivalenceClass(codes[lex], tuple(codes[i] for i in members), tuple(final_certs))
        )
    out.sort(key=lambda cl: _serialized(cl.representative))
    return out


def classification_report(classes: Sequence[EquivalenceClass]) -> dict:
    """JSON-ready report: names plus 1-indexed permutation image arrays."""
    body = []
    for cl in classes:
        body.append(
            {
                "representative": cl.representative.label(),
                "members": [m.label() for m in cl.members],
                "permutations": [list(cert.perm) for cert in cl.certificates],
            }
        )
    return {"classes": body}
