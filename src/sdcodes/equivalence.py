"""Permutation equivalence of binary codes, with verifiable certificates.

Coordinates are matched through the incidence structure of low-weight
codewords by color refinement of one code at a time: a round colors words
by (class, sorted colors of their coordinates), then coordinates by (color,
sorted colors of their words).  Keys are rows of one NumPy array, and each
is named by the rank of its bytes among the code's distinct rows, which
`np.unique` gives exactly.  Rank names are canonical, so two codes compare
through one profile digest per round, a blake2b of the distinct rows and
their counts that no hash seed changes, and the first that differs prunes
a branch; a digest collision could only let a hopeless branch go deeper.  When
a color class stays ambiguous, one coordinate is individualized and
refinement re-run.  The second code keeps in its memo the refinement nodes
of its paths that ended in a verified leaf, so a class representative is
refined once.  The colors are isomorphism-invariant and give the partitions
of a joint refinement of both codes, so an exhausted search proves
inequivalence and the first verified leaf, hence the certificate, is the
joint search's.  At a leaf the coordinate matching is read off as a
permutation and checked by generator-row membership before being returned,
so a positive answer never depends on the refinement being correct.  A
"distinct" verdict names the first separating invariant, or records that
the refined search space was exhausted.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, fields
from functools import cache
from itertools import zip_longest
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .codes import LinearCode, ParityClass, is_self_dual, parity_class
from .errors import DomainError, IntegrityError
from .gf2core import format01, permute_word, pivots_of_rref_raw, reduce_raw
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
    # G = M^T M for the words x coordinates 0/1 matrix M of the weight-d
    # words: G[i, i] counts words through i, G[i, j] those through i and j
    m = _word_matrix(codewords_of_weight(c, d), c.n)
    g = m.T.astype(np.int64) @ m
    sig = InvariantSignature(
        c.n,
        c.k,
        d,
        dist_prefix,
        shadow_min,
        shadow_prefix,
        tuple(np.sort(np.diag(g)).tolist()),
        tuple(np.sort(g[np.triu_indices(c.n, 1)]).tolist()),
    )
    c.memo["signature"] = sig
    return sig


def _word_matrix(words: Sequence[int], n: int) -> np.ndarray:
    """The words x coordinates 0/1 matrix of packed words."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in words), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(words), width), axis=1, count=n, bitorder="little")


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


def _maps_into(a: LinearCode, images: Sequence[int], b_rows: Sequence[int], b_piv: Sequence[int]) -> bool:
    for r in a.rows:
        if reduce_raw(permute_word(r, images), b_rows, b_piv) != 0:
            return False
    return True


def verify_certificate(a: LinearCode, b: LinearCode, cert: EquivalenceCertificate) -> bool:
    """Membership check: the images form a permutation of 1..n, and the
    permuted generator rows of a all land in b."""
    if cert.perm is None or a.n != b.n or a.k != b.k:
        return False
    if sorted(cert.perm) != list(range(1, a.n + 1)):
        return False
    return _maps_into(a, cert.perm, b.rows, pivots_of_rref_raw(b.rows))


# ---------------------------------------------------------------------------
# incidence structure and refinement

def _padded(m: np.ndarray) -> np.ndarray:
    """Read-only: row r lists the nonzero columns of row r of m in order,
    padded with the column count."""
    rows, cols = np.nonzero(m)
    per_row = np.count_nonzero(m, axis=1)
    out = np.full((len(m), per_row.max(initial=0)), m.shape[1])
    out[rows, np.arange(len(rows)) - (np.cumsum(per_row) - per_row)[rows]] = cols
    out.flags.writeable = False
    return out


class _Incidence:
    """Low-weight words against coordinates, read-only: each word's
    coordinates and the words through each coordinate, and the least
    signed dtype that holds every color of a round and -1."""

    def __init__(self, c: LinearCode, levels: Sequence[int]):
        m = _word_matrix([v for w in levels for v in codewords_of_weight(c, w)], c.n)
        self.dtype = np.min_scalar_type(-1 - max(m.shape))
        self.word_coords, self.coord_words = _padded(m), _padded(m.T)


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


def _ranked(keys: np.ndarray) -> Tuple[np.ndarray, bytes]:
    """Each key row's rank among the distinct rows, in byte order, and a
    digest of those rows and their counts.  Both are canonical: they
    depend on the multiset of rows alone."""
    rows = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    distinct, names, counts = np.unique(rows, return_inverse=True, return_counts=True)
    digest = hashlib.blake2b(keys.shape[1].to_bytes(8, "little"), digest_size=8)
    digest.update(counts)
    digest.update(distinct)
    return names, digest.digest()


Rounds = Iterator[Tuple[bytes, List[int]]]  # (profile digest, coordinate colors)


def _rounds(inc: _Incidence, colors: List[int]) -> Rounds:
    """Refine the coordinate colors of one code, one round per item, until
    their number stops growing.  A round colors each word by the sorted
    colors of its coordinates, whose -1 padding shows its weight class,
    then each coordinate by (color, sorted colors of its words), each by
    the rank of its key row among the code's."""
    current = np.array(colors, dtype=inc.dtype)
    seen = len(np.unique(current))
    while True:
        gathered = np.append(current, -1).astype(inc.dtype)[inc.word_coords]
        gathered.sort(axis=1)
        words, word_digest = _ranked(gathered)
        gathered = np.append(words, -1).astype(inc.dtype)[inc.coord_words]
        gathered.sort(axis=1)
        names, coord_digest = _ranked(np.column_stack((current, gathered)))
        yield word_digest + coord_digest, names.tolist()
        if names.max() + 1 == seen:
            return
        seen = names.max() + 1
        current = names.astype(inc.dtype)


def _match(
    inc_a: _Incidence, a_rounds: List[Tuple[int, List[int]]], path: Tuple[int, ...], b_rounds: Rounds,
    node: Callable[[Tuple[int, ...], List[int]], Rounds], verify: Callable[[Tuple[int, ...]], bool],
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """First verified leaf below b's node at `path`, as (images, path).

    a's rounds at this depth are refined once and shared by every candidate
    of b; b's advance one by one against them, and the first round whose
    digests differ prunes the branch.
    """
    x = y = None
    for x, y in zip_longest(a_rounds, b_rounds):
        if x is None or y is None or x[0] != y[0]:
            return None
    ca, cb = x[1], y[1]
    counts = Counter(ca)
    open_colors = [col for col, m in counts.items() if m > 1]
    if not open_colors:
        pos_b = {col: j for j, col in enumerate(cb)}
        images = tuple(pos_b[col] + 1 for col in ca)
        return (images, path) if verify(images) else None
    target = min(open_colors, key=lambda col: (counts[col], ca.index(col)))
    n = len(ca)  # no rank reaches n, so it individualizes
    i = ca.index(target)
    below = list(_rounds(inc_a, ca[:i] + [n] + ca[i + 1 :]))
    for j, col in enumerate(cb):
        if col == target:
            deeper = path + (j,)
            got = _match(inc_a, below, deeper, node(deeper, cb[:j] + [n] + cb[j + 1 :]), node, verify)
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
    for field in fields(InvariantSignature):  # n and k agree already
        if getattr(sig_a, field.name) != getattr(sig_b, field.name):
            return EquivalenceCertificate(None, distinct_reason=field.name)
    if a.rows == b.rows:
        return identity_certificate(a.n)
    levels = tuple(_word_levels(a))
    if [len(codewords_of_weight(a, w)) for w in levels] != [len(codewords_of_weight(b, w)) for w in levels]:
        return EquivalenceCertificate(None, distinct_reason="weight class sizes")
    # b's nodes (round digests, final colors) keyed by the path of
    # individualized coordinates; only those on verified paths stay
    tree = b.memo.setdefault(("refinement", levels), {})
    added: List[Tuple[int, ...]] = []
    inc_b = cache(lambda: _Incidence(b, levels))

    def node(path: Tuple[int, ...], colors: List[int]) -> Rounds:
        """b's rounds from `colors`: replayed, or recorded once complete."""
        if path in tree:
            digests, final = tree[path]
            yield from ((digest, final) for digest in digests)
            return
        digests = []
        for digest, final in _rounds(inc_b(), colors):
            digests.append(digest)
            yield digest, final
        tree[path] = (tuple(digests), final)
        added.append(path)

    inc_a = _Incidence(a, levels)
    b_piv = pivots_of_rref_raw(b.rows)
    found = _match(
        inc_a, list(_rounds(inc_a, [0] * a.n)), (), node((), [0] * b.n), node,
        lambda images: _maps_into(a, images, b.rows, b_piv),
    )
    for path in added:
        if found is None or found[1][: len(path)] != path:
            del tree[path]
    if found is None:
        return EquivalenceCertificate(None, distinct_reason="exhausted coordinate matching")
    return EquivalenceCertificate(found[0])


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
    return "\n".join(format01(r, c.n) for r in c.rows)


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
    for sig in sorted(buckets, key=lambda s: min(buckets[s])):
        reps: List[int] = []  # indices into `classes`
        for idx in buckets[sig]:
            for ci in reps:
                members, certs = classes[ci]
                cert = are_equivalent(codes[idx], codes[members[0]])
                if cert:
                    members.append(idx)
                    certs.append(cert)
                    break
            else:
                classes.append(([idx], [identity_certificate(codes[idx].n)]))
                reps.append(len(classes) - 1)

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
