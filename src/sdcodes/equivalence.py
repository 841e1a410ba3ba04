"""Permutation equivalence of binary codes, with verifiable certificates.

Coordinates are matched through the incidence structure of low-weight
codewords by color refinement of one code at a time: a round colors words
by (class, sorted colors of their coordinates), then coordinates by (color,
sorted colors of their words).  Keys are rows of one NumPy array, and each
is named by the rank of its bytes among the code's distinct rows, which
`np.unique` gives exactly; rounds of a stack of codes of one shape run in
one set of NumPy calls, each row prefixed by its code's index.  Rank names
are canonical, so two codes compare through one profile digest per round, a
blake2b of the distinct rows and their counts that no hash seed or stack
changes, and the first that differs prunes a branch; a digest collision
could only let a hopeless branch go deeper.  When a color class stays
ambiguous, one coordinate is individualized and refinement re-run.  The
first code's side depends on it alone: its first path (the root refinement,
then the first coordinate of the smallest open cell individualized at each
depth until the colors are discrete) is refined a depth at a time, when the
search first reaches it, and `classify` refines its members' paths once
each, stacked in blocks, and holds each in its member's memo while
comparing it.  The second code keeps in its memo the refinement
nodes of its paths that ended in a verified leaf, refined lazily, so a
class representative is refined once.  The colors are isomorphism-invariant
and give the partitions of a joint refinement of both codes, so an
exhausted search proves inequivalence and the first verified leaf, hence
the certificate, is the joint search's.  At a leaf the coordinate matching
is read off as a permutation and checked by generator-row membership before
being returned, so a positive answer never depends on the refinement being
correct.  A "distinct" verdict names the first separating invariant, or
records that the refined search space was exhausted.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, fields
from functools import cache
from itertools import repeat, zip_longest
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


# code index prefixed to every key row of a stack of codes, big-endian so
# that byte order sorts each code's rows together and in code order
_PREFIX = np.dtype(">u4")


def _ranked(keys: np.ndarray) -> Tuple[np.ndarray, List[bytes]]:
    """For a stack of key arrays (codes x rows x width), each row's rank
    among its code's distinct rows, in byte order, and per code a digest
    of those rows and their counts.  Both are canonical: they depend on
    the multiset of that code's rows alone, whatever else is stacked."""
    c, r, w = keys.shape
    rows = np.ascontiguousarray(keys).view(np.uint8)
    # one code needs no prefix, and ranks a quarter faster without it
    head = _PREFIX.itemsize if c > 1 else 0
    if head:
        prefix = np.arange(c, dtype=_PREFIX).view(np.uint8).reshape(c, 1, head)
        rows = np.concatenate((np.broadcast_to(prefix, (c, r, head)), rows), axis=2)
    distinct, inverse, counts = np.unique(
        rows.view(np.dtype((np.void, rows.shape[2]))).ravel(), return_inverse=True, return_counts=True
    )
    names = inverse.reshape(c, r)
    # a code's distinct rows are contiguous, from the rank of its least row
    least = names.min(axis=1, keepdims=True)
    offsets = least.ravel().tolist() + [len(distinct)]
    stripped = distinct.view(np.uint8).reshape(len(distinct), -1)[:, head:]
    width = w.to_bytes(8, "little")
    digests = [
        hashlib.blake2b(width + counts[lo:hi].tobytes() + stripped[lo:hi].tobytes(), digest_size=8).digest()
        for lo, hi in zip(offsets, offsets[1:])
    ]
    return names - least, digests


def _shifted(word_coords: np.ndarray, coord_words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A stack's incidence indexes (codes x rows x width), each code's
    shifted to its row of the flattened stack of padded colors."""
    code = np.arange(len(word_coords))[:, None, None]
    return word_coords + code * (coord_words.shape[1] + 1), coord_words + code * (word_coords.shape[1] + 1)


def _round(word_index: np.ndarray, coord_index: np.ndarray, current: np.ndarray) -> Tuple[List[bytes], np.ndarray]:
    """One round on a stack of codes of one incidence shape, from their
    coordinate colors (codes x n) and `_shifted` indexes: each word is
    colored by the sorted colors of its coordinates, whose -1 padding
    shows its weight class, then each coordinate by (color, sorted colors
    of its words), each by the rank of its key row among its code's.
    Returns each code's profile digest and the new colors."""
    pad = np.full((len(current), 1), -1, current.dtype)
    gathered = np.concatenate((current, pad), axis=1).ravel()[word_index]
    gathered.sort(axis=2)
    names, word_digests = _ranked(gathered)
    gathered = np.concatenate((names.astype(current.dtype), pad), axis=1).ravel()[coord_index]
    gathered.sort(axis=2)
    names, coord_digests = _ranked(np.concatenate((current[:, :, None], gathered), axis=2))
    return [x + y for x, y in zip(word_digests, coord_digests)], names


def _color_count(colors: np.ndarray) -> np.ndarray:
    """The number of distinct colors in each row."""
    ordered = np.sort(colors, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


Rounds = Iterator[Tuple[bytes, List[int]]]  # (profile digest, coordinate colors)


def _rounds(inc: _Incidence, colors: List[int]) -> Rounds:
    """Refine the coordinate colors of one code, one round per item, until
    their number stops growing."""
    current = np.array([colors], dtype=inc.dtype)
    seen = len(set(colors))
    while True:  # a lone code's indexes need no shift
        digests, names = _round(inc.word_coords[None], inc.coord_words[None], current)
        yield digests[0], names[0].tolist()
        top = names.max() + 1
        if top == seen:
            return
        seen, current = top, names.astype(inc.dtype)


# One depth of a first path: the round digests, the final colors, and the
# coordinate then individualized, or None once the colors are discrete
Depth = Tuple[Tuple[bytes, ...], List[int], Optional[int]]


def _target(colors: List[int]) -> Optional[int]:
    """The first coordinate of the smallest open cell, ties broken by first
    index, or None if every cell is a single coordinate."""
    counts = Counter(colors)
    open_colors = [col for col, m in counts.items() if m > 1]
    if not open_colors:
        return None
    return colors.index(min(open_colors, key=lambda col: (counts[col], colors.index(col))))


def _path_depths(c: LinearCode) -> Iterator[Depth]:
    """One code's first path, a depth per item, refined as it is read."""
    inc = _Incidence(c, _word_levels(c))
    colors = [0] * c.n
    while True:
        digests = []
        for digest, final in _rounds(inc, colors):
            digests.append(digest)
        i = _target(final)
        yield tuple(digests), final, i
        if i is None:
            return
        colors = final[:i] + [c.n] + final[i + 1 :]


def _lazy_path(c: LinearCode) -> Callable[[int], Depth]:
    """One code's first path by depth, each refined when first read, so a
    search pruned early refines a no deeper than it went."""
    depths: List[Depth] = []
    more = _path_depths(c)

    def depth(d: int) -> Depth:
        if d == len(depths):
            depths.append(next(more))
        return depths[d]

    return depth


def _first_paths(incs: Sequence[_Incidence]) -> List[List[Depth]]:
    """Each code's first path, for a stack of incidences of one shape: the
    root refinement, then one individualization and refinement per depth
    until the colors are discrete.  Every round runs once for all the
    codes still refining, and a code leaves the stack when it is done."""
    word_coords = np.stack([inc.word_coords for inc in incs])
    coord_words = np.stack([inc.coord_words for inc in incs])
    n, dtype = coord_words.shape[1], incs[0].dtype
    paths: List[List[Depth]] = [[] for _ in incs]
    active = np.arange(len(incs))  # codes whose path goes deeper
    current = np.zeros((len(incs), n), dtype)
    while len(active):
        digests: List[List[bytes]] = [[] for _ in active]
        final = np.empty((len(active), n), np.int64)
        at = np.arange(len(active))  # positions in `active` still refining
        seen = _color_count(current)
        word_index, coord_index = _shifted(word_coords[active], coord_words[active])
        while True:
            got, names = _round(word_index, coord_index, current)
            for pos, digest in zip(at, got):
                digests[pos].append(digest)
            top = names.max(axis=1) + 1
            done = top == seen
            final[at[done]] = names[done]
            if done.all():
                break
            if done.any():
                at, names, top = at[~done], names[~done], top[~done]
                word_index, coord_index = _shifted(word_coords[active[at]], coord_words[active[at]])
            seen, current = top, names.astype(dtype)
        deeper = []
        for pos, code in enumerate(active):
            colors = final[pos].tolist()
            i = _target(colors)
            paths[code].append((tuple(digests[pos]), colors, i))
            if i is not None:
                final[pos, i] = n  # no rank reaches n, so it individualizes
                deeper.append(pos)
        active, current = active[deeper], final[deeper].astype(dtype)
    return paths


def _match(
    a_path: Callable[[int], Depth], path: Tuple[int, ...], b_rounds: Rounds,
    node: Callable[[Tuple[int, ...], List[int]], Rounds], verify: Callable[[Tuple[int, ...]], bool],
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """First verified leaf below b's node at `path`, as (images, path).

    a's first path at this depth is shared by every candidate of b; b's
    rounds advance one by one against its digests, and the first that
    differs prunes the branch.
    """
    a_digests, ca, i = a_path(len(path))
    y = None
    for x, y in zip_longest(a_digests, b_rounds):
        if x is None or y is None or x != y[0]:
            return None
    cb = y[1]
    if i is None:
        pos_b = {col: j for j, col in enumerate(cb)}
        images = tuple(pos_b[col] + 1 for col in ca)
        return (images, path) if verify(images) else None
    n = len(ca)
    for j, col in enumerate(cb):
        if col == ca[i]:
            deeper = path + (j,)
            got = _match(a_path, deeper, node(deeper, cb[:j] + [n] + cb[j + 1 :]), node, verify)
            if got is not None:
                return got
    return None


# memo key of a code's whole first path, kept only while `classify`
# compares that code
_FIRST_PATH = "first path"


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

    a_path = a.memo.get(_FIRST_PATH)
    b_piv = pivots_of_rref_raw(b.rows)
    found = _match(
        _lazy_path(a) if a_path is None else a_path.__getitem__, (), node((), [0] * b.n), node,
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


# Word rows stacked in one block of member paths.  Blocks of up to 64
# length-26 survey codes (52 words each) keep the peak memory of the
# survey within a megabyte or two of refining one code at a time; a code
# with more words than this is refined alone.
BLOCK_ROWS = 3328


def _member_paths(members: Sequence[LinearCode]) -> Iterator[List[Depth]]:
    """Each member's first path, in order, refined in blocks of consecutive
    members of one word levels and incidence shape, up to BLOCK_ROWS
    stacked word rows; a block's paths are dropped once all are taken."""
    block: List[_Incidence] = []
    key = None
    for c in members:
        levels = tuple(_word_levels(c))
        inc = _Incidence(c, levels)
        shape = (levels, inc.word_coords.shape, inc.coord_words.shape)
        if block and (shape != key or (len(block) + 1) * len(inc.word_coords) > BLOCK_ROWS):
            yield from _first_paths(block)
            block = []
        block.append(inc)
        key = shape
    if block:
        yield from _first_paths(block)


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
        bucket = buckets[sig]
        # every member after the first is compared, and refined once
        paths = _member_paths([codes[idx] for idx in bucket[1:]]) if shape[1] else repeat(None)
        reps: List[int] = []  # indices into `classes`
        for idx in bucket:
            c = codes[idx]
            if reps:
                c.memo[_FIRST_PATH] = next(paths)
            for ci in reps:
                members, certs = classes[ci]
                cert = are_equivalent(c, codes[members[0]])
                if cert:
                    members.append(idx)
                    certs.append(cert)
                    break
            else:
                classes.append(([idx], [identity_certificate(c.n)]))
                reps.append(len(classes) - 1)
            c.memo.pop(_FIRST_PATH, None)

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
