"""Permutation equivalence of binary codes, with verifiable certificates.

Coordinates are matched through the incidence structure of low-weight
codewords by color refinement: a round colors words by (class, sorted
colors of their coordinates), then coordinates by (color, sorted colors of
their words).  The incidence and the signature's co-occurrence counts come
from one 0/1 matrix, unpacked in one call from the words `wenum` memoises
as 64-bit lanes, for one code or for a block of codes with the same word
counts.  One loop runs every round, on a stack of codes of one incidence
shape, a lone code being a stack of one, in one set of NumPy calls; a code
leaves the stack when its number of colors stops growing.  Keys are rows
of one NumPy array, sorted by one flat sort when they are short rows of
one-byte colors and row by row otherwise, and each is named by the rank of
its bytes among its code's distinct rows.  A row read as big-endian uint64
lanes orders as its bytes do: a row of one or two lanes is ranked by
argsorts along each code's rows, a wider one by one lexsort over its lanes
whose primary key is its code.  Rank names are canonical, so two codes
compare through one profile digest per round, the sums of a splitmix64
hash of each word key and of each coordinate key, which no hash seed or
stack changes, and the first that differs prunes a branch; a digest
collision could only let a hopeless branch go deeper.  When a color class
stays ambiguous, one coordinate is individualized and refinement re-run.
The first code's side depends on it alone: its first path (the root
refinement, then the first coordinate of the smallest open cell
individualized at each depth until the colors are discrete) comes from
the one depth loop over a stack, read a depth at a time when the search
first reaches it, and `classify` refines its members' paths once each
through the same loop, stacked in blocks, and holds each in its member's
memo while comparing it.  The second code keeps in its memo the
refinement nodes of its paths that ended in a verified leaf, refined
lazily as a stack of one and replayed by one comparison of their digests
with the first code's, so the first member of a class is refined once
while `classify` compares others with it; `classify` drops those nodes
when it returns, since they are keyed by that member's coordinates and the
representative it returns is the lexicographically least member.  The
colors are isomorphism-invariant and give the partitions of a joint
refinement of both codes, so an exhausted search proves inequivalence and
the first verified leaf, hence the certificate, is the joint search's.  At
a leaf the coordinate matching is read off as a permutation and checked
before being returned: the 0/1 matrix of the first code's generator rows,
its columns permuted, times the transpose of the second code's parity-check
matrix must be even in every entry.  That test shares no code with
refinement, so a positive answer never depends on the refinement being
correct.  A "distinct" verdict names the first separating invariant, or
records that the refined search space was exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from itertools import groupby, repeat
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .codes import LinearCode, ParityClass, is_self_dual, parity_class
from .errors import DomainError, IntegrityError
from .gf2core import format01, kernel_raw
from .wenum import (
    _check_dimension,
    _word_levels,
    _words,
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
    m = _unpacked(_words(c, d), c.n).astype(np.float64)
    g = (m.T @ m).astype(np.int64)  # entries are at most A_d, so exact
    sig = InvariantSignature(
        c.n,
        c.k,
        d,
        dist_prefix,
        shadow_min,
        shadow_prefix,
        tuple(np.sort(np.diag(g)).tolist()),
        tuple(np.sort(g[_upper_triangle(c.n)]).tolist()),
    )
    c.memo["signature"] = sig
    return sig


@cache
def _upper_triangle(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The indexes of the entries above the diagonal of an n x n matrix,
    read-only."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _unpacked(lanes: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 matrix (uint8) of words given as rows of uint64 lanes, lane
    i holding bits 64i..64i+63."""
    packed = np.ascontiguousarray(lanes, dtype="<u8").view(np.uint8)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


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


def _bits(rows: Sequence[int], n: int) -> np.ndarray:
    """The rows x n 0/1 matrix of packed rows, as float64, unpacked from
    their little-endian bytes."""
    size = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(size, "little") for r in rows), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), size), axis=1, count=n, bitorder="little").astype(np.float64)


def _maps_into(a: LinearCode, images: Sequence[int], b: LinearCode) -> bool:
    """Whether the permutation sends every generator row of a into b: a's
    rows, coordinate i sent to images[i-1], times the transpose of b's
    parity-check matrix H, kept in b's memo, must be even in every entry.
    The entries are integers of at most n <= 128, so float64 products
    (multiplied through BLAS) are exact."""
    h = b.memo.get("parity checks")
    if h is None:
        h = b.memo["parity checks"] = _bits(kernel_raw(b.rows, b.n), b.n)
    g = _bits(a.rows, a.n)
    return not ((g @ h[:, np.asarray(images) - 1].T) % 2).any()


def verify_certificate(a: LinearCode, b: LinearCode, cert: EquivalenceCertificate) -> bool:
    """Membership check: the images form a permutation of 1..n, and the
    permuted generator rows of a all meet b's parity checks evenly."""
    if cert.perm is None or a.n != b.n or a.k != b.k:
        return False
    if sorted(cert.perm) != list(range(1, a.n + 1)):
        return False
    return _maps_into(a, cert.perm, b)


# ---------------------------------------------------------------------------
# incidence structure and refinement

def _padded(m: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """For a stack of 0/1 matrices (codes x rows x columns), read-only: row
    r of code i lists the nonzero columns of that row in order, padded with
    the column count to the longest row of the stack; and each code's
    longest row."""
    cols = np.where(m, np.arange(m.shape[2], dtype=np.int32), m.shape[2])
    cols.sort(axis=2)
    widths = np.count_nonzero(m, axis=2).max(axis=1, initial=0)
    out = cols[:, :, : widths.max(initial=0)].copy()  # not a view of all of cols
    out.flags.writeable = False
    return out, widths.tolist()


class _Incidence(NamedTuple):
    """Low-weight words against coordinates of a stack of codes, read-only
    (codes x rows x width): each word's coordinates and the words through
    each coordinate, and the least signed dtype that holds every color of a
    round and -1."""

    word_coords: np.ndarray
    coord_words: np.ndarray
    dtype: np.dtype


def _incidences(codes: Sequence[LinearCode], levels: Sequence[int]) -> Iterator[_Incidence]:
    """The incidences of codes with the same number of words in each of
    `levels`, from one unpack of all their words, as stacks of consecutive
    codes whose rows are padded to the same widths.  Each code's rows are
    padded as they are when it is alone, so it refines alike in a stack."""
    n = codes[0].n
    m = _unpacked(np.concatenate([_words(c, w) for c in codes for w in levels]), n).reshape(len(codes), -1, n)
    dtype = np.min_scalar_type(-1 - max(m.shape[1:]))
    word_coords, word_widths = _padded(m)
    coord_words, coord_widths = _padded(np.ascontiguousarray(m.transpose(0, 2, 1)))
    lo = 0
    for (ww, cw), run in groupby(zip(word_widths, coord_widths)):
        hi = lo + len(list(run))
        yield _Incidence(word_coords[lo:hi, :, :ww], coord_words[lo:hi, :, :cw], dtype)
        lo = hi


_SPLITMIX = tuple(map(np.uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)))


def _mixed(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each entry of a uint64 array, in place."""
    s1, m1, s2, m2, s3 = _SPLITMIX
    x ^= x >> s1
    x *= m1
    x ^= x >> s2
    x *= m2
    x ^= x >> s3
    return x


@cache
def _salts(count: int) -> np.ndarray:
    """The `_mixed` 1..count, one per lane after the first, as a read-only
    column."""
    salts = _mixed(np.arange(1, count + 1, dtype=np.uint64))[:, None, None]
    salts.flags.writeable = False
    return salts


def _ranked(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For a stack of key arrays (codes x rows x width), each row's rank
    among its code's distinct rows, in byte order, and per code a uint64
    fingerprint of the multiset of its rows.  Both are canonical: they
    depend on that code's rows alone, whatever else is stacked.

    A row's bytes, zero-padded on the right to whole 8-byte lanes, read as
    big-endian integers order as the bytes do.  A row of one lane is ranked
    by its lane, and a row of two by its first lane's rank followed by its
    second lane, as one lane when the rank fits in the second lane's zero
    padding and as a pair of ranks otherwise; wider rows are ranked by all
    their lanes at once.  A row hashes to the `_mixed` sum of its first
    lane and its other lanes, each XORed with its position's salt and
    `_mixed`, and a code to the sum of its rows' hashes and the width, all
    modulo 2^64."""
    c, r, w = keys.shape
    width = w * keys.itemsize
    packed = np.zeros((c, r, -(-width // 8) * 8), np.uint8)
    packed[:, :, :width] = np.ascontiguousarray(keys).view(np.uint8)
    lanes = np.ascontiguousarray(packed.view(">u8").transpose(2, 0, 1), dtype=np.uint64)  # lanes x codes x rows
    if len(lanes) == 1:
        names = _dense_ranks(lanes[0])
    elif len(lanes) == 2:
        first = _dense_ranks(lanes[0])
        spare = 8 * (16 - width)  # the zero bits that end lane 1
        if r < 1 << spare:  # lane 0's rank takes their place
            names = _dense_ranks(first.astype(np.uint64) << np.uint64(64 - spare) | lanes[1] >> np.uint64(spare))
        else:
            names = _dense_ranks(first * r + _dense_ranks(lanes[1]))
    else:
        names = _dense_ranks(lanes)
    rows = lanes[0]
    if len(lanes) > 1:
        rows = rows + _mixed(lanes[1:] ^ _salts(len(lanes) - 1)).sum(axis=0)
    return names, _mixed(rows).sum(axis=1) + np.uint64(w)


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """Each row's rank among its code's distinct rows (codes x rows).  Rows
    of one value (values codes x rows) are ordered by an argsort along each
    code's rows, and rows of several lanes compared in turn (values lanes x
    codes x rows) by one lexsort whose primary key is the code's index."""
    c, r = values.shape[-2:]
    new = np.zeros(c * r, bool)  # whether a row differs from the one before
    if values.ndim == 2:
        order = values.argsort(axis=1)
        order += np.arange(0, c * r, r)[:, None]  # positions in the flat stack
        order = order.ravel()
        ordered = values.ravel()[order]
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    else:
        flat = values.reshape(len(values), c * r)
        order = np.lexsort((*flat[::-1], np.arange(c).repeat(r)))
        ordered = flat.take(order, axis=1)
        np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=new[1:])
    new[::r] = False  # each code's least row
    ranks = np.empty(c * r, np.int64)
    ranks[order] = new.reshape(c, r).cumsum(axis=1).ravel()
    return ranks.reshape(c, r)


def _shifted(word_coords: np.ndarray, coord_words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A stack's incidence indexes (codes x rows x width), each code's
    shifted to its row of the flattened stack of padded colors; a lone
    code's need no shift."""
    if len(word_coords) == 1:
        return word_coords, coord_words
    code = np.arange(len(word_coords))[:, None, None]
    return word_coords + code * (coord_words.shape[1] + 1), coord_words + code * (word_coords.shape[1] + 1)


def _pad(colors: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Colors (codes x m) as dtype, with a column of -1 appended."""
    out = np.empty((len(colors), colors.shape[1] + 1), dtype)
    out[:, :-1] = colors
    out[:, -1] = -1
    return out


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a stack (codes x rows x width) sorted.  One-byte entries
    are sorted as int32: rows of at most 8 take one flat sort, each value
    offset by its row's index times 256 so that rows keep apart and the
    low byte is the value, and longer rows a sort per row.  The offsets
    fit below 2^31 for up to 2^23 rows; a code of one-byte colors has at
    most 127 rows, and a block at most max(1, BLOCK_ROWS // words) codes.
    Wider entries are sorted per row in place."""
    if rows.itemsize > 1:
        rows.sort(axis=2)
        return rows
    c, r, w = rows.shape
    wide = rows.astype(np.int32)
    if w > 8:
        wide.sort(axis=2)
    else:
        wide += (np.arange(c * r, dtype=np.int32) << 8).reshape(c, r, 1)
        wide.ravel().sort()
    return wide.astype(np.int8)


def _round(word_index: np.ndarray, coord_index: np.ndarray, current: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One round on a stack of codes of one incidence shape, from their
    `_pad`ded coordinate colors (codes x n+1) and `_shifted` indexes: each
    word is colored by the sorted colors of its coordinates, whose -1
    padding shows its weight class, then each coordinate by (color, sorted
    colors of its words), each by the rank of its key row among its
    code's.  Returns each code's profile digest, the fingerprints of its
    word and coordinate keys as a row of two uint64, and the new colors."""
    names, word_prints = _ranked(_sorted_rows(current.ravel()[word_index]))
    gathered = _sorted_rows(_pad(names, current.dtype).ravel()[coord_index])
    names, coord_prints = _ranked(np.concatenate((current[:, :-1, None], gathered), axis=2))
    return np.stack((word_prints, coord_prints), axis=1), names


# a profile digest as one 16-byte value, read from a row of two uint64
_DIGEST = np.dtype((np.void, 16))


def _rounds(
    inc: _Incidence, colors: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Refine the coordinate colors of a stack of codes (codes x n), a lone
    code being a stack of one, one round per item, each code until its
    number of colors stops growing, when it leaves the stack.  Each item
    gives the positions in the stack of the codes the round refined, their
    digests and new colors, and which of them stopped."""
    at = np.arange(len(colors))  # positions of the codes still refining
    seen = _dense_ranks(colors).max(axis=1) + 1  # distinct colors of each code
    current = _pad(colors, inc.dtype)
    word_index, coord_index = _shifted(inc.word_coords, inc.coord_words)
    while len(at):
        digests, names = _round(word_index, coord_index, current)
        top = names.max(axis=1) + 1
        done = top == seen
        yield at, digests, names, done
        if done.any():
            at, names, top = at[~done], names[~done], top[~done]
            word_index, coord_index = _shifted(inc.word_coords[at], inc.coord_words[at])
        seen, current = top, _pad(names, inc.dtype)


# One depth of a first path: the round digests, the final colors, and the
# coordinate then individualized, or None once the colors are discrete
Depth = Tuple[Tuple[bytes, ...], List[int], Optional[int]]


def _targets(colors: np.ndarray) -> List[Optional[int]]:
    """For each row of colors (codes x n, each color below n), the first
    coordinate of the smallest open cell, ties broken by first index, or
    None if every cell is a single coordinate.  That coordinate has the
    least (cell size, index) among the coordinates of open cells."""
    codes, n = colors.shape
    sizes = np.bincount((colors + n * np.arange(codes)[:, None]).ravel(), minlength=codes * n)
    size = sizes.reshape(codes, n)[np.arange(codes)[:, None], colors]
    key = np.where(size > 1, size * n + np.arange(n), n * (n + 1))
    return [i if size[row, i] > 1 else None for row, i in enumerate(key.argmin(axis=1).tolist())]


def _first_paths(inc: _Incidence) -> Iterator[List[Tuple[int, Depth]]]:
    """The first paths of the codes of a stacked incidence, a depth per
    item, refined as it is read: each code still on its path, by its
    position in the stack, with its depth.  A path is the root refinement,
    then one individualization and refinement per depth until the colors
    are discrete; a code leaves the stack when its path ends."""
    count, n = inc.coord_words.shape[:2]
    codes = np.arange(count)  # the codes whose path goes deeper, stacked in inc
    colors = np.zeros((count, n), np.int64)
    while len(codes):
        digests = []  # per round, a row per code; rows of codes done are not read
        taken = np.empty(len(codes), np.int64)  # rounds each code took
        final = np.empty((len(codes), n), np.int64)
        for at, got, names, done in _rounds(inc, colors):
            digests.append(np.empty((len(codes), 2), np.uint64))
            digests[-1][at] = got
            final[at[done]] = names[done]
            taken[at[done]] = len(digests)
        rounds = np.stack(digests, axis=1).view(_DIGEST)[:, :, 0].tolist()
        depth, deeper = [], []
        paths = zip(codes.tolist(), rounds, taken.tolist(), final.tolist(), _targets(final))
        for pos, (code, row, k, last, i) in enumerate(paths):
            depth.append((code, (tuple(row[:k]), last, i)))
            if i is not None:
                final[pos, i] = n  # no rank reaches n, so it individualizes
                deeper.append(pos)
        yield depth
        if len(deeper) < len(codes):
            inc = _Incidence(inc.word_coords[deeper], inc.coord_words[deeper], inc.dtype)
        codes, colors = codes[deeper], final[deeper]


def _lazy_path(c: LinearCode) -> Callable[[int], Depth]:
    """One code's first path by depth, each refined when first read, so a
    search pruned early refines a no deeper than it went."""
    depths: List[Depth] = []
    more = _first_paths(next(_incidences([c], _word_levels(c))))

    def depth(d: int) -> Depth:
        if d == len(depths):
            ((_, got),) = next(more)
            depths.append(got)
        return depths[d]

    return depth


def _match(
    a_path: Callable[[int], Depth], path: Tuple[int, ...],
    node: Callable[[Tuple[int, ...], Tuple[bytes, ...]], Optional[List[int]]],
    verify: Callable[[Tuple[int, ...]], bool],
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """First verified leaf below b's node at `path`, as (images, path).

    a's first path at this depth is shared by every candidate of b; b's
    node gives its final colors only if its rounds match a's digests, and
    the first that differs prunes the branch.
    """
    a_digests, ca, i = a_path(len(path))
    cb = node(path, a_digests)
    if cb is None:
        return None
    if i is None:
        pos_b = {col: j + 1 for j, col in enumerate(cb)}
        images = tuple(map(pos_b.__getitem__, ca))
        return (images, path) if verify(images) else None
    j = -1
    for _ in range(cb.count(ca[i])):
        j = cb.index(ca[i], j + 1)
        got = _match(a_path, path + (j,), node, verify)
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
    if sig_a != sig_b:
        for field in fields(InvariantSignature):  # n and k agree already
            if getattr(sig_a, field.name) != getattr(sig_b, field.name):
                return EquivalenceCertificate(None, distinct_reason=field.name)
    if a.rows == b.rows:
        return identity_certificate(a.n)
    levels = tuple(_word_levels(a))
    wa, wb = weight_distribution(a).counts, weight_distribution(b).counts
    if [wa[w] for w in levels] != [wb[w] for w in levels]:
        return EquivalenceCertificate(None, distinct_reason="weight class sizes")
    # b's nodes (round digests, final colors) keyed by the path of
    # individualized coordinates; only those on verified paths stay
    tree = b.memo.setdefault(("refinement", levels), {})
    added: List[Tuple[int, ...]] = []
    inc_b: List[_Incidence] = []  # built when a node is first refined

    def node(path: Tuple[int, ...], want: Tuple[bytes, ...]) -> Optional[List[int]]:
        """b's final colors at `path` if its rounds there give the digests
        `want`, else None: replayed, or refined from its parent's colors,
        the last coordinate of the path individualized, and recorded."""
        if path in tree:
            digests, final = tree[path]
            return final if digests == want else None
        colors = np.zeros((1, b.n), np.int64)
        if path:
            colors[0] = tree[path[:-1]][1]
            colors[0, path[-1]] = b.n
        if not inc_b:
            inc_b.extend(_incidences([b], levels))
        k = 0
        for _, digests, names, _ in _rounds(inc_b[0], colors):
            if k == len(want) or digests.tobytes() != want[k]:
                return None
            k += 1
        if k < len(want):
            return None
        final = names[0].tolist()
        tree[path] = (want, final)
        added.append(path)
        return final

    a_path = a.memo.get(_FIRST_PATH)
    found = _match(
        _lazy_path(a) if a_path is None else a_path.__getitem__, (), node,
        lambda images: _maps_into(a, images, b),
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
    members with the same number of words in the same levels, up to
    BLOCK_ROWS stacked word rows; a block's paths are dropped once all are
    taken."""
    for (levels, counts), run in groupby(members, key=_word_counts):
        run = list(run)
        size = max(1, BLOCK_ROWS // sum(counts))
        for lo in range(0, len(run), size):
            for inc in _incidences(run[lo : lo + size], levels):
                paths: List[List[Depth]] = [[] for _ in range(len(inc.word_coords))]
                for depth in _first_paths(inc):
                    for code, got in depth:
                        paths[code].append(got)
                yield from paths


def _word_counts(c: LinearCode) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """A code's `_word_levels` and the number of words in each."""
    levels = tuple(_word_levels(c))
    counts = weight_distribution(c).counts
    return levels, tuple(counts[w] for w in levels)


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
        # the first member's refinement tree is keyed by its coordinates,
        # so it cannot serve the representative; drop it
        memo = codes[members[0]].memo
        for key in [key for key in memo if isinstance(key, tuple) and key[0] == "refinement"]:
            del memo[key]
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
