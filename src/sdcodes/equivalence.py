"""Permutation equivalence of binary codes, with verifiable certificates.

Coordinates are matched through the incidence structure of low-weight
codewords by color refinement: a round colors words by the multiset of
their coordinates' colors, then coordinates by (color, multiset of their
words' colors).  The incidence and the signature's co-occurrence counts come
from one 0/1 matrix, unpacked in one call from the words `wenum` memoises
as 64-bit lanes, for one code or for a block of codes with the same word
counts; the co-occurrence counts of a block of codes with the same A_d
come from one batched product.  One loop runs every round, on a stack of
codes of one incidence shape, a lone code being a stack of one, in one set
of NumPy calls; a code leaves the stack when its number of colors stops
growing.  Each key is a multiset hash: a word's is the sum modulo 2^64 of
a splitmix64 hash of each of its coordinates' colors, its padding
included so that its weight class shows, and a coordinate's is its color,
exact, in the top 8 bits over the top 56 bits of such a sum over its
words' names.  Each key is named by its rank among its code's keys, and a
code's profile digest per round is the sums of its mixed word keys and of
its mixed coordinate keys, so names and digests depend on that code
alone, not on the hash seed or the stack, and the first digest that
differs prunes a branch.  A hash collision can keep two different keys
under one name, but never two old colors, so a partition never coarsens
and every path ends; a collision can only let a hopeless branch go deeper
or change which verified leaf is found, never a verdict.  When a color
class stays ambiguous, one coordinate is individualized and refinement
re-run.
The first code's side depends on it alone: its first path (the root
refinement, then the first coordinate of the smallest open cell
individualized at each depth until the colors are discrete) comes from
the one depth loop over a stack.  One matcher searches the second code's
tree for a block of first paths at once, a lone comparison being a block
of one whose path is read a depth at a time as the search reaches it:
members whose digests agree at a node share one replay or refinement of
the second code there, each tries its own candidate coordinates in its
own order, and so reaches the leaf it would reach alone.  `classify`
refines its members' paths once each through the same loop, stacked in
blocks, and matches each block against its classes' first members in
turn.  The second code keeps in its memo the refinement nodes of its paths
that ended in a verified leaf, replayed by one comparison of their
digests, so the first member of a class is refined once while `classify`
compares others with it; `classify` drops those nodes when it returns,
since they are keyed by that member's coordinates and the representative
it returns is the lexicographically least member.  The colors are
isomorphism-invariant and give the partitions of a joint refinement of
both codes, so an exhausted search proves inequivalence and the first
verified leaf, hence the certificate, is the joint search's.  At a leaf
the coordinate matching is read off as a permutation and checked before
being returned: the 0/1 matrix of the first code's generator rows, its
columns permuted, times the transpose of the second code's parity-check
matrix must be even in every entry.  One stacked product checks a whole
stack of codes and permutations against one code: the members at a leaf,
and `classify`'s certificates composed into the representative.  That
test shares no code with refinement, so a positive answer never depends
on the refinement being correct.  A "distinct" verdict names the first
separating invariant, or records that the refined search space was
exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from itertools import groupby
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
    return _signatures([c])[0]


def _signatures(codes: Sequence[LinearCode]) -> List[InvariantSignature]:
    """The signatures of codes, memoised on each.  The co-occurrence counts
    of consecutive codes with the same n and A_d come from one batched
    product: G = M^T M for the words x coordinates 0/1 matrix M of each
    code's weight-d words, where G[i, i] counts words through i and G[i, j]
    those through i and j.  A block holds BLOCK_ROWS // max(A_d, 2n) codes:
    a code's M has A_d rows of n entries, and its G with the copies of G's
    upper triangle about 2n, so a small A_d does not make a block of many
    n x n matrices."""
    todo = [c for c in codes if "signature" not in c.memo]
    for (n, d, words), run in groupby(todo, key=_lowest_class):
        run = list(run)
        if d is None:
            for c in run:
                c.memo["signature"] = InvariantSignature(n, 0, None, (), None, None, (), ())
            continue
        size = max(1, BLOCK_ROWS // max(words, 2 * n))
        for lo in range(0, len(run), size):
            block = run[lo : lo + size]
            m = _unpacked(np.concatenate([_words(c, d) for c in block]), n).reshape(len(block), words, n)
            m = m.astype(np.float32)
            g = np.matmul(m.transpose(0, 2, 1), m)  # entries are at most A_d < 2^24, so exact
            diagonals = np.sort(np.diagonal(g, axis1=1, axis2=2), axis=1).astype(np.int64).tolist()
            uppers = np.sort(g[(slice(None), *_upper_triangle(n))], axis=1).astype(np.int64).tolist()
            for c, diagonal, upper in zip(block, diagonals, uppers):
                c.memo["signature"] = _signature(c, d, diagonal, upper)
    return [c.memo["signature"] for c in codes]


def _lowest_class(c: LinearCode) -> Tuple[int, Optional[int], int]:
    """n, the minimum weight d and A_d of a code whose signature is due."""
    _check_dimension(c, "signature")
    w = weight_distribution(c)
    d = w.min_weight
    return c.n, d, 0 if d is None else w.counts[d]


def _signature(c: LinearCode, d: int, diagonal: List[int], upper: List[int]) -> InvariantSignature:
    """A code's signature from its co-occurrence counts, sorted."""
    counts = weight_distribution(c).counts
    shadow_min = None
    shadow_prefix = None
    if is_self_dual(c) and parity_class(c) is ParityClass.SINGLY_EVEN:
        s = shadow_distribution(c)
        shadow_min = s.min_weight
        shadow_prefix = tuple(s.counts[shadow_min : min(shadow_min + 9, c.n + 1)])
    return InvariantSignature(
        c.n,
        c.k,
        d,
        tuple(counts[d : min(d + 9, c.n + 1)]),
        shadow_min,
        shadow_prefix,
        tuple(diagonal),
        tuple(upper),
    )


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


def _maps_into(gens: np.ndarray, images: np.ndarray, b: LinearCode) -> np.ndarray:
    """For a stack of 0/1 generator matrices (codes x k x n, float64) and
    one permutation per code (codes x n, 1-indexed images), whether the
    permutation sends every generator row of its code into b: the rows,
    coordinate i sent to images[i-1], times the transpose of b's
    parity-check matrix H, kept in b's memo as H^T, must be even in every
    entry.  One stacked product checks the whole stack; its entries are
    integers of at most n <= 128, so float64 products are exact."""
    ht = b.memo.get("parity checks")
    if ht is None:
        ht = b.memo["parity checks"] = np.ascontiguousarray(_bits(kernel_raw(b.rows, b.n), b.n).T)
    products = np.matmul(gens, ht[images - 1]).astype(np.int64)
    return ~(products & 1).any(axis=(1, 2))


def _stacked_bits(codes: Sequence[LinearCode]) -> np.ndarray:
    """The 0/1 generator matrices of codes of one shape, as float64 (codes
    x k x n)."""
    n = codes[0].n
    return _bits([r for c in codes for r in c.rows], n).reshape(len(codes), -1, n)


def verify_certificate(a: LinearCode, b: LinearCode, cert: EquivalenceCertificate) -> bool:
    """Membership check: the images form a permutation of 1..n, and the
    permuted generator rows of a all meet b's parity checks evenly."""
    if cert.perm is None or a.n != b.n or a.k != b.k:
        return False
    if sorted(cert.perm) != list(range(1, a.n + 1)):
        return False
    return bool(_maps_into(_stacked_bits([a]), np.array([cert.perm]), b)[0])


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
    each coordinate."""

    word_coords: np.ndarray
    coord_words: np.ndarray


def _incidences(codes: Sequence[LinearCode], levels: Sequence[int]) -> Iterator[_Incidence]:
    """The incidences of codes with the same number of words in each of
    `levels`, from one unpack of all their words, as stacks of consecutive
    codes whose rows are padded to the same widths.  Each code's rows are
    padded as they are when it is alone, so it refines alike in a stack."""
    n = codes[0].n
    m = _unpacked(np.concatenate([_words(c, w) for c in codes for w in levels]), n).reshape(len(codes), -1, n)
    word_coords, word_widths = _padded(m)
    coord_words, coord_widths = _padded(np.ascontiguousarray(m.transpose(0, 2, 1)))
    lo = 0
    for (ww, cw), run in groupby(zip(word_widths, coord_widths)):
        hi = lo + len(list(run))
        yield _Incidence(word_coords[lo:hi, :, :ww], coord_words[lo:hi, :, :cw])
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


# the salts of the hashes of coordinates' colors in word keys and of words'
# names in coordinate keys, so that the two keys hash their entries apart
_WORD_SALT, _COORD_SALT = np.uint64(0x9E3779B97F4A7C15), np.uint64(0x3C6EF372FE94F82A)


def _hashed(values: np.ndarray, salt: np.uint64) -> np.ndarray:
    """h(v) = `_mixed`(v + salt) of each entry of an int64 array, the sum
    taken modulo 2^64 on v's two's complement."""
    return _mixed(values.view(np.uint64) + salt)


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """Each entry's rank among its row's distinct values (codes x rows), by
    an argsort along each row."""
    c, r = values.shape
    order = values.argsort(axis=1)
    order += np.arange(0, c * r, r)[:, None]  # positions in the flat stack
    order = order.ravel()
    ordered = values.ravel()[order]
    new = np.zeros(c * r, bool)  # whether a value differs from the one before
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    new[::r] = False  # each code's least value
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


def _pad(colors: np.ndarray) -> np.ndarray:
    """Colors (codes x m) as int64, with a column of -1 appended."""
    out = np.empty((len(colors), colors.shape[1] + 1), np.int64)
    out[:, :-1] = colors
    out[:, -1] = -1
    return out


def _round(word_index: np.ndarray, coord_index: np.ndarray, current: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One round on a stack of codes of one incidence shape, from their
    `_pad`ded coordinate colors (codes x n+1, each below 2^8) and `_shifted`
    indexes: each word is keyed by the sum of the `_WORD_SALT` hashes of
    its coordinates' colors, whose -1 padding shows its weight class, then
    each coordinate by its color in the top 8 bits over the top 56 bits of
    the sum of the `_COORD_SALT` hashes of its words' names, padding
    included, all modulo 2^64, each named by the rank of its key among its
    code's.  Returns each code's profile digest, the sums of the `_mixed`
    word keys and of the `_mixed` coordinate keys as a row of two uint64,
    and the new colors."""
    word_keys = _hashed(current, _WORD_SALT).ravel()[word_index].sum(axis=2)
    names = _dense_ranks(word_keys)
    sums = _hashed(_pad(names), _COORD_SALT).ravel()[coord_index].sum(axis=2)
    coord_keys = current[:, :-1].view(np.uint64) << np.uint64(56) | sums >> np.uint64(8)
    colors = _dense_ranks(coord_keys)
    return np.stack((_mixed(word_keys).sum(axis=1), _mixed(coord_keys).sum(axis=1)), axis=1), colors


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
    current = _pad(colors)
    word_index, coord_index = _shifted(inc.word_coords, inc.coord_words)
    while len(at):
        digests, names = _round(word_index, coord_index, current)
        top = names.max(axis=1) + 1
        done = top == seen
        yield at, digests, names, done
        if done.any():
            at, names, top = at[~done], names[~done], top[~done]
            word_index, coord_index = _shifted(inc.word_coords[at], inc.coord_words[at])
        seen, current = top, _pad(names)


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
            inc = _Incidence(inc.word_coords[deeper], inc.coord_words[deeper])
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
    paths: Sequence[Callable[[int], Depth]], gens: np.ndarray, b: LinearCode, levels: Tuple[int, ...]
) -> List[Optional[Tuple[int, ...]]]:
    """Each member's first verified leaf below b's root, as its images, or
    None once its search is exhausted, for a block of members' first paths
    (read a depth at a time) and their generator matrices (members x k x
    n), all with b's word counts in `levels`.

    The members share b's search tree.  At a node, b is replayed from its
    memo or refined once for all the members there, and its rounds are
    compared with each distinct digest sequence of theirs at that depth:
    b's rounds do not depend on the member, so at most one sequence
    matches, and a round that matches none prunes the node.  Each member
    tries, in increasing order, the coordinates of b whose color is that
    of the coordinate its own path individualizes, and stops at its first
    verified leaf, so a member gets the leaf it would get alone.  At a
    leaf the images of all its members are read off their colors and b's
    by indexing, a permutation whatever b's colors, and checked by one
    stacked `_maps_into`.  Only the nodes on a verified member's path stay
    in b's memo.
    """
    n = b.n
    tree = b.memo.setdefault(("refinement", levels), {})
    added: List[Tuple[int, ...]] = []
    inc_b: List[_Incidence] = []  # built when a node is first refined
    found: List[Optional[Tuple[int, ...]]] = [None] * len(paths)
    ends: List[Tuple[int, ...]] = []  # b's paths to verified leaves

    def node(
        path: Tuple[int, ...], wants: Dict[Tuple[bytes, ...], object]
    ) -> Optional[Tuple[Tuple[bytes, ...], List[int]]]:
        """b's digests and final colors at `path` if its rounds there give
        one of the digest sequences `wants`, else None: replayed, or refined
        from its parent's colors, the last coordinate of the path
        individualized, and recorded."""
        if path in tree:
            return tree[path] if tree[path][0] in wants else None
        colors = np.zeros((1, n), np.int64)
        if path:
            colors[0] = tree[path[:-1]][1]
            colors[0, path[-1]] = n
        if not inc_b:
            inc_b.extend(_incidences([b], levels))
        got: List[bytes] = []
        live = list(wants)
        for _, digests, names, _ in _rounds(inc_b[0], colors):
            got.append(digests.tobytes())
            live = [want for want in live if len(want) >= len(got) and want[len(got) - 1] == got[-1]]
            if not live:
                return None
        if tuple(got) not in wants:
            return None
        tree[path] = (tuple(got), names[0].tolist())
        added.append(path)
        return tree[path]

    def search(path: Tuple[int, ...], live: List[int]) -> None:
        """Search b's node at `path` for the members `live`, none at a
        verified leaf yet."""
        groups: Dict[Tuple[bytes, ...], List[Tuple[int, List[int], Optional[int]]]] = {}
        for m in live:
            digests, colors, i = paths[m](len(path))
            groups.setdefault(digests, []).append((m, colors, i))
        hit = node(path, groups)
        if hit is None:
            return
        digests, cb = hit
        targets: Dict[int, List[int]] = {}  # color -> members individualizing a coordinate of it
        leaves = []
        for m, ca, i in groups[digests]:
            if i is None:
                leaves.append((m, ca))
            else:
                targets.setdefault(ca[i], []).append(m)
        if leaves:
            at = [m for m, _ in leaves]
            images = np.argsort(cb)[np.array([ca for _, ca in leaves])] + 1
            for m, ok, row in zip(at, _maps_into(gens[at], images, b), images.tolist()):
                if ok:
                    found[m] = tuple(row)
                    ends.append(path)
        for j, color in enumerate(cb):
            if color in targets:
                todo = [m for m in targets[color] if found[m] is None]
                if todo:
                    search(path + (j,), todo)

    search((), list(range(len(paths))))
    if added:
        kept = {end[:depth] for end in ends for depth in range(len(end) + 1)}
        for path in added:
            if path not in kept:
                del tree[path]
    return found


def _verdicts(
    members: Sequence[LinearCode], paths: Sequence[Callable[[int], Depth]], b: LinearCode
) -> List[EquivalenceCertificate]:
    """Each of a block of codes with the same word counts, against b: the
    identity for a code equal to b, distinct when b's word counts differ,
    and otherwise the block matcher's first verified leaf."""
    levels, counts = _word_counts(members[0])
    wb = weight_distribution(b).counts
    if [wb[w] for w in levels] != list(counts):
        return [EquivalenceCertificate(None, distinct_reason="weight class sizes")] * len(members)
    out = [identity_certificate(b.n)] * len(members)
    rest = [m for m, c in enumerate(members) if c.rows != b.rows]
    if rest:
        found = _match([paths[m] for m in rest], _stacked_bits([members[m] for m in rest]), b, levels)
        for m, images in zip(rest, found):
            out[m] = EquivalenceCertificate(images, None if images else "exhausted coordinate matching")
    return out


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
    return _verdicts([a], [_lazy_path(a)], b)[0]


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


def _member_paths(members: Sequence[LinearCode]) -> Iterator[List[List[Depth]]]:
    """The members' first paths, in order, a block per item: consecutive
    members with the same number of words in the same levels, up to
    BLOCK_ROWS stacked word rows, refined together."""
    for (levels, counts), run in groupby(members, key=_word_counts):
        run = list(run)
        size = max(1, BLOCK_ROWS // sum(counts))
        for lo in range(0, len(run), size):
            block: List[List[Depth]] = []
            for inc in _incidences(run[lo : lo + size], levels):
                paths: List[List[Depth]] = [[] for _ in range(len(inc.word_coords))]
                for depth in _first_paths(inc):
                    for code, got in depth:
                        paths[code].append(got)
                block += paths
            yield block


def _word_counts(c: LinearCode) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """A code's `_word_levels` and the number of words in each."""
    levels = tuple(_word_levels(c))
    counts = weight_distribution(c).counts
    return levels, tuple(counts[w] for w in levels)


def classify(codes: Sequence[LinearCode]) -> List[EquivalenceClass]:
    """Partition into equivalence classes; input order never changes the
    partition, and representatives are the lex-least serialized members.

    Within a signature bucket, each block of `_member_paths` is matched
    against the first member of each class in the order the classes were
    found; the first member left over starts a class, and the rest of the
    block is matched against it.  Classes are disjoint, so each member
    joins the class, with the certificate, it would join compared alone."""
    codes = list(codes)
    if not codes:
        return []
    n, k = codes[0].n, codes[0].k
    for c in codes:
        if (c.n, c.k) != (n, k):
            raise DomainError(
                f"classification needs uniform parameters; saw [{n},{k}] "
                f"and [{c.n},{c.k}]"
            )
    identity = identity_certificate(n)
    if not k:  # every code is the zero code
        return [EquivalenceClass(codes[0], tuple(codes), (identity,) * len(codes))]
    buckets: Dict[InvariantSignature, List[int]] = {}  # in order of first member
    for idx, sig in enumerate(_signatures(codes)):
        buckets.setdefault(sig, []).append(idx)

    # members and their certificates into the class's first member
    classes: List[Tuple[List[int], List[EquivalenceCertificate]]] = []
    for first, *rest in buckets.values():
        reps = [len(classes)]  # indices into `classes`
        classes.append(([first], [identity]))
        at = 0
        for paths in _member_paths([codes[idx] for idx in rest]):
            block = rest[at : at + len(paths)]
            at += len(paths)
            left = list(range(len(block)))  # positions in the block not yet placed
            r = 0
            while left:
                if r == len(reps):  # the first member left over starts a class
                    reps.append(len(classes))
                    classes.append(([block[left.pop(0)]], [identity]))
                    continue
                members, certs = classes[reps[r]]
                verdicts = _verdicts(
                    [codes[block[p]] for p in left], [paths[p].__getitem__ for p in left], codes[members[0]]
                )
                for p, cert in zip(left, verdicts):
                    if cert:
                        members.append(block[p])
                        certs.append(cert)
                left = [p for p, cert in zip(left, verdicts) if not cert]
                r += 1

    out = []
    for members, certs_to_first in classes:
        # the first member's refinement tree is keyed by its coordinates,
        # so it cannot serve the representative; drop it
        memo = codes[members[0]].memo
        for key in [key for key in memo if isinstance(key, tuple) and key[0] == "refinement"]:
            del memo[key]
        text, lex = min((_serialized(codes[idx]), i) for i, idx in enumerate(members))
        inverse = np.zeros(n, np.int64)  # of lex's certificate; a 0 is no image
        inverse[np.array(certs_to_first[lex].perm) - 1] = np.arange(1, n + 1)
        rep = codes[members[lex]]
        size = max(1, BLOCK_ROWS // sum(_word_counts(rep)[1]))
        certs: List[EquivalenceCertificate] = []
        for lo in range(0, len(members), size):
            final = inverse[np.array([cert.perm for cert in certs_to_first[lo : lo + size]]) - 1]
            gens = _stacked_bits([codes[idx] for idx in members[lo : lo + size]])
            if not (np.sort(final, axis=1) == np.arange(1, n + 1)).all() or not _maps_into(gens, final, rep).all():
                raise IntegrityError("composed certificate failed membership verification")
            certs += map(EquivalenceCertificate, map(tuple, final.tolist()))
        out.append((text, EquivalenceClass(rep, tuple(codes[i] for i in members), tuple(certs))))
    out.sort(key=lambda keyed: keyed[0])
    return [cl for _, cl in out]


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
