"""Brute-force reference implementations used only by the test suite.

Everything here trades speed for obviousness: spans are materialized as
sets of ints, membership is tested by exhaustive enumeration, and no code
under test is reused on the oracle side of a comparison.  The dual,
neighbor and permutation scans run in numpy blocks, but still visit every
vector and every permutation.  The color refinement round keys words and
coordinates by sorted Python tuples.  The neighbour survey's references
build every neighbour, as the survey did before it filtered syndromes: one
reads each minimum weight, the other reduces each light vector into each
neighbour.  The certificate reference permutes each row bit by bit and
reduces it into the other code.  A four-circulant pair's orbit is named
by its least serialization over every affine map, one map at a time.
The Gleason reference solves for the weight distribution from the counts
A_0..A_{2(n//8)} alone, with no shadow coefficient given; it shares the
low-weight walk with the code under test, which other tests check
against whole spans.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations, permutations
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from sdcodes.codes import LinearCode
from sdcodes.gf2core import pivots_of_rref_raw, reduce_raw
from sdcodes.neighbors import _neighbors_in_range
from sdcodes.wenum import _disjoint_information_bases, _gleason_distribution, _low_weight_words, min_weight


def span_set(rows: Sequence[int]) -> Set[int]:
    """All XOR combinations of the given rows, including 0."""
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def word01(v: int, n: int) -> str:
    """The '0'/'1' string of an n-coordinate word, coordinate 1 first."""
    return "".join(str((v >> i) & 1) for i in range(n))


def weight_histogram_direct(rows: Sequence[int], n: int) -> List[int]:
    """Per-codeword weight histogram by walking the whole span."""
    counts = [0] * (n + 1)
    for v in span_set(rows):
        counts[v.bit_count()] += 1
    return counts


def gray_weight_histogram(rows: Sequence[int], n: int) -> List[int]:
    """Same histogram via single-bit-change traversal of information vectors."""
    counts = [0] * (n + 1)
    word = 0
    counts[0] += 1
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    return counts


def dual_set(words: Set[int], n: int) -> Set[int]:
    """All vectors orthogonal to every word, by scanning 2^n candidates.

    A block of candidates is tested against every word in one numpy pass.
    """
    ws = np.array(sorted(words), dtype=np.uint64)
    step = max(1, (1 << 20) // max(1, ws.size))
    out: Set[int] = set()
    for lo in range(0, 1 << n, step):
        vs = np.arange(lo, min(lo + step, 1 << n), dtype=np.uint64)
        odd = np.bitwise_count(vs[:, None] & ws[None, :]) % 2 == 1
        out.update(vs[~odd.any(axis=1)].tolist())
    return out


def shadow_set(code_words: Set[int], n: int) -> Set[int]:
    """C_0-perp minus C, with C_0 the weight 0 mod 4 subcode, by filtering 2^n vectors."""
    c0 = {w for w in code_words if w.bit_count() % 4 == 0}
    return dual_set(c0, n) - code_words


def all_neighbor_codes(code_words: Set[int], n: int) -> Set[Tuple[int, ...]]:
    """Every self-dual code built as <(C meet x-perp), x> over even-weight x outside C.

    Codes are returned as canonical tuples (sorted codeword sets).  All 2^n
    vectors x are scanned, a block of them per numpy pass: the parities
    x . w for every word w pick the words of C meet x-perp, and each
    neighbor is those words together with their translates by x.
    """
    words = np.array(sorted(code_words), dtype=np.uint64)
    xs = np.arange(1, 1 << n, dtype=np.uint64)
    xs = xs[(np.bitwise_count(xs) % 2 == 0) & ~np.isin(xs, words)]
    found = set()
    for lo in range(0, xs.size, 4096):
        block = xs[lo : lo + 4096, None]
        even = np.bitwise_count(block & words) % 2 == 0
        sizes = even.sum(axis=1)
        # rows keep different numbers of words only when C is not self-dual
        for size in np.unique(sizes):
            rows = sizes == size
            sub = np.broadcast_to(words, even.shape)[rows][even[rows]].reshape(-1, size)
            neighbor = np.sort(np.concatenate([sub, sub ^ block[rows]], axis=1), axis=1)
            found.update(row.tobytes() for row in neighbor)
    return {tuple(np.frombuffer(b, dtype=np.uint64).tolist()) for b in found}


def krawtchouk(j: int, i: int, n: int) -> int:
    """K_j(i) for length n, summed from its definition."""
    return sum(
        (-1) ** l * math.comb(i, l) * math.comb(n - i, j - l)
        for l in range(max(0, j - (n - i)), min(i, j) + 1)
    )


def gleason_low_counts(c: LinearCode) -> List[int]:
    """A_0..A_{2(n//8)} of a self-dual code, filtered from its low-weight
    walk."""
    top = 2 * (c.n // 8)
    counts = np.zeros(c.n + 1, dtype=np.int64)
    for vals in _low_weight_words(_disjoint_information_bases(c), top):
        counts += np.bincount(np.bitwise_count(vals), minlength=c.n + 1)
    return [1] + counts[1 : top + 1].tolist()


def gleason_from_low_counts(c: LinearCode) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """A_0..A_n and B_0..B_n of a self-dual code from A_0..A_{2(n//8)}
    alone, with no shadow coefficient given."""
    return _gleason_distribution(c.n, c.k, gleason_low_counts(c))


def survey_by_min_weight(rows: Sequence[int], n: int, d_min: int, start: int, stop: int) -> list:
    """The neighbours of d >= d_min over the functionals start..stop-1, in
    order: every neighbour is built and its minimum weight read."""
    return [
        nb
        for nb in _neighbors_in_range(rows, n, start, stop)
        if min_weight(nb, target=d_min) >= d_min
    ]


def survey_by_membership(rows: Sequence[int], n: int, d_min: int, start: int, stop: int) -> list:
    """survey_by_min_weight for any length: a neighbour survives unless some
    even-weight vector of weight below d_min reduces to 0 against its rows."""
    light = [
        sum(1 << i for i in supp)
        for size in range(2, d_min, 2)
        for supp in combinations(range(n), size)
    ]
    found = []
    for nb in _neighbors_in_range(rows, n, start, stop):
        pivots = pivots_of_rref_raw(nb.rows)
        if all(reduce_raw(v, nb.rows, pivots) for v in light):
            found.append(nb)
    return found


def permute_bits(v: int, n: int, images: Sequence[int]) -> int:
    """Apply a 1-indexed image permutation to an int-packed vector."""
    out = 0
    for i in range(n):
        if (v >> i) & 1:
            out |= 1 << (images[i] - 1)
    return out


def maps_into_by_reduction(a_rows: Sequence[int], images: Sequence[int], b_rows: Sequence[int], n: int) -> bool:
    """Whether every row of a, coordinate i sent to images[i-1], lies in
    the span of b's reduced echelon rows: each row is permuted bit by bit
    and reduced against b's pivots.  The reference for the parity-check
    test behind `verify_certificate`."""
    pivots = pivots_of_rref_raw(b_rows)
    return all(reduce_raw(permute_bits(r, n, images), b_rows, pivots) == 0 for r in a_rows)


def circulant_rows(first_row: int, n: int) -> List[int]:
    """Rows of the n x n circulant: row i is the first row with every
    coordinate moved i places toward higher indices, mod n."""
    support = [j for j in range(n) if (first_row >> j) & 1]
    return [sum(1 << ((j + i) % n) for j in support) for i in range(n)]


def orbit_key(pair) -> str:
    """The least serialization 'ra;rb' of a four-circulant pair over every
    affine map i -> u*i + s (mod n), u a unit, applied to both rows."""
    n = pair.block

    def image(v: int, u: int, s: int) -> str:
        return word01(sum(1 << ((u * i + s) % n) for i in range(n) if (v >> i) & 1), n)

    units = [u for u in range(n) if math.gcd(u, n) == 1]
    return min(f"{image(pair.ra, u, s)};{image(pair.rb, u, s)}" for u in units for s in range(n))


def transposed_rows(rows: Sequence[int], ncols: int) -> List[int]:
    """Rows of the transpose of a matrix given by its int rows."""
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(ncols)]


def equivalent_by_all_permutations(words_a: Set[int], words_b: Set[int], n: int):
    """Search every coordinate permutation; returns an image tuple or None.

    Permutations are tried in lexicographic order, one fixed prefix at a
    time with every ordering of the remaining (at most 7) coordinates in one
    numpy pass, so the first image tuple mapping every word of A into B is
    returned.
    """
    if len(words_a) != len(words_b):
        return None
    in_b = np.zeros(1 << n, dtype=bool)
    in_b[sorted(words_b)] = True
    a = np.array(sorted(words_a), dtype=np.int64)
    a_bits = ((a[:, None] >> np.arange(n)) & 1).astype(np.float64)
    tail = min(n, 7)
    orders = np.array(list(permutations(range(tail))), dtype=np.int64)
    for prefix in permutations(range(n), n - tail):
        rest = np.array(sorted(set(range(n)) - set(prefix)), dtype=np.int64)
        block = np.empty((len(orders), n), dtype=np.int64)
        block[:, : n - tail] = prefix
        block[:, n - tail :] = rest[orders]
        # a word's image is the sum of 2^image[i] over its bits i, exact in float64
        images = (a_bits @ np.exp2(block).T).astype(np.int64)
        hits = np.flatnonzero(in_b[images].all(axis=0))
        if hits.size:
            return tuple(int(i) + 1 for i in block[hits[0]])
    return None


def incidence_and_cooccurrence(words: Iterable[int], n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Sorted per-coordinate word counts, and sorted counts of words through
    each coordinate pair i < j (zeros included), by a loop over supports."""
    per_coord = [0] * n
    pair: Counter = Counter()
    for v in words:
        supp = [i for i in range(n) if (v >> i) & 1]
        for i in supp:
            per_coord[i] += 1
        for a in range(len(supp)):
            for b in range(a + 1, len(supp)):
                pair[(supp[a], supp[b])] += 1
    co = sorted(pair.values())
    return tuple(sorted(per_coord)), tuple([0] * (n * (n - 1) // 2 - len(co)) + co)


def _getter(idx: Sequence[int]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """Reads the entries at idx of a color list as a tuple."""
    if len(idx) == 1:
        return lambda colors, i=idx[0]: (colors[i],)
    return itemgetter(*idx) if idx else lambda colors: ()


def _ranked_by_hash(keys: List[Tuple]) -> Tuple[List[int], int]:
    """Each key's rank among the distinct keys, ordered by their hashes or,
    should two distinct keys share one, by themselves."""
    names: Sequence = list(map(hash, keys))
    if len(set(names)) < len(set(keys)):
        names = keys
    profile = tuple(sorted(Counter(names).items()))
    rank = {name: r for r, (name, _) in enumerate(profile)}
    return list(map(rank.__getitem__, names)), hash(profile)


def refinement_rounds_by_tuples(
    words_by_class: Sequence[Sequence[int]], n: int, colors: List[int]
) -> Iterator[Tuple[int, List[int]]]:
    """Color refinement of one code with Python tuple keys: each round
    colors every word by (class, sorted colors of its coordinates), then
    every coordinate by (color, sorted colors of its words), until the
    number of coordinate colors stops growing.  Yields (digest, colors)."""
    supports = [
        (ci, [i for i in range(n) if (v >> i) & 1]) for ci, words in enumerate(words_by_class) for v in words
    ]
    through: List[List[int]] = [[] for _ in range(n)]
    for wi, (_, supp) in enumerate(supports):
        for i in supp:
            through[i].append(wi)
    word_getters = [(ci, _getter(supp)) for ci, supp in supports]
    coord_getters = [_getter(ws) for ws in through]
    while True:
        words, word_digest = _ranked_by_hash([(ci, tuple(sorted(get(colors)))) for ci, get in word_getters])
        new, coord_digest = _ranked_by_hash(
            [(colors[i], tuple(sorted(get(words)))) for i, get in enumerate(coord_getters)]
        )
        yield hash((word_digest, coord_digest)), new
        if len(set(new)) == len(set(colors)):
            return
        colors = new


def random_matrix_rows(rng: random.Random, nrows: int, ncols: int) -> List[int]:
    return [rng.getrandbits(ncols) for _ in range(nrows)]


def standard_self_dual_words(n: int) -> Set[int]:
    """The [n, n/2] code spanned by e1+e2, e3+e4, ..., as a word set."""
    assert n % 2 == 0
    return span_set([0b11 << i for i in range(0, n, 2)])


def random_self_dual_words(rng: random.Random, n: int, steps: int = 6) -> Set[int]:
    """Random self-dual code via set-level neighbor steps from the standard one.

    Each step replaces C by <(C meet x-perp), x> for a random even-weight
    x outside C, which is again self-dual.  Only sane for n <= 20 or so.
    """
    words = standard_self_dual_words(n)
    for _ in range(steps):
        for _attempt in range(200):
            x = rng.getrandbits(n)
            if x.bit_count() % 2 == 0 and x not in words:
                break
        else:
            break
        sub = {w for w in words if (w & x).bit_count() % 2 == 0}
        words = sub | {w ^ x for w in sub}
    return words


def singly_even_self_dual_words(rng: random.Random, n: int, steps: int = 6) -> Set[int]:
    """Like random_self_dual_words but guaranteed to contain a weight 2 mod 4 word."""
    while True:
        words = random_self_dual_words(rng, n, steps)
        if any(w.bit_count() % 4 == 2 for w in words):
            return words
