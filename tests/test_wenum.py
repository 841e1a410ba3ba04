import math
import random
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import xor

import numpy as np
import pytest

from sdcodes import (
    BalanceStatus,
    CirculantPair,
    DomainError,
    FamilyTag,
    LinearCode,
    ParityClass,
    ParseError,
    ResourceLimitError,
    ShadowDistribution,
    WeightDistribution,
    check_shadow_balance,
    classify_enumerator,
    codewords_of_weight,
    extremal_min_weight,
    is_self_dual,
    macwilliams_check,
    min_weight,
    parity_class,
    shadow_distribution,
    solve_shadow_balance,
    build_four_circulant,
    subtract_coordinates,
    weight_distribution,
)
from sdcodes import wenum
from sdcodes.codes import shadow_parts
from sdcodes.equivalence import _incidences, _word_levels, signature
from sdcodes.errors import IntegrityError
from sdcodes.neighbors import neighbor
from sdcodes.tables import known_code_names, named_code
from sdcodes.wenum import (
    _disjoint_information_bases,
    _gleason_counts,
    _gleason_distribution,
    _histogram_words,
    _ints,
    _lane_weights,
    _level_words,
    _levels,
    _low_weight_words,
    _lowest_shadow_count,
    _min_weight_staged,
    _shadow_basis,
    _shadow_counts,
    _span_hits,
    _span_lanes,
    family_profile,
)

from oracles import (
    gleason_from_low_counts,
    gleason_low_counts,
    gray_weight_histogram,
    krawtchouk,
    random_matrix_rows,
    random_self_dual_words,
    shadow_set,
    singly_even_self_dual_words,
    span_set,
    weight_histogram_direct,
)


def code_from_words(words, n):
    return LinearCode.from_int_rows(sorted(words), n)


# ---------------------------------------------------------------------------
# the histogram engine

def test_histogram_small_known():
    # {0000, 1100, 0011, 1111}
    assert _histogram_words([0b0011, 0b1100], 4)[0] == [1, 0, 2, 0, 1]


def independent_rows(rng, nrows, n):
    """Random rows reduced to an independent generating set."""
    raw = random_matrix_rows(rng, nrows, n)
    return LinearCode.from_int_rows(raw, n).rows


def test_histogram_matches_direct_oracle():
    rng = random.Random(401)
    for _ in range(40):
        n = rng.randrange(1, 22)
        rows = independent_rows(rng, rng.randrange(0, 9), n)
        assert _histogram_words(rows, n)[0] == weight_histogram_direct(rows, n)


def test_histogram_matches_gray_oracle_midsize():
    rng = random.Random(402)
    for _ in range(5):
        n = rng.randrange(30, 61)
        rows = independent_rows(rng, 18, n)
        assert _histogram_words(rows, n)[0] == gray_weight_histogram(rows, n)


def test_histogram_wide_lane():
    """Lengths past one machine word sum the popcounts of two lanes."""
    rng = random.Random(403)
    for n in (65, 80, 100, 128):
        rows = independent_rows(rng, 9, n)
        assert _histogram_words(rows, n)[0] == weight_histogram_direct(rows, n)
    # k = 18 is past the inner block, so the outer Gray walk flips both lanes
    for n in (100, 128):
        rows = independent_rows(rng, 18, n)
        assert len(rows) == 18
        assert _histogram_words(rows, n)[0] == gray_weight_histogram(rows, n)


def coset_histogram(rows, n, offset):
    """The weight histogram of {offset ^ v : v in span(rows)}, straight
    from the span's lanes."""
    hist = np.zeros(n + 1, dtype=np.int64)
    for lanes in _span_lanes(rows, n, offset):
        hist += np.bincount(_lane_weights(lanes), minlength=n + 1)
    return hist.tolist()


def test_histogram_offset_translates():
    rng = random.Random(404)
    for n in (11, 70):
        rows = independent_rows(rng, 7, n)
        off = rng.getrandbits(n)
        got = coset_histogram(rows, n, off)
        direct = [0] * (n + 1)
        for w in {off ^ v for v in span_set(rows)}:
            direct[bin(w).count("1")] += 1
        assert got == direct


def test_histogram_crosses_inner_outer_boundary():
    rng = random.Random(405)
    rows = independent_rows(rng, 17, 40)
    assert _histogram_words(rows, 40)[0] == gray_weight_histogram(rows, 40)


# ---------------------------------------------------------------------------
# weight_distribution

def test_distribution_of_standard_code():
    c = code_from_words(random_self_dual_words(random.Random(1), 8, steps=0), 8)
    w = weight_distribution(c)
    # direct sum of four {00,11} blocks: binomial profile over even weights
    assert w.counts == (1, 0, 4, 0, 6, 0, 4, 0, 1)
    assert w.total == 2**4
    assert w.min_weight == 2


def test_distribution_matches_oracle_random_codes():
    rng = random.Random(406)
    for _ in range(25):
        n = rng.randrange(2, 18)
        c = LinearCode.from_int_rows(random_matrix_rows(rng, rng.randrange(1, 7), n), n)
        w = weight_distribution(c)
        assert list(w.counts) == weight_histogram_direct(c.rows, n)
        assert w.total == 2**c.k


def test_distribution_is_cached():
    c = code_from_words(random_self_dual_words(random.Random(2), 12), 12)
    assert weight_distribution(c) is weight_distribution(c)


def test_distribution_budget():
    rows = [1 << i for i in range(35)]
    c = LinearCode.from_int_rows(rows, 70)
    with pytest.raises(ResourceLimitError):
        weight_distribution(c)


def test_zero_code_distribution():
    c = LinearCode(5, ())
    assert weight_distribution(c).counts == (1, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# shadow_distribution

def test_shadow_distribution_matches_exhaustive():
    rng = random.Random(407)
    for n in (10, 12, 14):
        words = singly_even_self_dual_words(rng, n)
        c = code_from_words(words, n)
        s = shadow_distribution(c)
        direct = [0] * (n + 1)
        for v in shadow_set(words, n):
            direct[bin(v).count("1")] += 1
        assert list(s.counts) == direct
        assert sum(s.counts) == 2**c.k


def test_shadow_weights_live_in_one_residue_class():
    rng = random.Random(408)
    c10 = code_from_words(singly_even_self_dual_words(rng, 10), 10)
    for i, x in enumerate(shadow_distribution(c10).counts):
        if x:
            assert i % 4 == 1
    c12 = code_from_words(singly_even_self_dual_words(rng, 12), 12)
    for i, x in enumerate(shadow_distribution(c12).counts):
        if x:
            assert i % 4 == 2


def test_shadow_distribution_rejects_doubly_even():
    c = LinearCode.from_strings(
        ["11110000", "00111100", "00001111", "01010101"]
    )
    with pytest.raises(DomainError):
        shadow_distribution(c)


def test_shadow_distribution_rejects_non_self_dual():
    with pytest.raises(DomainError):
        shadow_distribution(LinearCode.from_strings(["1100", "0011", "1010"]))


def test_shadow_distribution_budget():
    c = LinearCode.from_int_rows([0b11 << i for i in range(0, 70, 2)], 70)
    assert c.k == 35
    with pytest.raises(ResourceLimitError):
        shadow_distribution(c)


# ---------------------------------------------------------------------------
# Gleason's theorem and the shadow transform

def random_self_dual_code(rng, n, steps=12):
    """A self-dual code reached by neighbor steps from {11}^(n/2)."""
    c = LinearCode.from_int_rows([0b11 << i for i in range(0, n, 2)], n)
    for _ in range(steps):
        while True:
            x = rng.getrandbits(n)
            if x.bit_count() % 2 == 0 and LinearCode(n, c.rows + (x,)).k > c.k:
                break
        c = neighbor(c, x)
    return c


def extended_hamming_sum(blocks):
    """Direct sum of extended Hamming [8,4,4] codes: doubly even, d = 4."""
    e8 = LinearCode.from_strings(["11110000", "00111100", "00001111", "01010101"])
    rows = [r << (8 * b) for b in range(blocks) for r in e8.rows]
    return LinearCode.from_int_rows(rows, 8 * blocks)


def extended_hamming_pairs_sum(pairs, blocks):
    """i_2^pairs + E8^blocks: singly even unless pairs = 0, with lowest
    shadow weight pairs and B_pairs = 2^pairs."""
    rows = [0b11 << (2 * i) for i in range(pairs)]
    rows += [r << (2 * pairs) for r in extended_hamming_sum(blocks).rows]
    return LinearCode.from_int_rows(rows, 2 * pairs + 8 * blocks)


def gleason(c):
    return _gleason_counts(c)[0]


def coset_streamed_shadow(c):
    """B_0..B_n by walking both shadow cosets of C_0 in full."""
    parts = shadow_parts(c)
    rows = parts.c0.rows
    counts = [0] * (c.n + 1)
    for rep in parts.coset_reps:
        for i, x in enumerate(coset_histogram(rows, c.n, rep)):
            counts[i] += x
    return counts


def test_gleason_matches_enumeration_on_random_self_dual_codes():
    rng = random.Random(413)
    codes = [random_self_dual_code(rng, n) for n in range(8, 50, 2)]
    codes += [extended_hamming_sum(b) for b in (1, 3, 6)]
    for c in codes:
        assert len(_disjoint_information_bases(c)) == 2
        got = list(gleason(c))
        assert got == _histogram_words(c.rows, c.n)[0], c.n
        if c.n <= 24:
            assert got == weight_histogram_direct(c.rows, c.n), c.n


def test_gleason_matches_full_enumeration_on_registry_codes():
    """The Gleason path against a full 2^k Gray walk at lengths 58 and 60.

    On Gleason output the MacWilliams identity holds by construction
    (every Gleason polynomial is MacWilliams-invariant), so the
    macwilliams_check of acceptance criterion 9 no longer tests the
    enumeration of length-58/60 codes; this comparison does.
    """
    for name in ("C58_4", "C60_9"):
        c = named_code(name)
        assert c.k > 22
        assert list(gleason(c)) == _histogram_words(c.rows, c.n)[0], name


def test_gleason_path_matches_the_low_count_reconstruction():
    # the reconstruction from A_0..A_{2(n//8)}, with no shadow coefficient
    names = [name for name in known_code_names() if named_code(name).k > 22]
    assert len(names) > 100
    for name in random.Random(1801).sample(names, 8):
        c = named_code(name)
        c = LinearCode(c.n, c.rows)
        counts, shadow = gleason_from_low_counts(c)
        assert _gleason_counts(c)[:2] == (counts, shadow), name
        assert weight_distribution(c).counts == counts, name


def test_lowest_shadow_count_matches_the_full_shadow():
    rng = random.Random(1802)
    codes = [random_self_dual_code(rng, n) for n in range(8, 50, 2)]
    # B_w > 0 in each residue class of n mod 8; (3, 5) has k = 23 and
    # (0, 6) k = 24, so both take the Gleason path
    sums = {(1, 1): 2, (2, 1): 4, (3, 1): 8, (1, 5): 2, (2, 5): 4, (3, 5): 8, (4, 5): 0, (0, 6): 1}
    codes += [extended_hamming_pairs_sum(a, b) for a, b in sums]
    got = []
    for c in codes:
        w = c.n // 2 - 4 * (c.n // 8)
        if parity_class(c) is ParityClass.SINGLY_EVEN:
            want = coset_streamed_shadow(c)[w]
        else:  # the transform of a doubly even code is the code itself
            want = int(w == 0)
        got.append(_lowest_shadow_count(c))
        assert got[-1] == want, (c.n, w)
    assert got[-len(sums) :] == list(sums.values())
    assert {c.n % 8 for c, b in zip(codes, got) if b} == {0, 2, 4, 6}
    for a, b in ((3, 5), (0, 6)):
        c = extended_hamming_pairs_sum(a, b)
        assert c.k > 22
        assert list(weight_distribution(c).counts) == _histogram_words(c.rows, c.n)[0], (a, b)
        for w in _word_levels(c):
            assert codewords_of_weight(c, w) == walk_words(c, w), (a, b, w)


def assert_light_words_once(c, bases):
    span = span_set(c.rows)
    for top in range(1, c.n + 1):
        got = [int(v) for vals in _low_weight_words(bases, top) for v in vals]
        assert len(got) == len(set(got)), (c.n, top)
        assert set(got) <= span
        light = {v for v in span if 0 < v.bit_count() <= top}
        assert {v for v in got if v.bit_count() <= top} == light, (c.n, top)


def test_low_weight_words_over_two_bases():
    rng = random.Random(416)
    for n in range(8, 26, 2):
        c = random_self_dual_code(rng, n)
        bases = _disjoint_information_bases(c)
        assert len(bases) == 2
        assert_light_words_once(c, bases)


def test_low_weight_words_over_one_basis():
    rng = random.Random(419)
    for _ in range(8):
        n = rng.randrange(6, 17)
        c = LinearCode.from_int_rows(random_matrix_rows(rng, rng.randrange(n // 2 + 1, n), n), n)
        assert not is_self_dual(c)
        bases = _disjoint_information_bases(c)
        assert len(bases) == 1
        assert_light_words_once(c, bases)


def test_information_bases_are_reduced_once_per_code(monkeypatch):
    reduced = []
    rref_raw = wenum.rref_raw
    monkeypatch.setattr(wenum, "rref_raw", lambda *args: reduced.append(args) or rref_raw(*args))
    c = random_self_dual_code(random.Random(418), 32, steps=20)
    d = min_weight(c)
    for w in (d, d + 2):
        codewords_of_weight(c, w)
    assert len(reduced) == 1


def test_words_of_weight_match_the_distribution():
    codes = [named_code("C58_2"), named_code("D60_3")]
    codes.append(random_self_dual_code(random.Random(417), 48, steps=30))
    for c in codes:
        w = weight_distribution(c)
        d = w.min_weight
        for x in (d, d + 2):
            assert len(codewords_of_weight(c, x)) == w.counts[x], (c.n, x)


def test_weight_distribution_takes_gleason_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full enumeration of a large self-dual code")

    monkeypatch.setattr(wenum, "_histogram_words", refuse)
    c = extended_hamming_sum(6)
    w = weight_distribution(c)
    assert w.total == 2**24 and w.min_weight == 4
    assert w.counts[4] == 6 * 14


def test_shadow_transform_matches_coset_streaming():
    rng = random.Random(414)
    codes = [random_self_dual_code(rng, n) for n in range(10, 50, 6)]
    codes.append(named_code("C58_2"))
    checked = 0
    for c in codes:
        if parity_class(c) is not ParityClass.SINGLY_EVEN:
            continue
        assert list(shadow_distribution(c).counts) == coset_streamed_shadow(c), c.n
        checked += 1
    assert checked >= 6


def test_shadow_transform_of_doubly_even_code_is_itself():
    c = extended_hamming_sum(2)
    w = weight_distribution(c)
    assert _shadow_counts(c.n, w.counts) == w.counts


def corrupted(low, idx, delta):
    bad = list(low)
    bad[idx] += delta
    return bad


@pytest.mark.parametrize(
    "idx, delta, reason",
    [
        (0, 1, "total"),
        (3, 1, "does not reproduce"),
        (14, 10**6, "negative"),
        (10, 1, "shadow"),
        (12, -1, "shadow"),
        (2, 2, "negative"),
    ],
)
def test_gleason_rejects_corrupted_low_counts(idx, delta, reason):
    c = named_code("C58_1")
    low = gleason_low_counts(c)
    assert low[10] == 63 and low[12] == 3644
    with pytest.raises(IntegrityError, match=reason):
        _gleason_distribution(c.n, c.k, corrupted(low, idx, delta))


@pytest.mark.parametrize("name", ["C58_1", "D60_3"])
def test_gleason_rejects_a_wrong_shadow_head(name):
    # B_1 at length 58 and B_2 at length 60 are 0 on these codes
    c = named_code(name)
    low = gleason_low_counts(c)[:-2]
    assert _lowest_shadow_count(c) == 0
    with pytest.raises(IntegrityError):
        _gleason_distribution(c.n, c.k, low, [1])


def test_gleason_checks_its_shadow_against_the_head(monkeypatch):
    # a shadow transform off by one at the head weight is caught
    c = named_code("D60_3")
    low = gleason_low_counts(c)[:-2]
    transform = wenum._shadow_counts
    monkeypatch.setattr(
        wenum, "_shadow_counts", lambda n, counts: tuple(b + (j == 2) for j, b in enumerate(transform(n, counts)))
    )
    with pytest.raises(IntegrityError, match="does not reproduce"):
        _gleason_distribution(c.n, c.k, low, [0])


def test_gleason_needs_self_dual_shape():
    with pytest.raises(DomainError):
        _gleason_distribution(58, 28, [1] + [0] * 14)
    with pytest.raises(DomainError):
        _gleason_distribution(58, 29, [1] + [0] * 13)


def test_krawtchouk_table_matches_the_sums():
    for n in (2, 9, 26, 58):
        table = wenum._krawtchouk_table(n)
        assert table == tuple(
            tuple(krawtchouk(j, i, n) for i in range(n + 1)) for j in range(n + 1)
        )


def test_one_exact_transform_serves_the_shadow_and_macwilliams():
    # the registry's distributions take the Python-int product, the random
    # codes up to length 40 the int64 one
    rng = random.Random(1616)
    dists = {weight_distribution(named_code(name)) for name in known_code_names()}
    dists |= {weight_distribution(random_self_dual_code(rng, n)) for n in (8, 18, 26, 34, 40, 48, 64)}
    fits = [sum(w.counts) * math.comb(w.n, w.n // 2) < 1 << 63 for w in dists]
    assert any(fits) and not all(fits)
    table = {}
    for w in dists:
        n = w.n
        if n not in table:
            table[n] = [[krawtchouk(j, i, n) for i in range(n + 1)] for j in range(n + 1)]
        signed = [(-1) ** (i // 2) * a for i, a in enumerate(w.counts)]
        for coeffs in (list(w.counts), signed):
            want = [sum(a * row[i] for i, a in enumerate(coeffs)) for row in table[n]]
            assert wenum._krawtchouk_transform(n, coeffs) == want, n
        assert [b << (n // 2) for b in _shadow_counts(n, w.counts)] == want
        assert macwilliams_check(w, n // 2)
        assert not macwilliams_check(WeightDistribution(n, (w.counts[0] + 1,) + w.counts[1:]), n // 2)
        # sums past 2^63, which a wrapping int64 product would get wrong
        coeffs = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(n + 1)]
        want = [sum(a * row[i] for i, a in enumerate(coeffs)) for row in table[n]]
        assert wenum._krawtchouk_transform(n, coeffs) == want, n


def test_shadow_transform_rejects_inconsistent_distributions():
    # 1 + 2y^2 gives B = (-1, 6, -1)/2; 1 + 3y^2 gives B = (-1, 4, -1)
    for counts in ((1, 0, 2), (1, 0, 3)):
        with pytest.raises(IntegrityError):
            _shadow_counts(2, counts)
    assert _shadow_counts(2, (1, 0, 1)) == (0, 2, 0)


def test_shadow_transform_runs_once_per_distribution():
    # codes with one W share one cached transform; a failing transform is
    # not cached and raises on every call; the cache is bounded
    c = subtract_coordinates(build_four_circulant(CirculantPair.parse("0001000;1100101")), 11, 24)
    assert parity_class(c) is ParityClass.SINGLY_EVEN
    copies = [LinearCode(c.n, c.rows) for _ in range(3)]
    _shadow_counts.cache_clear()
    shadows = [shadow_distribution(x) for x in copies]
    assert len(set(shadows)) == 1
    info = _shadow_counts.cache_info()
    assert (info.misses, info.hits) == (1, 2) and info.maxsize is not None
    for _ in range(2):
        with pytest.raises(IntegrityError):
            _shadow_counts(2, (1, 0, 2))
    assert _shadow_counts.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# min_weight

def test_min_weight_agrees_with_distribution():
    rng = random.Random(409)
    for _ in range(30):
        n = rng.randrange(2, 20)
        c = LinearCode.from_int_rows(random_matrix_rows(rng, rng.randrange(1, 8), n), n)
        d = min_weight(c)  # first, so the scan runs rather than a read of W
        assert d == weight_distribution(c).min_weight


def test_min_weight_zero_code():
    with pytest.raises(DomainError):
        min_weight(LinearCode(4, ()))


def staged_min_weight(c, target=None):
    """The staged scan of c as a stack of one, with no shift."""
    stack = [np.array([b], dtype=np.uint64) for b in _disjoint_information_bases(c)]
    return int(_min_weight_staged(stack, c.n, target)[0])


def test_staged_min_weight_matches_histogram():
    """The level-by-level scan must agree with full enumeration."""
    rng = random.Random(410)
    for _ in range(6):
        rows = random_matrix_rows(rng, 24, 48)
        c = LinearCode.from_int_rows(rows, 48)
        if c.k < 20:
            continue
        expect = weight_distribution(c).min_weight
        assert staged_min_weight(c) == expect


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_table_representatives_cover_each_subset_once(n):
    k = 2 * n

    def shifted(subset):
        return frozenset(i - i % n + (i + 1) % n for i in subset)

    for w in range(1, min(4, k) + 1):
        covered = Counter()
        for rep in map(frozenset, wenum._orbit_table(k, n, w).T.tolist()):
            orbit, s = {rep}, rep
            for _ in range(n):
                s = shifted(s)
                orbit.add(s)
            covered.update(orbit)
        assert set(covered) == set(map(frozenset, combinations(range(k), w))), (n, w)
        assert set(covered.values()) == {1}, (n, w)


def test_block_shift_rotates_each_block():
    rng = random.Random(427)
    for m, width in ((1, 4), (3, 12), (7, 28), (16, 64), (5, 30)):
        words = [rng.getrandbits(width) for _ in range(20)]
        got = wenum._block_shift(np.array(words, dtype=np.uint64), m, width).tolist()
        for v, g in zip(words, got):
            expect = sum(1 << (i - i % m + (i + 1) % m) for i in range(width) if (v >> i) & 1)
            assert g == expect, (m, width)


def test_unshifted_scan_takes_one_code():
    rows = np.array([[0b011, 0b110]] * 2, dtype=np.uint64)
    with pytest.raises(DomainError):
        _min_weight_staged([rows], 3, None)
    assert _min_weight_staged([rows[:1]], 3, None).tolist() == [2]


def test_lone_code_past_the_word_bound_reads_its_distribution(monkeypatch):
    rng = random.Random(428)
    c = LinearCode.from_int_rows(random_matrix_rows(rng, 12, 30), 30)
    expect = weight_distribution(LinearCode(c.n, c.rows)).min_weight
    read = []
    distribution = wenum.weight_distribution
    monkeypatch.setattr(wenum, "weight_distribution", lambda code: read.append(code.k) or distribution(code))
    # level 2 holds C(k, 2) > k words, so the scan stops after level 1
    monkeypatch.setattr(wenum, "STACK_WORDS", c.k)
    assert expect > 2 * len(_disjoint_information_bases(c))
    assert staged_min_weight(LinearCode(c.n, c.rows)) == expect
    assert read == [c.k]


def test_level_words_walks_every_combination_once():
    rng = random.Random(415)
    k = 9
    rows = [rng.getrandbits(40) for _ in range(k)]
    levels = {w: sorted(reduce(xor, combo) for combo in combinations(rows, w)) for w in range(1, k + 1)}
    for top in range(1, k + 3):
        got = list(_level_words(rows, top))
        expect = sorted(v for w in range(1, min(top, k) + 1) for v in levels[w])
        assert sorted(v for vals in got for v in vals.tolist()) == expect, top
        # levels 1..top-2 come first, each whole
        for w in range(1, top - 1):
            assert sorted(got[w - 1].tolist()) == levels[w], (top, w)


def test_staged_min_weight_on_self_dual_direct_sum():
    # six extended-Hamming blocks: a [48, 24] self-dual code of weight 4
    e8 = LinearCode.from_strings(["11110000", "00111100", "00001111", "01010101"])
    rows = []
    for b in range(6):
        rows += [r << (8 * b) for r in e8.rows]
    c = LinearCode.from_int_rows(rows, 48)
    assert c.k == 24
    assert staged_min_weight(c) == 4
    assert min_weight(c) == 4


def test_min_weight_target_early_exit():
    c = code_from_words(random_self_dual_words(random.Random(3), 14), 14)
    got = min_weight(c, target=5)
    assert got < 5
    # an early exit must not be memoised as the exact minimum weight
    assert min_weight(c) == weight_distribution(c).min_weight


def test_staged_min_weight_bound_is_not_memoised():
    # k = 24 takes the staged scan; every generator row of both information
    # sets weighs more than d, so a high target stops it at level 1 with a
    # bound above d
    c = random_self_dual_code(random.Random(1), 48, steps=30)
    assert c.k > 22
    level_one = min(r.bit_count() for rows in _disjoint_information_bases(c) for r in rows)
    got = min_weight(c, target=c.n)
    assert got == level_one
    exact = min_weight(c)
    assert exact == weight_distribution(c).min_weight
    assert got > exact


def test_min_weight_target_scans_small_dimensions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full enumeration for a minimum weight")

    rng = random.Random(418)
    c = random_self_dual_code(rng, 30, steps=20)
    assert c.k <= 22
    words = span_set(c.rows)
    d = min(v.bit_count() for v in words if v)
    monkeypatch.setattr(wenum, "_histogram_words", refuse)
    assert min_weight(c, target=d + 2) < d + 2
    assert min_weight(c, target=d) == d
    assert min_weight(c) == d


def test_min_weight_target_bounds_on_fresh_codes():
    rng = random.Random(420)
    for _ in range(20):
        n = rng.randrange(4, 18)
        rows = random_matrix_rows(rng, rng.randrange(1, n), n)
        words = span_set(rows)
        if len(words) == 1:
            continue
        d = min(v.bit_count() for v in words if v)
        for target in range(1, n + 2):
            got = min_weight(LinearCode.from_int_rows(rows, n), target)
            assert got == d if got >= target else d <= got < target


def test_min_weight_budget():
    rows = [1 << i for i in range(35)]
    c = LinearCode.from_int_rows(rows, 70)
    with pytest.raises(ResourceLimitError):
        min_weight(c)


@pytest.mark.parametrize(
    "compute, what",
    [
        (weight_distribution, "weight distribution"),
        (shadow_distribution, "shadow distribution"),
        (min_weight, "minimum weight"),
        (lambda c: codewords_of_weight(c, 2), "codeword collection"),
        (signature, "signature"),
    ],
)
def test_dimension_budget_names_operation_and_limit(compute, what):
    c = LinearCode.from_int_rows([1 << i for i in range(35)], 64)
    with pytest.raises(ResourceLimitError, match=f"^{what} is limited to k <= 34, got k=35$"):
        compute(c)


def test_codewords_of_weight_small():
    rng = random.Random(412)
    for _ in range(15):
        n = rng.randrange(2, 16)
        c = LinearCode.from_int_rows(random_matrix_rows(rng, rng.randrange(1, 6), n), n)
        words = span_set(c.rows)
        for w in range(n + 1):
            expect = sorted(v for v in words if bin(v).count("1") == w)
            assert codewords_of_weight(c, w) == expect


def test_codewords_of_weight_two_basis_path():
    e8 = LinearCode.from_strings(["11110000", "00111100", "00001111", "01010101"])
    rows = []
    for b in range(6):
        rows += [r << (8 * b) for r in e8.rows]
    c = LinearCode.from_int_rows(rows, 48)
    got = codewords_of_weight(c, 4)
    # weight-4 words live inside a single block: 14 per block
    assert len(got) == 6 * 14
    per_block = sorted(v for v in span_set(e8.rows) if bin(v).count("1") == 4)
    expect = sorted(v << (8 * b) for b in range(6) for v in per_block)
    assert got == expect


def test_codewords_of_weight_past_length_64():
    rng = random.Random(421)
    c = LinearCode.from_int_rows(independent_rows(rng, 8, 70), 70)
    words = span_set(c.rows)
    for w in (1, 30, 35):
        assert codewords_of_weight(c, w) == sorted(v for v in words if v.bit_count() == w)
    big = LinearCode.from_int_rows([0b11 << i for i in range(0, 69, 3)], 70)
    assert big.k > 22
    with pytest.raises(ResourceLimitError, match="length 64"):
        codewords_of_weight(big, 4)


def walk_words(c, w):
    """The words of weight w, filtered from the low-weight walk."""
    vals = _low_weight_words(_disjoint_information_bases(c), w)
    return sorted(v for chunk in vals for v in chunk.tolist() if v.bit_count() == w)


def words_of(words, w):
    return sorted(v for v in words if v.bit_count() == w)


def pairs_code(pairs, n):
    """Disjoint coordinate pairs as rows: the words of weight 2j are the
    unions of j pairs, and there are no others."""
    rows = [(1 << a) | (1 << b) for a, b in pairs]
    return LinearCode.from_int_rows(rows, n), rows


def test_gleason_and_span_pass_agree_at_dimensions_17_to_22():
    rng = random.Random(1902)
    for n in range(34, 46, 2):
        c = random_self_dual_code(rng, n)
        assert c.k == n // 2 and is_self_dual(c)
        counts, shadow, _ = _gleason_counts(c)
        assert list(counts) == _histogram_words(c.rows, c.n)[0], n
        # weight_distribution takes the Gleason path from dimension 17 on
        assert weight_distribution(c).counts == counts and (c.memo.get("shadow") is None) == (not any(counts[2::4]))


def test_small_code_builds_its_span_once(monkeypatch):
    # up to dimension 16, and up to 22 for a code that is not self-dual or
    # is longer than 64, W, the signature's words, the incidence's words and
    # the words of weight d all come from one span pass, past length 64 and
    # over more than one 2^16-word chunk too
    passes, walks = [], []
    span, walk = wenum._span_lanes, wenum._low_weight_words
    monkeypatch.setattr(wenum, "_span_lanes", lambda rows, n, offset=0: passes.append(len(rows)) or span(rows, n, offset))
    monkeypatch.setattr(wenum, "_low_weight_words", lambda bases, top: walks.append(top) or walk(bases, top))
    rng = random.Random(1617)
    codes = [random_self_dual_code(rng, n) for n in (12, 18, 26, 30)]
    codes += [LinearCode.from_int_rows(independent_rows(rng, k, n), n) for k, n in ((7, 20), (15, 64), (17, 64), (12, 70), (18, 90))]
    # the first chunk, span(rows[:16]), holds levels [2, 4]; the second
    # adds 16 words of weight 2, so the running cap drops to 2 partway
    heavy = ((1 << 32) - 1) << 32
    drop = LinearCode.from_int_rows([(1 << i) | heavy for i in range(17)], 64)
    assert _levels(gray_weight_histogram(drop.rows[:16], 64), 64) == [2, 4]
    codes.append(drop)
    for c in codes:
        assert c.k <= 22 and (c.k <= 16 or c.n > 64 or not is_self_dual(c)), (c.n, c.k)
        passes.clear()
        walks.clear()
        signature(c)
        levels = _word_levels(c)
        next(_incidences([c], levels))
        counts = weight_distribution(c).counts
        codewords_of_weight(c, weight_distribution(c).min_weight)
        assert passes == [c.k] and walks == [], (c.n, c.k)
        for w in levels:
            assert np.array_equal(c.memo[("words", w)], _span_hits(c.rows, c.n, w)), (c.n, c.k, w)
        if c.k <= 18:
            words = span_set(c.rows)
            weights = Counter(v.bit_count() for v in words)
            assert list(counts) == [weights[i] for i in range(c.n + 1)]
            for w in levels:
                assert codewords_of_weight(c, w) == words_of(words, w), (c.n, c.k, w)
        # a class outside the levels comes from a span pass of its own below
        # dimension 16 and past length 64, and from a walk otherwise
        passes.clear()
        w = next(w for w in range(max(levels) + 1, c.n + 1) if counts[w])
        got = codewords_of_weight(c, w)
        assert (passes, walks) == (([c.k], []) if c.k < 16 or c.n > 64 else ([], [w])), (c.n, c.k)
        assert got == _ints(_span_hits(c.rows, c.n, w)) and len(got) == counts[w], (c.n, c.k, w)
        if c.k <= 18:
            assert got == words_of(words, w), (c.n, c.k, w)
    assert drop.memo[("words", 2)].shape == (136, 1)


def test_large_self_dual_code_walks_once(monkeypatch):
    # from dimension 17 on, W, the signature's words, the incidence's words
    # and the words of weight d all come from one walk to weight
    # 2(n//8) - 2; a level above that weight (10 in the [46,23] code, whose
    # walk stops at 8) takes one walk of its own
    walks = []
    walk = wenum._low_weight_words
    monkeypatch.setattr(wenum, "_low_weight_words", lambda bases, top: walks.append(top) or walk(bases, top))
    codes = [named_code(name) for name in ("C58_1", "D60_3")]
    codes.append(random_self_dual_code(random.Random(1900), 46, steps=30))
    codes += [random_self_dual_code(random.Random(1901), n) for n in (34, 44)]
    for c in codes:
        walks.clear()
        c = LinearCode(c.n, c.rows)
        assert c.k > 16
        top = 2 * (c.n // 8) - 2
        weight_distribution(c)
        levels = _word_levels(c)
        # W memoises exactly the levels its walk reaches
        above = [w for w in levels if w > top]
        assert [w for w in levels if ("words", w) in c.memo] == [w for w in levels if w <= top], c.n
        signature(c)
        next(_incidences([c], levels))
        d = weight_distribution(c).min_weight
        codewords_of_weight(c, d)
        # only the random codes have a level above their walk's top
        assert (c.n < 58) == bool(above), c.n
        assert walks == [top] + above, c.n
        assert d in levels and d <= top, c.n
        for w in levels:
            assert codewords_of_weight(c, w) == walk_words(c, w), (c.n, w)
        # a class outside the levels is filtered from a fresh walk
        w = max(top, *levels) + 2
        words = codewords_of_weight(c, w)
        assert walks == [top] + above + [w], c.n
        assert len(words) == weight_distribution(c).counts[w] and all(v.bit_count() == w for v in words)


def test_span_walk_and_oracle_agree_below_dimension_16():
    rng = random.Random(422)
    codes = [random_self_dual_code(rng, n) for n in (20, 26, 30)]
    codes += [LinearCode.from_int_rows(independent_rows(rng, k, n), n) for k, n in ((3, 9), (11, 33), (15, 47), (14, 64))]
    for c in codes:
        assert c.k <= 15 and c.n <= 64
        words = span_set(c.rows)
        d = min(v.bit_count() for v in words if v)
        for w in sorted({1, d, d + 1, d + 2, rng.randrange(1, c.n + 1)}):
            want = words_of(words, w)
            assert _ints(_span_hits(c.rows, c.n, w)) == walk_words(c, w) == want, (c.n, c.k, w)
            assert codewords_of_weight(LinearCode(c.n, c.rows), w) == want


def test_span_and_walk_agree_at_dimensions_17_to_22():
    # span_set holds 2^k Python ints, so it checks k <= 18 only
    rng = random.Random(423)
    for k, n in ((17, 34), (18, 40), (20, 44), (22, 48)):
        c = LinearCode.from_int_rows(independent_rows(rng, k, n), n)
        assert c.k == k
        words = span_set(c.rows) if k <= 18 else None
        d = min_weight(c)
        for w in (d, d + 1, d + 2):
            got = _ints(_span_hits(c.rows, n, w))
            assert got == walk_words(c, w) == codewords_of_weight(c, w), (n, k, w)
            if words is not None:
                assert got == words_of(words, w)
    c, rows = pairs_code([(i, i + 32) for i in range(22)], 64)
    for j in (1, 2, 3):
        want = sorted(reduce(xor, pick, 0) for pick in combinations(rows, j))
        assert _ints(_span_hits(c.rows, 64, 2 * j)) == walk_words(c, 2 * j) == want
        assert _ints(_span_hits(c.rows, 64, 2 * j + 1)) == []


def test_span_collects_words_past_length_64():
    rng = random.Random(424)
    for k, n in ((5, 65), (12, 100), (16, 128), (18, 97)):
        c = LinearCode.from_int_rows(independent_rows(rng, k, n), n)
        words = span_set(c.rows)
        present = sorted({v.bit_count() for v in words})
        for w in {present[1], present[len(present) // 2], present[-1], n}:
            assert codewords_of_weight(c, w) == words_of(words, w), (n, k, w)
    # k = 22: 22 pairs, each with one coordinate in either 64-bit lane
    c, rows = pairs_code([(3 * i, 3 * i + 64) for i in range(22)], 128)
    assert c.k == 22
    for j in (1, 2, 3, 21, 22):
        want = sorted(reduce(xor, pick, 0) for pick in combinations(rows, j))
        assert codewords_of_weight(c, 2 * j) == want
    assert codewords_of_weight(c, 5) == []


def test_small_codes_read_the_span_and_large_ones_the_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the other engine ran")

    survey = subtract_coordinates(build_four_circulant(CirculantPair.parse("0001000;1100101")), 11, 24)
    assert survey.k == 13
    monkeypatch.setattr(wenum, "_low_weight_words", refuse)
    assert len(codewords_of_weight(survey, 6)) == weight_distribution(survey).counts[6]
    monkeypatch.undo()
    big = named_code("C58_1")
    big = LinearCode(big.n, big.rows)
    assert big.k == 29
    monkeypatch.setattr(wenum, "_span_lanes", refuse)
    assert len(codewords_of_weight(big, 10)) == weight_distribution(big).counts[10]


# ---------------------------------------------------------------------------
# serialization

def test_csv_round_trip_omits_zero_rows():
    w = WeightDistribution(4, (1, 0, 2, 0, 1))
    text = w.to_csv()
    assert text == "weight,count\n0,1\n2,2\n4,1\n"
    assert WeightDistribution.from_csv(text, n=4) == w


def test_csv_infers_length_from_top_weight():
    w = WeightDistribution.from_csv("weight,count\n0,1\n3,4\n")
    assert w.n == 3 and w.counts == (1, 0, 0, 4)


def test_csv_rejects_bad_header_and_rows():
    with pytest.raises(ParseError):
        WeightDistribution.from_csv("w,c\n0,1\n")
    with pytest.raises(ParseError):
        WeightDistribution.from_csv("weight,count\n1;2\n")
    with pytest.raises(ParseError):
        WeightDistribution.from_csv("weight,count\n1,-2\n")
    with pytest.raises(ParseError):
        WeightDistribution.from_csv("weight,count\n9,1\n", n=4)
    with pytest.raises(ParseError, match="repeated weight 2") as err:
        WeightDistribution.from_csv("weight,count\n0,1\n2,3\n2,4\n")
    assert err.value.line == 4


def test_shadow_csv_round_trip():
    s = ShadowDistribution(5, (0, 2, 0, 0, 0, 2))
    assert ShadowDistribution.from_csv(s.to_csv(), n=5) == s


# ---------------------------------------------------------------------------
# MacWilliams check

def test_macwilliams_accepts_self_dual_codes():
    rng = random.Random(411)
    for n in (2, 8, 12, 14):
        c = code_from_words(random_self_dual_words(rng, n), n)
        assert macwilliams_check(weight_distribution(c), c.k)


def test_macwilliams_weight_one_pair_is_a_fixed_point():
    # A(y) = 1 + y on length 2 maps to itself under the transform
    assert macwilliams_check(WeightDistribution(2, (1, 1, 0)), 1)


def test_macwilliams_rejects_repetition_code():
    c = LinearCode.from_strings(["111"])
    assert not macwilliams_check(weight_distribution(c), 1)


def test_macwilliams_rejects_wrong_dimension():
    c = code_from_words(random_self_dual_words(random.Random(4), 10), 10)
    w = weight_distribution(c)
    assert macwilliams_check(w, 5)
    assert not macwilliams_check(w, 6)


# ---------------------------------------------------------------------------
# enumerator families

def dist60(a12, a14):
    counts = [0] * 61
    counts[0] = counts[60] = 1
    counts[12], counts[14] = a12, a14
    return WeightDistribution(60, tuple(counts))


def shadow60():
    counts = [0] * 61
    counts[14] = 2**29
    return ShadowDistribution(60, tuple(counts))


def dist58(a10, a12):
    counts = [0] * 59
    counts[0] = counts[58] = 1
    counts[10], counts[12] = a10, a12
    return WeightDistribution(58, tuple(counts))


def shadow58(b1):
    counts = [0] * 59
    counts[1] = b1
    counts[13] = 2**28 - b1
    return ShadowDistribution(58, tuple(counts))


def test_family_60_beta_form():
    got = classify_enumerator(dist60(2683, 32832), shadow60())
    assert got.family is FamilyTag.W60_1 and got.beta == 2 and got.gamma is None


def test_family_60_second_form():
    got = classify_enumerator(dist60(3451, 24128), shadow60())
    assert got.family is FamilyTag.W60_2
    assert got.beta is None and got.gamma is None


def test_family_60_overlap_resolved_by_second_coefficient():
    # A_12 = 3451 also fits the beta form when A_14 matches beta = 14
    got = classify_enumerator(dist60(3451, 33600 - 384 * 14), shadow60())
    assert got.family is FamilyTag.W60_1 and got.beta == 14


def test_family_60_unknown():
    got = classify_enumerator(dist60(2556, 33600), shadow60())
    assert got.family is FamilyTag.UNKNOWN
    assert "2556" in got.note


def test_family_58_first_form_needs_weight_one_shadow_vector():
    got = classify_enumerator(dist58(55, 5188), shadow58(1))
    assert got.family is FamilyTag.W58_1 and got.gamma == 55 and got.beta is None


def test_family_58_second_form():
    got = classify_enumerator(dist58(63, 3644), shadow58(0))
    assert got.family is FamilyTag.W58_2
    assert (got.beta, got.gamma) == (2, 104)


def test_family_58_beta_range_enforced():
    # beta = 3 solves the coefficient sum but is out of range
    a10 = 319 - 24 * 3 - 2 * 10
    a12 = 3132 + 152 * 3 + 2 * 10
    got = classify_enumerator(dist58(a10, a12), shadow58(0))
    assert got.family is FamilyTag.UNKNOWN


def test_families_derive_the_published_formulas():
    def counts(tag, **params):
        w, s = family_profile(tag, **params)
        assert w.counts[:10] == (1,) + (0,) * 9 and w.total == 2 ** (w.n // 2)
        return w.counts, s.counts

    for beta in range(4):
        a, _ = counts(FamilyTag.W60_1, beta=beta)
        assert (a[12], a[14]) == (2555 + 64 * beta, 33600 - 384 * beta)
    a, b = counts(FamilyTag.W60_2)
    assert (a[12], a[14], b[2], b[6]) == (3451, 24128, 1, 0)
    for gamma in (0, 1, 55, 82):
        a, b = counts(FamilyTag.W58_1, gamma=gamma)
        assert (a[10], a[12]) == (165 - 2 * gamma, 5078 + 2 * gamma)
        assert (b[1], b[5], b[9], b[13]) == (1, 0, gamma, 23918 - 10 * gamma)
    for beta in range(3):
        for gamma in (0, 1, 104):
            a, b = counts(FamilyTag.W58_2, beta=beta, gamma=gamma)
            assert (a[10], a[12]) == (319 - 24 * beta - 2 * gamma, 3132 + 152 * beta + 2 * gamma)
            assert (b[1], b[5], b[9]) == (0, beta, gamma)


def test_family_profile_rejects_wrong_parameters():
    with pytest.raises(DomainError):
        family_profile(FamilyTag.W58_1, beta=1)
    with pytest.raises(DomainError):
        family_profile(FamilyTag.W58_2, beta=3, gamma=0)
    with pytest.raises(IntegrityError, match="negative"):
        family_profile(FamilyTag.W58_1, gamma=83)  # A_10 < 0


def test_closed_form_shadow_basis_matches_the_krawtchouk_transform():
    rng = random.Random(415)
    for n in range(2, 17, 2):
        for _ in range(3):
            words = random_self_dual_words(rng, n)
            w = weight_distribution(code_from_words(words, n))
            coef = []
            for i in range(n // 8 + 1):
                coef.append(w.counts[2 * i] - sum(a * b[i] for a, b in zip(coef, wenum._gleason_basis(n))))
            got = [sum(a * b.get(y, 0) for a, b in zip(coef, _shadow_basis(n))) for y in range(n + 1)]
            assert tuple(got) == _shadow_counts(n, w.counts), n
            if any(x.bit_count() % 4 == 2 for x in words):
                direct = [0] * (n + 1)
                for v in shadow_set(words, n):
                    direct[v.bit_count()] += 1
                assert got == direct, n


def test_derived_families_match_published_codes():
    w, _ = family_profile(FamilyTag.W60_1, beta=2)
    assert w == weight_distribution(named_code("D60_3"))
    assert len(w.counts) == 61
    w, s = family_profile(FamilyTag.W58_2, beta=2, gamma=104)
    c = named_code("C58_1")
    assert (w, s) == (weight_distribution(c), shadow_distribution(c))
    w, _ = family_profile(FamilyTag.W58_1, gamma=55)
    assert macwilliams_check(w, 29)
    assert w.total == 2**29


def test_family_requires_catalogued_length():
    counts = [0] * 51
    counts[0] = 1
    counts[12] = 3
    with pytest.raises(DomainError):
        classify_enumerator(
            WeightDistribution(50, tuple(counts)), ShadowDistribution(50, tuple(counts))
        )


# ---------------------------------------------------------------------------
# shadow balance

def shadow58_with_b9(b1, b9):
    counts = [0] * 59
    counts[1] = b1
    counts[9] = b9
    counts[13] = 2**28 - b1 - b9
    return ShadowDistribution(58, tuple(counts))


def test_balance_holds_at_the_fixed_parameter():
    out = check_shadow_balance(dist58(55, 5188), shadow58_with_b9(1, 55), 10)
    assert out.status is BalanceStatus.HOLDS and out.note is None


def test_balance_fails_off_parameter():
    out = check_shadow_balance(dist58(57, 5186), shadow58_with_b9(1, 54), 10)
    assert out.status is BalanceStatus.FAILS


def test_balance_not_applicable_reasons():
    out = check_shadow_balance(dist60(2683, 32832), shadow60(), 12)
    assert out.status is BalanceStatus.NOT_APPLICABLE
    assert "2 mod 8" in out.note and "2 mod 4" in out.note
    out = check_shadow_balance(dist58(55, 5188), shadow58(0), 10)
    assert out.status is BalanceStatus.NOT_APPLICABLE
    assert "weight-1" in out.note


def test_balance_degenerate_two_weight_one_vectors():
    c = LinearCode.from_strings(["11"])
    out = check_shadow_balance(
        weight_distribution(c), shadow_distribution(c), min_weight(c)
    )
    assert out.status is BalanceStatus.FAILS
    assert "2 weight-1" in out.note


def test_solve_balance_unique():
    from fractions import Fraction

    assert solve_shadow_balance(165, -2, 0, 1) == Fraction(55)


def test_solve_balance_identical_and_parallel():
    assert solve_shadow_balance(5, 0, 5, 0) == "all"
    assert solve_shadow_balance(0, 1, 1, 1) is None


def test_extremal_thresholds():
    assert extremal_min_weight(58) == 10
    assert extremal_min_weight(60) == 12
    with pytest.raises(DomainError):
        extremal_min_weight(59)
