"""The numpy brute-force oracles against their plain loop definitions."""

import random
from itertools import permutations

import pytest

from sdcodes import LinearCode, codewords_of_weight
from sdcodes.equivalence import signature
from sdcodes.tables import named_code

from oracles import (
    all_neighbor_codes,
    dual_set,
    equivalent_by_all_permutations,
    incidence_and_cooccurrence,
    permute_bits,
    random_self_dual_words,
)


def loop_dual_set(words, n):
    return {
        v for v in range(1 << n) if all((v & w).bit_count() % 2 == 0 for w in words)
    }


def loop_neighbor_codes(code_words, n):
    out = set()
    for x in range(1, 1 << n):
        if x.bit_count() % 2 or x in code_words:
            continue
        sub = {w for w in code_words if (w & x).bit_count() % 2 == 0}
        out.add(tuple(sorted(sub | {w ^ x for w in sub})))
    return out


def loop_equivalent_by_all_permutations(words_a, words_b, n):
    if len(words_a) != len(words_b):
        return None
    for images in permutations(range(1, n + 1)):
        if all(permute_bits(w, n, images) in words_b for w in words_a):
            return images
    return None


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_neighbor_codes_match_the_loop(n):
    rng = random.Random(700 + n)
    for _ in range(3):
        words = random_self_dual_words(rng, n)
        assert all_neighbor_codes(words, n) == loop_neighbor_codes(words, n)


def test_neighbor_codes_of_a_code_that_is_not_self_dual():
    # rows of C meet x-perp differ in size, so the numpy pass groups them
    words = {0, 0b0011, 0b0110, 0b0101}
    assert all_neighbor_codes(words, 4) == loop_neighbor_codes(words, 4)


@pytest.mark.parametrize("n", [1, 3, 6, 9])
def test_dual_set_matches_the_loop(n):
    rng = random.Random(720 + n)
    cases = [set(), {0}, {(1 << n) - 1}]
    cases += [{rng.getrandbits(n) for _ in range(rng.randrange(1, 6))} for _ in range(4)]
    if n % 2 == 0:
        cases.append(random_self_dual_words(rng, n))
    for words in cases:
        assert dual_set(words, n) == loop_dual_set(words, n)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_permutation_search_returns_the_loop_answer(n):
    rng = random.Random(710 + n)
    for _ in range(4):
        wa = random_self_dual_words(rng, n, steps=3)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        moved = {permute_bits(w, n, images) for w in wa}
        other = random_self_dual_words(rng, n, steps=3)
        for wb in (moved, other, wa):
            got = equivalent_by_all_permutations(wa, wb, n)
            assert got == loop_equivalent_by_all_permutations(wa, wb, n)
    assert equivalent_by_all_permutations({0, 3}, {0}, 2) is None


def assert_signature_counts_match_the_loop(c):
    sig = signature(c)
    words = codewords_of_weight(c, sig.d)
    assert (sig.incidence_counts, sig.cooccurrence_counts) == incidence_and_cooccurrence(words, c.n)


@pytest.mark.parametrize("n", [2, 6, 10, 16, 20])
def test_signature_counts_match_the_loop_on_random_codes(n):
    rng = random.Random(730 + n)
    for _ in range(3):
        words = random_self_dual_words(rng, n)
        assert_signature_counts_match_the_loop(LinearCode.from_int_rows(sorted(words), n))


@pytest.mark.parametrize("name", ["C58_1", "D60_3", "J60_5"])
def test_signature_counts_match_the_loop_on_published_codes(name):
    assert_signature_counts_match_the_loop(named_code(name))
