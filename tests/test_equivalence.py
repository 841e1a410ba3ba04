"""Equivalence testing: refinement search vs the all-permutations oracle."""

import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import sdcodes
from sdcodes import (
    CirculantPair,
    DomainError,
    LinearCode,
    build_four_circulant,
    enumerate_self_dual_neighbors,
    extremal_neighbor_survey,
    permuted_code,
    subtract_coordinates,
)
from sdcodes.equivalence import (
    EquivalenceCertificate,
    _Incidence,
    _ranked,
    _rounds,
    _word_levels,
    are_equivalent,
    classification_report,
    classify,
    identity_certificate,
    signature,
    verify_certificate,
)
from sdcodes.tables import named_code
from sdcodes.wenum import codewords_of_weight, min_weight
from oracles import (
    equivalent_by_all_permutations,
    permute_bits,
    random_self_dual_words,
    refinement_rounds_by_tuples,
    span_set,
)


def code_from_words(words, n, name=None):
    return LinearCode.from_int_rows(sorted(words), n, name=name)


def shuffled_images(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return images


def test_identity_certificate_on_same_object():
    c = LinearCode.from_strings(["110000", "001100", "000011"])
    cert = are_equivalent(c, c)
    assert cert.perm == tuple(range(1, 7))
    assert verify_certificate(c, c, cert)


def test_dimension_zero_codes_are_equivalent():
    a = LinearCode.from_int_rows([], 5)
    b = LinearCode.from_int_rows([], 5)
    assert are_equivalent(a, b).equivalent


def test_shape_mismatch_is_an_argument_error():
    a = LinearCode.from_strings(["11"])
    b = LinearCode.from_strings(["1100", "0011"])
    with pytest.raises(DomainError):
        are_equivalent(a, b)


def test_permuted_code_yields_verified_certificate():
    rng = random.Random(20)
    for _ in range(12):
        words = random_self_dual_words(rng, 12, steps=4)
        a = code_from_words(words, 12)
        images = shuffled_images(rng, 12)
        b = permuted_code(a, images)
        cert = are_equivalent(a, b)
        assert cert.equivalent
        assert verify_certificate(a, b, cert)
        # the found permutation need not be the one applied, but it must
        # carry the full word set across
        assert {permute_bits(w, 12, cert.perm) for w in span_set(a.row_ints())} == span_set(
            b.row_ints()
        )


def test_agrees_with_all_permutations_oracle():
    rng = random.Random(21)
    seen_equal = seen_distinct = 0
    for _ in range(30):
        wa = random_self_dual_words(rng, 8, steps=3)
        wb = random_self_dual_words(rng, 8, steps=3)
        a = code_from_words(wa, 8)
        b = code_from_words(wb, 8)
        oracle = equivalent_by_all_permutations(wa, wb, 8)
        cert = are_equivalent(a, b)
        assert cert.equivalent == (oracle is not None)
        if cert.equivalent:
            seen_equal += 1
            assert verify_certificate(a, b, cert)
        else:
            seen_distinct += 1
            assert cert.distinct_reason
    assert seen_equal and seen_distinct


def test_oracle_agreement_at_length_ten():
    rng = random.Random(22)
    for _ in range(6):
        wa = random_self_dual_words(rng, 10, steps=4)
        wb = random_self_dual_words(rng, 10, steps=4)
        a = code_from_words(wa, 10)
        b = code_from_words(wb, 10)
        oracle = equivalent_by_all_permutations(wa, wb, 10)
        cert = are_equivalent(a, b)
        assert cert.equivalent == (oracle is not None)


def test_distinct_reason_names_a_separating_invariant():
    a = LinearCode.from_strings(["1100", "0011"])  # d = 2
    b = LinearCode.from_strings(["1110", "0111"])  # d = 2 but different profile
    cert = are_equivalent(a, b)
    assert not cert.equivalent
    assert cert.distinct_reason


def test_signature_is_permutation_invariant():
    rng = random.Random(23)
    words = random_self_dual_words(rng, 12, steps=5)
    a = code_from_words(words, 12)
    b = permuted_code(a, shuffled_images(rng, 12))
    assert signature(a) == signature(b)


def test_signature_separates_different_weight_profiles():
    a = LinearCode.from_strings(["1100", "0011"])  # weights 0,2,2,4
    b = LinearCode.from_strings(["1110", "1101"])  # weights 0,3,3,2
    assert signature(a) != signature(b)


def test_certificate_inverse_and_compose():
    perm = EquivalenceCertificate((3, 1, 2))
    inv = perm.inverse()
    assert inv.perm == (2, 3, 1)
    assert perm.compose(inv).perm == (1, 2, 3)
    assert inv.compose(perm).perm == (1, 2, 3)
    with pytest.raises(DomainError):
        EquivalenceCertificate(None, distinct_reason="x").inverse()


def test_certificate_inverse_carries_code_back():
    rng = random.Random(24)
    words = random_self_dual_words(rng, 10, steps=4)
    a = code_from_words(words, 10)
    b = permuted_code(a, shuffled_images(rng, 10))
    cert = are_equivalent(a, b)
    assert verify_certificate(b, a, cert.inverse())


def test_classify_partitions_and_is_order_invariant():
    rng = random.Random(25)
    base = [code_from_words(random_self_dual_words(rng, 10, steps=4), 10) for _ in range(4)]
    pool = list(base)
    for c in base:
        pool.append(permuted_code(c, shuffled_images(rng, 10)))
        pool.append(permuted_code(c, shuffled_images(rng, 10)))

    classes = classify(pool)
    as_sets = {frozenset(id(m) for m in cl.members) for cl in classes}

    rng.shuffle(pool)
    classes2 = classify(pool)
    as_sets2 = {frozenset(id(m) for m in cl.members) for cl in classes2}
    assert as_sets == as_sets2

    for cl in classes:
        for member, cert in zip(cl.members, cl.certificates):
            assert verify_certificate(member, cl.representative, cert)


def test_classify_picks_lexicographically_least_representative():
    rng = random.Random(26)
    words = random_self_dual_words(rng, 10, steps=4)
    a = code_from_words(words, 10)
    variants = [permuted_code(a, shuffled_images(rng, 10)) for _ in range(5)]
    classes = classify([a] + variants)
    assert len(classes) == 1
    expect = min([a] + variants, key=lambda c: "\n".join(c.gen.to_strings()))
    assert classes[0].representative.gen == expect.gen


def test_classify_rejects_mixed_parameters():
    a = LinearCode.from_strings(["1100", "0011"])
    b = LinearCode.from_strings(["110000", "001100", "000011"])
    with pytest.raises(DomainError):
        classify([a, b])


def test_classification_report_shape():
    a = LinearCode.from_strings(["1100", "0011"]).with_name("first")
    b = permuted_code(a, [2, 3, 4, 1], name="second")
    report = classification_report(classify([a, b]))
    assert set(report) == {"classes"}
    (cls,) = report["classes"]
    assert set(cls) == {"representative", "members", "permutations"}
    assert sorted(cls["members"]) == ["first", "second"]
    assert all(sorted(p) == [1, 2, 3, 4] for p in cls["permutations"])


def test_identity_certificate_helper():
    cert = identity_certificate(4)
    assert cert.perm == (1, 2, 3, 4)
    assert cert.equivalent and bool(cert)


# sha256 of the sorted-key JSON classification_report of the survey below,
# recorded before refinement became one-sided: certificates must not move
NEIGHBOUR_REPORT_DIGEST = "3322a111dcd6e0851847a36e5aba03db2671df068f9a1dfa4ec5d9fdfda124e7"


@pytest.fixture(scope="module")
def neighbour_classes():
    """The 510 neighbours of a [18,9] code in 8 classes; classifying them
    needs exhaustive negative searches and backtracking."""
    c = code_from_words(random_self_dual_words(random.Random(2), 18, steps=8), 18)
    return extremal_neighbor_survey(c, 2)


def test_neighbour_classification_report_is_pinned(neighbour_classes):
    report = classification_report(neighbour_classes)
    assert [len(cl["members"]) for cl in report["classes"]] == [70, 20, 255, 10, 140, 7, 7, 1]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == NEIGHBOUR_REPORT_DIGEST


def test_rounds_commute_with_permutations():
    rng = random.Random(27)
    for n in (8, 12, 16, 20):
        for _ in range(4):
            a = code_from_words(random_self_dual_words(rng, n, steps=6), n)
            images = shuffled_images(rng, n)
            b = permuted_code(a, images)
            levels = _word_levels(a)
            start = [0] * n
            start[rng.randrange(n)] = n
            moved = [0] * n
            for i, img in enumerate(images):
                moved[img - 1] = start[i]
            for colors_a, colors_b in ([[0] * n, [0] * n], [start, moved]):
                got_a = list(_rounds(_Incidence(a, levels), colors_a))
                got_b = list(_rounds(_Incidence(b, levels), colors_b))
                assert [d for d, _ in got_a] == [d for d, _ in got_b]
                for (_, ca), (_, cb) in zip(got_a, got_b):
                    assert all(cb[img - 1] == ca[i] for i, img in enumerate(images))


def test_ranks_name_key_rows_canonically():
    keys = np.array([[0, -1, 3], [0, -2, 3], [0, -1, 3], [1, 5, 7]], dtype=np.int16)
    names = _ranked(keys)[0]
    assert names[0] == names[2] != names[1] != names[3] != names[0]
    rng = random.Random(29)
    pool = np.array([[i % 3, i % 5, 9] for i in range(12)], dtype=np.int8)
    for rows in (keys, pool):
        order = list(range(len(rows)))
        rng.shuffle(order)
        moved_names, moved_digest = _ranked(rows[order])
        names, digest = _ranked(rows)
        assert moved_digest == digest
        assert moved_names.tolist() == names[order].tolist()
    # different multisets of rows: other rows, or the same rows counted otherwise
    assert _ranked(keys[:3])[1] != _ranked(keys[1:4])[1]
    assert _ranked(keys[[0, 0, 1]])[1] != _ranked(keys[[0, 1, 1]])[1]


def test_round_digests_do_not_depend_on_the_hash_seed():
    # classify may compare codes refined in different worker processes
    src = str(Path(sdcodes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "from sdcodes.equivalence import _Incidence, _rounds, _word_levels\n"
        "from sdcodes.tables import named_code\n"
        "c = named_code('C58_1')\n"
        "for digest, _ in _rounds(_Incidence(c, _word_levels(c)), [0] * c.n):\n"
        "    print(digest.hex())\n"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("1", "2")
    ]
    assert outs[0] == outs[1]
    assert len(outs[0].split()) == 3


def partition(colors):
    """Colors renamed by first occurrence: the partition they induce."""
    first = {}
    return [first.setdefault(col, len(first)) for col in colors]


def survey_survivors(count):
    """The first neighbours of d >= 6 of the survey benchmark's [26,13] code."""
    base = subtract_coordinates(build_four_circulant(CirculantPair.parse("0001000;1100101")), 11, 24)
    found = (nb for nb in enumerate_self_dual_neighbors(base) if min_weight(nb, target=6) >= 6)
    return list(islice(found, count))


def test_rounds_match_the_tuple_oracle_round_by_round():
    rng = random.Random(30)
    codes = [
        code_from_words(random_self_dual_words(rng, n, steps=6), n)
        for n in (8, 12, 16, 20)
        for _ in range(3)
    ]
    codes += survey_survivors(50)
    codes += [named_code(name) for name in ("C58_1", "D60_3", "J60_5")]
    for c in codes:
        levels = _word_levels(c)
        inc = _Incidence(c, levels)
        words = [codewords_of_weight(c, w) for w in levels]
        start = [0] * c.n
        start[rng.randrange(c.n)] = c.n
        for colors in ([0] * c.n, start):
            got = [partition(cols) for _, cols in _rounds(inc, colors)]
            want = [partition(cols) for _, cols in refinement_rounds_by_tuples(words, c.n, colors)]
            assert got == want


def refinement_tree(c):
    return c.memo.get(("refinement", tuple(_word_levels(c))), {})


def verified_path(a, b):
    """The nodes one comparison keeps, on a copy of b with an empty memo."""
    bare = LinearCode(b.n, b.rows)
    assert are_equivalent(a, bare).equivalent
    return set(refinement_tree(bare))


def test_memo_keeps_only_paths_that_ended_in_a_verified_leaf(neighbour_classes):
    # classify compares each member with its class's first member; that
    # tree is the union of the members' verified paths, and ends at leaves
    firsts = [cl.members[0] for cl in neighbour_classes]
    for cl, first in zip(neighbour_classes, firsts):
        tree = refinement_tree(first)
        assert set(tree) == set().union(*(verified_path(m, first) for m in cl.members[1:]))
        for path in tree:
            if not any(q[: len(path)] == path and q != path for q in tree):
                assert len(set(tree[path][1])) == first.n
    assert sum(len(refinement_tree(f)) > 1 for f in firsts) >= 4
    # a negative call keeps no node: a first member keeps its verified
    # paths, a code with an empty memo stays without any
    exhausted = 0
    for x in firsts:
        for y in firsts:
            if x is y or signature(x) != signature(y):
                continue
            before = dict(refinement_tree(y))
            cert = are_equivalent(x, y)
            assert not cert.equivalent
            exhausted += cert.distinct_reason == "exhausted coordinate matching"
            assert refinement_tree(y) == before
            bare = LinearCode(y.n, y.rows)
            assert not are_equivalent(x, bare).equivalent
            assert not refinement_tree(bare)
    assert exhausted
