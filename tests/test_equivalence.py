"""Equivalence testing: refinement search vs the all-permutations oracle."""

import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import groupby, islice
from pathlib import Path

import numpy as np
import pytest

import sdcodes
import sdcodes.codes as codes_module
import sdcodes.equivalence as equivalence
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
    _bits,
    _first_paths,
    _incidences,
    _lazy_path,
    _maps_into,
    _member_paths,
    _rounds,
    _stacked_bits,
    _verdicts,
    _word_counts,
    _word_levels,
    are_equivalent,
    classification_report,
    classify,
    identity_certificate,
    signature,
    verify_certificate,
)
from sdcodes.tables import circulant_table, named_code, subtraction_table
from sdcodes.wenum import codewords_of_weight, min_weight, weight_distribution
from oracles import (
    equivalent_by_all_permutations,
    maps_into_by_reduction,
    permute_bits,
    random_matrix_rows,
    random_self_dual_words,
    refinement_rounds_by_tuples,
    span_set,
    word01,
)


def incidence(c, levels):
    """The incidence of one code, a stack of one."""
    (inc,) = _incidences([c], levels)
    return inc


def rounds_alone(inc, colors):
    """`_rounds` of one code, a stack of one: (digest, colors) per round."""
    return [(digests.tobytes(), names[0].tolist()) for _, digests, names, _ in _rounds(inc, np.array([colors]))]


def whole_paths(inc):
    """Each code's whole first path, collected from `_first_paths`."""
    paths = [[] for _ in inc.word_coords]
    for depth in _first_paths(inc):
        for code, got in depth:
            paths[code].append(got)
    return paths


def lazy_whole_path(c):
    """One code's whole first path, read a depth at a time from `_lazy_path`."""
    depth = _lazy_path(c)
    path = [depth(0)]
    while path[-1][2] is not None:
        path.append(depth(len(path)))
    return path


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
        assert {permute_bits(w, 12, cert.perm) for w in span_set(a.rows)} == span_set(
            b.rows
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


def test_signature_blocks_are_bounded_by_the_length(monkeypatch):
    # length-128 codes with a single minimum-weight word: a block of
    # `_signatures` holds one n x n co-occurrence matrix per code, so it is
    # bounded by 2n rows a code, not by the one word each code stacks
    rng = random.Random(1627)
    a = LinearCode.from_int_rows([1] + random_matrix_rows(rng, 7, 128), 128)
    assert weight_distribution(a).counts[:2] == (1, 1)
    codes = [a] + [permuted_code(a, shuffled_images(rng, 128)) for _ in range(29)]
    stacked = []
    unpacked = equivalence._unpacked
    with monkeypatch.context() as mp:
        mp.setattr(equivalence, "_unpacked", lambda lanes, n: stacked.append(len(lanes)) or unpacked(lanes, n))
        sigs = equivalence._signatures(codes)
    size = equivalence.BLOCK_ROWS // 256
    assert 1 < size < len(codes) and sum(stacked) == len(codes) and max(stacked) == size
    assert sigs == [signature(LinearCode(c.n, c.rows)) for c in codes]
    classes = classify(codes)
    assert len(classes) == 1 and len(classes[0].members) == len(codes)


def test_certificate_inverse_and_compose():
    perm = EquivalenceCertificate((3, 1, 2))
    inv = perm.inverse()
    assert inv.perm == (2, 3, 1)
    assert perm.compose(inv).perm == (1, 2, 3)
    assert inv.compose(perm).perm == (1, 2, 3)
    with pytest.raises(DomainError):
        EquivalenceCertificate(None, distinct_reason="x").inverse()


def test_verify_certificate_needs_a_permutation():
    # (1, 1, 3, 4) sends 1100 to 1000, which lies in b, but the weight-2
    # and weight-1 codes are not equivalent
    a = LinearCode.from_strings(["1100"])
    b = LinearCode.from_strings(["1000"])
    for images in [(1, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3), (1, 2, 3, 4, 5)]:
        assert not verify_certificate(a, b, EquivalenceCertificate(images))
    assert verify_certificate(a, permuted_code(a, (3, 1, 2, 4)), EquivalenceCertificate((3, 1, 2, 4)))


def test_bits_unpack_rows_bit_by_bit():
    rng = random.Random(1621)
    for n in (1, 7, 8, 9, 26, 64, 65, 128):
        rows = random_matrix_rows(rng, 5, n) + [0, (1 << n) - 1]
        got = _bits(rows, n)
        assert got.dtype == np.float64
        assert got.tolist() == [[(r >> i) & 1 for i in range(n)] for r in rows]
    assert _bits([], 10).shape == (0, 10)


def test_certificates_agree_with_the_reduction_oracle():
    # true certificates, random permutations and single transpositions of
    # true certificates, on codes up to length 128 and of any dimension
    rng = random.Random(1511)
    codes = [
        survey_code(),
        code_from_words(random_self_dual_words(rng, 18, steps=8), 18),
        named_code("C58_1"),
        LinearCode.from_int_rows([0b11 << i for i in range(0, 128, 2)], 128),
    ]
    codes += [LinearCode.from_int_rows(random_matrix_rows(rng, k, n), n) for n, k in ((70, 9), (100, 60), (128, 40), (128, 127))]
    outcomes = {True: 0, False: 0}
    for a in codes:
        n = a.n
        images = shuffled_images(rng, n)
        b = permuted_code(a, images)
        perms = [tuple(images)] + [tuple(shuffled_images(rng, n)) for _ in range(4)]
        swaps = [rng.sample(range(n), 2) for _ in range(12)]
        if n == 128 and a.k == 64:  # swapping a pair's coordinates fixes the pairs code
            swaps += [(i, i + 1) for i in rng.sample(range(0, n, 2), 4)]
        for i, j in swaps:
            p = list(images)
            p[i], p[j] = p[j], p[i]
            perms.append(tuple(p))
        for p in perms:
            want = maps_into_by_reduction(a.rows, p, b.rows, n)
            assert verify_certificate(a, b, EquivalenceCertificate(p)) == want, (n, a.k)
            outcomes[want] += 1
        assert maps_into_by_reduction(a.rows, images, b.rows, n)
    assert outcomes[True] > len(codes) and outcomes[False] > len(codes)
    # a code of the same shape that is no permutation of a
    a, b = (LinearCode.from_int_rows(random_matrix_rows(rng, 30, 100), 100) for _ in range(2))
    assert not maps_into_by_reduction(a.rows, tuple(range(1, 101)), b.rows, 100)
    assert not verify_certificate(a, b, identity_certificate(100))


def test_stacked_membership_checks_agree_with_the_reduction_oracle():
    # stacks of codes of one shape, each with its own permutation into one
    # code b: true certificates, random permutations and transpositions
    rng = random.Random(1622)
    outcomes = {True: 0, False: 0}
    for _ in range(40):
        n = rng.randrange(2, 21)
        b = LinearCode.from_int_rows(random_matrix_rows(rng, rng.randrange(1, n + 1), n), n)
        members, perms = [], []
        for _ in range(rng.randrange(1, 9)):
            images = shuffled_images(rng, n)
            if rng.random() < 0.3:
                members.append(LinearCode.from_int_rows(random_matrix_rows(rng, b.k, n), n))
            else:
                members.append(permuted_code(b, [images.index(i) + 1 for i in range(1, n + 1)]))
            if rng.random() < 0.3:
                i, j = rng.sample(range(n), 2)
                images[i], images[j] = images[j], images[i]
            perms.append(images)
        kept = [(m, p) for m, p in zip(members, perms) if m.k == b.k] or [(b, perms[0])]
        members, perms = map(list, zip(*kept))
        got = _maps_into(_stacked_bits(members), np.array(perms), b).tolist()
        want = [maps_into_by_reduction(m.rows, p, b.rows, n) for m, p in zip(members, perms)]
        assert got == want
        for ok in want:
            outcomes[ok] += 1
    assert min(outcomes.values()) > 10


def test_a_stacked_membership_check_rejects_only_the_wrong_permutation():
    rng = random.Random(1623)
    b = survey_code()
    members, perms = [], []
    for _ in range(12):
        images = shuffled_images(rng, b.n)
        members.append(permuted_code(b, images))
        perms.append([images.index(i) + 1 for i in range(1, b.n + 1)])  # back into b
    for wrong in range(12):
        stack = [list(p) for p in perms]
        i, j = rng.sample(range(b.n), 2)
        stack[wrong][i], stack[wrong][j] = stack[wrong][j], stack[wrong][i]
        assert not maps_into_by_reduction(members[wrong].rows, stack[wrong], b.rows, b.n)
        want = [k != wrong for k in range(12)]
        assert _maps_into(_stacked_bits(members), np.array(stack), b).tolist() == want


def test_classify_rejects_a_composed_certificate_that_is_no_permutation(monkeypatch):
    # a member's certificate into its class's first member with one image
    # repeated: the composed certificates are no permutations, which is
    # caught even by a membership check that accepts every stack
    rng = random.Random(1624)
    a = code_from_words(random_self_dual_words(rng, 12, steps=6), 12)
    pool = [a] + [permuted_code(a, shuffled_images(rng, 12)) for _ in range(4)]
    verdicts_of = equivalence._verdicts

    def broken_verdicts(members, paths, b):
        got = verdicts_of(members, paths, b)
        perm = got[-1].perm
        got[-1] = EquivalenceCertificate((perm[1],) + perm[1:])
        return got

    assert len(classify(pool)) == 1
    monkeypatch.setattr(equivalence, "_verdicts", broken_verdicts)
    with pytest.raises(sdcodes.IntegrityError, match="composed certificate"):
        classify([LinearCode(c.n, c.rows) for c in pool])
    monkeypatch.setattr(equivalence, "_maps_into", lambda gens, images, b: np.ones(len(gens), bool))
    with pytest.raises(sdcodes.IntegrityError, match="composed certificate"):
        classify([LinearCode(c.n, c.rows) for c in pool])


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
    expect = min([a] + variants, key=lambda c: "\n".join(word01(r, 10) for r in c.rows))
    assert classes[0].representative == expect


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


# the same for the survey benchmark's code under one seeded permutation:
# 864 members in one class, recorded before members' first paths were
# refined in stacked blocks
SURVEY_REPORT_DIGEST = "d5deabbf2b650ba4ab5e2fe0022c9fc826755ac7770d3988712f21789dcd5743"


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


@pytest.fixture(scope="module")
def survey_classes():
    """The survey benchmark's code under one seeded permutation, surveyed
    at d >= 6, and the rows of every code whose self-duality was checked."""
    base = survey_code()
    images = list(range(1, base.n + 1))
    random.Random(13).shuffle(images)
    checked = []
    check = codes_module._rows_orthogonal
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes_module, "_rows_orthogonal", lambda rows: checked.append(rows) or check(rows))
        classes = extremal_neighbor_survey(permuted_code(base, images), 6)
    return classes, checked


def test_survey_classification_report_is_pinned(survey_classes):
    report = classification_report(survey_classes[0])
    assert [len(cl["members"]) for cl in report["classes"]] == [864]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == SURVEY_REPORT_DIGEST


def test_survey_checks_self_duality_once_per_code(survey_classes):
    classes, checked = survey_classes
    members = [m for cl in classes for m in cl.members]
    assert len(checked) == len(set(checked)) == len(members) + 1  # and the surveyed code
    assert {m.rows for m in members} < set(checked)


def test_survey_members_keep_only_their_facts(survey_classes):
    # no word matrix, incidence or refinement outlives classification; the
    # parity checks stay on the codes certificates were checked against
    for cl in survey_classes[0]:
        targets = {id(cl.members[0]), id(cl.representative)}
        for m in cl.members:
            facts = {"self dual", "parity class", "weights", "shadow", "signature", ("words", signature(m).d)}
            if id(m) in targets:
                facts.add("parity checks")
            assert set(m.memo) == facts


# the same for the 18 length-58 codes of T5, and for the 13 length-60
# codes of T1 each followed by a seeded permuted copy, recorded before
# refinement keys were named by multiset hashes
T5_REPORT_DIGEST = "e5f9f494bd0d236a4664fbb8c39bac66a242454d78afaa7a0446a0c2c532afd4"
T1_PAIRS_REPORT_DIGEST = "2e098dffb2dbf640f78aa895765d196b20390ee4cd65fb912a56ef2e590d9bde"


def report_digest(classes):
    return hashlib.sha256(json.dumps(classification_report(classes), sort_keys=True).encode()).hexdigest()


def test_length_58_and_60_classification_reports_are_pinned():
    classes = classify([named_code(row["name"]) for row in subtraction_table()["codes"]])
    assert [len(cl.members) for cl in classes] == [12, 6]
    assert report_digest(classes) == T5_REPORT_DIGEST
    rng = random.Random(1625)
    pool = []
    for row in circulant_table(12):
        c = named_code(row["name"])
        pool += [c, permuted_code(c, shuffled_images(rng, c.n), name=row["name"] + "'")]
    classes = classify(pool)
    assert [len(cl.members) for cl in classes] == [2] * 13
    assert report_digest(classes) == T1_PAIRS_REPORT_DIGEST


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
                got_a = rounds_alone(incidence(a, levels), colors_a)
                got_b = rounds_alone(incidence(b, levels), colors_b)
                assert [d for d, _ in got_a] == [d for d, _ in got_b]
                for (_, ca), (_, cb) in zip(got_a, got_b):
                    assert all(cb[img - 1] == ca[i] for i, img in enumerate(images))


def test_round_digests_do_not_depend_on_the_hash_seed():
    # classify may compare codes refined in different worker processes
    src = str(Path(sdcodes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import numpy as np\n"
        "from sdcodes.equivalence import _incidences, _rounds, _word_levels\n"
        "from sdcodes.tables import named_code\n"
        "c = named_code('C58_1')\n"
        "for _, digests, _, _ in _rounds(next(_incidences([c], _word_levels(c))), np.zeros((1, c.n), int)):\n"
        "    print(digests.tobytes().hex())\n"
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


def test_verdicts_stay_exact_when_every_key_hashes_alike(monkeypatch):
    # with a constant key hash, refinement splits no cell but the ones
    # individualizing makes, so nothing prunes the search: every path still
    # ends with discrete colors, verdicts agree with the all-permutations
    # oracle, every positive verifies, and the pairs below, with equal word
    # counts (the length-7 pair also with equal signatures), are told apart
    # only by exhausting the coordinate matching
    monkeypatch.setattr(equivalence, "_hashed", lambda values, salt: np.zeros(values.shape, np.uint64))
    rng = random.Random(1628)
    pairs = [
        (LinearCode.from_int_rows([57, 18, 20], 6), LinearCode.from_int_rows([33, 10, 20], 6)),
        (LinearCode.from_int_rows([9, 122, 44], 7), LinearCode.from_int_rows([49, 10, 116], 7)),
    ]
    assert signature(pairs[1][0]) == signature(pairs[1][1])  # so are_equivalent matches them too
    for _ in range(4):
        a = code_from_words(random_self_dual_words(rng, 8, steps=3), 8)
        pairs += [(a, code_from_words(random_self_dual_words(rng, 8, steps=3), 8))]
        pairs += [(a, permuted_code(a, shuffled_images(rng, 8)))]
    reasons = []
    for a, b in pairs:
        n = a.n
        path = lazy_whole_path(a)
        assert len(path) <= n and sorted(path[-1][1]) == list(range(n))
        cert = _verdicts([a], [_lazy_path(a)], b)[0]
        assert cert.equivalent == (equivalent_by_all_permutations(span_set(a.rows), span_set(b.rows), n) is not None)
        assert not cert or verify_certificate(a, b, cert)
        reasons.append(cert.distinct_reason)
    assert reasons[:2] == ["exhausted coordinate matching"] * 2 and None in reasons


def partition(colors):
    """Colors renamed by first occurrence: the partition they induce."""
    first = {}
    return [first.setdefault(col, len(first)) for col in colors]


def survey_code():
    """The survey benchmark's [26,13] code, before its seeded permutation."""
    return subtract_coordinates(build_four_circulant(CirculantPair.parse("0001000;1100101")), 11, 24)


def survey_survivors(count):
    """The first neighbours of d >= 6 of the survey benchmark's [26,13] code."""
    found = (nb for nb in enumerate_self_dual_neighbors(survey_code()) if min_weight(nb, target=6) >= 6)
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
        inc = incidence(c, levels)
        words = [codewords_of_weight(c, w) for w in levels]
        start = [0] * c.n
        start[rng.randrange(c.n)] = c.n
        for colors in ([0] * c.n, start):
            got = [partition(cols) for _, cols in rounds_alone(inc, colors)]
            want = [partition(cols) for _, cols in refinement_rounds_by_tuples(words, c.n, colors)]
            assert got == want


def refinement_tree(c):
    return c.memo.get(("refinement", tuple(_word_levels(c))), {})


def verified_path(a, b):
    """The nodes one comparison keeps, on a copy of b with an empty memo."""
    bare = LinearCode(b.n, b.rows)
    assert are_equivalent(a, bare).equivalent
    return set(refinement_tree(bare))


def test_memo_keeps_only_paths_that_ended_in_a_verified_leaf(neighbour_classes, monkeypatch):
    # classify matches blocks of members against each class's first member;
    # while it runs, that tree is the union of the members' verified paths,
    # and ends at leaves, a block adds only the nodes on its positive
    # members' verified paths, and a block with no positive adds none
    classes = [[LinearCode(m.n, m.rows) for m in cl.members] for cl in neighbour_classes]
    firsts = [members[0] for members in classes]
    trees, calls, negatives = {}, [], []
    verdicts_of = equivalence._verdicts

    def recorded_verdicts(members, paths, b):
        before = dict(refinement_tree(b))
        got = verdicts_of(members, paths, b)
        trees[id(b)] = dict(refinement_tree(b))
        calls.append((b, [m for m, cert in zip(members, got) if cert], before, trees[id(b)]))
        negatives.extend(cert.distinct_reason for cert in got if not cert)
        return got

    monkeypatch.setattr(equivalence, "_verdicts", recorded_verdicts)
    classify([m for members in classes for m in members])
    monkeypatch.undo()
    assert "exhausted coordinate matching" in negatives
    assert any(len(positives) > 1 for _, positives, _, _ in calls)
    kept = {id(m): verified_path(m, members[0]) for members in classes for m in members[1:]}
    for b, positives, before, after in calls:
        assert set(after) == set(before).union(*(kept[id(m)] for m in positives))
        assert all(after[path] == node for path, node in before.items())
    for members, first in zip(classes, firsts):
        tree = trees.get(id(first), {})
        assert set(tree) == set().union(*(kept[id(m)] for m in members[1:]))
        for path in tree:
            if not any(q[: len(path)] == path and q != path for q in tree):
                assert len(set(tree[path][1])) == first.n
    assert sum(len(trees.get(id(f), {})) > 1 for f in firsts) >= 4
    # a code with an empty memo stays without any node after a negative call
    exhausted = 0
    for x in firsts:
        for y in firsts:
            if x is y or signature(x) != signature(y):
                continue
            bare = LinearCode(y.n, y.rows)
            cert = are_equivalent(x, bare)
            assert not cert.equivalent
            exhausted += cert.distinct_reason == "exhausted coordinate matching"
            assert not refinement_tree(bare)
    assert exhausted


def test_classify_drops_refinement_trees():
    # the trees live on each class's first-seen member while classify
    # compares; none outlives it, and the certificates do not move
    c = code_from_words(random_self_dual_words(random.Random(2), 18, steps=8), 18)
    classes = extremal_neighbor_survey(c, 2)
    assert len(classes) == 8
    for cl in classes:
        for m in cl.members:
            assert not [key for key in m.memo if isinstance(key, tuple) and key[0] == "refinement"]
    report = classification_report(classes)
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == NEIGHBOUR_REPORT_DIGEST


def mixed_block():
    """Two inequivalent [16,8] codes of one incidence shape, whose paths
    differ in depth and in rounds per depth, and permuted copies of each."""
    rng = random.Random(1610)
    pool = [code_from_words(random_self_dual_words(rng, 16, steps=10), 16) for _ in range(77)]
    block = [pool[28], pool[76]]
    return block + [permuted_code(c, shuffled_images(rng, 16)) for c in (pool[28], pool[76], pool[76])]


def test_stacked_first_paths_equal_each_code_alone():
    block = mixed_block()
    levels = _word_levels(block[0])
    (stacked,) = _incidences(block, levels)  # one incidence shape, one stack
    alone = [whole_paths(incidence(c, levels))[0] for c in block]
    # and the same as one code's path refined lazily, a depth at a time
    assert whole_paths(stacked) == alone == [lazy_whole_path(c) for c in block]
    # one code stops refining a round before the others at depth 2, and
    # leaves the stack a depth before them
    assert len({len(path) for path in alone}) == 2
    assert {len(path[2][0]) for path in alone} == {1, 2}


def test_rounds_of_a_mixed_stack_equal_each_code_alone():
    # the block above from the colors its paths enter depth 2 with, where
    # one code stops a round before the others: round by round, each code
    # gets the digests and colors of a stack of itself, and stops once
    block = mixed_block()
    levels = _word_levels(block[0])
    (stacked,) = _incidences(block, levels)
    starts = []
    for path in whole_paths(stacked):
        _, colors, i = path[1]
        starts.append(colors[:i] + [len(colors)] + colors[i + 1 :])
    got = [[] for _ in block]
    stopped = []
    for at, digests, names, done in _rounds(stacked, np.array(starts)):
        assert len(at) == len(digests) == len(names) == len(done) and not set(at.tolist()) & set(stopped)
        for pos, digest, colors in zip(at.tolist(), digests, names):
            got[pos].append((digest.tobytes(), colors.tolist()))
        stopped += at[done].tolist()
    assert sorted(stopped) == list(range(len(block)))
    assert len({len(rounds) for rounds in got}) == 2
    for c, start, rounds in zip(block, starts, got):
        assert rounds == rounds_alone(incidence(c, levels), start)
        words = [codewords_of_weight(c, w) for w in levels]
        *_, (_, want) = refinement_rounds_by_tuples(words, c.n, start)
        assert partition(rounds[-1][1]) == partition(want)


def test_a_length_58_stack_refines_as_each_code_alone():
    # a length-58 code and a permuted copy, whose coordinate keys gather
    # hundreds of words each: stacked, each code gets round by round the
    # digests and colors it gets alone, and the same first path
    rng = random.Random(1629)
    a = LinearCode(58, named_code("C58_1").rows)
    images = shuffled_images(rng, a.n)
    block = [a, permuted_code(a, images)]
    levels = _word_levels(a)
    (stacked,) = _incidences(block, levels)
    assert stacked.coord_words.shape[2] > 500
    start = [0] * a.n
    start[rng.randrange(a.n)] = a.n
    moved = [0] * a.n
    for i, img in enumerate(images):
        moved[img - 1] = start[i]
    for colors in ([[0] * a.n] * 2, [start, moved]):
        got = [[] for _ in block]
        for at, digests, names, _ in _rounds(stacked, np.array(colors)):
            for pos, digest, row in zip(at.tolist(), digests, names):
                got[pos].append((digest.tobytes(), row.tolist()))
        assert got == [rounds_alone(incidence(c, levels), cols) for c, cols in zip(block, colors)]
        assert [d for d, _ in got[0]] == [d for d, _ in got[1]]
    assert whole_paths(stacked) == [whole_paths(incidence(c, levels))[0] for c in block]


def test_stacked_incidences_pad_each_code_as_alone():
    # random [12,6] codes with the same number of words in each level, but
    # not the same number of words through their busiest coordinate: a
    # wider pad would add -1 entries to a code's keys, and its rounds would
    # no longer match those of a code refined alone
    rng = random.Random(5)
    levels = [2, 3, 4, 5]
    pool = [LinearCode.from_int_rows(random_matrix_rows(rng, 6, 12), 12) for _ in range(160)]
    block = [
        c for c in pool
        if c.k == 6 and _word_levels(c) == levels
        and [weight_distribution(c).counts[w] for w in levels] == [1, 4, 7, 12]
    ]
    alone = [incidence(c, levels) for c in block]
    widths = [inc.coord_words.shape[2] for inc in alone]
    assert len(block) == 3 and len(set(widths)) == 2
    stacks = list(_incidences(block, levels))
    assert [len(inc.word_coords) for inc in stacks] == [len(list(run)) for _, run in groupby(widths)]
    got = [(inc.word_coords[i], inc.coord_words[i]) for inc in stacks for i in range(len(inc.word_coords))]
    for (word_coords, coord_words), want in zip(got, alone, strict=True):
        assert np.array_equal(word_coords, want.word_coords[0]) and np.array_equal(coord_words, want.coord_words[0])
    assert [path for inc in stacks for path in whole_paths(inc)] == [whole_paths(inc)[0] for inc in alone]


def verdict_rows(certs):
    return [(cert.perm, cert.distinct_reason) for cert in certs]


def assert_blocks_give_lone_verdicts(neighbour_classes):
    # each member matched in its block of `_member_paths` and as a block of
    # one: the same verdicts, reasons and permutations, and the same as
    # `are_equivalent` where the signatures agree
    targets = [cl.members[0] for cl in neighbour_classes]
    bucket = [m for cl in neighbour_classes for m in cl.members[1:] if signature(m) == signature(targets[0])]
    mixed = mixed_block()
    cases = [(targets, b) for b in targets] + [(bucket[::3], b) for b in targets] + [(mixed, b) for b in mixed]
    outcomes = set()
    for pool, b in cases:
        members = [LinearCode(c.n, c.rows) for c in pool]
        at, got = 0, []
        for paths in _member_paths(members):
            block = members[at : at + len(paths)]
            at += len(paths)
            assert len({_word_counts(c) for c in block}) == 1
            assert len(block) == 1 or equivalence.BLOCK_ROWS > 1
            got += _verdicts(block, [path.__getitem__ for path in paths], b)
        alone = [_verdicts([c], [_lazy_path(c)], LinearCode(b.n, b.rows))[0] for c in members]
        assert verdict_rows(got) == verdict_rows(alone)
        for c, cert in zip(members, got):
            if signature(c) == signature(b):
                assert verdict_rows([are_equivalent(c, b)]) == verdict_rows([cert])
            if cert:
                assert verify_certificate(c, b, cert)
            outcomes.add(cert.perm is not None and cert.perm != tuple(range(1, b.n + 1)) or cert.distinct_reason)
    assert {True, "exhausted coordinate matching", "weight class sizes"} <= outcomes


def test_classes_do_not_depend_on_the_block_size(neighbour_classes, monkeypatch):
    # the neighbour survey's codes, whose classification makes negative
    # calls and backtracks, classified with members refined and matched in
    # blocks and with every member alone; and each member's verdict in a
    # block is the one it gets alone
    codes = [m for cl in neighbour_classes for m in cl.members]
    blocks = []
    first_paths = equivalence._first_paths

    def counted_first_paths(inc):
        blocks.append(len(inc.word_coords))
        yield from first_paths(inc)

    runs = []
    for block_rows in (equivalence.BLOCK_ROWS, 1):
        monkeypatch.setattr(equivalence, "BLOCK_ROWS", block_rows)
        with monkeypatch.context() as mp:
            mp.setattr(equivalence, "_first_paths", counted_first_paths)
            blocks.clear()
            classes = classify([LinearCode(c.n, c.rows) for c in codes])
        runs.append([(cl.representative.rows, [m.rows for m in cl.members], cl.certificates) for cl in classes])
        assert max(blocks) > 1 if block_rows > 1 else set(blocks) == {1}
        assert_blocks_give_lone_verdicts(neighbour_classes)
    assert runs[0] == runs[1]
    assert sum(len(cl.members) for cl in neighbour_classes) == sum(len(members) for _, members, _ in runs[0])


def test_classify_refines_each_member_once(neighbour_classes, monkeypatch):
    # every member but the first of its signature bucket is matched, and
    # all its matches and backtracks share one first path
    codes = [LinearCode(m.n, m.rows) for cl in neighbour_classes for m in cl.members]
    blocks, passed = [], {}
    first_paths, verdicts_of = equivalence._first_paths, equivalence._verdicts

    def counted_first_paths(inc):
        blocks.append(len(inc.word_coords))
        yield from first_paths(inc)

    def recorded_verdicts(members, paths, b):
        for c, path in zip(members, paths):
            passed.setdefault(id(c), []).append(path.__self__)
        return verdicts_of(members, paths, b)

    def no_lazy_path(c):
        raise AssertionError("a member's path was refined again")

    monkeypatch.setattr(equivalence, "_first_paths", counted_first_paths)
    monkeypatch.setattr(equivalence, "_verdicts", recorded_verdicts)
    monkeypatch.setattr(equivalence, "_lazy_path", no_lazy_path)
    classes = classify(codes)
    assert sorted(len(cl.members) for cl in classes) == [1, 7, 7, 10, 20, 70, 140, 255]
    assert sum(blocks) == len(passed) == len(codes) - len({signature(c) for c in codes})
    for paths in passed.values():
        assert paths[0] and all(path is paths[0] for path in paths)
    assert sum(len(paths) for paths in passed.values()) > sum(blocks)
    # no member keeps its path once its comparisons are done
    held = {id(paths[0]) for paths in passed.values()}
    assert not any(id(value) in held for c in codes for value in c.memo.values())


def test_a_comparison_refines_a_no_deeper_than_it_searches(neighbour_classes, monkeypatch):
    # a's first path is refined a depth at a time, as the search reaches it:
    # a negative pruned at b's root refines a's root only, an exhausted one
    # no deeper than it searched, and a positive each depth once
    refined = []
    first_paths = equivalence._first_paths

    def counted_depths(inc):
        for depth in first_paths(inc):
            refined.append(depth)
            yield depth

    def depths(c):
        return list(first_paths(incidence(c, _word_levels(c))))

    monkeypatch.setattr(equivalence, "_first_paths", counted_depths)
    rng = random.Random(7)
    x, y = (code_from_words(random_self_dual_words(rng, 28, steps=8), 28) for _ in range(2))
    firsts = [cl.members[0] for cl in neighbour_classes]
    u, v = next((u, v) for u in firsts for v in firsts if u is not v and signature(u) == signature(v))
    for a, b, want in ((x, y, 1), (u, v, 3)):
        assert signature(a) == signature(b)
        refined.clear()
        assert are_equivalent(a, b).distinct_reason == "exhausted coordinate matching"
        assert len(refined) == want < len(depths(a))
    refined.clear()
    assert are_equivalent(u, permuted_code(u, shuffled_images(rng, u.n))).equivalent
    assert refined == depths(u)
