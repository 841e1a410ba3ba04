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
    _ranked,
    _rounds,
    _sorted_rows,
    _word_levels,
    are_equivalent,
    classification_report,
    classify,
    identity_certificate,
    signature,
    verify_certificate,
)
from sdcodes.tables import named_code
from sdcodes.wenum import codewords_of_weight, min_weight, weight_distribution
from oracles import (
    equivalent_by_all_permutations,
    key_fingerprint,
    maps_into_by_reduction,
    permute_bits,
    random_matrix_rows,
    random_self_dual_words,
    ranked_by_void_rows,
    refinement_rounds_by_tuples,
    sorted_by_row,
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
            facts = {"self dual", "weights", "shadow", "signature", ("words", signature(m).d)}
            if id(m) in targets:
                facts.add("parity checks")
            assert set(m.memo) == facts


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


def ranked_alone(keys):
    """`_ranked` on a stack of one code: that code's names and digest."""
    names, digests = _ranked(keys[None])
    return names[0], digests[0]


def ranked_by_definition(keys):
    """Names and digest of one code's key rows straight from their
    definition: ranks of the distinct rows in byte order, by one np.unique
    over void rows, and the fingerprint hashed one Python int at a time."""
    return ranked_by_void_rows(keys[None])[0], key_fingerprint(keys)


def test_ranks_name_key_rows_canonically():
    keys = np.array([[0, -1, 3], [0, -2, 3], [0, -1, 3], [1, 5, 7]], dtype=np.int16)
    names = ranked_alone(keys)[0]
    assert names[0] == names[2] != names[1] != names[3] != names[0]
    rng = random.Random(29)
    pool = np.array([[i % 3, i % 5, 9] for i in range(12)], dtype=np.int8)
    for rows in (keys, pool):
        order = list(range(len(rows)))
        rng.shuffle(order)
        moved_names, moved_digest = ranked_alone(rows[order])
        names, digest = ranked_alone(rows)
        assert moved_digest == digest
        assert moved_names.tolist() == names[order].tolist()
    # different multisets of rows: other rows, or the same rows counted otherwise
    assert ranked_alone(keys[:3])[1] != ranked_alone(keys[1:4])[1]
    assert ranked_alone(keys[[0, 0, 1]])[1] != ranked_alone(keys[[0, 1, 1]])[1]


def test_stacked_ranks_equal_each_code_ranked_alone():
    rng = np.random.default_rng(31)
    for dtype in (np.int8, np.int16):
        stack = rng.integers(-1, 3, size=(6, 40, 4)).astype(dtype)
        stack[1] = stack[0]  # one code twice
        stack[3, :25] = stack[2, 15:]  # rows that coincide across codes
        stack[5] = 300 if dtype == np.int16 else 7  # a single distinct row
        names, digests = _ranked(stack)
        assert names.shape == stack.shape[:2] and len(digests) == len(stack)
        for k, keys in enumerate(stack):
            alone_names, alone_digest = ranked_alone(keys)
            want_names, want_digest = ranked_by_definition(keys)
            assert names[k].tolist() == alone_names.tolist() == want_names.tolist()
            assert digests[k] == alone_digest == want_digest
        assert digests[0] == digests[1] != digests[2]


# one-byte rows of 1, 2 and 3 lanes, straddling the flat sort's 8 entries,
# and two-byte rows of 1, 2, 3 and 200 lanes, the last as wide as the
# coordinate keys of the length-58 codes
KEY_WIDTHS = ((np.int8, (7, 8, 9, 16, 17, 30)), (np.int16, (3, 4, 5, 8, 9, 800)))
# two-byte values past 255 reorder if a sort or a lane keeps only the low
# byte; word names of the length-58 codes reach 3707
KEY_VALUES = {np.int8: (-1, 0, 1, 2, 120), np.int16: (-1, 0, 1, 255, 256, 257, 511, 3707)}


def key_stack(rng, dtype, size, width):
    """A stack of key rows with one code twice and rows only one code has."""
    stack = rng.choice(KEY_VALUES[dtype], size=(size, 7, width)).astype(dtype)
    stack[size // 2, :3] = 119  # rows no other code has
    stack[-1] = stack[0]
    return stack


def test_integer_and_void_ranks_agree_at_every_stack_size():
    # every key width, stacks of 1, 2, 255, 256 and 257 codes: each code's
    # names and fingerprint are those it has alone and by definition
    rng = np.random.default_rng(1616)
    for dtype, widths in KEY_WIDTHS:
        for width in widths:
            for size in (1, 2, 255, 256, 257):
                stack = key_stack(rng, dtype, size, width)
                names, digests = _ranked(stack)
                assert names.shape == stack.shape[:2] and len(digests) == size
                assert names.tolist() == ranked_by_void_rows(stack).tolist()
                for k, keys in enumerate(stack):
                    alone_names, alone_digest = ranked_alone(keys)
                    want_names, want_digest = ranked_by_definition(keys)
                    assert names[k].tolist() == alone_names.tolist() == want_names.tolist()
                    assert digests[k] == alone_digest == want_digest
                assert digests[0] == digests[-1]
                assert size < 3 or digests[0] != digests[size // 2]


def test_sorted_rows_match_the_row_by_row_oracle():
    # the flat sort of short one-byte rows, the per-row sorts of the rest,
    # and the ranks of the sorted rows, against sorting one row at a time
    rng = np.random.default_rng(1620)
    for dtype, widths in KEY_WIDTHS:
        for width in widths:
            for size in (1, 2, 255, 256, 257):
                stack = key_stack(rng, dtype, size, width)
                want = sorted_by_row(stack)
                got = _sorted_rows(stack.copy())
                assert got.dtype == stack.dtype and np.array_equal(got, want)
                assert _ranked(got)[0].tolist() == ranked_by_void_rows(want).tolist()


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
    # classify compares each member with its class's first member; while
    # it runs, that tree is the union of the members' verified paths, and
    # ends at leaves, and a negative call adds no node to it
    classes = [[LinearCode(m.n, m.rows) for m in cl.members] for cl in neighbour_classes]
    firsts = [members[0] for members in classes]
    trees, negatives = {}, []
    compare = equivalence.are_equivalent

    def recorded_compare(a, b):
        before = dict(refinement_tree(b))
        cert = compare(a, b)
        if not cert.equivalent:
            assert refinement_tree(b) == before
            negatives.append(cert.distinct_reason)
        trees[id(b)] = dict(refinement_tree(b))
        return cert

    monkeypatch.setattr(equivalence, "are_equivalent", recorded_compare)
    classify([m for members in classes for m in members])
    monkeypatch.undo()
    assert "exhausted coordinate matching" in negatives
    for members, first in zip(classes, firsts):
        tree = trees.get(id(first), {})
        assert set(tree) == set().union(*(verified_path(m, first) for m in members[1:]))
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
    got = [(inc.word_coords[i], inc.coord_words[i], inc.dtype) for inc in stacks for i in range(len(inc.word_coords))]
    for (word_coords, coord_words, dtype), want in zip(got, alone, strict=True):
        assert np.array_equal(word_coords, want.word_coords[0]) and np.array_equal(coord_words, want.coord_words[0])
        assert dtype == want.dtype
    assert [path for inc in stacks for path in whole_paths(inc)] == [whole_paths(inc)[0] for inc in alone]


def test_classes_do_not_depend_on_the_block_size(neighbour_classes, monkeypatch):
    # the neighbour survey's codes, whose classification makes negative
    # calls and backtracks, classified with members refined in blocks and
    # with every member refined alone
    codes = [m for cl in neighbour_classes for m in cl.members]
    blocks = []
    first_paths = equivalence._first_paths

    def counted_first_paths(inc):
        blocks.append(len(inc.word_coords))
        yield from first_paths(inc)

    monkeypatch.setattr(equivalence, "_first_paths", counted_first_paths)
    runs = []
    for block_rows in (equivalence.BLOCK_ROWS, 1):
        monkeypatch.setattr(equivalence, "BLOCK_ROWS", block_rows)
        blocks.clear()
        classes = classify([LinearCode(c.n, c.rows) for c in codes])
        runs.append([(cl.representative.rows, [m.rows for m in cl.members], cl.certificates) for cl in classes])
        assert max(blocks) > 1 if block_rows > 1 else set(blocks) == {1}
    assert runs[0] == runs[1]
    assert sum(len(cl.members) for cl in neighbour_classes) == sum(len(members) for _, members, _ in runs[0])


def test_classify_refines_each_member_once(neighbour_classes, monkeypatch):
    # every member but the first of its signature bucket is compared, and
    # all its comparisons and backtracks share one first path
    codes = [m for cl in neighbour_classes for m in cl.members]
    blocks, passed = [], {}
    first_paths, compare = equivalence._first_paths, equivalence.are_equivalent

    def counted_first_paths(inc):
        blocks.append(len(inc.word_coords))
        yield from first_paths(inc)

    def recorded_compare(a, b):
        passed.setdefault(id(a), []).append(a.memo[equivalence._FIRST_PATH])
        return compare(a, b)

    def no_lazy_path(c):
        raise AssertionError("a member's path was refined again")

    monkeypatch.setattr(equivalence, "_first_paths", counted_first_paths)
    monkeypatch.setattr(equivalence, "are_equivalent", recorded_compare)
    monkeypatch.setattr(equivalence, "_lazy_path", no_lazy_path)
    classes = classify(codes)
    assert sorted(len(cl.members) for cl in classes) == [1, 7, 7, 10, 20, 70, 140, 255]
    assert sum(blocks) == len(passed) == len(codes) - len({signature(c) for c in codes})
    for paths in passed.values():
        assert paths[0] and all(path is paths[0] for path in paths)
    assert sum(len(paths) for paths in passed.values()) > sum(blocks)
    # no member keeps its path once its comparisons are done
    assert not any(equivalence._FIRST_PATH in c.memo for c in codes)


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
