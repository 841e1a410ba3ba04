"""Acceptance gate: published-table reproduction, oracle agreement, closing invariants.

Each test covers one numbered criterion and prints a single verdict line.
Criterion 6 drives extended-scale searches and only runs when the
SDCODES_EXTENDED environment variable is set; everything else is default.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from sdcodes import (
    BalanceStatus,
    FamilyTag,
    LinearCode,
    ParityClass,
    are_equivalent,
    check_shadow_balance,
    classify,
    classify_enumerator,
    enumerate_self_dual_neighbors,
    is_self_dual,
    macwilliams_check,
    parity_class,
    shadow_distribution,
    signature,
    solve_shadow_balance,
    subtract_coordinates,
    verify_certificate,
    weight_distribution,
)
from sdcodes.cli import EXIT_OK, EXIT_RESOURCE, main as cli_main
from sdcodes.wenum import family_profile
from sdcodes.tables import (
    equivalent_pairs,
    expected_family,
    inequivalent_names,
    known_code_names,
    named_code,
    published_enumerator,
)
from oracles import (
    all_neighbor_codes,
    equivalent_by_all_permutations,
    random_self_dual_words,
    shadow_set,
    span_set,
    weight_histogram_direct,
)

TRACKED = []


def track(c):
    """Register a code for the closing invariant sweep."""
    TRACKED.append(c)
    return c


def verdict(num, note=""):
    tail = f"  ({note})" if note else ""
    print(f"criterion {num}: PASS{tail}")


# sha256 of the whole stdout of `sdcodes reproduce <table>`, every row and
# detail included; the extended-scale P3/P5 runs are not pinned
STDOUT_SHA256 = {
    "T1": "6d42082b85038f0f4ccebe27d3836482debbf9284611bfee159a0bebf95ddf2a",
    "Td10": "7d66e151ee14843b2bbc84c13bb8170822c6fc88a060650127e99bb28f2a9a89",
    "T2": "414c98af401efe0081bd18962b50abbd17b996f7a8fcb26cc1598c77f4ea724a",
    "Tnei2": "7b39b81e8372639dd17973fd97d5544ca3f7a93f8b3711d396851e11ec20a9a3",
    "T4": "756e7440e2e5f281f37dbcfa4103b02eeffde68902d0c105b2ca100cd478c596",
    "T5": "df50c99dc889ec7c0aaaf8e86b6ab0d0d04a721e612ca98c88f701e5dc34cd86",
    "T6": "bc06a87b9ef1290d9fbf7d2cc2efe087b7c12f28929b6dd73c161719470d200e",
}


def run_table(table, capsys, *extra):
    code = cli_main(["reproduce", table, *extra])
    out = capsys.readouterr().out
    if table in STDOUT_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[table], out
    summary = [ln for ln in out.strip().splitlines() if "\tsummary\t" in ln]
    return code, summary[-1] if summary else ""


def test_criterion_1_circulant_tables(capsys):
    code, summary = run_table("T1", capsys)
    assert code == EXIT_OK and summary == "T1\tsummary\t13/13"
    code, summary = run_table("Td10", capsys)
    assert code == EXIT_OK and summary == "Td10\tsummary\t13/13"
    verdict(1, "13 pairs at d=12 and 13 at d=10")


def test_criterion_2_named_distributions():
    for name, beta in (("D60_3", 2), ("J60_5", 6)):
        c = track(named_code(name))
        w = weight_distribution(c)
        want = published_enumerator(name)
        for wt, count in want.items():
            assert w.counts[wt] == count, f"{name} A_{wt}"
        assert w.counts[0] == 1 and w.min_weight == 12
        assert all(w.counts[i] == w.counts[60 - i] for i in range(61))
        got = classify_enumerator(w, shadow_distribution(c))
        assert got.beta == beta == expected_family(name).beta
    verdict(2, "D60_3 beta=2, J60_5 beta=6, all coefficients exact")


def test_criterion_3_neighbor_chains(capsys):
    want = {"T2": "7/7", "Tnei2": "5/5", "T4": "22/22", "T6": "25/25"}
    for table, tally in want.items():
        code, summary = run_table(table, capsys)
        assert code == EXIT_OK and summary == f"{table}\tsummary\t{tally}", table
    verdict(3, "59 chain rows rebuilt")


def test_criterion_4_subtraction_table(capsys):
    code, summary = run_table("T5", capsys)
    assert code == EXIT_OK and summary == "T5\tsummary\t19/19"
    verdict(4, "18 codes at (2,104), classes {12,6}")


# sha256 of the JSON list of the ten certificates' image lists, recorded
# while refinement rounds still ranked Python tuples: they must not move
PUBLISHED_CERTIFICATES_DIGEST = "98c854a3fbc3a0d900077c57aafddc8998aed57a16abaf8d32ac1dd4ae418d5c"


def test_criterion_5_published_equivalences():
    perms = []
    for left, right in equivalent_pairs():
        a, b = named_code(left), named_code(right)
        cert = are_equivalent(a, b)
        assert cert.equivalent, f"{left} ~ {right}"
        assert verify_certificate(a, b, cert)
        assert verify_certificate(b, a, cert.inverse())
        perms.append(list(cert.perm))
        track(a), track(b)
    assert len(perms) == 10
    assert hashlib.sha256(json.dumps(perms).encode()).hexdigest() == PUBLISHED_CERTIFICATES_DIGEST

    names = inequivalent_names()
    assert len(names) == 37
    sigs = {nm: signature(named_code(nm)) for nm in names}
    by_search = 0
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            if sigs[x] == sigs[y]:
                by_search += 1
                assert not are_equivalent(named_code(x), named_code(y)).equivalent, (x, y)
    verdict(5, f"10 certificates, 666 inequivalences ({by_search} needed search)")


def test_criterion_6_block15_class_counts(capsys):
    assert cli_main(["reproduce", "P3"]) == EXIT_RESOURCE
    assert cli_main(["reproduce", "P5"]) == EXIT_RESOURCE
    capsys.readouterr()
    if not os.environ.get("SDCODES_EXTENDED"):
        print("criterion 6: SKIP (set SDCODES_EXTENDED=1 to run the block-15 searches)")
        pytest.skip("extended-scale searches are opt-in")
    code, summary = run_table("P3", capsys, "--extended")
    assert code == EXIT_OK, summary
    code, summary = run_table("P5", capsys, "--extended")
    assert code == EXIT_OK, summary
    verdict(6, "13 classes at d=12, 113 at d=10")


def test_criterion_7_shadow_balance_solver():
    assert solve_shadow_balance(165, -2, 0, 1) == Fraction(55)
    assert solve_shadow_balance(5, 0, 5, 0) == "all"
    assert solve_shadow_balance(0, 1, 1, 1) is None
    for gamma in range(40, 70):
        outcome = check_shadow_balance(*family_profile(FamilyTag.W58_1, gamma=gamma), 10)
        assert (outcome.status is BalanceStatus.HOLDS) == (gamma == 55), gamma
    verdict(7, "unique root 55; synthetic profiles agree")


def test_criterion_8_oracle_agreement():
    rng = random.Random(602)
    shadow_checks = 0
    drawn = 0
    for _ in range(13):
        for n in range(2, 17, 2):
            words = random_self_dual_words(rng, n)
            c = track(LinearCode.from_int_rows(sorted(words), n))
            drawn += 1

            w = weight_distribution(c)
            assert list(w.counts) == weight_histogram_direct(c.row_ints(), n)

            if parity_class(c) is ParityClass.SINGLY_EVEN:
                hist = [0] * (n + 1)
                for v in shadow_set(words, n):
                    hist[v.bit_count()] += 1
                assert list(shadow_distribution(c).counts) == hist
                shadow_checks += 1

            mine = {
                tuple(sorted(span_set(nb.row_ints())))
                for nb in enumerate_self_dual_neighbors(c)
            }
            assert len(mine) == 2 * (2 ** (c.k - 1) - 1)
            assert mine == all_neighbor_codes(words, n)
    assert drawn >= 100 and shadow_checks >= 40

    for n, count in ((6, 4), (8, 4), (10, 2)):
        group = [
            track(LinearCode.from_int_rows(sorted(random_self_dual_words(rng, n)), n))
            for _ in range(count)
        ]
        home = {}
        for idx, cl in enumerate(classify(group)):
            for m in cl.members:
                home[id(m)] = idx
        for i in range(count):
            for j in range(i + 1, count):
                perm = equivalent_by_all_permutations(
                    span_set(group[i].row_ints()), span_set(group[j].row_ints()), n
                )
                assert (perm is not None) == (home[id(group[i])] == home[id(group[j])])
    verdict(8, f"{drawn} codes, {shadow_checks} shadow checks, classify matches brute force")


def test_criterion_9_invariant_sweep():
    codes = list(dict.fromkeys([named_code(nm) for nm in known_code_names()] + TRACKED))
    assert len(codes) >= 103
    shadow_rule_hits = 0
    for c in codes:
        w = weight_distribution(c)
        assert macwilliams_check(w, c.k), c.label()
        if not is_self_dual(c):
            continue
        assert all(w.counts[i] == 0 for i in range(1, c.n + 1, 2)), c.label()
        assert all(w.counts[i] == w.counts[c.n - i] for i in range(c.n + 1)), c.label()
        if parity_class(c) is ParityClass.SINGLY_EVEN and c.n % 8 == 2:
            s = shadow_distribution(c)
            assert all(
                count == 0 or wt % 4 == 1 for wt, count in enumerate(s.counts)
            ), c.label()
            shadow_rule_hits += 1
        if c.n >= 4:
            assert is_self_dual(subtract_coordinates(c, 1, 2)), c.label()
    assert shadow_rule_hits >= 43
    verdict(9, f"{len(codes)} codes swept, {shadow_rule_hits} shadow congruence checks")
