import ast
import dataclasses
import hashlib
import importlib.util
import math
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import sdcodes
from sdcodes import (
    DomainError,
    IntegrityError,
    LinearCode,
    ParseError,
    ResourceLimitError,
    classify,
    is_self_dual,
    min_weight,
)
from sdcodes import circulant, wenum
from sdcodes.circulant import (
    CirculantPair,
    SearchRules,
    build_four_circulant,
    format_pairs,
    load_pairs,
    parse_pairs,
    save_pairs,
    search_four_circulant,
    search_orbits,
    self_dual_condition,
    _generator_ints,
    _orbit_tables,
    _search_range,
    _stacked_bases,
)

from oracles import circulant_rows, orbit_key, permute_bits, span_set, transposed_rows, word01


def pair(block, ra, rb):
    return CirculantPair(block, ra, rb)


def pair01(ra, rb):
    return CirculantPair.parse(f"{ra};{rb}")


# ---------------------------------------------------------------------------
# the circulant oracle, and CirculantPair.shifted against it

def test_circulant_unit_row_is_identity():
    assert circulant_rows(0b001, 3) == [0b001, 0b010, 0b100]


def test_circulant_all_ones():
    assert [word01(r, 3) for r in circulant_rows(0b111, 3)] == ["111", "111", "111"]


def test_circulant_shift_structure():
    rows = circulant_rows(0b0011, 4)
    assert [word01(r, 4) for r in rows] == ["1100", "0110", "0011", "1001"]


def test_circulant_commutes_with_rotation():
    rng = random.Random(420)
    for _ in range(20):
        n = rng.randrange(1, 12)
        v = rng.getrandbits(n)
        s = rng.randrange(n)
        shifted = pair(n, v, 0).shifted(s)
        assert shifted.ra == circulant_rows(v, n)[s] and shifted.rb == 0
        rotated_first = circulant_rows(shifted.ra, n)
        row_rotated = [circulant_rows(v, n)[(i + s) % n] for i in range(n)]
        assert rotated_first == row_rotated


# ---------------------------------------------------------------------------
# build_four_circulant

def test_build_block_one():
    c = build_four_circulant(pair01("1", "0"))
    assert (c.n, c.k) == (4, 2)
    assert {word01(r, 4) for r in c.rows} == {"1010", "0101"}


def test_build_matches_block_matrix_assembly():
    rng = random.Random(421)
    for _ in range(15):
        n = rng.randrange(1, 7)
        ra = rng.getrandbits(n)
        rb = rng.getrandbits(n)
        a = circulant_rows(ra, n)
        b = circulant_rows(rb, n)
        at = transposed_rows(a, n)
        bt = transposed_rows(b, n)
        rows = []
        for i in range(n):
            rows.append((1 << i) | (a[i] << (2 * n)) | (b[i] << (3 * n)))
        for i in range(n):
            rows.append((1 << (n + i)) | (bt[i] << (2 * n)) | (at[i] << (3 * n)))
        expect = LinearCode.from_int_rows(rows, 4 * n)
        assert build_four_circulant(CirculantPair(n, ra, rb)) == expect
        assert expect.k == 2 * n


# ---------------------------------------------------------------------------
# self_dual_condition

def test_condition_identity_pair():
    assert self_dual_condition(pair01("10000", "00000"))


def test_condition_matches_code_self_duality():
    rng = random.Random(422)
    hits = 0
    for _ in range(300):
        n = rng.randrange(1, 9)
        p = pair(n, rng.getrandbits(n), rng.getrandbits(n))
        got = self_dual_condition(p)
        assert got == is_self_dual(build_four_circulant(p))
        hits += got
    assert hits > 0


def test_condition_matches_gram_matrix_oracle_block_15():
    """MM^T = I checked directly on ten thousand random pairs."""
    rng = np.random.default_rng(423)
    n = 15
    mask = np.uint32((1 << n) - 1)
    ra = rng.integers(0, 1 << n, size=10_000, dtype=np.uint32)
    rb = rng.integers(0, 1 << n, size=10_000, dtype=np.uint32)

    def rot(a, s):
        s %= n
        return ((a << np.uint32(s)) | (a >> np.uint32(n - s))) & mask

    rows = []  # the 2n rows of M, without the identity part
    for i in range(n):
        rows.append(rot(ra, i).astype(np.uint64) | (rot(rb, i).astype(np.uint64) << np.uint64(n)))
    rat = sum(((ra >> np.uint32((n - j) % n)) & 1) << np.uint32(j) for j in range(n))
    rbt = sum(((rb >> np.uint32((n - j) % n)) & 1) << np.uint32(j) for j in range(n))
    for i in range(n):
        rows.append(rot(rbt, i).astype(np.uint64) | (rot(rat, i).astype(np.uint64) << np.uint64(n)))

    ok = np.ones(ra.shape, dtype=bool)
    for i in range(2 * n):
        for j in range(i, 2 * n):
            dot = np.bitwise_count(rows[i] & rows[j]) & 1
            ok &= dot == (1 if i == j else 0)

    got = np.array(
        [self_dual_condition(pair(n, int(x), int(y))) for x, y in zip(ra, rb)]
    )
    assert (got == ok).all()


# ---------------------------------------------------------------------------
# serialization

def test_pair_round_trip():
    p = pair01("110010", "001011")
    assert CirculantPair.parse(p.serialize()) == p


def test_pair_parse_errors():
    with pytest.raises(ParseError):
        CirculantPair.parse("1100")
    with pytest.raises(ParseError):
        CirculantPair.parse("110;10")
    with pytest.raises(ParseError):
        CirculantPair.parse("1a0;110")


def test_pair_file_round_trip(tmp_path):
    pairs = [pair01("101", "011"), pair01("111", "001")]
    path = tmp_path / "pairs.txt"
    save_pairs(path, pairs)
    assert load_pairs(path) == pairs
    assert parse_pairs(format_pairs(pairs)) == pairs


def test_parse_pairs_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_pairs("101;011\n1x1;011\n")


def test_pair_validates_lengths():
    with pytest.raises(DomainError):
        CirculantPair(3, 0b1000, 0b110)
    with pytest.raises(DomainError):
        CirculantPair(3, 0b001, -1)
    with pytest.raises(DomainError):
        CirculantPair(3, "100", 0b110)
    with pytest.raises(DomainError):
        CirculantPair(0, 0, 0)


# ---------------------------------------------------------------------------
# rules

def test_rules_for_target_bounds():
    assert SearchRules.for_target(12).weight_bound == 13
    assert SearchRules.for_target(10).weight_bound == 9
    assert SearchRules.for_target(4).weight_bound == 5
    assert SearchRules.for_target(12, congruence=3).weight_bound == 11


def test_rules_reject_even_congruence():
    with pytest.raises(DomainError):
        SearchRules(weight_bound=9, congruence=2)


# ---------------------------------------------------------------------------
# search

@lru_cache(maxsize=None)
def self_dual_pairs(block):
    """Every self-dual pair of the block with the min weight of its code."""
    out = []
    for ra in range(1 << block):
        for rb in range(1 << block):
            p = pair(block, ra, rb)
            if self_dual_condition(p):
                out.append((p, min_weight(build_four_circulant(p))))
    return out


def brute_force(block, d_target, rules):
    out = []
    for p, d in self_dual_pairs(block):
        if rules.weight_bound is not None and p.weight_sum < rules.weight_bound:
            continue
        if rules.congruence is not None and p.weight_sum % 4 != rules.congruence % 4:
            continue
        if rules.rb_last_one and not (p.rb >> (block - 1)) & 1:
            continue
        if d < d_target:
            continue
        out.append(p)
    out.sort(key=lambda q: (word01(q.ra, block), word01(q.rb, block)))
    return out


def test_search_block_two_equals_brute_force():
    rules = SearchRules.unrestricted()
    got = search_four_circulant(2, 2, rules)
    assert got == brute_force(2, 2, rules)
    assert got, "the weight-1 pairs give self-dual codes of weight 2"


def test_search_block_two_finds_the_weight_four_code():
    rules = SearchRules.unrestricted()
    got = search_four_circulant(2, 4, rules)
    assert got == brute_force(2, 4, rules)
    assert len(got) == 4
    for p in got:
        assert min_weight(build_four_circulant(p)) == 4


def test_search_block_three_with_default_rules():
    got = search_four_circulant(3, 2)
    assert got == brute_force(3, 2, SearchRules.for_target(2))
    for p in got:
        assert p.weight_sum % 4 == 1
        assert (p.rb >> 2) & 1


def test_search_block_four_both_congruences():
    for congruence in (1, 3):
        rules = SearchRules.for_target(4, congruence=congruence)
        assert search_four_circulant(4, 4, rules) == brute_force(4, 4, rules)


def test_search_results_verify():
    for p in search_four_circulant(4, 2):
        c = build_four_circulant(p)
        assert is_self_dual(c)
        assert min_weight(c) >= 2


@pytest.mark.parametrize("block,d", [(5, 4), (6, 4), (7, 6)])
def test_orbit_search_equals_brute_force(block, d):
    bound = SearchRules.for_target(d).weight_bound
    kept = 0
    for rules in (
        SearchRules.for_target(d),
        SearchRules.for_target(d, congruence=3),
        SearchRules(weight_bound=bound + 4),
        SearchRules.unrestricted(),
    ):
        got = search_four_circulant(block, d, rules)
        assert got == brute_force(block, d, rules)
        kept += len(got)
    assert kept


# sha256 of format_pairs under default rules, recorded from the search
# that walked every ra row; blocks 9 and 11 are the benchmark's digests
FULL_WALK_DIGESTS = {
    (8, 6): "97ef26e32347ef8c6dc6961bf2c9ea38e3e712f5759fd43f9f696e7947b3b618",
    (9, 8): "ea1752f014271560b04a54dc19def4f384cd567aa0b3428703d28bbc3d2a16bd",
    (10, 8): "10c1b0edda2aa6e943dcec83814790cf99af8cd8d54e5f391b119c03e1d43b0c",
    (11, 10): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


@pytest.mark.parametrize("block,d", sorted(FULL_WALK_DIGESTS))
def test_search_matches_the_full_walk_digest(block, d):
    text = format_pairs(search_four_circulant(block, d))
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_WALK_DIGESTS[block, d]


# (count, sha256 of format_pairs) under default rules, recorded from the
# search that scanned each candidate on its own; block 15 is P3's search
SCAN_DIGESTS = {
    (7, 6): (196, "84efbbb5497963c4d781243b283bf89f875cda4a15f2aa69988feed0a2c6d2ea"),
    (8, 8): (288, "3d2e37aebfa0cdaf848e7a52b1ab9bc92b4252d4664a4ffaacfa34806d4348b7"),
    (9, 6): (1944, "c006b912c09cb78f2783c9983813d0ec38860adb72c67cce9fb24a087b22b701"),
    (10, 8): (4568, "10c1b0edda2aa6e943dcec83814790cf99af8cd8d54e5f391b119c03e1d43b0c"),
    (11, 8): (26654, "89b6b1feba0e092addf07987edb6c4d148d4a49d4add7c2ec623108b40e5a3b7"),
    (15, 12): (28380, "da1befc2d4ddd5c51e13d267effb1928eb9ae93791c4e699e398fd0ee902411e"),
}


@pytest.mark.parametrize("block,d", sorted(SCAN_DIGESTS))
def test_search_matches_the_per_candidate_scan(block, d):
    pairs = search_four_circulant(block, d)
    text = format_pairs(pairs)
    assert (len(pairs), hashlib.sha256(text.encode()).hexdigest()) == SCAN_DIGESTS[block, d]


def load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_walk_digests_match_the_benchmark():
    for block, d, _, digest in load_perfbench("workloads").SEARCHES:
        assert FULL_WALK_DIGESTS[block, d] == digest


def test_benchmark_tracer_targets_resolve():
    for module_name, attr, _, scope in load_perfbench("spans").TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)
        if scope != "all":
            assert any(v is owner for v in vars(importlib.import_module(scope)).values())


def test_benchmark_library_calls_resolve():
    """Every attribute the benchmark jobs read off sdcodes, or off a module
    they import from it, exists."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = {"sdcodes": sdcodes}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sdcodes":
            for alias in node.names:
                owners[alias.asname or alias.name] = getattr(sdcodes, alias.name)
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in owners
    }
    assert ("sdcodes", "permuted_code") in used and ("circulant", "format_pairs") in used
    missing = sorted(f"{owner}.{attr}" for owner, attr in used if not hasattr(owners[owner], attr))
    assert not missing


def test_search_representative_partition_reassembles(monkeypatch):
    block, d = 7, 6
    rules = SearchRules.for_target(d)
    reps, _ = _orbit_tables(block)
    whole = _search_range(block, d, rules, 0, 1 << block)
    bounds = [0, int(reps[len(reps) // 3]), int(reps[2 * len(reps) // 3]), 1 << block]
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        part = _search_range(block, d, rules, lo, hi)
        assert all(lo <= ra < hi and ra in reps for ra, _ in part)
        parts.append(part)
    assert sum(parts, []) == whole
    assert whole, "the block-7 representatives keep hits"
    expect = search_four_circulant(block, d, rules), search_orbits(block, d, rules)
    # the orbit walk over these three parts gives the same pairs and orbits
    monkeypatch.setattr(circulant, "run_parts", lambda fn, jobs, threads: parts)
    assert (search_four_circulant(block, d, rules), search_orbits(block, d, rules)) == expect


def test_search_range_does_not_depend_on_the_stack_size(monkeypatch):
    block, d = 7, 6
    rules = SearchRules.for_target(d)
    whole = _search_range(block, d, rules, 0, 1 << block)
    assert whole
    seen = []
    scan = circulant._min_weight_staged
    monkeypatch.setattr(circulant, "_min_weight_staged", lambda bases, *rest, **kw: seen.append(len(bases[0])) or scan(bases, *rest, **kw))
    # one code and one representative per stack, then a few codes per stack
    for words in (1, 100):
        monkeypatch.setattr(wenum, "STACK_WORDS", words)
        assert _search_range(block, d, rules, 0, 1 << block) == whole
    assert seen[0] > 1, "the whole range is one stacked call"


def stacked_candidates(monkeypatch, block, d):
    """Each candidate (ra, rb) the search scans, with the scan's value."""
    got = []
    scan = circulant._min_weight_staged

    def record(bases, n, target, shift=None):
        best = scan(bases, n, target, shift)
        first = bases[0][:, 0].tolist()  # 1 | ra << 2n | rb << 3n
        mask = (1 << block) - 1
        got.extend(((r >> 2 * block) & mask, r >> 3 * block, b) for r, b in zip(first, best.tolist()))
        return best

    monkeypatch.setattr(circulant, "_min_weight_staged", record)
    search_four_circulant(block, d)
    monkeypatch.undo()
    return got


@pytest.mark.parametrize("block,d", [(3, 2), (4, 4), (5, 4), (6, 4), (7, 6), (8, 6), (9, 8)])
def test_stacked_scan_verdicts_match_full_enumeration(monkeypatch, block, d):
    """The orbit scan against the span pass, which shares no walk code."""
    got = stacked_candidates(monkeypatch, block, d)
    assert got and any(best >= d for _, _, best in got)
    for ra, rb, best in got:
        c = build_four_circulant(pair(block, ra, rb))
        true = next(w for w, x in enumerate(wenum._histogram_words(c.rows, c.n)[0]) if w and x)
        assert (best >= d) == (true >= d), (ra, rb)
        # a kept code's value is exact; a rejected one's is a real word's
        assert best == true if best >= d else true <= best < d, (ra, rb)


def test_stacked_bases_rotate_into_their_successors(monkeypatch):
    rng = random.Random(426)
    for n in range(1, 17):
        ras = np.array([rng.getrandbits(n) for _ in range(5)])
        rbs = np.array([rng.getrandbits(n) for _ in range(5)])
        first, second = _stacked_bases(n, ras, rbs)
        j = np.arange(2 * n)
        successor = j - j % n + (j + 1) % n
        for rows in (first, second):
            assert np.array_equal(wenum._block_shift(rows, n, 4 * n), rows[:, successor]), n
        for ra, rb, row in zip(ras.tolist(), rbs.tolist(), first.tolist()):
            assert row == _generator_ints(n, ra, rb), n
    # a corrupted basis row stops the search
    stacked = circulant._stacked_bases

    def corrupt(n, ras, rbs):
        first, second = stacked(n, ras, rbs)
        second = second.copy()
        second[-1, 3] ^= np.uint64(1 << (4 * n - 1))
        return first, second

    monkeypatch.setattr(circulant, "_stacked_bases", corrupt)
    with pytest.raises(IntegrityError):
        search_four_circulant(7, 6)


def test_search_threads_do_not_change_output():
    rules = SearchRules.for_target(2)
    assert search_four_circulant(5, 2, rules, threads=3) == search_four_circulant(
        5, 2, rules
    )


def test_search_two_threads_match_one_at_block_nine():
    assert search_four_circulant(9, 8, threads=2) == search_four_circulant(9, 8)
    assert search_orbits(9, 8, threads=2) == search_orbits(9, 8)


def test_search_budget():
    with pytest.raises(ResourceLimitError):
        search_four_circulant(17, 12)
    with pytest.raises(DomainError):
        search_four_circulant(0, 2)


def test_search_progress_reports_completion():
    seen = []
    search_four_circulant(3, 2, progress=lambda done, total: seen.append((done, total)))
    assert seen[-1] == (8, 8)


def test_threaded_search_progress_counts_rows():
    seen = []
    search_four_circulant(5, 4, threads=2, progress=lambda done, total: seen.append((done, total)))
    assert [done for done, _ in seen] == sorted(done for done, _ in seen)
    assert {total for _, total in seen} == {32}
    assert seen[-1] == (32, 32)


@pytest.mark.parametrize("threads", [1, 2])
def test_threaded_search_reports_progress_per_part(threads):
    seen = []
    got = search_four_circulant(9, 8, threads=threads, progress=lambda done, total: seen.append((done, total)))
    assert len(seen) > 2
    assert all(a < b for (a, _), (b, _) in zip(seen, seen[1:]))
    assert {total for _, total in seen} == {512}
    assert seen[-1] == (512, 512)
    assert got == search_four_circulant(9, 8, threads=1)


# ---------------------------------------------------------------------------
# shift equivalence

def test_shifting_a_pair_permutes_the_code():
    rng = random.Random(424)
    for _ in range(10):
        n = rng.randrange(2, 4)
        p = pair(n, rng.getrandbits(n), rng.getrandbits(n))
        s = rng.randrange(1, n)
        base = build_four_circulant(p)
        shifted = build_four_circulant(p.shifted(s))
        images = list(range(1, 4 * n + 1))
        for i in range(n):
            images[i] = (i - s) % n + 1
            images[n + i] = (i + s) % n + n + 1
        moved = {permute_bits(w, 4 * n, images) for w in span_set(base.rows)}
        assert moved == span_set(shifted.rows)


# ---------------------------------------------------------------------------
# the affine group i -> u*i + s and its orbits

def affine_image(v, n, u, s):
    return sum(1 << ((u * i + s) % n) for i in range(n) if (v >> i) & 1)


def affine_maps(n):
    return [(u, s) for u in range(n) if math.gcd(u, n) == 1 for s in range(n)]


@pytest.mark.parametrize("n", [1, 2, 5, 6, 8, 9])
def test_orbit_tables_match_explicit_orbits(n):
    least = {}
    for v in range(1 << n):
        least[v] = min(affine_image(v, n, u, s) for u, s in affine_maps(n))
    reps, sizes = _orbit_tables(n)
    expect = sorted(set(least.values()))
    assert reps.tolist() == expect
    assert sizes.tolist() == [sum(1 for x in least.values() if x == r) for r in expect]


def test_block_fifteen_has_368_orbits():
    reps, sizes = _orbit_tables(15)
    assert len(reps) == 368
    assert int(sizes.sum()) == 1 << 15


def test_multiplied_pair_gives_an_equivalent_code():
    n, u = 7, 3
    for p in search_four_circulant(n, 6)[:5]:
        moved = pair(n, affine_image(p.ra, n, u, 0), affine_image(p.rb, n, u, 0))
        images = [(u * (i % n)) % n + (i // n) * n + 1 for i in range(4 * n)]
        base = build_four_circulant(p)
        got = {permute_bits(w, 4 * n, images) for w in span_set(base.rows)}
        assert got == span_set(build_four_circulant(moved).rows)


@pytest.mark.parametrize("block,d", [(6, 4), (9, 8)])
def test_affine_orbits_give_the_shift_orbit_class_count(block, d):
    def classes(reps):
        codes = [build_four_circulant(p) for p in reps]
        return len(classify([c for c in codes if min_weight(c) == d])), len(reps)

    by_shift = {}
    for p in search_four_circulant(block, d):
        by_shift.setdefault(min(p.shifted(s).serialize() for s in range(block)), p)
    by_shift = classes([by_shift[k] for k in sorted(by_shift)])
    by_affine = classes(search_orbits(block, d)[0])
    assert by_affine[0] == by_shift[0]
    assert by_affine[1] < by_shift[1]


@pytest.mark.parametrize("block,d", [(5, 4), (6, 4), (7, 6), (8, 6), (9, 8), (10, 8)])
def test_search_orbits_match_the_orbit_key_oracle(block, d):
    """One pair per orbit: the first of its pairs in serialization order,
    orbits in order of the oracle's key, with each orbit's pair count."""
    pairs = search_four_circulant(block, d)
    reps, sizes = {}, {}
    for p in pairs:
        key = orbit_key(p)
        reps.setdefault(key, p)
        sizes[key] = sizes.get(key, 0) + 1
    got, got_sizes = search_orbits(block, d)
    assert got == [reps[k] for k in sorted(reps)]
    assert got_sizes == [sizes[k] for k in sorted(reps)]
    assert sum(got_sizes) == len(pairs)


def test_an_orbit_without_a_passing_pair_is_dropped():
    # every image of rb = 0 fails rb_last_one, so the hit (31, 0) names no orbit
    hits = _search_range(6, 4, SearchRules.for_target(4), 0, 1 << 6)
    assert (31, 0) in hits
    assert len({orbit_key(pair(6, ra, rb)) for ra, rb in hits}) == 22
    assert len(search_orbits(6, 4)[0]) == 21
    every_rb = dataclasses.replace(SearchRules.for_target(4), rb_last_one=False)
    assert len(search_orbits(6, 4, every_rb)[0]) == 22


@pytest.mark.parametrize("block,d,orbits,pairs,digest", [
    (8, 6, 36, 576, "f48a36a28377c7cc2e2258ac4cc682eda1666e0c3d41a7e3abbc983e4e0a4b05"),
    (9, 8, 36, 972, "a9bb6475bbb96d20624725bd71fc1346ee5102ae261cc3b97eb48377c0fbc88e"),
    (10, 8, 248, 4568, "790949234db96ba769878bbe81fcc237ca4f5b83ceb291abc37f6e5073dae72f"),
    (11, 8, 486, 26654, "51d6fcacc7470085b5568eb22298a0562305e2df3d5deb3afe548c25d3f789eb"),
    (15, 12, 438, 28380, "c2a68326dbd9db4c1807a071f0b5a54094d1e95aee41e5da203d27c9193412c3"),
    (15, 10, 5436, 324480, "7badc0798080d946e607704ce7592e2342c1731a474379b71835b7e73f89e1a8"),
])
def test_search_orbit_counts_and_representatives_are_pinned(block, d, orbits, pairs, digest):
    """(15, 12) and (15, 10) are the searches of P3 and P5."""
    reps, sizes = search_orbits(block, d)
    assert (len(reps), sum(sizes)) == (orbits, pairs)
    assert hashlib.sha256(format_pairs(reps).encode()).hexdigest() == digest


@pytest.mark.parametrize("block,d", [(7, 6), (8, 6), (9, 8)])
def test_transpose_basis_spans_the_code(block, d):
    n = block
    identity = [1 << (2 * n + i) for i in range(2 * n)]
    for p in search_four_circulant(block, d):
        ra, rb = p.ra, p.rb
        rows = _stacked_bases(n, np.array([ra]), np.array([rb]))[1][0].tolist()
        assert [r >> (2 * n) for r in rows] == [r >> (2 * n) for r in identity]
        code = LinearCode.from_int_rows(_generator_ints(n, ra, rb), 4 * n)
        assert LinearCode.from_int_rows(rows, 4 * n) == code


def test_search_builds_no_code(monkeypatch):
    def refuse(self):
        raise AssertionError("the search built a LinearCode")

    monkeypatch.setattr(LinearCode, "__post_init__", refuse)
    assert len(search_four_circulant(9, 8)) == 972
