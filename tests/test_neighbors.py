"""Neighbor constructions against the brute-force x-scan oracle."""

import random
import sys
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from sdcodes import (
    CirculantPair,
    DomainError,
    LinearCode,
    ResourceLimitError,
    build_four_circulant,
    classification_report,
    min_weight,
    parts,
    permuted_code,
    search_four_circulant,
    subtract_coordinates,
    wenum,
)
from sdcodes import neighbors
from sdcodes.neighbors import (
    NeighborDescriptor,
    enumerate_self_dual_neighbors,
    extremal_neighbor_survey,
    neighbor,
    neighbor_from_support,
    load_descriptors,
    save_descriptors,
)
from sdcodes.gf2core import parse01, pivots_of_rref_raw
from oracles import (
    all_neighbor_codes,
    random_self_dual_words,
    span_set,
    survey_by_membership,
    survey_by_min_weight,
)


def code_from_words(words, n):
    return LinearCode.from_int_rows(sorted(words), n)


STANDARD4 = LinearCode.from_strings(["1100", "0011"])


def word(text):
    return parse01(text)[1]


def test_neighbor_of_standard_length_four():
    out = neighbor(STANDARD4, word("1010"))
    assert span_set(out.rows) == {0b0000, 0b1111, 0b0101, 0b1010}


def test_neighbor_rejects_codeword():
    with pytest.raises(DomainError, match="not a proper neighbor"):
        neighbor(STANDARD4, word("1111"))


def test_neighbor_rejects_odd_weight():
    with pytest.raises(DomainError, match="odd"):
        neighbor(STANDARD4, word("1110"))


def test_neighbor_rejects_non_self_dual_base():
    c = LinearCode.from_strings(["1110"])
    with pytest.raises(DomainError, match="self-dual"):
        neighbor(c, word("1010"))


def test_neighbor_rejects_length_mismatch():
    with pytest.raises(DomainError, match="length"):
        neighbor(STANDARD4, word("101010"))


def test_neighbor_meets_base_in_codimension_one():
    rng = random.Random(31)
    for _ in range(10):
        c = code_from_words(random_self_dual_words(rng, 12, steps=4), 12)
        while True:
            x = rng.getrandbits(12)
            if x.bit_count() % 2 == 0 and x not in span_set(c.rows):
                break
        out = neighbor(c, x)
        assert len(span_set(out.rows) & span_set(c.rows)) == 2 ** (c.k - 1)
        assert ((1 << 12) - 1) in span_set(out.rows)


def test_neighbor_unchanged_by_orthogonal_codeword_shift():
    rng = random.Random(32)
    for _ in range(10):
        c = code_from_words(random_self_dual_words(rng, 10, steps=3), 10)
        words = span_set(c.rows)
        while True:
            x = rng.getrandbits(10)
            if x.bit_count() % 2 == 0 and x not in words:
                break
        ortho = [w for w in words if (w & x).bit_count() % 2 == 0]
        w = rng.choice(ortho)
        a = neighbor(c, x)
        b = neighbor(c, x ^ w)
        assert a == b


def test_neighbor_count_formula():
    """2 * (2^(n/2 - 1) - 1) neighbors: two per hyperplane through 1."""
    rng = random.Random(35)
    codes = [STANDARD4]
    codes += [code_from_words(random_self_dual_words(rng, n, steps=3), n) for n in (8, 10, 12)]
    for c in codes:
        assert len(list(enumerate_self_dual_neighbors(c))) == 2 * (2 ** (c.k - 1) - 1)


def test_degenerate_length_two_code_has_no_neighbors():
    c = LinearCode.from_strings(["11"])
    assert list(enumerate_self_dual_neighbors(c)) == []


def test_enumeration_count_at_length_eight():
    e8 = LinearCode.from_strings(
        ["11110000", "11001100", "10101010", "11111111"]
    )
    got = list(enumerate_self_dual_neighbors(e8))
    assert len(got) == 14
    sets = {tuple(sorted(span_set(nb.rows))) for nb in got}
    assert len(sets) == 14  # pairwise distinct as codes


def test_enumeration_matches_oracle_at_length_sixteen():
    rng = random.Random(33)
    c = code_from_words(random_self_dual_words(rng, 16, steps=5), 16)
    words = span_set(c.rows)
    expect = all_neighbor_codes(words, 16)
    got = [nb for nb in enumerate_self_dual_neighbors(c)]
    assert len(got) == 2 * (2**7 - 1)
    assert {tuple(sorted(span_set(nb.rows))) for nb in got} == expect


def test_survey_matches_brute_force_classification():
    rng = random.Random(35)
    c = code_from_words(random_self_dual_words(rng, 16, steps=5), 16)
    classes = extremal_neighbor_survey(c, 4)
    brute = [
        nb for nb in enumerate_self_dual_neighbors(c) if min_weight(nb) >= 4
    ]
    assert sum(len(cl.members) for cl in classes) == len(brute)
    reps = {tuple(sorted(span_set(cl.representative.rows))) for cl in classes}
    assert len(reps) == len(classes)


def survey_code():
    """The survey benchmark's [26,13] code under one seeded permutation."""
    base = subtract_coordinates(build_four_circulant(CirculantPair.parse("0001000;1100101")), 11, 24)
    images = list(range(1, base.n + 1))
    random.Random(13).shuffle(images)
    return permuted_code(base, images)


def survey_window(rows, n, d_min, lo, hi):
    """The survey's survivors over the functionals lo..hi-1."""
    light = neighbors._light_hits(rows, n, d_min, lo, hi)
    return [] if light is None else neighbors._survey_range(rows, n, *light, lo, hi)


def test_survey_range_matches_the_min_weight_oracle():
    """Same survivors, same order, as building every neighbour and reading
    its minimum weight: whole ranges and windows that cut the parts."""
    rng = random.Random(41)
    for trial in range(120):
        n = rng.randrange(6, 21, 2)
        c = code_from_words(random_self_dual_words(rng, n, steps=rng.randrange(1, 8)), n)
        d_min = 2 + trial % 9
        top = 1 << c.k
        if trial % 2:
            lo, hi = 1, top
        else:
            lo = rng.randrange(1, top)
            hi = rng.randrange(lo, top + 1)
        got = survey_window(c.rows, n, d_min, lo, hi)
        assert got == survey_by_min_weight(c.rows, n, d_min, lo, hi)


@pytest.mark.parametrize("d_min", [4, 6, 8])
def test_survey_range_matches_the_oracle_on_the_survey_code(d_min):
    c = survey_code()
    got = survey_window(c.rows, c.n, d_min, 1, 1 << c.k)
    assert got == survey_by_min_weight(c.rows, c.n, d_min, 1, 1 << c.k)
    assert len(got) == {4: 7868, 6: 864, 8: 0}[d_min]


def test_rains_bound():
    # met by the [22,11,6] shortened Golay code, the [24,12,8] Golay code
    # and the registry's [60,30,12] codes
    assert [neighbors._rains_bound(n) for n in (2, 22, 24, 26, 46, 58, 60)] == [4, 6, 8, 8, 10, 12, 12]


def test_survey_above_the_rains_bound_walks_nothing(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked the light vectors")

    monkeypatch.setattr(neighbors, "_level_words", no_walk)
    c = survey_code()
    assert survey_window(c.rows, c.n, 9, 1, 1 << c.k) == []
    assert extremal_neighbor_survey(c, 100) == []
    with pytest.raises(AssertionError, match="walked"):
        survey_window(c.rows, c.n, 8, 1, 1 << c.k)


def pairs_code(n):
    """The self-dual [n, n/2, 2] code spanned by the coordinate pairs."""
    return LinearCode.from_int_rows([0b11 << i for i in range(0, n, 2)], n)


def test_survey_over_the_memory_limit_fails_before_walking(monkeypatch):
    """At length 60 a walk to weight 10 passes the limit, extended or not;
    above Rains' bound nothing is walked, so nothing is refused."""
    def no_walk(*args):
        raise AssertionError("walked the light vectors")

    monkeypatch.setattr(neighbors, "_level_words", no_walk)
    with pytest.raises(ResourceLimitError, match="MiB"):
        extremal_neighbor_survey(pairs_code(60), 12, extended=True)
    assert neighbors._walk_bytes(60, 10) > 1 << neighbors.SURVEY_MEMORY_LOG
    assert extremal_neighbor_survey(pairs_code(60), 14, extended=True) == []


def test_light_walk_stays_within_its_estimate():
    """A [32,16,8] code has no light codeword, so d_min 8 walks to weight 6
    in full."""
    c = build_four_circulant(search_four_circulant(8, 8)[0])
    assert min_weight(c) == 8
    tracemalloc.start()
    try:
        system, hits = neighbors._light_hits(c.rows, c.n, 8, 1, 1 << c.k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    light = sum(comb(c.n, w) for w in (2, 4, 6))
    assert system == [] and sum(map(len, hits)) == light
    assert peak <= neighbors._walk_bytes(c.n, 6) + 16 * light


def test_walk_stops_once_no_hyperplane_is_free(monkeypatch):
    """At d_min 8 the survey code's light codewords leave <p, w> = 1 with
    no solution partway through the walk to weight 6, which stops there."""
    level_words = neighbors._level_words
    walked = []

    def counted(rows, top):
        for vals in level_words(rows, top):
            walked.append(len(vals))
            yield vals

    monkeypatch.setattr(neighbors, "_level_words", counted)
    c = survey_code()
    assert neighbors._light_hits(c.rows, c.n, 8, 1, 1 << c.k) is None
    whole = 2 * sum(map(len, level_words([1 << i for i in range(c.n)], 6)))
    assert 0 < sum(walked) < whole / 2


def random_code_past_length_64(rng, n):
    """A self-dual [n, n/2] code with one weight-2 word: a random code of
    length n-2 from neighbour steps, beside the pair {n-1, n}, permuted."""
    c = LinearCode.from_int_rows([0b11 << i for i in range(0, n, 2)], n)
    for _ in range(30):
        x = rng.getrandbits(n - 2)
        if x.bit_count() % 2 == 0:
            try:
                c = neighbor(c, x)
            except DomainError:  # x lies in c
                pass
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return permuted_code(c, images)


def test_survey_range_past_length_64_matches_the_membership_oracle():
    """Two 64-bit lanes.  Each window is centred on the syndrome w of a
    weight-2 vector with <p, w> = 1 for the weight-2 codeword, so that
    some neighbours survive and some do not."""
    rng = random.Random(43)
    n = 66
    c = random_code_past_length_64(rng, n)
    pivots = pivots_of_rref_raw(c.rows)

    def syndrome(v):
        return sum(((v & r).bit_count() % 2) << j for j, r in enumerate(c.rows))

    pairs = [(1 << a) | (1 << b) for a, b in combinations(range(n), 2)]
    light = [v for v in pairs if syndrome(v) == 0]
    assert len(light) == 1
    p = sum(((light[0] >> q) & 1) << j for j, q in enumerate(pivots))
    for v in rng.sample([v for v in pairs if (syndrome(v) & p).bit_count() % 2], 2):
        lo = syndrome(v) - 16
        got = survey_window(c.rows, n, 4, lo, lo + 32)
        assert got == survey_by_membership(c.rows, n, 4, lo, lo + 32)
        assert 0 < len(got) < 32


def test_survey_builds_only_surviving_hyperplanes(monkeypatch):
    """One _hyperplane_pair call per hyperplane with a survivor, and no
    minimum-weight scan anywhere in the survey."""
    original = wenum.min_weight

    def no_scan(*args, **kwargs):
        raise AssertionError("min_weight called")

    for name, module in list(sys.modules.items()):
        if name.startswith("sdcodes"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, no_scan)
    built = []
    pair = neighbors._hyperplane_pair

    def counted(rows, pivots, n, w):
        built.append((w, pair(rows, pivots, n, w)))
        return built[-1][1]

    monkeypatch.setattr(neighbors, "_hyperplane_pair", counted)
    classes = extremal_neighbor_survey(survey_code(), 6)
    members = [m for cl in classes for m in cl.members]
    assert len(members) == 864
    assert len({w for w, _ in built}) == len(built)
    ids = {id(m) for m in members}
    kept = [sum(id(nb) in ids for nb in codes) for _, codes in built]
    assert min(kept) >= 1 and sum(kept) == len(members)


def test_survey_drops_known_classes():
    rng = random.Random(36)
    c = code_from_words(random_self_dual_words(rng, 16, steps=5), 16)
    classes = extremal_neighbor_survey(c, 4)
    if not classes:
        pytest.skip("seed produced no extremal neighbors")
    known = [classes[0].representative]
    rest = extremal_neighbor_survey(c, 4, known=known)
    assert len(rest) == len(classes) - 1


def fourteen_code():
    return code_from_words(random_self_dual_words(random.Random(37), 14, steps=4), 14)


def survey_record(c, threads):
    """The report (labels, certificates) and every member's rows, in order."""
    classes = extremal_neighbor_survey(c, 4, threads=threads)
    return classification_report(classes), [[m.rows for m in cl.members] for cl in classes]


def test_survey_threads_agree():
    c = fourteen_code()
    serial = survey_record(c, 1)
    assert serial[0]["classes"]
    for threads in (2, 3):
        assert survey_record(c, threads) == serial


def test_survey_workers_are_capped_by_the_usable_cpus(monkeypatch):
    asked = []

    class SerialPool:
        """Records max_workers and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    walks = []
    level_words = neighbors._level_words

    def counted(rows, top):
        walks.append(top)
        return level_words(rows, top)

    monkeypatch.setattr(parts, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(neighbors, "_level_words", counted)
    c = fourteen_code()
    got = survey_record(c, 1000)
    assert asked == [2]
    assert got == survey_record(c, 1)
    # the light vectors are walked once per survey, not once per part: two
    # lanes to the largest even weight below d_min 4
    assert walks == [2, 2, 2, 2]


def test_survey_budget_needs_extended_flag():
    big = LinearCode.from_int_rows([0b11 << i for i in range(0, 44, 2)], 44)
    with pytest.raises(ResourceLimitError, match="extended"):
        extremal_neighbor_survey(big, 8)


def test_descriptor_validation():
    with pytest.raises(DomainError, match="odd"):
        NeighborDescriptor("base", (1, 2, 3))
    with pytest.raises(DomainError, match="distinct"):
        NeighborDescriptor("base", (2, 2))
    with pytest.raises(DomainError, match="1-indexed"):
        NeighborDescriptor("base", (0, 1))
    d = NeighborDescriptor("base", (5, 2, 9, 4))
    assert d.support == (2, 4, 5, 9)
    with pytest.raises(DomainError, match="exceeds"):
        d.vector(8)
    assert d.vector(10) == (1 << 1) | (1 << 3) | (1 << 4) | (1 << 8)


def test_descriptor_jsonl_round_trip(tmp_path):
    path = tmp_path / "steps.jsonl"
    items = [
        NeighborDescriptor("alpha", (1, 2)),
        NeighborDescriptor("beta", (3, 4, 5, 6), name="gamma"),
    ]
    save_descriptors(path, items)
    assert load_descriptors(path) == items
    text = path.read_text()
    assert '"base": "alpha"' in text and '"supp": [1, 2]' in text


def test_descriptor_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"base": "x"}\n')
    try:
        load_descriptors(path)
    except Exception as e:
        assert "line 1" in str(e)
    else:
        raise AssertionError("expected a parse error")


def test_neighbor_from_support_matches_vector_form():
    out = neighbor_from_support(STANDARD4, (1, 3), name="swapped")
    ref = neighbor(STANDARD4, word("1010"))
    assert out == ref
    assert out.label() == "swapped"
