"""Neighbor constructions against the brute-force x-scan oracle."""

import random

import pytest

from sdcodes import (
    BitVector,
    DomainError,
    LinearCode,
    ResourceLimitError,
    classification_report,
    min_weight,
    parts,
)
from sdcodes.neighbors import (
    NeighborDescriptor,
    enumerate_self_dual_neighbors,
    extremal_neighbor_survey,
    neighbor,
    neighbor_from_support,
    load_descriptors,
    save_descriptors,
)
from oracles import all_neighbor_codes, random_self_dual_words, span_set


def code_from_words(words, n):
    return LinearCode.from_int_rows(sorted(words), n)


STANDARD4 = LinearCode.from_strings(["1100", "0011"])


def test_neighbor_of_standard_length_four():
    out = neighbor(STANDARD4, BitVector.from01("1010"))
    assert span_set(out.row_ints()) == {0b0000, 0b1111, 0b0101, 0b1010}


def test_neighbor_rejects_codeword():
    with pytest.raises(DomainError, match="not a proper neighbor"):
        neighbor(STANDARD4, BitVector.from01("1111"))


def test_neighbor_rejects_odd_weight():
    with pytest.raises(DomainError, match="odd"):
        neighbor(STANDARD4, BitVector.from01("1110"))


def test_neighbor_rejects_non_self_dual_base():
    c = LinearCode.from_strings(["1110"])
    with pytest.raises(DomainError, match="self-dual"):
        neighbor(c, BitVector.from01("1010"))


def test_neighbor_rejects_length_mismatch():
    with pytest.raises(DomainError, match="length"):
        neighbor(STANDARD4, BitVector.from01("101010"))


def test_neighbor_meets_base_in_codimension_one():
    rng = random.Random(31)
    for _ in range(10):
        c = code_from_words(random_self_dual_words(rng, 12, steps=4), 12)
        while True:
            x = BitVector(12, rng.getrandbits(12))
            if x.weight % 2 == 0 and x.bits not in span_set(c.row_ints()):
                break
        out = neighbor(c, x)
        assert len(span_set(out.row_ints()) & span_set(c.row_ints())) == 2 ** (c.k - 1)
        assert ((1 << 12) - 1) in span_set(out.row_ints())


def test_neighbor_unchanged_by_orthogonal_codeword_shift():
    rng = random.Random(32)
    for _ in range(10):
        c = code_from_words(random_self_dual_words(rng, 10, steps=3), 10)
        words = span_set(c.row_ints())
        while True:
            x = rng.getrandbits(10)
            if x.bit_count() % 2 == 0 and x not in words:
                break
        ortho = [w for w in words if (w & x).bit_count() % 2 == 0]
        w = rng.choice(ortho)
        a = neighbor(c, BitVector(10, x))
        b = neighbor(c, BitVector(10, x ^ w))
        assert a.gen == b.gen


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
    sets = {tuple(sorted(span_set(nb.row_ints()))) for nb in got}
    assert len(sets) == 14  # pairwise distinct as codes


def test_enumeration_matches_oracle_at_length_sixteen():
    rng = random.Random(33)
    c = code_from_words(random_self_dual_words(rng, 16, steps=5), 16)
    words = span_set(c.row_ints())
    expect = all_neighbor_codes(words, 16)
    got = [nb for nb in enumerate_self_dual_neighbors(c)]
    assert len(got) == 2 * (2**7 - 1)
    assert {tuple(sorted(span_set(nb.row_ints()))) for nb in got} == expect


def test_survey_matches_brute_force_classification():
    rng = random.Random(35)
    c = code_from_words(random_self_dual_words(rng, 16, steps=5), 16)
    classes = extremal_neighbor_survey(c, 4)
    brute = [
        nb for nb in enumerate_self_dual_neighbors(c) if min_weight(nb) >= 4
    ]
    assert sum(len(cl.members) for cl in classes) == len(brute)
    reps = {tuple(sorted(span_set(cl.representative.row_ints()))) for cl in classes}
    assert len(reps) == len(classes)


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

    monkeypatch.setattr(parts, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 2)
    c = fourteen_code()
    got = survey_record(c, 1000)
    assert asked == [2]
    assert got == survey_record(c, 1)


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
    assert d.vector(10).bits == (1 << 1) | (1 << 3) | (1 << 4) | (1 << 8)


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
    ref = neighbor(STANDARD4, BitVector.from01("1010"))
    assert out.gen == ref.gen
    assert out.label() == "swapped"
