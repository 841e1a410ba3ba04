"""Registry of published codes: data integrity and name resolution."""

import hashlib
import json

import pytest

from sdcodes import DomainError, FamilyTag, is_self_dual, min_weight, parity_class
from sdcodes.circulant import format_pairs
from sdcodes.codes import ParityClass, shadow_parts
from sdcodes.tables import (
    DATA_FILES,
    chain_table,
    circulant_table,
    equivalent_pairs,
    expected_family,
    expected_min_weight,
    inequivalent_names,
    known_code_names,
    load_data,
    named_code,
    published_enumerator,
    subtraction_table,
    _data_dir,
)

from oracles import word01


def test_checksums_cover_every_data_file():
    listing = _data_dir().joinpath("CHECKSUMS.sha256").read_text()
    recorded = dict(
        line.split() for line in listing.splitlines() if line.strip()
    )
    recorded = {v: k for k, v in recorded.items()}  # filename -> digest
    assert set(recorded) == set(DATA_FILES)
    for filename in DATA_FILES:
        raw = _data_dir().joinpath(filename).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == recorded[filename]


def test_load_data_rejects_unknown_name():
    with pytest.raises(DomainError):
        load_data("nonexistent.json")


def test_registry_names():
    names = known_code_names()
    assert len(names) == 13 + 13 + 34 + 18 + 25
    assert names[0] == "C60_1"
    assert "F60" in names and "H58" in names and "C58_18" in names
    assert len(set(names)) == len(names)


def test_named_code_is_memoized():
    assert named_code("C60_2") is named_code("C60_2")


def test_unknown_code_name():
    with pytest.raises(DomainError, match="unknown code name"):
        named_code("Z99_1")


def test_circulant_code_resolution():
    c = named_code("C60_1")
    assert (c.n, c.k) == (60, 30)
    assert is_self_dual(c)
    assert parity_class(c) is ParityClass.SINGLY_EVEN
    assert min_weight(c) == 12


def test_chain_code_resolution():
    h = named_code("H60_1")
    assert (h.n, h.k) == (60, 30)
    assert is_self_dual(h)
    assert min_weight(h, target=12) >= 12


def test_subtraction_code_resolution():
    c = named_code("C58_1")
    assert (c.n, c.k) == (58, 29)
    assert is_self_dual(c)
    assert min_weight(c, target=10) >= 10
    assert c.label() == "C58_1"


def test_expected_families():
    f = expected_family("C60_9")
    assert (f.family, f.beta) == (FamilyTag.W60_1, 10)
    f = expected_family("D60_3")
    assert (f.family, f.beta) == (FamilyTag.W60_1, 2)
    f = expected_family("C58_5")
    assert (f.family, f.beta, f.gamma) == (FamilyTag.W58_2, 2, 104)
    f = expected_family("E58_3")
    assert (f.family, f.beta, f.gamma) == (FamilyTag.W58_2, 1, 24)
    assert expected_family("G60_2") is None


def test_expected_min_weights():
    assert expected_min_weight("C60_1") == 12
    assert expected_min_weight("G60_4") == 10
    assert expected_min_weight("H58") == 10


def test_table_shapes():
    assert len(circulant_table(12)) == 13
    assert len(circulant_table(10)) == 13
    assert len(chain_table(60)) == 34
    assert len(chain_table(58)) == 25
    sub = subtraction_table()
    assert len(sub["codes"]) == 18
    assert sorted(len(cl) for cl in sub["classes"]) == [6, 12]
    with pytest.raises(DomainError):
        circulant_table(8)
    with pytest.raises(DomainError):
        chain_table(62)


def test_equivalence_lists():
    pairs = equivalent_pairs()
    assert len(pairs) == 10
    assert ("H60_2", "C60_4") in pairs
    names = inequivalent_names()
    assert len(names) == 37
    assert "H60_2" not in names and "H60_3" in names


def test_published_enumerators():
    d = published_enumerator("D60_3")
    assert d[12] == 2683 and d[30] == 220336512
    j = published_enumerator("J60_5")
    assert j[12] == 2939 and j[28] == 193168371
    with pytest.raises(DomainError):
        published_enumerator("C60_1")


def test_chain_rows_reference_known_bases():
    names = set(known_code_names())
    for n in (60, 58):
        for step in chain_table(n):
            assert step["base"] in names
            assert step["name"] in names
            assert len(step["supp"]) % 2 == 0


# sha256 of text the registry writes, recorded while words were still a
# vector class; int words must print the same bytes
TEXT_DIGESTS = {
    "C58_1": "019a3b71712cfb58063d6e2478f96b9171b937ca2536b365ab6f71153bd7d56b",
    "D60_3": "1ef2dcc19bdc47261340b8f78a9301693bdec0c527411afe60b5c4ce19270405",
    "J60_5": "a06600a8f5a2a359245b0988da629252fdc2b0e4e4aaec55b7deb166e42cf39c",
    "pairs": "282e6fdca43b11a3aaf9f69a55f11cea455a867ce456fdb13fa1b24b4926371c",
    "C58_1 shadow": "4bec2e343043a2d3c6714918b7d984a0e2956ad3bd184d3eef241e33a501ee58",
}


def test_text_boundary_output_is_pinned():
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    got = {name: digest(json.dumps(named_code(name).to_json())) for name in ("C58_1", "D60_3", "J60_5")}
    pairs = [row["pair"] for d in (12, 10) for row in circulant_table(d)]
    assert len(pairs) == 26
    got["pairs"] = digest(format_pairs(pairs))
    reps = shadow_parts(named_code("C58_1")).coset_reps
    got["C58_1 shadow"] = digest("\n".join(word01(v, 58) for v in reps))
    assert got == TEXT_DIGESTS
