import gc
import json
import pickle
import random
import weakref

import pytest

from sdcodes import codes
from sdcodes.codes import (
    LinearCode,
    ParityClass,
    ShadowParts,
    dual,
    is_self_dual,
    load_code,
    parity_class,
    permuted_code,
    save_code,
    shadow_parts,
    subtract_coordinates,
)
from sdcodes.equivalence import signature
from sdcodes.errors import DomainError, ParseError
from sdcodes.wenum import (
    codewords_of_weight,
    min_weight,
    shadow_distribution,
    weight_distribution,
)

from oracles import (
    permute_bits,
    random_self_dual_words,
    singly_even_self_dual_words,
    shadow_set,
    span_set,
    standard_self_dual_words,
    word01,
)


def code_from_words(words, n, name=None):
    return LinearCode.from_int_rows(sorted(words), n, name)


def words_of(code):
    return span_set(code.rows)


class TestConstruction:
    def test_repetition_pair(self):
        c = LinearCode.from_strings(["11"])
        assert (c.n, c.k) == (2, 1)
        assert words_of(c) == {0b00, 0b11}

    def test_duplicate_rows_collapse(self):
        c = LinearCode.from_strings(["1100", "1100"])
        assert c.k == 1

    def test_empty_row_list_is_degenerate(self):
        c = LinearCode(4, ())
        assert (c.n, c.k) == (4, 0)
        assert words_of(c) == {0}

    def test_generator_is_canonical(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = [rng.getrandbits(8) for _ in range(4)]
            a = LinearCode(8, rows)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            extra = shuffled + [shuffled[0] ^ shuffled[-1]]
            assert LinearCode(8, extra) == a

    def test_constructor_reduces_any_spanning_rows(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randrange(1, 20)
            rows = [rng.getrandbits(n) for _ in range(rng.randrange(0, 8))]
            rows += [0, *rows[:2]]
            rng.shuffle(rows)
            c = LinearCode(n, rows)
            assert c == LinearCode.from_int_rows(rows, n)
            assert hash(c) == hash(LinearCode.from_int_rows(rows, n))
            assert isinstance(c.rows, tuple)
            assert c.k == len(c.rows)
            assert span_set(c.rows) == span_set(rows)
            assert len(span_set(c.rows)) == 2 ** c.k
            pivots = [(r & -r).bit_length() - 1 for r in c.rows]
            assert pivots == sorted(set(pivots))
            for p in pivots:
                assert sum((r >> p) & 1 for r in c.rows) == 1
            assert LinearCode.from_json(c.to_json()) == c

    @pytest.mark.parametrize(
        "n, rows",
        [(4, [0b10000]), (4, [0b0011, 1 << 70]), (4, [-1]), (0, []), (129, []), (-3, [1]),
         (4, [(4, 0b0011)]), (4, ["1100"])],
    )
    def test_constructor_rejects_bad_input(self, n, rows):
        with pytest.raises(DomainError):
            LinearCode(n, rows)

    def test_with_name_keeps_equality_and_memo(self):
        c = code_from_words(standard_self_dual_words(10), 10, name="first")
        dist = weight_distribution(c)
        d = c.with_name("second")
        assert d == c and hash(d) == hash(c)
        assert (c.name, d.name) == ("first", "second")
        assert d.memo is c.memo
        assert weight_distribution(d) is dist

    def test_pickle_round_trip(self):
        c = code_from_words(standard_self_dual_words(12), 12, name="sd12")
        back = pickle.loads(pickle.dumps(c))
        assert back == c and hash(back) == hash(c)
        assert (back.n, back.k, back.rows, back.name) == (c.n, c.k, c.rows, c.name)


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        c = code_from_words(standard_self_dual_words(10), 10, name="demo")
        path = tmp_path / "demo.json"
        save_code(c, path)
        back = load_code(path)
        assert back == c
        assert back.name == "demo"

    def test_reader_normalizes_non_echelon_rows(self):
        obj = {"name": "", "n": 4, "k": 2, "rows": ["1111", "1100", "0011"]}
        c = LinearCode.from_json(obj)
        assert c.k == 2
        assert c.to_json()["rows"] == ["1100", "0011"]

    def test_reader_rejects_bad_k(self):
        with pytest.raises(ParseError):
            LinearCode.from_json({"n": 4, "k": 3, "rows": ["1100", "0011"]})

    def test_reader_rejects_bad_rows(self):
        with pytest.raises(ParseError):
            LinearCode.from_json({"n": 4, "rows": ["110"]})
        with pytest.raises(ParseError):
            LinearCode.from_json({"n": 4, "rows": ["11x0"]})
        with pytest.raises(ParseError):
            LinearCode.from_json({"rows": ["1100"]})

    def test_load_reports_json_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ParseError):
            load_code(path)


class TestDual:
    def test_self_dual_pair(self):
        c = LinearCode.from_strings(["11"])
        assert dual(c) == c

    def test_all_ones_length_four(self):
        c = LinearCode.from_strings(["1111"])
        d = dual(c)
        assert (d.n, d.k) == (4, 3)
        assert words_of(d) == {v for v in range(16) if v.bit_count() % 2 == 0}

    def test_double_dual_and_orthogonality(self):
        rng = random.Random(12)
        for _ in range(20):
            c = LinearCode(12, [rng.getrandbits(12) for _ in range(5)])
            d = dual(c)
            assert d.k == 12 - c.k
            assert dual(d) == c
            for a in c.rows:
                for b in d.rows:
                    assert (a & b).bit_count() % 2 == 0

    def test_dual_of_degenerate(self):
        c = LinearCode(6, ())
        assert dual(c).k == 6


class TestSelfDualityAndParity:
    def test_repetition_pair_is_singly_even(self):
        c = LinearCode.from_strings(["11"])
        assert is_self_dual(c)
        assert parity_class(c) is ParityClass.SINGLY_EVEN

    def test_extended_hamming_type_is_doubly_even(self):
        c = LinearCode.from_strings(["11110000", "00111100", "00001111", "01010101"])
        assert is_self_dual(c)
        assert parity_class(c) is ParityClass.DOUBLY_EVEN
        assert all(v.bit_count() % 4 == 0 for v in words_of(c))
        assert len(words_of(c)) == 16

    def test_odd_containing(self):
        c = LinearCode.from_strings(["1000"])
        assert parity_class(c) is ParityClass.ODD_CONTAINING
        assert not is_self_dual(c)

    def test_unequal_dimension_is_not_self_dual(self):
        c = LinearCode.from_strings(["1100", "0011", "1010"])
        assert not is_self_dual(c)

    def test_self_duality_is_checked_once_per_code(self, monkeypatch):
        # signature, the shadow and W each ask; the pairwise row check runs once
        checked = []
        check = codes._rows_orthogonal
        monkeypatch.setattr(codes, "_rows_orthogonal", lambda rows: checked.append(rows) or check(rows))
        c = code_from_words(singly_even_self_dual_words(random.Random(19), 16), 16)
        signature(c)
        shadow_distribution(c)
        weight_distribution(c)
        assert is_self_dual(c) and is_self_dual(c.with_name("again"))
        assert checked == [c.rows]
        assert c.memo["self dual"] is True
        # a code of the wrong dimension never reaches the row check
        assert not is_self_dual(LinearCode.from_strings(["1100"]))
        assert checked == [c.rows]

    def test_parity_class_is_found_once_per_code(self, monkeypatch):
        # the signature and the shadow each ask; the row scan runs once
        found = []
        find = codes._parity_class
        monkeypatch.setattr(codes, "_parity_class", lambda rows: found.append(rows) or find(rows))
        c = code_from_words(singly_even_self_dual_words(random.Random(20), 16), 16)
        signature(c)
        shadow_distribution(c)
        assert parity_class(c) is parity_class(c.with_name("again")) is ParityClass.SINGLY_EVEN
        assert found == [c.rows]
        assert c.memo["parity class"] is ParityClass.SINGLY_EVEN

    def test_random_self_dual_words_really_are(self):
        rng = random.Random(13)
        for n in (8, 10, 12, 14):
            for _ in range(5):
                words = random_self_dual_words(rng, n)
                c = code_from_words(words, n)
                assert (c.n, c.k) == (n, n // 2)
                assert is_self_dual(c)
                assert words_of(c) == words


class TestShadow:
    def test_repetition_pair_shadow(self):
        c = LinearCode.from_strings(["11"])
        parts = shadow_parts(c)
        assert parts.c0.k == 0
        assert parts.coset_reps == (0b10, 0b01)

    def test_domain_errors(self):
        hamming = LinearCode.from_strings(["11110000", "00111100", "00001111", "01010101"])
        with pytest.raises(DomainError):
            shadow_parts(hamming)  # doubly even
        with pytest.raises(DomainError):
            shadow_parts(LinearCode.from_strings(["1000"]))

    def test_shadow_matches_exhaustive_filtering(self):
        rng = random.Random(14)
        for _ in range(8):
            words = singly_even_self_dual_words(rng, 10)
            c = code_from_words(words, 10)
            parts = shadow_parts(c)
            assert parts.c0.k == c.k - 1
            assert all(v.bit_count() % 4 == 0 for v in words_of(parts.c0))
            c0_words = words_of(parts.c0)
            got = set()
            for rep in parts.coset_reps:
                got |= {rep ^ w for w in c0_words}
            assert got == shadow_set(words, 10)

    def test_coset_reps_are_lex_least(self):
        rng = random.Random(15)
        words = singly_even_self_dual_words(rng, 12)
        c = code_from_words(words, 12)
        parts = shadow_parts(c)
        c0_words = words_of(parts.c0)
        for rep in parts.coset_reps:
            coset = [word01(rep ^ w, 12) for w in c0_words]
            assert word01(rep, 12) == min(coset)
        assert [word01(v, 12) for v in parts.coset_reps] == sorted(
            word01(v, 12) for v in parts.coset_reps
        )

    def test_four_cosets_partition_the_c0_dual(self):
        rng = random.Random(16)
        words = singly_even_self_dual_words(rng, 10)
        c = code_from_words(words, 10)
        parts = shadow_parts(c)
        c0_words = words_of(parts.c0)
        c0_dual = words_of(dual(parts.c0))
        shadow = shadow_set(words, 10)
        assert len(c0_words) == len(shadow) // 2 == len(words) // 2
        assert c0_dual == words | shadow
        assert words & shadow == set()

    def test_shadow_weights_mod_four(self):
        # length 2 mod 8: every shadow weight is 1 mod 4;
        # length 4 mod 8: every shadow weight is 2 mod 4
        rng = random.Random(17)
        for n, residue in ((10, 1), (12, 2)):
            words = singly_even_self_dual_words(rng, n)
            for s in shadow_set(words, n):
                assert s.bit_count() % 4 == residue


class TestSubtraction:
    def test_random_twelve_to_ten(self):
        rng = random.Random(18)
        for _ in range(8):
            words = random_self_dual_words(rng, 12)
            c = code_from_words(words, 12)
            i = rng.randrange(1, 13)
            j = rng.randrange(1, 13)
            if i == j:
                j = 1 + (j % 12)
            out = subtract_coordinates(c, i, j)
            assert (out.n, out.k) == (10, 5)
            out_words = words_of(out)
            for a in out_words:
                for b in out_words:
                    assert (a & b).bit_count() % 2 == 0

    def test_matches_set_level_semantics(self):
        rng = random.Random(19)
        words = random_self_dual_words(rng, 14)
        c = code_from_words(words, 14)
        i, j = 3, 11
        expected = {
            int("".join(ch for k, ch in enumerate(word01(w, 14), 1) if k not in (i, j))[::-1], 2)
            for w in words
            if ((w >> (i - 1)) & 1) == ((w >> (j - 1)) & 1)
        }
        assert words_of(subtract_coordinates(c, i, j)) == expected

    def test_argument_errors(self):
        c = code_from_words(standard_self_dual_words(8), 8)
        with pytest.raises(DomainError):
            subtract_coordinates(c, 2, 2)
        with pytest.raises(DomainError):
            subtract_coordinates(c, 0, 3)
        with pytest.raises(DomainError):
            subtract_coordinates(c, 1, 9)
        not_sd = LinearCode.from_strings(["1000"])
        with pytest.raises(DomainError):
            subtract_coordinates(not_sd, 1, 2)


class TestPermutedCode:
    def test_identity(self):
        c = code_from_words(standard_self_dual_words(8), 8)
        assert permuted_code(c, list(range(1, 9))) == c

    def test_word_set_transforms(self):
        rng = random.Random(20)
        words = random_self_dual_words(rng, 10)
        c = code_from_words(words, 10)
        images = list(range(1, 11))
        rng.shuffle(images)
        moved = permuted_code(c, images)
        assert is_self_dual(moved)
        assert words_of(moved) == {permute_bits(w, 10, images) for w in words}


def test_memoised_facts_are_freed_with_the_code():
    c = code_from_words(singly_even_self_dual_words(random.Random(17), 16), 16)
    assert parity_class(c) is ParityClass.SINGLY_EVEN
    ref = weakref.ref(c)
    weight_distribution(c)
    shadow_distribution(c)
    codewords_of_weight(c, min_weight(c))
    signature(c)
    assert {"weights", "shadow", "signature"} <= set(c.memo)
    del c
    gc.collect()
    assert ref() is None


def test_memo_stays_out_of_equality_and_json():
    words = random_self_dual_words(random.Random(18), 12)
    a = code_from_words(words, 12)
    b = code_from_words(words, 12)
    weight_distribution(a)
    assert a.memo and not b.memo
    assert a == b and hash(a) == hash(b)
    assert a.to_json() == b.to_json()
    assert "memo" not in repr(a)
