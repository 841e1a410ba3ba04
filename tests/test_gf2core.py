import random

import pytest

from sdcodes.codes import LinearCode, permuted_code
from sdcodes.errors import DomainError, ParseError
from sdcodes.gf2core import format01, kernel_raw, parse01, permute_word, rref_raw
from sdcodes.neighbors import NeighborDescriptor

from oracles import permute_bits, random_matrix_rows, span_set


class TestBitVector:
    """Words are ints; '0'/'1' strings exist only at the text boundary."""

    def test_serialization_round_trip(self):
        s = "100101110001"
        assert format01(parse01(s)[1], len(s)) == s
        rng = random.Random(6)
        for n in (1, 26, 128):
            for bits in (0, (1 << n) - 1, 1, 1 << (n - 1), rng.getrandbits(n)):
                text = format01(bits, n)
                assert len(text) == n and set(text) <= {"0", "1"}
                assert parse01(text) == (n, bits)

    def test_leftmost_character_is_coordinate_one(self):
        assert parse01("100") == (3, 0b001)
        assert parse01("001") == (3, 0b100)
        assert format01(0b001, 3) == "100"

    def test_support_round_trip(self):
        v = NeighborDescriptor("x", (10, 2, 7, 3)).vector(10)
        assert [i + 1 for i in range(10) if (v >> i) & 1] == [2, 3, 7, 10]
        assert v.bit_count() == 4
        assert format01(v, 10) == "0110001001"

    def test_from_support_rejects_bad_coords(self):
        with pytest.raises(DomainError):
            NeighborDescriptor("x", (0, 1))
        with pytest.raises(DomainError):
            NeighborDescriptor("x", (1, 5)).vector(4)
        with pytest.raises(DomainError):
            NeighborDescriptor("x", (2, 2))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse01("01x0")
        with pytest.raises(ParseError):
            parse01("")
        for bad in (" 10", "1_0", "+1", "10\n"):
            with pytest.raises(ParseError):
                parse01(bad)

    def test_length_bounds(self):
        with pytest.raises(DomainError):
            parse01("1" * 129)
        with pytest.raises(DomainError):
            LinearCode(0, ())
        with pytest.raises(DomainError):
            LinearCode(129, ())
        assert parse01("1" * 128) == (128, (1 << 128) - 1)

    def test_permuted(self):
        assert format01(permute_word(parse01("110")[1], (2, 3, 1)), 3) == "011"
        c = LinearCode.from_strings(["110"])
        with pytest.raises(DomainError):
            permuted_code(c, (1, 1, 2))
        with pytest.raises(DomainError):
            permuted_code(c, (1, 2))

    def test_permuted_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(2, 20)
            v = rng.getrandbits(n)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            inverse = [0] * n
            for i, im in enumerate(images):
                inverse[im - 1] = i + 1
            assert permute_word(v, images) == permute_bits(v, n, images)
            assert permute_word(permute_word(v, images), inverse) == v


class TestRref:
    def test_identity(self):
        rows = [1 << i for i in range(5)]
        assert rref_raw(rows, 5) == (rows, 5, [0, 1, 2, 3, 4])

    def test_two_by_four(self):
        _, rank, pivots = rref_raw([parse01("1100")[1], parse01("0110")[1]], 4)
        assert rank == 2
        assert pivots == [0, 1]

    def test_zero_matrix(self):
        assert rref_raw([0, 0], 4) == ([0, 0], 0, [])

    def test_row_space_matches_exhaustive_span(self):
        rng = random.Random(1)
        for _ in range(25):
            rows = random_matrix_rows(rng, 6, 10)
            red, rank, _ = rref_raw(rows, 10)
            assert span_set(rows) == span_set(red)
            assert rank == len(span_set(rows)).bit_length() - 1
            assert all(r == 0 for r in red[rank:])

    def test_pivot_columns_have_single_bit(self):
        rng = random.Random(2)
        for _ in range(25):
            rows = random_matrix_rows(rng, 5, 12)
            red, _, pivots = rref_raw(rows, 12)
            for p in pivots:
                assert sum((r >> p) & 1 for r in red) == 1

    def test_column_order_picks_pivots_in_that_order(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = random_matrix_rows(rng, 5, 12)
            order = list(range(12))
            rng.shuffle(order)
            allowed = order[:8]
            red, rank, pivots = rref_raw(rows, 12, allowed)
            assert pivots == sorted(pivots, key=order.index)
            assert set(pivots) <= set(allowed)
            # rows past the rank reduce to zero on every allowed column
            allowed_mask = sum(1 << c for c in allowed)
            assert all(r & allowed_mask == 0 for r in red[rank:])
            assert span_set(red) == span_set(rows)
            for row, p in zip(red, pivots):
                assert [(r >> p) & 1 for r in red] == [int(r == row) for r in red]
        assert rref_raw([0b0110, 0b0011], 4, [2, 1]) == ([0b0101, 0b0011], 2, [2, 1])


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_raw([1 << i for i in range(4)], 4) == []

    def test_all_ones_row_gives_even_weight_space(self):
        ker = kernel_raw([0b1111], 4)
        assert len(ker) == 3
        even = {v for v in range(16) if v.bit_count() % 2 == 0}
        assert span_set(ker) == even

    def test_random_kernels(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = random_matrix_rows(rng, 4, 8)
            ker = kernel_raw(rows, 8)
            for v in ker:
                assert all((v & r).bit_count() % 2 == 0 for r in rows)
            solutions = {
                v for v in range(256) if all((v & r).bit_count() % 2 == 0 for r in rows)
            }
            assert span_set(ker) == solutions
            assert 1 << len(ker) == len(solutions)

    def test_rank_nullity(self):
        rng = random.Random(4)
        for _ in range(25):
            nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 17)
            rows = random_matrix_rows(rng, nrows, ncols)
            assert rref_raw(rows, ncols)[1] + len(kernel_raw(rows, ncols)) == ncols
