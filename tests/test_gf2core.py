import random

import pytest

from sdcodes.errors import DomainError, ParseError
from sdcodes.gf2core import BitMatrix, BitVector, kernel, rref, rref_raw

from oracles import random_matrix_rows, span_set


def bv(s):
    return BitVector.from01(s)


def mat(*strings):
    return BitMatrix.from_strings(strings)


class TestBitVector:
    def test_serialization_round_trip(self):
        s = "100101110001"
        assert bv(s).to01() == s
        assert str(bv(s)) == s

    def test_leftmost_character_is_coordinate_one(self):
        v = bv("100")
        assert v.bit(1) == 1 and v.bit(2) == 0 and v.bit(3) == 0
        assert v.support() == (1,)

    def test_support_round_trip(self):
        v = BitVector.from_support(10, (2, 3, 7, 10))
        assert v.support() == (2, 3, 7, 10)
        assert v.weight == 4

    def test_from_support_rejects_bad_coords(self):
        with pytest.raises(DomainError):
            BitVector.from_support(4, (0,))
        with pytest.raises(DomainError):
            BitVector.from_support(4, (5,))
        with pytest.raises(DomainError):
            BitVector.from_support(4, (2, 2))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            bv("01x0")
        with pytest.raises(ParseError):
            bv("")

    def test_length_bounds(self):
        with pytest.raises(DomainError):
            BitVector(0, 0)
        with pytest.raises(DomainError):
            BitVector(129, 0)
        assert BitVector.ones(128).weight == 128

    def test_xor_and_dot(self):
        a, b = bv("1100"), bv("0110")
        assert (a ^ b).to01() == "1010"
        assert a.dot(b) == 1
        assert a.dot(a) == 0

    def test_rotated(self):
        v = bv("1100")
        assert v.rotated(1).to01() == "0110"
        assert v.rotated(3).to01() == "1001"
        assert v.rotated(4) == v
        assert v.rotated(-1).to01() == "1001"

    def test_dropped(self):
        v = bv("10110")
        assert v.dropped((1,)).to01() == "0110"
        assert v.dropped((2, 5)).to01() == "111"

    def test_permuted(self):
        v = bv("110")
        assert v.permuted((2, 3, 1)).to01() == "011"
        with pytest.raises(DomainError):
            v.permuted((1, 1, 2))

    def test_permuted_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(2, 20)
            v = BitVector(n, rng.getrandbits(n))
            images = list(range(1, n + 1))
            rng.shuffle(images)
            inverse = [0] * n
            for i, im in enumerate(images):
                inverse[im - 1] = i + 1
            assert v.permuted(images).permuted(inverse) == v


class TestRref:
    def test_identity(self):
        m = BitMatrix.identity(5)
        res = rref(m)
        assert res.matrix == m
        assert res.rank == 5
        assert res.pivots == (1, 2, 3, 4, 5)

    def test_two_by_four(self):
        res = rref(mat("1100", "0110"))
        assert res.rank == 2
        assert res.pivots == (1, 2)

    def test_zero_matrix(self):
        res = rref(mat("0000", "0000"))
        assert res.rank == 0
        assert res.pivots == ()

    def test_row_space_matches_exhaustive_span(self):
        rng = random.Random(1)
        for _ in range(25):
            rows = random_matrix_rows(rng, 6, 10)
            res = rref(mat(*["".join("1" if (r >> i) & 1 else "0" for i in range(10)) for r in rows]))
            reduced = [v.bits for v in res.matrix.rows]
            assert span_set(rows) == span_set(reduced)
            assert res.rank == len(span_set(rows)).bit_length() - 1

    def test_pivot_columns_have_single_bit(self):
        rng = random.Random(2)
        for _ in range(25):
            rows = random_matrix_rows(rng, 5, 12)
            res = rref(BitMatrix.from_rows([BitVector(12, r) for r in rows]))
            for p in res.pivots:
                col = sum(row.bit(p) for row in res.matrix.rows)
                assert col == 1

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
        assert kernel(BitMatrix.identity(4)).nrows == 0

    def test_all_ones_row_gives_even_weight_space(self):
        ker = kernel(mat("1111"))
        assert ker.nrows == 3
        even = {v for v in range(16) if v.bit_count() % 2 == 0}
        assert span_set([r.bits for r in ker.rows]) == even

    def test_random_kernels(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = random_matrix_rows(rng, 4, 8)
            m = BitMatrix.from_rows([BitVector(8, r) for r in rows])
            ker = kernel(m)
            for v in ker.rows:
                assert all((v.bits & r).bit_count() % 2 == 0 for r in rows)
            solutions = sum(
                1 for v in range(256) if all((v & r).bit_count() % 2 == 0 for r in rows)
            )
            assert 1 << ker.nrows == solutions

    def test_rank_nullity(self):
        rng = random.Random(4)
        for _ in range(25):
            nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 17)
            rows = random_matrix_rows(rng, nrows, ncols)
            m = BitMatrix.from_rows([BitVector(ncols, r) for r in rows])
            assert rref(m).rank + kernel(m).nrows == ncols


class TestMatrixOps:
    def test_matmul_against_direct_dot_products(self):
        rng = random.Random(8)
        for _ in range(10):
            a = BitMatrix.from_rows([BitVector(6, r) for r in random_matrix_rows(rng, 4, 6)])
            b = BitMatrix.from_rows([BitVector(5, r) for r in random_matrix_rows(rng, 6, 5)])
            prod = a @ b
            for i in range(4):
                for j in range(5):
                    expected = (
                        sum(a.rows[i].bit(t + 1) * b.rows[t].bit(j + 1) for t in range(6)) % 2
                    )
                    assert prod.rows[i].bit(j + 1) == expected

    def test_transpose_involution(self):
        m = mat("101", "010", "110", "001")
        assert m.transpose().transpose() == m
