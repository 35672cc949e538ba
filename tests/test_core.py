import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rudin_shapiro import core
from rudin_shapiro.core import (LittlewoodPolynomial, ResourceLimitError,
                                conjugate_relation_residual, generate_pair,
                                parallelogram_residual, special_values)


class TestLittlewoodPolynomial:
    def test_valid_coefficients(self):
        poly = LittlewoodPolynomial([1, -1, 1])
        assert poly.degree == 2
        assert poly.coeffs.dtype == np.int8

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            LittlewoodPolynomial([1, 0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LittlewoodPolynomial([])

    def test_coefficients_read_only(self):
        poly = LittlewoodPolynomial([1, 1])
        with pytest.raises(ValueError):
            poly.coeffs[0] = -1

    def test_equality_is_coefficientwise(self):
        assert LittlewoodPolynomial([1, -1]) == LittlewoodPolynomial([1, -1])
        assert LittlewoodPolynomial([1, -1]) != LittlewoodPolynomial([1, 1])


class TestGeneratePair:
    def test_k0_is_constant_one(self):
        pair = generate_pair(0)
        assert pair.p.coeffs.tolist() == [1]
        assert pair.q.coeffs.tolist() == [1]

    def test_k2_unrolled(self):
        pair = generate_pair(2)
        assert pair.p.coeffs.tolist() == [1, 1, 1, -1]
        assert pair.q.coeffs.tolist() == [1, 1, -1, 1]

    def test_k10_coefficient_sum(self):
        # P_k(1) = 2^floor((k+1)/2); at k=10 that is 32
        pair = generate_pair(10)
        assert int(pair.p.coeffs.astype(np.int64).sum()) == 32

    def test_degree_and_n(self):
        pair = generate_pair(5)
        assert pair.n == 32
        assert pair.p.degree == 31
        assert pair.q.degree == 31

    @pytest.mark.parametrize("k", range(1, 9))
    def test_prefix_property(self, k):
        # the low half of P_{k+1} is exactly P_k, ditto Q agreement
        small = generate_pair(k)
        big = generate_pair(k + 1)
        n = small.n
        assert np.array_equal(big.p.coeffs[:n], small.p.coeffs)
        assert np.array_equal(big.q.coeffs[:n], small.p.coeffs)
        assert np.array_equal(big.p.coeffs[n:], small.q.coeffs)
        assert np.array_equal(big.q.coeffs[n:], -small.q.coeffs)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_halves_agree_then_negate(self, k):
        pair = generate_pair(k)
        half = pair.n // 2
        assert np.array_equal(pair.p.coeffs[:half], pair.q.coeffs[:half])
        assert np.array_equal(pair.p.coeffs[half:], -pair.q.coeffs[half:])

    def test_generation_limit(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_PAIR_K", 6)
        assert generate_pair(6).n == 64
        with pytest.raises(ResourceLimitError, match="MAX_PAIR_K=6"):
            generate_pair(7)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            generate_pair(-1)


class TestIdentities:
    def test_parallelogram_k3(self):
        assert parallelogram_residual(generate_pair(3), 64) <= 1e-10

    def test_parallelogram_k0(self):
        assert parallelogram_residual(generate_pair(0), 16) <= 1e-15

    def test_parallelogram_k16_dense(self):
        pair = generate_pair(16)
        assert parallelogram_residual(pair, 16 * pair.n) <= 1e-9

    @pytest.mark.parametrize("k", range(1, 13))
    def test_conjugate_relation_exact(self, k):
        coeff_res, _ = conjugate_relation_residual(generate_pair(k), 8)
        assert coeff_res == 0.0

    def test_conjugate_relation_numeric_k12(self):
        _, numeric = conjugate_relation_residual(generate_pair(12), 4096)
        assert numeric <= 1e-10

    def test_q1_vanishes_where_p1_shifted_does(self):
        # |Q_1(1)| = |P_1(-1)| = 0: both are signed coefficient sums
        pair = generate_pair(1)
        q_at_1 = int(pair.q.coeffs.astype(np.int64).sum())
        alt = np.array([1, -1], dtype=np.int64)
        p_at_minus1 = int((pair.p.coeffs.astype(np.int64) * alt).sum())
        assert q_at_1 == 0 == p_at_minus1


class TestSpecialValues:
    @pytest.mark.parametrize("k", range(0, 13))
    def test_closed_forms_exact(self, k):
        sv = special_values(k)
        assert sv.p_at_1 == sv.expected_p_at_1
        assert sv.q_at_minus1 == sv.expected_q_at_minus1
        assert sv.p_at_minus1 == sv.expected_cross
        assert sv.q_at_1 == sv.expected_cross

    def test_k2_values(self):
        sv = special_values(2)
        assert sv.p_at_minus1 == sv.q_at_1 == 2

    def test_k1_cross_is_zero(self):
        # explains the real zero of P_1 at -1 and of Q_1 at +1
        sv = special_values(1)
        assert sv.p_at_minus1 == sv.q_at_1 == 0

    def test_k3_value_at_one(self):
        assert special_values(3).p_at_1 == 4

    @given(st.integers(min_value=0, max_value=14))
    def test_all_values_are_exact_integers(self, k):
        sv = special_values(k)
        for value in (sv.p_at_1, sv.p_at_minus1, sv.q_at_1, sv.q_at_minus1):
            assert isinstance(value, int)
            assert abs(value) <= 1 << k

