import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rudin_shapiro.core import generate_pair
from rudin_shapiro.evaluate import circle_grid, eval_horner
from rudin_shapiro.gf2 import (GF2_ONE, GF2Poly, circle_min_modulus,
                               gf2_divmod, gf2_gcd, is_skew_reciprocal,
                               mercer_certificate, random_skew_reciprocal,
                               real_imag_parts_gf2)
from rudin_shapiro.roots import find_roots, real_zero_count_exact


def gf2_from_exponents(*exponents) -> GF2Poly:
    bits = 0
    for e in exponents:
        bits ^= 1 << e
    return GF2Poly(bits)


skew_littlewood = st.integers(min_value=1, max_value=24).flatmap(
    lambda m: st.lists(st.sampled_from([-1, 1]), min_size=m + 1,
                       max_size=m + 1).map(
        lambda upper: [(-1) ** j * upper[j] for j in range(m, 0, -1)] + upper))


class TestGF2Poly:
    def test_degree(self):
        assert GF2Poly(0b101).degree == 2
        assert GF2Poly(0).degree == -1

    def test_divmod(self):
        q, r = gf2_divmod(GF2Poly(0b101), GF2Poly(0b11))
        assert q == GF2Poly(0b11)
        assert r == GF2Poly(0)

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf2_divmod(GF2Poly(1), GF2Poly(0))


class TestGF2Gcd:
    def test_x2_plus_1_and_x(self):
        assert gf2_gcd(gf2_from_exponents(2, 0), gf2_from_exponents(1)) == GF2_ONE

    def test_x2_plus_1_and_x_plus_1(self):
        assert gf2_gcd(gf2_from_exponents(2, 0), gf2_from_exponents(1, 0)) == \
            gf2_from_exponents(1, 0)

    def test_gcd_with_zero(self):
        assert gf2_gcd(GF2Poly(0b110), GF2Poly(0)) == GF2Poly(0b110)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gf2_gcd(GF2Poly(0), GF2Poly(0))

    @given(st.integers(min_value=1, max_value=1 << 20),
           st.integers(min_value=1, max_value=1 << 20))
    def test_commutative(self, a, b):
        assert gf2_gcd(GF2Poly(a), GF2Poly(b)) == gf2_gcd(GF2Poly(b), GF2Poly(a))

    @given(st.integers(min_value=1, max_value=1 << 16),
           st.integers(min_value=1, max_value=1 << 16),
           st.integers(min_value=1, max_value=1 << 16))
    def test_associative_compatible(self, a, b, c):
        x, y, z = GF2Poly(a), GF2Poly(b), GF2Poly(c)
        assert gf2_gcd(x, gf2_gcd(y, z)) == gf2_gcd(gf2_gcd(x, y), z)

    @given(st.integers(min_value=1, max_value=1 << 20),
           st.integers(min_value=1, max_value=1 << 20))
    def test_divides_both_inputs(self, a, b):
        g = gf2_gcd(GF2Poly(a), GF2Poly(b))
        _, ra = gf2_divmod(GF2Poly(a), g)
        _, rb = gf2_divmod(GF2Poly(b), g)
        assert ra.is_zero and rb.is_zero


class TestSkewReciprocal:
    def test_minimal_example(self):
        check = is_skew_reciprocal([1, 1, -1])
        assert check.is_skew_reciprocal
        assert check.m == 1

    def test_odd_degree_inapplicable(self):
        check = is_skew_reciprocal(generate_pair(2).p.coeffs)
        assert not check.is_skew_reciprocal
        assert check.reason == "odd degree"

    def test_broken_symmetry(self):
        check = is_skew_reciprocal([1, 1, 1])
        assert not check.is_skew_reciprocal
        assert "a[0]" in check.reason

    def test_zero_leading_coefficient(self):
        assert not is_skew_reciprocal([1, 1, 0]).is_skew_reciprocal

    @given(skew_littlewood)
    def test_generator_and_checker_agree(self, coeffs):
        assert is_skew_reciprocal(coeffs).is_skew_reciprocal


class TestRealImagParts:
    def test_minimal_example_by_hand(self):
        # [1, 1, -1], m = 1: center parity is odd, so the circle-real
        # part is z alone and the circle-imaginary part is z^2 + 1
        part_a, part_b = real_imag_parts_gf2([1, 1, -1])
        assert part_a == gf2_from_exponents(1)
        assert part_b == gf2_from_exponents(2, 0)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            real_imag_parts_gf2([1, 1, 1])

    @given(skew_littlewood)
    def test_combination_collapses_to_one(self, coeffs):
        # the two parts interleave all exponents, so one shifted XOR of
        # them telescopes to the constant 1 over GF(2)
        part_a, part_b = real_imag_parts_gf2(coeffs)
        m = (len(coeffs) - 1) // 2
        if m % 2 == 0:
            combined = part_a.bits ^ part_b.bits << 1
        else:
            combined = part_b.bits ^ part_a.bits << 1
        assert combined == GF2_ONE.bits

    @given(skew_littlewood)
    def test_parts_partition_exponents(self, coeffs):
        part_a, part_b = real_imag_parts_gf2(coeffs)
        assert part_a.bits & part_b.bits == 0
        assert part_a.bits | part_b.bits == (1 << len(coeffs)) - 1


class TestMercerCertificate:
    def test_minimal_example_certified(self):
        cert = mercer_certificate([1, 1, -1])
        assert cert.certified_zero_free_on_circle
        assert cert.gcd == GF2_ONE
        # confirmation: the golden-ratio roots sit off the circle
        roots = find_roots([1, 1, -1]).roots
        assert np.min(np.abs(np.abs(roots) - 1.0)) > 0.3

    def test_pair_polynomials_inapplicable(self):
        cert = mercer_certificate(generate_pair(3).p.coeffs)
        assert not cert.certified_zero_free_on_circle
        assert cert.reason == "odd degree"

    def test_odd_coefficient_mode(self):
        cert = mercer_certificate([1, 3, -1])
        assert cert.certified_zero_free_on_circle

    def test_even_coefficient_rejected(self):
        cert = mercer_certificate([1, 2, 1, -2, 1])
        assert not cert.certified_zero_free_on_circle
        assert "odd" in cert.reason

    def test_json_payload(self):
        payload = mercer_certificate([1, 1, -1]).to_json_dict()
        assert payload["certified"] is True
        assert payload["degree"] == 2
        assert payload["parity_case"] == "odd-m"
        assert isinstance(payload["gcd_bits"], str)

    @settings(max_examples=100)
    @given(skew_littlewood)
    def test_random_skew_littlewood_always_certifies(self, coeffs):
        cert = mercer_certificate(coeffs)
        assert cert.certified_zero_free_on_circle
        assert cert.gcd == GF2_ONE

    def test_seeded_generator_reproducible(self):
        a = random_skew_reciprocal(9, np.random.default_rng(5))
        b = random_skew_reciprocal(9, np.random.default_rng(5))
        assert a == b
        assert is_skew_reciprocal(a).is_skew_reciprocal

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_falsifier_confirms_certificates(self, m):
        rng = np.random.default_rng(m)
        coeffs = random_skew_reciprocal(m, rng)
        cert = mercer_certificate(coeffs)
        assert cert.certified_zero_free_on_circle
        assert circle_min_modulus(coeffs) > 1e-9
        rootset = find_roots(coeffs)
        assert np.min(np.abs(np.abs(rootset.roots) - 1.0)) > 1e-7

    def test_falsifier_matches_horner_minimum(self):
        # the FFT grid against the compensated Horner oracle on the same
        # half-offset points, 64 per degree
        rng = np.random.default_rng(2024)
        eps = np.finfo(float).eps
        for m in rng.integers(1, 33, size=40).tolist() + [1, 64]:
            coeffs = random_skew_reciprocal(m, rng)
            count = 64 * (len(coeffs) - 1)
            oracle = np.abs(eval_horner(coeffs, circle_grid(0, math.tau, count)))
            assert abs(circle_min_modulus(coeffs) - oracle.min()) <= \
                32 * eps * len(coeffs)


@pytest.mark.parametrize("entry", [mercer_certificate, is_skew_reciprocal,
                                   real_imag_parts_gf2, real_zero_count_exact],
                         ids=lambda entry: entry.__name__)
@pytest.mark.parametrize("coeffs", [
    [1.5, 1, -3, -1, 1.5], [1, 1, math.nan], [1, 1, math.inf],
    [1 + 0j, 1, -1]], ids=["half", "nan", "inf", "complex"])
def test_non_integer_coefficients_refused(entry, coeffs):
    # int() would truncate [1.5, 1, -3, -1, 1.5] to [1, 1, -3, -1, 1], a
    # certified polynomial, though the input itself vanishes at z = 1
    with pytest.raises(ValueError, match="integer coefficients"):
        entry(coeffs)


@pytest.mark.parametrize("coeffs", [[1, 1, -1], [1, 3, -1],
                                    [1, -1, 1, 1, 1], [1, 2, 1, -2, 1]])
def test_integral_floats_and_numpy_ints_match_python_ints(coeffs):
    cert = mercer_certificate(coeffs)
    count = real_zero_count_exact(coeffs)
    for same in ([float(c) for c in coeffs], np.array(coeffs, dtype=np.int8),
                 np.array(coeffs, dtype=np.int64)):
        assert mercer_certificate(same) == cert
        assert real_zero_count_exact(same) == count
