import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rudin_shapiro import gf2
from rudin_shapiro.core import LittlewoodPolynomial, generate_pair
from rudin_shapiro.evaluate import circle_grid, eval_horner
from rudin_shapiro.gf2 import (GF2_ONE, GF2Poly, MercerCertificate,
                               SkewCheck, circle_min_modulus, gf2_divmod,
                               gf2_gcd, is_skew_reciprocal,
                               mercer_certificate, random_skew_reciprocal,
                               real_imag_parts_gf2)
from rudin_shapiro.roots import find_roots, real_zero_count_exact


def gf2_from_exponents(*exponents) -> GF2Poly:
    bits = 0
    for e in exponents:
        bits ^= 1 << e
    return GF2Poly(bits)


def skew_from_upper(upper: list[int]) -> list[int]:
    """a_m..a_2m given; a_{m-j} = (-1)^j a_{m+j} fixes the rest."""
    return [(-1) ** j * upper[j] for j in range(len(upper) - 1, 0, -1)] + upper


skew_littlewood = st.integers(min_value=1, max_value=24).flatmap(
    lambda m: st.lists(st.sampled_from([-1, 1]), min_size=m + 1,
                       max_size=m + 1).map(skew_from_upper))


# Reference copy of the certificate as it stood before the per-degree
# table and the slice checks: the per-input coefficient loop, the parity
# vector built from a string, and Euclid on the two parts of every input.
def reference_integer_coefficients(poly, caller):
    raw = list(poly.coeffs if isinstance(poly, LittlewoodPolynomial)
               else poly)
    try:
        coeffs = [int(c) for c in raw]
    except (OverflowError, TypeError, ValueError):
        coeffs = None
    if coeffs != raw:
        raise ValueError(f"{caller} needs integer coefficients")
    return coeffs


def reference_skew_check(a):
    if not a:
        return SkewCheck(False, None, "empty coefficient sequence")
    if a[-1] == 0:
        return SkewCheck(False, None, "zero leading coefficient")
    if len(a) % 2 == 0:
        return SkewCheck(False, None, "odd degree")
    m = (len(a) - 1) // 2
    for j in range(1, m + 1):
        mirror = -a[m + j] if j % 2 else a[m + j]
        if a[m - j] != mirror:
            return SkewCheck(False, m, f"a[{m - j}] = {a[m - j]} but "
                                       f"(-1)^{j} a[{m + j}] = {mirror}")
    return SkewCheck(True, m)


def reference_parity_parts(a, m):
    odd = int("".join("1" if c & 1 else "0" for c in reversed(a)), 2)
    real = odd & (((1 << 2 * len(a)) - 1) // 3 << (m % 2))
    return GF2Poly(real), GF2Poly(odd ^ real)


def reference_mercer_certificate(coeffs):
    a = reference_integer_coefficients(coeffs, "mercer_certificate")
    degree = len(a) - 1
    check = reference_skew_check(a)
    all_odd = all(c % 2 != 0 for c in a) if a else False
    if not check.is_skew_reciprocal:
        return MercerCertificate(
            input_degree=degree, is_skew_reciprocal=False, m=check.m,
            parity_case="", all_odd_coefficients=all_odd, gcd=None,
            certified_zero_free_on_circle=False, reason=check.reason)
    parity = "even-m" if check.m % 2 == 0 else "odd-m"
    if not all_odd:
        return MercerCertificate(
            input_degree=degree, is_skew_reciprocal=True, m=check.m,
            parity_case=parity, all_odd_coefficients=False, gcd=None,
            certified_zero_free_on_circle=False,
            reason="certificate requires all coefficients odd")
    gcd = gf2_gcd(*reference_parity_parts(a, check.m))
    certified = gcd == GF2_ONE
    reason = "" if certified else "nontrivial common factor over GF(2)"
    return MercerCertificate(
        input_degree=degree, is_skew_reciprocal=True, m=check.m,
        parity_case=parity, all_odd_coefficients=True, gcd=gcd,
        certified_zero_free_on_circle=certified, reason=reason)


small_ints = st.integers(min_value=-5, max_value=5)
odd_ints = st.sampled_from([-5, -3, -1, 1, 3, 5])


@st.composite
def certificate_inputs(draw):
    """Lists of length 0..41: free, skew-symmetric, or skew with one change.

    Entries are small integers, all odd or mixed with even ones; a few
    inputs carry an integral float or a value that is not an integer.
    """
    entries = draw(st.sampled_from([odd_ints, small_ints]))
    shape = draw(st.sampled_from(["free", "skew", "skew_broken"]))
    if shape == "free":
        coeffs = draw(st.lists(entries, max_size=41))
    else:
        m = draw(st.integers(min_value=0, max_value=20))
        coeffs = skew_from_upper(draw(st.lists(entries, min_size=m + 1,
                                               max_size=m + 1)))
        if shape == "skew_broken":
            at = draw(st.integers(min_value=0, max_value=2 * m))
            coeffs[at] = draw(small_ints)
    if coeffs and draw(st.integers(min_value=0, max_value=9)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(coeffs) - 1))
        coeffs[at] = draw(st.sampled_from(
            [float(coeffs[at]), 1.5, math.nan, math.inf, 1 + 0j]))
    return coeffs


def outcome(certify, coeffs):
    try:
        cert = certify(coeffs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return cert, cert.to_json_dict(), repr(cert)


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

    def test_broken_symmetry_names_first_failing_j(self):
        # m = 5; a[m - 2] and a[m - 4] both break the symmetry
        coeffs = skew_from_upper([1, -1, 1, 1, -1, 1])
        coeffs[3] = -coeffs[3]
        coeffs[1] = -coeffs[1]
        check = is_skew_reciprocal(coeffs)
        assert check == SkewCheck(False, 5, "a[3] = -1 but (-1)^2 a[7] = 1")
        assert mercer_certificate(coeffs).reason == check.reason

    @pytest.mark.parametrize("coeffs", [[1], [-3], [2]])
    def test_constant_is_skew_reciprocal(self, coeffs):
        # m = 0: no pair a[m - j], a[m + j] to compare
        assert is_skew_reciprocal(coeffs) == SkewCheck(True, 0)

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

    def test_gcd_table_matches_uncached_euclid(self):
        # every even degree 0..256: the GCD the certificate reports, from
        # the per-length table, against Euclid on this input's own parts
        # (odd coefficients in -5..5, so not only Littlewood inputs)
        gf2._all_odd_certificate.cache_clear()
        rng = np.random.default_rng(27)
        for m in range(129):
            upper = (2 * rng.integers(-3, 3, size=m + 1) + 1).tolist()
            coeffs = skew_from_upper(upper)
            expected = gf2_gcd(*real_imag_parts_gf2(coeffs))
            for _ in range(2):  # a table miss, then a hit
                cert = mercer_certificate(coeffs)
                assert cert.gcd == expected
                assert cert.certified_zero_free_on_circle

    @settings(max_examples=400)
    @given(certificate_inputs())
    def test_matches_reference_certificate(self, coeffs):
        assert outcome(mercer_certificate, coeffs) == \
            outcome(reference_mercer_certificate, coeffs)

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
