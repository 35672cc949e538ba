"""Exact GF(2) certificates that skew-reciprocal Littlewood polynomials
have no zeros on the unit circle (Mercer's theorem).

A degree-2m polynomial S with a_{m-j} = (-1)^j a_{m+j} splits as
z^-m S(z) = A(z) + B(z) on the circle, where A collects the
coefficients at even offset from the center (real values on the
circle) and B the odd offsets (purely imaginary values).  A circle
zero of S would be a common zero of A and B, hence a nontrivial common
factor of the integer polynomials z^m A and z^m B, which would survive
reduction mod 2 because the leading coefficients are odd.  But for
all-odd coefficients the two reductions interleave perfectly and an
explicit combination of them equals 1 over GF(2), so their GCD is 1
and no circle zero can exist.  Computing that GCD is therefore an
exact certificate, and this module computes it with bit-packed
carry-less arithmetic.  For all-odd coefficients the two parts are
fixed interleaved masks that depend on the degree alone, so Euclid runs
once per distinct degree and the certificate of that degree is reused.

Inapplicable inputs (odd degree, broken symmetry, an even coefficient)
are never errors; coefficients that are not exact integers are: every
entry point raises ValueError for them (core.integer_coefficients).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import evaluate
from .core import integer_coefficients

MERCER_CERT_VERSION = 1


@dataclass(frozen=True, order=True)
class GF2Poly:
    """Polynomial over GF(2), bit j of `bits` = coefficient of z^j.

    Python integers give arbitrary-length bit vectors with native XOR
    and shifts; the zero polynomial is bits == 0 with degree -1.
    """

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("bit pattern must be nonnegative")

    @property
    def degree(self) -> int:
        return self.bits.bit_length() - 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def to_hex(self) -> str:
        return format(self.bits, "x")

    def __repr__(self) -> str:
        return f"GF2Poly(0b{self.bits:b})"


GF2_ONE = GF2Poly(1)


def _divmod_bits(r: int, b: int) -> tuple[int, int]:
    """Carry-less division of bit vectors: r = q*b + rem, deg rem < deg b."""
    q = 0
    length = b.bit_length()
    while (shift := r.bit_length() - length) >= 0:
        q ^= 1 << shift
        r ^= b << shift
    return q, r


def gf2_divmod(a: GF2Poly, b: GF2Poly) -> tuple[GF2Poly, GF2Poly]:
    """Carry-less Euclidean division: a = q*b + r with deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = _divmod_bits(a.bits, b.bits)
    return GF2Poly(q), GF2Poly(r)


def gf2_gcd(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Euclidean GCD on the bit vectors; monic by construction over GF(2)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return GF2Poly(_gcd_bits(a.bits, b.bits))


def _gcd_bits(x: int, y: int) -> int:
    while y:
        x, y = y, _divmod_bits(x, y)[1]
    return x


@dataclass(frozen=True)
class SkewCheck:
    """Outcome of the skew-reciprocity test on an integer sequence."""

    is_skew_reciprocal: bool
    m: int | None
    reason: str = ""


def is_skew_reciprocal(coeffs) -> SkewCheck:
    """Exact integer check of a_{m-j} = (-1)^j a_{m+j} for j = 1..m.

    Requires an odd number of coefficients (even degree 2m) with a
    nonzero leading coefficient; odd-degree inputs are reported as
    inapplicable rather than rejected, because the Rudin-Shapiro
    polynomials themselves have odd degree.
    """
    return _skew_check(integer_coefficients(coeffs, "is_skew_reciprocal"))


def _skew_check(a: list[int]) -> SkewCheck:
    if not a:
        return SkewCheck(False, None, "empty coefficient sequence")
    if a[-1] == 0:
        return SkewCheck(False, None, "zero leading coefficient")
    if len(a) % 2 == 0:
        return SkewCheck(False, None, "odd degree")
    m = (len(a) - 1) // 2
    # a[m - j] and a[m + j] for j = 1..m; at m = 0, a[-1::-1] is all of a
    lower, upper = (a[m - 1::-1] if m else []), a[m + 1:]
    if (lower[1::2] == upper[1::2]
            and lower[::2] == list(map(operator.neg, upper[::2]))):
        return SkewCheck(True, m)
    for j in range(1, m + 1):  # name the first failing j
        mirror = -a[m + j] if j % 2 else a[m + j]
        if a[m - j] != mirror:
            return SkewCheck(False, m, f"a[{m - j}] = {a[m - j]} but "
                                       f"(-1)^{j} a[{m + j}] = {mirror}")
    raise AssertionError("slice and loop skew checks disagree")


def real_imag_parts_gf2(coeffs) -> tuple[GF2Poly, GF2Poly]:
    """Mod-2 reductions of z^m A(z) and z^m B(z) for a skew-reciprocal input.

    The coefficient of z^j lands in the first part when j - m is even
    (the circle-real component A) and in the second when odd (the
    circle-imaginary component B); both parities of m are supported,
    they only swap which part occupies even exponents.  Coefficients
    enter by parity, so the arithmetic is exact for any odd integers,
    not just +-1.  Non-integer coefficients raise ValueError.
    """
    a = integer_coefficients(coeffs, "real_imag_parts_gf2")
    check = _skew_check(a)
    if not check.is_skew_reciprocal:
        raise ValueError(f"input is not skew-reciprocal: {check.reason}")
    odd = int("".join("1" if c & 1 else "0" for c in reversed(a)), 2)
    real, imag = _split_bits(odd, len(a), check.m)
    return GF2Poly(real), GF2Poly(imag)


def _split_bits(odd: int, length: int, m: int) -> tuple[int, int]:
    """The bits j < length of odd with j - m even, and those with j - m odd."""
    # (4^length - 1) / 3 = 0b0101...01, shifted to the j with j - m even
    real = odd & (((1 << 2 * length) - 1) // 3 << (m % 2))
    return real, odd ^ real


@dataclass(frozen=True)
class MercerCertificate:
    """Result of the circle-zero-freeness certificate.

    certified_zero_free_on_circle is True only when the input is
    skew-reciprocal with all-odd coefficients and the GF(2) GCD of its
    two parts is 1; inapplicable inputs carry the reason instead.
    """

    input_degree: int
    is_skew_reciprocal: bool
    m: int | None
    parity_case: str
    all_odd_coefficients: bool
    gcd: GF2Poly | None
    certified_zero_free_on_circle: bool
    reason: str = ""

    def to_json_dict(self) -> dict:
        return {
            "version": MERCER_CERT_VERSION,
            "degree": self.input_degree,
            "m": self.m,
            "parity_case": self.parity_case,
            "gcd_bits": self.gcd.to_hex() if self.gcd is not None else None,
            "certified": self.certified_zero_free_on_circle,
            "reason": self.reason,
        }


def mercer_certificate(coeffs) -> MercerCertificate:
    """Classify an integer polynomial and certify circle-zero-freeness.

    Inapplicable inputs (odd degree, broken symmetry, an even
    coefficient) yield an uncertified result with the reason; they are
    never errors.  Non-integer coefficients are: they raise ValueError.
    A certificate is sound: GCD 1 over GF(2) rules out any common
    complex zero of the real and imaginary parts on the circle, hence
    any circle zero of the input.
    """
    a = integer_coefficients(coeffs, "mercer_certificate")
    degree = len(a) - 1
    check = _skew_check(a)
    # parity of each distinct value: Littlewood inputs have two
    all_odd = all(map((1).__and__, set(a))) if a else False
    if not check.is_skew_reciprocal:
        return MercerCertificate(
            input_degree=degree, is_skew_reciprocal=False, m=check.m,
            parity_case="", all_odd_coefficients=all_odd, gcd=None,
            certified_zero_free_on_circle=False, reason=check.reason)
    if not all_odd:
        return MercerCertificate(
            input_degree=degree, is_skew_reciprocal=True, m=check.m,
            parity_case=_parity_case(check.m), all_odd_coefficients=False,
            gcd=None, certified_zero_free_on_circle=False,
            reason="certificate requires all coefficients odd")
    return _all_odd_certificate(len(a))


def _parity_case(m: int) -> str:
    return "even-m" if m % 2 == 0 else "odd-m"


@functools.lru_cache(maxsize=256)
def _all_odd_certificate(length: int) -> MercerCertificate:
    """The certificate of every all-odd skew-reciprocal input of a length.

    All coefficients odd make the parity vector 2^length - 1, and
    m = (length - 1) / 2 fixes m mod 2, so the two parts, their GCD and
    every field of the certificate depend on the length alone.  Euclid
    runs once per length; the certificate is frozen, so callers share it.
    """
    m = (length - 1) // 2
    gcd = GF2Poly(_gcd_bits(*_split_bits((1 << length) - 1, length, m)))
    certified = gcd == GF2_ONE
    reason = "" if certified else "nontrivial common factor over GF(2)"
    return MercerCertificate(
        input_degree=length - 1, is_skew_reciprocal=True, m=m,
        parity_case=_parity_case(m), all_odd_coefficients=True, gcd=gcd,
        certified_zero_free_on_circle=certified, reason=reason)


def random_skew_reciprocal(m: int, rng) -> list[int]:
    """Random skew-reciprocal Littlewood coefficients of degree 2m.

    Draws the upper half a_m..a_2m uniformly from {-1, +1} and derives
    the lower half from the symmetry.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    upper = [1 if rng.random() < 0.5 else -1 for _ in range(m + 1)]
    coeffs = [0] * (2 * m + 1)
    for j in range(m + 1):
        coeffs[m + j] = upper[j]
        coeffs[m - j] = (-1) ** j * upper[j]
    return coeffs


def circle_min_modulus(coeffs) -> float:
    """Numerical falsifier: min |S| on a half-offset grid, 64 points a degree.

    A certified polynomial must keep this strictly positive; a zero on
    the circle would drag it to the grid resolution.  A mirror twin repeats
    its sub-grid's moduli, so the stream alone gives the minimum.
    """
    degree = len(coeffs) - 1
    count = 64 * max(1, degree)
    return min(float(np.min(np.abs(values))) for *_, values in
               evaluate.iter_circle_values(coeffs, count))
