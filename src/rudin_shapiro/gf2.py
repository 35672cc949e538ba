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
carry-less arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @classmethod
    def from_coefficients(cls, coeffs) -> "GF2Poly":
        bits = 0
        for j, c in enumerate(coeffs):
            if int(c) & 1:
                bits |= 1 << j
        return cls(bits)

    def to_hex(self) -> str:
        return format(self.bits, "x")

    def __repr__(self) -> str:
        return f"GF2Poly(0b{self.bits:b})"


GF2_ONE = GF2Poly(1)


def gf2_add(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    return GF2Poly(a.bits ^ b.bits)


def gf2_mul(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Carry-less product, shift-and-XOR over the set bits of b."""
    out = 0
    bb = b.bits
    shift = 0
    while bb:
        if bb & 1:
            out ^= a.bits << shift
        bb >>= 1
        shift += 1
    return GF2Poly(out)


def gf2_divmod(a: GF2Poly, b: GF2Poly) -> tuple[GF2Poly, GF2Poly]:
    """Carry-less Euclidean division: a = q*b + r with deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    r = a.bits
    db = b.degree
    q = 0
    while r.bit_length() - 1 >= db:
        shift = r.bit_length() - 1 - db
        q ^= 1 << shift
        r ^= b.bits << shift
    return GF2Poly(q), GF2Poly(r)


def gf2_gcd(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Euclidean GCD; the result is monic by construction over GF(2)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    x, y = a.bits, b.bits
    while y:
        _, r = gf2_divmod(GF2Poly(x), GF2Poly(y))
        x, y = y, r.bits
    return GF2Poly(x)


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
    a = [int(c) for c in coeffs]
    if not a:
        return SkewCheck(False, None, "empty coefficient sequence")
    if a[-1] == 0:
        return SkewCheck(False, None, "zero leading coefficient")
    if len(a) % 2 == 0:
        return SkewCheck(False, None, "odd degree")
    m = (len(a) - 1) // 2
    for j in range(1, m + 1):
        if a[m - j] != (-1) ** j * a[m + j]:
            return SkewCheck(
                False, m,
                f"a[{m - j}] = {a[m - j]} but (-1)^{j} a[{m + j}] = "
                f"{(-1) ** j * a[m + j]}")
    return SkewCheck(True, m)


def real_imag_parts_gf2(coeffs) -> tuple[GF2Poly, GF2Poly]:
    """Mod-2 reductions of z^m A(z) and z^m B(z) for a skew-reciprocal input.

    The coefficient of z^j lands in the first part when j - m is even
    (the circle-real component A) and in the second when odd (the
    circle-imaginary component B); both parities of m are supported,
    they only swap which part occupies even exponents.  Coefficients
    enter by parity, so the arithmetic is exact for any odd integers,
    not just +-1.
    """
    check = is_skew_reciprocal(coeffs)
    if not check.is_skew_reciprocal:
        raise ValueError(f"input is not skew-reciprocal: {check.reason}")
    m = check.m
    a_bits = 0
    b_bits = 0
    for j, c in enumerate(int(c) for c in coeffs):
        if c & 1:
            if (j - m) % 2 == 0:
                a_bits |= 1 << j
            else:
                b_bits |= 1 << j
    return GF2Poly(a_bits), GF2Poly(b_bits)


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
    never errors.  A certificate is sound: GCD 1 over GF(2) rules out
    any common complex zero of the real and imaginary parts on the
    circle, hence any circle zero of the input.
    """
    a = [int(c) for c in coeffs]
    degree = len(a) - 1
    check = is_skew_reciprocal(a)
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
    part_a, part_b = real_imag_parts_gf2(a)
    gcd = gf2_gcd(part_a, part_b)
    certified = gcd == GF2_ONE
    reason = "" if certified else "nontrivial common factor over GF(2)"
    return MercerCertificate(
        input_degree=degree, is_skew_reciprocal=True, m=check.m,
        parity_case=parity, all_odd_coefficients=True, gcd=gcd,
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
    the circle would drag it to the grid resolution.
    """
    import numpy as np

    from . import evaluate

    degree = len(coeffs) - 1
    count = 64 * max(1, degree)
    vals = evaluate.circle_values(coeffs, count)
    return float(np.min(np.abs(vals)))
