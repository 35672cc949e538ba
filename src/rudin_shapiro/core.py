"""Rudin-Shapiro pair construction and exact structural identities.

The pair (P_k, Q_k) is built by the doubling recursion

    P_0 = Q_0 = 1,
    P_{k+1}(z) = P_k(z) + z^(2^k) Q_k(z),
    Q_{k+1}(z) = P_k(z) - z^(2^k) Q_k(z),

so both are Littlewood polynomials (all coefficients +-1) of degree
n - 1 with n = 2^k.  On the unit circle they satisfy the flatness
identity |P_k|^2 + |Q_k|^2 = 2n exactly, and Q_k is the sign-alternated
coefficient reversal of P_k.  Everything in this module that can be
checked in integers is checked in integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Largest k accepted by generate_pair.  2^26 int8 coefficients per
#: polynomial keep a pair within 128 MiB.
MAX_PAIR_K = 26


class ResourceLimitError(RuntimeError):
    """A request exceeded a configured size or runtime guard."""


@dataclass(frozen=True, eq=False)
class LittlewoodPolynomial:
    """Polynomial with every coefficient in {-1, +1}.

    Coefficients are stored low degree first as a read-only int8 array,
    which keeps 2^26 coefficients in 64 MiB and makes every structural
    check an exact integer statement.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.int8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("every coefficient must be -1 or +1")
        if arr is self.coeffs and arr.flags.writeable:
            arr = arr.copy()  # never freeze an array the caller still owns
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, LittlewoodPolynomial):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self) -> str:  # keep huge arrays out of tracebacks
        return f"LittlewoodPolynomial(degree={self.degree})"


def integer_coefficients(poly, caller: str) -> list[int]:
    """Coefficients of poly (a LittlewoodPolynomial or a sequence) as ints.

    Integral floats and numpy integers pass; any other value (1.5, nan,
    inf, complex, a string) raises ValueError naming caller.
    """
    raw = list(poly.coeffs if isinstance(poly, LittlewoodPolynomial)
               else poly)
    try:
        coeffs = list(map(int, raw))
    except (OverflowError, TypeError, ValueError):  # inf, complex, nan
        coeffs = None
    if coeffs != raw:
        raise ValueError(f"{caller} needs integer coefficients")
    return coeffs


@dataclass(frozen=True, eq=False)
class RudinShapiroPair:
    """The pair (P_k, Q_k) of degree n - 1 with n = 2^k."""

    k: int
    n: int
    p: LittlewoodPolynomial
    q: LittlewoodPolynomial

    def __post_init__(self):
        if self.n != 1 << self.k:
            raise ValueError("n must equal 2^k")
        if self.p.degree != self.n - 1 or self.q.degree != self.n - 1:
            raise ValueError("both polynomials must have degree n - 1")
        if self.p.coeffs[0] != 1 or self.q.coeffs[0] != 1:
            raise ValueError("pair coefficients must start with +1")


@dataclass(frozen=True)
class SpecialValues:
    """Exact values of P_k, Q_k at z = +-1 with their closed forms.

    expected_p_at_1 is 2^floor((k+1)/2) and matches p_at_1; the same
    power with sign (-1)^(k+1) matches q_at_minus1; expected_cross is
    (1 + (-1)^k)/2 * 2^floor(k/2) and matches both p_at_minus1 and
    q_at_1 (zero for odd k, which puts a real zero at -1 resp. +1).
    Callers assert the equalities; this record just reports both sides.
    """

    k: int
    p_at_1: int
    p_at_minus1: int
    q_at_1: int
    q_at_minus1: int
    expected_p_at_1: int
    expected_q_at_minus1: int
    expected_cross: int


def generate_pair(k: int) -> RudinShapiroPair:
    """Build (P_k, Q_k) by the doubling recursion in O(2^k) work."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > MAX_PAIR_K:
        raise ResourceLimitError(
            f"k={k} exceeds the generation limit MAX_PAIR_K={MAX_PAIR_K} "
            f"(2^{k} coefficients per polynomial)")
    p = np.ones(1, dtype=np.int8)
    q = np.ones(1, dtype=np.int8)
    for _ in range(k):
        p, q = np.concatenate([p, q]), np.concatenate([p, -q])
    p.setflags(write=False)  # freshly built, safe to adopt without copying
    q.setflags(write=False)
    return RudinShapiroPair(k=k, n=1 << k,
                            p=LittlewoodPolynomial(p),
                            q=LittlewoodPolynomial(q))


def parallelogram_residual(pair: RudinShapiroPair, num_samples: int) -> float:
    """Worst relative deviation of |P|^2 + |Q|^2 from 2n on the circle.

    Samples num_samples half-offset points (evaluate checks the count);
    the identity is exact, so anything reported here is floating-point
    rounding; a mirror twin repeats its sub-grid's moduli, so none is read.
    """
    from . import evaluate

    two_n = 2.0 * pair.n
    blocks = zip(evaluate.iter_circle_values(pair.p.coeffs, num_samples),
                 evaluate.iter_circle_values(pair.q.coeffs, num_samples))
    return max(float(np.max(np.abs(np.abs(p) ** 2 + np.abs(q) ** 2 - two_n)))
               for (*_, p), (*_, q) in blocks) / two_n


def conjugate_relation_residual(pair: RudinShapiroPair,
                                num_samples: int) -> tuple[float, float]:
    """Residuals of the reversal identity tying Q_k to P_k.

    First component: the coefficient statement q_i = (-1)^(k+1+i) p_(n-1-i)
    checked exactly in integers (0.0 when it holds; it holds for k >= 1).
    Second: max over sampled circle points of | |Q(z)| - |P(-z)| |.
    """
    n = pair.n
    p = pair.p.coeffs.astype(np.int64)
    q = pair.q.coeffs.astype(np.int64)
    signs = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int64)
    sign_k = 1 if (pair.k + 1) % 2 == 0 else -1
    coeff_residual = float(np.max(np.abs(q - sign_k * signs * p[::-1])))

    from . import evaluate

    # P(-z) on the grid is the FFT of the sign-alternated coefficients,
    # on the same exact roots of unity as Q(z); a twin repeats the moduli
    blocks = zip(evaluate.iter_circle_values(q, num_samples),
                 evaluate.iter_circle_values(signs * p, num_samples))
    numeric = max(float(np.max(np.abs(np.abs(qv) - np.abs(p_neg))))
                  for (*_, qv), (*_, p_neg) in blocks)
    return coeff_residual, numeric


def special_values(k: int) -> SpecialValues:
    """Exact signed coefficient sums of P_k, Q_k at +-1 plus closed forms."""
    pair = generate_pair(k)
    p = pair.p.coeffs.astype(np.int64)
    q = pair.q.coeffs.astype(np.int64)
    alt = np.where(np.arange(pair.n) % 2 == 0, 1, -1).astype(np.int64)
    pow_half_up = 1 << ((k + 1) // 2)
    cross = ((1 + (-1) ** k) // 2) * (1 << (k // 2))
    # the (-1)^(k+1) sign applies for k >= 1; at k = 0 the pair is the
    # constant 1, so Q_0(-1) = +1
    expected_q_at_minus1 = 1 if k == 0 else (-1) ** (k + 1) * pow_half_up
    return SpecialValues(
        k=k,
        p_at_1=int(p.sum()),
        p_at_minus1=int((p * alt).sum()),
        q_at_1=int(q.sum()),
        q_at_minus1=int((q * alt).sum()),
        expected_p_at_1=pow_half_up,
        expected_q_at_minus1=expected_q_at_minus1,
        expected_cross=cross,
    )

