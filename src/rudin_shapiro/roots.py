"""Root finding, Jensen-formula Mahler cross-checks, and zero censuses.

Littlewood polynomials concentrate their roots near the unit circle,
which makes deflation unstable; find_roots therefore refines all roots
jointly by Aberth-Ehrlich simultaneous iteration (Jacobi sweeps, so the
update order cannot depend on scheduling).  Real-zero counts are also
available through an exact integer Sturm chain, independent of any
floating-point solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LittlewoodPolynomial, ResourceLimitError

try:  # GMP-backed integers cut the exact Sturm chain cost several-fold
    from gmpy2 import gcd as _int_gcd
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from math import gcd as _int_gcd

    _mpz = int

#: Simultaneous iteration is O(degree^2) per sweep.
MAX_ABERTH_DEGREE = 1 << 14
#: Exact Sturm chains stay tractable to about this degree.
MAX_STURM_DEGREE = 1 << 10


@dataclass(eq=False)
class RootSet:
    """All roots of one polynomial with per-root quality measures.

    residuals are Newton-step magnitudes |S(z)| / max(|S'(z)|, tiny),
    i.e. first-order distances from z to the true root; roots whose
    residual exceeds the tolerance are flagged rather than dropped.
    """

    roots: np.ndarray
    residuals: np.ndarray
    flags: np.ndarray
    tolerance: float
    degree: int
    seed: int
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ZeroCensus:
    """Counts of roots by position relative to the unit circle.

    inside means |z| < 1 - eps, the circle band is | |z| - 1 | <= eps,
    outside is the rest; real_zeros counts |Im z| <= eps.  The three
    bands partition the root set.
    """

    inside_open_disk: int
    on_circle_within_eps: int
    outside: int
    real_zeros: int
    eps: float


def _coefficients(poly) -> np.ndarray:
    if isinstance(poly, LittlewoodPolynomial):
        return poly.coeffs.astype(np.float64)
    arr = np.asarray(poly, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a 1-d coefficient sequence")
    if arr[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return arr


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.full_like(x, complex(c[-1]))
    for j in range(len(c) - 2, -1, -1):
        acc = acc * x + c[j]
    return acc


def _newton_ratio(c, dc, c_rev, dc_rev, x):
    """S(x)/S'(x), switching to reversed coefficients for |x| > 1.

    With y = 1/x and q the reversed polynomial, S(x) = x^d q(y) and
    S'(x) = x^(d-1) (d q(y) - y q'(y)); evaluating q at |y| < 1 avoids
    the overflow of x^d at high degree.
    """
    d = len(c) - 1
    ratio = np.empty_like(x)
    inner = np.abs(x) <= 1.0
    xi = x[inner]
    if xi.size:
        pv = _horner(c, xi)
        dv = _horner(dc, xi)
        ratio[inner] = pv / np.where(dv == 0, 1e-300, dv)
    xo = x[~inner]
    if xo.size:
        y = 1.0 / xo
        qv = _horner(c_rev, y)
        dqv = _horner(dc_rev, y)
        denom = d * qv - y * dqv
        ratio[~inner] = xo * qv / np.where(denom == 0, 1e-300, denom)
    return ratio


def find_roots(poly, tol: float = 1e-10, max_iter: int = 200,
               seed: int = 0) -> RootSet:
    """All complex roots by Aberth-Ehrlich simultaneous refinement.

    Starts from a circle of radius 1 + 1/degree with seeded random
    phases (roots cluster near the unit circle), refines every root
    jointly with no deflation, and always verifies residuals.  On
    non-convergence the partial result is returned with flags set,
    never silently.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    c = _coefficients(poly)
    degree = len(c) - 1
    if degree < 1:
        raise ValueError("find_roots needs degree >= 1")
    if degree > MAX_ABERTH_DEGREE:
        raise ResourceLimitError(
            f"degree {degree} exceeds the simultaneous-iteration limit "
            f"{MAX_ABERTH_DEGREE}")
    dc = c[1:] * np.arange(1, degree + 1, dtype=np.float64)
    c_rev = c[::-1].copy()
    dc_rev = c_rev[1:] * np.arange(1, degree + 1, dtype=np.float64)

    rng = np.random.default_rng(seed)
    x = (1.0 + 1.0 / degree) * np.exp(1j * math.tau * rng.random(degree))

    # Aberth steps can overshoot badly from a bad configuration; a cap
    # on the move length keeps iterates near the root annulus.
    step_cap = 0.5
    block = max(1, (1 << 22) // degree)
    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        newton = _newton_ratio(c, dc, c_rev, dc_rev, x)
        repulsion = np.zeros(degree, dtype=np.complex128)
        for lo in range(0, degree, block):
            hi = min(lo + block, degree)
            diff = x[lo:hi, None] - x[None, :]
            rows = np.arange(lo, hi)
            diff[rows - lo, rows] = np.inf
            repulsion[lo:hi] = (1.0 / diff).sum(axis=1)
        delta = newton / (1.0 - newton * repulsion)
        mag = np.abs(delta)
        delta *= np.minimum(1.0, step_cap / np.maximum(mag, 1e-300))
        x = x - delta
        if float(np.max(np.abs(delta) / (1.0 + np.abs(x)))) < tol:
            converged = True
            break

    residuals = np.abs(_newton_ratio(c, dc, c_rev, dc_rev, x))
    flags = residuals > tol
    return RootSet(roots=x, residuals=residuals, flags=flags, tolerance=tol,
                   degree=degree, seed=seed, iterations=iterations,
                   converged=converged)


def jensen_mahler(rootset: RootSet,
                  leading_coefficient_magnitude: float = 1.0) -> float:
    """Mahler measure |c| * prod max(1, |z_j|) from a computed root set.

    The product runs in log space so degree-2^14 inputs cannot
    overflow.  Refuses flagged root sets: a bad root silently skews the
    product.
    """
    if rootset.flags.any():
        bad = int(rootset.flags.sum())
        raise ValueError(
            f"{bad} root(s) exceed residual tolerance {rootset.tolerance}; "
            "refusing to build a Mahler measure from unconverged roots")
    moduli = np.abs(rootset.roots)
    return float(leading_coefficient_magnitude *
                 math.exp(np.sum(np.log(np.maximum(1.0, moduli)))))


def zero_census(rootset: RootSet, eps: float = 1e-4) -> ZeroCensus:
    """Classify roots by |z| against a band of width eps around the circle."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    moduli = np.abs(rootset.roots)
    on_circle = np.abs(moduli - 1.0) <= eps
    inside = moduli < 1.0 - eps
    outside = ~on_circle & ~inside
    real = np.abs(rootset.roots.imag) <= eps
    return ZeroCensus(
        inside_open_disk=int(inside.sum()),
        on_circle_within_eps=int(on_circle.sum()),
        outside=int(outside.sum()),
        real_zeros=int(real.sum()),
        eps=eps,
    )


# ---------------------------------------------------------------------------
# Exact real-zero counting (integer Sturm chain).
# ---------------------------------------------------------------------------

def _content(v) -> int:
    g = _mpz(0)
    for coeff in v:
        g = _int_gcd(g, coeff)
        if g == 1:
            return g
    return g


def _strip_content(v):
    g = _content(v)
    return [coeff // g for coeff in v] if g > 1 else v


def _pseudo_remainder(f, g):
    """(r, sign): r = positive * sign * (f mod g), all in integers.

    Classic pseudo-division: scale the dividend by the divisor's leading
    coefficient before each elimination, tracking the sign of the
    accumulated multiplier so the caller can recover the sign of the
    true remainder.
    """
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    g_low = g[:dg]
    sign = 1
    while len(r) - 1 >= dg:
        lead = r[-1]
        if lead == 0:
            r.pop()
            continue
        if lg < 0:
            sign = -sign
        shift = len(r) - 1 - dg
        head = r[:shift]
        tail = r[shift:-1]
        r = [lg * coeff for coeff in head] + \
            [lg * coeff - lead * gc for coeff, gc in zip(tail, g_low)]
        while r and r[-1] == 0:
            r.pop()
    return r, sign


def _sign_variations(signs) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def real_zero_count_exact(poly) -> int:
    """Number of distinct real zeros, by an exact integer Sturm chain.

    Builds the chain with primitive pseudo-remainders (content stripped
    each step, signs corrected so every term is a positive multiple of
    the true Sturm term) and counts sign variations at -inf and +inf
    from leading coefficients alone.  No floating point anywhere.
    """
    if isinstance(poly, LittlewoodPolynomial):
        coeffs = [int(c) for c in poly.coeffs]
    else:
        coeffs = [int(c) for c in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    degree = len(coeffs) - 1
    if degree > MAX_STURM_DEGREE:
        raise ResourceLimitError(
            f"degree {degree} exceeds the exact-arithmetic limit "
            f"{MAX_STURM_DEGREE}; use find_roots + zero_census instead")
    if degree <= 0:
        return 0

    p = [_mpz(c) for c in coeffs]
    dp = [i * p[i] for i in range(1, len(p))]
    chain = [_strip_content(p), _strip_content(dp)]
    while len(chain[-1]) - 1 > 0:
        r, sign = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        # next Sturm term is -(previous mod current) up to positive scale
        if sign > 0:
            r = [-coeff for coeff in r]
        chain.append(_strip_content(r))

    at_plus = [1 if term[-1] > 0 else -1 for term in chain]
    at_minus = [s * (-1 if (len(term) - 1) % 2 else 1)
                for s, term in zip(at_plus, chain)]
    return _sign_variations(at_minus) - _sign_variations(at_plus)
