"""Root finding, Jensen-formula Mahler cross-checks, and zero censuses.

Littlewood polynomials concentrate their roots near the unit circle,
which makes deflation unstable; find_roots therefore refines all roots
jointly by Aberth-Ehrlich simultaneous iteration (Jacobi sweeps, so the
update order cannot depend on scheduling).  A root freezes once its step
is below tol (Bini & Fiorentino 2000), so a sweep costs (moving roots) x
degree, not degree^2, and forms each pair of moving roots once.  S, S'
come from powers of x and y = x^B (cumprod) summed by np.einsum.

Real-zero counts are exact: a zero at 0 is stripped and a multiple zero
at +-1 divided down to a simple one in integers; Taylor bisection on
[-1, 1], for S and its reversal, certifies the rest from the same values
and a priori rounding bounds; where it cannot, a primitive
pseudo-remainder Sturm chain in Python ints counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (LittlewoodPolynomial, ResourceLimitError,
                   integer_coefficients)

#: A sweep costs (moving roots) x degree: P_14 takes 16 s on one core.
MAX_ABERTH_DEGREE = 1 << 14
#: Above it the Sturm-chain fallback is refused: 4.6 s at degree 511 on one
#: core, about 17x more per doubling (bisection runs at any degree: P_9 in
#: 2.5 ms, P_11 in 3.4 ms).
MAX_STURM_DEGREE = 1 << 9


@dataclass(eq=False)
class RootSet:
    """All roots of one polynomial with per-root quality measures.

    residuals are Newton-step magnitudes |S(z)| / max(|S'(z)|, tiny),
    i.e. first-order distances from z to the true root (for an m-fold
    zero, of S^(m-1)); roots whose residual is not within the tolerance
    (a NaN residual included) are flagged rather than dropped.
    """

    roots: np.ndarray
    residuals: np.ndarray
    flags: np.ndarray
    tolerance: float
    degree: int
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
    arr = np.asarray(poly)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a 1-d coefficient sequence")
    if (arr.dtype.kind == "c"  # a cast would drop the imaginary parts
            or not np.isfinite(arr := arr.astype(np.float64)).all()):
        raise ValueError("find_roots needs real, finite coefficients")
    if arr[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return arr


#: Below it one block of width d + 1: a y stage costs more than it saves.
_ONE_BLOCK = 1 << 7


def _coefficient_blocks(c: np.ndarray) -> np.ndarray:
    """(nb, 2, B) blocks of S and S' coefficients, B = ceil(sqrt(d + 1)).

    blocks[i, :, r] holds the coefficients of z^(iB + r) in S and S',
    zero-padded past the top degree; below _ONE_BLOCK coefficients B = d + 1.
    """
    size = len(c)
    width = size if size < _ONE_BLOCK else math.isqrt(size - 1) + 1
    pair = np.zeros((2, -(-size // width) * width))
    pair[0, :size] = c
    pair[1, :size - 1] = c[1:] * np.arange(1, size)
    return pair.reshape(2, -1, width).transpose(1, 0, 2).copy()


def _power_sums(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(S(x), S'(x)) as an (m, 2) array: sum_i y^i sum_r blocks[i, :, r] x^r.

    Per tile of rows, cumprod forms x^r, r < B, and y^i, i < nb, y = x^B by
    pow; np.einsum (numpy's loops, no BLAS) sums over r, real and imaginary
    parts apart, then over i.  No temporary exceeds (tile, 2, B).
    """
    nb, _, width = blocks.shape
    rows = max(1, (1 << 14) // width)  # tiles of about 2^14 powers of x
    if len(x) > rows:
        return np.concatenate([_power_sums(blocks, x[lo:lo + rows])
                               for lo in range(0, len(x), rows)])
    powers = np.empty((min(nb, 2), len(x), width), dtype=x.dtype)
    powers[:, :, 0] = 1.0
    powers[0, :, 1:] = x[:, None]
    if nb > 1:
        powers[1, :, 1:] = (x ** width)[:, None]
    np.cumprod(powers, axis=2, out=powers)
    flat = blocks.reshape(2 * nb, width)
    if nb == 1:
        return np.einsum("mr,kr->mk", powers[0], flat)
    parts = [powers[0].real, powers[0].imag][:1 + (x.dtype.kind == "c")]
    sums = np.einsum("zmr,kr->zmk", np.array(parts), flat)
    inner = sums[0] + 1j * sums[1] if len(sums) > 1 else sums[0]
    return np.einsum("mic,mi->mc", inner.reshape(len(x), nb, 2),
                     powers[1, :, :nb])


def _newton_ratio(blocks, blocks_rev, d, x):
    """S(x)/S'(x), switching to reversed coefficients for |x| > 1.

    With y = 1/x and q the reversed polynomial, S(x) = x^d q(y) and
    S'(x) = x^(d-1) (d q(y) - y q'(y)); evaluating q at |y| < 1 avoids
    the overflow of x^d at high degree.
    """
    ratio = np.empty_like(x)
    inner = np.abs(x) <= 1.0
    xi = x[inner]
    if xi.size:
        pv, dv = _power_sums(blocks, xi).T
        ratio[inner] = pv / np.where(dv == 0, 1e-300, dv)
    xo = x[~inner]
    if xo.size:
        y = 1.0 / xo
        qv, dqv = _power_sums(blocks_rev, y).T
        denom = d * qv - y * dqv
        ratio[~inner] = xo * qv / np.where(denom == 0, 1e-300, denom)
    return ratio


def _repulsion(moving: np.ndarray, frozen: np.ndarray) -> np.ndarray:
    """sum over j != i of 1/(x_i - x_j) = conj(diff) / |diff|^2, x_i moving.

    Row blocks of about 2^15 elements meet their own and the frozen columns
    whole, each later moving column once: as fl(a - b) = -fl(b - a), that
    pair's term is added to its row and subtracted from the column's.
    """
    out = np.zeros(len(moving), dtype=moving.dtype)
    rows = max(1, (1 << 15) // (len(moving) + len(frozen)))
    for lo in range(0, len(moving), rows):
        cols = (np.concatenate((moving[lo:], frozen)) if len(frozen)
                else moving[lo:])
        re = moving.real[lo:lo + rows, None] - cols.real
        im = moving.imag[lo:lo + rows, None] - cols.imag
        own = slice(None, None, re.shape[1] + 1)  # flat (k, k), k < rows
        re.reshape(-1)[own] = 1.0  # keeps |diff|^2 > 0; its weight is zeroed
        w = 1.0 / (re * re + im * im)
        w.reshape(-1)[own] = 0.0
        re, im = re * w, im * w
        out[lo:lo + rows] += re.sum(1) - 1j * im.sum(1)
        if lo + rows < len(moving):
            later = slice(rows, len(moving) - lo)
            out[lo + rows:] -= re[:, later].sum(0) - 1j * im[:, later].sum(0)
    return out


def _center_clusters(c, x, residuals, radius=1e-4):
    """Move each cluster of m > 1 roots onto the m-fold zero it splits from.

    Rounding spreads an m-fold zero over about eps^(1/m), all at |S| of
    rounding level, so the cluster's mean can sit far off the zero.  The
    zero is simple for S^(m-1), so Newton finds it from the mean; it is
    kept, with the last step as residual, only where S is at rounding level.
    """
    order = np.argsort(x.real, kind="stable")
    xs, label = x[order], np.arange(len(x))
    for s in range(1, len(x)):  # pairs within radius, by real part
        near = xs.real[s:] - xs.real[:-s] <= radius
        if not near.any():
            break
        for i in np.flatnonzero(near & (np.abs(xs[s:] - xs[:-s]) <= radius)):
            label[label == label[order[i + s]]] = label[order[i]]
    values, counts = np.unique(label, return_counts=True)
    for members in (np.flatnonzero(label == v) for v in values[counts > 1]):
        high = c[::-1]  # S^(m-1), highest power first
        for _ in members[1:]:
            high = high[:-1] * np.arange(len(high) - 1, 0, -1)
        slope = high[:-1] * np.arange(len(high) - 1, 0, -1)
        z = x[members].mean()
        with np.errstate(all="ignore"):  # a failed step is NaN, not kept
            for _ in range(8):  # quadratic from about eps^(1/m)
                step = np.polyval(high, z) / np.polyval(slope, z)
                z -= step
            level = (abs(np.polyval(c[::-1], z))
                     / np.polyval(np.abs(c[::-1]), abs(z)))
        if level <= 8 * len(c) * np.finfo(float).eps:
            x[members], residuals[members] = z, abs(step)


def _aberth_start(degree: int) -> np.ndarray:
    """Start points x_j = (1 + 1/d) exp(2 pi i (sigma(j) + 1/4) / d).

    Equispaced on a circle just outside the unit circle, where the roots
    cluster, and turned a quarter spacing off conjugate symmetry so no
    start point is real or paired with its conjugate.  sigma(j) = j m
    mod d strides round the circle by m, the integer nearest d / phi
    made coprime to d: index order then interleaves far-apart points,
    which keeps np.poly's expansion of the roots in that order stable.
    """
    m = round(degree * 2 / (1 + math.sqrt(5)))
    while math.gcd(m, degree) != 1:
        m += 1
    sigma = np.arange(degree) * m % degree
    return (1.0 + 1.0 / degree) * np.exp(1j * math.tau * (sigma + 0.25)
                                         / degree)


def find_roots(poly, tol: float = 1e-10, max_iter: int = 200) -> RootSet:
    """All complex roots by Aberth-Ehrlich simultaneous refinement.

    Starts from the fixed circle of _aberth_start, so the result depends
    on the coefficients, tol and max_iter alone; refines every root
    jointly with no deflation, and always verifies residuals of all
    roots.  A root whose capped step has |delta| / (1 + |z|) < tol is
    frozen, yet still repels the moving ones.  A multiple zero, which
    rounding splits into a cluster, is returned m times at one point.
    On non-convergence the partial result is returned with flags set,
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
    blocks = _coefficient_blocks(c)
    blocks_rev = _coefficient_blocks(c[::-1])

    x = _aberth_start(degree)

    # Aberth steps can overshoot badly from a bad configuration; a cap
    # on the move length keeps iterates near the root annulus.
    step_cap = 0.5
    active = np.arange(degree)
    frozen = x[:0]
    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        xa = x[active]
        newton = _newton_ratio(blocks, blocks_rev, degree, xa)
        delta = newton / (1.0 - newton * _repulsion(xa, frozen))
        mag = np.abs(delta)
        delta *= np.minimum(1.0, step_cap / np.maximum(mag, 1e-300))
        x[active] = xa = xa - delta
        # a NaN step fails the test and stays active
        done = np.abs(delta) / (1.0 + np.abs(xa)) < tol
        if done.any():
            frozen = np.concatenate((frozen, xa[done]))
            active = active[~done]
        if not active.size:
            converged = True
            break

    residuals = np.abs(_newton_ratio(blocks, blocks_rev, degree, x))
    _center_clusters(c, x, residuals)
    flags = ~(residuals <= tol)  # a NaN residual is flagged too
    return RootSet(roots=x, residuals=residuals, flags=flags, tolerance=tol,
                   degree=degree, iterations=iterations, converged=converged)


def jensen_mahler(rootset: RootSet) -> float:
    """Mahler measure prod max(1, |z_j|) from a computed root set.

    Jensen's formula for a leading coefficient of modulus 1, as in every
    Littlewood polynomial.  The product runs in log space so degree-2^14
    inputs cannot overflow.  Refuses flagged root sets: a bad root
    silently skews the product.
    """
    if rootset.flags.any():
        bad = int(rootset.flags.sum())
        raise ValueError(
            f"{bad} root(s) exceed residual tolerance {rootset.tolerance}; "
            "refusing to build a Mahler measure from unconverged roots")
    moduli = np.abs(rootset.roots)
    return float(math.exp(np.sum(np.log(np.maximum(1.0, moduli)))))


def zero_census(rootset: RootSet, eps: float = 1e-4) -> ZeroCensus:
    """Classify roots by |z| against a band of width eps around the circle.

    Refuses root sets with a non-finite root: a NaN fails every band
    test, so it would be counted outside the circle, and as real when
    its imaginary part is 0.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    bad = int(np.count_nonzero(~np.isfinite(rootset.roots)))
    if bad:
        raise ValueError(f"{bad} root(s) are not finite; refusing to count "
                         "them into the census bands")
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
# Exact real-zero counting (deflation at +-1, Taylor bisection, Sturm chain).
# ---------------------------------------------------------------------------

def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return [c // g for c in v] if g > 1 else v


def _pseudo_remainder(f: list[int], g: list[int]) -> tuple[list[int], int]:
    """(r, sign): r = positive * sign * (f mod g), all in integers.

    f[-1] and g[-1] are nonzero; each step strips r's zero top terms.
    """
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    sign = 1
    while len(r) - 1 >= dg:
        lead = r[-1]
        if lg < 0:
            sign = -sign
        shift = len(r) - 1 - dg
        r = [lg * c for c in r[:shift]] + \
            [lg * c - lead * gc for c, gc in zip(r[shift:-1], g[:dg])]
        while r and r[-1] == 0:
            r.pop()
    return r, sign


def _sturm_count(coeffs) -> int:
    """Distinct real zeros by a primitive pseudo-remainder Sturm chain.

    Every term is a positive multiple of the true Sturm term, so the sign
    variations at -inf and +inf come from leading coefficients alone.
    """
    p = [int(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if len(p) <= 1:
        return 0
    chain = [_primitive(p), _primitive([i * p[i] for i in range(1, len(p))])]
    while len(chain[-1]) > 1:
        r, sign = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r] if sign > 0 else r))
    at_plus = [1 if term[-1] > 0 else -1 for term in chain]
    at_minus = [s * (-1) ** (len(term) - 1) for s, term in zip(at_plus, chain)]

    def variations(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    return variations(at_minus) - variations(at_plus)


#: Cells one orientation of Taylor bisection may use before the chain runs.
_CELL_BUDGET = 1 << 12
#: Times a coefficient row sum, covers the loss to underflow (_taylor_values).
_UNDERFLOW = 2.0 ** -1000
#: Scales a cell test's larger side, covering the roundings of both sides.
_SLACK = 1 + 2.0 ** -40


def _taylor_values(blocks, sizes, x):
    """(S, S') at real |x| <= 1 as an (m, 2) array, and their rounding bounds.

    blocks and sizes are _coefficient_blocks of integers a_i and |a_i| below
    2^50.  With u = 2^-53, _power_sums rounds the term of x^(iB + r) at most
    N = 2B + 4nb - 5 times: r - 1 in x^r, 3i - 1 in y^i (y = x^B by pow,
    within an ulp: 2u), B and nb in the sums over r and i (a product, then
    additions in any order), one in i a_i for S'.  So S is off by at most
    gamma_N sum |a_i| |x|^i, gamma_N = N u / (1 - N u), and S' by gamma_N
    sum i |a_i| |x|^(i-1): the rows of sizes at |x|, which nonnegative terms
    keep within 1 + gamma_N.  N < 4 (nb + B): rel = 8 (nb + B) u covers both.
    A product that underflows loses under 2^-1075 (additions are exact), a
    loss in x^r or y^i then scaled by a coefficient: under (B + 4nb + 1)
    2^-1075 times the row sum of sizes (>= 1) in all, under _UNDERFLOW times.
    """
    rel = 4 * (blocks.shape[0] + blocks.shape[2]) * np.finfo(float).eps
    return _power_sums(blocks, x), (rel * _power_sums(sizes, np.abs(x))
                                    + _UNDERFLOW * sizes.sum(axis=(0, 2)))


def _cell_count(a: np.ndarray, ends) -> int | None:
    """Zeros of sum a_i x^i in (-1, 1), or None where cells cannot decide.

    A dyadic cell [c - h, c + h] has S, S' at c within e, e' (_taylor_values)
    and M >= A''(|c| + h) >= |S''| on it, A = sum |a_i| x^i (blocks of
    i |a_i|, no larger than a's; the value plus its rounding bound).  By
    Taylor it has no zero if |S| - e > (|S'| + e') h + M h^2 / 2.  If
    |S'| - e' > M h, S is monotone on it: one zero if also (|S'| - e') h >
    |S| + e + M h^2 / 2 (end values of opposite signs), none inside if it
    ends at -1 or 1 where S is 0 (ends).  Other cells split in eight.  A
    multiple zero or a zero on a cell edge never decides: past
    _CELL_BUDGET cells or half-width 2^-50, None.
    """
    blocks, sizes = _coefficient_blocks(a), _coefficient_blocks(np.abs(a))
    curves = _coefficient_blocks(np.arange(1, len(a)) * np.abs(a[1:]))
    grow = 1 + 4 * (curves.shape[0] + curves.shape[2]) * np.finfo(float).eps
    floor = _UNDERFLOW * curves[:, 1].sum()
    h = 2.0 ** -5
    centers = np.arange(-1 + h, 1, 2 * h)
    count = cells = 0
    while centers.size:
        cells += centers.size
        if cells > _CELL_BUDGET or h < 2.0 ** -50:
            return None
        values, errors = _taylor_values(blocks, sizes, centers)
        (value, slope), (err, err_slope) = np.abs(values).T, errors.T
        curve = grow * _power_sums(curves, np.abs(centers) + h)[:, 1] + floor
        drift = curve * h * h / 2
        low_slope = slope - err_slope
        free = value - err > _SLACK * ((slope + err_slope) * h + drift)
        steep = low_slope > _SLACK * curve * h
        crossing = steep & (low_slope * h > _SLACK * (value + err + drift))
        at_end = steep & ((centers + h == 1) & ends[1]
                          | (centers - h == -1) & ends[0])
        count += int(np.count_nonzero(crossing))
        step = h / 8
        centers = (centers[~(free | crossing | at_end), None] - h + step
                   + 2 * step * np.arange(8)).ravel()
        h = step
    return count


def _at(c: list[int], r: int) -> int:
    """sum c_i r^i for r = 1 or -1."""
    return sum(c[::2]) + r * sum(c[1::2])


def _divide(c: list[int], r: int) -> list[int]:
    """Quotient of sum c_i x^i by x - r, exact where the sum vanishes at r."""
    quotient = [c[-1]]  # highest power first
    for v in c[-2:0:-1]:
        quotient.append(v + r * quotient[-1])
    return quotient[::-1]


def real_zero_count_exact(poly) -> int:
    """Number of distinct real zeros, certified.

    A zero at 0 is stripped.  A multiple zero at 1 or -1 (where P and its
    quotient by x - 1 or x + 1, exact integer sums, both vanish) is divided
    down to a simple one by synthetic division in integers, and each of +-1
    counts once.  Taylor bisection (_cell_count) counts (-1, 1) for P and
    for x^d P(1/x), whose zeros there are 1/x of P's zeros with |x| > 1.  It
    decides almost every input in milliseconds, at any degree.  Where it
    cannot (a multiple zero inside, a zero on a cell edge, coefficients of
    2^50 or more), the Sturm chain (_sturm_count) counts the real zeros of
    that P instead; only it is refused above MAX_STURM_DEGREE, with
    ResourceLimitError.  Non-integer coefficients raise ValueError.
    """
    coeffs = integer_coefficients(poly, "real_zero_count_exact")
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return 0
    low = next(i for i, v in enumerate(coeffs) if v)
    c = coeffs[low:]
    for r in (1, -1):
        while _at(c, r) == 0 and _at(quotient := _divide(c, r), r) == 0:
            c = quotient
    ends = (_at(c, -1) == 0, _at(c, 1) == 0)
    if max(map(abs, c)) < 1 << 50:
        a = np.array(c, dtype=np.float64)
        count = sum(ends)
        for image in (a, a[::-1]) if len(c) > 1 else ():
            inside = _cell_count(image, ends)
            if inside is None:
                break
            count += inside
        else:
            return int(low > 0) + count
    if len(c) - 1 > MAX_STURM_DEGREE:
        raise ResourceLimitError(
            f"degree {len(c) - 1} exceeds the Sturm limit {MAX_STURM_DEGREE} "
            "where bisection cannot decide; use find_roots + zero_census "
            "instead")
    return int(low > 0) + _sturm_count(c)
