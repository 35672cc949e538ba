"""Circle evaluation of Rudin-Shapiro pairs: FFT, recursion, oracle.

A grid of P_k or Q_k takes one of three backends, and every grid count,
on every backend, is checked by _grid_count (an integer >= 1, else
ValueError) before anything is allocated or transformed:

- the exact full circle [0, 2 pi): in-place inverse FFTs of the folded,
  twiddled coefficients, one per interleaved sub-grid of min(count,
  MIN_FFT) to GRID_MAX_COUNT points (iter_circle_values), on exact roots
  of unity, free of angle rounding; a half-offset sub-grid stands for its
  mirror twin too (iter_circle_values' mirror rule);
- subarcs: the doubling recursion (iter_arc_values) in DEFAULT_CHUNK
  blocks, on the point set of a chirp z-transform, z_j = e^{i alpha}
  w^(2j + s) with w = e^{ig}; the powers z_j, like the full circle's
  twiddles, come from one outer product of two short exact-phase vectors
  (_exact_phases), and each level squares them once, unnormalized: O(k)
  complex operations a point instead of the O(2^k) of Horner's rule, with
  rounding error growing with k rather than with the degree (arc_value_error);
- single points: the same recursion with the squarings in double-double
  (eval_pair_point).

Consumers of |S| alone read |S|^2 as a real series instead: on the
full circle iter_circle_squares takes one irfft per sub-grid of the exact
autocorrelation (autocorrelation), its half-length spectrum formed from
the fold, within an a priori bound given there.
iter_arc_squares dispatches it, squaring complex blocks on subarcs, and
forms every |S|^2 of the norms, the flatness defect, the modulus minimum
and the certified subarcs, each block weighted by the blocks it stands
for; Bernstein's check reads iter_circle_squares for its slope.  The
complex stream serves the value distribution, the residuals and the GF(2)
falsifier; eval_grid materializes it through circle_values.

Subarcs have no FFT backend: on the same points the recursion took 0.02
to 0.93 of the time of a streamed Bluestein chirp-z transform at every
size measured (one component, k = 4..18, 8n to 2^24 points; Python
3.11, numpy 2.4, 2 cores).  Horner evaluation (eval_horner) is only a
cross-check oracle.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import LittlewoodPolynomial, ResourceLimitError, RudinShapiroPair

#: Block length of recursion grids: four block arrays (1 MiB) fit a 2 MiB L2,
#: 4.9-5.2 ns a point and level at k = 6..14 (7.2-9.0 ns in blocks of 2^16).
DEFAULT_CHUNK = 1 << 14
#: Cap on materialized grids (two complex arrays of this length) and on
#: each streamed full-circle sub-grid.
GRID_MAX_COUNT = 1 << 24
#: Horner oracle degree guard; the oracle is O(n) per point.
HORNER_MAX_DEGREE = 1 << 20
#: Smallest full-circle sub-grid: shorter costs more in calls.
MIN_FFT = 1 << 12
#: 2 pi minus its double: (math.tau, _TAU_LO) is 2 pi to about 106 bits.
_TAU_LO = 2.4492935982947064e-16

GRID_DUMP_MAGIC = b"RSGRID"
GRID_DUMP_VERSION = 1

# Streamed grids free a few sub-grid arrays per block; under glibc's
# dynamic thresholds the heap top then goes back to the system, and each
# block faults in fresh pages (half the time of a k = 16 full circle).
# Fix them where that rule ends: heap below 32 MiB, trim past 64 MiB.
with contextlib.suppress(AttributeError, OSError, TypeError):  # not glibc
    ctypes.CDLL(None).mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@dataclass(frozen=True)
class Arc:
    """A subarc [alpha, beta] of the circle, in radians, with length <= 2*pi."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha < self.beta):
            raise ValueError(f"arc needs alpha < beta, got [{self.alpha}, {self.beta}]")
        if self.beta - self.alpha > math.tau * (1 + 1e-12):
            raise ValueError("arc length may not exceed 2*pi")

    @property
    def length(self) -> float:
        return self.beta - self.alpha

    @property
    def fraction(self) -> float:
        return self.length / math.tau

    @classmethod
    def full(cls) -> "Arc":
        return cls(0.0, math.tau)


FULL_CIRCLE = Arc.full()


@dataclass(frozen=True)
class CirclePoint:
    """A finite angle on the unit circle, reduced to [0, 2*pi)."""

    theta: float

    def __post_init__(self):
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValueError(f"angle must be finite, got {theta}")
        object.__setattr__(self, "theta", theta % math.tau)

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.theta)


@dataclass(frozen=True, eq=False)
class GridSamples:
    """Pair values on a uniform grid over an arc.

    Sample j sits at theta = alpha + (j + offset) * (beta - alpha) / count
    with offset = 1/2 on the default half-offset grid and 0 on the full
    lattice (which contains the exact n-th roots of unity).
    """

    k: int
    arc: Arc
    count: int
    values_p: np.ndarray
    values_q: np.ndarray
    half_offset: bool = True


def _grid_count(count) -> int:
    """count as an int if it is an integer >= 1, Python or numpy."""
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    return int(count)


def _capped_count(count) -> int:
    """_grid_count, refusing a count past GRID_MAX_COUNT points."""
    count = _grid_count(count)
    if count > GRID_MAX_COUNT:
        raise ResourceLimitError(
            f"count {count} exceeds the grid memory cap {GRID_MAX_COUNT}")
    return count


def circle_grid(alpha: float, beta: float, count: int,
                half_offset: bool = True) -> np.ndarray:
    """Uniform grid angles over [alpha, beta) with optional half-step offset."""
    count = _grid_count(count)
    offset = 0.5 if half_offset else 0.0
    return alpha + (np.arange(count, dtype=np.float64) + offset) * \
        ((beta - alpha) / count)


# Error-free transformations (Dekker/Knuth).  Work elementwise on
# arrays; no fma required.

def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _dd_square_complex(xh, xl, yh, yl):
    """Double-double square of x + iy; keeps ~32 digits of phase.

    Powers of z obtained by repeated plain squaring lose 2^j * eps of
    phase by level j, which is fatal to point values at degree 2^k - 1;
    the compensated chain keeps every power consistent with the exact
    square of the starting complex number.
    """
    p1, e1 = _two_prod(xh, xh)
    e1 = e1 + 2.0 * xh * xl
    p2, e2 = _two_prod(yh, yh)
    e2 = e2 + 2.0 * yh * yl
    rh, rl = _two_sum(p1, -p2)
    rl = rl + (e1 - e2)
    rh, rl = _two_sum(rh, rl)
    p3, e3 = _two_prod(xh, yh)
    e3 = e3 + (xh * yl + xl * yh)
    ih, il = _two_sum(2.0 * p3, 2.0 * e3)
    return rh, rl, ih, il


def eval_pair_point(pair: RudinShapiroPair, point) -> tuple[complex, complex]:
    """Scalar recursion evaluation at one circle point.

    The squaring chain runs in double-double so the powers stay true
    powers of the evaluation point; values then agree with the Horner
    oracle to the oracle's own rounding level.
    """
    theta = CirclePoint(getattr(point, "theta", point)).theta
    z = cmath.exp(1j * theta)
    p = 1 + 0j
    q = 1 + 0j
    wxh, wxl, wyh, wyl = z.real, 0.0, z.imag, 0.0
    for step in range(pair.k):
        wq = complex(wxh + wxl, wyh + wyl) * q
        p, q = p + wq, p - wq
        if step != pair.k - 1:
            wxh, wxl, wyh, wyl = _dd_square_complex(wxh, wxl, wyh, wyl)
    return p, q


def eval_horner(poly, point):
    """Nested-multiplication oracle, O(degree) per point.

    Accepts a LittlewoodPolynomial or a coefficient sequence (low degree
    first) and a scalar angle, CirclePoint, or array of angles.  Runs
    compensated: every product and sum carries its rounding error into
    a first-order correction term, which keeps the oracle trustworthy
    at degree 2^20 where plain Horner drifts past 1e-10.
    """
    coeffs = poly.coeffs if isinstance(poly, LittlewoodPolynomial) else \
        np.asarray(poly)
    degree = len(coeffs) - 1
    if degree > HORNER_MAX_DEGREE:
        raise ResourceLimitError(
            f"degree {degree} exceeds the Horner oracle limit {HORNER_MAX_DEGREE}")
    c = np.asarray(coeffs, dtype=np.float64)
    if isinstance(point, CirclePoint):
        thetas = np.array([point.theta])
        scalar = True
    else:
        arr = np.asarray(point, dtype=np.float64)
        scalar = arr.ndim == 0
        thetas = np.atleast_1d(arr)
    z = np.exp(1j * np.mod(thetas, math.tau))
    zr, zi = z.real.copy(), z.imag.copy()
    ar = np.full(z.shape, c[-1])
    ai = np.zeros(z.shape)
    err = np.zeros(z.shape, dtype=np.complex128)
    for j in range(len(c) - 2, -1, -1):
        pr1, er1 = _two_prod(ar, zr)
        pr2, er2 = _two_prod(ai, zi)
        re_prod, er3 = _two_sum(pr1, -pr2)
        pi1, ei1 = _two_prod(ar, zi)
        pi2, ei2 = _two_prod(ai, zr)
        im_prod, ei3 = _two_sum(pi1, pi2)
        re_new, er4 = _two_sum(re_prod, c[j])
        err = err * z + ((er1 - er2 + er3 + er4) + 1j * (ei1 + ei2 + ei3))
        ar, ai = re_new, im_prod
    acc = (ar + 1j * ai) + err
    return complex(acc[0]) if scalar else acc


def _circle_stride(size: int, count: int) -> int:
    """The sub-grid stride of iter_circle_values for size coefficients."""
    count = _grid_count(count)
    # FFT scratch stays near the degree, and short grids stay few
    stride = max(math.gcd(count, 64, 1 << max(
        0, (count // max(size, MIN_FFT)).bit_length() - 1)),
                 1 << (-(-count // GRID_MAX_COUNT) - 1).bit_length())
    if count % stride:
        raise ResourceLimitError(f"count {count} past the grid cap is not "
                                 f"a multiple of the stride {stride}")
    return stride


def _circle_folds(coeffs, count: int, half_offset: bool = True):
    """Yield (r, stride, F): a folded modulo L = count / stride for sub-grid r.

    Horner in z^L over the rows, per sub-grid only past the cap: F is real
    and formed once at stride 1 (z^L is exactly -1 or 1) or in one row.
    r runs over the sub-grids of iter_circle_values' mirror rule.
    """
    a = np.asarray(coeffs)
    if np.iscomplexobj(a):
        raise ValueError("circle grids need real coefficients")
    stride = _circle_stride(a.size, count)
    length = count // stride
    complex_fold = stride > 1 and a.size > length  # only past the cap
    for r in range(stride // 2 if half_offset and stride > 1 else stride):
        if r == 0 or complex_fold:
            turn = np.exp(2j * np.pi * (r + 0.5 * half_offset) / stride) \
                if complex_fold else (-1.0 if half_offset else 1.0)
            folded = np.zeros(length, complex if complex_fold else float)
            for lo in reversed(range(0, a.size, length)):
                folded *= turn  # exact sums at stride 1
                folded[:a.size - lo] += a[lo:lo + length]
        yield r, stride, folded


def iter_circle_values(coeffs, count: int, half_offset: bool = True):
    """Yield (r, stride, values), values[t] = S(z_{r + stride t}).

    S(z) = sum_m a_m z^m with real a_m and z_j = exp(2 pi i (j + off) /
    count), with off = 1/2 on the half-offset grid and 0 on the lattice.
    Each sub-grid j = r + stride * t is one in-place inverse FFT of length
    L = count / stride of a_m omega_r^m, omega_r = exp(2 pi i (r + off) /
    count), the twiddles taken from the exact indices (2r + 2 off) m
    (_exact_phases).  The stride is the largest power of two up to 64 that
    keeps the sub-grid at least max(a.size, MIN_FFT) long, raised to the
    smallest power of two that brings it to at most GRID_MAX_COUNT points;
    a count past the cap must be a multiple of that stride.  On a sub-grid
    shorter than a.size, a folds modulo L with the sub-grid's constant z^L
    = exp(2 pi i (r + off) / stride), which is exactly -1 or 1 when stride
    = 1.  The mirror rule: on the half-offset grid conj z_j = z_{count-1-j},
    so with stride > 1 sub-grid stride - 1 - r is conj(values[::-1]) of
    sub-grid r; only r < stride / 2 is yielded, each standing for itself
    and that twin, which circle_values alone writes out.  Elsewhere every r
    < stride is yielded.
    """
    for r, stride, folded in _circle_folds(coeffs, count, half_offset):
        f = _exact_phases(math.pi / count, 2 * r + half_offset, 0, 0,
                          folded.size, folded.size)
        f *= folded
        yield r, stride, np.fft.ifft(f, norm="forward", out=f)
        del f  # a consumer that drops the block frees it


def autocorrelation(coeffs) -> np.ndarray:
    """c_l = sum_m a_m a_{m+l} (0 <= l < n) of integer a_m, exactly.

    |S(e^it)|^2 = sum over |l| < n of c_|l| e^{ilt}.  An rfft of length 2n,
    the power spectrum and an irfft, rounded; ValueError if a value sits
    more than 1/4 from its integer (|c_l| <= n: far from it at k <= 26).
    """
    a = np.asarray(coeffs)
    c = np.fft.rfft(a, 2 * a.size)  # |X|^2 is formed in X's own array
    c.real **= 2
    c.real += np.square(c.imag, out=c.imag)
    c.imag = 0  # irfft takes it without a cast copy; rebinding c frees it
    c = np.fft.irfft(c, 2 * a.size)[:a.size]
    exact = np.rint(c)
    if np.any(np.abs(np.subtract(c, exact, out=c)) > 0.25):
        raise ValueError("autocorrelation residual above 1/4: the "
                         "coefficients must be integers")
    return exact


def _half_spectrum(fold, omega, kappa: complex, sign: int) -> np.ndarray:
    """omega_m (F_m + sign kappa conj F_{L-m}), or F_0 + sign conj F_0 at 0."""
    h = np.empty(omega.size, dtype=np.complex128)
    np.conjugate(fold[:-h.size:-1], out=h[1:])
    h[1:] *= sign * kappa
    h[0] = sign * np.conj(fold[0])
    h += fold[:h.size]
    h *= omega
    return h


def iter_circle_squares(c, count: int, *, slope: bool = False):
    """Yield (r, stride, R), R[t] = |S(z_{r + stride t})|^2, half-offset grid.

    c = autocorrelation(coefficients of S).  R(t) = sum over |l| < n of
    c_|l| e^{ilt} is real: with the grid, stride rule, fold F and twiddles
    omega_r^m of iter_circle_values, taken to m = L / 2 only, one irfft of
    length L = count / stride of h_m = omega_r^m (F_m + kappa_r conj
    F_{L-m}), kappa_r = exp(-i pi (2r + 1) / stride) = conj(omega_r^L), and
    h_0 = 2 Re F_0 - c_0 gives R.  With slope, R' = dR/dt ends each tuple,
    from the fold G of l c_l and h'_m = i omega_r^m (G_m - kappa_r conj
    G_{L-m}).  The sub-grids are those of iter_circle_values' mirror rule
    on the half-offset grid: R is even and R' odd, so a yielded sub-grid
    stands for its twin R[::-1], with slope -R'[::-1].

    Error: with rho = ceil(n / L) folded rows and u = 2^-53, every value
    is within eps = 2^-48 sqrt(n + L) ||c||_2 (log2 L + stride + 2 rho + 3)
    of the exact R (of R' with l c_l for c_l).  The twiddles and the fold
    are good to 16 (stride + 2 rho + 2) u relative (the stride term is slack:
    the twiddles are good to 50u), the irfft adds 7u log2 L in the 2-norm
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Thm
    24.2), the spectrum has 2-norm <= 3 sqrt(rho) ||c||_2, and a length-L
    inverse DFT scales 2-norms by sqrt(L).  For +-1 coefficients with
    |S| <= sqrt(2n) the same argument puts |S|^2 from iter_circle_values
    within 3 eps of R, and 2 Re(conj(S) i z S') (z S' from m a_m) within
    3 n eps of R'.
    """
    streams = [_circle_folds(c, count)]
    if slope:
        streams.append(_circle_folds(np.arange(c.size) * c, count))
    for (r, stride, fold), *slopes in zip(*streams):
        length = count // stride
        omega = _exact_phases(math.pi / count, 2 * r + 1, 0, 0,
                              length // 2 + 1, length)
        kappa = cmath.exp(-1j * math.pi * (2 * r + 1) / stride)
        h = _half_spectrum(fold, omega, kappa, 1)
        h[0] -= c[0]
        blocks = [np.fft.irfft(h, length, norm="forward")]
        for _, _, g in slopes:
            h = _half_spectrum(g, omega, kappa, -1)
            h *= 1j
            blocks.append(np.fft.irfft(h, length, norm="forward"))
        del h, omega
        yield r, stride, *blocks


def circle_values(coeffs, count: int, half_offset: bool = True) -> np.ndarray:
    """iter_circle_values materialized, the mirror twins written out:
    S(z_j) for every j < count <= cap."""
    count = _capped_count(count)
    out = np.empty(count, dtype=np.complex128)
    for r, stride, values in iter_circle_values(coeffs, count, half_offset):
        out[r::stride] = values
        if half_offset and stride > 1:
            np.conjugate(values[::-1], out=out[stride - 1 - r::stride])
    return out


def _unit_phase(ints: np.ndarray, g: float) -> np.ndarray:
    """exp(i * ints * g) for exact integers ints (float64, below 2^53).

    The product is formed exactly as a double-double and reduced modulo
    a double-double 2 pi, so the phase is good to a few ulps of pi
    however large ints * g grows.
    """
    p, e = _two_prod(ints, g)
    turns = np.rint(p / math.tau)
    hi, lo = _two_prod(turns, math.tau)
    return np.exp(1j * ((((p - hi) - lo) + e) - turns * _TAU_LO))


def _exact_phases(g: float, scale: int, shift, lo: int, hi: int, size: int,
                  lead: complex = 1.0) -> np.ndarray:
    """lead exp(i (scale j + shift) g), lo <= j < hi, for integer scale, shift.

    j = aB + b, B = min(ceil(sqrt(size)), 2^12): one _unit_phase call for the
    short factors of the exact indices scale a B and scale b + shift, then
    one outer product; each value depends on j alone, not on lo and hi.
    """
    row = min(math.isqrt(size - 1) + 1, 1 << 12)
    a0, a1 = lo // row, (hi - 1) // row + 1
    phases = _unit_phase(np.concatenate([
        scale * row * np.arange(a0, a1, dtype=np.float64),
        scale * np.arange(row, dtype=np.float64) + shift]), g)
    w = np.empty((a1 - a0, row), dtype=np.complex128)
    w[:] = lead * phases[:a1 - a0, None]
    w *= phases[a1 - a0:]  # np.outer's bits, without its temporary
    return w.ravel()[lo - a0 * row:hi - a0 * row]


def _recursion_block(k: int, alpha: float, beta: float, count: int,
                     half_offset: bool, lo: int, hi: int):
    """(P_k, Q_k) at theta_j = alpha + (2j + s) g for lo <= j < hi.

    g = (beta - alpha) / (2 count), and s = 1 on the half-offset grid, 0
    on the lattice.  z_j = e^{i alpha} e^{i(2j + s)g} comes from
    _exact_phases on rows fixed by count.  The first butterfly is (1 + z,
    1 - z), and every later level squares the power once, unnormalized.
    Each value depends on j alone, so any blocking tiles the grid bit for
    bit.
    """
    w = _exact_phases((beta - alpha) / count / 2.0, 2, half_offset, lo, hi,
                      count, cmath.exp(1j * alpha))
    p, q = (1.0 + w, 1.0 - w) if k else (np.ones_like(w), np.ones_like(w))
    for _ in range(1, k):
        w *= w
        wq = w * q
        np.subtract(p, wq, out=q)  # in place: two fewer block-sized arrays
        p += wq
    return p, q


def pair_component(pair: RudinShapiroPair, component: str):
    """P_k for "p", Q_k for "q": the one check of a component name."""
    if component not in ("p", "q"):
        raise ValueError(f"component must be 'p' or 'q', got {component!r}")
    return pair.p if component == "p" else pair.q


def iter_arc_values(pair: RudinShapiroPair, component: str, alpha: float,
                    beta: float, count: int, *, half_offset: bool = True):
    """Yield (index, values), values = S[index] for S = P_k or Q_k on the grid.

    The recursion backend (module docstring) on any arc: index runs over
    consecutive DEFAULT_CHUNK slices that tile range(count) once, at the
    angles alpha + (2j + s) g of _recursion_block.  eval_grid and
    iter_arc_squares take the exact full circle to the FFT streams instead.
    """
    count = _grid_count(count)
    pair_component(pair, component)  # the component check
    pick = 0 if component == "p" else 1
    for lo in range(0, count, DEFAULT_CHUNK):
        hi = min(lo + DEFAULT_CHUNK, count)
        yield slice(lo, hi), _recursion_block(
            pair.k, alpha, beta, count, half_offset, lo, hi)[pick]


def iter_arc_squares(pair: RudinShapiroPair, component: str, alpha: float,
                     beta: float, counts):
    """Yield per count the blocks (index, weight, R = |S[index]|^2) of a grid.

    The exact full circle reads iter_circle_squares, every count checked
    by the stride rule before the one autocorrelation they share; index is
    slice(r, None, stride), and weight 2 counts the mirror twin a block
    stands for (iter_circle_values' mirror rule), 1 at stride 1.  Subarcs
    square the blocks of iter_arc_values, re^2 + im^2, at weight 1.
    """
    if alpha == 0.0 and beta == math.tau:
        coeffs = pair_component(pair, component).coeffs
        for count in counts:
            _circle_stride(coeffs.size, count)  # refused before any transform
        c = autocorrelation(coeffs)
        for count in counts:
            yield ((slice(r, None, stride), 2 if stride > 1 else 1, sq)
                   for r, stride, sq in iter_circle_squares(c, count))
    else:
        for count in counts:
            yield ((index, 1, values.real ** 2 + values.imag ** 2)
                   for index, values in iter_arc_values(pair, component,
                                                        alpha, beta, count))


def arc_value_error(pair: RudinShapiroPair, alpha: float, beta: float) -> float:
    """A priori bound on |S^_j - S(e^{i t_j})| over iter_arc_values' subarcs.

    S = P_k or Q_k, S^_j is the value _recursion_block yields for any
    count, and t_j = alpha + (j + off) L / count the exact grid angle.
    Let u = 2^-53 and use |S| <= sqrt(2n) (flatness).
    - Angles.  The recursion evaluates at alpha + (2j + 2 off) fl(L / (2
      count)), within 2uL of t_j; Bernstein's |S'| <= (n - 1) sqrt(2n)
      turns that into <= 3uL n^1.5.
    - Recursion.  z_j is e^{i alpha} (2u) times two _unit_phase factors
      (20u each), by two complex products (sqrt(5) u each; Brent, Percival
      and Zimmermann, Math. Comp. 76, 2007), so it is off by <= 47u.  An
      unnormalized squaring adds <= 3u and doubles what it inherits, in
      modulus as in phase, so z^(2^j) is off by <= 50u 2^j.  A butterfly
      is sqrt(2) times a unitary map of (P, Q), so k levels add <= (71n +
      6k) u sqrt(n).
    The total is below 93 u n^1.5 for L <= 2 pi, far below the 256 u
    sqrt(N) n (log2 N + |alpha| + |beta|), N = max(4n, MIN_FFT), returned:
    verify's full-circle certificate, which reads the squares stream
    instead, takes that stream's error from this floor (_subarc_reports).
    """
    size = max(4 * pair.n, MIN_FFT)
    return 2.0 ** -45 * math.sqrt(size) * pair.n * (
        math.log2(size) + abs(alpha) + abs(beta))


def eval_grid(pair: RudinShapiroPair, arc, count: int, *,
              half_offset: bool = True) -> GridSamples:
    """Pair values over an arc: circle_values on the exact full circle, else
    filled from iter_arc_values."""
    count = _capped_count(count)
    if count < 2:
        raise ValueError("count must be >= 2")
    values = []
    for component in ("p", "q"):
        if arc.alpha == 0.0 and arc.beta == math.tau:
            out = circle_values(pair_component(pair, component).coeffs,
                                count, half_offset)
        else:
            out = np.empty(count, dtype=np.complex128)
            for index, block in iter_arc_values(pair, component, arc.alpha,
                                                arc.beta, count,
                                                half_offset=half_offset):
                out[index] = block
        values.append(out)
    return GridSamples(k=pair.k, arc=arc, count=count, values_p=values[0],
                       values_q=values[1], half_offset=half_offset)


def write_grid_dump(samples: GridSamples, path) -> None:
    """Binary dump: header, then interleaved re/im doubles for P then Q."""
    header = GRID_DUMP_MAGIC + struct.pack(
        "<BBddQB", GRID_DUMP_VERSION, samples.k,
        samples.arc.alpha, samples.arc.beta,
        samples.count, 1 if samples.half_offset else 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(samples.values_p, dtype=np.complex128).tobytes())
        fh.write(np.ascontiguousarray(samples.values_q, dtype=np.complex128).tobytes())


def read_grid_dump(path) -> GridSamples:
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != GRID_DUMP_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        version, k, alpha, beta, count, half = struct.unpack(
            "<BBddQB", fh.read(struct.calcsize("<BBddQB")))
        if version != GRID_DUMP_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        body = np.frombuffer(fh.read(), dtype=np.complex128)
    if body.size != 2 * count:
        raise ValueError(f"{path}: expected {2 * count} complex values, "
                         f"found {body.size}")
    return GridSamples(k=k, arc=Arc(alpha, beta), count=count,
                       values_p=body[:count].copy(), values_q=body[count:].copy(),
                       half_offset=bool(half))
