import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rudin_shapiro.roots as roots_mod
from rudin_shapiro.core import (LittlewoodPolynomial, ResourceLimitError,
                                generate_pair)
from rudin_shapiro.norms import FULL_CIRCLE, mahler_arc
from rudin_shapiro.roots import (find_roots, jensen_mahler,
                                 real_zero_count_exact, zero_census)

GOLDEN = (1 + math.sqrt(5)) / 2


def _clusters(roots, radius=1e-4):
    """Roots grouped within radius of a group's first root.

    Rounding splits an m-fold zero into a cluster of m simple roots
    about eps^(1/m) wide (np.roots returns them so).
    """
    clusters = []
    for root in roots:
        for cluster in clusters:
            if abs(root - cluster[0]) <= radius:
                cluster.append(root)
                break
        else:
            clusters.append([root])
    return clusters


def sylvester_psc(coeffs, j) -> int:
    """det of the index-j Sylvester submatrix of (P, P'), by Fractions."""
    d = len(coeffs) - 1
    p = coeffs[::-1]
    dp = [i * coeffs[i] for i in range(d, 0, -1)]
    size = 2 * d - 1 - 2 * j
    rows = [p + [0] * t for t in range(d - 2 - j, -1, -1)] + \
        [dp + [0] * t for t in range(d - 1 - j, -1, -1)]
    m = [[Fraction(c) for c in ([0] * (size + j - len(row)) + row)[:size]]
         for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            f = m[r][col] / m[col][col]
            for c in range(col, size):
                m[r][c] -= f * m[col][c]
    return int(det)


def sturm_habicht_count(coeffs) -> int:
    """Oracle: distinct real zeros from the signed Sturm-Habicht sequence.

    sRes_j = eps_{d-j} psc_j with eps_m = (-1)^(m(m-1)/2), psc_d = lc(P),
    psc_{d-1} = d lc(P) and sylvester_psc for j < d - 1; over consecutive
    nonzero sRes_p, sRes_q add eps_{p-q} sign(sRes_p sRes_q) where p - q
    is odd (Gonzalez-Vega, Lombardi, Recio & Roy 1989).
    """
    d = len(coeffs) - 1
    pscs = [coeffs[-1], d * coeffs[-1]] + [
        sylvester_psc(coeffs, j) for j in range(d - 2, -1, -1)]

    def eps(m):
        return -1 if m % 4 >= 2 else 1
    signed = [(d - i, eps(i) * (1 if v > 0 else -1))
              for i, v in enumerate(pscs) if v]
    return sum(eps(p - q) * s * t for (p, s), (q, t)
               in zip(signed, signed[1:]) if (p - q) % 2)


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def horner(c, x):
    """Oracle: plain Horner, one numpy step per coefficient."""
    acc = np.full_like(x, complex(c[-1]))
    for j in range(len(c) - 2, -1, -1):
        acc = acc * x + c[j]
    return acc


def horner_newton_ratio(c, x):
    """Oracle: S(x)/S'(x) by plain Horner, reversed coefficients for |x| > 1."""
    d = len(c) - 1
    m = np.arange(d + 1, dtype=np.float64)
    ratio = np.empty_like(x)
    inner = np.abs(x) <= 1.0
    xi, xo = x[inner], x[~inner]
    if xi.size:
        dv = horner(c[1:] * m[1:], xi)
        ratio[inner] = horner(c, xi) / np.where(dv == 0, 1e-300, dv)
    if xo.size:
        y = 1.0 / xo
        qv, dqv = horner(c[::-1], y), horner(c[::-1][1:] * m[1:], y)
        denom = d * qv - y * dqv
        ratio[~inner] = xo * qv / np.where(denom == 0, 1e-300, denom)
    return ratio


def unfrozen_find_roots(c, tol=1e-10, max_iter=200):
    """Reference: Aberth sweeps that update every root until all converge.

    Same start and step cap as find_roots, but no root is ever frozen:
    every root moves in every sweep until all steps of one sweep are
    below tol, and the Newton ratio comes from plain Horner.  Returns
    (roots, iterations).
    """
    c = np.asarray(c, dtype=np.float64)
    degree = len(c) - 1
    x = roots_mod._aberth_start(degree)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        newton = horner_newton_ratio(c, x)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        delta = newton / (1.0 - newton * (1.0 / diff).sum(axis=1))
        delta *= np.minimum(1.0, 0.5 / np.maximum(np.abs(delta), 1e-300))
        x = x - delta
        if float(np.max(np.abs(delta) / (1.0 + np.abs(x)))) < tol:
            break
    return x, iterations


def squarefree(coeffs) -> bool:
    """gcd(P, P') is a constant, by an exact primitive remainder sequence."""
    p = [int(c) for c in coeffs]
    primitive = roots_mod._primitive
    a, b = primitive(p), primitive([i * p[i] for i in range(1, len(p))])
    while len(b) > 1:
        r, _sign = roots_mod._pseudo_remainder(a, b)
        if not r:
            return False
        a, b = b, primitive(r)
    return True


class TestFindRoots:
    def test_one_plus_z(self):
        rootset = find_roots(LittlewoodPolynomial([1, 1]))
        assert rootset.degree == 1
        assert rootset.roots[0] == pytest.approx(-1.0, abs=1e-12)
        assert not rootset.flags.any()

    def test_golden_quadratic(self):
        # 1 + z - z^2 has roots (1 +- sqrt(5))/2
        rootset = find_roots(LittlewoodPolynomial([1, 1, -1]))
        moduli = np.sort(np.abs(rootset.roots))
        assert moduli[0] == pytest.approx(GOLDEN - 1, abs=1e-10)
        assert moduli[1] == pytest.approx(GOLDEN, abs=1e-10)

    def test_p2_unit_root_product_and_single_real_root(self):
        rootset = find_roots(generate_pair(2).p)
        product = np.prod(np.abs(rootset.roots))
        assert product == pytest.approx(1.0, rel=1e-9)
        assert int(np.sum(np.abs(rootset.roots.imag) <= 1e-8)) == 1

    def test_requires_degree_one(self):
        with pytest.raises(ValueError):
            find_roots(LittlewoodPolynomial([1]))

    @pytest.mark.parametrize("kwargs", [
        {"tol": -1.0}, {"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf},
        {"max_iter": 0}])
    def test_rejects_bad_tol_and_max_iter(self, kwargs):
        with pytest.raises(ValueError, match="tol|max_iter"):
            find_roots(LittlewoodPolynomial([1, 1, -1]), **kwargs)

    def test_degree_guard(self):
        with pytest.raises(ResourceLimitError):
            find_roots(np.ones((1 << 14) + 2))

    @pytest.mark.parametrize("coeffs", [
        np.array([1 + 1j, 0, 1]), [1, 0, 1j], np.array([1, 0, 1 + 0j])])
    def test_complex_coefficients_refused(self, coeffs):
        # a float cast would drop the imaginary parts and return +-i
        with pytest.raises(ValueError, match="real, finite coefficients"):
            find_roots(coeffs)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficients_refused(self, bad, monkeypatch):
        # refused before the first sweep, not after max_iter sweeps of NaN
        def no_sweep(*args):
            raise AssertionError("a sweep ran")
        monkeypatch.setattr(roots_mod, "_newton_ratio", no_sweep)
        for coeffs in ([1, bad, 1], [bad, 0, 1], [1, 0, bad]):
            with pytest.raises(ValueError, match="real, finite coefficients"):
                find_roots(coeffs)

    def test_deterministic_given_seed(self):
        poly = generate_pair(6).p
        first = find_roots(poly)
        second = find_roots(poly)
        assert np.array_equal(first.roots, second.roots)

    @settings(max_examples=20)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=24))
    @example([-1, 1, 1, -1, 1, -1, -1, 1])  # triple zero at 1, double at -1
    def test_conjugate_symmetry(self, coeffs):
        rootset = find_roots(LittlewoodPolynomial(coeffs))
        if rootset.flags.any():
            return
        # Compare the means of roots grouped within 1e-4: a multiple zero
        # split into points eps^(1/m) apart that are not conjugate pairs
        # still has a conjugate-symmetric mean once find_roots centers it.
        means = np.array([np.mean(c) for c in _clusters(rootset.roots)])
        # every conjugate mean must be close to some mean
        gaps = np.abs(np.conj(means)[:, None] - means[None, :]).min(axis=1)
        assert float(gaps.max()) <= 1e-7

    @pytest.mark.parametrize("coeffs, zeros", [
        ([-1, 1, 1, -1, 1, -1, -1, 1], {1.0: 3, -1.0: 2}),
        # Thue-Morse: (1 - z)(1 - z^2)(1 - z^4)(1 - z^8)
        ([1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1],
         {1.0: 4, -1.0: 3, 1j: 2, -1j: 2})])
    def test_multiple_zero_returned_whole(self, coeffs, zeros):
        rootset = find_roots(LittlewoodPolynomial(coeffs))
        assert not rootset.flags.any()
        for zero, multiplicity in zeros.items():
            near = rootset.roots[np.abs(rootset.roots - zero) <= 1e-4]
            assert len(near) == multiplicity
            assert float(np.abs(near - zero).max()) <= 1e-12

    def test_distinct_close_roots_kept(self):
        # (z - 1)(z - 1 - 1e-5): two simple roots inside one 1e-4 cluster
        rootset = find_roots([1 + 1e-5, -(2 + 1e-5), 1.0])
        found = np.sort(rootset.roots.real)
        assert not rootset.flags.any()
        # each root is ill-conditioned to about eps / 1e-5; one merged
        # double root would sit 5e-6 off both
        assert found == pytest.approx([1.0, 1.0 + 1e-5], abs=1e-9)

    @settings(max_examples=15)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=32))
    def test_reconstruction_from_roots(self, coeffs):
        poly = LittlewoodPolynomial(coeffs)
        rootset = find_roots(poly)
        if rootset.flags.any():
            return
        reconstructed = np.atleast_1d(
            float(coeffs[-1]) * np.poly(rootset.roots)[::-1])
        assert np.max(np.abs(reconstructed - np.asarray(coeffs, float))) \
            <= 1e-6 * len(coeffs)

    @pytest.mark.parametrize("k", [6, 8, 10, 12])
    def test_reconstruction_pair(self, k):
        # expanding c * prod(z - z_j) recovers the coefficients (deg <= 4096)
        pair = generate_pair(k)
        rootset = find_roots(pair.p)
        reconstructed = float(pair.p.coeffs[-1]) * np.poly(rootset.roots)[::-1]
        assert np.max(np.abs(reconstructed.real - pair.p.coeffs)) <= 1e-6
        assert np.max(np.abs(reconstructed.imag)) <= 1e-6


class TestAberthSweep:
    """The power-sum kernel, the repulsion and the sweep that freezes roots."""

    @pytest.mark.parametrize("degree", [1, 2, 126, 127, 200, 4095])
    def test_power_sums_match_horner(self, degree):
        # one block below _ONE_BLOCK coefficients (d = 126), blocks of
        # B = ceil(sqrt(d + 1)) from d = 127; from d = 126, 600 points span
        # several tiles
        rng = np.random.default_rng(degree)
        c = rng.choice([-1.0, 1.0], size=degree + 1)
        blocks = roots_mod._coefficient_blocks(c)
        assert (blocks.shape[0] == 1) == (degree < roots_mod._ONE_BLOCK - 1)
        m = np.arange(degree + 1, dtype=np.float64)
        disk = rng.uniform(0, 1, 600) * np.exp(1j * rng.uniform(0, 7, 600))
        for x in (rng.uniform(-1, 1, 600), disk):
            got = roots_mod._power_sums(blocks, x)
            assert got.shape == (600, 2) and got.dtype == x.dtype
            want = (horner(c, x + 0j), horner(c[1:] * m[1:], x + 0j))
            scale = (horner(np.abs(c), np.abs(x) + 0j).real,
                     horner(m[1:], np.abs(x) + 0j).real)
            # twice the a priori bound of _taylor_values, for complex x too
            rel = 8 * sum(blocks.shape[::2]) * np.finfo(float).eps
            for column, value, size in zip(got.T, want, scale):
                assert np.all(np.abs(column - value) <= rel * size)

    @pytest.mark.parametrize("degree", [1, 2, 15, 16, 17, 255, 1023, 4095])
    def test_blocked_ratio_matches_horner(self, degree):
        # d + 1 = 3, 17 and 18 are not multiples of B = ceil(sqrt(d + 1))
        rng = np.random.default_rng(degree)
        c = rng.choice([-1.0, 1.0], size=degree + 1)
        radii = np.concatenate([rng.uniform(0.2, 0.999, 200),
                                rng.uniform(1.001, 5.0, 200),
                                1.0 + rng.uniform(-1e-8, 1e-8, 200)])
        x = radii * np.exp(1j * math.tau * rng.random(radii.size))
        blocks = roots_mod._coefficient_blocks(c)
        blocks_rev = roots_mod._coefficient_blocks(c[::-1])
        got = roots_mod._newton_ratio(blocks, blocks_rev, degree, x)
        want = horner_newton_ratio(c, x)
        # first-order bound: eps * d times the sum of |terms| of S and S'
        # (or of q and d q - y q', y = 1/x, past the circle), relative to
        # their values
        m = np.arange(degree + 1, dtype=np.float64)
        inner = np.abs(x) <= 1.0
        w = np.where(inner, x, 1.0 / x)
        s, ds = horner(c, w), horner(c[1:] * m[1:], w)
        q, dq = horner(c[::-1], w), horner(c[::-1][1:] * m[1:], w)
        values = np.abs(np.where(inner, s, q))
        slopes = np.abs(np.where(inner, ds, degree * q - w * dq))
        terms = np.where(inner[:, None], np.abs(c), np.abs(c[::-1])) * \
            np.abs(w)[:, None] ** m
        value_terms = terms.sum(axis=1)
        slope_terms = np.where(inner, (terms * m).sum(axis=1) / np.abs(w),
                               (terms * (degree + m)).sum(axis=1))
        cond = value_terms / values + slope_terms / slopes
        tol = 4 * np.finfo(float).eps * degree * cond * np.abs(want)
        assert np.all(np.abs(got - want) <= tol)

    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("component", ["p", "q"])
    def test_pairs_match_unfrozen_sweeps(self, k, component):
        poly = getattr(generate_pair(k), component)
        self._assert_match_unfrozen(poly.coeffs)

    @settings(max_examples=30)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=65))
    def test_littlewood_match_unfrozen_sweeps(self, coeffs):
        # a multiple root is only resolved to ~sqrt(eps) by either loop
        assume(squarefree(coeffs))
        self._assert_match_unfrozen(coeffs)

    @staticmethod
    def _assert_match_unfrozen(coeffs):
        rootset = find_roots(coeffs)
        reference, iterations = unfrozen_find_roots(coeffs)
        assert not rootset.flags.any() and rootset.converged
        assert rootset.iterations <= iterations
        dist = np.abs(rootset.roots[:, None] - reference[None, :])
        assert dist.min(axis=0).max() <= 1e-9  # every reference root
        assert dist.min(axis=1).max() <= 1e-9  # every computed root
        assert zero_census(rootset) == zero_census(
            dataclasses.replace(rootset, roots=reference))
        jensen = math.exp(np.sum(np.log(np.maximum(1.0, np.abs(reference)))))
        assert jensen_mahler(rootset) == pytest.approx(jensen, rel=1e-12)

    @pytest.mark.parametrize("moving, frozen", [
        (300, 0), (1, 299), (150, 150), (1000, 0), (700, 300)],
        ids=["all_moving", "one_moving", "half_frozen", "row_blocks",
             "row_blocks_frozen"])
    def test_repulsion_matches_direct_sum(self, moving, frozen):
        # 1000 points make row blocks of 2^15 // 1000 = 32 rows
        rng = np.random.default_rng(moving)
        x = (rng.uniform(0.5, 1.5, moving + frozen)
             * np.exp(1j * rng.uniform(0, math.tau, moving + frozen)))
        got = roots_mod._repulsion(x[:moving], x[moving:])
        diff = x[:moving, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        terms = 1.0 / diff
        want = terms.sum(axis=1)
        assert np.all(np.abs(got - want)
                      <= 1e-14 * np.abs(terms).sum(axis=1))

    def test_residuals_cover_every_root(self):
        c = generate_pair(8).p.coeffs.astype(np.float64)
        blocks = roots_mod._coefficient_blocks(c)
        blocks_rev = roots_mod._coefficient_blocks(c[::-1])
        for max_iter in (20, 200):  # stopped with some roots frozen; converged
            rootset = find_roots(c, max_iter=max_iter)
            steps = np.abs(roots_mod._newton_ratio(blocks, blocks_rev, 255,
                                                   rootset.roots))
            assert np.array_equal(rootset.residuals, steps)
            assert np.array_equal(rootset.flags, steps > rootset.tolerance)
        assert rootset.converged and not rootset.flags.any()
        oracle = np.abs(horner_newton_ratio(c, rootset.roots))
        assert np.all(np.abs(rootset.residuals - oracle) <= 1e-13)

    @pytest.mark.parametrize("k", [4, 6])
    def test_unreachable_tolerance_flags_every_root(self, k):
        # no root of P_k, k even, is a float where S evaluates to exactly 0
        rootset = find_roots(generate_pair(k).p, tol=1e-300, max_iter=15)
        assert rootset.flags.all()
        assert rootset.iterations == 15
        assert not rootset.converged

    def test_nan_residual_is_flagged(self, monkeypatch):
        # a NaN final Newton step fails `residual <= tol`, so it is flagged
        poly = generate_pair(4).p
        sweeps = find_roots(poly).iterations
        newton_ratio, calls = roots_mod._newton_ratio, []

        def last_step_nan(*args):
            ratio = newton_ratio(*args)
            calls.append(len(ratio))
            if len(calls) > sweeps:  # the residual pass after the sweeps
                ratio[0] = np.nan
            return ratio

        monkeypatch.setattr(roots_mod, "_newton_ratio", last_step_nan)
        rootset = find_roots(poly)
        assert len(calls) == sweeps + 1 and calls[-1] == rootset.degree
        assert rootset.converged and np.isnan(rootset.residuals[0])
        assert rootset.flags[0] and not rootset.flags[1:].any()
        with pytest.raises(ValueError, match="residual"):
            jensen_mahler(rootset)


class TestJensenMahler:
    def test_single_circle_root(self):
        rootset = find_roots(LittlewoodPolynomial([1, 1]))
        assert jensen_mahler(rootset) == pytest.approx(1.0, abs=1e-10)

    def test_golden_ratio(self):
        rootset = find_roots(LittlewoodPolynomial([1, 1, -1]))
        assert jensen_mahler(rootset) == pytest.approx(GOLDEN, abs=1e-10)

    def test_refuses_flagged_roots(self):
        rootset = find_roots(generate_pair(4).p)
        rootset.flags[0] = True
        with pytest.raises(ValueError, match="residual"):
            jensen_mahler(rootset)

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_matches_quadrature_mahler(self, k):
        # two independent estimators of the same measure
        pair = generate_pair(k)
        via_roots = jensen_mahler(find_roots(pair.p))
        via_arc = mahler_arc((pair, "p"), FULL_CIRCLE)
        assert abs(via_roots - via_arc.value) / via_arc.value <= 1e-3


class TestZeroCensus:
    def test_single_root_on_circle(self):
        rootset = find_roots(LittlewoodPolynomial([1, 1]))
        census = zero_census(rootset, eps=1e-8)
        assert census.on_circle_within_eps == 1
        assert census.real_zeros == 1
        assert census.inside_open_disk == 0
        assert census.outside == 0

    def test_bands_partition_roots(self):
        rootset = find_roots(generate_pair(7).p)
        census = zero_census(rootset, eps=1e-4)
        total = census.inside_open_disk + census.on_circle_within_eps + \
            census.outside
        assert total == rootset.degree

    def test_p6_exactly_one_real_zero(self):
        census = zero_census(find_roots(generate_pair(6).p), eps=1e-6)
        assert census.real_zeros == 1

    def test_pooled_p10_q10_inside_fraction(self):
        pair = generate_pair(10)
        counts = []
        for poly in (pair.p, pair.q):
            census = zero_census(find_roots(poly), eps=1e-4)
            counts.append(census.inside_open_disk)
        fraction = sum(counts) / (2 * (pair.n - 1))
        assert 0.3 <= fraction <= 0.7  # trend data, no proved value

    def test_eps_must_be_positive(self):
        rootset = find_roots(LittlewoodPolynomial([1, 1]))
        with pytest.raises(ValueError):
            zero_census(rootset, eps=0.0)

    def test_non_finite_root_refused(self):
        # a NaN fails every band test: counted, it read on_circle 1,
        # outside 1 and real 1 for two roots
        rootset = find_roots([1, 1, 1])
        broken = dataclasses.replace(
            rootset, roots=np.array([rootset.roots[0], complex(math.nan, 0)]))
        with pytest.raises(ValueError, match=r"^1 root\(s\) are not finite"):
            zero_census(broken)


class TestExactRealZeroCount:
    def test_constant_has_none(self):
        assert real_zero_count_exact(LittlewoodPolynomial([1])) == 0
        assert real_zero_count_exact([0, 0, 0]) == 0

    def test_simple_polynomials(self):
        assert real_zero_count_exact([-1, 0, 1]) == 2      # z^2 - 1
        assert real_zero_count_exact([1, 0, 1]) == 0       # z^2 + 1
        assert real_zero_count_exact([1, 1, -1]) == 2      # both golden roots
        assert real_zero_count_exact([1, 1]) == 1
        assert real_zero_count_exact([0, 0, 1]) == 1       # z^2, one distinct
        assert real_zero_count_exact([-2, 0, 1]) == 2

    def test_multiple_roots_counted_once(self):
        # (z^2 + 1)^2 has no real roots; (z - 1)^2 (z + 2) has two distinct
        assert real_zero_count_exact([1, 0, 2, 0, 1]) == 0
        assert real_zero_count_exact([2, -3, 0, 1]) == 2

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sparse_binomials(self, n):
        # x^n - 1 and x^n + 1: one remainder step of degree gap n - 1
        minus = [-1] + [0] * (n - 1) + [1]
        plus = [1] + [0] * (n - 1) + [1]
        assert real_zero_count_exact(minus) == (2 if n % 2 == 0 else 1)
        assert real_zero_count_exact(plus) == (0 if n % 2 == 0 else 1)

    def test_defective_sequences(self):
        assert real_zero_count_exact([0, -1, 0, 0, 0, 1]) == 3   # x^5 - x
        assert real_zero_count_exact([1, 0, 2, 0, 1]) == 0       # (x^2+1)^2
        assert real_zero_count_exact([-1, 0, 0, 1]) == 1         # gap 2

    @pytest.mark.parametrize("k", range(1, 8))
    def test_pair_has_exactly_one_real_zero(self, k):
        pair = generate_pair(k)
        assert real_zero_count_exact(pair.p) == 1
        assert real_zero_count_exact(pair.q) == 1

    def test_pairs_match_prs_oracle(self):
        for k in range(1, 9):
            pair = generate_pair(k)
            for poly in (pair.p, pair.q):
                assert real_zero_count_exact(poly) == \
                    roots_mod._sturm_count(poly.coeffs.tolist())

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=256))
    def test_littlewood_matches_prs_oracle(self, coeffs):
        assert real_zero_count_exact(coeffs) == roots_mod._sturm_count(coeffs)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=255),
           st.sampled_from([-3, -1, 1, 2]))
    def test_small_integers_match_prs_oracle(self, coeffs, lead):
        coeffs = coeffs + [lead]
        assert real_zero_count_exact(coeffs) == roots_mod._sturm_count(coeffs)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(-6, 6)),
                    min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 9)),
                    max_size=3))
    def test_known_counts(self, linear, quadratics):
        # prod (a x - b) times positive quadratics x^2 + c x + e, c^2 < 4e:
        # the real zeros are the distinct b / a, repeated factors included
        coeffs = [1]
        for a, b in linear:
            coeffs = poly_mul(coeffs, [-b, a])
        for c, e in quadratics:
            if c * c < 4 * e:
                coeffs = poly_mul(coeffs, [e, c, 1])
        distinct = len({Fraction(b, a) for a, b in linear})
        assert real_zero_count_exact(coeffs) == distinct
        assert roots_mod._sturm_count(coeffs) == distinct

    def test_principal_coefficients_are_exact(self):
        # the Sturm chain against the signed Sturm-Habicht count from
        # Fraction determinants; the fixed cases have an even degree gap
        # before later steps, and x^6 + x^3 has a gcd
        rng = np.random.default_rng(3)
        cases = [[1, 2, 0, 0, 1], [-1, 0, -2, 0, 0, 0, 2, 1],
                 [0, 0, 0, 1, 0, 0, 1]]
        for _ in range(40):
            d = int(rng.integers(2, 9))
            cases.append([int(c) for c in rng.integers(-4, 5, d)] +
                         [int(rng.choice([-2, -1, 1, 3]))])
        for coeffs in cases:
            want = sturm_habicht_count(coeffs)
            assert roots_mod._sturm_count(coeffs) == want
            assert real_zero_count_exact(coeffs) == want

    def test_big_coefficients(self):
        coeffs = [3 * 2 ** 70, -(2 ** 65), -7, 2 ** 80]
        assert real_zero_count_exact(coeffs) == roots_mod._sturm_count(coeffs)

    @pytest.mark.parametrize("d", range(1, 65))
    def test_residues_at_the_top_of_the_word(self, d):
        # all coefficients -1: -(x^(d+1) - 1)/(x - 1) has one real zero, -1,
        # for odd d and none for even d
        coeffs = [-1] * (d + 1)
        assert real_zero_count_exact(coeffs) == d % 2
        assert roots_mod._sturm_count(coeffs) == d % 2
        if d <= 8:
            assert sturm_habicht_count(coeffs) == d % 2

    @pytest.mark.parametrize("coeffs", [
        [-0.5, 0, 1], [1, 0.25, 1], [math.nan, 1], [1, math.inf],
        [-math.inf, 0, 1], np.array([-0.5, 0.0, 1.0]), [Fraction(1, 2), 1]])
    def test_non_integer_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="integer coefficients"):
            real_zero_count_exact(coeffs)

    def test_integral_floats_are_counted(self):
        assert real_zero_count_exact([-1.0, 0.0, 1.0]) == 2
        assert real_zero_count_exact(np.array([-2.0, 0.0, 1.0])) == 2

    def test_degree_guard(self, monkeypatch):
        # bisection runs at any degree; only the chain is refused past 2^9
        pair = generate_pair(12)
        assert real_zero_count_exact(pair.p) == 1
        assert real_zero_count_exact(pair.q) == 1
        calls = []
        monkeypatch.setattr(roots_mod, "_sturm_count", calls.append)
        # a double zero at 0.3 that bisection cannot decide, degree 602
        double_inside = poly_mul([9, -60, 100], [1] * 601)
        with pytest.raises(ResourceLimitError, match="census"):
            real_zero_count_exact(double_inside)
        assert not calls

    @pytest.mark.parametrize("coeffs, count", [
        (poly_mul([-1, 1], poly_mul([-1, 1], [2, 0, 1])), 1),
        ([-1, 1, 1, -1, 1, -1, -1, 1], 2),  # triple zero at 1, double at -1
        (poly_mul([1, -2, 1], [1] * 251), 1),   # (x - 1)^2 (1 + ... + x^250)
        (poly_mul([1, -2, 1], [1] * 2048), 2)],  # degree 2049, zero at -1
        ids=["double_at_1", "triple_and_double", "deg252", "deg2049"])
    def test_multiple_zeros_at_plus_minus_one_divided_out(self, monkeypatch,
                                                          coeffs, count):
        def refuse(coeffs):
            raise AssertionError("the Sturm chain ran")
        monkeypatch.setattr(roots_mod, "_sturm_count", refuse)
        assert real_zero_count_exact(coeffs) == count

    @settings(max_examples=30)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=16))
    @example([1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1])  # double root at 1
    def test_matches_numeric_root_count(self, coeffs):
        exact = real_zero_count_exact(coeffs)
        numeric = np.roots(np.asarray(coeffs, float)[::-1])
        # A multiple root splits into a cluster of size ~eps^(1/m), which
        # may leave the real axis (1 +- 1.2e-8i for a double root), so
        # test each cluster's mean.
        distinct = sum(1 for cluster in _clusters(numeric)
                       if abs(np.mean(cluster).imag) <= 1e-9)
        assert exact == distinct


def orbit_images(coeffs) -> set[tuple[int, ...]]:
    """Closure of coeffs under negation, x -> -x and reversal."""
    images, frontier = set(), [tuple(coeffs)]
    while frontier:
        c = frontier.pop()
        if c not in images:
            images.add(c)
            frontier += [tuple(-v for v in c),
                         tuple(v * (-1) ** i for i, v in enumerate(c)),
                         c[::-1]]
    return images


class TestOrbitCount:
    nonzero = st.sampled_from([-3, -1, 1, 2])

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=128),
        st.builds(lambda low, middle, lead: [low] + middle + [lead],
                  nonzero, st.lists(st.integers(-4, 4), max_size=126),
                  nonzero)))
    def test_chain_is_constant_on_sign_and_reversal_images(self, coeffs):
        # with c_0 != 0 every image keeps the degree and the real zeros
        images = orbit_images(coeffs)
        assert len(images) <= 8
        counts = {real_zero_count_exact(image) for image in images}
        assert counts == {roots_mod._sturm_count(coeffs)}

    def test_zeros_at_zero_and_plus_minus_one(self):
        assert real_zero_count_exact([1, 0, 0, 0, -1]) == 2      # 1 - x^4
        assert real_zero_count_exact([0, -1, 0, 0, 0, 1]) == 3   # x^5 - x

    # The chain alone on P_k and Q_k for k <= 9, the top degree it is run
    # at (4.6 s at degree 511): Sturm stays the oracle of bisection's counts.
    @pytest.mark.parametrize("k", range(1, 10))
    def test_q_counted_on_its_own_coefficients(self, k):
        coeffs = tuple(generate_pair(k).q.coeffs.tolist())
        assert roots_mod._sturm_count(coeffs) == 1

    @pytest.mark.parametrize("k", range(1, 10))
    def test_p_counted_on_its_own_coefficients(self, k):
        coeffs = tuple(generate_pair(k).p.coeffs.tolist())
        assert roots_mod._sturm_count(coeffs) == 1


def exact_value(coeffs, x: float) -> Fraction:
    """sum c_i x^i exactly, by Horner on the integers of x = p / q."""
    p, q = Fraction(x).as_integer_ratio()
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * scale
        scale *= q
    return Fraction(acc, scale // q)


class TestCertifiedCount:
    @pytest.mark.parametrize("k", range(1, 14))
    def test_pairs_certified_without_the_chain(self, monkeypatch, k):
        def refuse(coeffs):
            raise AssertionError("the Sturm chain ran")
        monkeypatch.setattr(roots_mod, "_sturm_count", refuse)
        pair = generate_pair(k)
        assert real_zero_count_exact(pair.p) == 1
        assert real_zero_count_exact(pair.q) == 1

    @pytest.mark.parametrize("coeffs", [
        generate_pair(4).p.coeffs.tolist(), generate_pair(8).q.coeffs.tolist(),
        [int(v) for v in np.random.default_rng(5).choice([-1, 1], 256)],
        [3] + [int(v) for v in np.random.default_rng(6).integers(-4, 5, 199)]
        + [-2]], ids=["P_4", "Q_8", "littlewood_255", "small_ints_200"])
    def test_values_within_their_bounds(self, coeffs):
        near = [1.0, 1 - 1e-15, 1 - 2 ** -53, 1e-15, 2 ** -60, 1e-300, 0.0]
        x = np.array(near + [-v for v in near]
                     + np.random.default_rng(7).uniform(-1, 1, 40).tolist())
        a = np.array(coeffs, dtype=np.float64)
        values, errors = roots_mod._taylor_values(
            roots_mod._coefficient_blocks(a),
            roots_mod._coefficient_blocks(np.abs(a)), x)
        slope = [i * c for i, c in enumerate(coeffs)][1:]
        for point, (s, ds), (e, de) in zip(x.tolist(), values.tolist(),
                                           errors.tolist()):
            assert abs(Fraction(s) - exact_value(coeffs, point)) <= e
            assert abs(Fraction(ds) - exact_value(slope, point)) <= de

    @pytest.mark.parametrize("coeffs", [
        poly_mul([-3, 10], [-3, 10]),                     # double at 0.3
        [-1, 2],                                          # 1/2, a cell edge
        # 1/3 decided by S, 1/2 a cell edge of the reversal: the chain's
        # count replaces the decided one, not added to it
        [2, -7, 3],
        [3 * 2 ** 70, -(2 ** 65), -7, 2 ** 80]],          # past 2^50
        ids=["double_inside", "zero_on_edge", "one_side_decided", "big"])
    def test_undecided_inputs_reach_the_chain(self, monkeypatch, coeffs):
        cells, calls = [], []
        taylor, cell_count = roots_mod._taylor_values, roots_mod._cell_count
        chain = roots_mod._sturm_count

        def count_cells(blocks, sizes, x):
            cells[-1] += len(x)
            return taylor(blocks, sizes, x)

        def per_orientation(a, ends):
            cells.append(0)
            return cell_count(a, ends)

        def spy(c):
            calls.append(c)
            return chain(c)
        monkeypatch.setattr(roots_mod, "_taylor_values", count_cells)
        monkeypatch.setattr(roots_mod, "_cell_count", per_orientation)
        monkeypatch.setattr(roots_mod, "_sturm_count", spy)
        assert real_zero_count_exact(coeffs) == sturm_habicht_count(coeffs)
        assert len(calls) == 1
        assert max(cells, default=0) <= roots_mod._CELL_BUDGET
