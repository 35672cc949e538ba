import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rudin_shapiro.core import (LittlewoodPolynomial, ResourceLimitError,
                                generate_pair)
from rudin_shapiro.norms import FULL_CIRCLE, mahler_arc
from rudin_shapiro.roots import (find_roots, jensen_mahler,
                                 real_zero_count_exact, zero_census)

GOLDEN = (1 + math.sqrt(5)) / 2


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

    def test_deterministic_given_seed(self):
        poly = generate_pair(6).p
        first = find_roots(poly, seed=11)
        second = find_roots(poly, seed=11)
        assert np.array_equal(first.roots, second.roots)

    @settings(max_examples=20)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=24))
    def test_conjugate_symmetry(self, coeffs):
        rootset = find_roots(LittlewoodPolynomial(coeffs))
        if rootset.flags.any():
            return
        # every conjugate must be close to some computed root
        gaps = np.abs(np.conj(rootset.roots)[:, None] -
                      rootset.roots[None, :]).min(axis=1)
        assert float(gaps.max()) <= 1e-7

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

    @pytest.mark.parametrize("k", [6, 8])
    def test_reconstruction_pair(self, k):
        # expanding c * prod(z - z_j) recovers the coefficients (deg <= 256)
        pair = generate_pair(k)
        rootset = find_roots(pair.p)
        reconstructed = float(pair.p.coeffs[-1]) * np.poly(rootset.roots)[::-1]
        assert np.max(np.abs(reconstructed.real - pair.p.coeffs)) <= 1e-6
        assert np.max(np.abs(reconstructed.imag)) <= 1e-6


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


class TestExactRealZeroCount:
    def test_constant_has_none(self):
        assert real_zero_count_exact(LittlewoodPolynomial([1])) == 0

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

    @pytest.mark.parametrize("k", range(1, 8))
    def test_pair_has_exactly_one_real_zero(self, k):
        pair = generate_pair(k)
        assert real_zero_count_exact(pair.p) == 1
        assert real_zero_count_exact(pair.q) == 1

    def test_degree_guard(self):
        with pytest.raises(ResourceLimitError, match="census"):
            real_zero_count_exact(generate_pair(11).p)

    @settings(max_examples=30)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=16))
    @example([1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1])  # double root at 1
    def test_matches_numeric_root_count(self, coeffs):
        exact = real_zero_count_exact(coeffs)
        numeric = np.roots(np.asarray(coeffs, float)[::-1])
        # A multiple root splits into a cluster of size ~eps^(1/m), which
        # may leave the real axis (1 +- 1.2e-8i for a double root), so
        # group roots within 1e-4 and test each cluster's mean.
        clusters = []
        for root in numeric:
            for cluster in clusters:
                if abs(root - cluster[0]) <= 1e-4:
                    cluster.append(root)
                    break
            else:
                clusters.append([root])
        distinct = sum(1 for cluster in clusters
                       if abs(np.mean(cluster).imag) <= 1e-9)
        assert exact == distinct

    def test_plain_int_fallback_agrees(self, monkeypatch):
        # the chain must work with stdlib integers when gmpy2 is absent
        import rudin_shapiro.roots as roots_mod

        monkeypatch.setattr(roots_mod, "_mpz", int)
        monkeypatch.setattr(roots_mod, "_int_gcd", math.gcd)
        assert real_zero_count_exact([1, 1, -1]) == 2
        for k in (1, 3, 5):
            pair = generate_pair(k)
            assert real_zero_count_exact(pair.p) == 1
            assert real_zero_count_exact(pair.q) == 1
