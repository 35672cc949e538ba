import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rudin_shapiro import evaluate
from rudin_shapiro.core import (LittlewoodPolynomial, ResourceLimitError,
                                generate_pair)
from rudin_shapiro.evaluate import (CirclePoint, circle_grid, eval_grid,
                                    eval_horner, eval_pair_point)
from rudin_shapiro.norms import Arc, FULL_CIRCLE
from rudin_shapiro.reductions import pairwise_mean, pairwise_sum

TAU = math.tau


class TestCirclePoint:
    def test_reduction(self):
        assert CirclePoint(3 * TAU + 1.0).theta == pytest.approx(1.0)

    def test_negative_angle(self):
        point = CirclePoint(-0.5)
        assert 0.0 <= point.theta < TAU
        assert point.theta == pytest.approx(TAU - 0.5)


class TestPointEvaluation:
    def test_k2_at_one(self):
        assert eval_pair_point(generate_pair(2), 0.0) == \
            pytest.approx((2 + 0j, 2 + 0j))

    def test_k1_at_minus_one(self):
        p, q = eval_pair_point(generate_pair(1), math.pi)
        assert abs(p) == pytest.approx(0.0, abs=1e-12)
        assert q == pytest.approx(2 + 0j, abs=1e-12)

    def test_matches_horner_k14(self):
        pair = generate_pair(14)
        p, q = eval_pair_point(pair, 1.0)
        assert abs(p - eval_horner(pair.p, 1.0)) <= 1e-11
        assert abs(q - eval_horner(pair.q, 1.0)) <= 1e-11

    @settings(max_examples=120)
    @given(st.integers(min_value=0, max_value=12),
           st.floats(min_value=-10.0, max_value=10.0,
                     allow_nan=False, allow_infinity=False))
    def test_recursion_agrees_with_horner(self, k, theta):
        pair = generate_pair(k)
        p, q = eval_pair_point(pair, theta)
        assert abs(p - eval_horner(pair.p, theta)) <= 1e-11
        assert abs(q - eval_horner(pair.q, theta)) <= 1e-11

    def test_agreement_spot_check_k16(self):
        pair = generate_pair(16)
        thetas = np.linspace(0.1, 6.2, 7)
        hp = eval_horner(pair.p, thetas)
        for theta, expect in zip(thetas, hp):
            p, _ = eval_pair_point(pair, theta)
            assert abs(p - expect) <= 1e-11

    def test_agreement_on_1000_random_points(self):
        # seeded sweep over (k <= 16, theta); Horner is vectorized per k
        rng = np.random.default_rng(42)
        ks = rng.integers(0, 17, size=1000)
        thetas = rng.uniform(0.0, TAU, size=1000)
        worst = 0.0
        for k in np.unique(ks):
            pair = generate_pair(int(k))
            batch = thetas[ks == k]
            hp = eval_horner(pair.p, batch)
            hq = eval_horner(pair.q, batch)
            for theta, expect_p, expect_q in zip(batch, hp, hq):
                p, q = eval_pair_point(pair, theta)
                worst = max(worst, abs(p - expect_p), abs(q - expect_q))
        assert worst <= 1e-11


class TestHorner:
    def test_constant(self):
        assert eval_horner([1], 0.37) == pytest.approx(1.0)

    def test_one_plus_z_at_pi(self):
        assert abs(eval_horner([1, 1], math.pi)) <= 1e-15

    def test_p2_at_half_pi_matches_recursion(self):
        pair = generate_pair(2)
        direct = eval_horner(pair.p, math.pi / 2)
        via_pair = eval_pair_point(pair, math.pi / 2)[0]
        assert direct == pytest.approx(via_pair, abs=1e-13)

    def test_degree_guard(self):
        coeffs = np.ones((1 << 20) + 2, dtype=np.int8)
        with pytest.raises(ResourceLimitError):
            eval_horner(coeffs, 0.0)


class TestGrids:
    def test_half_offset_convention(self):
        # first sample of a half-offset grid on [0, pi) with 1000 points
        thetas = circle_grid(0.0, math.pi, 1000)
        assert thetas[0] == pytest.approx(math.pi / 2000)

    def test_full_lattice_starts_at_zero(self):
        thetas = circle_grid(0.0, TAU, 8, half_offset=False)
        assert thetas[0] == 0.0
        assert thetas[1] == pytest.approx(TAU / 8)

    def test_k0_grid_all_ones(self):
        samples = eval_grid(generate_pair(0), FULL_CIRCLE, 4)
        assert np.allclose(samples.values_p, 1.0)
        assert np.allclose(samples.values_q, 1.0)

    def test_lattice_parseval_k3(self):
        # 64 > 2n - 1 = 15 points integrate |P_3|^2 exactly: mean = n = 8
        samples = eval_grid(generate_pair(3), FULL_CIRCLE, 64)
        mean_sq = pairwise_mean(np.abs(samples.values_p) ** 2)
        assert mean_sq == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 4, 7, 10])
    def test_grid_mean_parseval(self, k):
        pair = generate_pair(k)
        samples = eval_grid(pair, FULL_CIRCLE, 2 * pair.n + 8)
        mean_sq = pairwise_mean(np.abs(samples.values_p) ** 2)
        assert abs(mean_sq - pair.n) / pair.n <= 1e-10

    def test_memory_cap(self):
        with pytest.raises(ResourceLimitError):
            eval_grid(generate_pair(2), FULL_CIRCLE, 100, max_count=64)

    def test_chunks_cover_grid_exactly(self):
        pair = generate_pair(4)
        whole = eval_grid(pair, FULL_CIRCLE, 1000).values_p
        pieces = [p for _t, p, _q in evaluate.iter_pair_chunks(
            pair, 0.0, TAU, 1000, chunk=137)]
        assert np.array_equal(np.concatenate(pieces), whole)

    def test_thread_count_bit_identical(self):
        pair = generate_pair(8)
        arc = Arc(0.3, 5.0)
        base = eval_grid(pair, arc, 4096, threads=1)
        for threads in (2, 8):
            other = eval_grid(pair, arc, 4096, threads=threads)
            assert np.array_equal(base.values_p, other.values_p)
            assert np.array_equal(base.values_q, other.values_q)


EPS = np.finfo(np.float64).eps
FFT_KS = [0, 1, 5, 10, 14]


def _fft_counts(n):
    # folded odd, folded even (for n >= 8), odd >= n, and the 16n default
    return sorted({n // 4 + 1, n // 2 + 2, 2 * n + 1, 16 * n})


def _recursion_grid(pair, count, half_offset):
    chunks = list(evaluate.iter_pair_chunks(pair, 0.0, TAU, count,
                                            half_offset=half_offset))
    return (np.concatenate([c[1] for c in chunks]),
            np.concatenate([c[2] for c in chunks]))


class TestCircleValues:
    @pytest.mark.parametrize("half_offset", [True, False],
                             ids=["half_offset", "lattice"])
    @pytest.mark.parametrize("k", FFT_KS)
    def test_matches_recursion(self, k, half_offset):
        pair = generate_pair(k)
        n = pair.n
        for count in _fft_counts(n):
            rp, rq = _recursion_grid(pair, count, half_offset)
            fp = evaluate.circle_values(pair.p.coeffs, count, half_offset)
            fq = evaluate.circle_values(pair.q.coeffs, count, half_offset)
            # measured worst 3.3 * eps * n^1.5 over these k and counts: the
            # recursion's angle rounding, amplified by |S'| <= n |S|
            assert np.max(np.abs(fp - rp)) <= 10 * EPS * n ** 1.5
            assert np.max(np.abs(fq - rq)) <= 10 * EPS * n ** 1.5

    @pytest.mark.parametrize("half_offset", [True, False],
                             ids=["half_offset", "lattice"])
    @pytest.mark.parametrize("k", FFT_KS)
    def test_matches_horner(self, k, half_offset):
        pair = generate_pair(k)
        n = pair.n
        # 64 spread samples per grid, one oracle call per polynomial: the
        # oracle is O(n) per point
        picks = [(count, np.unique(np.linspace(0, count - 1, 64).astype(int)))
                 for count in _fft_counts(n)]
        thetas = np.concatenate([circle_grid(0.0, TAU, count, half_offset)[i]
                                 for count, i in picks])
        for poly in (pair.p, pair.q):
            fft = np.concatenate([evaluate.circle_values(
                poly.coeffs, count, half_offset)[i] for count, i in picks])
            # measured worst 3.2 * eps * n^1.5 (Horner shares the float
            # angles with the recursion)
            assert np.max(np.abs(fft - eval_horner(poly, thetas))) <= \
                10 * EPS * n ** 1.5

    @pytest.mark.parametrize("k", FFT_KS)
    def test_z_times_derivative(self, k):
        pair = generate_pair(k)
        n = pair.n
        count = 16 * n
        _p, _q, dp, _dq, z = evaluate.eval_pair_deriv_grid(
            pair, circle_grid(0.0, TAU, count))
        zdp = evaluate.circle_values(pair.p.coeffs * np.arange(n), count)
        # measured worst 2.5 * eps * n^2.5 at k = 14; |z P'| <= n^1.5
        assert np.max(np.abs(zdp - z * dp)) <= 10 * EPS * n ** 2.5

    def test_repeated_calls_bit_identical(self):
        pair = generate_pair(12)
        for count in (1000, 16 * pair.n):
            first = evaluate.circle_values(pair.p.coeffs, count)
            # exact agreement, also from a fresh copy of the coefficients
            assert np.array_equal(
                first, evaluate.circle_values(pair.p.coeffs, count))
            assert np.array_equal(
                first, evaluate.circle_values(pair.p.coeffs.copy(), count))

    def test_count_guards(self):
        coeffs = generate_pair(3).p.coeffs
        with pytest.raises(ValueError):
            evaluate.circle_values(coeffs, 0)
        with pytest.raises(ResourceLimitError):
            evaluate.circle_values(coeffs, evaluate.GRID_MAX_COUNT + 1)


class TestSamplers:
    def test_full_circle_and_subarc_paths(self):
        pair = generate_pair(9)
        count = 3000
        sampler = evaluate.pair_modulus_sampler(pair, "q")
        _rp, rq = _recursion_grid(pair, count, True)
        # full circle: FFT; measured 2.2 * eps * n^1.5 from the recursion
        assert np.max(np.abs(sampler(0.0, TAU, count) - np.abs(rq))) <= \
            10 * EPS * pair.n ** 1.5
        # subarc: the recursion itself
        thetas = circle_grid(0.5, 2.0, count)
        assert np.array_equal(sampler(0.5, 2.0, count),
                              np.abs(evaluate.eval_pair_grid(pair, thetas)[1]))

    @pytest.mark.parametrize("alpha, beta", [(0.0, TAU), (0.5, 2.0)])
    def test_memory_guard(self, alpha, beta):
        pair = generate_pair(4)
        for sampler in (evaluate.pair_modulus_sampler(pair),
                        evaluate.flatness_defect_sampler(pair)):
            with pytest.raises(ResourceLimitError):
                sampler(alpha, beta, 10 ** 11)


class TestDerivativeRecursion:
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_horner_derivative(self, k):
        pair = generate_pair(k)
        thetas = circle_grid(0.0, TAU, 64)
        _p, _q, dp, _dq, _z = evaluate.eval_pair_deriv_grid(pair, thetas)
        coeffs = pair.p.coeffs.astype(np.float64)
        deriv_coeffs = coeffs[1:] * np.arange(1, pair.n)
        z = np.exp(1j * thetas)
        expect = np.zeros_like(z)
        for j in range(len(deriv_coeffs) - 1, -1, -1):
            expect = expect * z + deriv_coeffs[j]
        assert np.max(np.abs(dp - expect)) <= 1e-10 * pair.n


class TestGridDump:
    def test_round_trip(self, tmp_path):
        pair = generate_pair(5)
        arc = Arc(0.25, 2.5)
        samples = eval_grid(pair, arc, 128)
        path = tmp_path / "grid.bin"
        evaluate.write_grid_dump(samples, path)
        loaded = evaluate.read_grid_dump(path)
        assert loaded.k == 5
        assert loaded.count == 128
        assert loaded.arc.alpha == pytest.approx(arc.alpha)
        assert loaded.half_offset is True
        assert np.array_equal(loaded.values_p, samples.values_p)
        assert np.array_equal(loaded.values_q, samples.values_q)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE!!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            evaluate.read_grid_dump(path)


class TestReductions:
    def test_sum_matches_math_fsum(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=1001)
        assert pairwise_sum(values) == pytest.approx(math.fsum(values), abs=1e-9)

    def test_sum_independent_of_padding_boundary(self):
        values = np.arange(1, 130, dtype=np.float64)
        assert pairwise_sum(values) == pytest.approx(values.sum())

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=300))
    def test_mean_within_float_tolerance(self, values):
        arr = np.asarray(values)
        assert pairwise_mean(arr) == pytest.approx(
            math.fsum(values) / len(values), abs=1e-6)

    def test_empty_sum_is_zero(self):
        assert pairwise_sum(np.array([])) == 0.0
