import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fill_circle
from rudin_shapiro import evaluate, gf2, norms, verify
from rudin_shapiro.core import (LittlewoodPolynomial, ResourceLimitError,
                                conjugate_relation_residual, generate_pair,
                                parallelogram_residual)
from rudin_shapiro.evaluate import (CirclePoint, circle_grid, eval_grid,
                                    eval_horner, eval_pair_point)
from rudin_shapiro.norms import (Arc, FULL_CIRCLE, flatness_defect_mahler,
                                 mq_arc, mq_arcs, mq_limit_diagnostic)
from rudin_shapiro.reductions import pairwise_sum
from rudin_shapiro.verify import (DEFAULT_RECTANGLES, KOLMOGOROV_BINS,
                                  bernstein_ratio, min_modulus_excluding_poles,
                                  value_distribution)

TAU = math.tau


class TestCirclePoint:
    def test_reduction(self):
        assert CirclePoint(3 * TAU + 1.0).theta == pytest.approx(1.0)

    def test_negative_angle(self):
        point = CirclePoint(-0.5)
        assert 0.0 <= point.theta < TAU
        assert point.theta == pytest.approx(TAU - 0.5)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            CirclePoint(theta)
        with pytest.raises(ValueError, match="finite"):
            eval_pair_point(generate_pair(3), theta)


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
        mean_sq = pairwise_sum(np.abs(samples.values_p) ** 2) / 64
        assert mean_sq == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 4, 7, 10])
    def test_grid_mean_parseval(self, k):
        pair = generate_pair(k)
        samples = eval_grid(pair, FULL_CIRCLE, 2 * pair.n + 8)
        mean_sq = pairwise_sum(np.abs(samples.values_p) ** 2) / samples.count
        assert abs(mean_sq - pair.n) / pair.n <= 1e-10

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", 64)
        assert eval_grid(generate_pair(2), FULL_CIRCLE, 64).count == 64
        with pytest.raises(ResourceLimitError, match="cap 64"):
            eval_grid(generate_pair(2), FULL_CIRCLE, 65)

    def test_chunks_cover_grid_exactly(self, monkeypatch):
        # a subarc: recursion blocks
        pair = generate_pair(4)
        arc = Arc(0.3, 5.0)
        whole = eval_grid(pair, arc, 1000).values_p
        monkeypatch.setattr(evaluate, "DEFAULT_CHUNK", 137)
        pieces = list(evaluate.iter_arc_values(pair, "p", arc.alpha, arc.beta,
                                               1000))
        assert [index for index, _ in pieces] == [
            slice(lo, min(lo + 137, 1000)) for lo in range(0, 1000, 137)]
        assert np.array_equal(np.concatenate([v for _, v in pieces]), whole)


EPS = np.finfo(np.float64).eps
FFT_KS = [0, 1, 5, 10, 14]


def _fft_counts(n):
    # folded odd, folded even (for n >= 8), odd >= n, and the 16n default
    return sorted({n // 4 + 1, n // 2 + 2, 2 * n + 1, 16 * n})


def _recursion_grid(pair, count, half_offset, alpha=0.0, beta=TAU):
    return evaluate._recursion_block(pair.k, alpha, beta, count, half_offset,
                                     0, count)


def _arc_grid(pair, component, alpha, beta, count, half_offset=True):
    return np.concatenate([values for _, values in evaluate.iter_arc_values(
        pair, component, alpha, beta, count, half_offset=half_offset)])


def _grid_angles(alpha, beta, count, s, j):
    # the recursion's angles alpha + (2j + s) g, rounded to doubles
    return alpha + (2 * j + s) * ((beta - alpha) / count / 2.0)


class TestArcDispatch:
    """The backend of every pair grid: FFT streams on the exact full circle,
    the recursion (iter_arc_values) elsewhere."""

    @pytest.mark.parametrize("half_offset", [True, False],
                             ids=["half_offset", "lattice"])
    @pytest.mark.parametrize("count", [7, 100, 4096, 132])
    def test_full_circle_tiles_once(self, count, half_offset, monkeypatch):
        # eval_grid reads circle_values; the yielded sub-grids and the twins
        # they stand for tile range(count) exactly once
        pair = generate_pair(5)
        whole = evaluate.circle_values(pair.q.coeffs, count, half_offset)
        assert np.array_equal(eval_grid(pair, FULL_CIRCLE, count,
                                        half_offset=half_offset).values_q, whole)
        if count == 132:  # past a cap of 64: sub-grids of stride 4
            monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", 64)
        blocks = list(evaluate.iter_circle_values(pair.q.coeffs, count,
                                                  half_offset))
        hits = np.zeros(count, dtype=int)
        for r, stride, _ in blocks:
            hits[r::stride] += 1
            if half_offset and stride > 1:
                hits[stride - 1 - r::stride] += 1
        assert np.all(hits == 1)
        got = fill_circle(blocks, count, half_offset)
        if count == 132:  # stride 4 past the cap, one whole FFT within it
            assert np.max(np.abs(got - whole)) <= 10 * EPS * pair.n ** 1.5
        else:
            assert np.array_equal(got, whole)

    @pytest.mark.parametrize("half_offset", [True, False],
                             ids=["half_offset", "lattice"])
    @pytest.mark.parametrize("arc, count", [
        (FULL_CIRCLE, 4096), (Arc(0.3, 3.3), 3 * (1 << 14) + 7),
        (Arc(0.3, 3.3), 5000)], ids=["fft", "chirp", "recursion"])
    def test_eval_grid_matches_recursion(self, arc, count, half_offset):
        # ids: the full-circle FFT, and chirp-z point sets (module
        # docstring) of four recursion blocks and of one; 64 spread
        # values against the scalar double-double recursion at the
        # grid's rounded angles; measured worst 2.5 * eps * n^1.5
        pair = generate_pair(10)
        n = pair.n
        grid = eval_grid(pair, arc, count, half_offset=half_offset)
        j = np.unique(np.linspace(0, count - 1, 64).astype(int))
        if arc == FULL_CIRCLE:
            thetas = circle_grid(0.0, TAU, count, half_offset)[j]
        else:
            thetas = _grid_angles(arc.alpha, arc.beta, count,
                                  int(half_offset), j)
        points = np.array([eval_pair_point(pair, t) for t in thetas]).T
        for values, point in zip((grid.values_p, grid.values_q), points):
            assert np.max(np.abs(values[j] - point)) <= 10 * EPS * n ** 1.5

    @pytest.mark.parametrize("half_offset", [True, False],
                             ids=["half_offset", "lattice"])
    def test_recursion_blocks_chunk_invariant(self, half_offset, monkeypatch):
        # B = ceil(sqrt(count)) = 314 divides neither block length
        pair = generate_pair(12)
        count = 3 * (1 << 15) + 5
        whole = _recursion_grid(pair, count, half_offset, 5.0, 9.0)[0]
        for chunk in (evaluate.DEFAULT_CHUNK, 1000):
            monkeypatch.setattr(evaluate, "DEFAULT_CHUNK", chunk)
            pieces = list(evaluate.iter_arc_values(
                pair, "p", 5.0, 9.0, count, half_offset=half_offset))
            assert len(pieces) == -(-count // chunk)
            assert np.array_equal(np.concatenate([v for _, v in pieces]),
                                  whole)

    @pytest.mark.parametrize("k", [12, 13, 14])
    @pytest.mark.parametrize("alpha, beta", [(5.0, 9.0), (6.0, 6.5)])
    def test_recursion_matches_point_at_exact_angles(self, k, alpha, beta):
        # count 2^15 makes g = (beta - alpha) / (2 count) dyadic, so every
        # grid angle alpha + (2j + s) g is a double: eval_pair_point sees
        # the recursion's own points, on both sides of 2 pi
        pair = generate_pair(k)
        n = pair.n
        count = 1 << 15
        g = (beta - alpha) / count / 2.0
        j = np.unique(np.linspace(0, count - 1, 64).astype(int))
        worst = 0.0
        for s in (0, 1):
            grid = _recursion_grid(pair, count, bool(s), alpha, beta)
            for theta, p, q in zip(alpha + (2 * j + s) * g, grid[0][j],
                                   grid[1][j]):
                ep, eq = eval_pair_point(pair, theta)
                worst = max(worst, abs(p - ep), abs(q - eq))
        assert worst <= 10 * EPS * n ** 1.5

    @pytest.mark.parametrize("entry", [
        lambda pair: next(evaluate.iter_arc_values(pair, "x", 0.3, 1.0, 64)),
        lambda pair: value_distribution(pair.k, component="x", pair=pair),
        lambda pair: min_modulus_excluding_poles(pair.k, component="x",
                                                 pair=pair),
        lambda pair: mq_arc((pair, "x"), FULL_CIRCLE, 2.0),
    ], ids=["iter_arc_values", "value_distribution", "min_modulus", "mq_arc"])
    def test_bad_component_rejected(self, entry):
        with pytest.raises(ValueError, match="component must be 'p' or 'q'"):
            entry(generate_pair(6))


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
        # z P'(z) is the polynomial with coefficients m * a_m
        pair = generate_pair(k)
        n = pair.n
        count = 16 * n
        coeffs = pair.p.coeffs * np.arange(n)
        i = np.unique(np.linspace(0, count - 1, 64).astype(int))
        zdp = evaluate.circle_values(coeffs, count)[i]
        oracle = eval_horner(coeffs, circle_grid(0.0, TAU, count)[i])
        # measured worst 1.7 * eps * n^2.5 (k = 10): the oracle's float
        # angles, amplified by |(z P')'| <= n^2.5
        assert np.max(np.abs(zdp - oracle)) <= 10 * EPS * n ** 2.5

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


class TestPastCapRefusal:
    """Past GRID_MAX_COUNT a full-circle count must be a multiple of its
    sub-grid stride; one that is not is refused before any transform."""

    @pytest.mark.parametrize("entry", [
        lambda pair, count: mq_arc((pair, "p"), FULL_CIRCLE, 2.0, count),
        lambda pair, count: flatness_defect_mahler(pair, count),
        lambda pair, count: value_distribution(pair.k, count=count,
                                               pair=pair),
    ], ids=["norm", "flatness", "distribution"])
    def test_refused_before_any_ifft(self, entry, monkeypatch):
        calls = []
        for name in ("ifft", "rfft", "irfft"):  # complex and squares streams
            monkeypatch.setattr(np.fft, name,
                                lambda *args, **kwargs: calls.append(args))
        # stride 2 for the c-grid, so an odd count cannot be tiled
        with pytest.raises(ResourceLimitError, match="stride 2"):
            entry(generate_pair(4), evaluate.GRID_MAX_COUNT + 1)
        assert calls == []


def _exact_autocorrelation(coeffs):
    # integer correlation: the squares stream's input without an FFT
    a = np.asarray(coeffs, dtype=np.int64)
    return np.correlate(a, a, "full")[a.size - 1:].astype(np.float64)


#: Every grid entry point, called with (pair, count) and run to the end.
COUNT_ENTRIES = {
    "arc_values_circle": lambda pair, count: list(
        evaluate.iter_arc_values(pair, "p", 0.0, TAU, count)),
    "arc_values_recursion": lambda pair, count: list(
        evaluate.iter_arc_values(pair, "p", 0.3, 1.0, count)),
    "arc_squares_circle": lambda pair, count: [list(grid) for grid in (
        evaluate.iter_arc_squares(pair, "p", 0.0, TAU, [count]))],
    "arc_squares_subarc": lambda pair, count: [list(grid) for grid in (
        evaluate.iter_arc_squares(pair, "p", 0.3, 1.0, [count]))],
    "circle_values_stream": lambda pair, count: list(
        evaluate.iter_circle_values(pair.p.coeffs, count)),
    "circle_squares": lambda pair, count: list(evaluate.iter_circle_squares(
        _exact_autocorrelation(pair.p.coeffs), count)),
    "chirp_values": lambda pair, count: list(evaluate.iter_arc_values(
        pair, "q", 5.0, 9.0, count, half_offset=False)),  # lattice past 2 pi
    "circle_values": lambda pair, count: evaluate.circle_values(
        pair.p.coeffs, count),
    "circle_grid": lambda pair, count: circle_grid(0.0, TAU, count),
    "eval_grid": lambda pair, count: eval_grid(pair, FULL_CIRCLE, count),
    "mq_arcs": lambda pair, count: mq_arcs((pair, "p"), FULL_CIRCLE, [2.0],
                                           count),
    "mahler_arc": lambda pair, count: norms.mahler_arc(
        (pair, "p"), Arc(0.3, 1.0), count),
    "parallelogram": parallelogram_residual,
    "conjugate_relation": conjugate_relation_residual,
    "min_modulus": lambda pair, count: min_modulus_excluding_poles(
        pair.k, count=count, pair=pair),
}


class TestCountContract:
    """One answer to a bad grid count on every entry point and backend."""

    @pytest.mark.parametrize("count", [0, -5, 100.5])
    @pytest.mark.parametrize("entry", COUNT_ENTRIES.values(),
                             ids=COUNT_ENTRIES.keys())
    def test_bad_count_refused_before_any_fft(self, entry, count,
                                              monkeypatch):
        pair = generate_pair(4)
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name,
                                lambda *args, **kwargs: calls.append(args))
        # the norms refuse counts below 2 with their own, stricter message
        with pytest.raises(ValueError, match="count must be"):
            entry(pair, count)
        assert calls == []

    @pytest.mark.parametrize("entry", COUNT_ENTRIES.values(),
                             ids=COUNT_ENTRIES.keys())
    def test_numpy_integer_accepted(self, entry):
        entry(generate_pair(4), np.int64(4096))


def _chirp_tol(n):
    return 10 * EPS * max(n, 4) ** 1.5


def _chirp_counts(n):
    # one short block, one whole block, one past it, and a partial last
    # block
    chunk = evaluate.DEFAULT_CHUNK
    return [1000, chunk, chunk + 1, 3 * chunk + 7]


def _chirp_arcs(k):
    # a seeded subarc, one that wraps past 2 pi, and a near-full arc
    rng = np.random.default_rng(1000 + k)
    alpha = rng.uniform(0.0, TAU)
    return [(alpha, alpha + rng.uniform(0.2, 3.0)), (5.0, 9.0),
            (0.1, 0.1 + TAU * (1 - 1e-9))]


class TestChirpValues:
    """Subarc grids, the point sets of a chirp z-transform, by recursion.

    z_j = e^{i alpha} w^(2j + s), w = e^{ig}, as iter_arc_values yields
    them, against the scalar double-double recursion and the compensated
    Horner oracle.  Tolerances take the suite's form 10 * eps * n^1.5:
    the oracles evaluate at rounded float angles, the grid at alpha +
    (2j + s) g through rounded phases, and |S'| <= n^1.5 turns the angle
    rounding into value differences of that order.  n is floored at 4.
    """

    @pytest.mark.parametrize("half_offset", [True, False],
                             ids=["half_offset", "lattice"])
    @pytest.mark.parametrize("k", FFT_KS)
    def test_matches_recursion(self, k, half_offset):
        # 16 spread values per grid against eval_pair_point; measured
        # worst 5.6 * eps * n^1.5 (k = 10), from the rounded angles
        pair = generate_pair(k)
        n = pair.n
        worst = 0.0
        for alpha, beta in _chirp_arcs(k):
            for count in _chirp_counts(n):
                j = np.unique(np.linspace(0, count - 1, 16).astype(int))
                thetas = _grid_angles(alpha, beta, count, int(half_offset), j)
                points = np.array([eval_pair_point(pair, t)
                                   for t in thetas]).T
                for component, point in zip("pq", points):
                    grid = _arc_grid(pair, component, alpha, beta, count,
                                     half_offset)
                    worst = max(worst, np.max(np.abs(grid[j] - point)))
        assert worst <= _chirp_tol(n)

    @pytest.mark.parametrize("half_offset", [True, False],
                             ids=["half_offset", "lattice"])
    @pytest.mark.parametrize("k", FFT_KS)
    def test_matches_horner(self, k, half_offset):
        pair = generate_pair(k)
        n = pair.n
        # 32 spread samples per grid, one oracle call per polynomial
        grids = [(alpha, beta, count,
                  np.unique(np.linspace(0, count - 1, 32).astype(int)))
                 for alpha, beta in _chirp_arcs(k)
                 for count in _chirp_counts(n)]
        thetas = np.concatenate([
            circle_grid(alpha, beta, count, half_offset)[i]
            for alpha, beta, count, i in grids])
        for component, poly in (("p", pair.p), ("q", pair.q)):
            # measured worst 5.6 * eps * n^1.5 (k = 10)
            values = np.concatenate([
                _arc_grid(pair, component, alpha, beta, count,
                          half_offset)[i]
                for alpha, beta, count, i in grids])
            assert np.max(np.abs(values - eval_horner(poly, thetas))) <= \
                _chirp_tol(n)

    @pytest.mark.parametrize("k", FFT_KS)
    def test_exact_angles(self, k):
        # with alpha and g dyadic every float grid angle is exact, so the
        # oracle sees the grid's own points; measured worst 0.7 * eps *
        # n^1.5
        pair = generate_pair(k)
        n = pair.n
        thetas, values = [], []
        for count in _chirp_counts(n):
            for s in (0, 1):
                g = 2.0 ** -((2 * count).bit_length() + 1)
                alpha = 0.5 + 3 * g
                beta = alpha + 2 * count * g
                grid = circle_grid(alpha, beta, count, half_offset=bool(s))
                assert np.array_equal(
                    grid, alpha + (2 * np.arange(count) + s) * g)
                i = np.unique(np.linspace(0, count - 1, 32).astype(int))
                thetas.append(grid[i])
                values.append(_arc_grid(pair, "q", alpha, beta, count,
                                        half_offset=bool(s))[i])
        oracle = eval_horner(pair.q, np.concatenate(thetas))
        assert np.max(np.abs(np.concatenate(values) - oracle)) <= \
            _chirp_tol(n)

    def test_phases_exact_past_large_products(self):
        # exp(i x g) for x up to 2^52: the reduction mod 2 pi keeps the
        # phase within a few ulps where a plain product would be off by
        # eps * x * g (about 2.5e-3 radians at x = 2^52, g = 1.1)
        two_pi = Fraction("6.28318530717958647692528676655900576839433879875")
        x = np.array([0, 1, 3, 2 ** 20 + 1, 2 ** 40 - 3, 2 ** 52 - 1],
                     dtype=np.float64)
        for g in (1.1, -0.37, 2.0 ** -18 * 3, 5.0e-7):
            got = evaluate._unit_phase(x, g)
            for xi, value in zip(x, got):
                phase = Fraction(int(xi)) * Fraction(g) % two_pi
                assert abs(value - cmath.exp(1j * float(phase))) <= 4 * EPS

    def test_repeated_calls_bit_identical(self):
        count = 3 * evaluate.DEFAULT_CHUNK + 12345
        first = _arc_grid(generate_pair(12), "p", 0.7, 4.1, count)
        assert np.array_equal(first, _arc_grid(generate_pair(12), "p", 0.7,
                                               4.1, count))

    @pytest.mark.parametrize("k", [4, 10])
    def test_dispatch(self, k):
        # consecutive DEFAULT_CHUNK blocks that concatenate to the
        # recursion's whole grid
        pair = generate_pair(k)
        chunk = evaluate.DEFAULT_CHUNK
        for count in (chunk - 1, chunk, 3 * chunk + 5):
            blocks = list(evaluate.iter_arc_values(pair, "q", 0.4, 2.9, count))
            assert [index for index, _ in blocks] == [
                slice(lo, min(lo + chunk, count))
                for lo in range(0, count, chunk)]
            got = np.concatenate([values for _, values in blocks])
            expect = _recursion_grid(pair, count, True, 0.4, 2.9)[1]
            assert np.array_equal(got, expect)

    def test_guards(self):
        pair = generate_pair(3)
        with pytest.raises(ValueError, match="count must be"):
            next(evaluate.iter_arc_values(pair, "p", 0.0, 1.0, 0))
        # a grid of 2^50 points: the first block, phases still exact
        index, first = next(evaluate.iter_arc_values(pair, "p", 0.0, 1.0,
                                                     2 ** 50))
        assert index == slice(0, evaluate.DEFAULT_CHUNK)
        assert np.array_equal(first, evaluate._recursion_block(
            3, 0.0, 1.0, 2 ** 50, True, 0, evaluate.DEFAULT_CHUNK)[0])


def _streamed_reductions(pair, count, sample_count):
    """The full-circle reductions of moduli; norm estimates at sample_count."""
    k, n = pair.k, pair.n
    return {
        "min_modulus_p": min_modulus_excluding_poles(k, count, pair=pair),
        "min_modulus_q": min_modulus_excluding_poles(k, count, component="q",
                                                     pair=pair),
        "bernstein": bernstein_ratio(k, count, pair=pair).lhs,
        "parallelogram": parallelogram_residual(pair, count),
        "conjugate": conjugate_relation_residual(pair, count)[1],
        "mq": mq_arcs((pair, "q"), FULL_CIRCLE, [1.0, 4.0], sample_count),
        "flatness": flatness_defect_mahler(pair, sample_count),
        "mahler": norms.mahler_arc((pair, "p"), FULL_CIRCLE, sample_count),
        "ladder": mq_limit_diagnostic((pair, "q"), FULL_CIRCLE, [2.0, 0.5],
                                      sample_count),
    }


def _squares_grid(coeffs, count, slope=False):
    """iter_circle_squares materialized: R, or (R, R') with slope."""
    blocks = list(evaluate.iter_circle_squares(
        evaluate.autocorrelation(coeffs), count, slope=slope))
    sq = fill_circle([block[:3] for block in blocks], count)
    if not slope:
        return sq
    return sq, fill_circle([(r, s, ds) for r, s, _, ds in blocks], count,
                           sign=-1)


def _materialized_reductions(pair, count):
    """The same quantities from whole grids.

    Moduli come from materialized iter_circle_squares grids, the residuals
    from grids of fill_circle.  The norm estimates run their block reducer
    on every sub-grid cut from the materialized grids, each twin after its
    original and of weight 1.
    """
    n = pair.n
    p, q = (fill_circle(evaluate.iter_circle_values(a, count), count)
            for a in (pair.p.coeffs, pair.q.coeffs))
    sq_p, slope_p = _squares_grid(pair.p.coeffs, count, slope=True)
    sq_q = _squares_grid(pair.q.coeffs, count)
    signs = np.where(np.arange(n) % 2 == 0, 1, -1)
    p_neg = fill_circle(evaluate.iter_circle_values(
        signs * pair.p.coeffs.astype(np.int64), count), count)
    th = circle_grid(0.0, TAU, count)
    away = (th > 0.01) & (np.abs(th - math.pi) > 0.01) & (TAU - th > 0.01)
    qs = [1.0, 4.0]

    def sums(coeffs, qs, logs=False):  # the c-grid's, then the 2c-grid's
        return [norms._block_sums(_cut_blocks(_squares_grid(coeffs, c), n),
                                  qs, logs) for c in (count, 2 * count)]

    ladder = sums(pair.q.coeffs, [2.0, 0.5], logs=True)
    return {
        "min_modulus_p": math.sqrt(np.min(sq_p, where=away, initial=math.inf)),
        "min_modulus_q": math.sqrt(np.min(sq_q, where=away, initial=math.inf)),
        "bernstein": np.max(np.abs(slope_p)),
        "parallelogram": float(np.max(np.abs(
            np.abs(p) ** 2 + np.abs(q) ** 2 - 2.0 * n))) / (2.0 * n),
        "conjugate": float(np.max(np.abs(np.abs(q) - np.abs(p_neg)))),
        "mq": norms._mq_estimates(sums(pair.q.coeffs, qs), qs, count),
        "flatness": norms._mahler_estimate(
            [norms._block_sums(_cut_blocks(
                (_squares_grid(pair.p.coeffs, c) - n) ** 2, n), (),
                logs=True) for c in (count, 2 * count)], count),
        "mahler": norms._mahler_estimate(sums(pair.p.coeffs, (), logs=True),
                                         count),
        "ladder": norms._mq_estimates(ladder, [2.0, 0.5], count) + [
            norms._mahler_estimate([row[2:] for row in ladder], count)],
    }


def _cut_blocks(whole, n):
    """A materialized grid cut into every sub-grid, each of weight 1.

    The order is the stream's, each mirror twin right after the sub-grid
    r that stands for it; the values are the materialized grid's.
    """
    blocks = []
    for r, stride, _ in evaluate.iter_circle_squares(np.ones(n), whole.size):
        for j in sorted({r, stride - 1 - r}):
            blocks.append((slice(j, None, stride), 1, whole[j::stride].copy()))
    return blocks


def _block_spy(monkeypatch):
    """Record the size of every block iter_circle_values or
    iter_circle_squares yields."""
    sizes = []

    def spied(stream):
        def spy(coeffs, count, *args, **kwargs):
            for r, stride, *blocks in stream(coeffs, count, *args, **kwargs):
                sizes.append(blocks[0].size)
                yield r, stride, *blocks
        return spy

    for name in ("iter_circle_values", "iter_circle_squares"):
        monkeypatch.setattr(evaluate, name, spied(getattr(evaluate, name)))
    return sizes


class TestStreamedCircle:
    """iter_circle_values and its consumers, below and past the grid cap."""

    # (k, count, cap, half_offset): strides 1, 16 and 64 within the cap,
    # stride 8 past it, and stride 256 on folded sub-grids, then the lattice
    @pytest.mark.parametrize("k, count, cap, half_offset", [
        (5, 4096, None, True), (12, 16 * 4096, None, True),
        (10, 64 * 4096, None, True), (8, 16 * 256, 512, True),
        (8, 64 * 256, 64, True), (5, 4096, None, False),
        (12, 16 * 4096, None, False), (8, 64 * 256, 64, False)],
        ids=["stride1", "stride16", "stride64", "past_cap", "folded",
             "lattice_stride1", "lattice_stride16", "lattice_folded"])
    def test_yielded_sub_grids(self, k, count, cap, half_offset,
                               monkeypatch):
        # the mirror rule: r < stride / 2 on the half-offset grid at stride
        # > 1, every r < stride elsewhere; the squares stream and the norms'
        # weights follow it
        pair = generate_pair(k)
        if cap is not None:
            monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", cap)
        blocks = list(evaluate.iter_circle_values(pair.p.coeffs, count,
                                                  half_offset))
        stride = blocks[0][1]
        mirrored = half_offset and stride > 1
        assert [r for r, _, _ in blocks] == \
            list(range(stride // 2 if mirrored else stride))
        assert all(s == stride and v.size * stride == count
                   for _, s, v in blocks)
        if half_offset:
            squares = evaluate.iter_circle_squares(
                evaluate.autocorrelation(pair.p.coeffs), count)
            assert [block[:2] for block in squares] == \
                [block[:2] for block in blocks]
            grid, = evaluate.iter_arc_squares(pair, "p", 0.0, TAU, [count])
            assert [(index, weight) for index, weight, _ in grid] == [
                (slice(r, None, stride), 2 if mirrored else 1)
                for r, _, _ in blocks]

    @pytest.mark.parametrize("k", [0, 1, 7, 12])
    @pytest.mark.parametrize("mult", [16, 64])
    def test_in_cap_bit_identical(self, k, mult):
        pair = generate_pair(k)
        count = mult * pair.n + (pair.n == 1)  # one odd count at k = 0
        streamed = _streamed_reductions(pair, count, count)
        materialized = _materialized_reductions(pair, count)
        for name, value in materialized.items():
            assert np.array_equal(streamed[name], value), name

    # the cap below n folds each sub-grid with its own z^L; the cap at
    # 2n with 256n points takes a stride of 128, past the in-cap 64
    @pytest.mark.parametrize("k", [5, 8])
    @pytest.mark.parametrize("cap, mult", [(0.25, 16), (2, 256)],
                             ids=["folded", "long"])
    def test_past_cap_matches_in_cap(self, k, cap, mult, monkeypatch):
        pair = generate_pair(k)
        n = pair.n
        count = mult * n
        # norm grids of count and 2 count points, both past the cap
        sample_count = 4 * int(cap * n)
        expect = _streamed_reductions(pair, count, sample_count)
        monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", int(cap * n))
        sizes = _block_spy(monkeypatch)
        got = _streamed_reductions(pair, count, sample_count)
        assert sizes and max(sizes) <= evaluate.GRID_MAX_COUNT
        if cap < 1:
            assert min(sizes) < n
        tol = 10 * EPS * n ** 1.5
        for name in ("min_modulus_p", "min_modulus_q", "conjugate"):
            assert abs(got[name] - expect[name]) <= tol, name
        # R' = 2 Re(conj(P) i z P'), |z P'| <= n^1.5
        assert abs(got["bernstein"] - expect["bernstein"]) <= \
            10 * EPS * n ** 2.5
        assert got["parallelogram"] <= tol / n ** 0.5
        # M_q with q >= 1 is a norm: it moves by at most the largest dS
        for est, ref in zip(got["mq"], expect["mq"]):
            assert abs(est.value - ref.value) <= tol
            assert abs(est.refined_value - ref.refined_value) <= tol
        # log | |P|^2 - n | moves by 2 |P| dS / | |P|^2 - n |: measured
        # 9e-16 relative on these grids, none of whose samples is near zero
        assert got["flatness"].value == pytest.approx(
            expect["flatness"].value, rel=tol)

    @pytest.mark.parametrize("half_offset", [True, False],
                             ids=["half_offset", "lattice"])
    @pytest.mark.parametrize("k, cap", [(5, 8), (8, 64), (8, 1024)])
    def test_past_cap_matches_horner(self, k, cap, half_offset, monkeypatch):
        pair = generate_pair(k)
        n = pair.n
        monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", cap)
        for count in (16 * n, 64 * n):
            blocks = list(evaluate.iter_circle_values(pair.q.coeffs, count,
                                                      half_offset))
            assert all(block.size * stride == count and block.size <= cap
                       for _, stride, block in blocks)
            values = fill_circle(blocks, count, half_offset)
            i = np.unique(np.linspace(0, count - 1, 64).astype(int))
            oracle = eval_horner(pair.q, circle_grid(0.0, TAU, count,
                                                     half_offset)[i])
            assert np.max(np.abs(values[i] - oracle)) <= 10 * EPS * n ** 1.5

    @pytest.mark.parametrize("k, count, cap, stride", [
        (5, 4096, None, 1), (10, 64 * 4096, None, 64),
        (12, 16 * 4096, None, 16), (8, 16 * 256, 512, 8),
        (8, 64 * 256, 64, 256)],
        ids=["stride1", "stride64", "stride16", "past_cap", "folded"])
    def test_mirror_twins(self, k, count, cap, stride, monkeypatch):
        # the half-offset grid's sub-grid stride - 1 - r is the mirror
        # conj(values[::-1]) of sub-grid r: the twins fill_circle forms by
        # that rule against the Horner oracle, as the yielded sub-grids
        pair = generate_pair(k)
        n = pair.n
        if cap is not None:
            monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", cap)
        blocks = list(evaluate.iter_circle_values(pair.p.coeffs, count))
        assert all(block[1] == stride for block in blocks)
        whole = fill_circle(blocks, count)
        thetas = circle_grid(0.0, TAU, count)
        for r in range(stride):
            t = np.unique(np.linspace(0, count // stride - 1, 8).astype(int))
            oracle = eval_horner(pair.p, thetas[r::stride][t])
            assert np.max(np.abs(whole[r::stride][t] - oracle)) <= \
                10 * EPS * n ** 1.5

    @pytest.mark.parametrize("k", [0, 3, 8, 12, 14])
    def test_no_tiny_sub_grids(self, k, monkeypatch):
        # within the cap every sub-grid has min(count, MIN_FFT) points or
        # more; past the cap sub-grids may be shorter
        n = generate_pair(k).n
        coeffs = np.ones(n)
        for count in sorted({n // 2 + 2, 2 * n + 1, 1000, 4096, 6144,
                             16 * n, 64 * n, 200 * n}):
            blocks = [(stride, v.size) for _, stride, v in
                      evaluate.iter_circle_values(coeffs, count)]
            assert min(size for _, size in blocks) >= \
                min(count, evaluate.MIN_FFT)
            # each sub-grid at stride > 1 stands for its twin as well
            assert sum(size * min(stride, 2) for stride, size in blocks) == \
                count
        monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", 1024)
        sizes = [v.size for _, _, v in
                 evaluate.iter_circle_values(coeffs, 64 * 1024)]
        assert max(sizes) <= 1024 < evaluate.MIN_FFT

    def test_complex_coefficients_refused(self):
        with pytest.raises(ValueError, match="real coefficients"):
            next(evaluate.iter_circle_values(np.array([1.0, 1j]), 64))

    def test_past_cap_count_needs_the_stride(self, monkeypatch):
        coeffs = generate_pair(3).p.coeffs
        monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", 64)
        # 129 points need sub-grids of stride 4
        with pytest.raises(ResourceLimitError, match="stride 4"):
            next(evaluate.iter_circle_values(coeffs, 129))
        # sub-grids 0 and 1, standing for their twins 3 and 2
        assert len(list(evaluate.iter_circle_values(coeffs, 132))) == 2


def _twin_reading_reductions(pair, count, bins, rectangles):
    """value_distribution and both residuals, reduced over every point of
    grids filled by fill_circle, the mirror twins included."""
    n = pair.n
    scale = 1.0 / math.sqrt(2.0 * n)
    signs = np.where(np.arange(n) % 2 == 0, 1, -1)
    p, q, p_neg = (fill_circle(evaluate.iter_circle_values(a, count), count)
                   for a in (pair.p.coeffs, pair.q.coeffs,
                             signs * pair.p.coeffs))
    re, im = p.real * scale, p.imag * scale
    hits = [np.count_nonzero((re >= r0) & (re <= r1) & (im >= i0) & (im <= i1))
            for r0, r1, i0, i1 in rectangles]
    u = np.minimum(re * re + im * im, 1.0)
    fine = np.bincount((u * KOLMOGOROV_BINS).astype(np.intp),
                       minlength=KOLMOGOROV_BINS + 1)
    hist = np.bincount((u * bins).astype(np.intp), minlength=bins + 1)
    hist[bins - 1] += hist[bins]
    below = np.concatenate([[0], np.cumsum(fine[:-1])]) / count
    edges = np.arange(KOLMOGOROV_BINS + 1) / KOLMOGOROV_BINS
    return {
        "cdf": np.cumsum(hist[:bins]) / count,
        "sup": float(max(np.max(below[1:] - edges[:-1]),
                         np.max(edges[1:] - below[:-1]))),
        "rectangles": [TAU * int(hit) / count for hit in hits],
        "parallelogram": float(np.max(np.abs(
            np.abs(p) ** 2 + np.abs(q) ** 2 - 2.0 * n))) / (2.0 * n),
        "conjugate": float(np.max(np.abs(np.abs(q) - np.abs(p_neg)))),
    }


class TestTwinsNotFormed:
    """value_distribution and the residuals read no mirror twin, yet equal,
    bit for bit, what the twins give."""

    @pytest.mark.parametrize("k, count, cap", [
        *((k, None, None) for k in range(1, 13)),
        (9, 4097, None), (8, 64 * 256, 64)],
        ids=[*(f"k{k}" for k in range(1, 13)), "odd_count", "folded"])
    def test_matches_twin_reading_reference(self, k, count, cap, monkeypatch):
        pair = generate_pair(k)
        count = count or max(4096, 64 * pair.n)
        if cap is not None:
            monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", cap)
        # rectangles off the real axis tell a twin's hits from the original's
        assert any(i0 != -i1 for *_, i0, i1 in DEFAULT_RECTANGLES)
        expect = _twin_reading_reductions(pair, count, 50, DEFAULT_RECTANGLES)
        report = value_distribution(k, bins=50, count=count, pair=pair)
        assert np.array_equal(report.empirical_cdf, expect["cdf"])
        assert report.sup_distance_to_uniform == expect["sup"]
        assert [hit for _, hit, _ in report.rectangle_tests] == \
            expect["rectangles"]
        assert parallelogram_residual(pair, count) == expect["parallelogram"]
        assert conjugate_relation_residual(pair, count)[1] == \
            expect["conjugate"]


def _subarc_reference(pair, arc, count, slack, qs):
    """_subarc_reports' hits, peak and means over every block of the whole
    grid, each full-circle twin after its original and of weight 1."""
    if arc == FULL_CIRCLE:
        whole = fill_circle(evaluate.iter_circle_squares(
            evaluate.autocorrelation(pair.p.coeffs), count), count)
        blocks = [f for _, _, f in _cut_blocks(whole, pair.n)]
    else:
        blocks = [v.real ** 2 + v.imag ** 2 for _, v in
                  evaluate.iter_arc_values(pair, "p", arc.alpha, arc.beta,
                                           count)]
    level = verify.GAMMA * pair.n
    hits = [sum(np.count_nonzero(f >= t) for f in blocks)
            for t in (level + slack, level, level ** 2)]
    sums = np.zeros((len(qs), 2))
    for f in blocks:
        floor = np.maximum(f - slack, 0.0)
        for i, q in enumerate(qs):
            sums[i] += np.sum(floor ** (q / 2.0)), np.sum(f ** (q / 2.0))
    return hits, max(float(f.max()) for f in blocks), sums / count


class TestWholeGridReferences:
    """Consumers of the full-circle streams, which weigh each block by the
    twins it stands for or reduce it alone, against the same reductions of
    whole grids filled by the mirror rule."""

    @pytest.mark.parametrize("k", [6, 9, 12])
    @pytest.mark.parametrize("arc", [FULL_CIRCLE, Arc(0.3, 2.0)],
                             ids=["full_circle", "subarc"])
    def test_subarc_reports(self, k, arc):
        pair = generate_pair(k)
        qs = (0.5, 2.0)
        level_set, moments = verify._subarc_reports(k, arc, pair, qs)
        count = level_set.details["count"]
        hits, peak, means = _subarc_reference(
            pair, arc, count, level_set.details["slack"], qs)
        assert [level_set.lhs, level_set.details["sampled_measure"],
                level_set.details["literal_measure"]] == \
            (arc.length / count * np.array(hits)).tolist()
        assert all(report.details["peak"] == peak for report in moments)
        got = np.array([[report.details["certified_lower"], report.lhs]
                        for report in moments])
        if arc == FULL_CIRCLE:  # a twin's sum no longer runs reversed
            assert np.allclose(got, means, rtol=1e-14, atol=0.0)
        else:
            assert np.array_equal(got, means)

    @pytest.mark.parametrize("degree", [2, 64, 4096, 20000])
    def test_circle_min_modulus(self, degree):
        # strides 1, 1, 32 and 32
        coeffs = gf2.random_skew_reciprocal(degree // 2,
                                            np.random.default_rng(degree))
        count = 64 * degree
        whole = fill_circle(evaluate.iter_circle_values(coeffs, count), count)
        assert gf2.circle_min_modulus(coeffs) == float(np.min(np.abs(whole)))

    @pytest.mark.parametrize("half_offset", [True, False],
                             ids=["half_offset", "lattice"])
    @pytest.mark.parametrize("k, count", [(3, 4096), (9, 16 * 512),
                                          (12, 64 * 4096)])
    def test_eval_grid_and_circle_values(self, k, count, half_offset):
        # strides 1, 2 and 64
        pair = generate_pair(k)
        grid = eval_grid(pair, FULL_CIRCLE, count, half_offset=half_offset)
        for poly, got in ((pair.p, grid.values_p), (pair.q, grid.values_q)):
            expect = fill_circle(evaluate.iter_circle_values(
                poly.coeffs, count, half_offset), count, half_offset)
            assert np.array_equal(got, expect)
            assert np.array_equal(evaluate.circle_values(
                poly.coeffs, count, half_offset), expect)


class TestTracedPeaks:
    """Full-circle consumers hold a few sub-grid arrays at a time.

    Traced (tracemalloc) peaks at k = 14, in n-point complex arrays, of the
    default grids (16n points, stride 16, sub-grids of n points): measured
    5.5, 5.5 and 3.5 here, against 13.7, 13.0 and 6.5 where every stream
    held two whole-length phase tables, the mirror twins and full-length
    twiddled copies.  Each bound sits at least 15% above the measured peak.
    """

    @pytest.mark.parametrize("call, bound", [
        (lambda pair: parallelogram_residual(pair, 16 * pair.n), 6.5),
        (lambda pair: bernstein_ratio(pair.k, pair=pair), 6.5),
        (lambda pair: mq_arcs((pair, "p"), FULL_CIRCLE, [1.0, 2.0, 4.0, 6.0]),
         4.1)], ids=["parallelogram_residual", "bernstein_ratio", "mq_arcs"])
    def test_peak(self, call, bound):
        pair = generate_pair(14)
        call(pair)  # warm: FFT plans and lazy imports are not the stream's
        tracemalloc.start()
        try:
            call(pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 16 * pair.n


def _square_bound(coeffs, count, slope=False):
    """eps of iter_circle_squares' docstring: the a priori bound on R, or R'."""
    n = len(coeffs)
    c = evaluate.autocorrelation(coeffs) * (np.arange(n) if slope else 1)
    stride = evaluate._circle_stride(n, count)
    length = count // stride
    rho = -(-n // length)
    return 2.0 ** -48 * math.sqrt(n + length) * float(np.linalg.norm(c)) * (
        math.log2(length) + stride + 2 * rho + 3)


# (k, count, cap): the geometries of test_mirror_twins (stride 1, 64, 16,
# past the cap, folded), then those of test_past_cap_matches_horner, then
# a count below n (stride 1, folded by sign) and sub-grids of 6144 points,
# not a power of two (stride 4)
SQUARE_GEOMETRIES = [
    (5, 4096, None), (10, 64 * 4096, None), (12, 16 * 4096, None),
    (8, 16 * 256, 512), (8, 64 * 256, 64),
    (5, 16 * 32, 8), (5, 64 * 32, 8), (8, 16 * 256, 64), (8, 16 * 256, 1024),
    (8, 64 * 256, 1024), (6, 41, None), (10, 24 * 1024, None)]


class TestAutocorrelation:
    @pytest.mark.parametrize("k", range(13))
    def test_rudin_shapiro_pairs(self, k):
        pair = generate_pair(k)
        for poly in (pair.p, pair.q):
            a = poly.coeffs.astype(np.int64)
            assert np.array_equal(evaluate.autocorrelation(poly.coeffs),
                                  np.correlate(a, a, "full")[a.size - 1:])

    @settings(max_examples=60)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=700))
    def test_random_signs(self, signs):
        a = np.array(signs, dtype=np.int64)
        assert np.array_equal(evaluate.autocorrelation(a),
                              np.correlate(a, a, "full")[a.size - 1:])

    def test_rounding_guard(self, monkeypatch):
        with pytest.raises(ValueError, match="residual"):
            evaluate.autocorrelation([0.5, 0.5])  # c = (0.5, 0.25)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *args, **kwargs: irfft(*args, **kwargs) + 0.3)
        with pytest.raises(ValueError, match="residual"):
            evaluate.autocorrelation(generate_pair(5).p.coeffs)


class TestCircleSquares:
    """iter_circle_squares against the complex stream and the Horner oracle."""

    @pytest.mark.parametrize("k, count, cap", SQUARE_GEOMETRIES)
    def test_matches_complex_stream_and_horner(self, k, count, cap,
                                               monkeypatch):
        pair = generate_pair(k)
        n = pair.n
        if cap is not None:
            monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", cap)
        values = list(evaluate.iter_circle_values(pair.p.coeffs, count))
        squares = list(evaluate.iter_circle_squares(
            evaluate.autocorrelation(pair.p.coeffs), count))
        # the same sub-grids in the same order: one stride rule and mirror
        assert [block[:2] for block in squares] == \
            [block[:2] for block in values]
        if cap is not None:
            assert max(block.size for _, _, block in squares) <= cap
        eps = _square_bound(pair.p.coeffs, count)
        for (r, stride, sq), (_, _, v) in zip(squares, values):
            assert sq.size * stride == count
            # |S|^2 of the complex stream is within 3 eps of R (docstring)
            assert np.max(np.abs(sq - np.abs(v) ** 2)) <= 4 * eps
        whole = fill_circle(squares, count)
        i = np.unique(np.linspace(0, count - 1, 64).astype(int))
        oracle = np.abs(eval_horner(pair.p, circle_grid(0.0, TAU, count)[i]))
        # the oracle's float angles are off by < 4 eps_64 2 pi, and |R'| <=
        # (n - 1) n (bernstein_ratio)
        assert np.max(np.abs(whole[i] - oracle ** 2)) <= \
            eps + 8 * EPS * TAU * n * n

    @pytest.mark.parametrize("k, count, cap", SQUARE_GEOMETRIES)
    def test_twins_and_slopes(self, k, count, cap, monkeypatch):
        pair = generate_pair(k)
        n = pair.n
        if cap is not None:
            monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", cap)
        blocks = list(evaluate.iter_circle_squares(
            evaluate.autocorrelation(pair.q.coeffs), count, slope=True))
        stride = blocks[0][1]
        # the twins by the mirror rule: R is even, R' odd
        slope = fill_circle([(r, s, ds) for r, s, _, ds in blocks], count,
                            sign=-1)
        # R' = -2 sum_l l c_l sin(l t) at sampled points of every sub-grid,
        # each angle reduced exactly: l t_j = pi (l (2j + 1) mod 2 count) / count
        c = evaluate.autocorrelation(pair.q.coeffs)
        weights = np.arange(n) * c
        tol = _square_bound(pair.q.coeffs, count, slope=True) + \
            16 * EPS * TAU * np.sum(np.abs(weights))
        for r in range(stride):
            t = np.unique(np.linspace(0, count // stride - 1, 4).astype(int))
            j = r + stride * t
            turns = np.outer(2 * j + 1, np.arange(n)) % (2 * count)
            exact = -2.0 * np.sin(math.pi / count * turns) @ weights
            assert np.max(np.abs(slope[j] - exact)) <= tol

    @pytest.mark.parametrize("k", [16, 18])
    def test_relative_error_at_large_k(self, k):
        # the a priori bound sits orders above the error seen; this catches
        # a loss of digits it would let through (measured <= 1.02e-14 2n)
        pair = generate_pair(k)
        c = evaluate.autocorrelation(pair.p.coeffs)
        for count in (16 * pair.n, 64 * pair.n):
            for (_, _, sq), (_, _, v) in zip(
                    evaluate.iter_circle_squares(c, count),
                    evaluate.iter_circle_values(pair.p.coeffs, count)):
                assert np.max(np.abs(sq - (v.real ** 2 + v.imag ** 2))) <= \
                    1e-12 * 2 * pair.n

    def test_past_cap_refused_before_any_transform(self, monkeypatch):
        c = evaluate.autocorrelation(generate_pair(3).p.coeffs)
        calls = []
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name,
                                lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", 64)
        # 129 points need sub-grids of stride 4
        with pytest.raises(ResourceLimitError, match="stride 4"):
            next(evaluate.iter_circle_squares(c, 129))
        assert calls == []


def _complex_path(pair, count):
    """Every modulus-only consumer on iter_circle_values: per-point arrays.

    |S| of P_k, the flatness integrand | |P|^2 - n |, the angles and
    2 Re(conj(P) i z P'), z P' streamed from the coefficients m a_m.
    """
    p, zdp = (fill_circle(evaluate.iter_circle_values(a, count), count)
              for a in (pair.p.coeffs, pair.p.coeffs * np.arange(pair.n)))
    return np.abs(p), 2.0 * np.real(np.conj(p) * 1j * zdp)


class TestSquaresMatchComplexPath:
    """The moduli consumers within the documented bound of the complex path."""

    @pytest.mark.parametrize("k", range(1, 17))
    def test_consumers(self, k):
        pair = generate_pair(k)
        n = pair.n
        count = max(4096, 16 * n)
        bound = 4 * _square_bound(pair.p.coeffs, count)  # R and |S|^2: eps + 3 eps
        mod, slope = _complex_path(pair, count)
        sq = mod * mod
        slack = 4 * math.log2(count) * EPS  # summation rounding, relative
        # M_q^q, q >= 2: R^(q/2) moves by <= (q/2) (2n + B)^(q/2 - 1) B
        ests = mq_arcs((pair, "p"), FULL_CIRCLE, [1.0, 2.0, 4.0, 6.0], count)
        for est in ests[1:]:
            q = est.q
            ref = np.mean(mod ** q)
            tol = q / 2 * (2 * n + bound) ** (q / 2 - 1) * bound
            assert abs(est.value ** q - ref) <= tol + slack * ref, q
        # M_1: |sqrt(a) - sqrt(b)| <= min(sqrt(B), B / sqrt(b))
        ref = np.mean(mod)
        tol = np.mean(np.minimum(math.sqrt(bound), bound / mod))
        assert abs(ests[0].value - ref) <= tol + slack * ref
        # M_0 and flatness: log x moves by <= B / (x - B) where x > B
        for est, x in ((norms.mahler_arc((pair, "p"), FULL_CIRCLE, count), sq),
                       (flatness_defect_mahler(pair, count), np.abs(sq - n))):
            ref = np.mean(np.log(x)) / (2 if x is sq else 1)
            moved = np.where(x > bound, bound / np.maximum(x - bound, 1e-300),
                             np.inf) / (2 if x is sq else 1)
            assert abs(math.log(est.value) - ref) <= \
                np.mean(moved) + slack * (abs(ref) + 1)
        # min modulus: min R moves by <= B, its root by <= B / (sum of roots)
        th = circle_grid(0.0, TAU, count)
        away = (th > 0.01) & (np.abs(th - math.pi) > 0.01) & (TAU - th > 0.01)
        ref = np.min(mod, where=away, initial=math.inf)
        got = min_modulus_excluding_poles(k, count, pair=pair)
        assert abs(got - ref) <= bound / (got + ref)
        # Bernstein: R' within eps' (squares) + 3 n eps (product rule)
        got = bernstein_ratio(k, count, pair=pair).lhs
        assert abs(got - np.max(np.abs(slope))) <= \
            _square_bound(pair.p.coeffs, count, slope=True) + 3 * n * bound / 4


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

    def test_empty_sum_is_zero(self):
        assert pairwise_sum(np.array([])) == 0.0
