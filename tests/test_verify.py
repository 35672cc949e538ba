import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fill_circle
from rudin_shapiro import evaluate, verify
from rudin_shapiro.cli import main
from rudin_shapiro.core import MAX_PAIR_K, ResourceLimitError, generate_pair
from rudin_shapiro.evaluate import eval_horner
from rudin_shapiro.norms import Arc, FULL_CIRCLE, mahler_arc, mq_arc
from rudin_shapiro.verify import (DEFAULT_RECTANGLES, GAMMA,
                                  KOLMOGOROV_BINS, MAHLER_LIMIT_RATIO,
                                  bernstein_ratio,
                                  check_certified_intervals,
                                  check_lattice_pair_bound,
                                  check_level_set_measure,
                                  check_subarc_moment_bounds,
                                  mahler_asymptote_ratio, min_modulus_excluding_poles,
                                  random_arcs, run_verification, saffari_ratio,
                                  saffari_ratios,
                                  subarc_mahler_ratio, trend_nonincreasing,
                                  value_distribution)

TAU = math.tau


class TestGamma:
    def test_value(self):
        assert GAMMA == pytest.approx(0.14644660940672624)

    def test_half_angle_identity(self):
        assert 2 * GAMMA == pytest.approx(1 - math.cos(math.pi / 4), abs=1e-15)

    def test_mahler_limit_value(self):
        assert MAHLER_LIMIT_RATIO == pytest.approx(0.8577638849607068)


class TestLatticePairBound:
    def test_k1_exact_lattice(self):
        # lattice {1, -1}: |P_1(1)|^2 = 4 dominates every pair
        report = check_lattice_pair_bound(1)
        assert report.passed
        assert report.margin == pytest.approx(4 - 4 * GAMMA, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 4, 8, 10])
    def test_proved_bound_holds(self, k):
        report = check_lattice_pair_bound(k)
        assert report.passed
        assert report.margin > 0

    def test_k16_passes(self):
        assert check_lattice_pair_bound(16).passed


class TestCertifiedIntervals:
    def test_k1_interval_around_zero(self):
        report = check_certified_intervals(1)
        assert report.passed
        assert report.lhs >= GAMMA * 2

    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_proved_bound_holds(self, k):
        report = check_certified_intervals(k)
        assert report.passed
        assert report.details["certified_intervals"] > 0

    def test_k16_passes(self):
        assert check_certified_intervals(16).passed

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 11, 12])
    def test_mirrored_offsets_match_every_offset(self, k):
        # against all 33 offsets transformed one by one
        pair = generate_pair(k)
        n = pair.n
        half = verify.POINTS_PER_INTERVAL // 2
        certified, low = 0, math.inf
        for poly in (pair.p, pair.q):
            qualifying = np.nonzero(verify._lattice_squares(poly.coeffs) >=
                                    2.0 * GAMMA * n)[0]
            certified += qualifying.size
            for t in range(-half, half + 1) if qualifying.size else ():
                low = min(low, float(np.min(verify._lattice_squares(
                    poly.coeffs, t * (GAMMA / n / half), qualifying))))
        report = check_certified_intervals(k, pair=pair)
        assert report.details["certified_intervals"] == certified
        eps = np.finfo(np.float64).eps
        assert abs(report.lhs - low) <= 10 * eps * n ** 1.5

    def test_one_fft_per_positive_offset(self, monkeypatch):
        calls = []
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda *args, **kwargs: (
            calls.append(args), ifft(*args, **kwargs))[1])
        assert check_certified_intervals(10).passed
        # the lattice and offsets 1..16 of P and of Q
        assert len(calls) == 2 * (1 + verify.POINTS_PER_INTERVAL // 2)


@pytest.mark.parametrize("check", [check_lattice_pair_bound,
                                   check_certified_intervals])
def test_lattice_past_grid_cap_refused(check, monkeypatch):
    # an n-point lattice past GRID_MAX_COUNT is refused, as eval_grid
    # refuses that count, before any transform
    calls = []
    monkeypatch.setattr(np.fft, "ifft",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(evaluate, "GRID_MAX_COUNT", 8)
    with pytest.raises(ResourceLimitError, match="exceeds the grid memory cap 8"):
        check(4)
    assert calls == []


class TestBernsteinRatio:
    def test_k0_constant(self):
        report = bernstein_ratio(0)
        assert report.passed
        assert report.details["ratio"] == 0.0

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_ratio_below_one(self, k):
        report = bernstein_ratio(k)
        assert report.passed
        assert report.details["ratio"] <= 1 + 1e-9

    def test_k12_strictly_below_one(self):
        # grid maxima undershoot the true extrema slightly
        report = bernstein_ratio(12)
        assert report.details["ratio"] < 1.0

    def test_count_precondition(self):
        with pytest.raises(ValueError, match="16n"):
            bernstein_ratio(6, count=100)


class TestLevelSetMeasure:
    def test_full_circle_passes_widely(self):
        report = check_level_set_measure(10, FULL_CIRCLE)
        assert report.passed
        assert report.lhs > 10 * report.rhs

    def test_minimal_arc(self):
        k = 10
        length = 32 * math.pi / (1 << k)
        report = check_level_set_measure(k, Arc(0.7, 0.7 + length))
        assert report.passed

    def test_boundary_arc_random_position(self):
        k = 14
        length = 32 * math.pi / (1 << k)
        rng = np.random.default_rng(3)
        for _ in range(3):
            alpha = rng.uniform(0, TAU)
            assert check_level_set_measure(k, Arc(alpha, alpha + length)).passed

    def test_literal_reading_reported(self):
        report = check_level_set_measure(10, FULL_CIRCLE)
        assert "literal_measure" in report.details
        # gamma * n exceeds sqrt(2n) by k = 10, so the unsquared set is empty
        assert report.details["literal_measure"] == 0.0

    def test_short_arc_rejected(self):
        with pytest.raises(ValueError, match="32"):
            check_level_set_measure(10, Arc(0.0, 1e-4))

    def test_gate_arcs_pass_fifty_fold(self):
        # the arcs of acceptance gate 3
        reports = run_verification(["level_set"], ks=range(4, 15), n_arcs=8)
        assert len(reports) == 88
        assert all(r.lhs >= 50 * r.rhs for r in reports)


def _squared_moduli(pair, arc, count):
    """|P|^2 on the midpoint grid, computed as the certificate computes it."""
    p = np.concatenate([values for _, values in evaluate.iter_arc_values(
        pair, "p", arc.alpha, arc.beta, count)])
    return p.real ** 2 + p.imag ** 2


class TestLevelSetCertificate:
    """The certified measure is a proof: every certified cell is in E."""

    @settings(max_examples=15)
    @given(k=st.integers(4, 10),
           alpha=st.floats(0.0, TAU, exclude_max=True),
           stretch=st.floats(0.0, 1.0))
    def test_certified_cells_hold_densely(self, k, alpha, stretch):
        pair = generate_pair(k)
        n = pair.n
        arc = Arc(alpha, alpha + min(TAU, 32 * math.pi / n * 2 ** stretch))
        report = check_level_set_measure(k, arc, pair=pair)
        count = report.details["count"]
        assert count == math.ceil(4 * n * arc.length)
        width = arc.length / count
        # the Bernstein slack, derived here from the degree and cell width
        slack = (n - 1) * n * width / 2.0 + report.details["err"]
        assert report.details["slack"] == slack
        cells = np.nonzero(_squared_moduli(pair, arc, count) >=
                           GAMMA * n + slack)[0]
        assert report.lhs == width * cells.size
        thetas = arc.alpha + (cells[:, None] + np.linspace(0.0, 1.0, 33)) * width
        dense = np.abs(eval_horner(pair.p, thetas.ravel())) ** 2
        assert dense.min() >= GAMMA * n

    def test_chirp_cells_nearest_the_level_hold_densely(self):
        # a 4n * 5 point grid, a chirp-z point set of three recursion
        # blocks; check the 64 certified cells whose midpoint value is
        # lowest
        k = 11
        pair = generate_pair(k)
        n = pair.n
        arc = Arc(0.4, 5.4)
        report = check_level_set_measure(k, arc, pair=pair)
        count = report.details["count"]
        assert count > 2 * evaluate.DEFAULT_CHUNK
        width = arc.length / count
        f = _squared_moduli(pair, arc, count)
        cells = np.nonzero(f >= GAMMA * n + report.details["slack"])[0]
        assert report.lhs == width * cells.size
        cells = cells[np.argsort(f[cells])[:64]]
        thetas = arc.alpha + (cells[:, None] + np.linspace(0.0, 1.0, 33)) * width
        dense = np.abs(eval_horner(pair.p, thetas.ravel())) ** 2
        assert dense.min() >= GAMMA * n

    @pytest.mark.parametrize("k", [6, 10, 14])
    def test_certified_below_dense_sampled_measure(self, k):
        pair = generate_pair(k)
        for arc in random_arcs(k, 3, seed=17 + k):
            report = check_level_set_measure(k, arc, pair=pair)
            count = math.ceil(64 * pair.n * arc.length)
            inside = np.count_nonzero(
                _squared_moduli(pair, arc, count) >= GAMMA * pair.n)
            assert report.rhs < report.lhs <= arc.length * inside / count

    @pytest.mark.parametrize("k", [10, 12, 14])
    def test_err_covers_evaluation_error(self, k):
        # 32 seeded points on each of two recursion grids
        pair = generate_pair(k)
        rng = np.random.default_rng(k)
        short = 32 * math.pi / pair.n * 1.5
        for arc in (Arc(0.9, 0.9 + short), Arc(1.1, 6.2)):
            report = check_level_set_measure(k, arc, pair=pair)
            count = report.details["count"]
            picks = rng.choice(count, 32, replace=False)
            f = _squared_moduli(pair, arc, count)[picks]
            thetas = arc.alpha + (picks + 0.5) * (arc.length / count)
            oracle = np.abs(eval_horner(pair.p, thetas)) ** 2
            assert np.max(np.abs(f - oracle)) <= report.details["err"]


    @pytest.mark.parametrize("k", range(4, MAX_PAIR_K + 1))
    def test_full_circle_squares_bound_below_err(self, k):
        # the inequality of _subarc_reports' docstring: on the full circle
        # the squares stream's eps, with ||c||_2 <= sqrt(2) n, is <= err / 12
        n = 1 << k
        count = math.ceil(verify.CELLS_PER_WINDOW * n * TAU)
        try:
            stride = evaluate._circle_stride(n, count)
        except ResourceLimitError:
            return  # refused before any transform: no certificate
        length = count // stride
        eps = 2.0 ** -48 * math.sqrt(n + length) * math.sqrt(2.0) * n * (
            math.log2(length) + stride + 2 * -(-n // length) + 3)
        d = 2.0 ** -45 * math.sqrt(max(4 * n, evaluate.MIN_FFT)) * n * (
            math.log2(max(4 * n, evaluate.MIN_FFT)) + TAU)
        err = (2.0 * math.sqrt(2.0 * n) + d) * d + 2.0 ** -49 * n
        assert 12.0 * eps <= err
        if k <= 10:  # the report's err, and the norm bound, as used above
            pair = generate_pair(k)
            assert evaluate.arc_value_error(pair, 0.0, TAU) == d
            report = check_level_set_measure(k, FULL_CIRCLE, pair=pair)
            assert report.details["err"] == err
            c = evaluate.autocorrelation(pair.p.coeffs)
            assert np.linalg.norm(c) <= math.sqrt(2.0) * n


class TestSubarcMomentBounds:
    @pytest.mark.parametrize("q", [0.25, 1.0, 2.0, 4.0])
    def test_full_circle_k8(self, q):
        report = check_subarc_moment_bounds(8, FULL_CIRCLE, q)
        assert report.passed
        assert report.details["lower_margin"] > 0

    def test_m2_middle_value(self):
        # M_2^2 = n sits between the bounds with room on both sides
        report = check_subarc_moment_bounds(8, FULL_CIRCLE, 2.0)
        assert report.lhs == pytest.approx(256.0, rel=1e-8)

    def test_minimal_arc_k12(self):
        length = 32 * math.pi / (1 << 12)
        for q in (0.25, 1.0):
            report = check_subarc_moment_bounds(12, Arc(1.1, 1.1 + length), q)
            assert report.passed

    def test_certified_lower_below_midpoint_mean(self):
        reports = run_verification(["moment_bounds"], ks=[6, 10, 14],
                                   n_arcs=3, qs=(0.25, 1.0, 2.0, 4.0), seed=5)
        assert len(reports) == 36
        for report in reports:
            assert report.passed
            assert 0 < report.details["lower_margin"]
            assert report.details["certified_lower"] <= report.lhs

    @pytest.mark.parametrize("excess, passed", [(0.0, True), (1e-8, False)])
    def test_upper_side_is_pointwise(self, monkeypatch, excess, passed):
        # one sample of |P|^2 = 2n (1 + excess); every other sample as computed
        k, arc = 8, Arc(0.5, 2.5)
        n = 1 << k
        honest = evaluate.iter_arc_values

        def doctored(*args, **kwargs):
            blocks = honest(*args, **kwargs)
            index, first = next(blocks)
            first[0] = math.sqrt(2.0 * n * (1.0 + excess))
            yield index, first
            yield from blocks

        monkeypatch.setattr(evaluate, "iter_arc_values", doctored)
        report = check_subarc_moment_bounds(k, arc, 2.0)
        assert report.details["lower_margin"] > 0
        assert report.passed is passed


class TestSaffariRatio:
    @pytest.mark.parametrize("k", [2, 6, 10, 14])
    def test_q2_ratio_exactly_one(self, k):
        report = saffari_ratio(k, 2.0)
        assert report.passed
        assert abs(report.details["ratio"] - 1.0) <= 1e-8

    def test_p_q_discrepancy_vanishes(self):
        # |Q_k(e^it)| = |P_k(-e^it)|, so saffari_ratio estimates P alone;
        # rounding apart, the half-offset grids give Q the same M_q
        pair = generate_pair(8)
        est_p = mq_arc((pair, "p"), FULL_CIRCLE, 1.0)
        est_q = mq_arc((pair, "q"), FULL_CIRCLE, 1.0)
        assert abs(est_p.value - est_q.value) <= 1e-12 * est_p.value <= 1e-8

    def test_q4_k12_close_to_limit(self):
        report = saffari_ratio(12, 4.0)
        assert abs(report.details["ratio"] - 1.0) <= 0.01

    def test_shared_grids_equal_one_q_calls(self):
        reports = saffari_ratios(8, [1, 2.0, 4.0, 6.0])
        assert [r.q for r in reports] == [1.0, 2.0, 4.0, 6.0]
        for report in reports:
            single = saffari_ratio(8, report.q)
            # every field and detail, floats in shortest repr: bit for bit
            assert json.dumps(report.to_json_dict()) == \
                json.dumps(single.to_json_dict())

    def test_trend_reports_every_exponent(self, monkeypatch):
        monkeypatch.setattr(verify, "SAFFARI_TREND_KS", (6, 8))
        reports = verify.saffari_trend((1.0, 4.0))
        assert [r.q for r in reports] == [1.0, 4.0]
        for report in reports:
            assert report.details["ks"] == [6, 8]
            assert report.details["distances"] == [
                abs(saffari_ratio(k, report.q).details["ratio"] - 1.0)
                for k in (6, 8)]


class TestOnePassPerGrid:
    """Full-circle passes, counted where evaluate.iter_circle_squares starts."""

    @pytest.fixture
    def passes(self, monkeypatch):
        counts = []
        stream = evaluate.iter_circle_squares

        def counted(coeffs, count, **kwargs):
            counts.append(count)
            return stream(coeffs, count, **kwargs)

        monkeypatch.setattr(evaluate, "iter_circle_squares", counted)
        return counts

    def test_saffari_every_exponent_on_two_grids(self, passes, tmp_path,
                                                 capsys):
        # one c-grid and one 2c-grid of P_8 (c = 16n = 4096) for all q
        assert main(["saffari", "--k", "8", "--q", "1,2,4,6",
                     "--out", str(tmp_path)]) == 0
        assert passes == [4096, 8192]

    def test_mahler_asymptote_on_two_grids(self, passes):
        mahler_asymptote_ratio(8)
        assert passes == [4096, 8192]


class TestTrendAcceptance:
    def test_monotone_sequence(self):
        assert trend_nonincreasing([0.5, 0.3, 0.1], floor=1e-3)

    def test_rise_above_floor_fails(self):
        assert not trend_nonincreasing([0.5, 0.3, 0.4], floor=1e-3)

    def test_noise_below_floor_tolerated(self):
        assert trend_nonincreasing([0.5, 1e-4, 5e-4, 2e-4], floor=1e-3)

    def test_no_overall_decrease_fails(self):
        assert not trend_nonincreasing([0.01, 0.011], floor=1e-3)


class TestValueDistribution:
    def test_total_measure_is_full_circle(self):
        report = value_distribution(6, bins=16, rectangles=())
        assert report.empirical_cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(report.empirical_cdf) >= 0)

    def test_low_half_measure_near_pi(self):
        # the limiting law gives measure 2*pi*0.5 to |P|^2/(2n) <= 1/2
        report = value_distribution(12, bins=2, rectangles=())
        low_half = report.empirical_cdf[0] * TAU
        assert low_half == pytest.approx(math.pi, abs=0.05)

    def test_sup_distance_small_at_k12(self):
        report = value_distribution(12, rectangles=())
        assert report.sup_distance_to_uniform <= 0.01

    def test_rectangle_measures(self):
        rect = (0.0, 0.3, 0.0, 0.3)
        report = value_distribution(12, rectangles=(rect,))
        (_, empirical, expected), = report.rectangle_tests
        assert expected == pytest.approx(0.18)
        assert abs(empirical - expected) <= 0.05

    def test_rejects_rectangle_outside_disk(self):
        with pytest.raises(ValueError, match="disk"):
            value_distribution(4, rectangles=((0.5, 0.9, 0.5, 0.9),))

    def test_component_q_matches_p_statistics(self):
        p_report = value_distribution(10, rectangles=(), component="p")
        q_report = value_distribution(10, rectangles=(), component="q")
        # moduli of Q are a half-turn rotation of the moduli of P
        assert q_report.sup_distance_to_uniform == pytest.approx(
            p_report.sup_distance_to_uniform, abs=1e-3)

    @pytest.mark.parametrize("k", [3, 8, 12])
    def test_streamed_equals_materialized(self, k):
        # the stream adds up per-block counts (stride 1, 4, 64); here the
        # same quantities come from one materialized, sorted grid
        report = value_distribution(k, bins=32)
        pair = generate_pair(k)
        count = max(4096, 64 * pair.n)
        normalized = evaluate.circle_values(pair.p.coeffs, count)
        normalized /= math.sqrt(2.0 * pair.n)
        u = np.clip(np.abs(normalized) ** 2, 0.0, 1.0)
        u.sort()
        # the bracket's upper end from C_i = #{u < i/B}, bit for bit
        edges = np.arange(KOLMOGOROV_BINS + 1) / KOLMOGOROV_BINS
        below = np.searchsorted(u, edges, side="left")
        cdf_lo = below / count
        bracket = float(max(np.max(cdf_lo[1:] - edges[:-1]),
                            np.max(edges[1:] - cdf_lo[:-1])))
        assert report.sup_distance_to_uniform == bracket
        # and it brackets the exact Kolmogorov distance of the sample
        grid = np.arange(1, count + 1, dtype=np.float64) / count
        exact = float(max(np.max(u - (grid - 1.0 / count)), np.max(grid - u)))
        heaviest = np.max(np.diff(np.append(below, count))) / count
        assert exact <= report.sup_distance_to_uniform <= \
            exact + heaviest + 2.0 ** -16
        hist, _ = np.histogram(u, bins=32, range=(0.0, 1.0))
        rect_tests = []
        for rect in DEFAULT_RECTANGLES:
            r0, r1, i0, i1 = rect
            inside = (normalized.real >= r0) & (normalized.real <= r1) & \
                     (normalized.imag >= i0) & (normalized.imag <= i1)
            empirical = math.tau * float(np.count_nonzero(inside)) / count
            rect_tests.append((rect, empirical, 2.0 * (r1 - r0) * (i1 - i0)))
        assert np.array_equal(report.empirical_cdf, np.cumsum(hist) / count)
        assert report.rectangle_tests == rect_tests

    def test_sup_distance_shrinks_along_k_ladder(self):
        distances = [value_distribution(k, rectangles=()).sup_distance_to_uniform
                     for k in (10, 12, 14, 16)]
        assert all(b <= a for a, b in zip(distances, distances[1:]))
        assert distances[-1] <= 0.05


class TestValueDistributionOracle:
    @pytest.mark.parametrize("k", [8, 10])
    @pytest.mark.parametrize("bins", [64, 32, 50, 7])
    def test_matches_materialized_histogram(self, k, bins):
        # the stream bins floor(u * bins) per block and counts rectangles
        # on contiguous copies; the oracle runs np.histogram and the
        # strided .real/.imag views over one materialized grid
        report = value_distribution(k, bins=bins)
        pair = generate_pair(k)
        count = 64 * pair.n
        values = evaluate.eval_grid(pair, FULL_CIRCLE, count).values_p / \
            math.sqrt(2.0 * pair.n)
        u = np.clip(np.abs(values) ** 2, 0.0, 1.0)
        hist, _ = np.histogram(u, bins=bins, range=(0.0, 1.0))
        assert np.array_equal(report.empirical_cdf, np.cumsum(hist) / count)
        hits = [np.count_nonzero((values.real >= r0) & (values.real <= r1) &
                                 (values.imag >= i0) & (values.imag <= i1))
                for r0, r1, i0, i1 in DEFAULT_RECTANGLES]
        assert [empirical for _, empirical, _ in report.rectangle_tests] == \
            [TAU * int(hit) / count for hit in hits]


class TestMahlerAsymptote:
    def test_k8_within_tolerance(self):
        report = mahler_asymptote_ratio(8)
        assert report.details["distance"] <= 0.05

    def test_q_component_matches_p(self):
        pair = generate_pair(10)
        est_p = mahler_arc((pair, "p"), FULL_CIRCLE)
        est_q = mahler_arc((pair, "q"), FULL_CIRCLE)
        assert est_q.value == pytest.approx(est_p.value, rel=1e-12)
        assert est_p.value / math.sqrt(pair.n) == \
            mahler_asymptote_ratio(10, pair=pair).lhs

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            mahler_asymptote_ratio(3)


class TestSubarcMahlerExperiment:
    def test_full_circle_consistent_with_asymptote(self):
        report = subarc_mahler_ratio(10, FULL_CIRCLE)
        asymptote = mahler_asymptote_ratio(10)
        assert report.lhs == pytest.approx(asymptote.lhs, rel=1e-6)

    def test_proved_regime_flagged(self):
        k, n = 12, 1 << 12
        proved_len = math.log(n) ** 1.5 / math.sqrt(n)
        report = subarc_mahler_ratio(k, Arc(0.4, 0.4 + proved_len))
        assert report.details["in_proved_length_regime"]
        assert report.lhs > 0

    def test_conjectured_regime_reported(self):
        k, n = 12, 1 << 12
        report = subarc_mahler_ratio(k, Arc(0.4, 0.4 + 32 * math.pi / n))
        assert not report.details["in_proved_length_regime"]
        assert report.passed  # evidence row, never a gate


class TestPQSymmetry:
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_mq_on_shifted_arc(self, q):
        # |Q(e^it)| = |P(e^i(t+pi))|, so norms transport across a half turn
        pair = generate_pair(8)
        arc = Arc(0.3, 1.4)
        shifted = Arc(0.3 + math.pi, 1.4 + math.pi)
        est_q = mq_arc((pair, "q"), arc, q)
        est_p = mq_arc((pair, "p"), shifted, q)
        assert est_q.value == pytest.approx(est_p.value, rel=1e-9)


class TestDrivers:
    def test_random_arcs_meet_hypothesis(self):
        arcs = random_arcs(8, 5, seed=1)
        assert len(arcs) == 5
        for arc in arcs:
            assert arc.length >= 32 * math.pi / 256 - 1e-12
            assert arc.length <= TAU + 1e-12

    def test_random_arcs_seeded(self):
        first = random_arcs(8, 3, seed=9)
        second = random_arcs(8, 3, seed=9)
        assert [(a.alpha, a.beta) for a in first] == \
            [(a.alpha, a.beta) for a in second]

    def test_too_small_k_rejected(self):
        with pytest.raises(ValueError):
            random_arcs(3, 1)

    def test_run_verification_gated_subset(self):
        reports = run_verification(["lattice_pair", "bernstein"], ks=[2, 4],
                                   n_arcs=0)
        assert len(reports) == 4
        assert all(r.passed for r in reports)

    def test_run_verification_skips_vacuous_arcs(self):
        # k = 2 cannot satisfy the 32*pi/n hypothesis; no arc reports
        reports = run_verification(["level_set"], ks=[2], n_arcs=4)
        assert reports == []

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_verification(["nonsense"], ks=[4])

    def test_min_modulus_evidence(self):
        # strictly positive away from the parity zeros at +-1, though
        # near-zeros do occur (the open question is whether they vanish)
        value = min_modulus_excluding_poles(8)
        assert value > 1e-3

    @pytest.mark.parametrize("k", range(13))
    def test_min_modulus_equals_masked_brute_force(self, k):
        # the three excluded index ranges against the angle masks of one
        # materialized squares grid, bit for bit
        pair = generate_pair(k)
        n = pair.n
        for count in (16 * n, 64 * n, 16 * n + 1):
            th = evaluate.circle_grid(0.0, TAU, count)
            away = (np.minimum(th, TAU - th) > verify.POLE_EXCLUSION) & \
                (np.abs(th - math.pi) > verify.POLE_EXCLUSION)
            for component in ("p", "q"):
                sq = fill_circle(evaluate.iter_circle_squares(
                    evaluate.autocorrelation(evaluate.pair_component(
                        pair, component).coeffs), count), count)
                brute = math.sqrt(max(np.min(sq, where=away,
                                             initial=math.inf), 0.0))
                assert min_modulus_excluding_poles(
                    k, count, component, pair) == brute, (count, component)
