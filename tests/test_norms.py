import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rudin_shapiro import evaluate
from rudin_shapiro.core import generate_pair
from rudin_shapiro.evaluate import eval_pair_point
from rudin_shapiro.norms import (MIN_Q, Arc, FULL_CIRCLE, check_exponents,
                                 default_count, flatness_defect_mahler,
                                 mahler_arc, mq_arc, mq_arcs,
                                 mq_limit_diagnostic, rel_step_tolerance)

TAU = math.tau
ONE = (generate_pair(0), "p")      # P_0 = 1
ONE_PLUS_Z = (generate_pair(1), "p")  # P_1 = 1 + z


def _grid_spy(monkeypatch):
    """Record (component, alpha, beta, counts) of every call for |S|^2 grids."""
    calls = []
    stream = evaluate.iter_arc_squares

    def spy(pair, component, alpha, beta, counts):
        calls.append((component, alpha, beta, tuple(counts)))
        return stream(pair, component, alpha, beta, counts)

    monkeypatch.setattr(evaluate, "iter_arc_squares", spy)
    return calls


class TestArc:
    def test_length(self):
        assert Arc(0.5, 2.0).length == pytest.approx(1.5)

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Arc(2.0, 1.0)

    def test_rejects_over_full_circle(self):
        with pytest.raises(ValueError):
            Arc(0.0, TAU + 0.1)

    def test_full_circle(self):
        assert FULL_CIRCLE.length == pytest.approx(TAU)


class TestMqArc:
    def test_m2_full_circle_is_sqrt_n(self):
        # Parseval: M_2(P_3, full) = 2^(3/2)
        est = mq_arc((generate_pair(3), "p"), FULL_CIRCLE, 2.0)
        assert est.value == pytest.approx(2 ** 1.5, rel=1e-8)
        assert not est.flagged

    def test_constant_polynomial_any_arc_any_q(self):
        for arc in (FULL_CIRCLE, Arc(0.3, 1.1)):
            for q in (0.5, 1.0, 3.0):
                est = mq_arc(ONE, arc, q, count=512)
                assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_m4_ratio_p12(self):
        # finite-k value of M_4^4 relative to its limit 4^(k+1)/3: the
        # exact moment (4^13 - 2^12)/3 makes it 1 - 2^-14
        pair = generate_pair(12)
        est = mq_arc((pair, "p"), FULL_CIRCLE, 4.0)
        ratio = est.value ** 4 / (4 ** 13 / 3)
        assert ratio == pytest.approx(1.0 - 2.0 ** -14, rel=1e-13)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            mq_arc((generate_pair(2), "p"), FULL_CIRCLE, 0.0)

    def test_rejects_bad_arc(self):
        with pytest.raises(ValueError):
            mq_arc((generate_pair(2), "p"), (0.0, 1.0), 2.0)

    def test_rejects_non_pair_sources(self):
        pair = generate_pair(3)
        for source in (pair.p, pair, lambda a, b, c: np.ones(c),
                       ("p", pair), (pair, "p", 1)):
            for estimate in (lambda: mq_arc(source, FULL_CIRCLE, 1.0, 64),
                             lambda: mahler_arc(source, FULL_CIRCLE, 64),
                             lambda: mq_limit_diagnostic(
                                 source, FULL_CIRCLE, [1.0], 64)):
                with pytest.raises(TypeError, match=r"\(pair, 'p' \| 'q'\)"):
                    estimate()

    def test_upper_bound_from_flatness(self):
        # |P| <= sqrt(2n) pointwise, so M_q^q <= (2n)^(q/2) always
        pair = generate_pair(8)
        for q in (0.25, 1.0, 2.0, 4.0):
            est = mq_arc((pair, "p"), Arc(0.2, 0.9), q)
            assert est.value ** q <= (2 * pair.n) ** (q / 2) * (1 + 1e-9)

    @pytest.mark.parametrize("q", [0.5, 1.5, 3.0])
    def test_subarc_against_adaptive_quadrature(self, q):
        # independent oracle: adaptive quadrature of |P(e^it)|^q
        pair = generate_pair(4)
        arc = Arc(0.3, 1.7)
        integral, abserr = quad(
            lambda t: abs(eval_pair_point(pair, t)[0]) ** q,
            arc.alpha, arc.beta, limit=200, epsabs=1e-11, epsrel=1e-11)
        expected = (integral / arc.length) ** (1.0 / q)
        est = mq_arc((pair, "p"), arc, q, count=1 << 14)
        assert est.value == pytest.approx(expected, rel=1e-7)
        assert abserr < 1e-8


def _m4(k):
    """(1/2pi) int |P_k|^4 = (1/2pi) int |Q_k|^4, exactly."""
    return (4 ** (k + 1) - (-2) ** k) // 3


def _m6(k):
    """(1/2pi) int |P_k|^6 = (1/2pi) int |Q_k|^6, exactly."""
    return 2 * 8 ** k - (-4) ** k


class TestExactEvenMoments:
    @pytest.mark.parametrize("k", range(13))
    def test_closed_forms_equal_integer_moments(self, k):
        # the mean of |S|^(2j) is the sum of the squared coefficients of
        # S^j, an integer computed exactly in int64
        pair = generate_pair(k)
        for poly in (pair.p, pair.q):
            a = poly.coeffs.astype(np.int64)
            square = np.convolve(a, a)
            cube = np.convolve(square, a)
            assert int(np.sum(square ** 2)) == _m4(k)
            assert int(np.sum(cube ** 2)) == _m6(k)

    @pytest.mark.parametrize("k", [10, 14])
    @pytest.mark.parametrize("component", ["p", "q"])
    def test_full_circle_quadrature_matches(self, k, component):
        # the midpoint rule on more than q(n - 1)/2 points is exact for
        # even q, up to rounding
        m4, m6 = mq_arcs((generate_pair(k), component), FULL_CIRCLE, [4, 6])
        for est, exact in ((m4, _m4(k)), (m6, _m6(k))):
            assert est.value ** est.q == pytest.approx(exact, rel=1e-13)
            assert est.refined_value ** est.q == \
                pytest.approx(exact, rel=1e-13)


class TestMqArcs:
    @pytest.mark.parametrize("arc, count", [
        (Arc(0.3, 2.9), None),               # recursion grids
        (Arc(0.3, 2.9), 1 << 15),            # two and four recursion blocks
        (Arc(5.0, 5.0 + TAU - 1e-6), None),  # wraps past 2 pi
        (FULL_CIRCLE, None),                 # FFT grids
    ])
    def test_equals_mq_arc_bitwise(self, arc, count):
        source = (generate_pair(10), "q")
        q1, q2 = 0.25, 3.0
        assert mq_arcs(source, arc, [q1, q2], count) == \
            [mq_arc(source, arc, q1, count), mq_arc(source, arc, q2, count)]

    def test_one_c_grid_and_one_2c_grid(self, monkeypatch):
        calls = _grid_spy(monkeypatch)
        arc = Arc(0.5, 3.5)
        ests = mq_arcs((generate_pair(9), "p"), arc, [0.25, 1.0, 2.0, 4.0],
                       count=5000)
        assert calls == [("p", 0.5, 3.5, (5000, 10000))]
        assert [est.q for est in ests] == [0.25, 1.0, 2.0, 4.0]
        assert all(est.count == 5000 for est in ests)

    @pytest.mark.parametrize("qs", [[], [2.0, 0.0], [math.inf], [math.nan]])
    def test_rejects_bad_exponents(self, qs):
        with pytest.raises(ValueError):
            mq_arcs((generate_pair(2), "p"), FULL_CIRCLE, qs)


class TestCheckExponents:
    def test_floor_edge(self):
        check_exponents([MIN_Q], 1024, 4096)
        with pytest.raises(ValueError, match="finite exponent"):
            check_exponents([1.0, math.nextafter(MIN_Q, 0.0)], 1024, 4096)

    def test_overflow_edge(self):
        # 2^12 sums of (2^11)^(q/2) reach 2^1023 at q = 2 * 1011 / 11
        check_exponents([183.8], 1024, 4096)
        with pytest.raises(ValueError, match="overflows"):
            check_exponents([183.9], 1024, 4096)


class TestMahlerArc:
    def test_one_plus_z_full_circle(self):
        # Jensen: the only root sits on the circle, so M_0 = 1
        est = mahler_arc(ONE_PLUS_Z, FULL_CIRCLE, count=1 << 15)
        assert est.value == pytest.approx(1.0, abs=2e-4)

    def test_constant(self):
        est = mahler_arc(ONE, Arc(1.0, 2.5), count=512)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_p16_ratio_near_limit(self):
        pair = generate_pair(16)
        est = mahler_arc((pair, "p"), FULL_CIRCLE)
        assert est.value / math.sqrt(pair.n) == \
            pytest.approx(math.sqrt(2 / math.e), abs=0.05)

    def test_subarc_against_adaptive_quadrature(self):
        pair = generate_pair(4)
        arc = Arc(0.4, 2.1)
        integral, _ = quad(
            lambda t: math.log(abs(eval_pair_point(pair, t)[0])),
            arc.alpha, arc.beta, limit=200, epsabs=1e-11, epsrel=1e-11)
        expected = math.exp(integral / arc.length)
        est = mahler_arc((pair, "p"), arc, count=1 << 14)
        assert est.value == pytest.approx(expected, rel=1e-6)


class TestLimitDiagnostic:
    def test_constant_all_ones(self):
        ests = mq_limit_diagnostic(ONE, FULL_CIRCLE, (1.0, 0.5, 0.25),
                                   count=256)
        assert len(ests) == 4
        for est in ests:
            assert est.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("arc", [FULL_CIRCLE, Arc(0.0, math.pi / 2)])
    def test_p8_monotone_and_converging(self, arc):
        pair = generate_pair(8)
        ests = mq_limit_diagnostic((pair, "p"), arc,
                                   (2.0, 1.0, 0.5, 0.25, 0.125))
        values = [est.value for est in ests]
        slack = 2 * max(est.rel_step for est in ests) + 1e-9
        for larger_q, smaller_q in zip(values, values[1:]):
            assert smaller_q <= larger_q * (1 + slack)
        # the spread from M_(1/8) down to M_0 stays within the spread of
        # the whole ladder, i.e. the tail approaches the Mahler value
        m0 = values[-1]
        assert values[-2] >= m0 * (1 - slack)
        assert abs(values[-2] - m0) <= abs(values[0] - m0)

    def test_rejects_nonmonotone_q(self):
        with pytest.raises(ValueError):
            mq_limit_diagnostic(ONE, FULL_CIRCLE, (1.0, 2.0), count=128)

    @pytest.mark.parametrize("qs", [(math.inf, 1.0), (1.0, math.nan),
                                    (1.0, 0.0), ()])
    def test_rejects_bad_exponents(self, qs):
        with pytest.raises(ValueError):
            mq_limit_diagnostic(ONE, FULL_CIRCLE, qs, count=128)

    def test_one_c_grid_and_one_2c_grid(self, monkeypatch):
        pair = generate_pair(9)
        calls = _grid_spy(monkeypatch)
        arc = Arc(0.0, 1.0)
        ests = mq_limit_diagnostic((pair, "p"), arc, [2, 1, 0.5], count=4096)
        assert [call[3] for call in calls] == [(4096, 8192)]
        # the same estimates as separate M_q and M_0 calls, bit for bit
        assert ests == mq_arcs((pair, "p"), arc, [2.0, 1.0, 0.5], 4096) + \
            [mahler_arc((pair, "p"), arc, 4096)]


class TestPowerMeanMonotonicity:
    @settings(max_examples=25)
    @given(st.integers(0, 6), st.sampled_from(["p", "q"]),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.05, max_value=3.0),
           st.floats(min_value=1.05, max_value=3.0))
    def test_mq_nondecreasing_in_q(self, k, component, alpha, q1, factor):
        source = (generate_pair(k), component)
        arc = Arc(alpha, alpha + 1.3)
        q2 = q1 * factor
        est1 = mq_arc(source, arc, q1, count=2048)
        est2 = mq_arc(source, arc, q2, count=2048)
        tol = est1.rel_step + est2.rel_step + 1e-9
        assert est1.value <= est2.value * (1 + tol)


class TestFlatnessDefect:
    def test_k0_degenerate(self):
        # |P_0|^2 - 1 vanishes identically: flagged, value 0
        est = flatness_defect_mahler(generate_pair(0), count=256)
        assert est.flagged
        assert est.value == 0.0
        assert est.excluded == 256

    def test_k1_closed_form(self):
        # integrand is |2 cos t|, whose log integrates to zero: M_0 = 1
        est = flatness_defect_mahler(generate_pair(1), count=1 << 14)
        assert est.value == pytest.approx(1.0, abs=2e-3)
        ratio = est.value / math.sqrt(2)
        assert ratio == pytest.approx(0.7071, abs=2e-3)

    def test_k12_reports_ratio(self):
        pair = generate_pair(12)
        est = flatness_defect_mahler(pair)
        assert est.value > 0
        assert not est.flagged
        # evidence only: the conjectured lower bound has no known constant
        assert est.value / math.sqrt(pair.n) > 1.0


class TestPolicy:
    def test_default_count_full_circle(self):
        assert default_count(4096, FULL_CIRCLE) == 16 * 4096

    def test_default_count_small_n(self):
        assert default_count(4, FULL_CIRCLE) == 4096

    def test_default_count_floor(self):
        tiny = Arc(0.0, 1e-3)
        assert default_count(64, tiny) == 1024

    def test_rel_step_classes(self):
        assert rel_step_tolerance(2.0) == 1e-6
        assert rel_step_tolerance(0.5) == 1e-4
        assert rel_step_tolerance(0.0) == 1e-3
