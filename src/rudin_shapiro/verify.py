"""Executable checks of the proved inequalities and finite-k experiments.

Proved statements are gated: they must pass at every tested k and arc.
They are the lattice lower bound, its interval propagation, the
Bernstein derivative factor, and the level-set measure and two-sided
subarc moment bounds, certified on a grid with Bernstein slack rather
than sampled.  Asymptotic statements (the Saffari limit form of M_q, the
limiting value distribution, the Mahler measure asymptote) cannot be
certified at finite k; they are checked as trends over a fixed k-ladder
with calibrated terminal tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluate, norms
from .core import RudinShapiroPair, generate_pair
from .norms import Arc, FULL_CIRCLE

#: The lattice constant sin^2(pi/8); satisfies 2*gamma = 1 - cos(pi/4).
GAMMA = math.sin(math.pi / 8.0) ** 2

#: Limit of M_0(P_k, full circle) / sqrt(n): (2/e)^(1/2).
MAHLER_LIMIT_RATIO = math.sqrt(2.0 / math.e)

#: Minimum arc length for the subarc theorems, as a multiple of 1/n.
MIN_ARC_FACTOR = 32.0 * math.pi
#: Midpoint cells per 1/n window of the certified subarc grid.
CELLS_PER_WINDOW = 4
#: Samples across each certified lattice interval.
POINTS_PER_INTERVAL = 33
#: Angular distance from t = 0 and t = pi left out of the modulus minimum.
POLE_EXCLUSION = 0.01

#: Fixed k-ladders for trend acceptance of asymptotic statements.
SAFFARI_TREND_KS = (10, 12, 14, 16)
MAHLER_TREND_KS = (8, 10, 12, 14, 16)

#: Calibrated noise floors for trend monotonicity: finite-k deviations
#: oscillate below these levels (measured at 16n and 64n samples), so
#: a rise that stays under the floor is convergence noise, not a trend
#: violation.
SAFFARI_TREND_FLOOR = 5e-4
MAHLER_TREND_FLOOR = 1e-3
TREND_TERMINAL_TOL = 0.05

#: Fine bins of the value distribution's Kolmogorov bracket: the reported
#: distance exceeds the exact one by at most the heaviest bin's mass + 1/B.
KOLMOGOROV_BINS = 1 << 16

#: Rectangles in the open unit disk used by the distribution check.
DEFAULT_RECTANGLES = (
    (0.0, 0.3, 0.0, 0.3),
    (-0.5, 0.0, -0.5, 0.0),
    (-0.25, 0.25, -0.25, 0.25),
    (0.1, 0.6, -0.4, 0.1),
    (-0.6, -0.1, 0.1, 0.5),
)


@dataclass
class InequalityReport:
    """Uniform result record: one named inequality at one parameter point.

    margin is rhs - lhs or lhs - rhs, whichever the inequality makes
    nonnegative when it holds; details carries whatever is needed to
    replay the computation (counts, seeds, secondary readings).
    """

    name: str
    k: int
    lhs: float
    rhs: float
    margin: float
    passed: bool
    arc: Arc | None = None
    q: float | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "k": self.k,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "passed": self.passed,
        }
        if self.arc is not None:
            out["alpha"] = self.arc.alpha
            out["beta"] = self.arc.beta
        if self.q is not None:
            out["q"] = self.q
        for key in sorted(self.details):
            out[f"detail_{key}"] = self.details[key]
        return out


@dataclass
class DistributionReport:
    """Empirical distribution of |P_k|^2 / (2n) against the uniform law.

    empirical_cdf is sampled at `bins` equally spaced thresholds in (0,
    1], u = |P_k|^2/(2n) going to bin floor(u * bins) (u = 1 to the last).
    sup_distance_to_uniform is the upper end of a bracket on the
    Kolmogorov distance of the sample to the uniform CDF, read off a
    KOLMOGOROV_BINS-bin histogram: at least the exact distance, and at
    most the heaviest fine bin's mass + 2^-16 above it.  rectangle_tests
    pairs the measure of {t : P_k(e^it)/sqrt(2n) in E} with its limit
    2*area(E).  Every field is a sum of per-block counts; no sample
    array is kept.
    """

    k: int
    bins: int
    count: int
    empirical_cdf: np.ndarray
    sup_distance_to_uniform: float
    rectangle_tests: list


def _pair(k: int, pair: RudinShapiroPair | None) -> RudinShapiroPair:
    if pair is not None:
        if pair.k != k:
            raise ValueError(f"pair has k={pair.k}, expected {k}")
        return pair
    return generate_pair(k)


def _lattice_squares(coeffs, theta: float = 0.0, index=slice(None)):
    """|S(z_j e^{i theta})|^2, z_j the n-th roots of unity, at j in index.

    One inverse FFT of a_m e^{i m theta} (evaluate._exact_phases, none at
    theta = 0), indexed before it is squared; an n-point lattice past the
    grid cap is refused, as eval_grid refuses that count.
    """
    n = evaluate._capped_count(coeffs.size)
    if not theta:
        return np.abs(np.fft.ifft(coeffs, norm="forward")[index]) ** 2
    f = evaluate._exact_phases(theta, 1, 0, 0, n, n)
    f *= coeffs
    return np.abs(np.fft.ifft(f, norm="forward", out=f)[index]) ** 2


def check_lattice_pair_bound(k: int, pair=None) -> InequalityReport:
    """At every even lattice index, one of each neighbor pair is large.

    Verifies max(|S(z_j)|^2, |S(z_{j+r})|^2) >= 2*gamma*n for every
    even j and r in {-1, +1}, at the n-th roots of unity z_j, for both
    S = P_k and S = Q_k.  Proved, so the worst margin must be positive.
    """
    if k < 1:
        raise ValueError("lattice bound needs k >= 1")
    pair = _pair(k, pair)
    n = pair.n
    bound = 2.0 * GAMMA * n
    even = np.arange(0, n, 2)
    worst = math.inf
    worst_component = ""
    for label, poly in (("p", pair.p), ("q", pair.q)):
        values = _lattice_squares(poly.coeffs)
        for r in (-1, 1):
            pairwise_max = np.maximum(values[even], values[(even + r) % n])
            margin = float(pairwise_max.min() - bound)
            if margin < worst:
                worst = margin
                worst_component = f"{label}, r={r}"
    return InequalityReport(
        name="lattice_pair_bound", k=k, lhs=bound + worst, rhs=bound,
        margin=worst, passed=worst > 0.0,
        details={"worst_case": worst_component, "bound": bound})


def check_certified_intervals(k: int, pair=None) -> InequalityReport:
    """Large lattice values propagate to intervals of radius gamma/n.

    For every lattice index j with |S(z_j)|^2 >= 2*gamma*n, samples
    POINTS_PER_INTERVAL points across [t_j - gamma/n, t_j + gamma/n]
    and verifies |S|^2 >= gamma*n on all of them, for S = P_k and Q_k.
    Reports the minimum over all certified intervals.  The offsets are
    the multiples t gamma / (16 n), |t| <= 16; real coefficients give
    |S(z_j e^{-i theta})| = |S(z_{n-j} e^{i theta})|, so one FFT per
    theta > 0 serves +-theta, and theta = 0 is the lattice itself.
    """
    if k < 1:
        raise ValueError("interval propagation needs k >= 1")
    pair = _pair(k, pair)
    n = pair.n
    half = POINTS_PER_INTERVAL // 2
    overall_min = math.inf
    certified_total = 0
    for poly in (pair.p, pair.q):
        lattice = _lattice_squares(poly.coeffs)
        qualifying = np.nonzero(lattice >= 2.0 * GAMMA * n)[0]
        certified_total += qualifying.size
        if qualifying.size == 0:
            continue
        overall_min = min(overall_min, float(np.min(lattice[qualifying])))
        mirrored = np.concatenate([qualifying, (n - qualifying) % n])
        for t in range(1, half + 1):
            sq = _lattice_squares(poly.coeffs, t * (GAMMA / n / half), mirrored)
            overall_min = min(overall_min, float(np.min(sq)))
    bound = GAMMA * n
    return InequalityReport(
        name="certified_intervals", k=k, lhs=overall_min, rhs=bound,
        margin=overall_min - bound, passed=overall_min >= bound,
        details={"certified_intervals": certified_total,
                 "points_per_interval": POINTS_PER_INTERVAL})


def bernstein_ratio(k: int, count: int | None = None,
                    pair=None) -> InequalityReport:
    """Derivative bound for the nonnegative trig polynomial |P_k(e^it)|^2.

    R(t) = |P_k(e^it)|^2 has degree n - 1, so max |R'| <= ((n-1)/2) max R
    (the factor for nonnegative trigonometric polynomials is half the
    classical one).  R and R' come from the autocorrelation c_l, read on
    the sub-grids of evaluate.iter_circle_squares (a twin shares maxima).
    """
    pair = _pair(k, pair)
    n = pair.n
    if count is None:
        count = max(64, 16 * n)
    if count < 16 * n and k > 0:
        raise ValueError("bernstein ratio needs count >= 16n to resolve R'")
    max_r = max_dr = 0.0
    for _, _, sq, slope in evaluate.iter_circle_squares(
            evaluate.autocorrelation(pair.p.coeffs), count, slope=True):
        max_r = max(max_r, float(sq.max()))
        max_dr = max(max_dr, float(np.abs(slope).max()))
    allowed = 0.5 * (n - 1) * max_r
    ratio = 0.0 if max_dr == 0.0 else max_dr / allowed
    return InequalityReport(
        name="bernstein_ratio", k=k, lhs=max_dr, rhs=allowed,
        margin=allowed - max_dr, passed=ratio <= 1.0 + 1e-9,
        details={"ratio": ratio, "count": count})


def _require_min_length(k: int, arc: Arc) -> None:
    min_len = MIN_ARC_FACTOR / (1 << k)
    if arc.length < min_len * (1.0 - 1e-9):
        raise ValueError(
            f"arc length {arc.length:.6g} is below the 32*pi/n = "
            f"{min_len:.6g} hypothesis for k={k}")


def _subarc_reports(k: int, arc: Arc, pair: RudinShapiroPair, qs=()):
    """Certified level-set measure and moment bounds of P_k on one arc.

    f(t) = |P_k(e^it)|^2 has degree n - 1 and 0 <= f <= 2n, so |f'| <=
    (n - 1) n, as bernstein_ratio checks.  On the cell of width h = L /
    count around each of count = ceil(CELLS_PER_WINDOW n L) midpoints t_j,
    f >= f^_j - s: s = (n - 1) n h / 2 + err, err = (2 sqrt(2n) + d) d +
    16un >= |f^_j - f(t_j)|, d = evaluate.arc_value_error, u = 2^-53, and
    16un rounds f, s and the comparisons.  On the exact full circle f^_j
    comes from evaluate.iter_circle_squares, within its eps <= err / 12
    of f(t_j) for every n <= 2^MAX_PAIR_K: ||c||_2 <= sqrt(2) n (Parseval
    and f <= 2n), count <= 26n, sub-grids of at most 2^24 points, stride
    <= 256, rho <= 8, and d >= 2^-45 sqrt(N) n (12 + 2 pi) with N >=
    2^12.  So h #{j : f^_j
    - s >= gamma n} <= |{f >= gamma n}|, mean_j max(0, f^_j - s)^(q/2) <=
    M_q^q, and M_q^q <= (2n)^(q/2) if all f^_j <= 2n.  Each block reduces
    to counts and sums, times its weight (evaluate.iter_arc_squares).
    """
    _require_min_length(k, arc)
    n, level = pair.n, GAMMA * pair.n
    count = math.ceil(CELLS_PER_WINDOW * n * arc.length)
    norms.check_exponents(qs, n, count)
    width = arc.length / count
    d = evaluate.arc_value_error(pair, arc.alpha, arc.beta)
    err = (2.0 * math.sqrt(2.0 * n) + d) * d + 2.0 ** -49 * n
    slack = (n - 1) * n * width / 2.0 + err
    thresholds = (level + slack, level, level ** 2)  # certified, sampled, unsquared
    peak, hits, sums = 0.0, np.zeros(3, int), np.zeros((len(qs), 2))
    for _, weight, f in next(evaluate.iter_arc_squares(pair, "p", arc.alpha,
                                                       arc.beta, [count])):
        hits += [weight * np.count_nonzero(f >= t) for t in thresholds]
        peak = max(peak, float(f.max()))
        floor = np.maximum(f - slack, 0.0)
        for i, q in enumerate(qs):
            sums[i] += weight * np.array([np.sum(floor ** (q / 2.0)),
                                          np.sum(f ** (q / 2.0))])
    measure, sampled, literal = (width * hits).tolist()
    rhs = arc.length * GAMMA / (4.0 * math.pi)
    level_set = InequalityReport(
        name="level_set_measure", k=k, arc=arc, lhs=measure, rhs=rhs,
        margin=measure - rhs, passed=measure >= rhs,
        details={"count": count, "slack": slack, "err": err,
                 "sampled_measure": sampled, "literal_measure": literal})
    moments = []
    for q, (low, mean) in zip(qs, (sums / count).tolist()):
        bound = GAMMA / (4.0 * math.pi) * level ** (q / 2.0)
        upper = (2.0 * n) ** (q / 2.0)
        moments.append(InequalityReport(
            name="subarc_moment_bounds", k=k, arc=arc, q=q, lhs=mean,
            rhs=upper, margin=upper - mean,
            passed=low >= bound and peak <= 2.0 * n * (1.0 + 1e-9),
            details={"lower_bound": bound, "certified_lower": low,
                     "lower_margin": low - bound, "count": count, "peak": peak}))
    return level_set, moments


def check_level_set_measure(k: int, arc: Arc, pair=None) -> InequalityReport:
    """|P_k|^2 >= gamma*n on a gamma/(4*pi) share of any admissible arc.

    lhs certifies a lower bound on that measure (see _subarc_reports);
    details add the sampled reading and the unsquared |P_k| >= gamma*n.
    """
    return _subarc_reports(k, arc, _pair(k, pair))[0]


def check_subarc_moment_bounds(k: int, arc: Arc, q: float,
                               pair=None) -> InequalityReport:
    """(gamma/4pi) (gamma n)^(q/2) <= M_q(P_k, [alpha, beta])^q <= (2n)^(q/2).

    lhs is the midpoint mean of |P_k|^q.  _subarc_reports certifies the
    lower side; the upper side is flatness at every sample, within 1e-9.
    """
    return _subarc_reports(k, arc, _pair(k, pair), (q,))[1][0]


def saffari_ratios(k: int, qs, count: int | None = None,
                   pair=None) -> list[InequalityReport]:
    """Full-circle M_q(P_k) against sqrt(2n) / (q/2+1)^(1/q), one report per q.

    One c-grid and one 2c-grid serve every q (norms.mq_arcs).  Q_k needs no
    grid: |Q_k(e^it)| = |P_k(-e^it)|, as conjugate_relation_residual checks.
    At q = 2 the norm and the limit both equal sqrt(n), so the ratio is
    gated at 1e-8; other exponents are trend material, not gates.
    """
    pair = _pair(k, pair)
    reports = []
    for est in norms.mq_arcs((pair, "p"), FULL_CIRCLE, qs, count):
        q = est.q
        limit_value = math.sqrt(2.0 * pair.n) / (q / 2.0 + 1.0) ** (1.0 / q)
        ratio = est.value / limit_value
        reports.append(InequalityReport(
            name="saffari_ratio", k=k, q=q, lhs=est.value, rhs=limit_value,
            margin=-abs(ratio - 1.0), passed=q != 2.0 or abs(ratio - 1.0) <= 1e-8,
            details={"ratio": ratio, "count": est.count,
                     "rel_step": est.rel_step}))
    return reports


def saffari_ratio(k: int, q: float, count: int | None = None,
                  pair=None) -> InequalityReport:
    """saffari_ratios for one q, bit for bit (gate 4 calls it per q)."""
    return saffari_ratios(k, [q], count, pair)[0]


def mahler_asymptote_ratio(k: int, count: int | None = None,
                           pair=None) -> InequalityReport:
    """M_0(P_k, full circle) / sqrt(n) against its limit (2/e)^(1/2)."""
    if k < 4:
        raise ValueError("the asymptote ratio is meaningful for k >= 4")
    pair = _pair(k, pair)
    est = norms.mahler_arc((pair, "p"), FULL_CIRCLE, count)
    ratio = est.value / math.sqrt(pair.n)
    dist = abs(ratio - MAHLER_LIMIT_RATIO)
    return InequalityReport(
        name="mahler_asymptote_ratio", k=k, lhs=ratio,
        rhs=MAHLER_LIMIT_RATIO, margin=-dist, passed=True,
        details={"distance": dist, "count": est.count,
                 "rel_step": est.rel_step})


def subarc_mahler_ratio(k: int, arc: Arc, count: int | None = None,
                        pair=None) -> InequalityReport:
    """Evidence row for the subarc Mahler lower bound: M_0/sqrt(n) on one arc.

    The proved regime needs length >= (log n)^1.5 / sqrt(n); whether a
    positive uniform constant persists down to 32*pi/n is open, so this
    reports the ratio without a pass/fail verdict.
    """
    pair = _pair(k, pair)
    n = pair.n
    _require_min_length(k, arc)
    est = norms.mahler_arc((pair, "p"), arc, count)
    ratio = est.value / math.sqrt(n)
    proved_regime = arc.length >= math.log(n) ** 1.5 / math.sqrt(n)
    return InequalityReport(
        name="subarc_mahler_ratio", k=k, arc=arc, lhs=ratio, rhs=0.0,
        margin=ratio, passed=True,
        details={"in_proved_length_regime": proved_regime,
                 "count": est.count, "rel_step": est.rel_step,
                 "estimate_flagged": est.flagged})


def value_distribution(k: int, bins: int = 64, rectangles=DEFAULT_RECTANGLES,
                       count: int | None = None, component: str = "p",
                       pair=None) -> DistributionReport:
    """Empirical law of |S|^2/(2n) and of S/sqrt(2n) over the circle.

    In the limit, |S|^2/(2n) is uniform on [0, 1] and the planar point
    S/sqrt(2n) covers any rectangle E inside the unit disk with measure
    2 m(E); both are measured at finite k.
    """
    pair = _pair(k, pair)
    n = pair.n
    if count is None:
        count = max(4096, 64 * n)
    if not 2 <= bins <= count:  # the CDF of count samples has count steps
        raise ValueError(f"bins must be in [2, count = {count}], got {bins}")
    for rect in rectangles:
        r0, r1, i0, i1 = rect
        if not (r0 < r1 and i0 < i1):
            raise ValueError(f"degenerate rectangle {rect}")
        corner = math.hypot(max(abs(r0), abs(r1)), max(abs(i0), abs(i1)))
        if corner >= 1.0:
            raise ValueError(f"rectangle {rect} leaves the open unit disk")
    fine = np.zeros(KOLMOGOROV_BINS + 1, dtype=np.int64)  # the last holds u = 1
    hist = np.zeros(bins + 1, dtype=np.int64)  # the last holds u = 1
    hits = [0] * len(rectangles)
    scale = 1.0 / math.sqrt(2.0 * n)  # complex / real in numpy: same bits
    # at stride > 1 a block stands for its twin conj(values[::-1]) too: that
    # doubles the bincounts and adds the original's hits in (r0, r1, -i1, -i0)
    for _, stride, values in evaluate.iter_circle_values(
            evaluate.pair_component(pair, component).coeffs, count):
        # contiguous parts: the strided .real/.imag views cost twice as much
        re, im = values.real * scale, values.imag * scale
        del values
        for i, (r0, r1, i0, i1) in enumerate(rectangles):
            inside = (re >= r0) & (re <= r1)
            hits[i] += np.count_nonzero(inside & (im >= i0) & (im <= i1))
            if stride > 1:
                hits[i] += np.count_nonzero(inside & (im >= -i1) & (im <= -i0))
        u = np.minimum(re * re + im * im, 1.0)
        del re, im  # only u stays live into the bincounts and the next block
        fine += np.bincount((u * KOLMOGOROV_BINS).astype(np.intp),
                            minlength=KOLMOGOROV_BINS + 1)
        hist += np.bincount((u * bins).astype(np.intp), minlength=bins + 1)
    if stride > 1:  # one stride for the whole pass
        fine, hist = 2 * fine, 2 * hist
    hist[bins - 1] += hist[bins]
    # on [i/B, (i+1)/B) the empirical CDF lies in [C_i, C_{i+1}], with
    # C_i = #{u < i/B} / count: the upper end of the Kolmogorov bracket
    below = np.concatenate([[0], np.cumsum(fine[:-1])]) / count
    edges = np.arange(KOLMOGOROV_BINS + 1) / KOLMOGOROV_BINS
    sup = max(np.max(below[1:] - edges[:-1]), np.max(edges[1:] - below[:-1]))
    cdf = np.cumsum(hist[:bins]) / count
    rect_tests = [(rect, math.tau * int(hit) / count,
                   2.0 * (rect[1] - rect[0]) * (rect[3] - rect[2]))
                  for rect, hit in zip(rectangles, hits)]
    return DistributionReport(k=k, bins=bins, count=count, empirical_cdf=cdf,
                              sup_distance_to_uniform=float(sup),
                              rectangle_tests=rect_tests)


def min_modulus_excluding_poles(k: int, count: int | None = None,
                                component: str = "p", pair=None) -> float:
    """min |S| on the circle, POLE_EXCLUSION away from t = 0 and t = pi.

    Evidence for the open question of where circle zeros can sit: the
    pair polynomials vanish at -1 or +1 depending on parity, and the
    conjecture is that nothing else on the circle comes close to zero.
    Sample j is left out when |j + 1/2 - m count / 2| <= POLE_EXCLUSION
    count / (2 pi), m = 0, 1, 2: ranges the mirror maps onto themselves,
    so the blocks of evaluate.iter_arc_squares alone give the minimum.
    """
    pair = _pair(k, pair)
    if count is None:
        count = max(4096, 64 * pair.n)
    edge = POLE_EXCLUSION * count / math.tau
    ends = math.floor(edge + 0.5)  # left out next to t = 0 and next to 2 pi
    cuts = (ends, math.ceil((count - 1) / 2 - edge),
            math.floor((count - 1) / 2 + edge) + 1, count - ends)
    best = math.inf
    for index, _, sq in next(evaluate.iter_arc_squares(pair, component, 0.0,
                                                       math.tau, [count])):
        r, stride = index.start, index.step
        t = [-((r - j) // stride) for j in cuts]  # first t with r + stride t >= j
        for lo, hi in zip(t[0::2], t[1::2]):
            if lo < hi:
                best = min(best, float(sq[lo:hi].min()))
    return math.sqrt(max(best, 0.0))


def trend_nonincreasing(values, floor: float) -> bool:
    """Trend acceptance for quantities converging to zero.

    Each step may not rise above max(previous value, floor); values
    under the floor count as converged.  The last value must also not
    exceed max(first value, floor), so a genuine overall decrease is
    required whenever the sequence starts above the floor.
    """
    vals = list(values)
    if len(vals) < 2:
        return True
    steps_ok = all(b <= max(a, floor) for a, b in zip(vals, vals[1:]))
    overall_ok = vals[-1] <= max(vals[0], floor)
    return steps_ok and overall_ok


def _trend_report(name: str, ks, distances: list, floor: float,
                  q: float | None = None) -> InequalityReport:
    tol = TREND_TERMINAL_TOL
    passed = trend_nonincreasing(distances, floor) and distances[-1] <= tol
    return InequalityReport(
        name=name, k=ks[-1], q=q, lhs=distances[-1],
        rhs=tol, margin=tol - distances[-1], passed=passed,
        details={"ks": list(ks), "distances": distances, "floor": floor})


def saffari_trend(qs) -> list[InequalityReport]:
    """One trend report per q of |M_q ratio - 1| along the k-ladder."""
    ladder = zip(*[saffari_ratios(k, qs) for k in SAFFARI_TREND_KS])
    return [_trend_report("saffari_trend", SAFFARI_TREND_KS,
                          [abs(r.details["ratio"] - 1.0) for r in reports],
                          SAFFARI_TREND_FLOOR, reports[0].q)
            for reports in ladder]


def mahler_asymptote_trend() -> InequalityReport:
    """Distance of M_0/sqrt(n) to (2/e)^(1/2) along the k-ladder."""
    distances = [mahler_asymptote_ratio(k).details["distance"]
                 for k in MAHLER_TREND_KS]
    return _trend_report("mahler_asymptote_trend", MAHLER_TREND_KS, distances,
                         MAHLER_TREND_FLOOR)


def random_arcs(k: int, how_many: int, seed: int = 0) -> list[Arc]:
    """Seeded random arcs meeting the 32*pi/n length hypothesis.

    Lengths are log-uniform between the hypothesis minimum and the full
    circle, so the small-arc regime is actually exercised; positions
    are uniform.
    """
    n = 1 << k
    lo = MIN_ARC_FACTOR / n
    if lo > math.tau:
        raise ValueError(f"minimum arc length {lo:.4g} exceeds 2*pi; "
                         f"k={k} is too small for the hypothesis")
    rng = np.random.default_rng(seed)
    arcs = []
    for _ in range(how_many):
        length = math.exp(rng.uniform(math.log(lo), math.log(math.tau)))
        length = min(length, math.tau)
        alpha = rng.uniform(0.0, math.tau)
        arcs.append(Arc(alpha, alpha + length))
    return arcs


GATED_CHECKS = ("lattice_pair", "intervals", "bernstein", "level_set",
                "moment_bounds")
ALL_CHECKS = GATED_CHECKS + ("saffari", "saffari_trend", "mahler_trend",
                             "subarc_mahler")


def run_verification(names, ks, n_arcs: int = 8, qs=(0.25, 1.0, 2.0, 4.0),
                     seed: int = 0) -> list[InequalityReport]:
    """Run named checks over a (k, arc, q) grid; reports in sorted order.

    `names` may be any subset of ALL_CHECKS or the single word "all".
    Arc-dependent checks draw n_arcs seeded random arcs per k meeting
    the 32*pi/n hypothesis.
    """
    if names == "all" or names == ["all"]:
        selected = list(ALL_CHECKS)
    else:
        selected = list(names)
        unknown = set(selected) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}; "
                             f"available: {list(ALL_CHECKS)}")
    reports: list[InequalityReport] = []
    for k in ks:
        pair = generate_pair(k)
        # the 32*pi/n hypothesis is unsatisfiable for k < 4, so the
        # subarc checks are vacuous there
        can_meet_hypothesis = MIN_ARC_FACTOR / (1 << k) <= math.tau
        arcs = random_arcs(k, n_arcs, seed=seed + k) \
            if (n_arcs > 0 and can_meet_hypothesis) else []
        if "lattice_pair" in selected:
            reports.append(check_lattice_pair_bound(k, pair=pair))
        if "intervals" in selected:
            reports.append(check_certified_intervals(k, pair=pair))
        if "bernstein" in selected:
            reports.append(bernstein_ratio(k, pair=pair))
        for arc in arcs if {"level_set", "moment_bounds"} & set(selected) else ():
            # one certified grid per arc for the level set and every exponent
            level_set, moments = _subarc_reports(
                k, arc, pair, qs if "moment_bounds" in selected else ())
            reports += [level_set] * ("level_set" in selected) + moments
        if "subarc_mahler" in selected:
            for arc in arcs:
                reports.append(subarc_mahler_ratio(k, arc, pair=pair))
        if "saffari" in selected:
            reports.append(saffari_ratio(k, 2.0, pair=pair))
    if "saffari_trend" in selected:
        reports += saffari_trend((1.0, 4.0, 6.0))
    if "mahler_trend" in selected:
        reports.append(mahler_asymptote_trend())
    reports.sort(key=lambda r: (r.name, r.k,
                                r.arc.alpha if r.arc else -1.0,
                                r.q if r.q is not None else -1.0))
    return reports
