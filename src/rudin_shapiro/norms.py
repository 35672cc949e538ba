"""Integral means M_q on subarcs, the Mahler measure M_0, and diagnostics.

For a polynomial S and an arc [alpha, beta],

    M_q(S) = ( (beta - alpha)^-1 * integral of |S(e^it)|^q dt )^(1/q),  q > 0,
    M_0(S) = exp( (beta - alpha)^-1 * integral of log|S(e^it)| dt ),

and M_0 is the q -> 0+ limit of M_q.  Integrals use the midpoint rule
on half-offset uniform grids: spectrally accurate for smooth periodic
integrands on the full circle, simple on subarcs, and the grid never
contains z = +-1 where the pair polynomials can vanish.  Accuracy is
measured, not assumed: every estimate is recomputed at doubled
resolution and flagged when the relative step stays too large.

Every estimator takes source = (pair, 'p' | 'q'), S = P_k or Q_k of a
RudinShapiroPair, and reduces blocks of R = |S|^2 (evaluate.iter_arc_squares)
to sums of R^(q/2) and log(R) / 2 and exclusion counts, combined pairwise:
no sample array is stored, and memory follows the sub-grid cap.  Arc and
FULL_CIRCLE are evaluate's, imported here for the callers of the norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evaluate
from .core import RudinShapiroPair
from .evaluate import FULL_CIRCLE, Arc
from .reductions import pairwise_sum

#: Samples with R = |S|^2 below this, negative R included, are excluded
#: from log integrands; the logarithm of a denormal would only inject noise.
UNDERFLOW_FLOOR = 1e-300

#: Flag an estimate if more than this fraction of log samples was excluded.
MAX_EXCLUDED_FRACTION = 0.01


@dataclass
class NormEstimate:
    """A quadrature estimate with its resolution-doubling refinement.

    value is the midpoint estimate at `count` samples, refined_value the
    one at 2*count, and rel_step their relative gap; q = 0 encodes a
    Mahler (log-integral) estimate.  flagged marks estimates whose
    rel_step exceeds the tolerance for their exponent class or whose
    log integrand lost more than 1% of samples to exclusions.
    """

    q: float
    value: float
    count: int
    refined_value: float
    rel_step: float
    excluded: int = 0
    flagged: bool = False
    note: str = ""


def rel_step_tolerance(q: float) -> float:
    """Convergence thresholds; integrand roughness grows as q decreases."""
    if q >= 1.0:
        return 1e-6
    if q > 0.0:
        return 1e-4
    return 1e-3


#: Smallest exponent of M_q.  As q -> 0, R^(q/2) = 1 + (q/2) log R + ...,
#: and M_q = (mean R^(q/2))^(1/q) turns a relative rounding e of that mean
#: into about e / q: e <= 64u (u = 2^-53; a pow within an ulp, pairwise
#: sums of under 2^62 terms, one division), so below MIN_Q rounding alone
#: can pass the q < 1 tolerance, unseen by the refinement step.  The
#: q -> 0 limit is M_0, mahler_arc's.
MIN_Q = 64 * 2.0 ** -53 / rel_step_tolerance(0.5)


def _check_exponent(q: float) -> None:
    """Refuse q unless it is finite and at least MIN_Q."""
    if not MIN_Q <= q < math.inf:
        raise ValueError(f"M_q needs a finite exponent q >= {MIN_Q:.3g}, "
                         f"got {q}; q -> 0 is the Mahler measure M_0")


def check_exponents(qs, n: int, count: int) -> None:
    """Refuse an exponent q whose M_q a double cannot carry.

    q must be finite and at least MIN_Q, and a sum of count samples of
    R^(q/2) <= (2n)^(q/2) must stay below 2^1023, for S of length n.
    """
    for q in qs:
        _check_exponent(q)
        if math.log2(count) + q / 2.0 * math.log2(2.0 * n) >= 1023.0:
            raise ValueError(f"q = {q} overflows: {count} samples of "
                             f"|S|^q <= (2n)^(q/2) at n = {n}")


def default_count(n: int, arc: Arc) -> int:
    """Sampling policy: 16 points per 1/n oscillation, floor 1024.

    max(4096, 16 n) per full circle scaled by the arc fraction; the
    integrand |S|^q varies on the scale 1/n by the Bernstein bound.
    """
    base = max(4096, 16 * n)
    return max(1024, int(math.ceil(base * arc.fraction)))


def _grids(source, arc: Arc, count, qs=()):
    """The count, and the c-grid and 2c-grid of R = |S|^2 on arc, drawn lazily.

    source is (pair, 'p' | 'q'); each grid yields (index, R) per block of
    evaluate.iter_arc_squares, and no grid is stored.  The exponents qs
    are checked here for the 2c-grid, and that stream checks the component
    and the count (an integer; a full-circle count that its sub-grid
    stride does not divide fails there too) before any transform.
    """
    if not isinstance(arc, Arc):
        raise ValueError("arc must be an Arc")
    if not (isinstance(source, tuple) and len(source) == 2 and
            isinstance(source[0], RudinShapiroPair)):
        raise TypeError("source must be (pair, 'p' | 'q'), got "
                        f"{type(source).__name__}")
    pair, component = source
    if count is None:
        count = default_count(pair.n, arc)
    elif count < 2:
        raise ValueError("count must be >= 2")
    check_exponents(qs, pair.n, 2 * count)
    return count, evaluate.iter_arc_squares(pair, component, arc.alpha,
                                            arc.beta, (count, 2 * count))


def _block_sums(grid, qs, logs: bool = False) -> list:
    """Sums over one grid of R = |S|^2, from block partials combined by pairwise_sum.

    Per q sum max(R, 0)^(q/2); with logs also sum log(R) / 2 over R >=
    UNDERFLOW_FLOOR and count the other samples.  A block's row enters
    weight times (evaluate.iter_arc_squares), once for each block it
    stands for.  Every block is a fresh array, clipped in place.
    """
    rows = []
    for _, weight, sq in grid:
        np.maximum(sq, 0.0, out=sq)
        row = [pairwise_sum(sq * sq * sq if q == 6.0 else sq ** (q / 2.0))
               for q in qs]
        if logs:
            keep = sq >= UNDERFLOW_FLOOR
            excluded = sq.size - np.count_nonzero(keep)
            row += [0.5 * pairwise_sum(np.log(sq[keep] if excluded else sq)),
                    excluded]
        rows += [row] * weight
    return [pairwise_sum(column) for column in zip(*rows)]


def mq_arcs(source, arc: Arc, qs, count: int | None = None) -> list[NormEstimate]:
    """Midpoint estimates of M_q(S, [alpha, beta]) for every q in qs.

    One c-grid and one 2c-grid serve every exponent, so each estimate
    equals mq_arc(source, arc, q, count) bit for bit.  Returned with the
    doubled-resolution refinement; convergence is measured by the
    relative step, never assumed monotone.
    """
    qs = list(qs)
    if not qs:
        raise ValueError("M_q needs at least one exponent q")
    count, grids = _grids(source, arc, count, qs)
    return _mq_estimates([_block_sums(grid, qs) for grid in grids], qs, count)


def _mq_estimates(sums, qs, count: int) -> list[NormEstimate]:
    """M_q from the power sums of the c-grid and of the 2c-grid, per q."""
    out = []
    for q, total, refined_total in zip(qs, *sums):
        value = (total / count) ** (1.0 / q)
        refined = (refined_total / (2 * count)) ** (1.0 / q)
        rel_step = abs(value - refined) / max(value, 1e-300)
        out.append(NormEstimate(q=q, value=value, count=count,
                                refined_value=refined, rel_step=rel_step,
                                flagged=rel_step > rel_step_tolerance(q)))
    return out


def mq_arc(source, arc: Arc, q: float, count: int | None = None) -> NormEstimate:
    """Midpoint estimate of M_q(S, [alpha, beta]) for one q > 0 (see mq_arcs)."""
    return mq_arcs(source, arc, [q], count)[0]


def _mahler_estimate(logs, count: int) -> NormEstimate:
    """M_0 from (sum of log|S|, excluded) of the c-grid and of the 2c-grid."""
    (value, excluded), (refined, excluded2) = (
        (math.exp(log_sum / (c - ex)) if ex < c else 0.0, int(ex))
        for (log_sum, ex), c in zip(logs, (count, 2 * count)))
    if excluded == count and excluded2 == 2 * count:
        return NormEstimate(q=0.0, value=0.0, count=count, refined_value=0.0,
                            rel_step=0.0, excluded=excluded, flagged=True,
                            note="degenerate: every sample excluded")
    rel_step = abs(value - refined) / max(value, 1e-300)
    frac = max(excluded / count, excluded2 / (2 * count))
    flagged = rel_step > rel_step_tolerance(0.0) or frac > MAX_EXCLUDED_FRACTION
    note = ""
    if frac > MAX_EXCLUDED_FRACTION:
        note = f"excluded fraction {frac:.4f} exceeds {MAX_EXCLUDED_FRACTION}"
    return NormEstimate(q=0.0, value=value, count=count, refined_value=refined,
                        rel_step=rel_step, excluded=excluded, flagged=flagged,
                        note=note)


def mahler_arc(source, arc: Arc, count: int | None = None) -> NormEstimate:
    """Midpoint estimate of the Mahler measure M_0(S, [alpha, beta])."""
    count, grids = _grids(source, arc, count)
    return _mahler_estimate([_block_sums(grid, (), logs=True)
                             for grid in grids], count)


def mq_limit_diagnostic(source, arc: Arc, q_list,
                        count: int | None = None) -> list[NormEstimate]:
    """M_q along a decreasing exponent ladder, with the M_0 estimate last.

    Power-mean monotonicity makes the values nonincreasing along the
    ladder up to quadrature tolerance, and they approach the final M_0
    entry; callers assert both.  One pass over the c-grid and one over
    the 2c-grid reduce every entry.
    """
    qs = [float(q) for q in q_list]
    if not qs or any(b >= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q_list must be strictly decreasing")
    count, grids = _grids(source, arc, count, qs)
    sums = [_block_sums(grid, qs, logs=True) for grid in grids]
    return _mq_estimates(sums, qs, count) + \
        [_mahler_estimate([row[len(qs):] for row in sums], count)]


def flatness_defect_mahler(pair: RudinShapiroPair,
                           count: int | None = None) -> NormEstimate:
    """Full-circle Mahler measure of | |P_k|^2 - n |.

    The integrand oscillates through zero (the argument changes sign),
    so near-zero samples are handled exactly as in mahler_arc; callers
    typically report value / sqrt(n).
    """
    count, grids = _grids((pair, "p"), FULL_CIRCLE, count)
    return _mahler_estimate([_block_sums(((i, w, (sq - pair.n) ** 2)
                                          for i, w, sq in grid), (), logs=True)
                             for grid in grids], count)


NORM_TABLE_COLUMNS = ["k", "alpha", "beta", "q", "value", "count",
                      "rel_step", "flagged"]
