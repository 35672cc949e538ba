"""Acceptance suite: one test per criterion, one printed verdict line each.

Runs every gate at its stated tolerance on desk-scale hardware; the
slow suites also assert their wall-clock budgets.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from rudin_shapiro.cli import main as cli_main
from rudin_shapiro.core import (conjugate_relation_residual, generate_pair,
                                parallelogram_residual)
from rudin_shapiro.gf2 import (GF2_ONE, circle_min_modulus,
                               mercer_certificate, random_skew_reciprocal)
from rudin_shapiro.norms import FULL_CIRCLE, mahler_arc, mq_arc
from rudin_shapiro.roots import find_roots, jensen_mahler, real_zero_count_exact
from rudin_shapiro.verify import (GATED_CHECKS, MAHLER_LIMIT_RATIO,
                                  mahler_asymptote_ratio, run_verification,
                                  saffari_ratio, trend_nonincreasing,
                                  value_distribution)

RECTANGLES = (
    (0.0, 0.3, 0.0, 0.3),
    (-0.5, 0.0, -0.5, 0.0),
    (-0.25, 0.25, -0.25, 0.25),
    (0.1, 0.6, -0.4, 0.1),
    (-0.6, -0.1, 0.1, 0.5),
)


@pytest.fixture
def verdict(capsys):
    """Print one criterion verdict line outside pytest's capture."""

    def announce(number: int, name: str, passed: bool, detail: str) -> None:
        state = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {name}: {state} ({detail})",
                  flush=True)

    return announce


def test_criterion_01_identity_suite(verdict):
    start = time.monotonic()
    worst_flatness = 0.0
    worst_coeff = 0.0
    for k in range(1, 19):
        pair = generate_pair(k)
        worst_flatness = max(worst_flatness,
                             parallelogram_residual(pair, 16 * pair.n))
        coeff_res, _ = conjugate_relation_residual(pair, 8)
        worst_coeff = max(worst_coeff, coeff_res)
    elapsed = time.monotonic() - start
    ok = worst_flatness <= 1e-9 and worst_coeff == 0.0 and elapsed <= 120
    verdict(1, "identity-suite", ok,
            f"flatness residual {worst_flatness:.3e} <= 1e-9 on 16n points, "
            f"reversal identity exact for k<=18, {elapsed:.1f}s <= 120s")
    assert worst_flatness <= 1e-9
    assert worst_coeff == 0.0
    assert elapsed <= 120


def test_criterion_02_parseval(verdict):
    worst = 0.0
    for k in range(0, 19):
        pair = generate_pair(k)
        est = mq_arc((pair, "p"), FULL_CIRCLE, 2.0)
        worst = max(worst, abs(est.value - 2 ** (k / 2)) / 2 ** (k / 2))
    ok = worst <= 1e-8
    verdict(2, "parseval-m2", ok, f"worst relative error {worst:.3e} <= 1e-8")
    assert worst <= 1e-8


def test_criterion_03_proved_inequality_gate(verdict):
    start = time.monotonic()
    reports = run_verification(list(GATED_CHECKS), ks=range(4, 15),
                               n_arcs=8, qs=(0.25, 1.0, 2.0, 4.0), seed=0)
    elapsed = time.monotonic() - start
    failures = [r for r in reports if not r.passed]
    bern = [r for r in reports if r.name == "bernstein_ratio"]
    worst_bern = max(r.details["ratio"] for r in bern)
    ok = not failures and worst_bern <= 1 + 1e-9 and elapsed <= 600
    verdict(3, "proved-inequality-gate", ok,
            f"{len(reports)} checks over k=4..14 x 8 arcs x 4 exponents, "
            f"{len(failures)} failures, bernstein ratio <= {worst_bern:.9f}, "
            f"{elapsed:.1f}s <= 600s")
    assert not failures
    assert worst_bern <= 1 + 1e-9
    assert elapsed <= 600


def test_criterion_04_saffari(verdict):
    worst_q2 = 0.0
    for k in range(0, 19):
        report = saffari_ratio(k, 2.0)
        worst_q2 = max(worst_q2, abs(report.details["ratio"] - 1.0))
    trend_ok = True
    terminal = {}
    for q in (1.0, 4.0, 6.0):
        distances = [abs(saffari_ratio(k, q).details["ratio"] - 1.0)
                     for k in (10, 12, 14, 16)]
        terminal[q] = distances[-1]
        trend_ok &= trend_nonincreasing(distances, floor=5e-4)
        trend_ok &= distances[-1] <= 0.05
    ok = worst_q2 <= 1e-8 and trend_ok
    verdict(4, "saffari-ratios", ok,
            f"q=2 ratio off by {worst_q2:.3e} <= 1e-8 for k<=18; trends for "
            f"q in (1,4,6) nonincreasing over k=10..16 with terminal "
            f"distances {terminal[1.0]:.2e}/{terminal[4.0]:.2e}/"
            f"{terminal[6.0]:.2e} <= 0.05")
    assert worst_q2 <= 1e-8
    assert trend_ok


def test_criterion_05_mahler_asymptote(verdict):
    distances = []
    for k in (8, 10, 12, 14, 16):
        report = mahler_asymptote_ratio(k)
        distances.append(report.details["distance"])
    terminal_ok = distances[-1] <= 0.05
    trend_ok = trend_nonincreasing(distances, floor=1e-3)
    ok = terminal_ok and trend_ok
    verdict(5, "mahler-asymptote", ok,
            f"|M_0(P_16)/sqrt(n) - {MAHLER_LIMIT_RATIO:.7f}| = "
            f"{distances[-1]:.2e} <= 0.05, distances over k=8..16 "
            f"{['%.2e' % d for d in distances]} nonincreasing above 1e-3 floor")
    assert terminal_ok
    assert trend_ok


def test_criterion_06_jensen_cross_check(verdict):
    worst = 0.0
    for k in range(1, 11):
        pair = generate_pair(k)
        via_roots = jensen_mahler(find_roots(pair.p))
        via_arc = mahler_arc((pair, "p"), FULL_CIRCLE).value
        worst = max(worst, abs(via_roots - via_arc) / via_arc)
    ok = worst <= 1e-3
    verdict(6, "jensen-cross-check", ok,
            f"two independent Mahler estimators within {worst:.2e} <= 1e-3 "
            f"for k=1..10")
    assert worst <= 1e-3


def test_criterion_07_exact_real_zero_counts(verdict):
    start = time.monotonic()
    counts = []
    for k in range(1, 11):
        pair = generate_pair(k)
        counts.append(real_zero_count_exact(pair.p))
        counts.append(real_zero_count_exact(pair.q))
    elapsed = time.monotonic() - start
    ok = all(c == 1 for c in counts) and elapsed <= 300
    verdict(7, "exact-real-zeros", ok,
            f"Taylor-bisection counts all 1 for P_k, Q_k, k=1..10, "
            f"{elapsed:.1f}s <= 300s")
    assert all(c == 1 for c in counts)
    assert elapsed <= 300


def test_criterion_08_mercer_certificates(verdict):
    rng = np.random.default_rng(7)
    certified = 0
    falsified = 0
    for index in range(1000):
        m = int(rng.integers(1, 33))
        coeffs = random_skew_reciprocal(m, rng)
        cert = mercer_certificate(coeffs)
        if cert.certified_zero_free_on_circle and cert.gcd == GF2_ONE:
            certified += 1
        if index < 50:
            min_mod = circle_min_modulus(coeffs)
            rootset = find_roots(coeffs)
            band = float(np.min(np.abs(np.abs(rootset.roots) - 1.0)))
            if min_mod > 1e-6 and band >= 1e-7:
                falsified += 1
    ok = certified == 1000 and falsified == 50
    verdict(8, "mercer-certificates", ok,
            f"{certified}/1000 random skew-reciprocal inputs certified with "
            f"gcd 1; falsifier confirmed {falsified}/50 (circle modulus > "
            f"1e-6, no root within 1e-7 of the circle)")
    assert certified == 1000
    assert falsified == 50


def test_criterion_09_value_distribution(verdict):
    report = value_distribution(16, rectangles=RECTANGLES)
    rect_devs = [abs(emp - expected)
                 for _rect, emp, expected in report.rectangle_tests]
    ok = report.sup_distance_to_uniform <= 0.05 and \
        all(dev <= 0.05 for dev in rect_devs)
    verdict(9, "value-distribution", ok,
            f"k=16 with {report.count} samples: sup distance "
            f"{report.sup_distance_to_uniform:.4f} <= 0.05, max rectangle "
            f"deviation {max(rect_devs):.4f} <= 0.05")
    assert report.count >= 64 * (1 << 16)
    assert report.sup_distance_to_uniform <= 0.05
    assert all(dev <= 0.05 for dev in rect_devs)


DETERMINISM_COMMANDS = [
    ["generate", "--k", "8"],
    ["eval", "--k", "8", "--arc", "0:2pi", "--count", "16384"],
    ["norm", "--k", "2..6", "--q", "0.25,1,2,4"],
    ["mahler", "--k", "8"],
    ["roots", "--k", "6"],
    ["census", "--k", "6"],
    ["verify", "all", "--k", "4..6", "--arcs", "2"],
    ["distribution", "--k", "10", "--bins", "32"],
    ["saffari", "--k", "4..8", "--q", "1,2,4"],
    ["mercer", "--random", "100", "--degree", "64", "--falsify", "5"],
    ["problem55", "--k", "1..6"],
]


def _run_artifacts(command, directory: Path) -> dict[str, bytes]:
    directory.mkdir(parents=True, exist_ok=True)
    status = cli_main(command + ["--out", str(directory)])
    assert status == 0, f"{command} exited {status}"
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_criterion_10_determinism(tmp_path, verdict):
    mismatches = []
    for command in DETERMINISM_COMMANDS:
        label = command[0]
        baseline = _run_artifacts(command + ["--threads", "1"],
                                  tmp_path / label / "run1")
        for run, threads in (("run2", "1"), ("run3", "2"), ("run4", "8")):
            repeat = _run_artifacts(command + ["--threads", threads],
                                    tmp_path / label / run)
            if repeat != baseline:
                mismatches.append(f"{label}/{run}")
    ok = not mismatches
    verdict(10, "byte-identical-artifacts", ok,
            f"{len(DETERMINISM_COMMANDS)} suites x repeat runs x threads "
            f"1/2/8, mismatches: {mismatches or 'none'}")
    assert not mismatches
