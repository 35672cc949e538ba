"""Benchmark workloads: seeded inputs, the calls to time, and their oracles.

A workload is a list of tasks.  A task is one call into the package's
public API (or into ``cli.main``) together with an oracle that checks
the call's result at the acceptance-gate tolerances.  The oracles
recompute every reference value here (limit constants, rectangle areas,
the Sturm count, the root band) instead of trusting the package's own
``passed`` verdicts, except where the gate itself is the verdict column
of a CLI artifact.

Building a workload is part of set-up: it imports the package and draws
every input from the seed before the first task runs.
"""

from __future__ import annotations

import csv
import math
import os
import random
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

import rudin_shapiro as rs
from rudin_shapiro import cli, core, gf2, norms, roots, verify

WORKLOADS = ("circle_k16", "exact_k9", "cli_sweep")

#: Disk rectangles of acceptance gate 9, (re_lo, re_hi, im_lo, im_hi).
RECTANGLES = (
    (0.0, 0.3, 0.0, 0.3),
    (-0.5, 0.0, -0.5, 0.0),
    (-0.25, 0.25, -0.25, 0.25),
    (0.1, 0.6, -0.4, 0.1),
    (-0.6, -0.1, 0.1, 0.5),
)

VERIFY_CHECKS = ("lattice_pair", "intervals", "bernstein", "level_set",
                 "moment_bounds", "subarc_mahler")
#: The checks that draw seeded arcs; their cost follows the arcs' length.
ARC_CHECKS = ("level_set", "moment_bounds", "subarc_mahler")


class Task(NamedTuple):
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def build(workload: str, seed: int, tiny: bool = False,
          out_dir: str | None = None) -> list[Task]:
    """Tasks of one pass; ``tiny`` shrinks every size for the self-test."""
    if workload == "circle_k16":
        return circle_tasks(seed, k=12 if tiny else 16)
    if workload == "exact_k9":
        return exact_tasks(seed, tiny)
    if workload == "cli_sweep":
        if out_dir is None:
            raise ValueError("cli_sweep needs an artifact directory")
        return cli_tasks(seed, out_dir, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# circle_k16: full-circle quadrature
# ---------------------------------------------------------------------------

def _saffari_ok(report, n: int, q: float) -> bool:
    limit = math.sqrt(2.0 * n) / (q / 2.0 + 1.0) ** (1.0 / q)
    distance = abs(report.lhs / limit - 1.0)
    # an M_q estimate with q >= 1 is flagged above a 1e-6 relative step
    converged = report.details["rel_step"] <= 1e-6
    if q == 2.0:
        return converged and abs(report.lhs / math.sqrt(n) - 1.0) <= 1e-8
    return converged and distance <= 0.05


def _mahler_ok(report) -> bool:
    # a Mahler estimate is flagged above a 1e-3 relative step
    return (abs(report.lhs - math.sqrt(2.0 / math.e)) <= 0.05
            and report.details["rel_step"] <= 1e-3)


def _distribution_ok(report, n: int) -> bool:
    if report.count < 64 * n or report.sup_distance_to_uniform > 0.05:
        return False
    for (r0, r1, i0, i1), (rect, empirical, _limit) in zip(
            RECTANGLES, report.rectangle_tests):
        if tuple(rect) != (r0, r1, i0, i1):
            return False
        if abs(empirical - 2.0 * (r1 - r0) * (i1 - i0)) > 0.05:
            return False
    return True


def _bernstein_ok(report, n: int) -> bool:
    # |P|^2 <= 2n on the circle, so the allowed derivative is at most (n-1) n
    return (report.lhs <= report.rhs * (1.0 + 1e-9)
            and report.rhs <= (n - 1) * n * (1.0 + 1e-9))


def circle_tasks(seed: int, k: int) -> list[Task]:
    pair = rs.generate_pair(k)
    n = pair.n
    grid = 16 * n
    tasks = [
        Task(f"saffari_q{q:g}", partial(verify.saffari_ratio, k, q, pair=pair),
             partial(_saffari_ok, n=n, q=q))
        for q in (1.0, 2.0, 4.0, 6.0)
    ]
    tasks += [
        Task("mahler_asymptote",
             partial(verify.mahler_asymptote_ratio, k, pair=pair), _mahler_ok),
        Task("flatness_defect_mahler",
             partial(norms.flatness_defect_mahler, pair),
             lambda est: not est.flagged and est.value > 0.0),
        Task("value_distribution",
             partial(verify.value_distribution, k, rectangles=RECTANGLES,
                     pair=pair),
             partial(_distribution_ok, n=n)),
        Task("parallelogram_residual",
             partial(core.parallelogram_residual, pair, grid),
             lambda residual: residual <= 1e-9),
        Task("conjugate_relation_residual",
             partial(core.conjugate_relation_residual, pair, grid),
             lambda residuals: residuals[0] == 0.0),
        Task("bernstein_ratio", partial(verify.bernstein_ratio, k, pair=pair),
             partial(_bernstein_ok, n=n)),
        Task("min_modulus_excluding_poles",
             partial(verify.min_modulus_excluding_poles, k, pair=pair),
             lambda value: 0.0 < value <= math.sqrt(2.0 * n)),
    ]
    # The seed fixes the call order, which decides what a grid cache
    # could reuse; totals of work and points do not depend on it.
    random.Random(seed).shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# exact_k9: integer and root-finding work
# ---------------------------------------------------------------------------

def skew_reciprocal_inputs(seed: int, how_many: int,
                           max_m: int = 32) -> list[list[int]]:
    """Random skew-reciprocal Littlewood coefficients of degree 2m <= 2*max_m.

    Drawn here, not by the package: the upper half is uniform in {-1, 1}
    and a_{m-j} = (-1)^j a_{m+j} fixes the lower half.
    """
    rng = random.Random(seed)
    inputs = []
    for _ in range(how_many):
        m = rng.randint(1, max_m)
        upper = [rng.choice((-1, 1)) for _ in range(m + 1)]
        coeffs = [0] * (2 * m + 1)
        for j, a in enumerate(upper):
            coeffs[m + j] = a
            coeffs[m - j] = a if j % 2 == 0 else -a
        inputs.append(coeffs)
    return inputs


def _roots_and_mahler(pair):
    rootset = roots.find_roots(pair.p)
    census = roots.zero_census(rootset)
    jensen = roots.jensen_mahler(rootset)
    quadrature = norms.mahler_arc((pair, "p"), norms.FULL_CIRCLE)
    return rootset, census, jensen, quadrature


def _roots_ok(result, degree: int) -> bool:
    rootset, census, jensen, quadrature = result
    partition = (census.inside_open_disk + census.on_circle_within_eps
                 + census.outside)
    return (not rootset.flags.any() and partition == degree
            and census.real_zeros == 1  # the exact Sturm count
            and abs(jensen - quadrature.value) <= 1e-3 * quadrature.value)


def _certificate_ok(cert) -> bool:
    return cert.certified_zero_free_on_circle and cert.gcd.bits == 1


def _falsifier(coeffs):
    return gf2.circle_min_modulus(coeffs), roots.find_roots(coeffs)


def _falsifier_ok(result) -> bool:
    min_modulus, rootset = result
    band = float(np.min(np.abs(np.abs(rootset.roots) - 1.0)))
    return min_modulus > 1e-6 and band >= 1e-7


def exact_tasks(seed: int, tiny: bool) -> list[Task]:
    sturm_ks = range(1, 6 if tiny else 10)
    root_ks = range(1, 7 if tiny else 11)
    how_many, falsify = (50, 5) if tiny else (1000, 50)
    pairs = {k: rs.generate_pair(k) for k in root_ks}
    sturm = [Task(f"sturm_{label}{k}",
                  partial(roots.real_zero_count_exact,
                          getattr(pairs[k], label)),
                  lambda count: count == 1)
             for k in sturm_ks for label in ("p", "q")]
    others = sturm[:-2] + [
        Task(f"roots_p{k}", partial(_roots_and_mahler, pairs[k]),
             partial(_roots_ok, degree=pairs[k].n - 1))
        for k in root_ks]
    # The two top-degree Sturm chains take most of a pass.  Putting them
    # a third and two thirds of the way through the large tasks leaves
    # gaps for the small tasks at three separate times in the pass.
    third = len(others) // 3
    large = (others[:third] + sturm[-2:-1] + others[third:2 * third]
             + sturm[-1:] + others[2 * third:])
    small = []
    for index, coeffs in enumerate(skew_reciprocal_inputs(seed, how_many)):
        small.append(Task(f"mercer_{index}",
                          partial(gf2.mercer_certificate, coeffs),
                          _certificate_ok))
        if index < falsify:
            small.append(Task(f"falsify_{index}", partial(_falsifier, coeffs),
                              _falsifier_ok))
    # The 50 us certificates go to seeded places between the large tasks,
    # so their median samples the machine across the pass, not in one
    # 50 ms burst.  The large tasks keep their order, and with it the
    # pass's peak memory.
    rng = random.Random(seed)
    placed = [(i + 0.5, task) for i, task in enumerate(large)]
    placed += [(rng.uniform(0, len(large)), task) for task in small]
    return [task for _place, task in sorted(placed, key=lambda p: p[0])]


# ---------------------------------------------------------------------------
# cli_sweep: in-process command-line invocations
# ---------------------------------------------------------------------------

def verify_seed(rng: random.Random, k: int, arcs: int,
                candidates: int = 16) -> int:
    """A derived seed for ``verify --k k``, drawn from ``rng``.

    The arc checks cost points in proportion to the total length of the
    seeded arcs, whose spread alone would move the sweep's work by 26%
    (quartile distance over median) from one --seed to the next.  Of
    ``candidates`` draws, the one whose arcs come closest to their
    expected total length is kept: --seed still picks the arcs, but not
    how much work they cost.
    """
    lo = verify.MIN_ARC_FACTOR / (1 << k)
    seeds = [rng.randrange(1 << 31) for _ in range(candidates)]
    if lo >= math.tau:  # every arc is the full circle
        return seeds[0]
    # lengths are log-uniform on [lo, 2pi]
    target = arcs * (math.tau - lo) / math.log(math.tau / lo)
    return min(seeds, key=lambda s: abs(target - sum(
        arc.length for arc in verify.random_arcs(k, arcs, seed=s + k))))


def cli_argvs(seed: int, tiny: bool) -> list[list[str]]:
    """Argument lists of one sweep, without --out."""
    rng = random.Random(seed)
    ks = range(4, 7) if tiny else range(4, 15)
    arcs = 2 if tiny else 8
    argvs = [["verify", name, "--k", str(k), "--arcs", str(arcs), "--seed",
              str(verify_seed(rng, k, arcs) if name in ARC_CHECKS
                  else rng.randrange(1 << 31))]
             for name in VERIFY_CHECKS for k in ks]
    if tiny:
        argvs += [
            ["generate", "--k", "6"],
            ["eval", "--k", "6", "--arc", "0:2pi", "--count", "4096"],
            ["eval", "--k", "6", "--theta", "pi/3"],
            ["norm", "--k", "2..6", "--q", "0.25,1,2,4",
             "--arc", "pi/4:3pi/4"],
            ["mahler", "--k", "4..6", "--arc", "0:pi/2"],
            ["roots", "--k", "5"],
            ["census", "--k", "5"],
            ["distribution", "--k", "8", "--bins", "32"],
            ["saffari", "--k", "4..6", "--q", "1,2,4,6"],
            ["mercer", "--random", "20", "--degree", "64", "--falsify", "2",
             "--seed", str(rng.randrange(1 << 31))],
            ["problem55", "--k", "1..6"],
        ]
        return argvs
    argvs += [
        ["generate", "--k", "12"],
        ["eval", "--k", "10", "--arc", "0:2pi", "--count", "65536"],
        ["eval", "--k", "12", "--theta", "pi/3"],
        ["norm", "--k", "2..12", "--q", "0.25,1,2,4", "--arc", "pi/4:3pi/4"],
        ["mahler", "--k", "4..12", "--arc", "0:pi/2"],
        ["roots", "--k", "7"],
        ["census", "--k", "7"],
        ["distribution", "--k", "10", "--bins", "32"],
        ["saffari", "--k", "4..12", "--q", "1,2,4,6"],
        ["mercer", "--random", "200", "--degree", "64", "--falsify", "10",
         "--seed", str(rng.randrange(1 << 31))],
        ["problem55", "--k", "1..12"],
    ]
    return argvs


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _cli_ok(status, argv: list[str], out: str) -> bool:
    if status != 0 or not os.listdir(out):
        return False
    command = argv[0]
    if command == "verify":
        rows = _csv_rows(os.path.join(out, "verify_summary.csv"))
        return bool(rows) and all(row["passed"] == "1" for row in rows)
    if command == "saffari":
        rows = _csv_rows(os.path.join(out, "saffari.csv"))
        return bool(rows) and all(
            row["passed"] == "1" and
            (float(row["q"]) != 2.0 or abs(float(row["ratio"]) - 1.0) <= 1e-8)
            for row in rows)
    return True


def cli_tasks(seed: int, out_dir: str, tiny: bool) -> list[Task]:
    tasks = []
    for index, argv in enumerate(cli_argvs(seed, tiny)):
        out = os.path.join(out_dir, f"{index:02d}_{argv[0]}")
        os.makedirs(out, exist_ok=True)
        tasks.append(Task(f"{index:02d}_{'_'.join(argv[:2])}",
                          partial(cli.main, argv + ["--out", out]),
                          partial(_cli_ok, argv=argv, out=out)))
    return tasks
