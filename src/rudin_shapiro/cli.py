"""Command-line front end: experiments in, deterministic artifacts out.

Every subcommand writes its results as CSV or JSON files whose first
bytes embed the numeric configuration, so an artifact can always be
replayed.  All randomness is seeded (default seed 0, never the clock),
reductions use fixed trees, and float formatting is shortest-roundtrip,
so re-running a command with the same configuration reproduces its
artifacts byte for byte.

Exit status: 0 all gated checks passed, 1 a gated check failed,
2 usage or invalid configuration, 3 a resource limit was hit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import evaluate, gf2, norms, roots, verify
from .core import ResourceLimitError, generate_pair, special_values
from .norms import Arc, FULL_CIRCLE

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_ANGLE_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-])?\s*(pi)?"
    r"\s*(?:/\s*((?:\d+\.?\d*|\.\d+)))?\s*$")


def parse_angle(text: str) -> float:
    """Radians with pi sugar: '2pi', 'pi/2', '3pi/4', '-pi', '32pi/1024'."""
    match = _ANGLE_RE.match(text)
    lead = match.group(1) if match else None
    if not match or (not lead and not match.group(2)) or \
            (lead in ("+", "-") and not match.group(2)):
        raise ValueError(f"cannot parse angle {text!r}")
    if lead in ("+", "-", None):
        coeff = -1.0 if lead == "-" else 1.0
    else:
        coeff = float(lead)
    value = coeff * (math.pi if match.group(2) else 1.0)
    if match.group(3):
        if float(match.group(3)) == 0.0:
            raise ValueError(f"angle {text!r} divides by zero")
        value /= float(match.group(3))
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


def parse_arc(text: str) -> Arc:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"arc must look like 'alpha:beta', got {text!r}")
    return Arc(parse_angle(parts[0]), parse_angle(parts[1]))


def parse_k_range(text: str) -> list[int]:
    """'8', '1..12', or '4,6,8'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        ks = list(range(int(lo), int(hi) + 1))
    else:
        ks = [int(part) for part in text.split(",") if part.strip()]
    if not ks:
        raise ValueError(f"k range {text!r} is empty")
    return ks


def parse_q_list(text: str) -> list[float]:
    qs = [float(part) for part in text.split(",") if part.strip()]
    if not qs:
        raise ValueError(f"q list {text!r} is empty")
    for q in qs:
        norms._check_exponent(q)
    return qs


def write_json_artifact(path: Path, config: dict, results) -> None:
    # numpy scalars and arrays go through .tolist(); float64 is a float
    payload = {"config": config, "results": results}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=lambda v: v.tolist()) + "\n")


def write_csv_artifact(path: Path, config: dict, header: list[str],
                       rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# config " + json.dumps(config, sort_keys=True,
                                          default=lambda v: v.tolist()) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _config(args, **fields) -> dict:
    """Artifact header: subcommand, seed and the numeric parameters.

    --threads is left out: it has no effect, and artifacts must be
    byte-identical across its values.
    """
    return {"subcommand": args.command, "seed": args.seed, **fields}


def _arc_pair(arc: Arc) -> list[float]:
    return [arc.alpha, arc.beta]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args, out_dir: Path) -> int:
    pair = generate_pair(args.k)
    sv = special_values(args.k)
    closed_forms_ok = (sv.p_at_1 == sv.expected_p_at_1 and
                       sv.q_at_minus1 == sv.expected_q_at_minus1 and
                       sv.p_at_minus1 == sv.expected_cross and
                       sv.q_at_1 == sv.expected_cross)
    config = _config(args, k=args.k)
    result = {
        "n": pair.n,
        "degree": pair.n - 1,
        "p_head": pair.p.coeffs[:8].tolist(),
        "q_head": pair.q.coeffs[:8].tolist(),
        "p_at_1": sv.p_at_1,
        "p_at_minus1": sv.p_at_minus1,
        "q_at_1": sv.q_at_1,
        "q_at_minus1": sv.q_at_minus1,
        "expected_p_at_1": sv.expected_p_at_1,
        "expected_q_at_minus1": sv.expected_q_at_minus1,
        "expected_cross": sv.expected_cross,
        "closed_forms_match": closed_forms_ok,
    }
    write_json_artifact(out_dir / f"generate_k{args.k:02d}.json", config, result)
    print(f"k={args.k} n={pair.n} closed_forms_match={closed_forms_ok}")
    return EXIT_OK if closed_forms_ok else EXIT_CHECK_FAILED


def cmd_eval(args, out_dir: Path) -> int:
    pair = generate_pair(args.k)
    if args.theta is not None:
        theta = parse_angle(args.theta)
        p, q = evaluate.eval_pair_point(pair, theta)
        config = _config(args, k=args.k, theta=theta)
        result = {"p_re": p.real, "p_im": p.imag,
                  "q_re": q.real, "q_im": q.imag}
        write_json_artifact(out_dir / f"eval_k{args.k:02d}_point.json",
                            config, result)
        print(f"P_k({theta:.12g}) = {p:.12g}   Q_k = {q:.12g}")
        return EXIT_OK
    arc = parse_arc(args.arc) if args.arc else FULL_CIRCLE
    count = args.count or norms.default_count(pair.n, arc)
    samples = evaluate.eval_grid(pair, arc, count,
                                 half_offset=not args.no_offset)
    p_sq = np.abs(samples.values_p) ** 2
    mean_sq = float(np.mean(p_sq))
    # |P|^2 + |Q|^2 = 2n exactly, so the residual is rounding on this grid
    residual = float(np.max(np.abs(
        p_sq + np.abs(samples.values_q) ** 2 - 2.0 * pair.n))) / (2.0 * pair.n)
    config = _config(args, k=args.k, arc=_arc_pair(arc), count=count,
                     half_offset=not args.no_offset)
    result = {"mean_p_squared": mean_sq,
              "mean_p_squared_over_n": mean_sq / pair.n,
              "flatness_residual": residual}
    write_json_artifact(out_dir / f"eval_k{args.k:02d}_grid.json",
                        config, result)
    if args.dump:
        evaluate.write_grid_dump(samples, out_dir / args.dump)
    print(f"k={args.k} count={count} mean|P|^2/n={mean_sq / pair.n:.12g} "
          f"flatness_residual={residual:.3g}")
    return EXIT_OK


def cmd_norm(args, out_dir: Path) -> int:
    arc = parse_arc(args.arc) if args.arc else FULL_CIRCLE
    qs = parse_q_list(args.q)
    rows = []
    for k in parse_k_range(args.k):
        pair = generate_pair(k)
        for est in norms.mq_arcs((pair, args.which), arc, qs, args.count):
            rows.append([k, arc.alpha, arc.beta, float(est.q), est.value,
                         est.count, est.rel_step, est.flagged])
    config = _config(args, k=args.k, arc=_arc_pair(arc), q=qs,
                     count=args.count, which=args.which)
    write_csv_artifact(out_dir / "norms.csv", config,
                       norms.NORM_TABLE_COLUMNS, rows)
    for row in rows:
        print(f"k={row[0]} q={row[3]} M_q={row[4]:.9g} "
              f"rel_step={row[6]:.2e} flagged={row[7]}")
    return EXIT_OK


def cmd_mahler(args, out_dir: Path) -> int:
    arc = parse_arc(args.arc) if args.arc else FULL_CIRCLE
    rows = []
    for k in parse_k_range(args.k):
        pair = generate_pair(k)
        est = norms.mahler_arc((pair, args.which), arc, args.count)
        rows.append([k, arc.alpha, arc.beta, 0.0, est.value, est.count,
                     est.rel_step, est.flagged])
        print(f"k={k} M_0={est.value:.9g} M_0/sqrt(n)="
              f"{est.value / math.sqrt(pair.n):.9g} excluded={est.excluded} "
              f"flagged={est.flagged}")
    config = _config(args, k=args.k, arc=_arc_pair(arc), count=args.count,
                     which=args.which)
    write_csv_artifact(out_dir / "mahler.csv", config,
                       norms.NORM_TABLE_COLUMNS, rows)
    return EXIT_OK


def cmd_roots(args, out_dir: Path) -> int:
    pair = generate_pair(args.k)
    poly = evaluate.pair_component(pair, args.which)
    rootset = roots.find_roots(poly, tol=args.tol, max_iter=args.max_iter)
    config = _config(args, k=args.k, which=args.which, tol=args.tol,
                     max_iter=args.max_iter)
    rows = [[float(z.real), float(z.imag), float(res), int(flag)]
            for z, res, flag in zip(rootset.roots, rootset.residuals,
                                    rootset.flags)]
    rows.sort()
    write_csv_artifact(out_dir / f"roots_k{args.k:02d}_{args.which}.csv",
                       config, ["re", "im", "residual", "flag"], rows)
    flagged = int(rootset.flags.sum())
    print(f"k={args.k} {args.which}: degree={rootset.degree} "
          f"iterations={rootset.iterations} flagged={flagged}")
    return EXIT_OK if flagged == 0 else EXIT_CHECK_FAILED


def cmd_census(args, out_dir: Path) -> int:
    which = ("p", "q") if args.which == "both" else (args.which,)
    flagged = 0
    for k in parse_k_range(args.k):
        pair = generate_pair(k)
        results = []
        for component in which:
            poly = evaluate.pair_component(pair, component)
            rootset = roots.find_roots(poly, tol=args.tol)
            census = roots.zero_census(rootset, eps=args.eps)
            results.append({
                "component": component,
                "k": k,
                "eps": args.eps,
                "inside_open_disk": census.inside_open_disk,
                "on_circle_within_eps": census.on_circle_within_eps,
                "outside": census.outside,
                "real_zeros": census.real_zeros,
                "real_zeros_certified": roots.real_zero_count_exact(poly),
                "flagged_roots": int(rootset.flags.sum()),
                "min_modulus_away_from_poles":
                    verify.min_modulus_excluding_poles(
                        k, component=component, pair=pair),
            })
        config = _config(args, k=k, which=args.which, eps=args.eps,
                         tol=args.tol)
        write_json_artifact(out_dir / f"census_k{k:02d}.json", config, results)
        for res in results:
            print(f"k={k} {res['component']}: inside={res['inside_open_disk']} "
                  f"circle={res['on_circle_within_eps']} outside={res['outside']} "
                  f"real={res['real_zeros']}")
            flagged += res["flagged_roots"]
    return EXIT_OK if flagged == 0 else EXIT_CHECK_FAILED


def cmd_verify(args, out_dir: Path) -> int:
    ks = parse_k_range(args.k)
    qs = parse_q_list(args.q)
    names = [args.name] if args.name != "all" else "all"
    reports = verify.run_verification(names, ks, n_arcs=args.arcs, qs=qs,
                                      seed=args.seed)
    if not reports:
        raise ValueError(f"verify {args.name} runs no check for --k {args.k} "
                         f"--arcs {args.arcs}")
    config = _config(args, name=args.name, k=args.k, arcs=args.arcs, q=qs)
    by_name: dict[str, list] = {}
    for report in reports:
        by_name.setdefault(report.name, []).append(report.to_json_dict())
    for name, items in sorted(by_name.items()):
        write_json_artifact(out_dir / f"verify_{name}.json", config, items)
    summary_rows = [[r.name, r.k,
                     r.arc.alpha if r.arc else "",
                     r.arc.beta if r.arc else "",
                     r.q if r.q is not None else "",
                     r.lhs, r.rhs, r.margin, int(r.passed)]
                    for r in reports]
    write_csv_artifact(out_dir / "verify_summary.csv", config,
                       ["name", "k", "alpha", "beta", "q", "lhs", "rhs",
                        "margin", "passed"], summary_rows)
    failures = [r for r in reports if not r.passed]
    print(f"{len(reports)} checks, {len(failures)} failures")
    for failure in failures:
        print(f"FAILED {failure.name} k={failure.k} margin={failure.margin:.3g}")
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_distribution(args, out_dir: Path) -> int:
    report = verify.value_distribution(args.k, bins=args.bins,
                                       count=args.count,
                                       component=args.which)
    config = _config(args, k=args.k, bins=args.bins, count=report.count,
                     which=args.which)
    result = {
        "sup_distance_to_uniform": report.sup_distance_to_uniform,
        "rectangles": [{"rect": list(rect), "empirical": emp,
                        "twice_area": expected}
                       for rect, emp, expected in report.rectangle_tests],
    }
    write_json_artifact(out_dir / f"distribution_k{args.k:02d}.json",
                        config, result)
    edges = np.arange(1, args.bins + 1) / args.bins
    rows = [[float(edge), float(cdf), float(edge)]
            for edge, cdf in zip(edges, report.empirical_cdf)]
    write_csv_artifact(out_dir / f"distribution_k{args.k:02d}.csv", config,
                       ["bin_upper", "empirical_cdf", "uniform_cdf"], rows)
    print(f"k={args.k} sup_distance={report.sup_distance_to_uniform:.5f}")
    return EXIT_OK


def cmd_saffari(args, out_dir: Path) -> int:
    qs = parse_q_list(args.q)
    rows = []
    for k in parse_k_range(args.k):
        for report in verify.saffari_ratios(k, qs, count=args.count):
            rows.append([k, report.q, report.lhs, report.rhs,
                         report.details["ratio"], int(report.passed)])
    config = _config(args, k=args.k, q=qs, count=args.count)
    write_csv_artifact(out_dir / "saffari.csv", config,
                       ["k", "q", "mq", "limit_value", "ratio", "passed"], rows)
    for row in rows:
        print(f"k={row[0]} q={row[1]} ratio={row[4]:.9f}")
    return EXIT_OK if all(row[-1] for row in rows) else EXIT_CHECK_FAILED


def cmd_mercer(args, out_dir: Path) -> int:
    results = []
    gate_failures = 0
    if args.coeffs:
        coeffs = [int(part) for part in args.coeffs.split(",")]
        cert = gf2.mercer_certificate(coeffs)
        results.append(cert.to_json_dict())
    else:
        rng = np.random.default_rng(args.seed)
        for index in range(args.random):
            m = int(rng.integers(1, args.degree // 2 + 1))
            coeffs = gf2.random_skew_reciprocal(m, rng)
            cert = gf2.mercer_certificate(coeffs)
            entry = cert.to_json_dict()
            entry["index"] = index
            if not cert.certified_zero_free_on_circle:
                gate_failures += 1
            if index < args.falsify:
                min_mod = gf2.circle_min_modulus(coeffs)
                rootset = roots.find_roots(coeffs)
                closest = float(np.min(np.abs(np.abs(rootset.roots) - 1.0)))
                entry["falsifier_min_modulus"] = min_mod
                entry["falsifier_closest_root_band"] = closest
                if min_mod <= 1e-9 or closest < 1e-7:
                    gate_failures += 1
            results.append(entry)
    config = _config(args, random=args.random, degree=args.degree,
                     falsify=args.falsify, coeffs=args.coeffs)
    write_json_artifact(out_dir / "mercer.json", config, results)
    certified = sum(1 for entry in results if entry["certified"])
    print(f"{certified}/{len(results)} certified, gate failures: {gate_failures}")
    return EXIT_OK if gate_failures == 0 else EXIT_CHECK_FAILED


def cmd_problem55(args, out_dir: Path) -> int:
    rows = []
    for k in parse_k_range(args.k):
        pair = generate_pair(k)
        est = norms.flatness_defect_mahler(pair, count=args.count)
        ratio = est.value / math.sqrt(pair.n)
        rows.append([k, est.value, ratio, est.count, est.rel_step,
                     est.excluded, est.flagged])
        print(f"k={k} M_0(|P|^2-n)={est.value:.9g} ratio={ratio:.9g} "
              f"flagged={est.flagged}")
    config = _config(args, k=args.k, count=args.count)
    write_csv_artifact(out_dir / "problem55.csv", config,
                       ["k", "value", "ratio_to_sqrt_n", "count", "rel_step",
                        "excluded", "flagged"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then shared.

    parse_args leaves the parser as it was: each call fills a fresh
    namespace, every default is immutable, and usage errors and --help
    leave through SystemExit with output to the sys.stdout or sys.stderr
    of that moment.  So one parser serves any number of main() calls;
    callers share it and must not change it.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every random choice (default 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted (must be >= 1) but has no effect: "
                             "every grid is evaluated in one thread")
    common.add_argument("--out", default=".",
                        help="directory for output artifacts")

    parser = argparse.ArgumentParser(
        prog="rudin-shapiro",
        description="Rudin-Shapiro polynomials: norms, roots, and certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="build (P_k, Q_k) and report exact special values")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate the pair at a point or over a grid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", help="single angle (pi sugar accepted)")
    p.add_argument("--arc", help="arc 'alpha:beta' for grid evaluation")
    p.add_argument("--count", type=int)
    p.add_argument("--no-offset", action="store_true",
                   help="full lattice instead of half-offset grid")
    p.add_argument("--dump", help="binary grid dump filename under --out")

    p = sub.add_parser("norm", parents=[common], help="M_q on an arc")
    p.add_argument("--k", required=True, help="k or range, e.g. 3 or 1..12")
    p.add_argument("--q", required=True, help="comma list of exponents")
    p.add_argument("--arc", help="default full circle")
    p.add_argument("--count", type=int)
    p.add_argument("--which", choices=("p", "q"), default="p")

    p = sub.add_parser("mahler", parents=[common], help="M_0 on an arc")
    p.add_argument("--k", required=True)
    p.add_argument("--arc")
    p.add_argument("--count", type=int)
    p.add_argument("--which", choices=("p", "q"), default="p")

    p = sub.add_parser("roots", parents=[common],
                       help="all complex roots by simultaneous iteration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--which", choices=("p", "q"), default="p")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)

    p = sub.add_parser("census", parents=[common],
                       help="classify roots against the unit circle")
    p.add_argument("--k", required=True, help="k or range, e.g. 5 or 1..10")
    p.add_argument("--which", choices=("p", "q", "both"), default="both")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("verify", parents=[common],
                       help="run proved-inequality checks and trend experiments")
    p.add_argument("name", choices=verify.ALL_CHECKS + ("all",))
    p.add_argument("--k", default="4..10")
    p.add_argument("--arcs", type=int, default=8)
    p.add_argument("--q", default="0.25,1,2,4")

    p = sub.add_parser("distribution", parents=[common],
                       help="empirical value distribution against its limit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--count", type=int)
    p.add_argument("--which", choices=("p", "q"), default="p")

    p = sub.add_parser("saffari", parents=[common],
                       help="full-circle M_q of P_k against its limit value")
    p.add_argument("--k", required=True)
    p.add_argument("--q", default="1,2,4")
    p.add_argument("--count", type=int)

    p = sub.add_parser("mercer", parents=[common],
                       help="GF(2) circle-zero-freeness certificates")
    p.add_argument("--random", type=int, default=0,
                   help="number of random skew-reciprocal inputs")
    p.add_argument("--degree", type=int, default=64,
                   help="maximum even degree for random inputs")
    p.add_argument("--falsify", type=int, default=0,
                   help="also run the numerical falsifier on this many inputs")
    p.add_argument("--coeffs", help="explicit comma list of coefficients")

    p = sub.add_parser("problem55", parents=[common],
                       help="Mahler measure of | |P_k|^2 - n | with sqrt(n) ratio")
    p.add_argument("--k", required=True)
    p.add_argument("--count", type=int)

    return parser


COMMANDS = {
    "generate": cmd_generate,
    "eval": cmd_eval,
    "norm": cmd_norm,
    "mahler": cmd_mahler,
    "roots": cmd_roots,
    "census": cmd_census,
    "verify": cmd_verify,
    "distribution": cmd_distribution,
    "saffari": cmd_saffari,
    "mercer": cmd_mercer,
    "problem55": cmd_problem55,
}


def _check_flags(args) -> None:
    """Range and combination checks of flags, before any work or output."""
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    count = getattr(args, "count", None)
    if count is not None and count < 2:
        raise ValueError(f"--count must be >= 2, got {count}")
    for flag in ("random", "falsify", "arcs"):
        value = getattr(args, flag, 0)
        if value < 0:
            raise ValueError(f"--{flag} must be >= 0, got {value}")
    if args.command == "mercer":
        if args.degree < 2:
            raise ValueError(f"--degree must be >= 2, got {args.degree}")
        if not args.coeffs and args.random < 1:
            raise ValueError("mercer needs --coeffs or --random >= 1")
    grid_flags = ("arc", "count", "dump")
    if args.command == "eval" and args.theta is not None and (args.no_offset or
            any(getattr(args, flag) is not None for flag in grid_flags)):
        raise ValueError("--arc, --count, --no-offset and --dump apply only "
                         "to grids, not to one --theta point")
    out = Path(args.out)
    existing = next((path for path in (out, *out.parents) if path.exists()),
                    out)
    if not existing.is_dir():
        raise ValueError(f"--out {args.out}: {existing} is not a directory")
    dump = getattr(args, "dump", None)
    if dump is not None and (Path(dump).name != dump or dump in ("", "..")
                             or (out / dump).is_dir()):
        raise ValueError(f"--dump must name a file directly under --out, "
                         f"got {dump!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    out_dir = Path(args.out)  # made below; on exit 2 or 3 removed if empty
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    try:
        _check_flags(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](args, out_dir)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        code = EXIT_RESOURCE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    for path in made:  # deepest first
        with contextlib.suppress(OSError):
            path.rmdir()
    return code


def entrypoint() -> None:
    raise SystemExit(main())
