"""Benchmark harness for the rudin_shapiro package.

    python3 perfbench/run.py --workload {circle_k16,exact_k9,cli_sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(perfbench/passrun.py), one process at a time, with the package's
default single thread.  Inputs come from --seed only.  Every task result
is checked by an oracle at the acceptance-gate tolerances, and on
cli_sweep the artifacts of all passes of a run must be byte-identical.

--trace 0 measures with no wrapper installed and reports the
end-to-end metrics: setup_s, wall_s, task_p50_ms, task_tail_ms and
peak_rss_mb (medians over the run's passes; latencies pooled over
them).  --trace 1 runs an untraced, a traced and another untraced pass
and reports the per-layer metrics, with trace.overhead_frac the traced
wall time over the mean untraced one, minus 1.  The last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics; the lines before it name every metric with its unit, the
sample counts, failed_frac and the environment block.  Spans go to
.perfbench_out/trace_<workload>_seed<N>.json.

The pass count depends only on --seconds, never on measured time, so
two commits compared at the same --seconds run the same passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"

WORKLOADS = ("circle_k16", "exact_k9", "cli_sweep")
#: Nominal seconds per pass; a run makes max(MIN_PASSES, floor(seconds /
#: PASS_SECONDS)) passes.  circle_k16 and cli_sweep passes took about this
#: long on a 2-core box at the benchmark's first commit; exact_k9's took
#: 15 s, but its certificate median needs three passes to hold steady.
PASS_SECONDS = {"circle_k16": 21.0, "exact_k9": 10.0, "cli_sweep": 10.0}
#: cli_sweep needs two passes for its byte-identity check.
MIN_PASSES = {"circle_k16": 1, "exact_k9": 1, "cli_sweep": 2}
#: Cold set-ups measured per run: every pass plus set-up-only processes.
SETUP_SAMPLES = 11
#: A run, set-up included, must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms",
                    "task_tail_ms": "ms", "peak_rss_mb": "MiB"}


class RunError(RuntimeError):
    """A pass could not be run or reported nothing."""


def pass_count(workload: str, seconds: int) -> int:
    return max(MIN_PASSES[workload],
               math.floor(seconds / PASS_SECONDS[workload]))


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile) by nearest rank; with ten samples or
    fewer there is no such percentile and the minimum is reported as p0.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], pct


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool, root: str):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.src = os.path.join(root, "src")
        self.out = os.path.join(root, OUT_DIR)
        self.run_dir = os.path.join(self.out, f"run_{workload}_{os.getpid()}")
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [self.src, os.environ.get("PYTHONPATH")])))
        self.env.pop("RUDIN_SHAPIRO_CACHE", None)

    def spawn(self, index: int, *, setup_only=False, trace=None) -> dict:
        result_path = os.path.join(self.run_dir, f"pass{index}.json")
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--result", result_path]
        if self.workload == "cli_sweep":
            cmd += ["--out", os.path.join(self.run_dir, f"artifacts{index}")]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", trace]
        if self.tiny:
            cmd.append("--tiny")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)], env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"pass {index} exceeded the {DEADLINE_S:g} s "
                           "run deadline") from exc
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise RunError(f"pass {index} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
        with open(result_path) as fh:
            return json.load(fh)

    def run(self, passes: int, trace: bool) -> list[dict]:
        os.makedirs(self.run_dir, exist_ok=True)
        try:
            # unmeasured, so bytecode caches exist as they do for a user
            self.spawn(0, setup_only=True)
            if trace:
                path = os.path.join(
                    self.out, f"trace_{self.workload}_seed{self.seed}.json")
                # untraced passes on both sides cancel a steady drift
                return [self.spawn(1), self.spawn(2, trace=path),
                        self.spawn(3)]
            results = [self.spawn(i + 1) for i in range(passes)]
            for i in range(max(0, SETUP_SAMPLES - passes)):
                results.append(self.spawn(passes + i + 1, setup_only=True))
            return results
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)


def determinism_failures(passes: list[dict]) -> list[str]:
    """Artifacts that differ from the first pass's, by relative path."""
    first = passes[0].get("artifacts")
    if first is None:
        return []
    bad = set()
    for other in passes[1:]:
        arts = other["artifacts"]
        for path in set(first) | set(arts):
            if first.get(path, [None])[0] != arts.get(path, [None])[0]:
                bad.add(path)
    return sorted(bad)


def summarize(workload: str, results: list[dict], trace: bool) -> dict:
    passes = [r for r in results if "tasks" in r]
    records = [t for p in passes for t in p["tasks"]]
    attempted = len(records)
    failed = sum(1 for t in records if not t["ok"])
    mismatched = determinism_failures(passes)
    # an invocation whose artifacts changed between passes failed too
    mismatched_tasks = {path.split(os.sep)[0] for path in mismatched}
    failed += len(mismatched_tasks)
    lines = [f"env {json.dumps(passes[0]['env'], sort_keys=True)}",
             f"workload {workload} passes {len(passes)} "
             f"tasks_per_pass {attempted // len(passes)} "
             f"trace {int(trace)}"]
    for t in records:
        if not t["ok"]:
            lines.append(f"FAILED task {t['name']} {t['error']}".rstrip())
    for path in mismatched:
        lines.append(f"FAILED determinism {path} differs between passes")
    lines.append(f"failed_frac {failed / attempted:.6g} fraction "
                 f"({failed} of {attempted} tasks)")
    metrics = {}
    if trace:
        traced = next(p for p in passes if "layers" in p)
        untraced = [p["wall_s"] for p in passes if "layers" not in p]
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = \
            traced["wall_s"] / statistics.mean(untraced) - 1.0
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            lines.append(f"{name} {value:.6g} {layer_unit(name)}")
    else:
        setups = [r["setup_s"] for r in results]
        latencies = [t["seconds"] for t in records]
        tail_value, tail_pct = tail(latencies)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "task_p50_ms": 1e3 * statistics.median(latencies),
            "task_tail_ms": 1e3 * tail_value,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
        }
        notes = {
            "setup_s": f"median of {len(setups)} cold set-ups",
            "wall_s": f"median of {len(passes)} passes",
            "task_p50_ms": f"median of {len(latencies)} task latencies",
            "task_tail_ms": f"p{tail_pct} of {len(latencies)} task latencies",
            "peak_rss_mb": f"median of {len(passes)} passes",
        }
        for name, value in values.items():
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name} {value:.6g} {unit} ({notes[name]})")
    return {"lines": lines,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the rudin_shapiro package from the root of "
                    "a checkout.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (self-test only)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rudin_shapiro",
                                       "__init__.py")):
        print("run.py: no src/rudin_shapiro here; run it from the root of "
              "a checkout", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.tiny, root)
    try:
        results = runner.run(pass_count(args.workload, args.seconds),
                             bool(args.trace))
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    summary = summarize(args.workload, results, bool(args.trace))
    for line in summary["lines"]:
        print(line)
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
