"""Self-test of the benchmark at tiny sizes; run from the checkout root.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is printed with its unit in
both modes on every workload, that a perturbed result is counted in
failed_frac, that an artifact differing between passes is counted, that
the tracer sees every evaluated point, that compare.py refuses results
from different environments, and that the harness fails in a directory
without the package.  Takes about 15 seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench_out", "selftest")

sys.path.insert(0, os.path.join(ROOT, "src"))
import compare  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def harness(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_printed_metrics(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = harness(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, lines
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, got, expected)
            text = "\n".join(lines[:-1])
            for name, unit in expected.items():
                assert any(line.startswith(f"{name} ") and f" {unit}" in line
                           for line in lines[:-1]), (name, unit, text)
            assert "\nfailed_frac 0 fraction" in text, text
            assert text.startswith("env {"), text
            if workload == "circle_k16" and trace:
                check_point_counts(result["metrics"])


def check_point_counts(metrics: dict) -> None:
    """At k = 12 the tasks request 44 grids' worth of 16n points, 9 distinct.

    Pinned to the recursion evaluator of the benchmark's first commit: a
    change that evaluates fewer points updates these numbers.
    """
    n = 1 << 12
    points = metrics["evaluate.points"]["value"]
    frac = metrics["evaluate.distinct_point_frac"]["value"]
    assert points == 44 * 16 * n, points
    assert abs(frac - 9 / 44) < 1e-12, frac


def check_perturbed_result_fails() -> None:
    tasks = workloads.build("circle_k16", 3, tiny=True)
    index = next(i for i, t in enumerate(tasks) if t.name == "saffari_q2")
    task = tasks[index]

    def perturbed():
        report = task.call()
        report.lhs *= 1.0 + 1e-6  # M_2 off by 1e-6
        return report

    tasks[index] = task._replace(call=perturbed)
    records = passrun.run_tasks(tasks)
    assert [r["name"] for r in records if not r["ok"]] == ["saffari_q2"]
    fake = {"tasks": records, "wall_s": 1.0, "setup_s": 0.1,
            "peak_rss_mb": 1.0, "env": {}}
    summary = run.summarize("circle_k16", [fake], trace=False)
    result = summary["result"]
    assert result["failed"] == 1 and not result["correct"], result
    frac = f"failed_frac {1 / len(records):.6g} fraction"
    assert any(line.startswith(frac) for line in summary["lines"]), summary


def check_artifact_mismatch_fails() -> None:
    record = {"name": "00_verify", "seconds": 0.1, "ok": True, "error": ""}
    first = {"tasks": [record], "wall_s": 1.0, "setup_s": 0.1,
             "peak_rss_mb": 1.0, "env": {},
             "artifacts": {os.path.join("00_verify", "a.csv"): ["x", 1]}}
    second = dict(first, artifacts={os.path.join("00_verify", "a.csv"):
                                    ["y", 1]})
    summary = run.summarize("cli_sweep", [first, second], trace=False)
    assert summary["result"]["failed"] == 1, summary


def check_environment_guard() -> None:
    os.makedirs(SCRATCH, exist_ok=True)
    result = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {}})
    paths = []
    for gmpy2 in (False, True):
        path = os.path.join(SCRATCH, f"gmpy2_{gmpy2}.txt")
        with open(path, "w") as fh:
            fh.write(f"env {json.dumps({'gmpy2': gmpy2, 'nproc': 2})}\n"
                     f"{result}\n")
        paths.append(path)
    assert compare.main(paths) == 2
    assert compare.main([paths[0], paths[0]]) == 0


def check_fails_without_package() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = harness("exact_k9", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        check_perturbed_result_fails()
        check_artifact_mismatch_fails()
        check_environment_guard()
        check_fails_without_package()
        check_printed_metrics(spec)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
