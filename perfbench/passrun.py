"""One benchmark pass in a fresh interpreter: set up, run every task, report.

run.py starts this script once per pass, so each pass pays interpreter
start, package import and input generation, as a command-line user
does.  ``--t0`` is the parent's CLOCK_MONOTONIC reading just before the
process was started; set-up time runs from there to the first task.

    python3 perfbench/passrun.py --workload circle_k16 --seed 1 \\
        --t0 <monotonic> --result pass.json [--out DIR] [--trace FILE]
        [--setup-only] [--tiny]

The result file holds set-up time, wall time, per-task latencies and
oracle verdicts, peak resident memory, the environment block and, for
cli_sweep, a digest of every artifact.  With ``--trace`` the pass runs
under the span recorder and adds the per-layer numbers; spans go to
FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import sys
import time


def run_tasks(tasks, tracer=None) -> list[dict]:
    """Time each task's call; check its result outside the timed region."""
    records = []
    for task in tasks:
        if tracer is not None:
            tracer.task = task.name
        error = ""
        start = time.perf_counter()
        try:
            result = task.call()
        except Exception as exc:  # a task that raises is a failed task
            elapsed = time.perf_counter() - start
            ok, error = False, f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            try:
                ok = bool(task.check(result))
            except Exception as exc:  # so is a result the oracle cannot read
                ok, error = False, f"oracle {type(exc).__name__}: {exc}"
        records.append({"name": task.name, "seconds": elapsed, "ok": ok,
                        "error": error})
    if tracer is not None:
        tracer.task = None
    return records


def artifact_digests(root: str) -> dict:
    """sha256 and size of every file under root, by relative path."""
    digests = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digests[os.path.relpath(path, root)] = [
                hashlib.sha256(data).hexdigest(), len(data)]
    return digests


def environment(src_dir: str) -> dict:
    import numpy

    src_lines = 0
    for base, _dirs, files in os.walk(src_dir):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "scipy": importlib.util.find_spec("scipy") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import rudin_shapiro.cli  # noqa: F401  (every layer, before wrapping)

        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    tasks = workloads.build(args.workload, args.seed, tiny=args.tiny,
                            out_dir=args.out)
    if tracer is not None:
        tracer.reset()  # count the tasks' work, not set-up
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        start = time.perf_counter()
        records = run_tasks(tasks, tracer)
        result["wall_s"] = time.perf_counter() - start
        result["tasks"] = records
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        src_dir = os.path.dirname(os.path.dirname(workloads.rs.__file__))
        result["env"] = environment(src_dir)
        if args.out:
            result["artifacts"] = artifact_digests(args.out)
        if tracer is not None:
            layers = tracer.layer_metrics()
            layers["cli.artifact_bytes"] = sum(
                size for _digest, size in result.get("artifacts", {}).values())
            result["layers"] = layers
            tracer.write(args.trace, {"workload": args.workload,
                                      "seed": args.seed, "layers": layers})
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
