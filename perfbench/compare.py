"""Compare two saved outputs of perfbench/run.py, metric by metric.

    python3 perfbench/run.py --workload exact_k9 --seed 1 --seconds 30 \\
        --trace 0 > base.txt        # on the parent commit
    ...                             > new.txt   # on the change
    python3 perfbench/compare.py base.txt new.txt

Refuses, with exit status 2, to compare results whose environment
blocks differ in gmpy2 presence or core count: gmpy2 alone moves
exact_k9 about sevenfold.  Otherwise prints each metric's two values,
their ratio and, for end-to-end metrics, whether the change is worse
than the bound in BENCHMARK.json.  Exit status 1 means some metric
regressed beyond its bound or a result is not correct.
"""

from __future__ import annotations

import json
import os
import sys

GUARDED = ("gmpy2", "nproc")


def load(path: str) -> tuple[dict, dict]:
    """(environment block, final JSON object) of one saved output."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    if env is None or not lines:
        raise ValueError(f"{path}: no environment block or result line")
    return env, json.loads(lines[-1])


def bounds() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, res_a), (env_b, res_b) = load(argv[0]), load(argv[1])
    differing = [key for key in GUARDED if env_a.get(key) != env_b.get(key)]
    if differing:
        for key in differing:
            print(f"refusing to compare: {key} is {env_a.get(key)!r} in "
                  f"{argv[0]} and {env_b.get(key)!r} in {argv[1]}",
                  file=sys.stderr)
        return 2
    spec = bounds()
    status = 0 if res_a["correct"] and res_b["correct"] else 1
    for name, metric in res_a["metrics"].items():
        if name not in res_b["metrics"]:
            continue
        a, b = metric["value"], res_b["metrics"][name]["value"]
        ratio = b / a if a else float("nan")
        line = (f"{name:32s} {a:14.6g} {b:14.6g} {metric['unit']:8s} "
                f"x{ratio:.4f}")
        if name in spec:
            worse = ratio - 1.0 if spec[name]["better"] == "lower" \
                else 1.0 - ratio
            if worse > spec[name]["bound"]:
                line += f"  REGRESSION (bound {spec[name]['bound']:g})"
                status = 1
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
