"""Record ``baseline.json``: ten untraced runs per workload, each with its
own seed and taken round-robin, and one traced run per workload.

Run from the repository root: ``python3 bench/baseline.py`` (about 25
minutes at 40 s per run).  Each metric's summary gives the median and the
quartiles of the ten run values, as ``statistics.quantiles(n=4)`` computes
them, and the spread (q3 - q1) / median.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(10)
SECONDS = 40

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = res.stdout.strip().splitlines()
    record = json.loads(lines[-2])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit_code": res.returncode,
        "result": json.loads(lines[-1]),
        "meta": record["meta"],
        "samples": record["samples"][workload],
    }


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    runs = []
    for seed in SEEDS:
        for name in WORKLOADS:
            runs.append(bench(name, seed, 0))
            print(name, seed, runs[-1]["result"]["metrics"], flush=True)
    traced = [bench(name, 0, 1) for name in WORKLOADS]
    untraced = {}
    for name in WORKLOADS:
        mine = [r for r in runs if r["workload"] == name]
        untraced[name] = {
            metric: summary([r["result"]["metrics"][metric]["value"]
                             for r in mine])
            for metric in mine[0]["result"]["metrics"]
        }
        # the same runs without the host-speed scaling, for comparison
        plain = [[s for s in r["samples"]["plain"] if "pass_s" in s]
                 for r in mine]
        untraced[name]["wall_setup_s"] = summary(
            [statistics.median(s["setup_s"] for s in p) for p in plain]
        )
        untraced[name]["wall_cases_per_s"] = summary(
            [statistics.median(s["cases"] / s["pass_s"] for s in p)
             for p in plain]
        )
    out = {
        "untraced_summary": untraced,
        "traced": {r["workload"]: r["result"] for r in traced},
        "runs": runs + traced,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    ok = all(r["exit_code"] == 0 and r["result"]["correct"] for r in out["runs"])
    for name, metrics in untraced.items():
        for metric, s in metrics.items():
            print(f"{name} {metric} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
