"""The adlv benchmark: times ``adlv verify`` / ``adlv query`` workloads end
to end, and in a traced run attributes the time to the package's layers.

Usage, from the repository root::

    python3 bench/run.py --workload newton-grid --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 120        # round-robin

Each sample is a fresh ``python3 bench/child.py`` process: set-up (import
plus building every group and graph the workload touches) and one timed
pass.  Children run one at a time; rounds of children repeat until another
round would overrun ``--seconds``, and at least one round always runs.
With ``--trace 1`` every round runs an untraced child and then a traced
one, and the per-layer metrics are reported instead of the end-to-end ones.

The bounded times (``setup_s``, ``cases_per_s``) are scaled to a reference
host speed by probe readings taken around and during each step in the
child (see child.py and README.md); the summary also prints the unscaled
wall-time medians.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the run's metadata
and every sample.  The exit code is 0 only when every operation passed the
gate in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from child import probe
from tracer import LAYER_METRICS, RATIO
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

# A run must end within 180 s whatever its children do.
HARD_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "cases_per_s": "1/s", "peak_rss_mb": "MB"}
TRACE_METRICS = {"trace.overhead_ratio": RATIO, "trace.attributed_ratio": RATIO}


def calibrate() -> float:
    """The fixed calibration loop, timed before and after each run and kept
    as metadata: a reading of the host's speed."""
    return probe(1_000_000, repeats=3)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "adlv")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (shutil.which("git") and os.path.exists(os.path.join(ROOT, ".git"))):
        return None
    res = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return res.stdout.strip() or None


def run_child(name: str, seed: int, traced: bool, timeout: float) -> dict:
    """One sample; a child that crashes, times out or prints no result
    counts every operation of the pass as failed."""
    cmd = [sys.executable, CHILD, name, str(seed), "1" if traced else "0"]
    try:
        res = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        why = f"child timed out after {timeout:.0f} s"
    else:
        lines = res.stdout.strip().splitlines()
        if res.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except ValueError:
                pass
        why = f"child exit {res.returncode}: {res.stderr.strip()[-500:]}"
    ops = WORKLOADS[name].ops
    return {
        "attempted": len(ops),
        "failures": [{"op": op.label, "why": why} for op in ops],
    }


def summarize(samples: dict, traced: bool) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one workload's samples."""
    plain = [s for s in samples["plain"] if "pass_s" in s]
    out = {}
    if not traced:
        if plain:
            out["setup_s"] = statistics.median(s["ref_setup_s"] for s in plain)
            out["cases_per_s"] = statistics.median(
                s["cases"] / s["ref_pass_s"] for s in plain
            )
            out["peak_rss_mb"] = statistics.median(
                s["peak_rss_mb"] for s in plain
            )
        return {k: (v, END_TO_END[k]) for k, v in out.items()}
    tr = [s for s in samples["traced"] if "layers" in s]
    if tr:
        for name in LAYER_METRICS:
            out[name] = statistics.median(s["layers"][name] for s in tr)
        out["trace.attributed_ratio"] = statistics.median(
            s["attributed_s"] / s["window_s"] for s in tr
        )
        if plain:
            out["trace.overhead_ratio"] = statistics.median(
                s["ref_pass_s"] for s in tr
            ) / statistics.median(s["ref_pass_s"] for s in plain)
    units = {**LAYER_METRICS, **TRACE_METRICS}
    return {k: (v, units[k]) for k, v in out.items()}


def wall_summary(samples: dict) -> str:
    """The unscaled medians, for the human-readable summary."""
    plain = [s for s in samples["plain"] if "pass_s" in s]
    if not plain:
        return ""
    setup = statistics.median(s["setup_s"] for s in plain)
    rate = statistics.median(s["cases"] / s["pass_s"] for s in plain)
    return f"  wall_setup_s {setup:.6g} s  wall_cases_per_s {rate:.6g} 1/s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "adlv")):
        print(f"error: no adlv sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traced = bool(args.trace)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "calibration_before_s": calibrate(),
    }
    samples = {n: {"plain": [], "traced": []} for n in names}
    start = time.perf_counter()
    longest_round = 0.0
    while True:
        r0 = time.perf_counter()
        for n in names:  # round-robin, never a block of one workload
            for kind in ("plain", "traced") if traced else ("plain",):
                left = HARD_LIMIT_S - (time.perf_counter() - start)
                samples[n][kind].append(
                    run_child(n, args.seed, kind == "traced", max(left, 1.0))
                )
        now = time.perf_counter()
        longest_round = max(longest_round, now - r0)
        if now - start + longest_round > args.seconds:
            break
    meta["measured_s"] = time.perf_counter() - start
    meta["calibration_after_s"] = calibrate()

    metrics, attempted, failed, lines = {}, 0, 0, []
    for n in names:
        runs = samples[n]["plain"] + samples[n]["traced"]
        n_att = sum(s["attempted"] for s in runs)
        n_fail = sum(len(s["failures"]) for s in runs)
        attempted += n_att
        failed += n_fail
        summary = summarize(samples[n], traced)
        prefix = "" if len(names) == 1 else f"{n}."
        for k, (v, unit) in summary.items():
            metrics[prefix + k] = {"value": v, "unit": unit}
        lines.append(
            f"{n}: failed_ratio {n_fail / n_att:.6g} ratio "
            f"({n_fail}/{n_att} operations, {len(runs)} children)"
            + wall_summary(samples[n])
        )
        lines.extend(
            f"  {k} {v:.6g} {unit}" for k, (v, unit) in summary.items()
        )
        for s in runs:
            for f in s["failures"]:
                lines.append(f"  FAILED {f['op']}: {f['why']}")

    wanted = len(names) * (len(LAYER_METRICS) + len(TRACE_METRICS)
                           if traced else len(END_TO_END))
    correct = failed == 0 and len(metrics) == wanted
    for line in lines:
        print(line)
    print(json.dumps({"meta": meta, "samples": samples}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
