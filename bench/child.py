"""One measured process: set-up, then one timed pass of a workload.

Run by ``run.py`` as ``python3 bench/child.py <workload> <seed> <trace>``.
Prints one JSON object on stdout.  The adlv reports themselves are captured
in memory, checked by the gate after the timed pass, and never printed.

The host this benchmark was defined on changes speed in common mode by up
to 2x within seconds (see README.md), so the set-up and every operation run
under a ``SpeedSampler``, and each wall time is also reported scaled to a
reference host speed: the ``ref_*`` fields.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, gate, load_digests, run_op

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# A reading of the short probe every SAMPLE_EVERY_S while a step runs.
SAMPLE_EVERY_S = 0.2
SAMPLE_ITERATIONS = 20_000
# The short probe's median reading on the 2-CPU sandbox the benchmark was
# defined on (Python 3.11); only a scale, since runs are compared on one host.
PROBE_REF_S = 0.0014


def probe(iterations: int, repeats: int = 1) -> float:
    """Best of ``repeats`` timings of a fixed pure-Python loop: how fast the
    host runs interpreter code right now."""
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


class SpeedSampler:
    """Times one step and samples the host's speed while it runs.

    Readings of the short probe are taken just before and just after the
    step and, with ``every_s`` > 0, from a SIGALRM handler every ``every_s``
    seconds during it.  ``wall_s`` is the step's wall time without the
    handler's own time; ``ref_s`` is that time scaled to a host on which the
    probe reads ``PROBE_REF_S``."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.readings: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.readings.append(probe(SAMPLE_ITERATIONS))
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self.readings.append(probe(SAMPLE_ITERATIONS))
        if self.every_s:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.wall_s = time.perf_counter() - self.t0 - self.spent
        self.readings.append(probe(SAMPLE_ITERATIONS))
        self.probe_s = statistics.fmean(self.readings)
        self.ref_s = self.wall_s * PROBE_REF_S / self.probe_s
        return False


def load_cli():
    cli = importlib.import_module("adlv.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"adlv was imported from {cli.__file__}, not {SRC}")
    return cli


def measure(name: str, seed: int, traced: bool) -> dict:
    wl = WORKLOADS[name]
    digests = load_digests()
    sys.path.insert(0, SRC)
    tracer, cli = None, None
    # the traced child samples only around steps, so that no probe runs
    # inside a span; its window starts once the entry points are patched
    every_s = 0 if traced else SAMPLE_EVERY_S
    if traced:
        cli = load_cli()
        tracer = Tracer()
        tracer.install()

    # set-up: what one CLI invocation pays before it can answer
    with SpeedSampler(every_s) as setup:
        cli = cli or load_cli()
        rootsys = sys.modules["adlv.rootsys"]
        weyl = sys.modules["adlv.weyl"]
        qbg = sys.modules["adlv.qbg"]
        for ct, rank in wl.groups:
            rs = rootsys.build_root_system(ct, rank)
            weyl.enumerate_group(rs)
            qbg.build_qbg(rs)

    # the timed pass, one step per operation
    outcomes, steps = [], []
    for op in wl.ops:
        with SpeedSampler(every_s) as step:
            # cli.main is looked up on each call so a traced run sees the patch
            outcomes.append(run_op(cli.main, op, seed))
        steps.append(step)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "setup_s": setup.wall_s,
        "pass_s": sum(s.wall_s for s in steps),
        "ref_setup_s": setup.ref_s,
        "ref_pass_s": sum(s.ref_s for s in steps),
        "peak_rss_mb": rss_mb,
        "op_s": [s.wall_s for s in steps],
        "probe_s": [s.probe_s for s in [setup] + steps],
    }
    if tracer is not None:
        tracer.restore()
        out["window_s"] = out["setup_s"] + out["pass_s"]
        out["attributed_s"] = tracer.attributed_s()
        out["layers"] = layer_metrics(tracer)

    cases, failures = 0, []
    for op, (rc, text, err) in zip(wl.ops, outcomes):
        got, why = gate(op, seed, rc, text, digests)
        cases += got
        if why is not None:
            failures.append({"op": op.label, "why": why, "error": err})
    out.update(cases=cases, attempted=len(wl.ops), failures=failures)
    return out


if __name__ == "__main__":
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    print(json.dumps(measure(workload, seed, trace)))
