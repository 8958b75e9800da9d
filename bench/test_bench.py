"""Tests of the benchmark's own code: span arithmetic, patching, the gate.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import ENTRY_METHODS, LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, gate, report_digest, run_op  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float) -> None:
        self.t += dt


def test_self_times_on_a_nested_span_tree():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.tick(0.5)

    def rec(n):
        clock.tick(1.0)
        if n:
            rec_w(n - 1)

    def boom():
        clock.tick(0.25)
        raise ValueError("inside a span")

    leaf_w = tr.wrap(leaf, "weyl", "leaf")
    rec_w = tr.wrap(rec, "affine", "rec")
    boom_w = tr.wrap(boom, "qbg", "boom")

    def mid():
        clock.tick(3.0)
        leaf_w()
        rec_w(2)            # three nested activations of one span name
        clock.tick(1.0)

    mid_w = tr.wrap(mid, "newton", "mid")

    def top():
        clock.tick(1.0)
        mid_w()
        clock.tick(2.0)
        leaf_w()
        with pytest.raises(ValueError):
            boom_w()

    top_w = tr.wrap(top, "cli", "top")
    top_w()
    clock.tick(10.0)        # outside every span: attributed to nothing

    self_s = tr.layer_self_s()
    assert self_s["weyl"] == pytest.approx(1.0)
    assert self_s["affine"] == pytest.approx(3.0)
    assert self_s["newton"] == pytest.approx(4.0)
    assert self_s["qbg"] == pytest.approx(0.25)
    assert self_s["cli"] == pytest.approx(3.0)
    assert tr.attributed_s() == pytest.approx(11.25)
    assert sum(self_s.values()) == pytest.approx(tr.attributed_s())
    assert tr.stats["rec"].calls == 3
    assert tr.stats["rec"].incl == pytest.approx(3.0)   # counted once
    assert tr.stats["leaf"].calls == 2
    assert tr.stats["mid"].incl == pytest.approx(7.5)


def _bindings():
    """Every attribute of every adlv module and traced class, by identity."""
    import adlv.cli  # noqa: F401 - loads every layer

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "adlv" or name.startswith("adlv."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
            for layer, classes in ENTRY_METHODS.items():
                if name == f"adlv.{layer}":
                    for cls_name in classes:
                        cls = getattr(mod, cls_name)
                        for attr, val in vars(cls).items():
                            out[(name, cls_name, attr)] = val
    return out


def test_patcher_restores_every_binding():
    before = _bindings()
    tr = Tracer()
    tr.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("adlv.cli", "build_qbg") in changed
        assert ("adlv.qbg", "build_qbg") in changed
        assert ("adlv.weyl", "GroupTable", "prod_idx") in changed
        assert ("adlv.weyl", "WeylElt", "mul") in changed
        # only functions are replaced, never classes or data
        assert all(callable(before[k]) and not isinstance(before[k], type)
                   for k in changed)

        cli = sys.modules["adlv.cli"]
        rs = cli.build_root_system("A", 2)
        cli.enumerate_group(rs)
        cli.enumerate_group(rs)
        m = layer_metrics(tr)
        assert set(m) == set(LAYER_METRICS)
        assert m["weyl.table_cache_hit_ratio"] == pytest.approx(0.5)
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_gate_flags_altered_case_count_and_digest():
    from adlv.cli import main

    op = WORKLOADS["newton-grid"].ops[0]
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    rc, text, err = run_op(main, op, 0)
    assert gate(op, 0, rc, text, digests) == (op.cases, None)

    rep = json.loads(text)
    rep["wall_time"] = rep["wall_time"] + 1.5      # ignored by the digest
    assert gate(op, 0, 0, json.dumps(rep), digests) == (op.cases, None)

    miscounted = dict(rep, cases=rep["cases"] - 1)
    cases, why = gate(op, 0, 0, json.dumps(miscounted), digests)
    assert cases == 0 and "cases" in why

    altered = dict(rep, seed=7)                    # same count, other bytes
    cases, why = gate(op, 0, 0, json.dumps(altered), digests)
    assert cases == 0 and "digest" in why
    assert report_digest(json.dumps(altered)) != digests[op.label]

    failed = dict(rep, passed=False)
    assert gate(op, 0, 0, json.dumps(failed), digests)[1] is not None
    assert gate(op, 0, 1, text, digests)[1] == "exit code 1"
