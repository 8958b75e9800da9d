"""Every benchmark operation, run at seed 0, reproduces the report digest
recorded in ``bench/digests.json``: the byte-identity of the reports
(apart from ``wall_time``) is checked in the tier-1 run, not only by a
benchmark run.  The benchmark's files are read, never written."""

import importlib.util
import os
import sys

import pytest

from adlv.cli import main

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "workloads.py",
)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", _PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


workloads = _load_workloads()
OPS = [op for wl in workloads.WORKLOADS.values() for op in wl.ops]


@pytest.fixture(scope="module")
def digests():
    return workloads.load_digests()


@pytest.mark.parametrize("op", OPS, ids=[op.label for op in OPS])
def test_report_matches_recorded_digest(op, digests):
    rc, text, err = workloads.run_op(main, op, 0)
    cases, why = workloads.gate(op, 0, rc, text, digests)
    assert why is None, f"{op.label}: {why} {err}"
    assert cases == op.cases
