"""The benchmark's workloads and the correctness gate on their reports.

One pass of a workload is a fixed list of ``adlv`` command lines, each run
through ``adlv.cli.main`` in the same process.  Every operation's report is
checked against the case count it must have and, where its input does not
depend on the seed (or the seed is 0), against the sha256 digest stored in
``digests.json``.  Regenerate that file, after a change that is meant to
alter reports, with ``python3 bench/workloads.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    cases: int              # expected report ``cases``; 1 for a query
    seeded: bool = False    # gets ``--seed <seed>``; its digest is for seed 0

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def command(self, seed: int) -> list[str]:
        return list(self.argv) + (["--seed", str(seed)] if self.seeded else [])


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[tuple[str, int], ...]   # (type, rank) built during set-up
    ops: tuple[Op, ...]


def _verify(suite: str, ct: str, rank: int, cases: int, seeded=False) -> Op:
    return Op(
        ("verify", suite, "--type", ct, "--rank", str(rank)), cases, seeded
    )


def _query(ct: str, rank: int, expr: str) -> Op:
    return Op(("query", "--type", ct, "--rank", str(rank), expr), 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "newton-grid",
            (("A", 2), ("B", 2), ("C", 2)),
            (
                _verify("newton", "A", 2, 24),
                _verify("newton", "B", 2, 32),
                _verify("newton", "C", 2, 32),
            ),
        ),
        Workload(
            "qbg-weights",
            (("F", 4), ("D", 5)),
            (
                _verify("qbg", "F", 4, 1652, seeded=True),
                _verify("qbg", "D", 5, 2420, seeded=True),
                _verify("cascade", "F", 4, 140),
            ),
        ),
        Workload(
            "cover-adm",
            (("A", 3), ("B", 2), ("G", 2), ("A", 2)),
            (
                _verify("cover", "A", 3, 192),
                _verify("cover", "B", 2, 32),
                _verify("cover", "G", 2, 48),
                _verify("adm", "A", 2, 2),
                _verify("adm", "B", 2, 2),
                _verify("adm", "G", 2, 1),
                _query("A", 3, "admsize [1,1,1]"),
                _query("G", 2, "admsize [2,1]"),
            ),
        ),
    )
}


def report_digest(text: str) -> str:
    """sha256 of a JSON report without its one nondeterministic key,
    ``wall_time``, in the CLI's own layout (indent 2, sorted keys)."""
    rep = json.loads(text)
    rep.pop("wall_time", None)
    canon = json.dumps(rep, indent=2, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def gate(op: Op, seed: int, rc, text: str, digests: dict[str, str]):
    """(cases counted, failure reason or None) for one operation's outcome.

    ``rc`` is the exit code ``main`` returned, or None when it raised."""
    if rc != 0:
        return 0, f"exit code {rc}"
    try:
        rep = json.loads(text)
    except ValueError:
        return 0, "report is not JSON"
    if op.argv[0] == "verify":
        cases = rep.get("cases")
        if rep.get("passed") is not True or rep.get("failures"):
            return 0, "suite did not pass"
    else:
        cases = 1
    if cases != op.cases:
        return 0, f"{cases} cases, expected {op.cases}"
    if not op.seeded or seed == 0:
        want = digests.get(op.label)
        if want is None or report_digest(text) != want:
            return 0, "report digest differs from the stored one"
    return cases, None


def run_op(main, op: Op, seed: int):
    """Run one operation through ``main``; (exit code or None, stdout,
    error text)."""
    buf = io.StringIO()
    err = ""
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(op.command(seed))
    except SystemExit as e:
        rc, err = e.code, f"SystemExit({e.code!r})"
    except Exception:  # noqa: BLE001 - one failed operation, not the run
        rc, err = None, traceback.format_exc()
    return rc, buf.getvalue(), err


def record_digests(main) -> dict[str, str]:
    """Digests of every operation at seed 0, from the current sources."""
    out = {}
    for wl in WORKLOADS.values():
        for op in wl.ops:
            rc, text, err = run_op(main, op, 0)
            if rc != 0:
                raise SystemExit(f"{op.label}: exit {rc} {err}")
            out[op.label] = report_digest(text)
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from adlv.cli import main as adlv_main

    digests = record_digests(adlv_main)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
