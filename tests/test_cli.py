"""Command line interface: argument handling, exit codes, output formats,
query results, verification suites, and byte-stability of the shipped
tables."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random

import pytest

from adlv import affine, cli
from adlv.cli import (
    ALL_TABLE_RANKS,
    QueryError,
    main,
    parse_element,
    render_tables,
    run_query,
    run_suite,
    table_rows,
)
from adlv.errors import InvariantError
from adlv.qbg import QBGraph, build_qbg
from adlv.rootsys import build_root_system
from adlv.weyl import word_str

from oracles import act_root

GOLDEN = Path(__file__).resolve().parents[1] / "src" / "adlv" / "golden"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# tables


def test_tables_json_matches_shipped_file(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["tables", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN / "tables_all.json").read_bytes()


def test_tables_markdown_matches_shipped_file(tmp_path):
    out = tmp_path / "t.md"
    assert main(["tables", "--format", "markdown", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "tables_all.md").read_bytes()


def test_tables_deterministic():
    assert render_tables(table_rows(), "json") == render_tables(table_rows(), "json")


def test_tables_row_scope():
    rows = table_rows()
    assert len(rows) == sum(len(v) for v in ALL_TABLE_RANKS.values())
    a2 = next(r for r in rows if r["type"] == "A" and r["rank"] == 2)
    assert (a2["S"], a2["m_tilde"], a2["xi"], a2["ell_R_w0"]) == (
        4,
        3,
        7,
        1,
    )
    assert a2["wt_w0"] == [1, 1]
    assert "match" not in a2  # brute columns only appear under --check


def test_tables_check_adds_brute_columns(capsys):
    code, rep = run_json(
        capsys, ["tables", "--type", "G", "--rank", "2", "--check"]
    )
    assert code == 0
    (row,) = rep["tables"]
    assert row["match"] is True
    assert row["wt_w0_brute"] == row["wt_w0"] == [2, 2]
    assert row["M_computed"] == 2  # attained max sits below the bound 4
    assert row["m_tilde"] == 4
    assert row["ell_R_w0_brute"] == row["ell_R_w0"] == 2


def test_tables_csv_single_row(capsys):
    code = main(["tables", "--type", "A", "--rank", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type,rank,S,m_tilde,xi,ell_R_w0,wt_w0"
    assert lines[1] == 'A,3,6,4,10,2,"(1,2,1)"'


# ---------------------------------------------------------------------------
# element parsing


def test_parse_element_products():
    rs = build_root_system("A", 2)
    w = parse_element(rs, ["t[3,3]", "s1"])
    assert w.lam == (3, 3)
    assert w.fin.length() == 1 and act_root(w.fin, (1, 0)) == (-1, 0)
    w0 = parse_element(rs, ["w0"])
    assert not any(w0.lam) and w0.fin.length() == 3


@pytest.mark.parametrize(
    "tokens,fragment",
    [
        (["s9"], "letter out of range"),
        (["zz"], "unknown token"),
        (["t[1,2,3]"], "coordinates"),
        (["t[1,x]"], "bad coordinate list"),
    ],
)
def test_parse_element_rejects(tokens, fragment):
    rs = build_root_system("A", 2)
    with pytest.raises(cli.QueryError, match=fragment):
        parse_element(rs, tokens)


# ---------------------------------------------------------------------------
# queries


def test_query_nu_dual_route(capsys):
    code, rep = run_json(
        capsys,
        ["query", "--type", "A", "--rank", "2", "nu t[8,8] w0"],
    )
    assert code == 0
    assert rep["nu"] == [7, 7]
    assert rep["method"] == "formula+brute"
    assert rep["match"] is True
    assert rep["schema_version"] == 1


def test_query_nu_fractional_output(capsys):
    # nu of a plain finite element: half-integers serialize as strings.
    code, rep = run_json(
        capsys,
        ["query", "--type", "A", "--rank", "2", "nu s2 t[9,8] s1 s2"],
    )
    assert code == 0
    assert rep["nu"] == [7, 9]


def test_query_wt_closed_form(capsys):
    code, rep = run_json(
        capsys, ["query", "--type", "C", "--rank", "3", "wt w0"]
    )
    assert code == 0
    assert rep["wt"] == [1, 2, 3]
    assert rep["closed_form"] == [1, 2, 3]
    assert rep["match"] is True


def test_query_admsize(capsys):
    code, rep = run_json(
        capsys, ["query", "--type", "A", "--rank", "2", "admsize [2,2]"]
    )
    assert code == 0
    assert rep["size"] == 85


def test_query_eta_and_len(capsys):
    code, rep = run_json(
        capsys, ["query", "--type", "A", "--rank", "2", "eta t[3,3] s1"]
    )
    assert code == 0
    assert rep["eta"] == "s1"
    code, rep = run_json(
        capsys, ["query", "--type", "A", "--rank", "2", "len t[3,3] s1"]
    )
    assert code == 0
    assert rep["len"] == 11  # <2 rho, (3,3)> - ell(s1)


def test_query_cascade_witness(capsys):
    code, rep = run_json(
        capsys,
        [
            "query",
            "--type",
            "D",
            "--rank",
            "4",
            "cascade s4 s2 s3 s1 s2 s4 s2",
        ],
    )
    assert code == 0
    assert rep["r"] == [1, 3, 1, 2]
    assert [sorted(lvl) for lvl in rep["levels"]] == [
        [[0, 1, 1, 1], [1, 1, 0, 1]],
        [[0, 1, 0, 0]],
    ]
    code, rep = run_json(
        capsys,
        ["query", "--type", "D", "--rank", "4", "dp s4 s2 s3 s1 s2 s4 s2"],
    )
    assert code == 0
    assert rep["dp"] == 6


def test_query_finite_only_ops_refuse_translations(capsys):
    code = main(
        ["query", "--type", "A", "--rank", "2", "wt t[1,1] s1"]
    )
    assert code == 2
    assert "finite element" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["query", "--type", "A", "--rank", "2", "bogus w0"], "unknown operator"),
        (["query", "--type", "A", "--rank", "2", "wt s9"], "letter out of range"),
        (["query", "nu w0"], "needs --type and --rank"),
        (["query", "--type", "A", "--rank", "2", ""], "empty expression"),
        (["query", "--type", "Z", "--rank", "2", "wt w0"], "unsupported"),
        (["verify", "nosuch", "--type", "A", "--rank", "2"], "unknown suite"),
        (["verify", "qbg", "--type", "B", "--rank", "1"], "invalid for type"),
        (["query", "--type", "A", "--rank", "0", "len s1"], "invalid for type"),
        (["query", "--type", "A", "--rank", "2", "admsize [-1,2]"], "dominant"),
        (["tables", "--cap", "0"], "--cap"),
        (["tables", "--budget", "0"], "--budget"),
        # the library's one budget rule, for an operator that reads none too
        (["query", "--type", "A", "--rank", "2", "--budget", "0", "len s1"],
         "a length budget must be an int >= 1, not 0"),
        # each subcommand refuses the flags it does not read
        (["query", "--type", "A", "--rank", "2", "--format", "csv",
          "--seed", "5", "len s1"], "unrecognized arguments: --format"),
        (["tables", "--budget", "7", "--seed", "3"],
         "unrecognized arguments: --budget 7 --seed 3"),
        # the group cap is the library's alone
        (["verify", "qbg", "--cap", "5"], "unrecognized arguments: --cap 5"),
        # integers are an optional sign and ASCII digits, nothing int() also reads
        (["query", "--type", "A", "--rank", "2", "len t[1_0,2]"],
         "bad coordinate list in token 't[1_0,2]'"),
        (["query", "--type", "A", "--rank", "2", "len t[\u0661,2]"],
         "bad coordinate list in token 't[\u0661,2]'"),
        (["query", "--type", "A", "--rank", "2", "len s\u0661"],
         "bad integer '\u0661' in token 's\u0661'"),
        (["query", "--type", "A", "--rank", "2", "admsize [1_1,1]"],
         "bad coordinate list in token '[1_1,1]'"),
        (["query", "--type", "A", "--rank", "1_0", "len s1"],
         "argument --rank: invalid integer value: '1_0'"),
        (["query", "--type", "A", "--rank", "2", "--budget", " 3", "len s1"],
         "argument --budget: invalid integer value: ' 3'"),
        (["verify", "qbg", "--seed", "\u0661"],
         "argument --seed: invalid integer value: '\u0661'"),
        (["verify", "adm", "--budget", "-3"],
         "a length budget must be an int >= 1, not -3"),
    ],
)
def test_usage_errors_exit_2(capsys, argv, fragment):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_cap_and_budget_defaults_are_the_library_constants(monkeypatch, capsys):
    """--budget defaults to ``affine.DEFAULT_INTERVAL_BUDGET``, read when
    the command runs, so the command line does not restate it: an absent
    --budget or --seed stays None, and a report prints an absent seed as
    0."""
    for argv in (["query", "len s1"], ["verify", "adm"], ["verify", "qbg"]):
        args = cli._build_parser().parse_args(argv)
        assert args.budget is None
        assert getattr(args, "seed", None) is None
    assert run_suite("qbg", cartan_type="A", rank=2)["seed"] == 0
    monkeypatch.setattr(affine, "DEFAULT_INTERVAL_BUDGET", 3)
    # A2's <2 rho, (1, 1)> = 4 exceeds the default of 3 read at run time
    assert main(["verify", "adm"]) == 3
    assert "exceeds the budget 3" in capsys.readouterr().err
    # query reads it too: s1 s2 is longer than 1, and its nu has no closed form
    monkeypatch.setattr(affine, "DEFAULT_INTERVAL_BUDGET", 1)
    assert main(["query", "--type", "A", "--rank", "2", "nu s1 s2"]) == 3


@pytest.mark.parametrize("suite", ["tables", "qbg", "newton", "cover", "cascade"])
def test_verify_refuses_budget_outside_adm(capsys, suite):
    """Only the adm suite reads --budget; the others refuse it rather than
    ignore it."""
    assert main(["verify", suite, "--budget", "1"]) == 2
    assert f"the {suite} suite does not read --budget" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["tables", "newton", "cover", "adm", "cascade"])
def test_verify_refuses_seed_outside_qbg(capsys, suite):
    """Only the qbg suite reads --seed; the others refuse it, from the
    command line and from ``run_suite`` alike, as the budget outside adm."""
    assert main(["verify", suite, "--seed", "5"]) == 2
    assert f"the {suite} suite does not read --seed" in capsys.readouterr().err
    for seed in (5, 0):
        with pytest.raises(QueryError, match="does not read --seed"):
            run_suite(suite, cartan_type="G", rank=2, seed=seed)
    if suite != "adm":
        with pytest.raises(QueryError, match="does not read --budget"):
            run_suite(suite, cartan_type="G", rank=2, budget=1)


def test_budget_errors_exit_3(capsys):
    code = main(
        ["query", "--type", "A", "--rank", "2", "admsize [50,50]"]
    )
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err
    # the library's group cap refuses E7 (2903040 elements) wherever W is
    # enumerated, and its graph cap refuses E7 and A8 (9! elements) before
    # any enumeration
    assert main(["verify", "cover", "--type", "E", "--rank", "7"]) == 3
    assert "exceeding the cap of 1000000" in capsys.readouterr().err
    for expr in ("nu s1", "dp s1", "ellred s1", "admsize [0,0,0,0,0,0,1]"):
        argv = ["query", "--type", "E", "--rank", "7", expr]
        assert main(argv) == 3, expr
        assert "exceeding the cap of 1000000" in capsys.readouterr().err
    for ct, rank in (("E", 7), ("A", 8)):
        for expr in ("wt w0", "elldown s1"):
            argv = ["query", "--type", ct, "--rank", str(rank), expr]
            assert main(argv) == 3, expr
            assert "graph cap of 100000" in capsys.readouterr().err
    # nu with neither route available: too long to sweep, below threshold
    argv = ["query", "--type", "A", "--rank", "2", "--budget", "1", "nu s1 s2"]
    assert main(argv) == 3
    # len, eta and cascade build no table, so they run above the caps
    for ct, rank, expr in (("E", 7, "cascade s1"), ("E", 7, "eta s1"),
                           ("E", 8, "len s0")):
        argv = ["query", "--type", ct, "--rank", str(rank), expr]
        assert main(argv) == 0, expr


def test_adm_suite_refuses_a_run_that_checks_nothing(capsys):
    """Above the budget the adm suite has no case to run: F4's
    <2 rho, (1, 1, 1, 1)> = 110 exceeds the default 30, so the run exits 3
    instead of passing with 0 cases."""
    assert main(["verify", "adm", "--type", "F", "--rank", "4"]) == 3
    err = capsys.readouterr().err
    assert "<2 rho, (1, ..., 1)> = 110 exceeds the budget 30" in err
    code, rep = run_json(capsys, ["verify", "adm", "--type", "G", "--rank", "2"])
    assert code == 0 and rep["cases"] == 1


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["verify", "qbg", "--type", "all", "--rank", "3"],
         "--type all is for tables only, not the qbg suite"),
        (["verify", "adm", "--type", "all"], "--type all is for tables only"),
        (["tables", "--rank", "3"], "--rank needs a single --type"),
        (["tables", "--type", "all", "--rank", "2"], "--rank needs a single --type"),
        (["verify", "tables", "--rank", "2"], "--rank needs a single --type"),
        (["verify", "qbg", "--rank", "3"], "--rank needs a single --type"),
    ],
)
def test_scope_is_refused_not_coerced(capsys, argv, fragment):
    """``--type all`` names every type only for tables, and ``--rank``
    narrows the tables only under a single type: anything else is refused
    (exit 2), not run on A or on every rank."""
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_verify_defaults_to_a2(capsys):
    """With no --type, verify runs A2 (tables over every type is the
    golden-file test)."""
    code, rep = run_json(capsys, ["verify", "qbg"])
    assert code == 0 and (rep["type"], rep["rank"]) == ("A", 2)


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITES, "qbg", lambda rs, seed: (1, [{"check": "forced"}], {})
    )
    code, rep = run_json(
        capsys, ["verify", "qbg", "--type", "A", "--rank", "2"]
    )
    assert code == 1
    assert rep["passed"] is False
    assert rep["failures"] == [{"check": "forced"}]


@pytest.mark.parametrize("command", ["verify", "tables"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    """An --out path that cannot be opened is refused input (exit 2), not a
    verification failure (exit 1) or a traceback."""
    target = tmp_path / "missing" / "r.json"
    argv = [command, "--type", "A", "--rank", "2", "--out", str(target)]
    if command == "verify":
        argv.append("qbg")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}")
    assert not target.parent.exists()


def test_invariant_violation_exits_4(capsys, monkeypatch):
    def broken(rs, seed):
        raise InvariantError("forced")

    monkeypatch.setitem(cli._SUITES, "qbg", broken)
    assert main(["verify", "qbg", "--type", "A", "--rank", "2"]) == 4
    assert "forced" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verification suites (fast scopes)


@pytest.mark.parametrize("suite", ["qbg", "newton", "adm", "cascade"])
def test_suites_pass_on_a2(suite):
    rep = run_suite(suite, cartan_type="A", rank=2)
    assert rep["passed"] is True
    assert rep["cases"] > 0
    assert rep["failures"] == []


def test_cascade_suite_expected_mismatches_b4():
    rep = run_suite("cascade", cartan_type="B", rank=4)
    assert rep["passed"] is True
    words = {row["x_word"] for row in rep["expected_mismatches"]}
    assert "s2s4s3s2s1s4s3s2s4s3s4" in words
    assert len(words) == 24


@pytest.mark.parametrize("ct,n,cases", [("B", 2, 6), ("C", 2, 6), ("C", 3, 20)])
def test_cascade_suite_expects_no_witness_in_type_c(ct, n, cases):
    """Type C, and B2 = C2, has wt = r on every involution, as type A
    does, so its suite passes with no expected mismatches."""
    rep = run_suite("cascade", cartan_type=ct, rank=n)
    assert rep["passed"] is True
    assert rep["failures"] == []
    assert rep["cases"] == cases
    assert "expected_mismatches" not in rep


# sha256 of the `verify newton --type G --rank 2` report minus wall_time,
# in the layout of bench/workloads.py::report_digest, recorded when the
# brute maximum still read every state of the interval
NEWTON_G2_REPORT_DIGEST = (
    "e267287ab98ec890cd5abdc4f94c9e9510587dbc21cc776aaeb20aec8830415d"
)


def test_newton_suite_report_frozen_g2():
    rep = run_suite("newton", cartan_type="G", rank=2)
    rep.pop("wall_time")
    assert rep["cases"] == 48
    text = json.dumps(rep, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == NEWTON_G2_REPORT_DIGEST


def test_cover_suite_small():
    rep = run_suite("cover", cartan_type="A", rank=2)
    assert rep["passed"] is True


def test_tables_suite_small_scope():
    rep = run_suite("tables", cartan_type="G", rank=2)
    assert rep["passed"] is True
    assert rep["cases"] == 1


# sha256 of the `verify tables` report over every type, minus wall_time, as
# the CLI writes it; recorded before the cascade of w0 was checked per row
TABLES_REPORT_DIGEST = (
    "3424ce2d07ed01e9b5a8565d73e8a4c126ec6936f0d46ee01963410d647677b5"
)


def test_tables_suite_report_frozen():
    rep = run_suite("tables")
    rep.pop("wall_time")
    assert rep["cases"] == 32
    text = json.dumps(rep, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLES_REPORT_DIGEST


@pytest.mark.parametrize("ct,n,reasons", [
    # E8 has no brute-force columns: only the cascade of w0 catches it
    ("E", 8, ["cascade coroot sum [4, 8, 10, 14, 12, 8, 6, 2] differs from wt_w0"]),
    ("A", 2, ["brute-force columns disagree",
              "cascade coroot sum [1, 1] differs from wt_w0"]),
])
def test_tables_suite_names_a_wrong_wt_w0_row(capsys, monkeypatch, ct, n, reasons):
    """A wrong wt(w0) closed form fails its row, and only its row."""
    closed = cli.wt_w0_closed_form

    def wrong(ct_, n_):
        v = closed(ct_, n_)
        return v[:-1] + (v[-1] + 1,) if (ct_, n_) == (ct, n) else v

    monkeypatch.setattr(cli, "wt_w0_closed_form", wrong)
    code, rep = run_json(capsys, ["verify", "tables"])
    assert code == 1 and rep["cases"] == 32
    [failure] = rep["failures"]
    assert failure["table_row"] == f"{ct}{n}"
    assert failure["reasons"] == reasons


def test_qbg_suite_holds_one_search_at_a_time():
    """With the D5 graph built, the seeded qbg suite (436 distinct targets)
    allocates under 2 MB at its peak: one search to a target is about
    0.1 MB, and keeping every search alive until the end took about 20 MB."""
    build_qbg(build_root_system("D", 5)).all_ell_down()
    tracemalloc.start()
    try:
        rep = run_suite("qbg", cartan_type="D", rank=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["passed"] and rep["cases"] == 2420
    assert peak < 2 * 2**20, peak


def test_qbg_suite_reports_failures_in_pair_order(monkeypatch):
    """Searches run grouped by target, but a served value that disagrees is
    reported in the order of the seeded pairs, with the same fields."""
    g = build_qbg(build_root_system("D", 5))
    nv = len(g.table)
    rng = Random(0)
    pairs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(500)]
    # positions k1 < k2 < k3 with targets j, j2 < j, j: taking the targets
    # in first-seen or in sorted order would report them out of pair order
    first = {}
    for k3, (_, j) in enumerate(pairs):
        k1 = first.setdefault(j, k3)
        k2 = next((k for k in range(k1 + 1, k3) if pairs[k][1] < j), None)
        if k2 is not None:
            break
    chosen = [k1, k2, k3]
    wrong = {pairs[k] for k in chosen}
    real = QBGraph.wt
    monkeypatch.setattr(
        QBGraph, "wt",
        lambda self, x, y: (-1,) * 5 if (x, y) in wrong else real(self, x, y),
    )
    rep = run_suite("qbg", cartan_type="D", rank=5)
    words = g.table.words
    assert rep["failures"] == [
        {"x": word_str(words[i]), "y": word_str(words[j]),
         "check": "served-vs-search"}
        for i, j in pairs if (i, j) in wrong
    ]
    assert len(rep["failures"]) >= 3
    assert pairs[k1][1] == pairs[k3][1] > pairs[k2][1]
    assert rep["cases"] == 2420


def test_verify_reports_deterministic():
    a = run_suite("qbg", cartan_type="A", rank=2)
    b = run_suite("qbg", cartan_type="A", rank=2)
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b


def _python_O(*args):
    """Run the interpreter with asserts stripped, on this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(GOLDEN.parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_refusals_survive_python_O():
    """The --budget refusals and the library's budget rule, the --seed
    refusal outside qbg, a generator's index check, the
    integrality, coordinate-count and root-system checks on an affine
    element's parts, the coordinate count of a coweight, the root-system
    check on finite and affine products, on coweight sums, differences
    and dominance and on a group-table lookup, and the range and bool
    checks on a graph query's index are not asserts, and the checks a
    suite relies on still hold with asserts stripped."""

    def run(*args):
        return _python_O("-m", "adlv.cli", *args)

    res = run("query", "--type", "A", "--rank", "2", "--budget", "0", "len s1")
    assert res.returncode == 2 and "length budget must be an int >= 1" in res.stderr
    for flag, suite in (("--budget", "newton"), ("--seed", "adm")):
        res = run("verify", suite, flag, "5")
        assert res.returncode == 2 and f"does not read {flag}" in res.stderr
    res = run("verify", "newton", "--type", "A", "--rank", "2")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["passed"] is True
    res = _python_O("-c", _REFUSED_INPUTS)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "refused: translation part must be integral",
        "refused: translation part must be integral",
        "refused: 3 translation coordinates in rank 2",
        "refused: 1 translation coordinates in rank 2",
        "refused: finite part of a different root system",
        "refused: 3 coweight coordinates in rank 2",
        "refused: product of elements of different root systems",
        "refused: product of elements of different root systems",
        "refused: coweights of different root systems",
        "refused: coweights of different root systems",
        "refused: coweights of different root systems",
        "refused: element and table of different root systems",
        "refused: index -1 outside the group of order 6",
        "refused: index 6 outside the group of order 6",
        "refused: index True outside the group of order 6",
        "refused: index False outside the group of order 6",
        *(f"refused: a length budget must be an int >= 1, not {b}"
          for b in ("2.5", "True", "-1", "0", "'3'")),
        "refused: simple indices are ints in 0..1, not -1",
        *(f"refused: simple indices are ints in 0..1, not {i}" for i in ("5", "-1")),
        *(f"refused: letters must be ints in 0..2, got ({j},)"
          for j in ("3", "-1", "True", "3", "-1", "True")),
        *(f"refused: root indices are ints in 0..2, not {a}"
          for a in ("-1", "True", "1.0", "3", "None")),
        "B2 index of s2s1s2 intact: True",
    ]


_REFUSED_INPUTS = """
from fractions import Fraction
from adlv.adm import adm_set
from adlv.affine import AffineElt, descent_left, descent_right, embed
from adlv.errors import RefusalError
from adlv.qbg import build_qbg
from adlv.rootsys import build_root_system, coweight, dominance_leq
from adlv.weyl import enumerate_group, identity_elt, simple_reflection

a2, b2 = build_root_system("A", 2), build_root_system("B", 2)
g2 = build_root_system("G", 2)
e = identity_elt(a2)
s1, s2 = simple_reflection(b2, 0), simple_reflection(b2, 1)
s2s1s2 = s2.mul(s1).mul(s2)
for check in (
    lambda: AffineElt(a2, (Fraction(1, 2), 0), e),
    lambda: AffineElt(a2, (True, 0), e),
    lambda: AffineElt(a2, (1, 2, 3), e),
    lambda: AffineElt(a2, (1,), e),
    lambda: AffineElt(a2, (0, 0), identity_elt(b2)),
    lambda: coweight(a2, (1, 2, 3)),
    lambda: identity_elt(a2).mul(identity_elt(b2)),
    lambda: embed(identity_elt(a2)).mul(embed(identity_elt(b2))),
    lambda: coweight(a2, (1, 2)) + coweight(b2, (3, 4)),
    lambda: coweight(a2, (1, 2)) - coweight(b2, (3, 4)),
    lambda: dominance_leq(coweight(a2, (0, 0)), coweight(g2, (1, 1))),
    lambda: build_qbg(a2).wt1(s2s1s2),
    lambda: build_qbg(a2).wt1(-1),
    lambda: build_qbg(a2).wt1(6),
    lambda: build_qbg(a2).wt1(True),
    lambda: build_qbg(a2).d_gamma(False, 1),
    *(lambda b=b: adm_set(coweight(a2, (1, 0)), budget=b)
      for b in (2.5, True, -1, 0, "3")),
    lambda: simple_reflection(a2, -1),
    lambda: e.descent_left(5),
    lambda: e.descent_right(-1),
    *(lambda j=j, d=d: d(embed(e), j)
      for d in (descent_left, descent_right) for j in (3, -1, True)),
    # the graph built above filled the table's reflection cache
    *(lambda a=a: enumerate_group(a2).rmult_root(a) for a in (-1, True, 1.0, 3, None)),
):
    try:
        check()
    except RefusalError as err:
        print("refused:", err)
table = enumerate_group(b2)
print("B2 index of s2s1s2 intact:",
      table.elements[table.idx(s2s1s2)].to_word() == (1, 0, 1))
"""


_BROKEN_INVARIANTS = """
import copy
from unittest import mock
from adlv import adm, affine, cascade, cover, newton, rootsys, weyl
from adlv.affine import IntervalEngine, translation
from adlv.cover import _reflection_shape
from adlv.errors import InvariantError
from adlv.newton import _max_point
from adlv.qbg import QBGraph
from adlv.rootsys import build_root_system, coweight
from adlv.weyl import enumerate_group, identity_elt, simple_reflection

a2 = build_root_system("A", 2)


def replaced(rs, **changes):
    return rootsys.RootSystem(**{k: getattr(rs, k) for k in rs.__slots__} | changes)


no_quantum = replaced(a2, quantum_flags=(False,) * 3)
table = enumerate_group(a2)
sparse = IntervalEngine(enumerate_group(build_root_system("A", 4)), ())
flat = copy.copy(table)
flat.lengths = [0] * 6
swapped = copy.copy(table)  # the lengths of s1 (index 1) and w0 (index 5) exchanged
swapped.lengths = [0, 3, 1, 2, 2, 1]
unlinked = copy.copy(table)
unlinked.rmult_root = lambda a: list(range(6))
skewed = QBGraph(table)
for edges in skewed._down_in:  # one wrong packed coroot
    edges[:] = [(u, c + (c == skewed._inc[0])) for u, c in edges]
corrupt = weyl.GroupTable(a2)
corrupt.rmult[1][3] = 2  # claims s1 s2 * s2 = s2
t11 = translation(coweight(a2, (1, 1)))
real_length = affine.affine_length


def patched(owner, name, value, call):
    def run():
        with mock.patch.object(owner, name, value):
            call()
    return run


for check in (
    lambda: QBGraph(flat),
    lambda: QBGraph(swapped),
    lambda: [skewed.search(x) for x in range(6)],
    lambda: IntervalEngine(table, ()).pack((99, 0)),
    lambda: IntervalEngine(table, (0, 1, 0)).interval_states((0, 1, 0, 2, 0) * 8),
    lambda: sparse.interval_states((0,)),
    lambda: _max_point(a2, {((1, 0), 1), ((0, 1), 1)}),
    lambda: _reflection_shape(table, (1, 1), 0),
    lambda: cover.predicted_cocovers(identity_elt(no_quantum),
                                     coweight(no_quantum, (3, 3)),
                                     simple_reflection(no_quantum, 0)),
    patched(affine, "_descent_left", lambda rs, lam, row, j: False, lambda:
            affine.tau_word(t11)),
    patched(affine, "affine_length", lambda w: real_length(w) // 2, lambda:
            affine.tau_word(t11)),
    patched(affine, "_descent_left", lambda rs, lam, row, j: False, lambda:
            adm.eta(translation(coweight(a2, (-1, 2))))),
    lambda: cascade._dp_table(unlinked),
    lambda: cascade._ell_red_table(unlinked),
    patched(weyl.WeylElt, "descent_left", lambda w, i: False, lambda:
            simple_reflection(a2, 0).to_word()),
    patched(weyl.WeylElt, "descent_right", lambda w, i: True, lambda:
            weyl.longest_element.__wrapped__(a2)),
    patched(newton, "_dominantize", lambda rs, p: ((0, 0), []), lambda:
            newton.max_newton_formula(translation(coweight(a2, (1, -1))), force=True)),
    lambda: cascade.dp_root(
        replaced(a2, reflection_lengths=(2, 2, 2)), 0),
    lambda: corrupt.elements[3],
    patched(rootsys, "TYPE_TABLE", {**rootsys.TYPE_TABLE, "A":
        rootsys.TYPE_TABLE["A"]._replace(n_positive=lambda n: 0)}, lambda:
            rootsys._build_root_system.__wrapped__("A", 2)),
    patched(rootsys, "_edges_and_d", lambda ct, n: ([(0, 1), (0, 0)], (1, 1)),
            lambda: rootsys._build_root_system.__wrapped__("A", 2)),
    patched(rootsys, "transpose", lambda m: m, lambda:
            rootsys._build_root_system.__wrapped__("B", 2)),
):
    try:
        check()
    except InvariantError as e:
        print("raised:", e)
"""


def test_invariants_survive_python_O():
    """A graph with no edges, one whose distances to and from the identity
    break the packed-weight width bound (A2 with the lengths of s1 and w0
    swapped, which passes every other check) or one with a wrong packed
    coroot, a state outside the coweight box (packed, or reached by a
    letter 0 past the count an engine of either kind was sized for), two
    incomparable Newton points, a cocover step that is no reflection, a
    full drop through a root not listed as quantum, a word search that runs
    out of descents or leaves length behind, a coset walk ending off the
    dominant chamber, a table search that misses elements, finite descent and
    ascent searches that stop early, a Newton fold whose dominating element
    misses the dominant representative, a reflection of even length, a table
    element built through a corrupted multiplication entry, a root
    closure of the wrong size, a Cartan matrix with -1 on its diagonal
    (so <beta, beta_check> != 2) and coroot pairings read off the
    untransposed Cartan matrix (so a reflection leaves the roots) are
    refused by explicit checks, not asserts, so -O keeps them."""
    res = _python_O("-c", _BROKEN_INVARIANTS)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "raised: graph not strongly connected",
        "raised: an identity distance breaks the weight width bound",
        "raised: two shortest paths with different weights",
        "raised: interval state out of the coweight box",
        "raised: letter 0 past the 2 the box is sized for",
        "raised: letter 0 past the 0 the box is sized for",
        "raised: maximal Newton point is not unique",
        "raised: finite part of a cocover step is not a reflection",
        "raised: a full-drop ascent from u must use a quantum root",
        "raised: no descent on a length-positive element",
        "raised: peeling left descents left length behind",
        "raised: coset-minimal element does not have a dominant "
        "translation part",
        "raised: reflection search left an element unreached",
        "raised: reflection search left an element unreached",
        "raised: descents ran out off the identity",
        "raised: ascents ran out below w0",
        "raised: g(lambda) is not the dominant representative",
        "raised: reflection of even length",
        "raised: table element's row keys to another index",
        "raised: root closure produced 3 roots for A2",
        "raised: <beta, beta_check> != 2 for (1, 0) in A2",
        "raised: s_(0, 1) sends (1, 2) to (1, -1), not a root",
    ]


def test_cli_import_generates_no_code():
    """Importing the CLI loads neither ``dataclasses`` nor ``inspect``: its
    records are NamedTuples and slotted classes, so start-up executes no
    generated methods."""
    res = subprocess.run(
        [sys.executable, "-S", "-c", "import adlv.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(GOLDEN.parents[1])},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_rootsys_imports_no_module_above_it():
    """``rootsys`` is the bottom layer: in a fresh interpreter, importing it
    loads no ``adlv`` module other than ``errors`` and ``_matrix``."""
    res = subprocess.run(
        [sys.executable, "-S", "-c", "import adlv.rootsys, sys; "
         "print(sorted(m for m in sys.modules if m.startswith('adlv.')))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(GOLDEN.parents[1])},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "['adlv._matrix', 'adlv.errors', 'adlv.rootsys']\n"


def test_run_query_requires_scope():
    with pytest.raises(cli.QueryError):
        run_query("wt w0")
