"""Command line interface: argument handling, exit codes, output formats,
query results, verification suites, and byte-stability of the shipped
tables."""

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
    RunConfig,
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
    config = RunConfig(output_format="json")
    assert render_tables(table_rows(config), "json") == render_tables(
        table_rows(config), "json"
    )


def test_tables_row_scope():
    rows = table_rows(RunConfig())
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
    assert w.fin.length() == 1 and w.fin.act_root((1, 0)) == (-1, 0)
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
        (["query", "--type", "A", "--rank", "2", "--budget", "0", "len s1"],
         "--budget must be positive"),
        # each subcommand refuses the flags it does not read
        (["query", "--type", "A", "--rank", "2", "--format", "csv",
          "--seed", "5", "len s1"], "unrecognized arguments: --format"),
        (["tables", "--budget", "7", "--seed", "3"],
         "unrecognized arguments: --budget 7 --seed 3"),
        # the group cap is the library's alone
        (["verify", "qbg", "--cap", "5"], "unrecognized arguments: --cap 5"),
    ],
)
def test_usage_errors_exit_2(capsys, argv, fragment):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_cap_and_budget_defaults_are_the_library_constants(monkeypatch):
    """--budget defaults to ``affine.DEFAULT_INTERVAL_BUDGET``, read when
    the command runs, so the command line does not restate it."""
    for budget in (affine.DEFAULT_INTERVAL_BUDGET, 3):
        monkeypatch.setattr(affine, "DEFAULT_INTERVAL_BUDGET", budget)
        for argv in (["query", "len s1"], ["verify", "adm"]):
            assert cli._build_parser().parse_args(argv).interval_budget == budget
        assert RunConfig().interval_budget == budget


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


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITES, "qbg", lambda config, rs: (1, [{"check": "forced"}], {})
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
    def broken(config, rs):
        raise InvariantError("forced")

    monkeypatch.setitem(cli._SUITES, "qbg", broken)
    assert main(["verify", "qbg", "--type", "A", "--rank", "2"]) == 4
    assert "forced" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verification suites (fast scopes)


@pytest.mark.parametrize("suite", ["qbg", "newton", "adm", "cascade"])
def test_suites_pass_on_a2(suite):
    rep = run_suite(
        RunConfig(cartan_type="A", rank=2), suite
    )
    assert rep["passed"] is True
    assert rep["cases"] > 0
    assert rep["failures"] == []


def test_cascade_suite_expected_mismatches_b4():
    rep = run_suite(RunConfig(cartan_type="B", rank=4), "cascade")
    assert rep["passed"] is True
    words = {row["x_word"] for row in rep["expected_mismatches"]}
    assert "s2s4s3s2s1s4s3s2s4s3s4" in words
    assert len(words) == 24


def test_cover_suite_small():
    rep = run_suite(RunConfig(cartan_type="A", rank=2), "cover")
    assert rep["passed"] is True


def test_tables_suite_small_scope():
    rep = run_suite(RunConfig(cartan_type="G", rank=2), "tables")
    assert rep["passed"] is True
    assert rep["cases"] == 1


def test_qbg_suite_holds_one_search_at_a_time():
    """With the D5 graph built, the seeded qbg suite (441 distinct sources)
    allocates under 2 MB at its peak: one forward search is about 0.1 MB,
    and keeping every search alive until the end took about 20 MB."""
    build_qbg(build_root_system("D", 5)).all_ell_down()
    tracemalloc.start()
    try:
        rep = run_suite(RunConfig("D", 5), "qbg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["passed"] and rep["cases"] == 2420
    assert peak < 2 * 2**20, peak


def test_qbg_suite_reports_failures_in_pair_order(monkeypatch):
    """Searches run grouped by source, but a served value that disagrees is
    reported in the order of the seeded pairs, with the same fields."""
    g = build_qbg(build_root_system("D", 5))
    nv = len(g.table)
    rng = Random(0)
    pairs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(500)]
    # positions k1 < k2 < k3 with sources i, i2 < i, i: taking the sources
    # in first-seen or in sorted order would report them out of pair order
    first = {}
    for k3, (i, _) in enumerate(pairs):
        k1 = first.setdefault(i, k3)
        k2 = next((k for k in range(k1 + 1, k3) if pairs[k][0] < i), None)
        if k2 is not None:
            break
    chosen = [k1, k2, k3]
    wrong = {pairs[k] for k in chosen}
    real = QBGraph.wt
    monkeypatch.setattr(
        QBGraph, "wt",
        lambda self, x, y: (-1,) * 5 if (x, y) in wrong else real(self, x, y),
    )
    rep = run_suite(RunConfig("D", 5), "qbg")
    words = g.table.words
    assert rep["failures"] == [
        {"x": word_str(words[i]), "y": word_str(words[j]),
         "check": "served-vs-search"}
        for i, j in pairs if (i, j) in wrong
    ]
    assert len(rep["failures"]) >= 3
    assert pairs[k1][0] == pairs[k3][0] > pairs[k2][0]
    assert rep["cases"] == 2420


def test_verify_reports_deterministic():
    config = RunConfig(cartan_type="A", rank=2)
    a = run_suite(config, "qbg")
    b = run_suite(config, "qbg")
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
    """The --budget refusal, the integrality, coordinate-count and
    root-system checks on an affine element's parts, the coordinate count
    of a coweight, the root-system check on finite and affine products, on
    coweight sums, differences and dominance and on a group-table lookup,
    and the range and bool checks on a graph query's index are not
    asserts, and the checks a suite relies on still hold with asserts
    stripped."""

    def run(*args):
        return _python_O("-m", "adlv.cli", *args)

    res = run("query", "--type", "A", "--rank", "2", "--budget", "0", "len s1")
    assert res.returncode == 2 and "--budget must be positive" in res.stderr
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
        "B2 index of s2s1s2 intact: True",
    ]


_REFUSED_INPUTS = """
from fractions import Fraction
from adlv.affine import AffineElt, embed
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
import dataclasses
from unittest import mock
from adlv import adm, affine, cascade, cover, rootsys, weyl
from adlv.affine import IntervalEngine, translation
from adlv.cover import _reflection_shape
from adlv.errors import InvariantError
from adlv.newton import _max_point
from adlv.qbg import QBGraph
from adlv.rootsys import build_root_system, coweight
from adlv.weyl import enumerate_group, identity_elt, simple_reflection

a2 = build_root_system("A", 2)
no_quantum = dataclasses.replace(a2, quantum_flags=(False,) * 3)
table = enumerate_group(a2)
sparse = IntervalEngine(enumerate_group(build_root_system("A", 4)), ())
flat = copy.copy(table)
flat.lengths = [0] * 6
unlinked = copy.copy(table)
unlinked.rmult_root = lambda a: list(range(6))
skewed = QBGraph(table)
for edges in skewed.down + skewed.down_in:  # one wrong packed coroot
    edges[:] = [(u, c + (c == skewed.inc[0])) for u, c in edges]
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
    lambda: [skewed.search(x) for x in range(6)],
    lambda: IntervalEngine(table, ()).pack((99, 0)),
    lambda: IntervalEngine(table, (0, 1, 0)).interval_states((0, 1, 0, 2, 0) * 8),
    lambda: sparse.interval_states((0,)),
    lambda: _max_point(a2, {((1, 0), 1), ((0, 1), 1)}),
    lambda: _reflection_shape(table, (1, 1), 0),
    lambda: cover.predicted_cocovers(identity_elt(no_quantum),
                                     coweight(no_quantum, (3, 3)),
                                     simple_reflection(no_quantum, 0)),
    patched(affine, "descent_left", lambda w, j: False, lambda:
            affine.reduced_word_and_tau(t11)),
    patched(affine, "affine_length", lambda w: real_length(w) // 2, lambda:
            affine.reduced_word_and_tau(t11)),
    patched(adm, "descent_left", lambda w, j: False, lambda:
            adm.eta(translation(coweight(a2, (-1, 2))))),
    lambda: cascade._dp_table(unlinked),
    lambda: cascade._ell_red_table(unlinked),
    patched(weyl.WeylElt, "descent_left", lambda w, i: False, lambda:
            simple_reflection(a2, 0).to_word()),
    patched(weyl.WeylElt, "descent_right", lambda w, i: True, lambda:
            weyl.longest_element.__wrapped__(a2)),
    patched(rootsys, "_dominantize", lambda rs, p: ((0, 0), []), lambda:
            rootsys.dominant_rep(coweight(a2, (1, -1)))),
    lambda: cascade.dp_root(
        dataclasses.replace(a2, reflection_lengths=(2, 2, 2)), 0),
    lambda: corrupt.elements[3],
    patched(rootsys, "TYPE_TABLE", {**rootsys.TYPE_TABLE, "A": dataclasses.replace(
        rootsys.TYPE_TABLE["A"], n_positive=lambda n: 0)}, lambda:
            rootsys._build_root_system.__wrapped__("A", 2)),
):
    try:
        check()
    except InvariantError as e:
        print("raised:", e)
"""


def test_invariants_survive_python_O():
    """A graph with no edges or with a wrong packed coroot, a state outside
    the coweight box (packed, or reached by a letter 0 past the count an
    engine of either kind was sized for), two
    incomparable Newton points, a cocover step that is no reflection, a
    full drop through a root not listed as quantum, a word search that runs
    out of descents or leaves length behind, a coset walk ending off the
    dominant chamber, a table search that misses elements, finite descent and
    ascent searches that stop early, a dominating element that misses the
    dominant representative, a reflection of even length, a table
    element built through a corrupted multiplication entry and a root
    closure of the wrong size are refused by explicit checks, not asserts,
    so -O keeps them."""
    res = _python_O("-c", _BROKEN_INVARIANTS)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "raised: graph not strongly connected",
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
        "raised: dp search left an element unreached",
        "raised: ell_red search left an element unreached",
        "raised: descents ran out off the identity",
        "raised: ascents ran out below w0",
        "raised: g(lambda) is not the dominant representative",
        "raised: reflection of even length",
        "raised: table element's matrix keys to another index",
        "raised: root closure produced 3 roots for A2",
    ]


def test_run_query_requires_scope():
    with pytest.raises(cli.QueryError):
        run_query(RunConfig(), "wt w0")
