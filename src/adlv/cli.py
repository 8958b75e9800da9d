"""Command-line front end: table regeneration, one-shot queries, and
verification suites with machine-readable reports.

Three subcommands:

``adlv tables``
    Emit the bound/weight tables (S, M-tilde, Xi, reflection length of w0,
    and the closed-form wt(w0) coefficients) for every type or one --type
    (and --rank), as json, csv, or markdown.  Small groups also carry
    brute-force cross-check columns.

``adlv query``
    Evaluate one expression.  Grammar: an operator followed by an element.
    Elements are whitespace-separated factors, each ``s<k>`` (simple
    reflection; ``s0`` is the affine one), ``w0`` (finite longest element),
    or ``t[c1,...,cn]`` (translation by pairing coordinates); factors
    multiply left to right.  Operators: nu, wt, eta, len, dp, ellred,
    elldown, cascade, admsize.  Integers, here and in --rank, --budget and
    --seed, are an optional sign then ASCII digits.

``adlv verify``
    Run a named suite (tables, qbg, newton, cover, adm, cascade) and write
    a json report; exit code 0 iff the suite passes.  The tables suite
    checks small groups' brute-force columns, and on every row that the
    cascade of w0 is a minimal quantum-reflection factorization with
    ell_R(w0) factors whose coroots sum to wt(w0).  The other suites run
    on one group (A2 with neither --type nor --rank), and adm exits 3 when
    it would check nothing.

Type and rank are checked against the per-type table in ``adlv.rootsys``,
and --budget by the library's rule ``affine.interval_budget``: absent, it
is ``affine.DEFAULT_INTERVAL_BUDGET``, read when the command runs.
A command that enumerates the finite Weyl group stops at the library's
group cap ``weyl.GROUP_CAP``, and one that builds the quantum Bruhat graph
(query wt, elldown, and nu where the closed form applies; verify qbg,
newton, adm and cascade) at the graph cap ``qbg.QBG_CAP``; both exit 3.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
refused input (including --budget below 1, --budget for a verify
suite other than adm, or --seed for one other than qbg) or an --out path
that cannot be written (``error: cannot write ...``), 3 budget exceeded,
4 internal invariant violated (a bug, not bad input).
Reports are deterministic for fixed flags and seed, except for the
wall_time field in verify reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from random import Random

from .adm import BInvariants, adm_set, d_adm, d_adm_brute, eta, product_set
from .affine import (
    AffineElt,
    affine_length,
    embed,
    interval_budget,
    simple_affine,
)
from .cascade import cascade_r, compare_wt_r, dp, ell_red
from .cover import cover_depth_threshold, cover_sweep
from .errors import BudgetError, InvariantError, RefusalError
from .newton import (
    max_newton_brute,
    max_newton_formula,
    s_bound,
    sweep_records,
    theorem_grid,
    xi_bound,
)
from .qbg import (
    build_qbg,
    compute_M,
    m_tilde,
    reflection_length_w0,
    verify_rqrd,
    wt_w0_closed_form,
)
from .rootsys import (
    TYPE_TABLE,
    WEYL_ORDER,
    build_root_system,
    check_type,
    coweight,
    pairing,
)
from .weyl import (
    enumerate_group,
    identity_elt,
    longest_element,
    reflection_length,
    word_str,
)

SCHEMA_VERSION = 1

# ranks covered by `tables --type all`; the S identity is asserted on each
ALL_TABLE_RANKS = {ct: row.table_ranks for ct, row in TYPE_TABLE.items()}

# groups this small get brute-force companion columns in the tables
TABLE_BRUTE_CAP = 10_000


class QueryError(ValueError):
    """Malformed query expression or usage; message names the offending
    token or flag."""


# -- tables ----------------------------------------------------------------


def table_rows(*, cartan_type: str | None = None, rank: int | None = None,
               with_brute: bool = False) -> list[dict]:
    """One row per (type, rank): the four tabulated bounds plus the wt(w0)
    coefficient vector; with ``with_brute`` set, small groups also carry
    brute-force companion columns."""
    if cartan_type in (None, "all"):
        if rank is not None:
            raise QueryError("--rank needs a single --type")
        scope = [(ct, n) for ct, ns in ALL_TABLE_RANKS.items() for n in ns]
    else:
        ct = check_type(cartan_type, rank)
        ns = ALL_TABLE_RANKS[ct] if rank is None else [rank]
        scope = [(ct, n) for n in ns]
    rows = []
    for ct, n in scope:
        row = {
            "type": ct,
            "rank": n,
            "S": s_bound(ct, n),
            "m_tilde": m_tilde(ct, n),
            "xi": xi_bound(ct, n),
            "ell_R_w0": reflection_length_w0(ct, n),
            "wt_w0": list(wt_w0_closed_form(ct, n)),
        }
        if with_brute and WEYL_ORDER(ct, n) <= TABLE_BRUTE_CAP:
            rs = build_root_system(ct, n)
            g = build_qbg(rs)
            row["wt_w0_brute"] = list(g.wt1(longest_element(rs)))
            row["M_computed"] = compute_M(rs)
            row["ell_R_w0_brute"] = reflection_length(longest_element(rs))
            row["match"] = (
                row["wt_w0_brute"] == row["wt_w0"]
                # the computed max is only promised to sit below the bound
                and row["M_computed"] <= row["m_tilde"]
                and row["ell_R_w0_brute"] == row["ell_R_w0"]
            )
        rows.append(row)
    return rows


def render_tables(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"schema_version": SCHEMA_VERSION, "tables": rows},
            indent=2,
            sort_keys=True,
        )
    cols = [
        "type", "rank", "S", "m_tilde", "xi", "ell_R_w0", "wt_w0",
    ]
    if any("match" in row for row in rows):
        cols.append("match")

    def cell(row, c):
        v = row.get(c, "")
        if isinstance(v, list):
            return "(" + ",".join(str(x) for x in v) + ")"
        return str(v)

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([cell(row, c) for c in cols])
        return buf.getvalue().rstrip("\n")
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(cols) + " |",
            "|" + "|".join("---" for _ in cols) + "|",
        ]
        for row in rows:
            lines.append(
                "| " + " | ".join(cell(row, c) for c in cols) + " |"
            )
        return "\n".join(lines)
    raise QueryError(f"unknown format {fmt!r}")


# -- query -----------------------------------------------------------------


def integer(text: str, tok: str = "") -> int:
    """An optional sign, then ASCII digits, as an int; QueryError naming the
    token otherwise, where ``int`` would also read '1_0', ' 1' or '١'."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise QueryError(f"bad integer {text!r} in token {tok or text!r}")
    return int(text)


def _parse_coords(tok: str, body: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(map(integer, body.split(",")))
    except QueryError:
        raise QueryError(f"bad coordinate list in token {tok!r}") from None
    if len(coords) != rank:
        raise QueryError(
            f"token {tok!r} has {len(coords)} coordinates; rank is {rank}"
        )
    return coords


def parse_element(rs, tokens: list[str]) -> AffineElt:
    """Product of the factors, left to right."""
    w = embed(identity_elt(rs))
    for tok in tokens:
        if tok == "w0":
            w = w.mul(embed(longest_element(rs)))
        elif tok.startswith("t[") and tok.endswith("]"):
            coords = _parse_coords(tok, tok[2:-1], rs.rank)
            w = w.mul(AffineElt(rs, coords, identity_elt(rs)))
        elif tok.startswith("s"):
            k = integer(tok[1:], tok)
            if not 0 <= k <= rs.rank:
                raise QueryError(
                    f"letter out of range in token {tok!r} (rank {rs.rank})"
                )
            w = w.mul(simple_affine(rs, k))
        else:
            raise QueryError(f"unknown token {tok!r}")
    return w


def _coords_json(pairing) -> list:
    out = []
    for c in pairing:
        f = Fraction(c)
        out.append(int(f) if f.denominator == 1 else str(f))
    return out


def _require_finite(w: AffineElt, op: str):
    if any(w.lam):
        raise QueryError(f"operator {op!r} needs a finite element")
    return w.fin


def run_query(expression: str, *, cartan_type: str | None = None,
              rank: int | None = None, budget: int | None = None) -> dict:
    """Evaluate one expression; ``budget`` (``affine.interval_budget``)
    bounds admsize's translation length and nu's brute-force sweep."""
    budget = interval_budget(budget)
    tokens = expression.split()
    if not tokens:
        raise QueryError("empty expression")
    if cartan_type in (None, "all") or rank is None:
        raise QueryError("query needs --type and --rank")
    rs = build_root_system(cartan_type, rank)
    op, rest = tokens[0], tokens[1:]
    result: dict = {
        "schema_version": SCHEMA_VERSION,
        "type": rs.cartan_type,
        "rank": rs.rank,
        "input": expression,
        "op": op,
    }

    if op == "admsize":
        if len(rest) != 1 or not (
            rest[0].startswith("[") and rest[0].endswith("]")
        ):
            raise QueryError("admsize takes one [c1,...,cn] coweight")
        mu = coweight(
            rs, _parse_coords(rest[0], rest[0][1:-1], rs.rank)
        )
        result["size"] = len(adm_set(mu, budget))
        return result

    w = parse_element(rs, rest)

    if op == "nu":
        methods = []
        nu = None
        try:
            fr = max_newton_formula(w)
            formula_status = fr.status
            if fr.value is not None:
                methods.append("formula")
                nu = fr.value.pairing
        except RefusalError as e:
            formula_status = f"refused: {e}"
        brute = None
        if affine_length(w) <= budget:
            brute = max_newton_brute(w).pairing
            methods.append("brute")
        elif nu is None:
            raise BudgetError(
                "element length exceeds --budget and the closed form does "
                "not apply"
            )
        result["method"] = "+".join(methods)
        result["formula_status"] = formula_status
        if nu is not None and brute is not None:
            result["match"] = tuple(nu) == tuple(brute)
        result["nu"] = _coords_json(brute if brute is not None else nu)
        return result

    if op == "wt":
        x = _require_finite(w, op)
        g = build_qbg(rs)
        result["wt"] = list(g.wt1(x))
        if x == longest_element(rs):
            closed = list(wt_w0_closed_form(rs.cartan_type, rs.rank))
            result["closed_form"] = closed
            result["match"] = closed == result["wt"]
        return result

    if op == "eta":
        result["eta"] = word_str(eta(w).to_word())
        return result

    if op == "len":
        result["len"] = affine_length(w)
        return result

    if op in ("dp", "ellred", "elldown", "cascade"):
        x = _require_finite(w, op)
        if op == "dp":
            result["dp"] = dp(x)
        elif op == "ellred":
            result["ell_red"] = ell_red(x)
        elif op == "elldown":
            result["ell_down"] = build_qbg(rs).ell_down(x)
        else:
            res = cascade_r(x)
            result["r"] = list(res.r)
            result["levels"] = [
                [list(b) for b in lvl] for lvl in res.E_levels
            ]
        return result

    raise QueryError(f"unknown operator {op!r}")


# -- verify ----------------------------------------------------------------


# Each suite takes the scoped root system (None for tables, which scopes
# itself) and, by keyword, the settings it reads; it returns (cases,
# failures, extra report keys).


def _w0_cascade_reasons(row: dict) -> list[str]:
    """Where the cascade of w0 disagrees with a table row.  Its roots are
    pairwise orthogonal, so their reflections commute and multiply to w0 in
    any order; they must form a minimal quantum factorization with ell_R_w0
    factors, and their coroots must sum to wt_w0: a length-additive path of
    ell_R(w0) down edges is a shortest one, and every shortest path carries
    wt(w0) (Postnikov, Proc. AMS 133 (2005))."""
    res = cascade_r(longest_element(build_root_system(row["type"], row["rank"])))
    factors = [beta for level in res.E_levels for beta in level]
    reasons = verify_rqrd(res.involution, factors).reasons
    if len(factors) != row["ell_R_w0"]:
        reasons.append(f"{len(factors)} cascade factors, not ell_R_w0")
    if list(res.r) != row["wt_w0"]:
        reasons.append(f"cascade coroot sum {list(res.r)} differs from wt_w0")
    return reasons


def _suite_tables(_rs: None, cartan_type: str | None,
                  rank: int | None) -> tuple[int, list, dict]:
    """Each row's brute-force columns, where the group is small, and on
    every row the cascade of w0 against ell_R_w0 and wt_w0."""
    cases, failures = 0, []
    for row in table_rows(cartan_type=cartan_type, rank=rank, with_brute=True):
        cases += 1
        reasons = _w0_cascade_reasons(row)
        if not row.get("match", True):
            reasons.insert(0, "brute-force columns disagree")
        if reasons:
            failures.append({"table_row": f"{row['type']}{row['rank']}",
                             "row": row, "reasons": reasons})
    return cases, failures, {}


def _suite_qbg(rs, seed: int) -> tuple[int, list, dict]:
    g = build_qbg(rs)  # construction itself checks weight consistency
    table = enumerate_group(rs)
    failures = []
    downs = g.all_ell_down()
    for i, wt in enumerate(g.all_wt1()):
        # 2 <rho, wt(x)> = ell(x) + ell_down(x)
        if 2 * sum(wt) != table.lengths[i] + downs[i]:
            failures.append({"x": word_str(table.words[i]),
                             "check": "rho-wt-length identity"})
    rng = Random(seed)
    nelts = len(table)
    pairs = (
        list(product(range(nelts), repeat=2))
        if nelts * nelts <= 4000
        else [(rng.randrange(nelts), rng.randrange(nelts))
              for _ in range(500)]
    )
    # served wt(x, y) and d_Gamma(x, y) against the search to y, one
    # search alive at a time (dropped before the next); failures in pair order
    by_dst: dict[int, list[int]] = {}
    for k, (_, j) in enumerate(pairs):
        by_dst.setdefault(j, []).append(k)
    bad = []
    for j, ks in by_dst.items():
        dist, wts = g.search(j)
        for k in ks:
            i = pairs[k][0]
            if g.wt(i, j) != g.decode(wts[i]) or g.d_gamma(i, j) != dist[i]:
                bad.append(k)
        del dist, wts
    failures += [{"x": word_str(table.words[pairs[k][0]]),
                  "y": word_str(table.words[pairs[k][1]]),
                  "check": "served-vs-search"} for k in sorted(bad)]
    return nelts + len(pairs), failures, {}


def _suite_newton(rs) -> tuple[int, list, dict]:
    recs = sweep_records(rs, theorem_grid(rs))
    failures = [
        {"lambda": r["lambda"], "x": r["x"], "nu_formula": r["nu_formula"],
         "nu_brute": r["nu_brute"]}
        for r in recs
        if not r["match"]
    ]
    return len(recs), failures, {}


def _suite_cover(rs) -> tuple[int, list, dict]:
    thr = cover_depth_threshold(rs.cartan_type)
    lams = [
        coweight(rs, p)
        for p in product((thr, thr + 1), repeat=rs.rank)
    ]
    reports = cover_sweep(rs, lams)
    failures = [
        {"u": r["u"], "lambda": r["lambda"], "v": r["v"],
         "missing": r["missing"], "extra": r["extra"]}
        for r in reports
        if not r["match"]
    ]
    return len(reports), failures, {}


def _suite_adm(rs, budget: int) -> tuple[int, list, dict]:
    n = rs.rank
    cases, failures = 1, []  # the d_adm check always runs
    ones = coweight(rs, (1,) * n)
    lt = pairing(rs, rs.two_rho, ones)
    if lt > budget:
        raise BudgetError(
            f"<2 rho, (1, ..., 1)> = {lt} exceeds the budget {budget}, so "
            "the adm suite would check nothing"
        )
    adm = adm_set(ones, budget)
    # additivity at the smallest regular lattice point, budget permitting
    if 2 * lt <= budget:
        cases += 1
        if product_set(adm, adm) != adm_set(ones + ones, budget).members:
            failures.append({"check": "additivity", "mu": [1] * n})
    # closed form vs exhaustive max of the virtual dimension
    b0 = BInvariants(coweight(rs, (0,) * n), 0)
    if d_adm(ones, b0).value != d_adm_brute(adm, b0):
        failures.append({"check": "d_adm-vs-brute", "mu": [1] * n})
    return cases, failures, {}


def _suite_cascade(rs) -> tuple[int, list, dict]:
    rep = compare_wt_r(rs)
    mism = [row for row in rep["rows"] if not row["match"]]
    # no witness in types A and C (measured through C5; B2 is C2)
    everywhere = rs.cartan_type in ("A", "C") or (rs.cartan_type, rs.rank) == ("B", 2)
    failures = []
    if everywhere and mism:
        failures = [{"check": "wt=r expected everywhere", "rows": mism}]
    if not everywhere and not mism:
        failures = [{"check": "a wt!=r witness was expected", "rows": []}]
    extras = {} if everywhere else {"expected_mismatches": mism}
    return rep["involutions"], failures, extras


_SUITES = {
    "tables": _suite_tables,
    "qbg": _suite_qbg,
    "newton": _suite_newton,
    "cover": _suite_cover,
    "adm": _suite_adm,
    "cascade": _suite_cascade,
}


def run_suite(suite: str, *, cartan_type: str | None = None,
              rank: int | None = None, budget: int | None = None,
              seed: int | None = None) -> dict:
    """Run one suite on its scope.  Only adm reads ``budget``
    (``affine.interval_budget``) and only qbg reads ``seed`` (None is 0)."""
    limit = interval_budget(budget)
    if suite not in _SUITES:
        raise QueryError(
            f"unknown suite {suite!r}; choose from {sorted(_SUITES)}"
        )
    # a flag a suite does not read is refused, not ignored
    if budget is not None and suite != "adm":
        raise QueryError(f"the {suite} suite does not read --budget; only adm does")
    if seed is not None and suite != "qbg":
        raise QueryError(f"the {suite} suite does not read --seed; only qbg does")
    t0 = time.perf_counter()
    if suite == "tables":
        ct, n, rs = cartan_type or "all", rank, None
    elif cartan_type == "all":
        raise QueryError(f"--type all is for tables only, not the {suite} suite")
    elif cartan_type is None and rank is not None:
        raise QueryError("--rank needs a single --type")
    else:
        # the other suites default to A2
        rs = build_root_system(cartan_type or "A", 2 if rank is None else rank)
        ct, n = rs.cartan_type, rs.rank
    reads = {"tables": {"cartan_type": cartan_type, "rank": rank},
             "qbg": {"seed": seed or 0}, "adm": {"budget": limit}}
    cases, failures, extras = _SUITES[suite](rs, **reads.get(suite, {}))
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "type": ct,
        "rank": n,
        "seed": seed or 0,
        "cases": cases,
        "failures": failures,
        "passed": not failures,
        **extras,
        "wall_time": round(time.perf_counter() - t0, 3),
    }
    return report


# -- plumbing --------------------------------------------------------------


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise QueryError(f"cannot write {out_path}: {e.strerror}") from e
    else:
        print(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 2 through ``main``
        raise QueryError(f"{message}\n{self.format_usage().rstrip()}")


@lru_cache(maxsize=None)  # one parser per process, reused by every ``main``
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="adlv",
        description="Exact affine Weyl group combinatorics toolkit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", dest="cartan_type", default=None,
                       help="Cartan type letter, or 'all' (tables only)")
        p.add_argument("--rank", type=integer, default=None)
        p.add_argument("--out", dest="out_path", default=None)

    pt = sub.add_parser("tables", help="emit the bound/weight tables")
    common(pt)
    pt.add_argument("--format", dest="output_format", default="json",
                    choices=("json", "csv", "markdown"))
    pt.add_argument("--check", dest="with_brute", action="store_true",
                    help="add brute-force companion columns on small groups")
    pq = sub.add_parser("query", help="evaluate one expression")
    pv = sub.add_parser("verify", help="run a verification suite")
    for p in (pq, pv):
        common(p)
        p.add_argument("--budget", type=integer,
                       help="largest element length to sweep (verify: adm only)")
    pq.add_argument("expression")
    pv.add_argument("--seed", type=integer,
                    help="seed of the sampled pairs (verify: qbg only)")
    pv.add_argument("suite")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # each subcommand defines only the flags it reads
        scope = {"cartan_type": args.cartan_type, "rank": args.rank}
        code = 0
        if args.command == "tables":
            rows = table_rows(**scope, with_brute=args.with_brute)
            text = render_tables(rows, args.output_format)
        elif args.command == "query":
            result = run_query(args.expression, **scope, budget=args.budget)
            text = json.dumps(result, indent=2, sort_keys=True)
        else:  # verify; argparse admits no other command
            report = run_suite(args.suite, **scope, budget=args.budget, seed=args.seed)
            text = json.dumps(report, indent=2, sort_keys=True)
            code = 0 if report["passed"] else 1
        _write_out(text, args.out_path)
        return code
    except ValueError as e:  # QueryError, RefusalError, bad type or rank
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except InvariantError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
