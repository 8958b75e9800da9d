"""Command-line front end: table regeneration, one-shot queries, and
verification suites with machine-readable reports.

Three subcommands:

``adlv tables``
    Emit the bound/weight tables (S, M-tilde, Xi, reflection length of w0,
    and the closed-form wt(w0) coefficients), optionally restricted by
    --type/--rank, as json, csv, or markdown.  Small groups also carry
    brute-force cross-check columns.

``adlv query``
    Evaluate one expression.  Grammar: an operator followed by an element.
    Elements are whitespace-separated factors, each ``s<k>`` (simple
    reflection; ``s0`` is the affine one), ``w0`` (finite longest element),
    or ``t[c1,...,cn]`` (translation by pairing coordinates); factors
    multiply left to right.  Operators: nu, wt, eta, len, dp, ellred,
    elldown, cascade, admsize.

``adlv verify``
    Run a named suite (tables, qbg, newton, cover, adm, cascade) and write
    a json report; exit code 0 iff the suite passes.

Type and rank are checked against the per-type table in ``adlv.rootsys``.
A command that enumerates the finite Weyl group stops at the library's
group cap ``weyl.GROUP_CAP``, and one that builds the quantum Bruhat graph
(query wt, elldown, and nu where the closed form applies; verify qbg,
newton, adm and cascade) at the graph cap ``qbg.QBG_CAP``; both exit 3.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
refused input (including --budget below 1) or an --out path that
cannot be written (``error: cannot write ...``), 3 budget exceeded,
4 internal invariant violated (a bug, not bad input).
Reports are deterministic for a fixed config and seed, except for the
wall_time field in verify reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from itertools import product
from random import Random

from . import affine
from .adm import BInvariants, adm_set, d_adm, d_adm_brute, eta, product_set
from .affine import (
    AffineElt,
    affine_length,
    embed,
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


@dataclass
class RunConfig:
    cartan_type: str | None = None
    rank: int | None = None
    # the library's bound, read when a config is made
    interval_budget: int = field(default_factory=lambda: affine.DEFAULT_INTERVAL_BUDGET)
    sweep_seed: int = 0
    output_format: str = "json"
    with_brute: bool = False

    def __post_init__(self):
        if self.interval_budget <= 0:
            raise QueryError(
                f"--budget must be positive, got {self.interval_budget}"
            )


# -- tables ----------------------------------------------------------------


def table_rows(config: RunConfig) -> list[dict]:
    """One row per (type, rank): the four tabulated bounds plus the wt(w0)
    coefficient vector; with ``with_brute`` set, small groups also carry
    brute-force companion columns."""
    if config.cartan_type in (None, "all"):
        scope = [(ct, n) for ct, ns in ALL_TABLE_RANKS.items() for n in ns]
    else:
        ct = check_type(config.cartan_type, config.rank)
        ns = ALL_TABLE_RANKS[ct] if config.rank is None else [config.rank]
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
        if config.with_brute and WEYL_ORDER(ct, n) <= TABLE_BRUTE_CAP:
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


def _parse_coords(tok: str, body: str, rank: int) -> tuple[int, ...]:
    parts = [p.strip() for p in body.split(",")]
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
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
        elif tok.startswith("s") and tok[1:].isdigit():
            k = int(tok[1:])
            if k > rs.rank:
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


def run_query(config: RunConfig, expression: str) -> dict:
    tokens = expression.split()
    if not tokens:
        raise QueryError("empty expression")
    if config.cartan_type in (None, "all") or config.rank is None:
        raise QueryError("query needs --type and --rank")
    rs = build_root_system(config.cartan_type, config.rank)
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
        result["size"] = len(adm_set(mu, budget=config.interval_budget))
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
        if affine_length(w) <= config.interval_budget:
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


# Each suite takes the config and the scoped root system (None for tables,
# which scopes itself) and returns (cases, failures, extra report keys).


def _suite_tables(config: RunConfig, _rs: None) -> tuple[int, list, dict]:
    cases, failures = 0, []
    for row in table_rows(replace(config, with_brute=True)):
        cases += 1
        if "match" in row and not row["match"]:
            failures.append(
                {"table_row": f"{row['type']}{row['rank']}", "row": row}
            )
    return cases, failures, {}


def _suite_qbg(config: RunConfig, rs) -> tuple[int, list, dict]:
    g = build_qbg(rs)  # construction itself checks weight consistency
    table = enumerate_group(rs)
    failures = []
    downs = g.all_ell_down()
    for i, wt in enumerate(g.all_wt1()):
        # 2 <rho, wt(x)> = ell(x) + ell_down(x)
        if 2 * sum(wt) != table.lengths[i] + downs[i]:
            failures.append({"x": word_str(table.words[i]),
                             "check": "rho-wt-length identity"})
    rng = Random(config.sweep_seed)
    nelts = len(table)
    pairs = (
        list(product(range(nelts), repeat=2))
        if nelts * nelts <= 4000
        else [(rng.randrange(nelts), rng.randrange(nelts))
              for _ in range(500)]
    )
    # served wt(x, y) and d_Gamma(x, y) against the search from x, one
    # search alive at a time (dropped before the next); failures in pair order
    by_src: dict[int, list[int]] = {}
    for k, (i, _) in enumerate(pairs):
        by_src.setdefault(i, []).append(k)
    bad = []
    for i, ks in by_src.items():
        dist, wts = g.search(i)
        for k in ks:
            j = pairs[k][1]
            if g.wt(i, j) != g.decode(wts[j]) or g.d_gamma(i, j) != dist[j]:
                bad.append(k)
        del dist, wts
    failures += [{"x": word_str(table.words[pairs[k][0]]),
                  "y": word_str(table.words[pairs[k][1]]),
                  "check": "served-vs-search"} for k in sorted(bad)]
    return nelts + len(pairs), failures, {}


def _suite_newton(config: RunConfig, rs) -> tuple[int, list, dict]:
    recs = sweep_records(rs, theorem_grid(rs))
    failures = [
        {"lambda": r["lambda"], "x": r["x"], "nu_formula": r["nu_formula"],
         "nu_brute": r["nu_brute"]}
        for r in recs
        if not r["match"]
    ]
    return len(recs), failures, {}


def _suite_cover(config: RunConfig, rs) -> tuple[int, list, dict]:
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


def _suite_adm(config: RunConfig, rs) -> tuple[int, list, dict]:
    n = rs.rank
    cases, failures = 0, []
    ones = coweight(rs, (1,) * n)
    lt = pairing(rs, rs.two_rho, ones)
    # additivity at the smallest regular lattice point, budget permitting
    if 2 * lt <= config.interval_budget:
        A1 = adm_set(ones, budget=config.interval_budget)
        A2 = adm_set(ones + ones, budget=config.interval_budget)
        cases += 1
        if product_set(A1, A1) != A2.members:
            failures.append({"check": "additivity", "mu": [1] * n})
    # closed form vs exhaustive max of the virtual dimension
    if lt <= config.interval_budget:
        b0 = BInvariants(coweight(rs, (0,) * n), 0)
        cases += 1
        if d_adm(ones, b0).value != d_adm_brute(
            ones, b0, budget=config.interval_budget
        ):
            failures.append({"check": "d_adm-vs-brute", "mu": [1] * n})
    return cases, failures, {}


def _suite_cascade(config: RunConfig, rs) -> tuple[int, list, dict]:
    ct = rs.cartan_type
    rep = compare_wt_r(rs)
    mism = [row for row in rep["rows"] if not row["match"]]
    failures = []
    if ct == "A" and mism:
        failures = [{"check": "wt=r expected everywhere", "rows": mism}]
    if ct != "A" and not mism:
        failures = [{"check": "a wt!=r witness was expected", "rows": []}]
    extras = {} if ct == "A" else {"expected_mismatches": mism}
    return rep["involutions"], failures, extras


_SUITES = {
    "tables": _suite_tables,
    "qbg": _suite_qbg,
    "newton": _suite_newton,
    "cover": _suite_cover,
    "adm": _suite_adm,
    "cascade": _suite_cascade,
}


def run_suite(config: RunConfig, suite: str) -> dict:
    if suite not in _SUITES:
        raise QueryError(
            f"unknown suite {suite!r}; choose from {sorted(_SUITES)}"
        )
    t0 = time.perf_counter()
    if suite == "tables":
        ct, n, rs = config.cartan_type or "all", config.rank, None
    else:
        # the other suites default to A2
        rs = build_root_system(
            "A" if config.cartan_type in (None, "all") else config.cartan_type,
            2 if config.rank is None else config.rank,
        )
        ct, n = rs.cartan_type, rs.rank
    cases, failures, extras = _SUITES[suite](config, rs)
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "type": ct,
        "rank": n,
        "seed": config.sweep_seed,
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


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="adlv",
        description="Exact affine Weyl group combinatorics toolkit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", dest="cartan_type", default=None,
                       help="Cartan type letter, or 'all' (tables only)")
        p.add_argument("--rank", type=int, default=None)
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
        p.add_argument("--budget", dest="interval_budget", type=int,
                       default=affine.DEFAULT_INTERVAL_BUDGET,
                       help="largest element length to sweep")
    pq.add_argument("expression")
    pv.add_argument("--seed", dest="sweep_seed", type=int, default=0)
    pv.add_argument("suite")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # each subcommand defines only the flags it reads
        names = {f.name for f in fields(RunConfig)}
        config = RunConfig(**{k: v for k, v in vars(args).items() if k in names})
        code = 0
        if args.command == "tables":
            text = render_tables(table_rows(config), config.output_format)
        elif args.command == "query":
            text = json.dumps(run_query(config, args.expression), indent=2,
                              sort_keys=True)
        else:  # verify; argparse admits no other command
            report = run_suite(config, args.suite)
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
