"""Acceptance gate: ten end-to-end checks, one per release criterion.

Each test prints a single ``CRITERION n: PASS/FAIL`` line (visible with
``pytest -s`` and in the captured output of failures) and asserts the
same condition, so the suite outcome and the printed report agree.

Everything here is exact integer/rational arithmetic: no tolerances.
"""

import time
from fractions import Fraction
from itertools import product
from pathlib import Path

from adlv.adm import (
    BInvariants,
    adm_membership_char,
    adm_set,
    d_adm,
    d_adm_brute,
    dim_X_formula,
    eta,
    min_dgamma,
    product_set,
    virtual_dim,
)
from adlv.affine import (
    AffineElt,
    affine_length,
    demazure_ltri,
    demazure_rtri,
    demazure_star,
    embed,
    lower_union,
    simple_affine,
)
from adlv.cascade import cascade_r, compare_wt_r, dp, dp_all, ell_red, ell_red_all
from adlv.cli import ALL_TABLE_RANKS, RunConfig, render_tables, table_rows
from adlv.cover import cover_depth_threshold, cover_sweep, sample_triples, verify_cover_theorem
from adlv.newton import s_bound, sweep_records, theorem_grid, xi_bound
from adlv.qbg import (
    build_qbg,
    reflection_length_w0,
    verify_rqrd,
    w0_rqrd_exhibit,
    wt_w0_closed_form,
)
from adlv.rootsys import build_root_system, coweight
from adlv.weyl import (
    enumerate_group,
    identity_elt,
    longest_element,
    reflection_length,
)

from oracles import bruhat_leq_affine, bruhat_masks, from_word, pair_root_coroot

GOLDEN = Path(__file__).resolve().parents[1] / "src" / "adlv" / "golden"

RANK_LE_3 = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
             ("C", 2), ("C", 3), ("G", 2)]
RANK_LE_4 = RANK_LE_3 + [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)]


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------


def test_criterion_01_table_reproduction():
    """Shipped tables regenerate byte-identically; the S column equals
    <theta, 2 rho_check> recomputed from raw root data for every rank."""
    t0 = time.perf_counter()
    rows = table_rows(RunConfig())
    json_bytes = (render_tables(rows, "json") + "\n").encode()
    md_bytes = (render_tables(rows, "markdown") + "\n").encode()
    ok_json = json_bytes == (GOLDEN / "tables_all.json").read_bytes()
    ok_md = md_bytes == (GOLDEN / "tables_all.md").read_bytes()
    again = (render_tables(table_rows(RunConfig()), "json") + "\n").encode()
    ok_stable = again == json_bytes

    checked = 0
    ok_s = True
    for ct, ranks in ALL_TABLE_RANKS.items():
        for n in ranks:
            rs = build_root_system(ct, n)
            s_raw = sum(
                pair_root_coroot(rs, rs.theta, bc)
                for bc in rs.positive_coroots
            )
            if s_raw != s_bound(ct, n):
                ok_s = False
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok_json and ok_md and ok_stable and ok_s and elapsed < 10.0
    _report(
        1,
        ok,
        f"json={ok_json} md={ok_md} stable={ok_stable} "
        f"S-identity {checked} rows ok={ok_s} in {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_wt_w0_closed_forms():
    """Breadth-first wt(w0) equals the closed forms across the listed
    types; the big exceptional exhibits check out as minimal
    factorizations with rank-many factors."""
    t0 = time.perf_counter()
    scope = (
        [("A", n) for n in range(1, 6)]
        + [("B", n) for n in range(2, 6)]
        + [("C", n) for n in range(2, 6)]
        + [("D", n) for n in (4, 5)]
        + [("E", 6), ("F", 4), ("G", 2)]
    )
    mismatch = []
    for ct, n in scope:
        rs = build_root_system(ct, n)
        g = build_qbg(rs)
        if g.wt1(longest_element(rs)) != wt_w0_closed_form(ct, n):
            mismatch.append(f"{ct}{n}")
    exhibits_ok = True
    for ct, n in (("E", 7), ("E", 8)):
        rs = build_root_system(ct, n)
        factors = w0_rqrd_exhibit(ct, n)
        rep = verify_rqrd(longest_element(rs), factors)
        if not (rep.ok and rep.factor_count == n):
            exhibits_ok = False
    elapsed = time.perf_counter() - t0
    ok = not mismatch and exhibits_ok and elapsed < 120.0
    _report(
        2,
        ok,
        f"{len(scope)} closed forms (incl E6), mismatches={mismatch}, "
        f"E7/E8 exhibits ok={exhibits_ok} in {elapsed:.1f}s (<120s)",
    )


def test_criterion_03_newton_formula_grid():
    """lambda - wt(x) equals the brute-force interval maximum for every
    finite part and every dominant integral lambda in the two-layer band
    above the depth bound, in the three rank-2 systems."""
    t0 = time.perf_counter()
    total, bad = 0, []
    for ct in ("A", "B", "G"):
        rs = build_root_system(ct, 2)
        grid = theorem_grid(rs)
        xi = xi_bound(ct, 2)
        assert grid, "empty grid"
        for lam in grid:
            depth = min(lam.pairing)
            assert xi < depth <= xi + 2
            assert lam.is_dominant() and lam.is_regular()
        recs = sweep_records(rs, grid)
        n_w = len(enumerate_group(rs))
        assert len(recs) == len(grid) * n_w
        total += len(recs)
        bad += [r for r in recs if not r["match"]]
    elapsed = time.perf_counter() - t0
    _report(
        3,
        not bad and elapsed < 10.0,
        f"{total} (lambda, x) comparisons across A2/B2/G2, "
        f"{len(bad)} mismatches in {elapsed:.1f}s (<10s)",
    )


def test_criterion_04_cover_prediction():
    """Predicted cocover sets equal exhaustive enumeration for every
    w = t^lam v on the three-layer depth grid in A2/B2/G2, and on a
    200-element sample in A3."""
    t0 = time.perf_counter()
    total, bad = 0, 0
    for ct in ("A", "B", "G"):
        rs = build_root_system(ct, 2)
        thr = cover_depth_threshold(ct)
        lams = [
            coweight(rs, c)
            for c in product(range(thr, thr + 3), repeat=2)
        ]
        reports = cover_sweep(rs, lams)
        assert len(reports) == 9 * len(enumerate_group(rs))
        total += len(reports)
        bad += sum(
            1
            for r in reports
            if not r["match"] or r["below_threshold"]
        )
    # A3 sample: distinct w = t^lam v drawn from seeded triples
    a3 = build_root_system("A", 3)
    thr = cover_depth_threshold("A")
    seen = set()
    e = identity_elt(a3)
    for _, lam, v in sample_triples(a3, 260, thr, thr + 2, seed=0):
        key = (
            tuple(lam.pairing),
            tuple(v.act_root(r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        )
        if key in seen:
            continue
        seen.add(key)
        rep = verify_cover_theorem(e, lam, v)
        total += 1
        if not rep["match"] or rep["below_threshold"]:
            bad += 1
        if len(seen) >= 200:
            break
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and len(seen) >= 200 and elapsed < 10.0
    _report(
        4,
        ok,
        f"{total} cover comparisons (A2/B2/G2 exhaustive, "
        f"{len(seen)} sampled A3), {bad} mismatches in {elapsed:.1f}s (<10s)",
    )


def test_criterion_05_qbg_identities():
    """Weight uniqueness, Bruhat monotonicity, the min-fold identity,
    and the rho pairing identity, each at its stated exhaustive scope."""
    t0 = time.perf_counter()
    # (a) shortest-path weight uniqueness, independent layered search
    uniq_ok = True
    for ct in ("A", "B", "G"):
        rs = build_root_system(ct, 2)
        g = build_qbg(rs)
        t = g.table
        n = len(t)
        zero = (0,) * rs.rank
        for src in range(n):
            dist = {src: 0}
            wsets = {src: {(0,) * rs.rank}}
            frontier = [src]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in g.up[v] + [u for u, _ in g.down[v]]:
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            nxt.append(u)
                frontier = nxt
            order = sorted(dist, key=dist.get)
            for v in order:
                if v == src:
                    continue
                acc = set()
                for u, gamma in [(u, zero) for u in g.up_in[v]] + [
                    (u, rs.positive_coroots[
                        t.reflections.index(t.prod_idx(t.inv_idx(u), v))])
                    for u, _ in g.down_in[v]
                ]:
                    if u in dist and dist[u] + 1 == dist[v]:
                        acc |= {
                            tuple(w + c for w, c in zip(ws, gamma))
                            for ws in wsets[u]
                        }
                wsets[v] = acc
                if len(acc) != 1 or next(iter(acc)) != g.wt(src, v):
                    uniq_ok = False
    # (b) monotonicity and (d) rho identity at rank <= 4
    mono_ok = rho_ok = True
    for ct, n in RANK_LE_4:
        rs = build_root_system(ct, n)
        g = build_qbg(rs)
        table = enumerate_group(rs)
        wts = g.all_wt1()
        downs = g.all_ell_down()
        masks = bruhat_masks(table)
        for j in range(len(table)):
            if 2 * sum(wts[j]) != table.lengths[j] + downs[j]:
                rho_ok = False
            for i in _bits(masks[j]):
                if any(a > b for a, b in zip(wts[i], wts[j])):
                    mono_ok = False
    # (c) wt(x,y) = wt(x^{-1} <| y) at rank <= 3, wt(x, y) read off the
    # forward search from x
    fold_ok = True
    for ct, n in RANK_LE_3:
        rs = build_root_system(ct, n)
        g = build_qbg(rs)
        table = enumerate_group(rs)
        embeds = [embed(x) for x in table.elements]
        inv_embeds = [embed(x.inv()) for x in table.elements]
        for i in range(len(table)):
            _, wts = g.search(i)
            for j in range(len(table)):
                folded = demazure_ltri(inv_embeds[i], embeds[j]).fin
                if g.decode(wts[j]) != g.wt1(folded):
                    fold_ok = False
    elapsed = time.perf_counter() - t0
    ok = uniq_ok and mono_ok and fold_ok and rho_ok
    _report(
        5,
        ok,
        f"uniqueness={uniq_ok} monotonic={mono_ok} min-fold={fold_ok} "
        f"rho-identity={rho_ok} in {elapsed:.1f}s",
    )


def test_criterion_06_demazure_oracles():
    """Max-fold and the two min-folds agree with literal extrema over
    lower-set products: exhaustively for finite pairs at rank <= 3, and
    for affine pairs within length 8."""
    t0 = time.perf_counter()
    finite_bad = 0
    for ct, n in RANK_LE_3:
        rs = build_root_system(ct, n)
        table = enumerate_group(rs)
        masks = bruhat_masks(table)
        lows = [list(_bits(masks[i])) for i in range(len(table))]
        embeds = [embed(x) for x in table.elements]
        lengths = table.lengths

        def leq(i, j):
            return (masks[j] >> i) & 1

        for ix in range(len(table)):
            for iy in range(len(table)):
                prods = {
                    table.prod_idx(u, v)
                    for u in lows[ix]
                    for v in lows[iy]
                }
                star = table.idx(
                    demazure_star(embeds[ix], embeds[iy]).fin
                )
                if star not in prods or any(
                    not leq(p, star) for p in prods
                ):
                    finite_bad += 1
                right = {table.prod_idx(u, iy) for u in lows[ix]}
                rtri = table.idx(
                    demazure_rtri(embeds[ix], embeds[iy]).fin
                )
                if rtri not in right or any(
                    not leq(rtri, p) for p in right
                ):
                    finite_bad += 1
                left = {table.prod_idx(ix, v) for v in lows[iy]}
                ltri = table.idx(
                    demazure_ltri(embeds[ix], embeds[iy]).fin
                )
                if ltri not in left or any(
                    not leq(ltri, p) for p in left
                ):
                    finite_bad += 1

    # affine pairs: exhaustive ball in the rank-1 affine group with both
    # factors of length <= 8, and the rank-2 ball with length sum <= 8
    affine_bad = 0
    affine_pairs = 0

    def ball(rs, radius):
        e = embed(identity_elt(rs))
        out = {e: 0}
        frontier = [e]
        while frontier:
            nxt = []
            for w in frontier:
                if out[w] == radius:
                    continue
                for i in range(rs.rank + 1):
                    u = w.mul(simple_affine(rs, i))
                    if u not in out and affine_length(u) == out[w] + 1:
                        out[u] = out[w] + 1
                        nxt.append(u)
            frontier = nxt
        return out

    def check_affine(rs, pairs, lows):
        bad = 0
        for x, y in pairs:
            prods = {u.mul(v) for u in lows[x] for v in lows[y]}
            star = demazure_star(x, y)
            if star not in prods or any(
                not bruhat_leq_affine(p, star) for p in prods
            ):
                bad += 1
            right = {u.mul(y) for u in lows[x]}
            rtri = demazure_rtri(x, y)
            if rtri not in right or any(
                not bruhat_leq_affine(rtri, p) for p in right
            ):
                bad += 1
            left = {x.mul(v) for v in lows[y]}
            ltri = demazure_ltri(x, y)
            if ltri not in left or any(
                not bruhat_leq_affine(ltri, p) for p in left
            ):
                bad += 1
        return bad

    a1 = build_root_system("A", 1)
    b1 = ball(a1, 8)
    lows1 = {w: lower_union([w], 40) for w in b1}
    pairs1 = [(x, y) for x in b1 for y in b1]
    affine_pairs += len(pairs1)
    affine_bad += check_affine(a1, pairs1, lows1)

    a2 = build_root_system("A", 2)
    b2 = ball(a2, 8)
    lows2 = {w: lower_union([w], 40) for w in b2}
    pairs2 = [
        (x, y) for x in b2 for y in b2 if b2[x] + b2[y] <= 8
    ]
    affine_pairs += len(pairs2)
    affine_bad += check_affine(a2, pairs2, lows2)

    elapsed = time.perf_counter() - t0
    ok = finite_bad == 0 and affine_bad == 0
    _report(
        6,
        ok,
        f"finite pairs rank<=3: {finite_bad} bad; affine pairs "
        f"({affine_pairs} total): {affine_bad} bad in {elapsed:.1f}s",
    )


def test_criterion_07_admissible_sets():
    """Additivity of admissible sets, the size-5 rank-1 set, and the
    membership characterization against plain enumeration."""
    t0 = time.perf_counter()
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)

    add_ok = True
    for rs, mu_c in ((a1, (2,)), (a2, (1, 1))):
        a = adm_set(coweight(rs, mu_c))
        double = adm_set(
            coweight(rs, tuple(2 * c for c in mu_c))
        )
        if product_set(a, a) != double.members:
            add_ok = False

    size_ok = len(adm_set(coweight(a1, (2,))).members) == 5

    # membership characterization versus enumeration, inside its regime
    mu = coweight(a2, (7, 7))
    members = adm_set(mu, budget=60).members
    char_bad = 0
    char_cases = 0
    for lam_c in ((7, 7), (5, 8), (8, 5)):
        lam = coweight(a2, lam_c)
        lam_int = tuple(int(p) for p in lam.pairing)
        t = AffineElt(a2, lam_int, identity_elt(a2))
        for x in enumerate_group(a2).elements:
            for y in enumerate_group(a2).elements:
                w = embed(x).mul(t).mul(embed(y))
                res = adm_membership_char(x, lam, y, mu)
                char_cases += 1
                if res.status != "ok" or res.value != (w in members):
                    char_bad += 1
    elapsed = time.perf_counter() - t0
    ok = add_ok and size_ok and char_bad == 0
    _report(
        7,
        ok,
        f"additivity={add_ok} |Adm(alpha_check)|=5:{size_ok} "
        f"membership {char_cases} cases, {char_bad} bad in {elapsed:.1f}s",
    )


def test_criterion_08_dimension_ingredients():
    """The graph-distance minimum to the w0 translate equals the
    reflection length of w0, and the closed-form d_adm equals the
    exhaustive maximum of virtual dimensions over the admissible set."""
    t0 = time.perf_counter()
    scope = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)]
    dg_bad = [
        f"{ct}{n}"
        for ct, n in scope
        if min_dgamma(build_root_system(ct, n))
        != reflection_length_w0(ct, n)
    ]
    dadm_ok = True
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)
    for rs, mu_c in ((a1, (2,)), (a2, (2, 2))):
        for nu_c, defect in (((0,) * rs.rank, 0), ((1,) * rs.rank, 1)):
            b = BInvariants(coweight(rs, nu_c), defect)
            mu = coweight(rs, mu_c)
            res = d_adm(mu, b)
            if res.status != "ok" or res.value != d_adm_brute(mu, b):
                dadm_ok = False
    elapsed = time.perf_counter() - t0
    ok = not dg_bad and dadm_ok and elapsed < 5.0
    _report(
        8,
        ok,
        f"min-distance identity bad={dg_bad or 'none'} "
        f"d_adm=brute:{dadm_ok} in {elapsed:.1f}s (<5s)",
    )


def test_criterion_09_cascade():
    """wt agrees with the cascade sum on every type-A involution; the
    five witness elements reproduce their exact frozen statistics; and
    the depth identity holds throughout classical types of rank <= 5."""
    t0 = time.perf_counter()
    a_bad = sum(
        compare_wt_r(build_root_system("A", n))["mismatches"]
        for n in range(1, 6)
    )

    witnesses_ok = True

    d4 = build_root_system("D", 4)
    x = from_word(d4, (3, 1, 2, 0, 1, 3, 1))
    g4 = build_qbg(d4)
    if not (
        dp(x) == 6
        and reflection_length(x) == 3
        and g4.wt1(x) == (1, 2, 1, 2)
        and cascade_r(x).r == (1, 3, 1, 2)
    ):
        witnesses_ok = False

    b4 = build_root_system("B", 4)
    y = from_word(b4, (3, 2, 3, 1, 2, 3, 0, 1, 2, 3, 1))
    if not (
        build_qbg(b4).wt1(y) == (1, 2, 3, 2)
        and cascade_r(y).r == (1, 3, 3, 2)
    ):
        witnesses_ok = False

    c3 = build_root_system("C", 3)
    xc = from_word(c3, (1, 2, 0, 1, 2, 0, 1))
    if not (
        build_qbg(c3).wt1(xc) == (1, 2, 2)
        and cascade_r(xc).r == (1, 2, 2)
        and ell_red(xc) == 1
        and build_qbg(c3).ell_down(xc) == 3
    ):
        witnesses_ok = False

    b3 = build_root_system("B", 3)
    xb = from_word(b3, (0, 1, 2, 1, 0))
    if not (
        build_qbg(b3).ell_down(xb) == 5 and ell_red(xb) == 1
    ):
        witnesses_ok = False

    g2 = build_root_system("G", 2)
    z = from_word(g2, (1, 0, 1))
    if not (
        build_qbg(g2).wt1(z) == (1, 2) and cascade_r(z).r == (1, 3)
    ):
        witnesses_ok = False

    dp_bad = []
    dp_scope = (
        [("A", n) for n in range(1, 6)]
        + [("B", n) for n in range(2, 6)]
        + [("C", n) for n in range(2, 6)]
        + [("D", n) for n in (4, 5)]
    )
    for ct, n in dp_scope:
        rs = build_root_system(ct, n)
        table = enumerate_group(rs)
        dps = dp_all(rs)
        reds = ell_red_all(rs)
        if any(
            2 * dps[i] != table.lengths[i] + reds[i]
            for i in range(len(table))
        ):
            dp_bad.append(f"{ct}{n}")
    elapsed = time.perf_counter() - t0
    ok = a_bad == 0 and witnesses_ok and not dp_bad
    _report(
        9,
        ok,
        f"type-A mismatches={a_bad} witnesses ok={witnesses_ok} "
        f"dp identity bad={dp_bad or 'none'} in {elapsed:.1f}s",
    )


def test_criterion_10_arithmetic_dimension_formulas():
    """Closed-form dimension arithmetic with caller-supplied class
    invariants: the virtual dimension recomputes from raw ingredients,
    and the admissible-set formula reproduces the exhaustive value."""
    t0 = time.perf_counter()
    a2 = build_root_system("A", 2)
    e = identity_elt(a2)
    ws = [
        AffineElt(a2, (2, 2), e),
        AffineElt(a2, (3, 1), e).mul(embed(from_word(a2, (0,)))),
        embed(longest_element(a2)),
        AffineElt(a2, (4, 2), e).mul(embed(from_word(a2, (1, 0)))),
    ]
    bs = [
        BInvariants(coweight(a2, (0, 0)), 0),
        BInvariants(coweight(a2, (1, 1)), 1),
        BInvariants(coweight(a2, (2, 0)), 2),
    ]
    vd_ok = True
    for w in ws:
        for b in bs:
            nu_c = b.nu.pairing
            raw = Fraction(
                affine_length(w) + eta(w).length() - b.defect, 2
            ) - Fraction(
                sum(
                    sum(c * p for c, p in zip(beta, nu_c))
                    for beta in a2.positive_roots
                ),
                2,
            )
            if virtual_dim(w, b) != raw:
                vd_ok = False

    b0 = bs[0]
    mu = coweight(a2, (2, 2))
    dim_res = dim_X_formula(mu, b0)
    formula_ok = (
        dim_res.status == "ok"
        and dim_res.value == Fraction(5)
        and d_adm(mu, b0).value == d_adm_brute(mu, b0)
    )
    refusal_ok = (
        dim_X_formula(coweight(a2, (1, 1)), b0).status == "refused"
        and dim_X_formula(coweight(a2, (1, 1)), b0, force=True).status
        == "probe"
    )
    elapsed = time.perf_counter() - t0
    ok = vd_ok and formula_ok and refusal_ok
    _report(
        10,
        ok,
        f"virtual-dim raw recomputation={vd_ok} closed form & "
        f"refusals={formula_ok and refusal_ok} in {elapsed:.1f}s",
    )
