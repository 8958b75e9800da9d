"""Admissible sets: sizes, additivity, graph-based membership, and the
dimension-formula arithmetic."""

from fractions import Fraction

import pytest

from adlv.errors import BudgetError, RefusalError
from adlv.qbg import build_qbg
from adlv.rootsys import build_root_system, coweight
from adlv import affine
from adlv.affine import AffineElt, embed, lower_union, translation
from adlv.cli import main
from adlv.weyl import enumerate_group, identity_elt, simple_reflection
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

from oracles import adm_set_by_intervals


def b0(rs):
    return BInvariants(coweight(rs, (0,) * rs.rank), 0)


def test_adm_budget_default_is_the_interval_budget(monkeypatch, capsys):
    """``adm_set`` reads the one default, ``affine.DEFAULT_INTERVAL_BUDGET``,
    at call time, as the CLI does: G2 (2, 2), of translation length
    32 > 30, is refused by both, and a patched constant moves the library
    default either way.  ``lower_union`` reads no budget."""
    g2, a2 = build_root_system("G", 2), build_root_system("A", 2)
    mu = coweight(g2, (2, 2))
    with pytest.raises(BudgetError, match="32 exceeds the admissible-set budget 30"):
        adm_set(mu)
    assert main(["query", "--type", "G", "--rank", "2", "admsize [2,2]"]) == 3
    assert "32 exceeds the admissible-set budget 30" in capsys.readouterr().err
    monkeypatch.setattr(affine, "DEFAULT_INTERVAL_BUDGET", 3)
    with pytest.raises(BudgetError, match="4 exceeds the admissible-set budget 3"):
        adm_set(coweight(a2, (1, 1)))
    assert len(lower_union([translation(coweight(a2, (1, 1)))])) == 12
    assert len(adm_set(coweight(a2, (1, 0)))) == 7
    monkeypatch.setattr(affine, "DEFAULT_INTERVAL_BUDGET", 32)
    assert len(adm_set(mu)) == 1149


@pytest.mark.parametrize("budget", [2.5, True, -1, 0, "3"])
def test_adm_set_refuses_a_bad_budget(budget):
    """A budget must be an int >= 1 (``affine.interval_budget``): 2.5 is
    not compared as a length, True is not 1, -1 and 0 are not reported as
    exceeded, and '3' does not leak a TypeError."""
    mu = coweight(build_root_system("A", 2), (1, 0))
    with pytest.raises(RefusalError, match=f"must be an int >= 1, not {budget!r}"):
        adm_set(mu, budget=budget)


def test_adm_sizes_frozen():
    a1 = build_root_system("A", 1)
    # the simple coroot has pairing coordinate 2
    assert len(adm_set(coweight(a1, (2,)))) == 5
    a2 = build_root_system("A", 2)
    assert len(adm_set(coweight(a2, (1, 1)))) == 25
    assert len(adm_set(coweight(a2, (2, 2)))) == 85
    assert len(adm_set(coweight(build_root_system("A", 3), (2, 2, 2)))) == 3401
    # rank 4: the intervals run on sets of tuples, not bitsets; the sizes
    # are those of the set-of-int engine that preceded both
    a4 = build_root_system("A", 4)
    assert len(adm_set(coweight(a4, (1, 0, 0, 0)))) == 31
    assert len(adm_set(coweight(a4, (1, 0, 0, 1)))) == 401


def test_adm_refusals(a2):
    with pytest.raises(RefusalError):
        adm_set(coweight(a2, (-1, 2)))
    with pytest.raises(BudgetError):
        adm_set(coweight(a2, (50, 50)))


def test_adm_downward_closed_and_orbit(a2):
    mu = coweight(a2, (1, 1))
    s = adm_set(mu)
    # every orbit translation is a member
    table = enumerate_group(a2)
    for x in table.elements:
        lam = x.act_pairing(mu.pairing)
        assert AffineElt(a2, lam, identity_elt(a2)) in s
    # identity sits inside
    assert embed(identity_elt(a2)) in s


def test_additivity():
    a1 = build_root_system("A", 1)
    one = coweight(a1, (2,))
    assert product_set(adm_set(one), adm_set(one)) == adm_set(
        coweight(a1, (4,))
    ).members
    a2 = build_root_system("A", 2)
    th = coweight(a2, (1, 1))
    assert product_set(adm_set(th), adm_set(th)) == adm_set(
        coweight(a2, (2, 2))
    ).members


# mu lies outside the coroot lattice (tau != 1) at A2 (1, 0), C2 (2, 1)
# and A3 (1, 0, 0)
@pytest.mark.parametrize("ct,n,mu", [
    ("A", 2, (1, 0)), ("A", 2, (1, 1)), ("A", 2, (2, 2)), ("B", 2, (2, 2)),
    ("C", 2, (2, 1)), ("G", 2, (1, 0)), ("G", 2, (2, 1)),
    ("A", 3, (1, 0, 0)), ("A", 3, (1, 1, 1)), ("B", 3, (1, 0, 1)),
])
def test_adm_set_matches_union_of_intervals(ct, n, mu, dense):
    """The merged engine gives the union of the orbit tops' lower
    intervals, one engine per top, in either bucket kind."""
    m = coweight(build_root_system(ct, n), mu)
    assert adm_set(m).members == adm_set_by_intervals(m)


@pytest.mark.parametrize("ct,mu,nu", [
    ("A", (1, 1), (1, 1)), ("A", (1, 0), (0, 1)), ("B", (1, 1), (1, 1)),
    ("C", (1, 0), (0, 1)), ("G", (1, 0), (1, 0)),
])
def test_product_set_is_the_literal_product(ct, mu, nu):
    rs = build_root_system(ct, 2)
    a, b = adm_set(coweight(rs, mu)), adm_set(coweight(rs, nu))
    assert product_set(a, b) == frozenset(
        x.mul(y) for x in a.members for y in b.members
    )


def test_membership_depth_gate(a2, g2):
    """The depth clause of the membership regime: depth(mu) must reach the
    type's threshold c, 3 in A2 and 6 in G2."""
    for rs, c, mu, below in ((a2, 3, (3, 3), False), (a2, 3, (2, 3), True),
                             (g2, 6, (6, 6), False), (g2, 6, (5, 6), True)):
        e, m = identity_elt(rs), coweight(rs, mu)
        reason = adm_membership_char(e, m, e, m).reason
        assert (f"depth(mu) < {c}" in reason) is below, (rs, mu)


def test_membership_char_vs_enumeration(a2):
    """Exhaustive cross-check on mu = (7,7): the in-regime lambdas are mu
    and mu minus a simple coroot; chase every (x, y) pair through both
    routes."""
    mu = coweight(a2, (7, 7))
    members = adm_set(mu).members
    table = enumerate_group(a2)
    lambdas = [
        coweight(a2, (7, 7)),
        coweight(a2, (5, 8)),   # mu - alpha1^
        coweight(a2, (8, 5)),   # mu - alpha2^
    ]
    cases = 0
    for lam in lambdas:
        t = translation(lam)
        for x in table.elements:
            for y in table.elements:
                w = embed(x).mul(t).mul(embed(y))
                res = adm_membership_char(x, lam, y, mu)
                assert res.status == "ok"
                assert res.value == (w in members)
                cases += 1
    assert cases == 108


def test_membership_outside_regime(a2):
    """Two coroots of gap saturate the ceiling: verdict withheld unless
    forced."""
    mu = coweight(a2, (7, 7))
    lam = coweight(a2, (3, 9))  # mu - 2 alpha1^
    e = identity_elt(a2)
    res = adm_membership_char(e, lam, e, mu)
    assert res.status == "outside-regime"
    assert res.value is None
    forced = adm_membership_char(e, lam, e, mu, force=True)
    assert forced.value == (
        translation(lam) in adm_set(mu).members
    )


def test_membership_lattice_classes(a2):
    """A translation part in a different length-zero class can never lie
    below the orbit translations."""
    mu = coweight(a2, (3, 3))
    lam = coweight(a2, (3, 2))  # different class mod the coroot lattice
    e = identity_elt(a2)
    res = adm_membership_char(e, lam, e, mu, force=True)
    assert res.value is False


def test_eta_examples(a2):
    s1 = simple_reflection(a2, 0)
    w = translation(coweight(a2, (3, 3))).mul(embed(s1))
    assert eta(w) == s1
    # left finite part folds into the tail: eta(u t^lam v) = v u
    s2 = simple_reflection(a2, 1)
    w2 = embed(s2).mul(translation(coweight(a2, (3, 3)))).mul(embed(s1))
    assert eta(w2) == s1.mul(s2)


def test_virtual_dim_example(a2):
    w = translation(coweight(a2, (2, 2)))
    # ell = 8, eta = e, defect 0, nu 0
    assert virtual_dim(w, b0(a2)) == Fraction(8, 2)


def test_min_dgamma_small(a2, g2):
    assert min_dgamma(a2) == 1
    assert min_dgamma(g2) == 2


@pytest.mark.parametrize("ct,n", [("A", 3), ("B", 3), ("C", 3), ("F", 4)])
def test_min_dgamma_matches_full_scan(ct, n):
    """The served minimum equals the one read off the search to x w0 from
    every element x."""
    rs = build_root_system(ct, n)
    g = build_qbg(rs)
    table = g.table
    full = min(
        g.search(table.prod_idx(x, table.w0_idx))[0][x]
        for x in range(len(table))
    )
    assert min_dgamma(rs) == full


def test_d_adm_matches_brute(a2):
    mu = coweight(a2, (2, 2))
    res = d_adm(mu, b0(a2))
    assert res.status == "ok"
    assert res.value == Fraction(5)
    assert d_adm_brute(adm_set(mu), b0(a2)) == res.value


def test_d_adm_singular_probe(a2):
    mu = coweight(a2, (2, 0))
    res = d_adm(mu, b0(a2))
    assert res.status != "ok"
    assert res.value is None
    probed = d_adm(mu, b0(a2), force=True)
    assert probed.value is not None


def test_dim_X_formula(a2):
    mu = coweight(a2, (2, 2))
    res = dim_X_formula(mu, b0(a2))
    assert res.status == "ok"
    assert res.value == Fraction(5)
    # mu not >= nu + 2 rho^ in dominance: refused
    small = dim_X_formula(coweight(a2, (1, 1)), b0(a2))
    assert small.status != "ok"


def test_b_invariants_validation(a2):
    with pytest.raises(RefusalError):
        BInvariants(coweight(a2, (-1, 0)), 0)
    with pytest.raises(RefusalError):
        BInvariants(coweight(a2, (0, 0)), 5)
    with pytest.raises(RefusalError):
        BInvariants(coweight(a2, (0, 0)), -1)

