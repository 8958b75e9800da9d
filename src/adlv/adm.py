"""Admissible sets and the dimension arithmetic built on them.

The admissible set of a dominant lattice coweight mu collects everything
below some translation by a Weyl-orbit point of mu.  Deep enough mu admit a
membership test by graph weights alone; on top of that sit eta, the virtual
dimension, and two closed dimension formulas whose only combinatorial
ingredient is min over x of the graph distance d_Gamma(x, x w0).

Invariants of a sigma-conjugacy class (Newton point and defect) are caller
data here: the formulas consume them, nothing computes them.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from operator import add
from . import affine
from .affine import AffineElt, _peel, affine_length, lower_union, translation
from .errors import BudgetError, InvariantError, RefusalError
from .qbg import build_qbg, reflection_length_w0
from .rootsys import (
    TYPE_TABLE,
    Coweight,
    RootSystem,
    Verdict,
    _Frozen,
    coweight,
    coweight_from_coroot,
    depth,
    dominance_leq,
    pairing,
)
from .weyl import WeylElt, enumerate_group, identity_elt

__all__ = [
    "AdmSet",
    "BInvariants",
    "adm_set",
    "product_set",
    "adm_membership_char",
    "eta",
    "virtual_dim",
    "min_dgamma",
    "d_adm",
    "d_adm_brute",
    "dim_X_formula",
]

class AdmSet(_Frozen):
    """A dominant lattice coweight with its admissible set.  A slotted class,
    not a NamedTuple, whose ``_make`` would read its ``len``."""

    __slots__ = ("mu", "members")

    def __init__(self, mu: Coweight, members: frozenset[AffineElt]):
        super().__init__(mu=mu, members=members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w: AffineElt) -> bool:
        return w in self.members


class BInvariants(_Frozen):
    """Caller-declared invariants of a class b: its Newton point (a
    dominant coweight) and its defect."""

    __slots__ = ("nu", "defect")

    def __init__(self, nu: Coweight, defect: int):
        if not nu.is_dominant():
            raise RefusalError("Newton point must be dominant")
        if not 0 <= defect <= nu.rs.rank:
            raise RefusalError("defect out of range")
        super().__init__(nu=nu, defect=defect)


def _rho_pair(rs: RootSystem, lam: Coweight) -> Fraction:
    """<rho, lam> as an exact rational."""
    return Fraction(pairing(rs, rs.two_rho, lam)) / 2


def adm_set(mu: Coweight, budget: int | None = None) -> AdmSet:
    """Union of the lower intervals of t^{x(mu)} over the Weyl orbit.  The
    orbit translations share one lattice class, so one ``lower_union``
    engine runs all their words and builds each member once.  The budget
    follows ``affine.interval_budget`` (None: the default, read at call
    time; RefusalError unless an int >= 1); BudgetError when ell(t^mu) =
    <2 rho, mu>, the length of every orbit top, exceeds it."""
    rs = mu.rs
    if not mu.is_dominant():
        raise RefusalError("admissible sets are indexed by dominant mu")
    budget = affine.interval_budget(budget)
    mu_int = mu.int_pairing()
    lt = pairing(rs, rs.two_rho, mu)
    if lt > budget:
        raise BudgetError(
            f"translation length {lt} exceeds the admissible-set budget "
            f"{budget}"
        )
    enumerate_group(rs)  # the cap refusal, before the orbit is walked
    e = identity_elt(rs)
    tops = [AffineElt(rs, pt, e) for pt in sorted(_orbit(rs, mu_int))]
    return AdmSet(mu, lower_union(tops))


def _orbit(rs: RootSystem, p: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The Weyl orbit of a coweight in pairing coordinates, closed under the
    simple reflections: s_i moves coordinate k by -C[i][k] p_i."""
    seen, todo = {p}, [p]
    for q in todo:  # todo grows while it is read
        for qi, row in zip(q, rs.cartan):
            r = tuple([a - c * qi for a, c in zip(q, row)])
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return seen


def product_set(a: AdmSet, b: AdmSet) -> frozenset[AffineElt]:
    """The literal product set {w w' : w in a, w' in b}, keyed on (translation
    part, table index of the finite part): x(lam') and x y are computed once
    per finite part x of a and w' = t^lam' y in b, each product built once."""
    rs = a.mu.rs
    table = enumerate_group(rs)
    ys = [(y.lam, table.idx(y.fin)) for y in b.members]
    lams_by_fin: dict[int, list[tuple[int, ...]]] = {}
    for x in a.members:
        lams_by_fin.setdefault(table.idx(x.fin), []).append(x.lam)
    keys = set()
    for xi, lams in lams_by_fin.items():
        act = table.elements[xi].act_pairing
        for ylam, yi in ys:
            moved, z = act(ylam), table.prod_idx(xi, yi)
            keys.update([(tuple(map(add, lam, moved)), z) for lam in lams])
    elements = table.elements
    return frozenset([affine._affine(rs, lam, elements[k]) for lam, k in keys])


def adm_membership_char(
    x: WeylElt,
    lam: Coweight,
    y: WeylElt,
    mu: Coweight,
    force: bool = False,
) -> Verdict:
    """Is x t^lam y in the admissible set of mu, read off the quantum
    Bruhat graph: lattice classes must agree and wt(x, y^{-1}) <= mu - lam
    in dominance order.

    Certified when depth(mu) clears the type threshold and <rho, mu - lam>
    stays below ceil((depth(mu) - threshold)/2); outside that regime the
    verdict is computed only on request."""
    rs = mu.rs
    if not (mu.is_dominant() and lam.is_dominant()):
        raise RefusalError("mu and lam must both be dominant")
    lam_elt, mu_elt = translation(lam), translation(mu)
    c = TYPE_TABLE[rs.cartan_type].depth_threshold
    reasons = []
    if depth(mu) < c:
        reasons.append(f"depth(mu) < {c}")
    gap = _rho_pair(rs, mu - lam)
    if gap >= ceil(Fraction(depth(mu) - c, 2)):
        reasons.append("<rho, mu - lam> not below the ceiling")
    if reasons and not force:
        return Verdict("outside-regime", None, "; ".join(reasons))
    if lam_elt.omega != mu_elt.omega:
        value = False
    else:
        wt_cw = coweight_from_coroot(rs, build_qbg(rs).wt(x, y.inv()))
        value = dominance_leq(wt_cw, mu - lam)
    status = "ok" if not reasons else "outside-regime"
    return Verdict(status, value, "; ".join(reasons))


def eta(w: AffineElt) -> WeylElt:
    """v u for the unique w = u t^lam v with lam dominant and t^lam v of
    minimal length in its left W-coset: v x v^-1, x the finite part of w."""
    # peel the finite letters, 1..n in the affine indexing: w = u y, y = t^lam v
    y = _peel(w, range(1, w.rs.rank + 1))[1]
    if min(y.lam) < 0:
        raise InvariantError("coset-minimal element does not have a dominant translation part")
    return y.fin.mul(w.fin).mul(y.fin.inv())


def virtual_dim(w: AffineElt, b: BInvariants) -> Fraction:
    """(ell(w) + ell(eta(w)) - defect)/2 - <rho, nu>."""
    rs = w.rs
    return (
        Fraction(affine_length(w) + eta(w).length() - b.defect, 2)
        - _rho_pair(rs, b.nu)
    )


def min_dgamma(rs: RootSystem) -> int:
    """min over x of the graph distance from x to x w0."""
    g = build_qbg(rs)
    t = g.table
    return min(g.d_gamma(x, t.prod_idx(x, t.w0_idx)) for x in range(len(t)))


def _dim(mu: Coweight, b: BInvariants, k: int) -> Fraction:
    """<rho, mu - nu> - defect/2 + k/2, the shape of both closed dimension
    formulas."""
    return _rho_pair(mu.rs, mu - b.nu) - Fraction(b.defect, 2) + Fraction(k, 2)


def d_adm(
    mu: Coweight, b: BInvariants, force: bool = False
) -> Verdict:
    """<rho, mu - nu> - defect/2 + ell(w0)/2 - min_dgamma/2, the virtual
    dimension of the admissible set of mu (its max over members).

    Stated for dominant regular mu; singular mu may be force-evaluated as a
    probe, certifying nothing."""
    rs = mu.rs
    if not mu.is_dominant():
        raise RefusalError("mu must be dominant")
    reason = "" if mu.is_regular() else "mu not regular"
    if reason and not force:
        return Verdict("refused", None, reason)
    value = _dim(mu, b, len(rs.positive_roots) - min_dgamma(rs))
    return Verdict("probe" if reason else "ok", value, reason)


def d_adm_brute(adm: AdmSet, b: BInvariants) -> Fraction:
    """max of the virtual dimension over a built admissible set, of which
    only the integer ell(w) + ell(eta(w)) varies with the member w."""
    top = max(affine_length(w) + eta(w).length() for w in adm.members)
    return Fraction(top - b.defect, 2) - _rho_pair(adm.mu.rs, b.nu)


def dim_X_formula(
    mu: Coweight, b: BInvariants, force: bool = False
) -> Verdict:
    """<rho, mu - nu> - defect/2 + (ell(w0) - ell_R(w0))/2.

    Holds for dominant regular mu with mu >= nu + 2 rho_check in dominance;
    violations refuse (or downgrade to a probe when forced).  2 rho_check
    pairs to 2 with every simple root."""
    rs = mu.rs
    if not mu.is_dominant():
        raise RefusalError("mu must be dominant")
    reasons = []
    if not mu.is_regular():
        reasons.append("mu not regular")
    if not dominance_leq(b.nu + coweight(rs, (2,) * rs.rank), mu):
        reasons.append("mu - nu - 2 rho_check not >= 0 in dominance")
    if reasons and not force:
        return Verdict("refused", None, "; ".join(reasons))
    ell_r = reflection_length_w0(rs.cartan_type, rs.rank)
    value = _dim(mu, b, len(rs.positive_roots) - ell_r)
    return Verdict("ok" if not reasons else "probe", value, "; ".join(reasons))
