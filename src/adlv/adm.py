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

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from operator import add

from .affine import (
    AffineElt,
    affine_length,
    descent_left,
    lower_union,
    simple_affine,
    translation,
)
from .errors import BudgetError, InvariantError, RefusalError
from .qbg import build_qbg, reflection_length_w0
from .rootsys import (
    TYPE_TABLE,
    Coweight,
    RootSystem,
    coweight_from_coroot,
    depth,
    dominance_leq,
    pairing,
)
from .weyl import (
    WeylElt,
    enumerate_group,
    identity_elt,
)

__all__ = [
    "AdmSet",
    "BInvariants",
    "MembershipResult",
    "DimResult",
    "DEFAULT_ADM_BUDGET",
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

DEFAULT_ADM_BUDGET = 40


@dataclass(frozen=True)
class AdmSet:
    """A dominant lattice coweight with its admissible set."""

    mu: Coweight
    members: frozenset[AffineElt]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w: AffineElt) -> bool:
        return w in self.members


@dataclass(frozen=True)
class BInvariants:
    """Caller-declared invariants of a class b: its Newton point (a
    dominant coweight) and its defect."""

    nu: Coweight
    defect: int

    def __post_init__(self):
        if not self.nu.is_dominant():
            raise RefusalError("Newton point must be dominant")
        if not 0 <= self.defect <= self.nu.rs.rank:
            raise RefusalError("defect out of range")


def _rho_pair(rs: RootSystem, lam: Coweight) -> Fraction:
    """<rho, lam> as an exact rational."""
    return Fraction(pairing(rs, rs.two_rho, lam)) / 2


def adm_set(mu: Coweight, budget: int = DEFAULT_ADM_BUDGET) -> AdmSet:
    """Union of the lower intervals of t^{x(mu)} over the Weyl orbit.  The
    orbit translations share one lattice class, so one ``lower_union``
    engine runs all their words and builds each member once."""
    rs = mu.rs
    if not mu.is_dominant():
        raise RefusalError("admissible sets are indexed by dominant mu")
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
    return AdmSet(mu, lower_union(tops, budget=budget))


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
    """The literal product set {w w' : w in a, w' in b}.  Products are keyed
    on (translation part, table index of the finite part), and each
    distinct one is built once."""
    table = enumerate_group(a.mu.rs)
    ys = [(y, y.lam, table.idx(y.fin)) for y in b.members]
    firsts: dict = {}
    for x in a.members:
        lam, act, xi = x.lam, x.fin.act_pairing, table.idx(x.fin)
        for y, ylam, yi in ys:
            key = (tuple(map(add, lam, act(ylam))), table.prod_idx(xi, yi))
            if key not in firsts:
                firsts[key] = x, y
    return frozenset([x.mul(y) for x, y in firsts.values()])


@dataclass
class MembershipResult:
    """Membership verdict with its validity status ("ok" inside the
    proposition's regime, "outside-regime" otherwise; the verdict is filled
    outside the regime only on request and certifies nothing there)."""

    status: str
    value: bool | None
    reason: str = ""


def adm_membership_char(
    x: WeylElt,
    lam: Coweight,
    y: WeylElt,
    mu: Coweight,
    force: bool = False,
) -> MembershipResult:
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
        return MembershipResult("outside-regime", None, "; ".join(reasons))
    if lam_elt.omega != mu_elt.omega:
        value = False
    else:
        wt_cw = coweight_from_coroot(rs, build_qbg(rs).wt(x, y.inv()))
        value = dominance_leq(wt_cw, mu - lam)
    status = "ok" if not reasons else "outside-regime"
    return MembershipResult(status, value, "; ".join(reasons))


def eta(w: AffineElt) -> WeylElt:
    """v u for the unique w = u t^lam v with lam dominant and t^lam v of
    minimal length in its left W-coset."""
    rs = w.rs
    u = identity_elt(rs)
    y = w
    while True:
        # finite letters sit at 1..n in the affine indexing
        i = next(
            (i for i in range(rs.rank) if descent_left(y, i + 1)), None
        )
        if i is None:
            break
        s = simple_affine(rs, i + 1)
        y = s.mul(y)
        u = u.mul(s.fin)
    if min(y.lam) < 0:
        raise InvariantError(
            "coset-minimal element does not have a dominant translation part"
        )
    return y.fin.mul(u)


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


@dataclass
class DimResult:
    """A closed-form dimension value with its validity status."""

    status: str
    value: Fraction | None
    reason: str = ""


def d_adm(
    mu: Coweight, b: BInvariants, force: bool = False
) -> DimResult:
    """<rho, mu - nu> - defect/2 + ell(w0)/2 - min_dgamma/2, the virtual
    dimension of the admissible set of mu (its max over members).

    Stated for dominant regular mu; singular mu may be force-evaluated as a
    probe, certifying nothing."""
    rs = mu.rs
    if not mu.is_dominant():
        raise RefusalError("mu must be dominant")
    if not mu.is_regular():
        if not force:
            return DimResult("refused", None, "mu not regular")
        status, reason = "probe", "mu not regular"
    else:
        status, reason = "ok", ""
    value = (
        _rho_pair(rs, mu - b.nu)
        - Fraction(b.defect, 2)
        + Fraction(len(rs.positive_roots), 2)
        - Fraction(min_dgamma(rs), 2)
    )
    return DimResult(status, value, reason)


def d_adm_brute(
    mu: Coweight, b: BInvariants, budget: int = DEFAULT_ADM_BUDGET
) -> Fraction:
    """max of the virtual dimension over the whole admissible set."""
    return max(virtual_dim(w, b) for w in adm_set(mu, budget).members)


def dim_X_formula(
    mu: Coweight, b: BInvariants, force: bool = False
) -> DimResult:
    """<rho, mu - nu> - defect/2 + (ell(w0) - ell_R(w0))/2.

    Holds for dominant regular mu with mu >= nu + 2 rho_check in dominance;
    violations refuse (or downgrade to a probe when forced)."""
    rs = mu.rs
    if not mu.is_dominant():
        raise RefusalError("mu must be dominant")
    reasons = []
    if not mu.is_regular():
        reasons.append("mu not regular")
    two_rho_check = coweight_from_coroot(
        rs,
        tuple(
            sum(c[i] for c in rs.positive_coroots) for i in range(rs.rank)
        ),
    )
    if not dominance_leq(b.nu + two_rho_check, mu):
        reasons.append("mu - nu - 2 rho_check not >= 0 in dominance")
    if reasons and not force:
        return DimResult("refused", None, "; ".join(reasons))
    value = (
        _rho_pair(rs, mu - b.nu)
        - Fraction(b.defect, 2)
        + Fraction(
            len(rs.positive_roots)
            - reflection_length_w0(rs.cartan_type, rs.rank),
            2,
        )
    )
    return DimResult("ok" if not reasons else "probe", value, "; ".join(reasons))

