"""Cascade map on involutions, W-depth, and reduced reflection length.

An involution x negates a set of positive roots; peeling off its
dominance-maximal layer, then the maximal layer orthogonal to everything
already taken, and so on, yields the cascade levels of x, and r(x) is the
sum of the coroots across all levels.  Alongside sit two statistics on the
whole group: dp(x), the cheapest reflection factorization where a
reflection costs (ell + 1)/2, and ell_red(x), the fewest reflections
multiplying to x with perfectly additive lengths.  The comparison driver
lines these up against the graph weight wt(x) per involution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InvariantError
from .qbg import build_qbg
from .rootsys import Coroot, Root, RootSystem, root_leq
from .weyl import GroupTable, WeylElt, enumerate_group, per_table, word_str

__all__ = [
    "CascadeResult",
    "minus_one_roots",
    "involutions",
    "cascade_r",
    "dp_root",
    "dp",
    "dp_all",
    "ell_red",
    "ell_red_all",
    "orthogonal_decompositions",
    "compare_wt_r",
]


def _require_involution(x: WeylElt) -> None:
    if not x.mul(x).is_identity():
        raise ValueError("cascade data is defined for involutions only")


def minus_one_roots(x: WeylElt) -> list[Root]:
    """Positive roots negated by the involution x."""
    _require_involution(x)
    rs = x.rs
    return [
        beta
        for beta in rs.positive_roots
        if x.act_root(beta) == tuple(-c for c in beta)
    ]


def involutions(rs: RootSystem) -> list[WeylElt]:
    """All x with x^2 = identity, in group-table order."""
    table = enumerate_group(rs)
    return [
        table.elements[i]
        for i in range(len(table))
        if table.prod_idx(i, i) == 0
    ]


@dataclass(frozen=True)
class CascadeResult:
    """Cascade levels of an involution and their coroot sum."""

    involution: WeylElt
    E_levels: tuple[tuple[Root, ...], ...]
    r: Coroot


def cascade_r(x: WeylElt) -> CascadeResult:
    """Iterated maximal-layer extraction from the negated positive roots.

    Level 1 holds the dominance-maximal negated roots; level i the maximal
    ones orthogonal to every root of the earlier levels; r is the sum of
    all their coroots.  Maximality is taken in the ambient dominance order
    on roots."""
    rs = x.rs
    neg = {rs.root_index[beta] for beta in minus_one_roots(x)}
    roots, coroots, cols = rs.positive_roots, rs.positive_coroots, rs.coroot_columns
    levels: list[tuple[Root, ...]] = []
    taken: list[int] = []
    while True:
        pool = [a for a in neg if all(not cols[b][a] for b in taken)]
        if not pool:
            break
        level = [
            a
            for a in pool
            if not any(
                b != a and root_leq(roots[a], roots[b]) for b in pool
            )
        ]
        levels.append(tuple(sorted(roots[a] for a in level)))
        taken.extend(level)
    r = tuple(
        sum(coroots[a][i] for a in taken) for i in range(rs.rank)
    )
    return CascadeResult(x, tuple(levels), r)


def dp_root(rs: RootSystem, root_idx: int) -> int:
    """(ell(s_beta) + 1) / 2, an integer since reflection lengths are odd."""
    l = rs.reflection_lengths[root_idx]
    if l % 2 != 1:
        raise InvariantError("reflection of even length")
    return (l + 1) // 2


@per_table
def _dp_table(table: GroupTable) -> tuple[int, ...]:
    """Least factorization cost from the identity to every element, where
    multiplying by s_beta costs dp_root(beta); uniform-cost search."""
    rs = table.rs
    nroots = len(rs.positive_roots)
    costs = [dp_root(rs, a) for a in range(nroots)]
    mult = [table.rmult_root(a) for a in range(nroots)]
    dist = [None] * len(table)
    heap = [(0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None:
            continue
        dist[v] = d
        for a in range(nroots):
            u = mult[a][v]
            if dist[u] is None:
                heapq.heappush(heap, (d + costs[a], u))
    if None in dist:
        raise InvariantError("dp search left an element unreached")
    return tuple(dist)


def dp_all(rs: RootSystem) -> tuple[int, ...]:
    """dp for every element, indexed like the group table."""
    return _dp_table(enumerate_group(rs))


def dp(x: WeylElt) -> int:
    table = enumerate_group(x.rs)
    return _dp_table(table)[table.idx(x)]


@per_table
def _ell_red_table(table: GroupTable) -> tuple[int, ...]:
    """Fewest reflections with additive lengths, from the identity to every
    element, by breadth-first search."""
    rs = table.rs
    nroots = len(rs.positive_roots)
    refl_len = rs.reflection_lengths
    mult = [table.rmult_root(a) for a in range(nroots)]
    lengths = table.lengths
    dist = [None] * len(table)
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for a in range(nroots):
                u = mult[a][v]
                if dist[u] is None and lengths[u] == lengths[v] + refl_len[a]:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    if None in dist:
        raise InvariantError("ell_red search left an element unreached")
    return tuple(dist)


def ell_red_all(rs: RootSystem) -> tuple[int, ...]:
    return _ell_red_table(enumerate_group(rs))


def ell_red(x: WeylElt) -> int:
    table = enumerate_group(x.rs)
    return _ell_red_table(table)[table.idx(x)]


def orthogonal_decompositions(x: WeylElt) -> list[tuple[int, ...]]:
    """All ways to write the involution x as a product of pairwise
    orthogonal reflections, as sorted root-index tuples (order within a
    tuple is irrelevant: the factors commute).  Orthogonal roots are
    linearly independent, so no tuple has more than rank factors."""
    _require_involution(x)
    rs = x.rs
    table = enumerate_group(x.rs)
    cols = rs.coroot_columns  # cols[b][a] = <beta_a, beta_b_check>
    nroots = len(rs.positive_roots)
    target = table.idx(x)
    mult = [table.rmult_root(a) for a in range(nroots)]
    out: list[tuple[int, ...]] = []

    def rec(start: int, chosen: list[int], cur: int) -> None:
        if cur == target:
            out.append(tuple(chosen))
        for a in range(start, nroots):
            if all(not cols[b][a] for b in chosen):
                chosen.append(a)
                rec(a + 1, chosen, mult[a][cur])
                chosen.pop()

    rec(0, [], 0)
    return out


def compare_wt_r(rs: RootSystem) -> dict:
    """Per-involution comparison of the graph weight with the cascade sum,
    with the depth statistics alongside."""
    table = enumerate_group(rs)
    g = build_qbg(rs)
    dps, reds = dp_all(rs), ell_red_all(rs)
    downs = g.all_ell_down()
    wts = g.all_wt1()
    rows = []
    for x in involutions(rs):
        i = table.idx(x)
        r = cascade_r(x).r
        wt = wts[i]
        rows.append(
            {
                "x_word": word_str(table.words[i]),
                "wt": list(wt),
                "r": list(r),
                "dp": dps[i],
                "ell_red": reds[i],
                "ell_down": downs[i],
                "match": wt == r,
            }
        )
    return {
        "type": rs.cartan_type,
        "rank": rs.rank,
        "involutions": len(rows),
        "mismatches": sum(1 for row in rows if not row["match"]),
        "rows": rows,
    }
