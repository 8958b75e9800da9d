"""Cascade map on involutions, W-depth, and reduced reflection length.

An involution x negates a set of positive roots; peeling off its
dominance-maximal layer, then the maximal layer orthogonal to everything
already taken, and so on, yields the cascade levels of x, and r(x) is the
sum of the coroots across all levels.  Alongside sit two statistics on the
whole group: dp(x), the cheapest reflection factorization where a
reflection costs (ell + 1)/2, and ell_red(x), the fewest reflections
multiplying to x with perfectly additive lengths, both from one
uniform-cost search over right multiplication by reflections.  The
comparison driver lines these up against the graph weight wt(x) per
involution.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from .errors import InvariantError, RefusalError
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
    "compare_wt_r",
]


def _require_involution(x: WeylElt) -> None:
    if not x.mul(x).is_identity():
        raise RefusalError("cascade data is defined for involutions only")


def minus_one_roots(x: WeylElt) -> list[Root]:
    """Positive roots negated by the involution x (x = x^-1, so its row
    of root images holds ~c at c)."""
    _require_involution(x)
    return [beta for c, beta in enumerate(x.rs.positive_roots) if x.imgs[c] == ~c]


def involutions(rs: RootSystem) -> list[WeylElt]:
    """All x with x^2 = identity, in group-table order."""
    table = enumerate_group(rs)
    return [
        table.elements[i]
        for i in range(len(table))
        if table.prod_idx(i, i) == 0
    ]


class CascadeResult(NamedTuple):
    """Cascade levels of an involution and their coroot sum."""

    involution: WeylElt
    E_levels: tuple[tuple[Root, ...], ...]
    r: Coroot


def cascade_r(x: WeylElt) -> CascadeResult:
    """Iterated maximal-layer extraction from the negated positive roots.

    Level 1 holds the dominance-maximal negated roots; level i the maximal
    ones orthogonal to every root of the earlier levels; r is the sum of
    all their coroots.  Maximality is taken in the ambient dominance order
    on roots.

    >>> from adlv.rootsys import build_root_system
    >>> from adlv.weyl import longest_element
    >>> res = cascade_r(longest_element(build_root_system("A", 3)))
    >>> res.E_levels, res.r
    ((((1, 1, 1),), ((0, 1, 0),)), (1, 2, 1))
    """
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


def _reflection_search(table: GroupTable, costs, additive: bool) -> tuple[int, ...]:
    """Least total cost from the identity to every element over the steps
    v -> v s_beta (``rmult_root``), costing costs[beta], small positive
    integers; with ``additive`` only the steps adding ell(s_beta) to the
    length.  A bucket queue indexed by cost (Dial's algorithm)."""
    refl_len, lengths = table.rs.reflection_lengths, table.lengths
    steps = [(table.rmult_root(a), c, refl_len[a]) for a, c in enumerate(costs)]
    dist = [inf] * len(table)  # tentative until popped from its bucket
    dist[0] = 0
    buckets = [[0]]
    for d, bucket in enumerate(buckets):  # buckets grows while it is read
        for v in bucket:
            if dist[v] < d:  # improved since it was pushed here
                continue
            lv = lengths[v]
            for mult, c, l in steps:
                u, du = mult[v], d + c
                if du < dist[u] and (not additive or lengths[u] == lv + l):
                    dist[u] = du
                    while len(buckets) <= du:
                        buckets.append([])
                    buckets[du].append(u)
    if inf in dist:
        raise InvariantError("reflection search left an element unreached")
    return tuple(dist)


@per_table
def _dp_table(table: GroupTable) -> tuple[int, ...]:
    """Least factorization cost from the identity to every element, where
    multiplying by s_beta costs dp_root(beta)."""
    rs = table.rs
    costs = [dp_root(rs, a) for a in range(len(rs.positive_roots))]
    return _reflection_search(table, costs, additive=False)


def dp_all(rs: RootSystem) -> tuple[int, ...]:
    """dp for every element, indexed like the group table."""
    return _dp_table(enumerate_group(rs))


def dp(x: WeylElt) -> int:
    table = enumerate_group(x.rs)
    return _dp_table(table)[table.idx(x)]


@per_table
def _ell_red_table(table: GroupTable) -> tuple[int, ...]:
    """Fewest reflections with additive lengths, from the identity to every
    element."""
    return _reflection_search(table, [1] * len(table.rs.positive_roots), additive=True)


def ell_red_all(rs: RootSystem) -> tuple[int, ...]:
    return _ell_red_table(enumerate_group(rs))


def ell_red(x: WeylElt) -> int:
    table = enumerate_group(x.rs)
    return _ell_red_table(table)[table.idx(x)]


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
