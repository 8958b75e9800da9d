"""Quantum Bruhat graph: edges, weights, uniqueness, closed forms, and
downward decompositions."""

import pytest

from adlv.rootsys import (
    build_root_system,
    coweight_from_coroot,
    dominance_leq,
    pair_root_coroot,
)
from adlv.weyl import enumerate_group, longest_element
from adlv.qbg import (
    build_qbg,
    compute_M,
    m_tilde,
    reflection_length_w0,
    verify_rqrd,
    w0_rqrd_exhibit,
    wt_w0_closed_form,
)

UNIQ = [("A", 2), ("B", 2), ("G", 2)]


def test_edge_classification(b2):
    g = build_qbg(b2)
    table = g.table
    for x in range(len(table)):
        for y, a, is_down in g.out[x]:
            d = table.lengths[y] - table.lengths[x]
            drop = pair_root_coroot(
                b2, b2.two_rho, b2.positive_coroots[a]
            ) - 1
            if is_down:
                assert d == -drop and b2.quantum_flags[a]
            else:
                assert d == 1


@pytest.mark.parametrize("ct,n", UNIQ)
def test_shortest_path_weight_uniqueness(ct, n):
    """Independent oracle: enumerate every shortest path by dynamic
    programming over the tight-edge DAG and collect the weight vectors;
    each (source, target) must see exactly one."""
    rs = build_root_system(ct, n)
    g = build_qbg(rs)
    nv = len(g.table)
    nroots = len(rs.positive_roots)
    for src in range(nv):
        # layered distances
        dist = [None] * nv
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                for y, a, is_down in g.out[x]:
                    if dist[y] is None:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        # weight sets along tight edges, in distance order
        wsets = [set() for _ in range(nv)]
        wsets[src] = {(0,) * rs.rank}
        order = sorted(range(nv), key=lambda v: dist[v])
        for x in order:
            for y, a, is_down in g.out[x]:
                if dist[y] != dist[x] + 1:
                    continue
                gamma = rs.positive_coroots[a] if is_down else (0,) * rs.rank
                for w in wsets[x]:
                    wsets[y].add(
                        tuple(c + d for c, d in zip(w, gamma))
                    )
        for y in range(nv):
            assert len(wsets[y]) == 1, (
                f"{ct}{n}: multiple shortest-path weights {src}->{y}"
            )
            assert next(iter(wsets[y])) == g.wt(src, y)
            assert dist[y] == g.d_gamma(src, y)


@pytest.mark.parametrize("ct,n", [("A", 3), ("B", 3)])
def test_wt_monotone_in_bruhat(ct, n):
    rs = build_root_system(ct, n)
    g = build_qbg(rs)
    table = enumerate_group(rs)
    wts = g.all_wt1()
    for a in range(len(table)):
        for b in range(len(table)):
            if table.leq_idx(a, b):
                assert all(x <= y for x, y in zip(wts[a], wts[b]))


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2), ("A", 3)])
def test_rho_wt_length_identity(ct, n):
    """2 <rho, wt(x)> = ell(x) + ell_down(x); the pairing against rho is
    the coefficient sum over simple coroots."""
    rs = build_root_system(ct, n)
    g = build_qbg(rs)
    table = enumerate_group(rs)
    downs = g.all_ell_down()
    for i, wt in enumerate(g.all_wt1()):
        assert 2 * sum(wt) == table.lengths[i] + downs[i]


CLOSED_FORMS = [
    ("A", 1, (1,)),
    ("A", 2, (1, 1)),
    ("A", 3, (1, 2, 1)),
    ("C", 3, (1, 2, 3)),
    ("G", 2, (2, 2)),
    ("D", 4, (2, 2, 2, 2)),
]


@pytest.mark.parametrize("ct,n,expect", CLOSED_FORMS)
def test_wt_w0_closed_form_examples(ct, n, expect):
    rs = build_root_system(ct, n)
    assert wt_w0_closed_form(ct, n) == expect
    assert tuple(build_qbg(rs).wt1(longest_element(rs))) == expect


def test_m_tilde_table_values():
    assert m_tilde("A", 2) == 3
    assert m_tilde("F", 4) == 12
    assert m_tilde("G", 2) == 4
    assert m_tilde("E", 8) == 28


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 3), ("G", 2), ("D", 4)])
def test_compute_M_below_m_tilde(ct, n):
    rs = build_root_system(ct, n)
    assert compute_M(rs) <= m_tilde(ct, n)


def test_rqrd_of_w0(c3, g2):
    for rs in (c3, g2):
        g = build_qbg(rs)
        w0 = longest_element(rs)
        dec = g.rqrd(w0)
        rep = verify_rqrd(w0, tuple(dec))
        assert rep.ok, rep.reasons
        assert rep.minimality == "graph"
        assert len(dec) == g.ell_down(w0)


def test_w0_exhibits_high_rank():
    """The written-out decompositions for the two largest exceptional
    groups are valid with factor count equal to the rank; minimality is
    certified by the reflection-length lower bound without enumeration."""
    for ct, n in [("E", 7), ("E", 8)]:
        rs = build_root_system(ct, n)
        factors = w0_rqrd_exhibit(ct, n)
        assert len(factors) == n
        rep = verify_rqrd(longest_element(rs), factors)
        assert rep.ok, rep.reasons
        assert rep.minimality == "reflection-length bound"


def test_reflection_length_w0_table_small():
    from adlv.cli import ALL_TABLE_RANKS
    from adlv.weyl import reflection_length

    for ct, n in [(ct, n) for ct, ns in ALL_TABLE_RANKS.items() for n in ns]:
        rs = build_root_system(ct, n)
        assert reflection_length_w0(ct, n) == reflection_length(
            longest_element(rs)
        )


def test_wt_additive_along_up_edges(a2):
    """Up edges carry weight zero: wt(x,1) is constant along them going
    away from the identity only through down contributions."""
    g = build_qbg(a2)
    for x in range(len(g.table)):
        for y, a, is_down in g.out[x]:
            gamma = a2.positive_coroots[a] if is_down else (0,) * 2
            lhs = coweight_from_coroot(a2, g.wt(x, 0))
            # triangle bound through the edge
            step = coweight_from_coroot(
                a2, tuple(c + d for c, d in zip(g.wt(y, 0), gamma))
            )
            assert dominance_leq(lhs, step) or lhs.pairing == step.pairing
