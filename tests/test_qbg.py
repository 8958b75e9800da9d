"""Quantum Bruhat graph: edges, weights, uniqueness, closed forms, and
downward decompositions."""

import hashlib
import tracemalloc
from collections import deque
from itertools import product
from random import Random

import pytest

from adlv import qbg
from adlv.cascade import cascade_r
from adlv.affine import demazure_ltri, embed, translation
from adlv.errors import BudgetError, InvariantError, RefusalError
from adlv.newton import max_newton_formula
from adlv.rootsys import (
    build_root_system,
    coweight,
    coweight_from_coroot,
    dominance_leq,
)
from adlv.weyl import enumerate_group, longest_element, reflection
from adlv.qbg import (
    QBGraph,
    build_qbg,
    compute_M,
    m_tilde,
    reflection_length_w0,
    verify_rqrd,
    wt_w0_closed_form,
)

from oracles import (
    down_parents,
    from_word,
    leq_idx,
    pair_root_coroot,
    qbg_edges,
    qbg_search,
    rqrd,
)

UNIQ = [("A", 2), ("B", 2), ("G", 2)]
ORACLE_SCOPE = UNIQ + [("A", 3), ("B", 3), ("C", 3)]


def _root(table, x, y):
    """The root of the edge between x and y, read off the table: x^-1 y is
    the reflection s_beta, whichever way the edge points."""
    return table._reflections.index(table.prod_idx(table.inv_idx(x), y))


def _corrupt(g, a):
    """Add one to the packed coroot of root a on every edge carrying it;
    packing is injective, so those are the edges whose weight equals it."""
    bad = g._inc[a]
    for edges in g._down_in:
        edges[:] = [(u, c + (c == bad)) for u, c in edges]


@pytest.mark.parametrize("ct,n", ORACLE_SCOPE)
def test_packed_weights_match_tuple_oracle(ct, n):
    """The search to each target over the in-lists equals, column by
    column, the tuple searches forward from every source along edges
    derived from the table, and so do the served weights to the identity."""
    rs = build_root_system(ct, n)
    g = build_qbg(rs)
    nv = len(g.table)
    out = qbg_edges(g.table)
    fwd = [qbg_search(rs, out, src) for src in range(nv)]
    for dst in range(nv):
        got_dist, got_wts = g.search(dst)
        assert got_dist == [fwd[x][0][dst] for x in range(nv)]
        assert [g.decode(p) for p in got_wts] == [fwd[x][1][dst] for x in range(nv)]
    wts = [fwd[x][1][0] for x in range(nv)]
    assert g.all_wt1() == wts
    assert [g.wt1(x) for x in range(nv)] == wts


@pytest.mark.parametrize("ct,n", [("F", 4), ("D", 5)])
def test_packed_weights_match_tuple_oracle_sampled(ct, n):
    """The benchmark's groups: a seeded sample of searches to a target, and
    the search to the identity, equal the tuple search along in-edges
    derived from the table, and every vertex is reached, so no distance is
    left at the |W| sentinel."""
    rs = build_root_system(ct, n)
    g = build_qbg(rs)
    nv = len(g.table)
    into = qbg_edges(g.table, forward=False)
    for dst in Random(0).sample(range(nv), 6):
        got_dist, got_wts = g.search(dst)
        assert max(got_dist) < nv
        assert (got_dist, [g.decode(p) for p in got_wts]) == qbg_search(
            rs, into, dst
        )
    assert g.all_wt1() == qbg_search(rs, into, 0)[1]
    assert max(g.all_ell_down()) < nv


@pytest.mark.parametrize("ct,n", UNIQ)
def test_parents_from_discovery_order(ct, n):
    """The parents ``oracles.rqrd`` reads off its down-only search's
    discovery order are the first-found parents of a reference search that
    stores them, and form a shortest down-only tree for the graph's
    ``all_ell_down``: each parent is one down edge, derived from the table,
    away and one step closer to the identity."""
    g = build_qbg(build_root_system(ct, n))
    nv = len(g.table)
    parent = [-1] * nv
    seen = [False] * nv
    seen[0] = True
    q = deque([0])
    while q:
        v = q.popleft()
        for u, _ in g._down_in[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                q.append(u)
    assert down_parents(g.table) == parent
    downs = g.all_ell_down()
    out = qbg_edges(g.table)
    for u in range(1, nv):
        p = parent[u]
        assert downs[u] == downs[p] + 1
        assert p in [w for w, a in out[u] if a is not None]


SERVED_SCOPE = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("ct,n", SERVED_SCOPE)
def test_served_queries_match_search(ct, n):
    """wt(x, y), served through the min-fold, and d_gamma(x, y), served by
    the length identity, equal the search to y for every x: to every y up
    to order 384, to a seeded sample of 24 in F4."""
    g = build_qbg(build_root_system(ct, n))
    nv = len(g.table)
    targets = range(nv) if nv <= 384 else Random(0).sample(range(nv), 24)
    for y in targets:
        dist, wts = g.search(y)
        assert [g.wt(x, y) for x in range(nv)] == list(map(g.decode, wts))
        assert [g.d_gamma(x, y) for x in range(nv)] == dist


def test_queries_keep_no_state():
    """Pairwise queries over all of D5 leave the graph and its table with
    the same attributes, each of the same size."""
    g = build_qbg(build_root_system("D", 5))

    def sizes():
        return {
            (type(owner).__name__, k): len(v) if hasattr(v, "__len__") else v
            for owner in (g, g.table)
            for k, v in vars(owner).items()
        }

    before = sizes()
    for x in range(len(g.table)):
        g.wt(x, 0)
        g.d_gamma(x, 0)
    assert sizes() == before


def test_graph_stores_each_edge_once():
    """A D5 graph, on a table whose reflection tables are built beforehand,
    retains under 1.3 MiB by ``tracemalloc``: each edge is stored once, in
    the in-lists (1.0 MiB; 1.8 MiB with out-lists kept beside them)."""
    table = enumerate_group(build_root_system("D", 5))
    for a in range(len(table.rs.positive_roots)):
        table.rmult_root(a)
    tracemalloc.start()
    try:
        g = QBGraph(table)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(g._up_in) == len(table)
    assert retained < 1.3 * 2 ** 20


def test_build_qbg_checks_cap_when_cached(b3, monkeypatch):
    """A cached graph is no way round the cap, read at call time."""
    build_qbg(b3)
    monkeypatch.setattr(qbg, "QBG_CAP", 10)
    with pytest.raises(BudgetError, match="graph cap of 10$"):
        build_qbg(b3)
    w = translation(coweight(b3, (5, 5, 5))).mul(embed(longest_element(b3)))
    with pytest.raises(BudgetError, match="graph cap of 10$"):
        max_newton_formula(w, force=True)


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2)])
def test_corrupted_increment_is_refused(ct, n):
    """One wrong packed coroot on a root with down edges makes two shortest
    paths disagree, and the search says so."""
    rs = build_root_system(ct, n)
    g = QBGraph(enumerate_group(rs))
    _corrupt(g, next(a for a, q in enumerate(rs.quantum_flags) if q))
    with pytest.raises(InvariantError, match="different weights"):
        for x in range(len(g.table)):
            g.search(x)


def test_down_only_search_checks_weights():
    """The down-only search to the identity runs with no up edges, so its
    down-edge loop alone must refuse a wrong packed coroot: in A3, two
    shortest downward paths use the reflection in root 0 a different
    number of times."""
    g = QBGraph(enumerate_group(build_root_system("A", 3)))
    _corrupt(g, 0)
    with pytest.raises(InvariantError, match="different weights"):
        g.all_ell_down()


@pytest.mark.parametrize(
    "ct,n,count",
    [(ct, n, None) for ct, n in ORACLE_SCOPE + [("A", 1), ("C", 2)]]
    + [("F", 4, 500), ("D", 5, 500)],
)
def test_ltri_idx_matches_affine_fold(ct, n, count):
    table = enumerate_group(build_root_system(ct, n))
    nv = len(table)
    rng = Random(0)
    pairs = (
        product(range(nv), repeat=2)
        if count is None
        else [(rng.randrange(nv), rng.randrange(nv)) for _ in range(count)]
    )
    for a, b in pairs:
        folded = demazure_ltri(
            embed(table.elements[a]), embed(table.elements[b])
        )
        assert table.ltri_idx(a, b) == table.idx(folded.fin)


def test_edge_classification(b2):
    """Up edges raise the length by one, down edges through quantum roots
    drop it by <2 rho, beta_check> - 1, and the in-lists hold each edge
    derived from ``rmult_root`` exactly once, at its target; each down
    edge through beta carries the packed coroot ``inc[beta]``."""
    g = build_qbg(b2)
    table = g.table
    nv = len(table)
    expected = set()
    for a, cr in enumerate(b2.positive_coroots):
        drop = pair_root_coroot(b2, b2.two_rho, cr) - 1
        tab = table.rmult_root(a)
        for x in range(nv):
            d = table.lengths[tab[x]] - table.lengths[x]
            if d == 1:
                expected.add((x, tab[x], None))
            elif d == -drop:
                expected.add((x, tab[x], a))
    edges = []
    for y in range(nv):
        for x in g._up_in[y]:
            assert table.lengths[y] - table.lengths[x] == 1
            edges.append((x, y, None))
        for x, c in g._down_in[y]:
            a = _root(table, x, y)
            assert c is g._inc[a]
            drop = pair_root_coroot(b2, b2.two_rho, b2.positive_coroots[a]) - 1
            assert table.lengths[y] - table.lengths[x] == -drop
            assert b2.quantum_flags[a]
            edges.append((x, y, a))
    assert len(edges) == len(set(edges))
    assert set(edges) == expected
    assert not hasattr(g, "up") and not hasattr(g, "down")


@pytest.mark.parametrize("ct,n", UNIQ)
def test_shortest_path_weight_uniqueness(ct, n):
    """Independent oracle: enumerate every shortest path by dynamic
    programming over the tight-edge DAG and collect the weight vectors;
    each (source, target) must see exactly one."""
    rs = build_root_system(ct, n)
    g = build_qbg(rs)
    nv = len(g.table)
    out = qbg_edges(g.table)
    for src in range(nv):
        # layered distances
        dist = [None] * nv
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                for y, a in out[x]:
                    if dist[y] is None:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        # weight sets along tight edges, in distance order
        wsets = [set() for _ in range(nv)]
        wsets[src] = {(0,) * rs.rank}
        order = sorted(range(nv), key=lambda v: dist[v])
        for x in order:
            for y, a in out[x]:
                if dist[y] != dist[x] + 1:
                    continue
                gamma = rs.positive_coroots[a] if a is not None else (0,) * rs.rank
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
            if leq_idx(table, a, b):
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
    """The search-tree decomposition is valid and minimal.  w0 is a product
    of ell_R(w0) orthogonal quantum reflections, so the reflection-length
    bound certifies it; s3 s2 s3 in C3 and s2 s1 s2 in G2 are reflections
    in non-quantum roots, ell_down = 3 > ell_R = 1, so only the graph does."""
    for rs, word in ((c3, (2, 1, 2)), (g2, (1, 0, 1))):
        g = build_qbg(rs)
        for x, minimality in ((longest_element(rs), "reflection-length bound"),
                              (from_word(rs, word), "graph")):
            dec = rqrd(g, x)
            rep = verify_rqrd(x, dec)
            assert rep.ok, rep.reasons
            assert rep.minimality == minimality
            assert len(dec) == g.ell_down(x)


def test_verify_rqrd_reasons(a2, c3):
    """Each refusal of verify_rqrd, with the one reason it gives."""
    s1 = reflection(a2, (1, 0))
    theta = reflection(a2, (1, 1))
    e7 = build_root_system("E", 7)
    a1, a3 = (1,) + (0,) * 6, (0, 0, 1, 0, 0, 0, 0)
    cases = [
        (s1, [(2, 0)], "(2, 0) is not a positive root"),
        (s1, [(-1, 0)], "(-1, 0) is not a positive root"),
        (reflection(c3, (0, 1, 1)), [(0, 1, 1)], "(0, 1, 1) is not a quantum root"),
        (s1, [(0, 1)], "factors do not multiply to the element"),
        (s1.mul(s1), [(1, 0), (1, 0)], "length sum 2 differs from ell(x) = 0"),
        (theta, [(1, 0), (0, 1), (1, 0)],
         "not minimal: 3 factors, but a 1-step decomposition exists"),
        (reflection(e7, (1, 0, 1, 0, 0, 0, 0)), [a1, a3, a1],
         "minimality undecided without enumeration (3 factors, lower bound 1)"),
    ]
    for x, factors, reason in cases:
        rep = verify_rqrd(x, factors)
        assert (rep.ok, rep.reasons, rep.minimality) == (False, [reason], None)


@pytest.mark.parametrize("factors", [
    [1, 2],            # no TypeError from tuple(1)
    [(1, 0, 0)],       # three coordinates in rank 2
    [(True, 0)],       # not the root (1, 0)
    [(1.0, 0)],
], ids=["ints", "rank-3", "bool", "float"])
def test_verify_rqrd_refuses_malformed_factors(a2, factors):
    """A factor must be a rank-length vector of ints; anything else is
    refused rather than leaked as a TypeError or read as a root."""
    with pytest.raises(RefusalError, match="factors must be vectors of 2 ints"):
        verify_rqrd(longest_element(a2), factors)


# sha256 of repr([rqrd(x) for every x]) and of repr(all_ell_down()),
# recorded when the graph kept the search tree and each tree edge its root
WITNESS_DIGESTS = {
    ("C", 3): ("604d3bce97dd7e67f3ee3a40bb5a7484fd7974dce7378ef63598677bf42c8a74",
               "b3e48cddce74457307811fd081b758f2d72554949e018eff0ba12fe15d2d15ce"),
    ("G", 2): ("2fd9de4decb7e9040980fce70dddc1059298d997c4e052afa3829c81cf081a3d",
               "e2c7e15958318d32ad9d935fa3e85fcb73891c1735f16adcd4ae77e2e3d0b5f9"),
    ("D", 4): ("a452dda64db2d901648852855832f29b33fbd1b97499100599336aa5e8e29721",
               "be4bafa84a8b54cc59dd43908fce982c2ffe206326fc9300b0d709f3bde40e5b"),
    ("F", 4): ("72842c6962704a8aa61af12ed2ef80999606cc0cde420da8800308ae8965e923",
               "d3973b8d3b6a0f77167ce591c04b60dd082733654345c99673936af1f17addf8"),
}


@pytest.mark.parametrize("ct,n", sorted(WITNESS_DIGESTS))
def test_rqrd_witnesses_frozen(ct, n):
    """The oracle's own down-only search, each vertex's parent the first
    queued vertex to reach it, with each tree edge's root derived from
    (vertex, parent), gives the same decomposition of every x as the graph's
    stored tree did."""
    g = build_qbg(build_root_system(ct, n))
    factors = [rqrd(g, x) for x in range(len(g.table))]
    got = tuple(
        hashlib.sha256(repr(v).encode()).hexdigest()
        for v in (factors, g.all_ell_down())
    )
    assert got == WITNESS_DIGESTS[ct, n]


def test_w0_exhibits_high_rank():
    """The cascade of w0 in the two largest exceptional groups is a valid
    decomposition with rank many factors, certified minimal by the
    reflection-length bound without enumeration, and its coroots sum to
    the closed form of wt(w0)."""
    for ct, n in [("E", 7), ("E", 8)]:
        rs = build_root_system(ct, n)
        res = cascade_r(longest_element(rs))
        factors = [beta for level in res.E_levels for beta in level]
        assert len(factors) == n
        rep = verify_rqrd(res.involution, factors)
        assert rep.ok, rep.reasons
        assert rep.minimality == "reflection-length bound"
        assert res.r == wt_w0_closed_form(ct, n)


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
    out = qbg_edges(g.table)
    for x in range(len(g.table)):
        for y, a in out[x]:
            gamma = a2.positive_coroots[a] if a is not None else (0,) * 2
            lhs = coweight_from_coroot(a2, g.wt(x, 0))
            # triangle bound through the edge
            step = coweight_from_coroot(
                a2, tuple(c + d for c, d in zip(g.wt(y, 0), gamma))
            )
            assert dominance_leq(lhs, step) or lhs.pairing == step.pairing
