"""Quantum Bruhat graph: edges, weights, uniqueness, closed forms, and
downward decompositions."""

import hashlib
from collections import deque
from itertools import product
from random import Random

import pytest

from adlv import qbg
from adlv.affine import demazure_ltri, embed, translation
from adlv.errors import BudgetError, InvariantError
from adlv.newton import max_newton_formula
from adlv.rootsys import (
    build_root_system,
    coweight,
    coweight_from_coroot,
    dominance_leq,
)
from adlv.weyl import enumerate_group, longest_element
from adlv.qbg import (
    QBGraph,
    build_qbg,
    compute_M,
    m_tilde,
    reflection_length_w0,
    verify_rqrd,
    w0_rqrd_exhibit,
    wt_w0_closed_form,
)

from oracles import leq_idx, pair_root_coroot

UNIQ = [("A", 2), ("B", 2), ("G", 2)]
ORACLE_SCOPE = UNIQ + [("A", 3), ("B", 3), ("C", 3)]


def _root(table, x, y):
    """The root of the edge between x and y, read off the table: x^-1 y is
    the reflection s_beta, whichever way the edge points."""
    return table.reflections.index(table.prod_idx(table.inv_idx(x), y))


def _edges(g, up, down, x):
    """The edges at x as (other end, root index or None for an up edge)."""
    return [(u, None) for u in up[x]] + [
        (u, _root(g.table, x, u)) for u, _ in down[x]
    ]


def _corrupt(g, a):
    """Add one to the packed coroot of root a on every edge carrying it;
    packing is injective, so those are the edges whose weight equals it."""
    bad = g.inc[a]
    for lists in (g.down, g.down_in):
        for edges in lists:
            edges[:] = [(u, c + (c == bad)) for u, c in edges]


def _tuple_bfs(g, src, up, down):
    """Reference search: the layered BFS carrying each weight as a tuple of
    simple-coroot coordinates, with the same agreement check."""
    coroots = g.rs.positive_coroots
    dist = [-1] * len(up)
    wts = [None] * len(up)
    dist[src] = 0
    wts[src] = (0,) * g.rs.rank
    q = deque([src])
    while q:
        v = q.popleft()
        for u, a in _edges(g, up, down, v):
            w = wts[v]
            if a is not None:
                w = tuple(p + c for p, c in zip(w, coroots[a]))
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                wts[u] = w
                q.append(u)
            elif dist[u] == dist[v] + 1 and wts[u] != w:
                raise InvariantError("two shortest paths with different weights")
    return dist, wts


@pytest.mark.parametrize("ct,n", ORACLE_SCOPE)
def test_packed_weights_match_tuple_oracle(ct, n):
    rs = build_root_system(ct, n)
    g = build_qbg(rs)
    nv = len(g.table)
    for src in range(nv):
        dist, wts = _tuple_bfs(g, src, g.up, g.down)
        got_dist, got_wts = g.search(src)
        assert got_dist == dist
        assert [g.decode(p) for p in got_wts] == wts
    dist, wts = _tuple_bfs(g, 0, g.up_in, g.down_in)
    assert g.all_wt1() == wts
    assert [g.wt1(x) for x in range(nv)] == wts


@pytest.mark.parametrize("ct,n", [("F", 4), ("D", 5)])
def test_packed_weights_match_tuple_oracle_sampled(ct, n):
    """The benchmark's groups: a seeded sample of forward searches, and the
    search to the identity, equal the tuple search, and every vertex is
    reached, so no distance is left at the |W| sentinel."""
    g = build_qbg(build_root_system(ct, n))
    nv = len(g.table)
    for src in Random(0).sample(range(nv), 6):
        got_dist, got_wts = g.search(src)
        assert max(got_dist) < nv
        assert (got_dist, [g.decode(p) for p in got_wts]) == _tuple_bfs(
            g, src, g.up, g.down
        )
    assert g.all_wt1() == _tuple_bfs(g, 0, g.up_in, g.down_in)[1]
    assert max(g.all_ell_down()) < nv


@pytest.mark.parametrize("ct,n", UNIQ)
def test_parents_from_discovery_order(ct, n):
    """The parents read off the down-only search's discovery order are the
    first-found parents of a reference search that stores them."""
    g = build_qbg(build_root_system(ct, n))
    nv = len(g.table)
    parent = [-1] * nv
    seen = [False] * nv
    seen[0] = True
    q = deque([0])
    while q:
        v = q.popleft()
        for u, _ in g.down_in[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                q.append(u)
    assert g._reverse_down()[1] == parent


SERVED_SCOPE = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("ct,n", SERVED_SCOPE)
def test_served_queries_match_search(ct, n):
    """wt(x, y), served through the min-fold, and d_gamma(x, y), served by
    the length identity, equal the forward search from x for every y:
    from every x up to order 384, from a seeded sample of 24 in F4."""
    g = build_qbg(build_root_system(ct, n))
    nv = len(g.table)
    sources = range(nv) if nv <= 384 else Random(0).sample(range(nv), 24)
    for x in sources:
        dist, wts = g.search(x)
        assert [g.wt(x, y) for y in range(nv)] == list(map(g.decode, wts))
        assert [g.d_gamma(x, y) for y in range(nv)] == dist


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
    drop it by <2 rho, beta_check> - 1, and up and down together hold each
    edge derived from ``rmult_root`` once, in both directions; each down
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
    for x in range(nv):
        for y in g.up[x]:
            assert table.lengths[y] - table.lengths[x] == 1
        for y, c in g.down[x]:
            a = _root(table, x, y)
            assert c is g.inc[a]
            drop = pair_root_coroot(b2, b2.two_rho, b2.positive_coroots[a]) - 1
            assert table.lengths[y] - table.lengths[x] == -drop
            assert b2.quantum_flags[a]
    for up, down, fwd in ((g.up, g.down, True), (g.up_in, g.down_in, False)):
        edges = [
            (x, u, a) if fwd else (u, x, a)
            for x in range(nv)
            for u, a in _edges(g, up, down, x)
        ]
        assert len(edges) == len(set(edges))
        assert set(edges) == expected


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
                for y, a in _edges(g, g.up, g.down, x):
                    if dist[y] is None:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        # weight sets along tight edges, in distance order
        wsets = [set() for _ in range(nv)]
        wsets[src] = {(0,) * rs.rank}
        order = sorted(range(nv), key=lambda v: dist[v])
        for x in order:
            for y, a in _edges(g, g.up, g.down, x):
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
    for rs in (c3, g2):
        g = build_qbg(rs)
        w0 = longest_element(rs)
        dec = g.rqrd(w0)
        rep = verify_rqrd(w0, tuple(dec))
        assert rep.ok, rep.reasons
        assert rep.minimality == "graph"
        assert len(dec) == g.ell_down(w0)


# sha256 of repr([rqrd(x).factors for every x]) and of repr(all_ell_down()),
# recorded when each search tree edge still stored its root
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
    """Deriving each tree edge's root from (vertex, parent) gives the same
    decomposition of every x as storing it did."""
    g = build_qbg(build_root_system(ct, n))
    factors = [g.rqrd(x).factors for x in range(len(g.table))]
    got = tuple(
        hashlib.sha256(repr(v).encode()).hexdigest()
        for v in (factors, g.all_ell_down())
    )
    assert got == WITNESS_DIGESTS[ct, n]


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
        for y, a in _edges(g, g.up, g.down, x):
            gamma = a2.positive_coroots[a] if a is not None else (0,) * 2
            lhs = coweight_from_coroot(a2, g.wt(x, 0))
            # triangle bound through the edge
            step = coweight_from_coroot(
                a2, tuple(c + d for c, d in zip(g.wt(y, 0), gamma))
            )
            assert dominance_leq(lhs, step) or lhs.pairing == step.pairing
