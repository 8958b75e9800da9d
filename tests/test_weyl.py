"""Finite Weyl group elements, group tables, Bruhat order, reflection
length."""

import gc
import random
import weakref
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from adlv import cascade, newton, qbg, weyl
from adlv.rootsys import WEYL_ORDER, build_root_system
from adlv.weyl import (
    enumerate_group,
    longest_element,
    reflection,
    reflection_length,
    simple_reflection,
    word_str,
)

from oracles import act_coroot, bruhat_leq, from_word, leq_idx

SMALL = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4)]


@pytest.mark.parametrize("ct,n", SMALL)
def test_group_order_and_longest(ct, n):
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    assert len(table) == WEYL_ORDER(ct, n)
    w0 = longest_element(rs)
    assert w0.length() == len(rs.positive_roots)
    assert w0.mul(w0).is_identity()
    # w0 sends every positive root to a negative one
    for r in rs.positive_roots:
        img = w0.act_root(r)
        assert all(c <= 0 for c in img) and any(c < 0 for c in img)


def test_word_roundtrip(b2):
    rs = b2
    for word in [(), (0,), (0, 1), (1, 0, 1), (0, 1, 0, 1)]:
        x = from_word(rs, word)
        assert from_word(rs, x.to_word()) == x
        assert x.length() <= len(word)
    # the 4-letter alternating word in B2 is reduced
    assert from_word(rs, (0, 1, 0, 1)).length() == 4


def test_simple_reflection_involution(a2):
    s1 = simple_reflection(a2, 0)
    assert s1.mul(s1).is_identity()
    assert s1.length() == 1
    # braid relation s1 s2 s1 = s2 s1 s2 in A2
    s2 = simple_reflection(a2, 1)
    assert s1.mul(s2).mul(s1) == s2.mul(s1).mul(s2)


def test_reflections_negate_their_root(b3):
    for a, beta in enumerate(b3.positive_roots):
        s = reflection(b3, a)
        assert s.act_root(beta) == tuple(-c for c in beta)
        assert s.mul(s).is_identity()


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2), ("A", 3)])
def test_bruhat_order_properties(ct, n):
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    e_idx = 0
    w0_idx = table.w0_idx
    for a in range(len(table)):
        assert leq_idx(table, e_idx, a)
        assert leq_idx(table, a, w0_idx)
        for b in range(len(table)):
            if leq_idx(table, a, b) and leq_idx(table, b, a):
                assert a == b
            if leq_idx(table, a, b):
                assert table.lengths[a] <= table.lengths[b]
            # element route agrees with the mask route
            assert leq_idx(table, a, b) == bruhat_leq(
                table.elements[a], table.elements[b]
            )


def test_bruhat_subword_property(a3):
    """b <= a iff some subword of a reduced word for a multiplies to b;
    checked directly against the mask-based relation."""
    table = enumerate_group(a3)
    for a in range(len(table)):
        word = table.words[a]
        reachable = {0}
        for j in word:
            reachable |= {table.rmult[j][x] for x in reachable}
        expect = {b for b in range(len(table)) if leq_idx(table, b, a)}
        assert reachable == expect


def _reflection_length_bfs(rs):
    """Independent oracle: unweighted Cayley distance from the identity
    with every reflection as a generator."""
    table = enumerate_group(rs)
    nroots = len(rs.positive_roots)
    tabs = [table.rmult_root(a) for a in range(nroots)]
    dist = [-1] * len(table)
    dist[0] = 0
    q = deque([0])
    while q:
        x = q.popleft()
        for t in tabs:
            y = t[x]
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


@pytest.mark.parametrize("ct,n", [("A", 3), ("B", 3), ("G", 2)])
def test_reflection_length_vs_bfs(ct, n):
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    dist = _reflection_length_bfs(rs)
    for a, x in enumerate(table.elements):
        assert reflection_length(x) == dist[a]


@pytest.mark.parametrize("ct,n", [("B", 2), ("G", 2), ("B", 3)])
def test_group_table_consistency(ct, n):
    """Index folds against matrix products."""
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    refls = [reflection(rs, t) for t in range(len(rs.positive_roots))]
    for a in range(len(table)):
        x = table.elements[a]
        assert table.idx(x) == a
        assert table.idx(x.inv()) == table.inv_idx(a)
        assert len(table.words[a]) == table.lengths[a] == x.length()
        assert from_word(rs, table.words[a]) == x
        for b in range(len(table)):
            y = table.elements[b]
            assert table.prod_idx(a, b) == table.idx(x.mul(y))
        for t, s in enumerate(refls):
            assert table.rmult_root(t)[a] == table.idx(x.mul(s))
    assert table.w0_idx == table.idx(longest_element(rs))


@pytest.mark.parametrize("ct,n", [("B", 3), ("C", 3), ("G", 2), ("F", 4)])
def test_coroot_action_matches_root_action(ct, n):
    """x(beta) = +-gamma forces x(beta_check) = +-gamma_check; in the
    non-simply-laced types the coroot action differs from the root action."""
    rs = build_root_system(ct, n)
    for x in enumerate_group(rs).elements:
        for a, beta in enumerate(rs.positive_roots):
            img = x.act_root(beta)
            sign = 1 if sum(img) > 0 else -1
            g = rs.root_index[tuple(sign * c for c in img)]
            assert act_coroot(x, rs.positive_coroots[a]) == tuple(
                sign * c for c in rs.positive_coroots[g]
            )


@pytest.mark.parametrize("ct,n", SMALL + [("F", 4), ("D", 5)])
def test_table_words_are_the_least_reduced_words(ct, n):
    """A table's word for each index is its element's lexicographically
    least reduced word, so reports may label elements by ``table.words``."""
    table = enumerate_group(build_root_system(ct, n))
    assert all(table.words[a] == x.to_word() for a, x in enumerate(table.elements))


def test_word_str():
    assert word_str(()) == "e"
    assert word_str((0, 1)) == "s1s2"


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([("A", 2), ("B", 2), ("G", 2)]),
    st.lists(st.integers(0, 1), max_size=8),
)
def test_inverse_and_length_properties(tn, word):
    rs = build_root_system(*tn)
    x = from_word(rs, word)
    assert x.mul(x.inv()).is_identity()
    assert x.inv().length() == x.length()
    # the pairing actions of x and x^-1 are mutually inverse
    lam = (1, 2)
    assert x.act_pairing(x.inv().act_pairing(lam)) == lam
    assert x.inv().act_pairing(x.act_pairing(lam)) == lam


INDEX_PATH = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)]


@pytest.mark.parametrize("ct,n", INDEX_PATH)
def test_index_path_matches_matrices(ct, n, monkeypatch):
    """With the group table cached, products, inverses and root images
    under inverses are table lookups; with the table taken out of the cache
    the same calls multiply matrices.  Both give the same elements, and
    the table path hands out the shared table elements with their
    lengths."""
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    elts = table.elements

    def run():
        prods = [x.mul(y) for x in elts for y in elts]
        return prods, [x.inv() for x in elts], [x.inv_images() for x in elts]

    prods, invs, images = run()
    with monkeypatch.context() as m:
        m.setattr(weyl, "_TABLES", {})
        assert run() == (prods, invs, images)
    for k, p in enumerate(prods):
        assert p is elts[table.prod_idx(k // len(elts), k % len(elts))]
        assert p.length() == sum(c < 0 for c in p.inv_images())
    assert [x.inv() for x in invs] == elts
    for a, t in enumerate(table.reflections):
        assert elts[t] == reflection(rs, a)
        assert elts[t].inv_images()[a] == ~a


def test_table_and_qbg_build_multiply_no_matrices(monkeypatch):
    """Building the F4 and D5 tables and their quantum Bruhat graphs reads
    index data only: no element matrix is built."""
    calls = []
    real = weyl.mat_mul

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(weyl, "mat_mul", counted)
    monkeypatch.setattr(weyl, "_TABLES", {})  # fresh tables carry no graph
    for ct, n in (("F", 4), ("D", 5)):
        rs = build_root_system(ct, n)
        enumerate_group(rs)
        qbg.build_qbg(rs)
    assert not calls


def test_derived_data_lives_and_dies_with_its_table(monkeypatch):
    """The graph, the Newton averaging data, dp and ell_red are kept on the
    group table they come from: dropping the table from the cache frees
    it, and the table that replaces it gets a graph of its own."""
    rs = build_root_system("D", 4)
    monkeypatch.setattr(weyl, "_TABLES", {})
    table = enumerate_group(rs)
    assert qbg.build_qbg(rs).table is table
    newton._averaging_data(table)
    cascade.dp_all(rs)
    cascade.ell_red_all(rs)
    ref = weakref.ref(table)
    del table, weyl._TABLES[rs]
    gc.collect()
    assert ref() is None
    assert qbg.build_qbg(rs).table is enumerate_group(rs)


@pytest.mark.parametrize("ct,n", [("B", 3), ("G", 2), ("D", 4), ("F", 4)])
def test_lazy_elements_match_eager_in_any_order(ct, n, monkeypatch):
    """Table elements built in a shuffled order equal the matrix products
    of their words, carry their index and length, and are built once; the
    whole sequence equals a fresh table's, read in index order."""
    rs = build_root_system(ct, n)
    monkeypatch.setattr(weyl, "_TABLES", {})  # from_word multiplies matrices
    table = weyl.GroupTable(rs)
    order = list(range(len(table)))
    random.Random(5).shuffle(order)
    for a in order:
        x = table.elements[a]
        assert x == from_word(rs, table.words[a])
        assert (x._idx, x._len) == (a, table.lengths[a])
        assert table.elements[a] is x
    fresh = list(weyl.GroupTable(rs).elements)
    assert list(table.elements) == fresh and table.elements == fresh
