"""Finite Weyl group elements, group tables, Bruhat order, reflection
length."""

import gc
import random
import weakref
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from adlv import cascade, cli, newton, qbg, weyl
from adlv.errors import InvariantError, RefusalError
from adlv.rootsys import TYPE_TABLE, WEYL_ORDER, build_root_system
from adlv.weyl import (
    enumerate_group,
    identity_elt,
    longest_element,
    reflection,
    reflection_length,
    simple_reflection,
    word_str,
)

from oracles import (
    act_coroot,
    act_root,
    bruhat_leq,
    from_word,
    leq_idx,
    rho_key_by_forward_images,
    rmult_root_by_word,
)

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
        img = act_root(w0, r)
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


@pytest.mark.parametrize("make,index", [
    (simple_reflection, -1),    # not s_theta, the last letter root
    (simple_reflection, 2),     # no IndexError
    (simple_reflection, True),  # not the cached s_2
    (reflection, -1),           # not the highest root's reflection
    (reflection, True),         # not s_{beta_1}
    (reflection, 3),            # A2 has three positive roots
    (reflection, (2, 2)),       # no KeyError
    (reflection, (True, 0)),    # not the root (1, 0)
    (reflection, (1.0, 0)),     # nor this
    (reflection, [0, False]),   # nor (0, 1) as a list
    (reflection, 2.5),          # no TypeError from tuple(2.5)
    (reflection, None),
    (lambda rs, i: identity_elt(rs).descent_left(i), 5),    # no IndexError
    (lambda rs, i: identity_elt(rs).descent_right(i), -1),   # not theta's entry
    (lambda rs, i: longest_element(rs).descent_right(i), True),
], ids=["simple--1", "simple-2", "simple-True", "reflection--1",
        "reflection-True", "reflection-3", "reflection-(2,2)",
        "reflection-(True,0)", "reflection-(1.0,0)", "reflection-[0,False]",
        "reflection-2.5", "reflection-None", "descent_left-5", "descent_right--1",
        "descent_right-True"])
def test_generators_refuse_an_out_of_range_index(a2, make, index):
    """An index is an int (not a bool) in range, and a vector a tuple or list
    of rank ints (not bools) forming a positive root; anything else is
    refused, not read modulo the row, coerced or leaked.  The descents of
    a finite element take a simple index as ``simple_reflection`` does."""
    simple_reflection(a2, 1), reflection(a2, 0)  # cached, as True would hit
    with pytest.raises(RefusalError):
        make(a2, index)


def test_reflection_reads_a_root_vector_as_a_tuple_or_list(a2):
    assert reflection(a2, [1, 0]) is reflection(a2, (1, 0)) is reflection(
        a2, a2.root_index[(1, 0)])


@pytest.mark.parametrize("index", [-1, True, 1.0, 3, None])
def test_rmult_root_refuses_a_bad_root_index(a2, index):
    """A root index is an int (not a bool) in 0..|Phi+|-1, checked before the
    cache, so -1 and True are not other roots' tables, 1.0 is not root 1's,
    and 3 and None leak no IndexError or TypeError."""
    table = weyl.GroupTable(a2)
    for a in range(3):
        table.rmult_root(a)
    with pytest.raises(RefusalError):
        table.rmult_root(index)


TABLE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5),
               ("F", 4), ("G", 2), ("E", 6)]


@pytest.mark.parametrize("ct,n", TABLE_TYPES)
def test_reflection_tables_match_the_word_fold(ct, n):
    """Each reflection table, built by conjugating a lower root's, equals
    the fold of the simple tables along a reduced word of s_beta; a simple
    root's table is the generator table itself.  Asking from the highest
    root down builds each chain of lower tables on the way."""
    rs = build_root_system(ct, n)
    table = weyl.GroupTable(rs)
    for a in reversed(range(len(rs.positive_roots))):
        assert table.rmult_root(a) == rmult_root_by_word(table, a)
    for i in range(n):
        assert table.rmult_root(rs.letter_roots[i + 1]) is table.rmult[i]


def test_reflection_tables_survive_the_suites(monkeypatch):
    """The simple-root tables are the shared ``rmult`` lists: after the
    qbg, cover, cascade and adm suites on B3, and the newton suite on B2
    (on B3 it exceeds the interval state cap), every reflection table
    still equals the word fold, so no suite wrote into them."""
    monkeypatch.setattr(weyl, "_TABLES", {})
    runs = [(s, 3) for s in ("qbg", "cover", "cascade", "adm")] + [("newton", 2)]
    for suite, n in runs:
        assert cli.run_suite(suite, cartan_type="B", rank=n)["passed"]
    for n in (2, 3):
        rs = build_root_system("B", n)
        table = enumerate_group(rs)
        for a in range(len(rs.positive_roots)):
            assert table.rmult_root(a) == rmult_root_by_word(table, a)


def test_reflections_negate_their_root(b3):
    for a, beta in enumerate(b3.positive_roots):
        s = reflection(b3, a)
        assert act_root(s, beta) == tuple(-c for c in beta)
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
            img = act_root(x, beta)
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
def test_index_path_matches_matrices(ct, n):
    """Products and inverses compose and invert rows of root images,
    whether or not a table is cached: each equals the table element at
    ``prod_idx`` or ``inv_idx``, with the length the table records.
    Every reflection is a table element at its index."""
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    elts = table.elements
    for a, x in enumerate(elts):
        assert x.inv() == elts[table.inv_idx(a)]
        for b, y in enumerate(elts):
            p, k = x.mul(y), table.prod_idx(a, b)
            assert p == elts[k] and p.length() == table.lengths[k]
    assert [x.inv().inv() for x in elts] == elts
    for a, t in enumerate(table._reflections):
        assert elts[t] == reflection(rs, a)
        assert elts[t].imgs[a] == ~a


@pytest.mark.parametrize("ct,n,sample", [
    *((ct, n, None) for ct, n in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                                  ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
                                  ("D", 4), ("F", 4), ("G", 2)]),
    ("E", 6, 400),
])
def test_rho_key_is_the_heights_of_the_forward_images(ct, n, sample):
    """The rho_check key that ``GroupTable.idx`` reads off a row by two
    index scans per simple root equals ht(x alpha_j), from the forward
    images, on every element (on a seeded sample of E6), and keys a fresh
    element with that row to its table index."""
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    idxs = range(len(table))
    for a in random.Random(6).sample(idxs, sample) if sample else idxs:
        x = table.elements[a]
        assert weyl._rho_key(rs, x.imgs) == rho_key_by_forward_images(x)
        assert table.idx(weyl.WeylElt(rs, x.imgs)) == a


def test_table_and_qbg_build_multiply_no_matrices(monkeypatch):
    """Building the F4 and D5 tables and their quantum Bruhat graphs reads
    index data only: no table element past the identity is built."""
    monkeypatch.setattr(weyl, "_TABLES", {})  # fresh tables carry no graph
    for ct, n in (("F", 4), ("D", 5)):
        rs = build_root_system(ct, n)
        table = enumerate_group(rs)
        qbg.build_qbg(rs)
        assert table.elements._slots[1:] == [None] * (len(table) - 1)


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


def test_composition_path_on_e7_and_e8(monkeypatch):
    """Composing and inverting rows needs no table, so E7 and E8, above
    ``GROUP_CAP``, multiply as every group does.  On E8, w0 has length 120,
    is an involution, has the tabulated reflection length 8, and its
    reduced word folds back to it; on E7, (xy)^-1 = y^-1 x^-1 for seeded
    words.  No table is built."""
    monkeypatch.setattr(weyl, "_TABLES", {})
    e8 = build_root_system("E", 8)
    w0 = longest_element(e8)
    assert w0.length() == 120 and w0.mul(w0).is_identity()
    assert reflection_length(w0) == TYPE_TABLE["E"].ell_r_w0(8) == 8
    assert from_word(e8, w0.to_word()) == w0
    e7 = build_root_system("E", 7)
    rng = random.Random(7)
    for _ in range(20):
        x, y = (from_word(e7, [rng.randrange(7) for _ in range(rng.randrange(30))])
                for _ in range(2))
        assert x.mul(y).inv() == y.inv().mul(x.inv())
    assert weyl._TABLES == {}


@pytest.mark.parametrize("ct,n", [("B", 3), ("G", 2), ("D", 4), ("F", 4)])
def test_lazy_elements_match_eager_in_any_order(ct, n):
    """Table elements built in a shuffled order equal the row products
    of their words, carry their index and length, and are built once; the
    whole sequence equals a fresh table's, read in index order."""
    rs = build_root_system(ct, n)
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


def test_corrupt_parent_entries_are_refused():
    """A multiplication entry that sends an element's word-prefix walk
    back to itself, or to the wrong parent, is refused when the element is
    built; its rows are never handed out as another index's element."""
    a2 = build_root_system("A", 2)
    looped = weyl.GroupTable(a2)
    looped.rmult[1][3] = 3  # claims s1 s2 * s2 = s1 s2
    with pytest.raises(InvariantError, match="do not reach the identity"):
        looped.elements[3]
    wrong = weyl.GroupTable(a2)
    wrong.rmult[1][3] = 2  # claims s1 s2 * s2 = s2
    with pytest.raises(InvariantError, match="keys to another index"):
        wrong.elements[3]
    assert wrong.elements[2] == simple_reflection(a2, 1)
