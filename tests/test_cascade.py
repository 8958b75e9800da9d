"""Cascade statistics: minus-one roots, the layered coroot sum r, the
depth statistic dp, the length-additive reflection count, and the
comparison of r against the quantum Bruhat graph weight.

Witness elements below were fixed by direct computation with independent
routines (brute-force search over the group table) and are frozen here as
regression anchors.
"""

import pytest

from adlv.cascade import (
    cascade_r,
    compare_wt_r,
    dp,
    dp_all,
    dp_root,
    ell_red,
    ell_red_all,
    involutions,
    minus_one_roots,
)
from adlv.cli import main
from adlv.errors import RefusalError
from adlv.qbg import build_qbg
from adlv.rootsys import build_root_system
from adlv.weyl import (
    enumerate_group,
    longest_element,
    reflection_length,
    word_str,
)

from oracles import (
    act_coroot,
    from_word,
    orthogonal_decompositions,
    pair_root_coroot,
)

# ---------------------------------------------------------------------------
# involutions enumeration


def test_involution_counts_type_a():
    # Number of elements of order <= 2 in the symmetric group S_{n+1}.
    expected = {1: 2, 2: 4, 3: 10, 4: 26, 5: 76}
    for n, count in expected.items():
        rs = build_root_system("A", n)
        assert len(involutions(rs)) == count


def test_involutions_square_to_identity(a3):
    table = enumerate_group(a3)
    invs = {table.idx(x) for x in involutions(a3)}
    for i in range(len(table)):
        assert (table.prod_idx(i, i) == 0) == (i in invs)


def test_cascade_requires_involution(a2):
    table = enumerate_group(a2)
    x = table.elements[table.idx(from_word(a2, (0, 1)))]  # order 3
    with pytest.raises(ValueError):
        cascade_r(x)
    with pytest.raises(ValueError):
        minus_one_roots(x)
    with pytest.raises(ValueError):
        orthogonal_decompositions(x)


def test_non_involution_is_a_refusal(a2, capsys):
    """A non-involution is refused like every other bad input: a
    RefusalError (a ValueError), which the CLI maps to exit 2."""
    with pytest.raises(RefusalError, match="defined for involutions only"):
        cascade_r(from_word(a2, (0, 1)))
    assert main(["query", "--type", "A", "--rank", "2", "cascade s1 s2"]) == 2
    assert "defined for involutions only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# structural invariants of the cascade levels


@pytest.mark.parametrize(
    "ct,n", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
)
def test_cascade_level_structure(ct, n):
    """Every cascade root is negated by x, the chosen roots are pairwise
    orthogonal, their number equals the reflection length, and r is the
    sum of their coroots."""
    rs = build_root_system(ct, n)
    for x in involutions(rs):
        res = cascade_r(x)
        flat = [b for level in res.E_levels for b in level]
        m1 = set(minus_one_roots(x))
        assert all(b in m1 for b in flat)
        assert len(flat) == reflection_length(x)
        coroots = [rs.positive_coroots[rs.root_index[b]] for b in flat]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                assert (
                    pair_root_coroot(rs, flat[i], coroots[j]) == 0
                ), (x, flat)
        summed = tuple(
            sum(c[k] for c in coroots) for k in range(rs.rank)
        )
        assert res.r == summed


@pytest.mark.parametrize(
    "ct,n", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
)
def test_cascade_maximality_per_level(ct, n):
    """Level i consists exactly of the dominance-maximal negated roots
    among those orthogonal to all earlier levels (recomputed here from
    minus_one_roots alone)."""
    rs = build_root_system(ct, n)

    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    for x in involutions(rs):
        res = cascade_r(x)
        pool = set(minus_one_roots(x))
        taken = []
        for level in res.E_levels:
            avail = [
                b
                for b in pool
                if all(
                    pair_root_coroot(
                        rs, b, rs.positive_coroots[rs.root_index[g]]
                    )
                    == 0
                    for g in taken
                )
            ]
            maximal = {
                b
                for b in avail
                if not any(g != b and leq(b, g) for g in avail)
            }
            assert set(level) == maximal
            taken.extend(level)
            pool -= set(level)


def test_cascade_equivariance_under_w0():
    """Conjugation by the longest element permutes the negated roots by
    beta -> -w0(beta), which preserves the dominance order, so
    r(w0 x w0) = -w0(r(x))."""
    for ct, n in (("A", 3), ("A", 4), ("D", 4)):
        rs = build_root_system(ct, n)
        w0 = longest_element(rs)
        for x in involutions(rs):
            y = w0.mul(x).mul(w0.inv())
            pred = tuple(-c for c in act_coroot(w0, cascade_r(x).r))
            assert cascade_r(y).r == pred


def test_minus_one_roots_of_longest_element():
    # In B2 the longest element acts as -1, so every positive root is
    # negated; in A2 only the highest root is.
    b2 = build_root_system("B", 2)
    assert set(minus_one_roots(longest_element(b2))) == set(
        b2.positive_roots
    )
    a2 = build_root_system("A", 2)
    assert minus_one_roots(longest_element(a2)) == [(1, 1)]


# ---------------------------------------------------------------------------
# dp and the length-additive reflection count


def test_dp_root_values(a2, b2):
    # dp of a reflection is (length + 1) / 2.
    for rs in (a2, b2):
        table = enumerate_group(rs)
        for a in range(len(rs.positive_roots)):
            l = table.lengths[table.rmult_root(a)[0]]
            assert l % 2 == 1
            assert dp_root(rs, a) == (l + 1) // 2


def test_dp_by_uniform_cost_oracle(b2, g2):
    """dp equals the cheapest reflection factorization where a factor
    s_beta costs (ell(s_beta)+1)/2, recomputed by plain Bellman-Ford
    relaxation over the full multiplication table."""
    for rs in (b2, g2):
        table = enumerate_group(rs)
        nroots = len(rs.positive_roots)
        costs = [dp_root(rs, a) for a in range(nroots)]
        best = [0] + [10**9] * (len(table) - 1)
        changed = True
        while changed:
            changed = False
            for v in range(len(table)):
                for a in range(nroots):
                    u = table.rmult_root(a)[v]
                    if best[v] + costs[a] < best[u]:
                        best[u] = best[v] + costs[a]
                        changed = True
        assert list(dp_all(rs)) == best


def test_ell_red_by_enumeration_oracle(b2, c3):
    """ell_red equals the fewest reflections whose lengths add up to the
    length of the product, recomputed by breadth-first layering here."""
    for rs in (b2, c3):
        table = enumerate_group(rs)
        nroots = len(rs.positive_roots)
        rlen = [table.lengths[table.rmult_root(a)[0]] for a in range(nroots)]
        dist = [None] * len(table)
        dist[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for a in range(nroots):
                    u = table.rmult_root(a)[v]
                    if (
                        dist[u] is None
                        and table.lengths[u] == table.lengths[v] + rlen[a]
                    ):
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        assert list(ell_red_all(rs)) == dist


@pytest.mark.parametrize(
    "ct,n",
    [("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("G", 2)],
)
def test_dp_identity_small(ct, n):
    # 2 dp(x) = ell(x) + ell_red(x) for every element at these sizes.
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    dps = dp_all(rs)
    reds = ell_red_all(rs)
    for i in range(len(table)):
        assert 2 * dps[i] == table.lengths[i] + reds[i]


# ---------------------------------------------------------------------------
# wt versus r across involutions


def test_wt_equals_r_in_type_a():
    for n in range(1, 6):
        rep = compare_wt_r(build_root_system("A", n))
        assert rep["mismatches"] == 0


def test_mismatch_counts_frozen():
    expected = {
        ("G", 2): (8, 2),
        ("D", 4): (44, 8),
        ("B", 3): (20, 4),
        ("B", 4): (76, 24),
        ("C", 3): (20, 0),
    }
    for (ct, n), (ninv, nmis) in expected.items():
        rep = compare_wt_r(build_root_system(ct, n))
        assert rep["involutions"] == ninv
        assert rep["mismatches"] == nmis


def test_compare_rows_consistent(g2):
    g = build_qbg(g2)
    table = enumerate_group(g2)
    rep = compare_wt_r(g2)
    for row in rep["rows"]:
        word = tuple(
            int(tok) - 1
            for tok in row["x_word"].replace("s", " ").split()
        ) if row["x_word"] != "e" else ()
        x = from_word(g2, word)
        assert list(g.wt1(x)) == row["wt"]
        assert list(cascade_r(x).r) == row["r"]
        assert row["dp"] == dp(x)
        assert row["ell_red"] == ell_red(x)
        assert row["ell_down"] == g.ell_down(x)
        assert row["match"] == (row["wt"] == row["r"])


# ---------------------------------------------------------------------------
# frozen witnesses


def test_witness_d4():
    """A length-7 involution of reflection length 3 whose graph weight
    differs from r: its unique expression as three pairwise orthogonal
    reflections forces r = (1,3,1,2), while the graph weight is
    (1,2,1,2) and dp = 6 rather than the 7 that r would suggest."""
    rs = build_root_system("D", 4)
    x = from_word(rs, (3, 1, 2, 0, 1, 3, 1))
    table = enumerate_group(rs)
    i = table.idx(x)
    assert table.prod_idx(i, i) == 0
    assert x.length() == 7
    assert reflection_length(x) == 3
    assert dp(x) == 6
    g = build_qbg(rs)
    assert g.wt1(x) == (1, 2, 1, 2)
    assert cascade_r(x).r == (1, 3, 1, 2)
    assert g.wt1(x) != cascade_r(x).r
    triples = [
        d for d in orthogonal_decompositions(x) if len(d) == 3
    ]
    assert len(triples) == 1
    roots = {rs.positive_roots[a] for a in triples[0]}
    assert roots == {(0, 1, 0, 0), (0, 1, 1, 1), (1, 1, 0, 1)}


def test_witness_b4():
    """A length-11 involution in B4 where the graph weight (1,2,3,2)
    stays strictly below r = (1,3,3,2); its shortest down-respecting
    factorization has five factors."""
    rs = build_root_system("B", 4)
    y = from_word(rs, (3, 2, 3, 1, 2, 3, 0, 1, 2, 3, 1))
    table = enumerate_group(rs)
    i = table.idx(y)
    assert table.prod_idx(i, i) == 0
    assert y.length() == 11
    assert word_str(table.words[i]) == "s2s4s3s2s1s4s3s2s4s3s4"
    g = build_qbg(rs)
    assert g.wt1(y) == (1, 2, 3, 2)
    assert cascade_r(y).r == (1, 3, 3, 2)
    assert g.ell_down(y) == 5
    assert ell_red(y) == 5
    assert dp(y) == 8


def test_witness_c3():
    """The C3 reflection in the long root (1,2,1), which is not a
    quantum root: here wt = r = (1,2,2) but the graph needs three steps
    down (ell_down = 3) against a reflection count of 1."""
    rs = build_root_system("C", 3)
    x = from_word(rs, (1, 2, 0, 1, 2, 0, 1))
    beta = rs.root_index[(1, 2, 1)]
    table = enumerate_group(rs)
    assert table.idx(x) == table.rmult_root(beta)[0]
    assert not rs.quantum_flags[beta]
    assert x.length() == 7
    assert ell_red(x) == 1
    g = build_qbg(rs)
    assert g.ell_down(x) == 3
    assert g.wt1(x) == (1, 2, 2)
    assert cascade_r(x).r == (1, 2, 2)
    assert rs.positive_coroots[beta] == (1, 2, 2)


def test_witness_b3():
    """The B3 reflection in the short root (1,1,1), also not quantum:
    ell_down jumps to 5, the full length of the element, while a single
    reflection suffices for a length-additive factorization."""
    rs = build_root_system("B", 3)
    x = from_word(rs, (0, 1, 2, 1, 0))
    beta = rs.root_index[(1, 1, 1)]
    table = enumerate_group(rs)
    assert table.idx(x) == table.rmult_root(beta)[0]
    assert not rs.quantum_flags[beta]
    assert x.length() == 5
    assert ell_red(x) == 1
    g = build_qbg(rs)
    assert g.ell_down(x) == 5
    assert g.wt1(x) == (2, 2, 1)
    assert cascade_r(x).r == (2, 2, 1)


def test_witness_g2():
    """The G2 reflection in the non-quantum root (1,1): graph weight
    (1,2) versus r = coroot of (1,1) = (1,3)."""
    rs = build_root_system("G", 2)
    z = from_word(rs, (1, 0, 1))
    beta = rs.root_index[(1, 1)]
    table = enumerate_group(rs)
    assert table.idx(z) == table.rmult_root(beta)[0]
    assert not rs.quantum_flags[beta]
    assert z.length() == 3
    assert ell_red(z) == 1
    g = build_qbg(rs)
    assert g.ell_down(z) == 3
    assert g.wt1(z) == (1, 2)
    assert cascade_r(z).r == (1, 3)
    assert rs.positive_coroots[beta] == (1, 3)


def test_orthogonal_decompositions_identity_and_reflection(a2):
    # The identity decomposes only as the empty product; a simple
    # reflection only as itself.
    table = enumerate_group(a2)
    e = table.elements[0]
    assert orthogonal_decompositions(e) == [()]
    s1 = from_word(a2, (0,))
    decs = orthogonal_decompositions(s1)
    assert decs == [(a2.root_index[(1, 0)],)]
