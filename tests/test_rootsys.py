"""Root system construction, pairings, dominance, and quantum roots."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from adlv._matrix import mat_inv
from adlv.adm import adm_membership_char, adm_set
from adlv.cover import predicted_cocovers
from adlv.errors import RefusalError
from adlv.rootsys import (
    TYPE_TABLE,
    _dominantize,
    build_root_system,
    coweight,
    coweight_from_coroot,
    depth,
    dominance_leq,
    dominant_rep,
    pairing,
    root_leq,
)
from adlv.weyl import identity_elt

from oracles import pair_root_coroot, quantum_roots_by_classification, simple_root

ALL_SMALL = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
    ("F", 4), ("G", 2),
]


def positive_count(ct, n):
    # classical positive-root counts, written out independently
    if ct == "A":
        return n * (n + 1) // 2
    if ct in ("B", "C"):
        return n * n
    if ct == "D":
        return n * (n - 1)
    if ct == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    if ct == "F":
        return 24
    return 6


@pytest.mark.parametrize("ct,n", ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)])
def test_positive_root_counts(ct, n):
    rs = build_root_system(ct, n)
    assert len(rs.positive_roots) == positive_count(ct, n)
    assert len(rs.positive_coroots) == len(rs.positive_roots)


def test_invalid_types_rejected():
    for ct, n in [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("F", 3),
                  ("G", 3), ("H", 2)]:
        with pytest.raises(ValueError):
            build_root_system(ct, n)
        if ct in TYPE_TABLE:
            assert not TYPE_TABLE[ct].valid(n)


def test_one_root_system_per_type_and_rank():
    """Caches keyed by a root system hash it by identity, so a type letter
    in either case must give the same object."""
    assert build_root_system("a", 2) is build_root_system("A", 2)


def test_cartan_matrices():
    a2 = build_root_system("A", 2)
    assert a2.cartan == ((2, -1), (-1, 2))
    g2 = build_root_system("G", 2)
    # first simple root short: its row carries the -3
    assert g2.cartan == ((2, -3), (-1, 2))
    b3 = build_root_system("B", 3)
    # last simple root short in the B convention
    assert b3.cartan[2][1] == -2 and b3.cartan[1][2] == -1


def test_theta_and_two_rho(a2, g2):
    assert a2.theta == (1, 1)
    assert a2.two_rho == (2, 2)
    assert g2.theta == (3, 2)
    # 2 rho = sum of all positive roots, componentwise
    for rs in (a2, g2):
        acc = [0] * rs.rank
        for r in rs.positive_roots:
            for i, c in enumerate(r):
                acc[i] += c
        assert tuple(acc) == rs.two_rho


@pytest.mark.parametrize("ct,n", ALL_SMALL)
def test_coroot_pairing_consistency(ct, n):
    """<beta, gamma^> computed through the Cartan matrix agrees with the
    pairing of beta against the coweight carried by gamma^."""
    rs = build_root_system(ct, n)
    for a, gamma in enumerate(rs.positive_coroots):
        lam = coweight_from_coroot(rs, gamma)
        for b, beta in enumerate(rs.positive_roots):
            assert pair_root_coroot(rs, beta, gamma) == pairing(rs, beta, lam)


@pytest.mark.parametrize("ct,n", ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)])
def test_derived_root_data(ct, n):
    """The root data the RootSystem carries, recomputed from the Cartan
    matrix and the root lists: coroot pairings C^T beta_check, the scaled
    inverse of C^T with its least denominator, the roots of the affine
    letters, the root and coroot columns, and the signed lists (~c is -c)."""
    rs = build_root_system(ct, n)
    C, nroots = rs.cartan, len(rs.positive_roots)
    for a, bc in enumerate(rs.positive_coroots):
        cp = tuple(sum(C[j][i] * bc[j] for j in range(n)) for i in range(n))
        assert rs.coroot_pairings[a] == cp
        assert rs.coroot_columns[a] == tuple(
            pair_root_coroot(rs, beta, bc) for beta in rs.positive_roots
        )
    den, inv = rs.inv_cartan_den, rs.inv_cartan_scaled
    assert all(
        sum(inv[i][k] * C[j][k] for k in range(n)) == den * (i == j)
        for i in range(n) for j in range(n)
    )
    assert den > 0 and gcd(den, *(x for row in inv for x in row)) == 1
    letters = [rs.positive_roots[a] for a in rs.letter_roots]
    assert letters == [rs.theta] + [simple_root(rs, i) for i in range(n)]
    assert all(rs.root_columns[k][a] == r[k]
               for a, r in enumerate(rs.positive_roots) for k in range(n))
    assert len(rs.root_columns) == n
    assert rs.signed_roots[:nroots] == rs.positive_roots
    for signed in (rs.signed_roots, rs.coroot_pairings, rs.coroot_columns):
        assert len(signed) == 2 * nroots
        assert all(signed[~c] == tuple(-x for x in signed[c]) for c in range(nroots))


@pytest.mark.parametrize("ct,n", ALL_SMALL)
def test_quantum_roots_two_routes(ct, n):
    """Length criterion (``quantum_flags``) vs the long/short-support
    classification."""
    rs = build_root_system(ct, n)
    flagged = [r for r, q in zip(rs.positive_roots, rs.quantum_flags) if q]
    assert flagged == quantum_roots_by_classification(rs)


def test_quantum_roots_simply_laced_all(a2, a3):
    for rs in (a2, a3):
        assert all(rs.quantum_flags)


def test_coweight_lattice_tags(a2):
    # (1,1) is the theta-coroot: integral over simple coroots
    assert coweight(a2, (1, 1)).lattice == "coroot"
    # a fundamental coweight has coroot coords (2/3, 1/3)
    assert coweight(a2, (1, 0)).lattice == "coweight"
    assert coweight(a2, (Fraction(1, 2), 0)).lattice == "rational"


@pytest.mark.parametrize("ct,n", ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)])
def test_coweight_lattice_matches_fraction_path(ct, n):
    """Coweights are classified, and dominance decided, through den * C^-T;
    on seeded integer and Fraction coweights, ``coroot_coords``,
    ``lattice`` and ``dominance_leq`` (from 0, and from the previous
    coweight) equal the all-Fraction computation through C^-T."""
    rs = build_root_system(ct, n)
    inv_cartan_t = mat_inv(rs.cartan_t)
    rng = Random(0)
    prev = None
    for k in range(40):
        if k % 2:
            p = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
        else:
            p = [rng.randint(-9, 9) for _ in range(n)]
        if k % 4 == 0:  # a coroot-lattice point
            p = [sum(x * c for x, c in zip(col, p)) for col in zip(*rs.cartan)]
        lam = coweight(rs, p)
        cc = tuple(sum(x * y for x, y in zip(row, p)) for row in inv_cartan_t)
        assert lam.coroot_coords() == cc
        assert dominance_leq(coweight(rs, (0,) * n), lam) is all(x >= 0 for x in cc)
        if prev is not None:
            pc, pp = prev
            d = [c - q for c, q in zip(cc, pc)]
            assert dominance_leq(pp, lam) is all(x >= 0 for x in d)
        prev = cc, lam
        assert [type(x) for x in lam.coroot_coords()] == [
            int if x.denominator == 1 else Fraction for x in cc
        ]
        lattice = (
            "coroot" if all(x.denominator == 1 for x in cc)
            else "coweight" if all(Fraction(x).denominator == 1 for x in p)
            else "rational"
        )
        assert lam.lattice == lattice
        assert (k % 4 == 0) <= (lattice == "coroot")


@pytest.mark.parametrize(
    "call",
    [
        lambda e, lam: predicted_cocovers(e, lam, e),
        lambda e, lam: adm_membership_char(e, lam, e, lam),
        lambda e, lam: adm_set(lam),
    ],
    ids=["predicted_cocovers", "adm_membership_char",
         "adm_set"],
)
def test_non_integral_coweight_refused(a2, call):
    # (7/2, 4) is dominant regular and deep; truncating it would give (3, 4)
    lam = coweight(a2, (Fraction(7, 2), 4))
    with pytest.raises(RefusalError, match="not integral"):
        call(identity_elt(a2), lam)


@pytest.mark.parametrize("bad", [0.1, "3", True], ids=["float", "str", "bool"])
def test_coweight_refuses_non_exact_coordinates(a2, bad):
    """Coordinates are int or Fraction; nothing is coerced."""
    with pytest.raises(RefusalError, match="int or Fraction"):
        coweight(a2, (bad, 1))
    assert coweight(a2, (Fraction(4, 2), 1)).pairing == (2, 1)


def test_depth_and_dominance(a2):
    lam = coweight(a2, (3, 1))
    assert depth(lam) == 1
    assert lam.is_dominant() and lam.is_regular()
    assert not coweight(a2, (0, 2)).is_regular()
    # dominance: (1,1) <= (3,3)? difference (2,2) = 2a1^ + 2a2^ >= 0
    assert dominance_leq(coweight(a2, (1, 1)), coweight(a2, (3, 3)))
    # (0,3) vs (3,0) are incomparable
    assert not dominance_leq(coweight(a2, (0, 3)), coweight(a2, (3, 0)))
    assert not dominance_leq(coweight(a2, (3, 0)), coweight(a2, (0, 3)))


def test_root_leq():
    assert root_leq((1, 0), (1, 1))
    assert not root_leq((2, 0), (1, 1))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3)]),
    st.lists(st.integers(-6, 6), min_size=2, max_size=3),
)
def test_dominant_rep_properties(tn, coords):
    ct, n = tn
    rs = build_root_system(ct, n)
    lam = coweight(rs, tuple(coords[:n]) + (0,) * (n - len(coords[:n])))
    rep, g = dominant_rep(lam)
    assert rep.is_dominant()
    assert g.act_pairing(lam.pairing) == rep.pairing
    # a dominant input is its own representative
    if lam.is_dominant():
        assert rep.pairing == lam.pairing


@pytest.mark.parametrize("ct,n", ALL_SMALL)
def test_reflection_length_flags(ct, n):
    """ell(s_beta) recorded per root matches <2rho, beta^> - 1 exactly on
    the quantum roots."""
    rs = build_root_system(ct, n)
    for a in range(len(rs.positive_roots)):
        drop = pair_root_coroot(rs, rs.two_rho, rs.positive_coroots[a])
        is_q = rs.reflection_lengths[a] == drop - 1
        assert is_q == rs.quantum_flags[a]


def test_dominantize_keeps_ints_and_normalizes_fractions():
    a2 = build_root_system("A", 2)
    coords, word = _dominantize(a2, [1, -3])
    assert coords == (2, 1) and word == [1, 0]
    assert all(type(c) is int for c in coords)
    coords, _ = _dominantize(a2, [Fraction(1), Fraction(-1, 2)])
    assert coords == (Fraction(1, 2), Fraction(1, 2))
    coords, _ = _dominantize(a2, [Fraction(3), Fraction(-2)])
    assert coords == (1, 2) and all(type(c) is int for c in coords)
