"""Extended affine Weyl group: lengths, words, length-zero residuals,
Bruhat order, intervals, and Demazure products against brute force."""


import sys
import time
from collections import Counter
from itertools import product
from random import Random

import pytest

from adlv import adm, affine, weyl
from adlv.adm import adm_set, product_set
from adlv.cover import cover_sweep
from adlv.errors import BudgetError, InvariantError, RefusalError
from adlv.rootsys import build_root_system, coweight, pairing
from adlv.affine import (
    AffineElt,
    IntervalEngine,
    affine_length,
    cocovers,
    cocovers_with_reflections,
    demazure_ltri,
    demazure_rtri,
    demazure_star,
    descent_left,
    descent_right,
    embed,
    lower_union,
    simple_affine,
    tau_word,
    translation,
)
from adlv.newton import max_newton_brute, sweep_records, theorem_grid
from adlv.weyl import enumerate_group, identity_elt, longest_element

from oracles import (
    act_root,
    affine_length_loop,
    bit_positions,
    bruhat_leq_affine,
    cocovers_by_reflections,
)


def aff(rs, lam, fin=None):
    return AffineElt(rs, lam, fin if fin is not None else identity_elt(rs))


@pytest.mark.parametrize("j", [-1, 3, True], ids=["-1", "3", "True"])
def test_simple_affine_refuses_an_out_of_range_index(a2, j):
    """A letter is an int (not a bool) in 0..rank: -1 is not s_2, 3 does
    not leak an IndexError, and True is not the cached s_1."""
    simple_affine(a2, 1)
    with pytest.raises(RefusalError, match="letters must be ints in 0..2"):
        simple_affine(a2, j)


def test_simple_affine_basics(a2):
    for j in range(3):
        s = simple_affine(a2, j)
        assert affine_length(s) == 1
        assert s.mul(s).is_identity()
    s0 = simple_affine(a2, 0)
    # s0 = t^{theta^} s_theta: translation part is the theta-coroot
    assert s0.lam == (1, 1)
    assert act_root(s0.fin, a2.theta) == (-1, -1)


def test_translation_lengths(a2):
    # for dominant lam, ell(t^lam) = <2rho, lam>; in general the absolute
    # pairings against all positive roots are summed
    for coords in [(1, 0), (2, 3), (0, 0)]:
        lam = coweight(a2, coords)
        assert affine_length(translation(lam)) == pairing(a2, a2.two_rho, lam)
    neg = coweight(a2, (-2, 1))
    expect = sum(
        abs(pairing(a2, r, neg)) for r in a2.positive_roots
    )
    assert affine_length(translation(neg)) == expect


def test_length_additive_over_dominant_regular(a2):
    table = enumerate_group(a2)
    lam = coweight(a2, (3, 2))
    base = pairing(a2, a2.two_rho, lam)
    for u in table.elements:
        for v in table.elements:
            w = embed(u).mul(translation(lam)).mul(embed(v))
            assert affine_length(w) == base + u.length() - v.length()


def test_reduced_word_roundtrip(b2):
    w = aff(b2, (2, 1), longest_element(b2))
    tau, word = tau_word(w)
    assert tau.is_identity()
    assert len(word) == affine_length(w)
    prod = embed(identity_elt(b2))
    for j in word:
        prod = prod.mul(simple_affine(b2, j))
    assert prod == w


def test_residual_tau_classes(a2):
    # theta-coroot translation: inside the coroot lattice, trivial residual
    tau, word = tau_word(aff(a2, (1, 1)))
    assert tau.is_identity() and len(word) == 4
    # fundamental coweight: nontrivial residual of length zero
    tau, word = tau_word(aff(a2, (1, 0)))
    assert not tau.is_identity()
    assert affine_length(tau) == 0
    prod = tau
    for j in word:
        prod = prod.mul(simple_affine(a2, j))
    assert prod == aff(a2, (1, 0))
    # same residual class for any translation congruent mod coroots
    tau2, _ = tau_word(aff(a2, (9, 8)))
    assert tau2 == tau
    # tau is the identity exactly on the coroot lattice, where omega is 0
    for lam in product(range(-2, 3), repeat=2):
        w = aff(a2, lam)
        assert tau_word(w)[0].is_identity() == (not any(w.omega)), lam


def test_omega_classes_incomparable(a2):
    x = aff(a2, (1, 0))
    y = aff(a2, (1, 1))
    assert not bruhat_leq_affine(x, y)
    assert not bruhat_leq_affine(y, x)
    assert bruhat_leq_affine(x, x)


def test_lower_interval_counts(a2):
    assert len(lower_union([aff(a2, (2, 1))])) == 30
    # the finite longest element dominates exactly the finite group
    assert len(lower_union([embed(longest_element(a2))])) == 6


def test_lower_interval_members_below_top(a2):
    top = aff(a2, (2, 1))
    members = lower_union([top])
    for u in members:
        assert bruhat_leq_affine(u, top)
    # downward closed: every cocover list stays inside
    for u in members:
        for c in cocovers(u):
            assert c in members


def test_lower_union_refuses_tops_of_different_classes(a2, b2):
    with pytest.raises(RefusalError):
        lower_union([aff(a2, (1, 0)), aff(a2, (0, 1))])
    with pytest.raises(RefusalError):
        lower_union([aff(a2, (1, 1)), aff(b2, (1, 1))])


def test_empty_tops_refused():
    """No tops is refused, not left to ``max`` or to indexing."""
    for call in (lambda: lower_union([]), lambda: affine._interval_engine([])):
        with pytest.raises(RefusalError, match="at least one top"):
            call()


@pytest.mark.parametrize("word", [(1, 2, -1), (5,), (True,), (1.0,), (0, "1")])
def test_interval_engine_refuses_bad_letters(a2, word):
    """A letter must be an int in 0..rank: -1 is not read as the last row
    of ``rmult``, 3 and 5 do not leak an IndexError and True is not the
    letter 1.  The constructor and ``interval_states`` both check."""
    table = enumerate_group(a2)
    with pytest.raises(RefusalError, match="letters must be ints in 0..2"):
        IntervalEngine(table, word)
    eng = IntervalEngine(table, (1, 2, 0))
    with pytest.raises(RefusalError, match="letters must be ints in 0..2"):
        eng.interval_states(word)
    with pytest.raises(RefusalError):
        eng.interval_states((1, 3))
    assert len(eng.interval_states((1, 2))) == 4


def test_lower_interval_budget(a2):
    """``lower_union`` reads no length budget; the engine indexes the
    finite group, which E8 has too many elements for."""
    with pytest.raises(BudgetError, match="exceeding the cap of 1000000"):
        lower_union([simple_affine(build_root_system("E", 8), 1)])


def test_state_cap_bounds_every_interval(a2, monkeypatch):
    """``STATE_CAP`` is read at call time and bounds every interval: a
    lower interval called directly, whose top t^(20, 20) of length 80 is
    far past the default length budget, is built at a cap of its 7080
    members and refused one below; the admissible set of (1, 0), whose
    three words' intervals hold 4 states each, is refused for its union of
    7, and a Newton maximum and a Newton sweep for their single
    intervals."""
    top = aff(a2, (20, 20))
    assert affine_length(top) == 80
    monkeypatch.setattr(affine, "STATE_CAP", 7080)
    assert len(lower_union([top])) == 7080
    monkeypatch.setattr(affine, "STATE_CAP", 7079)
    with pytest.raises(BudgetError, match="interval grew past 7079 states"):
        lower_union([top])
    monkeypatch.undo()
    assert len(adm_set(coweight(a2, (1, 0)))) == 7
    monkeypatch.setattr(affine, "STATE_CAP", 4)
    w = aff(a2, (2, 2), longest_element(a2))
    for call in (lambda: adm_set(coweight(a2, (1, 0))),
                 lambda: max_newton_brute(w),
                 lambda: sweep_records(a2, theorem_grid(a2)[:1])):
        with pytest.raises(BudgetError, match="interval grew past 4 states"):
            call()
    assert len(lower_union([aff(a2, (1, 0))])) == 4


def test_cocover_counts(a2):
    w0 = embed(longest_element(a2))
    cs = cocovers(w0)
    assert len(cs) == 2
    for c in cs:
        assert affine_length(c) == 2
        assert bruhat_leq_affine(c, w0)


def _affine_ball(rs, max_len):
    """All affine-group elements (letter products, no residual) with length
    at most max_len, by breadth-first search."""
    start = embed(identity_elt(rs))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for j in range(rs.rank + 1):
                u = w.mul(simple_affine(rs, j))
                if affine_length(u) <= max_len and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen, key=affine_length)


def _literal_interval(w):
    """The subword dynamic program over sets of elements along the word of
    w = tau v, from tau: tau times the subwords of v, the oracle for the
    packed engine."""
    tau, word = tau_word(w)
    members = {tau}
    for j in word:
        members |= {u.mul(simple_affine(w.rs, j)) for u in members}
    return frozenset(members)


def _extras(rs):
    """Translations outside the coroot lattice (A2, B2) with and without
    w0, and a non-dominant translation times w0."""
    w0 = longest_element(rs)
    return [aff(rs, (1, 0)), aff(rs, (1, 0), w0), aff(rs, (-1, 2), w0)]


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2), ("G", 2)])
def test_lower_interval_matches_literal(ct, n, dense):
    """Both engines against the literal DP on the affine ball and the
    extras."""
    rs = build_root_system(ct, n)
    for w in _affine_ball(rs, 5) + _extras(rs):
        assert lower_union([w]) == _literal_interval(w), w


def _check_tau_word(w):
    tau, word = tau_word(w)
    prod = tau
    for j in word:
        prod = prod.mul(simple_affine(w.rs, j))
    assert prod == w
    assert len(word) == affine_length(w)
    assert affine_length(tau) == 0


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2), ("G", 2)])
def test_tau_word(ct, n):
    """w = tau times a reduced word, tau of length zero, on the affine ball
    and the extras."""
    rs = build_root_system(ct, n)
    for w in _affine_ball(rs, 5) + _extras(rs):
        _check_tau_word(w)


def test_tau_word_a3(a3):
    """A3 t^lam w0 for lam = (1,0,1), in the coroot lattice, and (1,0,0),
    outside it."""
    w0 = longest_element(a3)
    for lam, trivial in [((1, 0, 1), True), ((1, 0, 0), False)]:
        w = aff(a3, lam, w0)
        assert tau_word(w)[0].is_identity() is trivial
        _check_tau_word(w)


def test_peel_builds_one_element_for_its_rest(b2, monkeypatch):
    """The peel walks translation parts and rows and builds only its rest,
    so ``tau_word`` and ``adm.eta`` build a fixed number of elements
    whatever ell(w): over tau_word(t^lam w0) on the B2 theorem grid, an
    inverse, the rest and its inverse (three AffineElt, three WeylElt), and
    over eta on Adm(1, 1) of B2, the rest and the conjugate v x v^-1 (one
    AffineElt, four WeylElt)."""
    w0 = longest_element(b2)
    tops = [aff(b2, lam.int_pairing(), w0) for lam in theorem_grid(b2)]
    members = adm_set(coweight(b2, (1, 1))).members
    made = Counter()
    real_affine, real_init = affine._affine, weyl.WeylElt.__init__

    def counting_affine(*args):
        made["AffineElt"] += 1
        return real_affine(*args)

    def counting_init(self, *args):
        made["WeylElt"] += 1
        real_init(self, *args)

    monkeypatch.setattr(affine, "_affine", counting_affine)
    monkeypatch.setattr(weyl.WeylElt, "__init__", counting_init)

    def built(call, w) -> dict:
        made.clear()
        call(w)
        return dict(made)

    for w in tops:
        assert built(tau_word, w) == {"AffineElt": 3, "WeylElt": 3}
    for w in members:
        assert built(adm.eta, w) == {"AffineElt": 1, "WeylElt": 4}
    monkeypatch.undo()
    # the counts hold over a spread of lengths
    assert {affine_length(w) for w in tops} == {73, 76, 77, 80}
    assert {affine_length(w) for w in members} == set(range(8))


def _products(xs, ys):
    return {u.mul(v) for u in xs for v in ys}


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2)])
def test_demazure_star_finite_brute(ct, n):
    """star(x, y) is the unique maximum of {uv}: it lies in the product set
    and its lower interval swallows the whole set."""
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    elts = [embed(x) for x in table.elements]
    for x in elts:
        lx = lower_union([x])
        for y in elts:
            ly = lower_union([y])
            prods = _products(lx, ly)
            star = demazure_star(x, y)
            assert star in prods
            below = lower_union([star])
            assert prods <= below


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2)])
def test_demazure_min_folds_finite_brute(ct, n):
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    elts = [embed(x) for x in table.elements]
    for x in elts:
        lx = lower_union([x])
        for y in elts:
            ly = lower_union([y])
            rtri = demazure_rtri(x, y)
            prods_r = {u.mul(y) for u in lx}
            assert rtri in prods_r
            assert all(bruhat_leq_affine(rtri, p) for p in prods_r)
            ltri = demazure_ltri(x, y)
            prods_l = {x.mul(v) for v in ly}
            assert ltri in prods_l
            assert all(bruhat_leq_affine(ltri, p) for p in prods_l)


def test_demazure_affine_brute(a2):
    """Affine pairs with total length <= 6 in the unit suite (the acceptance
    run extends to 8): all three folds against literal min/max."""
    ball = _affine_ball(a2, 3)
    for x in ball:
        lx = lower_union([x])
        for y in ball:
            if affine_length(x) + affine_length(y) > 6:
                continue
            ly = lower_union([y])
            star = demazure_star(x, y)
            prods = _products(lx, ly)
            assert star in prods
            assert prods <= lower_union([star])
            rtri = demazure_rtri(x, y)
            prods_r = {u.mul(y) for u in lx}
            assert rtri in prods_r
            assert all(bruhat_leq_affine(rtri, p) for p in prods_r)
            ltri = demazure_ltri(x, y)
            prods_l = {x.mul(v) for v in ly}
            assert ltri in prods_l
            assert all(bruhat_leq_affine(ltri, p) for p in prods_l)


def test_demazure_with_extended_elements(a2):
    """Folds through a nontrivial length-zero residual still produce the
    extremes of the product sets."""
    x = aff(a2, (1, 0))            # extended: residual tau
    y = aff(a2, (1, 1))            # affine: theta-coroot translation
    for a, b in [(x, y), (y, x), (x, x)]:
        la = lower_union([a])
        lb = lower_union([b])
        star = demazure_star(a, b)
        prods = _products(la, lb)
        assert star in prods
        assert prods <= lower_union([star])
        rtri = demazure_rtri(a, b)
        prods_r = {u.mul(b) for u in la}
        assert rtri in prods_r
        assert all(bruhat_leq_affine(rtri, p) for p in prods_r)
        ltri = demazure_ltri(a, b)
        prods_l = {a.mul(v) for v in lb}
        assert ltri in prods_l
        assert all(bruhat_leq_affine(ltri, p) for p in prods_l)


def test_descent_left_matches_length(a2):
    w = aff(a2, (2, 1), longest_element(a2))
    for j in range(3):
        shorter = simple_affine(a2, j).mul(w)
        assert descent_left(w, j) == (
            affine_length(shorter) < affine_length(w)
        )


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_index_path_matches_matrices(ct, n):
    """Lengths and descents on both sides of t^lam x, for every finite x
    and every lam in {-1, 0, 1}^n (in {-2, ..., 2}^2 at rank 2), read root
    signs from the finite part's row; the descents agree with the lengths
    of s_j w and w s_j."""
    rs = build_root_system(ct, n)
    elts = enumerate_group(rs).elements
    box = product(range(-2, 3) if n == 2 else range(-1, 2), repeat=n)
    for lam, x in product(box, elts):
        w = aff(rs, lam, x)
        lw = affine_length(w)
        for j in range(n + 1):
            s = simple_affine(rs, j)
            assert descent_left(w, j) == (affine_length(s.mul(w)) < lw)
            assert descent_right(w, j) == (affine_length(w.mul(s)) < lw)


def test_no_table_built_implicitly(monkeypatch):
    """Affine lengths, descents and cocovers in E6 with no cached table
    run on the finite parts' rows and leave the cache empty."""
    monkeypatch.setattr(weyl, "_TABLES", {})
    e6 = build_root_system("E", 6)
    w = simple_affine(e6, 0).mul(simple_affine(e6, 2))
    assert affine_length(w) == 2
    assert descent_left(w, 0) and descent_right(w, 2)
    assert len(cocovers(w)) == 2
    assert weyl._TABLES == {}


def _set_step(eng, states, j):
    """One letter of the subword DP on a plain set of (finite index, mu)
    pairs: the oracle for ``IntervalEngine.step`` in either representation."""
    out = set(states)
    for x, mu in states:
        if j >= 1:
            out.add((eng.table.rmult[j - 1][x], mu))
        else:
            mu2 = tuple(a + b for a, b in zip(mu, eng._delta[x]))
            out.add((eng._rmult_stheta[x], mu2))
    return out


def _pairs(eng, states):
    return {(x, mu) for x, mus in eng.decoded(states) for mu in mus}


# a word that is not reduced and shifts by theta_check at every other letter
ZERO_HEAVY = (0, 1, 0, 2, 0) * 8


@pytest.mark.parametrize("ct,n,lams", [
    pytest.param("A", 2, 4, id="A-4"),
    pytest.param("B", 2, 4, id="B-4"),
    pytest.param("G", 2, 1, id="G-1"),
    pytest.param("A", 3, [(1, 1, 1), (2, 1, 2), (3, 2, 3)], id="A3"),
])
def test_interval_states_match_set_oracle(ct, n, lams, dense):
    """Both state-set kinds equal the set-of-pairs DP on the words of
    ``tau_word(t^lam w0)`` from tau: at the first theorem-grid lambdas in
    rank 2 (one for G2, where the oracle takes seconds per interval; the A2
    and B2 grids include nontrivial tau) and at small lambdas in A3, two of
    them outside the coroot lattice; and on a word heavy in the letter 0 from
    the identity.  So does the difference of two snapshots, as the Newton
    sweep takes it."""
    rs = build_root_system(ct, n)
    table = enumerate_group(rs)
    w0 = longest_element(rs)
    if isinstance(lams, int):
        lams = [lam.pairing for lam in theorem_grid(rs)[:lams]]
    cases = [tau_word(aff(rs, lam, w0)) for lam in lams]
    assert ct == "G" or not all(t.is_identity() for t, _ in cases)
    cases.append((aff(rs, (0,) * n), ZERO_HEAVY))
    for tau, word in cases:
        eng = IntervalEngine(table, word, tau)
        assert eng._dense is dense
        half = eng.interval_states(word[: len(word) // 2])
        expect = {(table.idx(tau.fin), tau.lam)}
        for j in word[: len(word) // 2]:
            expect = _set_step(eng, expect, j)
        assert _pairs(eng, half) == expect
        expect_half = expect
        for j in word[len(word) // 2:]:
            expect = _set_step(eng, expect, j)
        got = eng.interval_states(word)
        assert len(got) == len(expect)
        assert _pairs(eng, got) == expect
        assert _pairs(eng, got - half) == expect - expect_half


@pytest.mark.parametrize("ct,n,lam", [
    pytest.param("A", 2, None, id="A2-zero-heavy"),
    pytest.param("G", 2, None, id="G2-zero-heavy"),
    pytest.param("A", 3, (4, 4, 4), id="A3-base"),
])
def test_state_bound_covers_the_count(ct, n, lam, monkeypatch):
    """``StateSet.bound`` is at least the number of states after every step,
    union and difference, on a word heavy in the letter 0 and on the word of
    an A3 base interval below t^lam w0.  So ``_bounded``, which counts only
    once the bound passes ``STATE_CAP``, refuses at the letter where a count
    after every letter first passes it, or at none."""
    rs = build_root_system(ct, n)
    tau, word = ((aff(rs, (0,) * n), ZERO_HEAVY) if lam is None
                 else tau_word(aff(rs, lam, longest_element(rs))))
    eng = IntervalEngine(enumerate_group(rs), word, tau)
    snaps = [eng.interval_states(())]
    for j in word:
        snaps.append(eng.step(snaps[-1], j))
    for a, b in zip(snaps, snaps[1:]):
        for s in (b, a | b, b - a):
            assert s.bound >= len(s)
    counts = [len(s) for s in snaps[1:]]
    assert counts[-1] > 100 * counts[0]
    for cap in (counts[len(counts) // 4], counts[len(counts) // 2],
                counts[-1] - 1, counts[-1]):
        monkeypatch.setattr(affine, "STATE_CAP", cap)
        states, refused = snaps[0], None
        for i, j in enumerate(word):
            try:
                states = eng._bounded(eng.step(states, j))
            except BudgetError:
                refused = i
                break
        assert refused == next((i for i, c in enumerate(counts) if c > cap), None)


@pytest.mark.parametrize("ct", ["A", "B", "G"])
def test_interval_states_refuse_leaving_the_box(ct, dense):
    """Every state the set-of-pairs DP reaches on a long 0-heavy word lies
    in the box of the engine sized for that word, and the engine follows
    it to the end.  A letter 0 past the sized count, the only way out of
    the box, raises in both kinds, as does packing a state outside it."""
    rs = build_root_system(ct, 2)
    eng = IntervalEngine(enumerate_group(rs), ZERO_HEAVY)
    assert eng.zeros == 24
    states = eng.interval_states(())
    expect = _pairs(eng, states)
    for j in ZERO_HEAVY:
        expect = _set_step(eng, expect, j)
        states = eng.step(states, j)
        assert _pairs(eng, states) == expect
    for _, mu in expect:
        assert all(lo <= c <= hi for lo, c, hi in zip(eng.lo, mu, eng.hi))
    assert states.zeros == 24
    assert _pairs(eng, eng.step(states, 1)) == _set_step(eng, expect, 1)
    with pytest.raises(InvariantError, match="letter 0 past the 24"):
        eng.step(states, 0)
    with pytest.raises(InvariantError, match="coweight box"):
        eng.pack((eng.hi[0] + 1, eng.lo[1]))


def test_engine_keeps_bitsets_up_to_rank_3():
    """Engines up to rank 3 keep bitsets; from rank 4 on they keep
    frozensets of codes.  A D5 engine for the word s1 costs only its two
    states."""
    for ct, rank in (("A", 1), ("G", 2), ("A", 3), ("C", 3), ("A", 4), ("D", 5)):
        eng = IntervalEngine(enumerate_group(build_root_system(ct, rank)), (1,))
        assert eng._dense is (rank <= 3)
    states = eng.interval_states((1,))
    assert len(states) == 2
    assert _pairs(eng, states) == {
        (0, (0,) * 5), (eng.table.rmult[0][0], (0,) * 5)
    }


def _line_ends_oracle(bits, width):
    """The min and max of the set bits of each line, read from every bit."""
    lines = {}
    for i in bit_positions(bits):
        lines.setdefault(i // width, []).append(i)
    return [p for ps in lines.values() for p in sorted({ps[0], ps[-1]})]


@pytest.mark.parametrize("width", [1, 2, 5, 13])
def test_line_ends_match_every_bit_oracle(width):
    """The ends of each box line of a bitset of 9 lines: empty and full
    lines, lone bits at either end of a line, the last line of the box
    full or holding only its last bit, and seeded random bitsets."""
    size, rng = 9 * width, Random(width)
    ends = sum(1 << k * width for k in range(9)) | 1 << width - 1
    cases = [0, 1, (1 << size) - 1, 1 << size - 1, ends,
             ((1 << width) - 1) << size - width, ends << width - 1]
    cases += [rng.getrandbits(size) & rng.getrandbits(size) for _ in range(40)]
    for bits in cases:
        assert list(affine._line_ends(bits, width)) == _line_ends_oracle(bits, width)


def test_line_ends_scan_stays_linear():
    """A bucket the size of the A3 theorem grid's, 141^3 bits in lines of
    141, with 15000 nonempty lines, scans in well under a second: one
    string and two finds per line.  Shifting the 2.8e6-bit int once per
    line takes seconds."""
    width, rng = 141, Random(0)
    buf, want = bytearray(b"0" * width ** 3), []
    for line in sorted(rng.sample(range(width * width), 15_000)):
        lo, hi = sorted(line * width + rng.randrange(width) for _ in "lh")
        buf[lo:hi + 1] = b"1" * (hi - lo + 1)
        want += sorted({lo, hi})
    bits = int(buf[::-1], 2)
    start = time.process_time()
    ends = list(affine._line_ends(bits, width))
    assert time.process_time() - start < 0.5
    assert ends == want


KERNEL_GROUPS = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]


@pytest.mark.parametrize("ct,n", KERNEL_GROUPS)
def test_length_and_cocover_kernels_match_oracles(ct, n):
    """The column kernel of ``affine_length`` and the direct cocover
    candidates t^{lam + (m - <alpha, lam>) alpha_check} s_alpha x equal the
    per-root loop and the r.mul(w) route, on the affine ball and on t^lam x
    for every finite x and lam in {-2, ..., 2}^n, each with a fresh finite
    part (nothing cached on it)."""
    rs = build_root_system(ct, n)
    elts = enumerate_group(rs).elements
    box = product(range(-2, 3), repeat=n)
    pairs = [(w.lam, w.fin) for w in _affine_ball(rs, 4 if n == 2 else 3)]
    pairs += [(lam, x) for lam in box for x in elts]
    ws = [aff(rs, lam, weyl.WeylElt(rs, x.imgs)) for lam, x in pairs]
    got = [(affine_length(w), cocovers_with_reflections(w)) for w in ws]
    assert got == [(affine_length_loop(w), cocovers_by_reflections(w)) for w in ws]


def test_unchecked_products_pass_the_public_constructor(monkeypatch):
    """Every element that mul, inv, cocovers_with_reflections, lower_union,
    _peel or product_set builds without the refusals, over B2 and G2 cover
    sweeps, the A2, B2 and A3 admissible sets of (1, ..., 1) and eta on
    each member, the A3 one of (2, 2, 2), a lower interval, a product set
    and a Demazure product, is accepted by the public constructor and
    equals its rebuilt self, with the same hash."""
    made = []
    real = affine._affine

    def recording(rs, lam, fin):
        caller = sys._getframe(1)
        if caller.f_code.co_name.startswith("<"):  # a generator's own frame
            caller = caller.f_back
        w = real(rs, lam, fin)
        made.append((caller.f_code.co_name, w))
        return w

    monkeypatch.setattr(affine, "_affine", recording)
    for ct in ("B", "G"):
        rs = build_root_system(ct, 2)
        cover_sweep(rs, [coweight(rs, (2, 2)), coweight(rs, (3, 2))])
    for ct, n in (("A", 2), ("B", 2), ("A", 3)):
        for w in adm_set(coweight(build_root_system(ct, n), (1,) * n)).members:
            adm.eta(w)
    adm_set(coweight(build_root_system("A", 3), (2, 2, 2)))
    b2 = build_root_system("B", 2)
    t21 = translation(coweight(b2, (2, 1)))
    lower_union([t21])
    ones = adm_set(coweight(b2, (1, 1)))
    product_set(ones, ones)
    demazure_star(t21, t21)
    assert {name for name, _ in made} == {
        "mul", "inv", "cocovers_with_reflections", "lower_union", "_peel",
        "product_set",
    }
    assert len(made) > 5_000
    for _, w in made:
        assert type(w.lam) is tuple
        again = AffineElt(w.rs, w.lam, w.fin)
        assert again == w and hash(again) == hash(w)


@pytest.mark.parametrize("ct,n", [("D", 5), ("F", 4)])
def test_engine_and_orbit_multiply_no_matrices(ct, n, monkeypatch):
    """On a fresh group table, an engine's translation offsets x(theta_check)
    and an admissible set's Weyl orbit are built without one table
    element, and equal the pairing action of every element."""
    rs = build_root_system(ct, n)
    monkeypatch.setattr(weyl, "_TABLES", {})
    eng = IntervalEngine(enumerate_group(rs), (0, 0))
    mu = (1, 0) + (2,) * (n - 2)
    orbit = adm._orbit(rs, mu)
    assert eng.table.elements._slots[1:] == [None] * (len(eng.table) - 1)
    theta_check = rs.coroot_pairings[rs.theta_index]
    elts = eng.table.elements
    assert eng._delta == [x.act_pairing(theta_check) for x in elts]
    assert orbit == {x.act_pairing(mu) for x in elts}
