"""Maximal Newton points: slope averages, interval brute force, the closed
form, and the sweep harness."""

from fractions import Fraction
from math import prod
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from adlv import affine, newton, weyl
from adlv.errors import InvariantError, RefusalError
from adlv.rootsys import build_root_system, coweight, dominance_leq
from adlv.affine import (
    AffineElt,
    embed,
    simple_affine,
    tau_word,
    translation,
)
from adlv.weyl import enumerate_group, simple_reflection, word_str
from adlv.newton import (
    NewtonPoint,
    _max_point,
    max_newton_brute,
    max_newton_formula,
    newton_point,
    s_bound,
    sweep_records,
    theorem_grid,
    xi_bound,
)

from oracles import averaging_data_matrices, nu_keys

BOUND_TABLE = [
    # type, rank, S, Xi
    ("A", 1, 2, 4), ("A", 2, 4, 7), ("A", 5, 10, 16),
    ("B", 2, 6, 10), ("B", 4, 14, 22),
    ("C", 3, 10, 16), ("D", 4, 10, 18), ("D", 6, 18, 30),
    ("E", 6, 22, 34), ("E", 7, 34, 50), ("E", 8, 58, 86),
    ("F", 4, 22, 34), ("G", 2, 10, 14),
]


@pytest.mark.parametrize("ct,n,s,xi", BOUND_TABLE)
def test_bound_tables(ct, n, s, xi):
    assert s_bound(ct, n) == s
    assert xi_bound(ct, n) == xi


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2), ("G", 2), ("C", 3)])
def test_s_is_theta_pairing(ct, n):
    """S = <theta, 2 rho^> recomputed from raw root data."""
    rs = build_root_system(ct, n)
    two_rho_check = [0] * n
    for c in rs.positive_coroots:
        for i, v in enumerate(c):
            two_rho_check[i] += v
    # <theta, sum gamma^> via the Cartan matrix
    val = sum(
        rs.theta[i] * two_rho_check[j] * rs.cartan[j][i]
        for i in range(n)
        for j in range(n)
    )
    assert val == s_bound(ct, n)


def test_newton_point_translations(a2):
    # the slope of a pure translation is the dominant orbit representative
    assert newton_point(translation(coweight(a2, (2, 3)))).pairing == (2, 3)
    assert newton_point(translation(coweight(a2, (-1, 2)))).pairing == (1, 1)
    # finite elements average to zero
    s1 = simple_reflection(a2, 0)
    assert newton_point(embed(s1)).pairing == (0, 0)


def test_newton_point_mixed(a2):
    s1, s2 = simple_reflection(a2, 0), simple_reflection(a2, 1)
    w = embed(s2).mul(translation(coweight(a2, (9, 8)))).mul(
        embed(s1.mul(s2))
    )
    assert newton_point(w).pairing == (0, Fraction(25, 2))


def test_extended_element_three_routes(a2):
    """Brute interval max and the closed form agree on a mixed element
    whose translation part leaves the coroot lattice."""
    s1, s2 = simple_reflection(a2, 0), simple_reflection(a2, 1)
    w = embed(s2).mul(translation(coweight(a2, (9, 8)))).mul(
        embed(s1.mul(s2))
    )
    assert max_newton_brute(w).pairing == (7, 9)
    fr = max_newton_formula(w)
    assert fr.status == "ok"
    assert fr.value.pairing == (7, 9)


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2)])
def test_formula_folds_u_into_v_on_the_theorem_grid(ct, n):
    """For every u, v in W and every lam of the theorem grid, the closed
    form of u t^lam v = t^{u(lam)} uv, whose translation part needs the
    whole dominantizing fold, is certified and equals the interval
    maximum."""
    rs = build_root_system(ct, n)
    elts = enumerate_group(rs).elements
    cases = 0
    for lam in theorem_grid(rs):
        for u in elts:
            for v in elts:
                w = AffineElt(rs, u.act_pairing(lam.pairing), u.mul(v))
                fr = max_newton_formula(w)
                assert fr.status == "ok" and fr.reason == ""
                assert fr.value.pairing == max_newton_brute(w).pairing, (lam, u, v)
                cases += 1
    assert cases == len(elts) ** 2 * 2 ** n


def test_brute_routes_at_rank_5():
    """On D5 the interval engine keeps sparse state sets: the maximum below
    t^lam is lam (dominant), and below s1 it is 0."""
    d5 = build_root_system("D", 5)
    lam = coweight(d5, (1, 0, 0, 0, 0))
    assert max_newton_brute(translation(lam)).pairing == lam.pairing
    assert max_newton_brute(simple_affine(d5, 1)).pairing == (0,) * 5


def test_formula_below_threshold(a2):
    w = translation(coweight(a2, (1, 1)))
    fr = max_newton_formula(w)
    assert fr.status == "below-threshold"
    assert fr.value is None
    assert fr.reason == "depth(lam) = 1 <= Xi = 7"
    forced = max_newton_formula(w, force=True)
    assert forced.status == "below-threshold"
    assert forced.value is not None


def test_formula_singular_nondominant_refusal(a2):
    s1 = simple_reflection(a2, 0)
    w = translation(coweight(a2, (-2, 2))).mul(embed(s1))
    with pytest.raises(RefusalError):
        max_newton_formula(w, force=True)


def test_brute_dominates_own_point(b2):
    """w sits inside its own interval, so the max is at least nu(w)."""
    table = enumerate_group(b2)
    lam = coweight(b2, (2, 2))
    for x in table.elements:
        w = translation(lam).mul(embed(x))
        nu_w = newton_point(w).pairing
        nu_max = max_newton_brute(w).pairing
        diff = coweight(b2, tuple(a - b for a, b in zip(nu_max, nu_w)))
        from adlv.rootsys import dominance_leq

        assert dominance_leq(
            coweight(b2, nu_w), coweight(b2, nu_max)
        ) or nu_w == nu_max


def test_theorem_grid_shape(a2):
    grid = theorem_grid(a2)
    assert len(grid) == 4
    xi = xi_bound("A", 2)
    for lam in grid:
        assert min(lam.pairing) > xi
        assert lam.is_dominant() and lam.is_regular()


def test_sweep_records_a2_zero_mismatches(a2):
    recs = sweep_records(a2, theorem_grid(a2))
    assert len(recs) == 4 * 6
    assert all(r["match"] for r in recs)


@pytest.mark.parametrize("coords", [(8, -1), (8, 0)],
                         ids=["nondominant", "singular"])
def test_sweep_records_refuses_lambda(a2, coords):
    with pytest.raises(RefusalError, match="dominant regular"):
        sweep_records(a2, [coweight(a2, coords)])


def test_sweep_off_lattice_grid(a2):
    """A sweep lambda outside the coroot lattice, (8, 9), starts from a
    nontrivial length-zero tau, and (9, 9) from tau = 1; still zero
    mismatches."""
    lams = [coweight(a2, (8, 9)), coweight(a2, (9, 9))]
    recs = sweep_records(a2, lams)
    assert len(recs) == 2 * 6
    assert all(r["match"] for r in recs)


def _fraction_max_point(rs, keys):
    """Dominance maximum over Fraction coweights via ``dominance_leq``: the
    oracle for the integer ``_max_point``."""
    if not keys:
        raise InvariantError("empty Newton point set")
    pts = [coweight(rs, tuple(Fraction(c, m) for c in cs)) for cs, m in keys]
    best = max(
        pts, key=lambda p: sum(r * c for r, c in zip(rs.two_rho, p.pairing))
    )
    if not all(dominance_leq(p, best) for p in pts):
        raise InvariantError("maximal Newton point is not unique")
    return NewtonPoint(best)


@pytest.mark.parametrize("ct", ["A", "B", "C"])
def test_max_point_matches_fraction_oracle(ct):
    """Every record of the rank-2 theorem grids carries the Fraction
    maximum over the full key set of its interval below t^lam x, built
    afresh by the tuple oracle: the running top of the sweep loses
    nothing against the whole set."""
    rs = build_root_system(ct, 2)
    table = enumerate_group(rs)
    recs = sweep_records(rs, theorem_grid(rs))
    assert len(recs) == 4 * len(table)
    for i, rec in enumerate(recs):
        x = i % len(table)
        assert rec["x"] == word_str(table.words[x])
        w = AffineElt(rs, tuple(rec["lambda"]), table.elements[x])
        tau, word = tau_word(w)
        eng = affine.IntervalEngine(table, word, tau)
        keys = nu_keys(eng, eng.interval_states(word))
        assert len(keys) > 1
        nu = _fraction_max_point(rs, keys).pairing
        assert rec["nu_brute"] == [str(c) for c in nu]
        assert rec["match"]


def test_max_point_refuses_incomparable(a2):
    keys = {((1, 0), 1), ((0, 1), 1)}
    for top in (_max_point, _fraction_max_point):
        with pytest.raises(InvariantError, match="not unique"):
            top(a2, keys)


def test_running_top(a2):
    """The sweep feeds ``_max_point`` the previous top with a batch of new
    keys: a batch with two incomparable maxima above the top is refused,
    and a batch lying below the top keeps it."""
    top = ((4, 4), 1)
    with pytest.raises(InvariantError, match="not unique"):
        _max_point(a2, {top, ((9, 0), 1), ((0, 9), 1), ((1, 1), 1)})
    below = {((1, 1), 1), ((2, 0), 1), ((1, 2), 2), ((4, 4), 1)}
    assert _max_point(a2, below | {top}) == top
    assert _fraction_max_point(a2, below | {top}).pairing == (4, 4)


@pytest.mark.parametrize("ct,n,lams", [
    ("A", 2, [(8, 8), (9, 9)]),
    ("B", 2, [(11, 11), (12, 12), (16, 16)]),
    ("A", 3, [(1, 1, 1), (1, 2, 1)]),
])
def test_sweep_shares_memo_exactly(ct, n, lams, monkeypatch):
    """One memo across the lambdas of a sweep, holding packed ints of more
    than one width S, gives the records of separate sweeps."""
    rs = build_root_system(ct, n)
    lams = [coweight(rs, lam) for lam in lams]
    alone = [r for lam in lams for r in sweep_records(rs, [lam])]
    widths, real = set(), newton._nu_keys

    def recorded(eng, states, memo):
        out = real(eng, states, memo)
        widths.update(memo)
        return out

    monkeypatch.setattr(newton, "_nu_keys", recorded)
    assert sweep_records(rs, lams) == alone
    assert len(widths) > 1


def _top_or_refusal(rs, keys):
    """``_max_point`` of keys, or the message it refuses them with."""
    try:
        return _max_point(rs, keys)
    except InvariantError as exc:
        return str(exc)


def _check_keys_against_oracle(monkeypatch, rank):
    """Patch ``_nu_keys`` so every call also runs the tuple oracle over
    every state, and ``tau_word`` to record whether each sweep starts from
    tau = 1; returns counts of the kinds of bucket the patched calls saw
    and the set of recorded tau kinds.  The packed keys must be a subset of
    the oracle's, with the same ``_max_point`` or the same refusal."""
    real, real_tau_word = newton._nu_keys, affine.tau_word
    seen = dict.fromkeys(["empty", "zero T"], 0)
    trivial_tau = set()

    def checked(eng, states, memo):
        assert eng._dense is (rank <= affine.DENSE_MAX_RANK)
        got, full = real(eng, states, memo), nu_keys(eng, states)
        assert got <= full
        assert _top_or_refusal(eng.rs, got) == _top_or_refusal(eng.rs, full)
        data = newton._averaging_data(eng.table)
        for x, b in states.buckets.items():
            if not b:
                seen["empty"] += 1
            elif not any(data[x][0]):
                seen["zero T"] += 1
        return got

    def recorded(w):
        tau, word = real_tau_word(w)
        trivial_tau.add(tau.is_identity())
        return tau, word

    monkeypatch.setattr(newton, "_nu_keys", checked)
    monkeypatch.setattr(affine, "tau_word", recorded)
    return seen, trivial_tau


def _box_engine(ct):
    """A dense rank-2 engine sized for three letters 0: its box holds
    [-6, 6]^2 (A2), [-6, 6] x [-3, 3] (B2) or [-3, 3] x [-6, 6] (G2)."""
    return affine.IntervalEngine(enumerate_group(build_root_system(ct, 2)), (0, 0, 0))


_MU = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from("ABG"), st.dictionaries(
    st.integers(0, 11),
    st.one_of(st.lists(_MU, max_size=40), st.integers(0, (1 << 169) - 1)),
    max_size=4))
# no unique top: two incomparable keys, (2, 0) and (0, 2), in the
# identity's bucket, and the ends (3, 0) and (0, 3) of a line through 0
@example("A", {0: [(2, 0), (0, 2)]})
@example("A", {0: [(k, 0) for k in range(-3, 4)]})
# every state of G2's box in one bucket and a line's interior in another
@example("G", {7: (1 << 91) - 1, 3: [(-2, 0), (-1, 0), (0, 0), (1, 0)]})
def test_line_end_keys_give_the_top_of_all_keys(ct, buckets):
    """Over random subsets of an engine's box, one per bucket (a list of
    coweights, those outside the box dropped, or a bitset), the line-end
    keys of ``_nu_keys`` are among the tuple oracle's keys of every state,
    and ``_max_point`` gives both the same key or refuses both."""
    eng = _box_engine(ct)
    box, bits = (1 << prod(eng.widths)) - 1, {}
    for x, b in buckets.items():
        if isinstance(b, list):
            inside = {mu for mu in b if all(map(le, eng.lo, mu)) and all(map(le, mu, eng.hi))}
            b = sum(1 << eng.pack(mu) for mu in inside)
        x %= len(eng.table)
        bits[x] = bits.get(x, 0) | b & box
    states = affine.StateSet(bits, 0, 0)
    got, full = newton._nu_keys(eng, states, {}), nu_keys(eng, states)
    assert got <= full
    assert _top_or_refusal(eng.rs, got) == _top_or_refusal(eng.rs, full)


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("D", 5)])
def test_averaging_data_builds_no_elements(ct, n, monkeypatch):
    """On a fresh group table the averaging data is read from the signed
    root images without building one table element, and equals the sums
    of the elements' matrices."""
    monkeypatch.setattr(weyl, "_TABLES", {})
    table = enumerate_group(build_root_system(ct, n))
    data = newton._averaging_data(table)
    assert table.elements._slots[1:] == [None] * (len(table) - 1)
    assert data == averaging_data_matrices(table)


@pytest.mark.parametrize("ct,n", [("A", 1), ("A", 2), ("B", 2)])
def test_packed_keys_match_tuple_oracle(ct, n, dense, monkeypatch):
    """On both engines, every key set of the rank <= 2 theorem-grid sweep
    is a subset of the tuple oracle's with the same maximum or refusal:
    full intervals and the partial sets ``states - seen`` with a shared
    memo, from trivial and nontrivial tau, with empty buckets and buckets
    whose averaging matrix is 0."""
    rs = build_root_system(ct, n)
    seen, trivial_tau = _check_keys_against_oracle(monkeypatch, n)
    assert all(r["match"] for r in sweep_records(rs, theorem_grid(rs)))
    assert all(seen.values()), seen
    assert trivial_tau == {True, False}


def test_packed_keys_match_tuple_oracle_a3(a3, monkeypatch):
    """Both kernels on A3 (bitsets by default, frozensets forced) at small
    lambdas, one of them outside the coroot lattice."""
    lams = [coweight(a3, (1, 1, 1)), coweight(a3, (1, 2, 1))]
    for dense_max_rank in (affine.DENSE_MAX_RANK, 0):
        with monkeypatch.context() as m:
            m.setattr(affine, "DENSE_MAX_RANK", dense_max_rank)
            seen, trivial_tau = _check_keys_against_oracle(m, 3)
            assert len(sweep_records(a3, lams)) == 2 * 24
            assert all(seen.values()), seen
            assert trivial_tau == {True, False}
