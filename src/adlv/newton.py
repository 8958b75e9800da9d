"""Newton points of affine Weyl group elements.

The Newton point of w = t^mu z averages mu over the cyclic group generated
by the finite part z and takes the dominant representative; it is an exact
rational coweight.  The maximal Newton point over the Bruhat interval below
w admits a closed form for deeply dominant translations, lam - wt(x) for
w = t^lam x, which this module implements side by side with a brute-force
maximum that scans the whole interval.  The depth thresholds gating the
closed form are table arithmetic; the sweep helpers compare both routes on
integer grids just above the threshold and emit JSON-friendly records.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from operator import add, mul
from .affine import AffineElt, IntervalEngine, _interval_engine
from .errors import InvariantError, RefusalError
from .qbg import build_qbg, m_tilde
from .rootsys import (
    TYPE_TABLE,
    Coweight,
    Num,
    RootSystem,
    Verdict,
    _dominantize,
    _Frozen,
    check_type,
    coweight,
    coweight_from_coroot,
    depth,
)
from .weyl import (
    GroupTable,
    enumerate_group,
    longest_element,
    per_table,
    word_str,
)

__all__ = [
    "NewtonPoint",
    "newton_point",
    "max_newton_brute",
    "max_newton_formula",
    "xi_bound",
    "s_bound",
    "theorem_grid",
    "sweep_records",
]


class NewtonPoint(_Frozen):
    """A dominant rational coweight; the slope invariant of an element."""

    __slots__ = ("value",)

    def __init__(self, value: Coweight):
        if any(p < 0 for p in value.pairing):
            raise InvariantError("Newton point with a negative pairing coordinate")
        super().__init__(value=value)

    @property
    def pairing(self) -> tuple[Num, ...]:
        return self.value.pairing

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NewtonPoint{self.value.pairing}"


def newton_point(w: AffineElt) -> NewtonPoint:
    """Dominant representative of (1/m) sum of z^i(mu) over i = 1..m, for
    w = t^mu z with z of order m."""
    rs, z = w.rs, w.fin
    total, cur, m = (0,) * rs.rank, z, 0
    while True:
        m += 1
        total = tuple(map(add, total, cur.act_pairing(w.lam)))
        if cur.is_identity():
            break
        cur = cur.mul(z)
    dom, _ = _dominantize(rs, total)
    return NewtonPoint(coweight(rs, tuple(Fraction(c, m) for c in dom)))


# -- brute force over intervals -------------------------------------------


@per_table
def _averaging_data(table: GroupTable) -> list[tuple[tuple[int, ...], int]]:
    """Per element z: (sum over i=1..ord(z) of the pairing-action matrix of
    z^i, row-major, and ord(z)).  Lets the Newton sum run in integers.

    Column k of the matrix of x holds the root coordinates of x^-1(alpha_k),
    read from the table's signed root images, so no element is built."""
    rs, n = table.rs, table.rs.rank
    roots, simple, imgs = rs.signed_roots, rs.letter_roots[1:], table.inv_images()
    out = []
    for z in range(len(table)):
        acc, cur, m = [0] * n * n, z, 0
        while True:
            m += 1
            img = imgs[cur]
            acc = list(map(add, acc, chain(*zip(*[roots[img[a]] for a in simple]))))
            if cur == 0:  # the identity
                break
            cur = table.prod_idx(cur, z)
        out.append((tuple(acc), m))
    return out


def _nu_keys(eng: IntervalEngine, memo: dict):
    """The Newton keys, normalized as (integer dominant vector, denominator),
    of the states of ``eng``'s box: a function from a mapping of finite
    indices z to codes (``IntervalEngine.corners`` of their buckets, or a
    part of them) to the set of their keys; ``_max_point`` answers on the
    corners' keys as on all keys.  A state t^mu z has key dom(mu T / m),
    (T, m) the averaging data of z, and mu -> mu T / m is linear.  <2 rho,
    dom v> = max_w <2 rho, w v> is convex in v, and for dominant nu, t,
    nu <= t iff nu lies in conv(W t) (Kostant, Ann. Sci. ENS 1973), so the
    height maximum and "every key <= t" over a bucket are decided at the
    extreme points of its hull, each of them a corner.

    ``memo`` maps S to packed ints to keys, and each key to itself so equal
    keys share one tuple.  A packed int encodes mu T and m themselves (lo is
    folded into P), not lambda or the engine, so one memo serves every
    engine on the same table.  A bucket with T = 0 fixes no nonzero coweight
    and gives the key 0 unread.  Otherwise (raw, m) packs into sum (raw_k +
    2^(S-1)) 2^(S k) + m 2^(S n), Z-linear in mu: P + sum mu_i A_i with A_i
    row i of T packed.  From c = sum (mu_k - lo_k) places_k it is P' + c A_0
    + sum_{k>=1} (c // places_k) B_k, B_k = A_k - width_{k-1} A_{k-1} and
    P' = P + sum lo_k A_k, all fixed here once per engine.  No field
    carries: every mu lies in the engine's box, so |mu_i| <= bound = max
    |lo_i|, |hi_i| and |raw_k| < 2^(S-1)."""
    rs, n = eng.rs, eng.rs.rank
    data = _averaging_data(eng.table)
    tmax = max(max(map(abs, T)) for T, _ in data)
    bound = max(map(abs, eng.lo + eng.hi))
    S = (n * bound * tmax).bit_length() + 1
    memo, half, mask = memo.setdefault(S, {}), 1 << S - 1, (1 << S) - 1
    zero, fields = ((0,) * n, 1), [1 << S * k for k in range(n)]
    packs = []
    for T, m in data:
        if not any(T):
            packs.append(None)
            continue
        A = [sum(map(mul, T[i * n:i * n + n], fields)) for i in range(n)]
        P = half * sum(fields) + (m << S * n) + sum(map(mul, eng.lo, A))
        Bs = [(eng.places[k], A[k] - eng.widths[k - 1] * A[k - 1]) for k in range(1, n)]
        packs.append((m, P, A[0], Bs))

    def keys(buckets) -> set[tuple[tuple[int, ...], int]]:
        out = set()
        for x, codes in buckets.items():
            if not codes:
                continue
            if packs[x] is None:
                out.add(zero)
                continue
            m, P, A0, Bs = packs[x]
            raws = [P + c * A0 for c in codes]
            for p, B in Bs:
                raws = [r + c // p * B for r, c in zip(raws, codes)]
            raws = set(raws)
            for r in raws.difference(memo):
                dom, _ = _dominantize(rs, [(r >> S * k & mask) - half for k in range(n)])
                g = gcd(m, *dom)
                key = (tuple(c // g for c in dom), m // g)
                memo[r] = memo.setdefault(key, key)
            out.update(map(memo.__getitem__, raws))
        return out

    return keys


def _max_point(rs: RootSystem, keys) -> tuple[tuple[int, ...], int]:
    """Dominance maximum of a set of normalized keys, as a key;
    InvariantError unless the set has a single top element.  The keys stay
    integers: the argmax of the 2 rho height scaled by the lcm of the
    denominators, then one cross-multiplied dominance test per key.

    K u N has a top iff {t} u N has one, for t the top of K: a top of {t} u N
    dominates K through t, and a top of K u N lying in K dominates t, so it
    is t.  A sweep therefore carries a running top, not the whole set.
    Corners' keys (``_nu_keys``) have the top of all keys, or none: that
    top, of greatest height, is a corner's, and a top t of the corners'
    keys bounds every key, each bucket's hull mapping into conv(W t)."""
    if not keys:
        raise InvariantError("empty Newton point set")
    two_rho, den = rs.two_rho, lcm(*(m for _, m in keys))
    top, tm = best = max(keys, key=lambda k: sum(map(mul, two_rho, k[0])) * (den // k[1]))
    for cs, m in keys:
        diff = [a * m - c * tm for a, c in zip(top, cs)]
        if any(sum(map(mul, row, diff)) < 0 for row in rs.inv_cartan_scaled):
            raise InvariantError("maximal Newton point is not unique")
    return best


def max_newton_brute(w: AffineElt) -> NewtonPoint:
    """max{nu(u) : u <= w} by scanning the whole lower interval."""
    eng, states = _interval_engine([w])
    corners = {x: eng.corners(b) for x, b in states.buckets.items()}
    cs, m = _max_point(w.rs, _nu_keys(eng, {})(corners))
    return NewtonPoint(coweight(w.rs, tuple(Fraction(c, m) for c in cs)))


# -- thresholds -----------------------------------------------------------


def s_bound(cartan_type: str, rank: int) -> int:
    """<theta, 2 rho_check>, i.e. twice the coefficient sum of the highest
    root, read from the per-type table."""
    return TYPE_TABLE[check_type(cartan_type, rank)].s(rank)


def xi_bound(cartan_type: str, rank: int) -> int:
    """Depth threshold for the closed-form maximal Newton point: the weight
    bound plus <theta, 2 rho_check>.  Values: A_n 3n+1; B_n/C_n 6n-2;
    D_n 6n-6; E6 34; E7 50; E8 86; F4 34; G2 14."""
    return m_tilde(cartan_type, rank) + s_bound(cartan_type, rank)


# -- the closed form ------------------------------------------------------


def max_newton_formula(w: AffineElt, force: bool = False) -> Verdict:
    """Closed form for the maximal Newton point: lam - wt(x) after writing
    w = u t^lam v with lam dominant and folding u into the finite part.

    Guaranteed only when depth(lam) exceeds ``xi_bound``; below that the
    verdict is "below-threshold", with a value (which need not be dominant)
    only when ``force`` is set (exploration mode)."""
    rs = w.rs
    coords, word = _dominantize(rs, w.lam)
    lam_plus = coweight(rs, coords)
    thr = xi_bound(rs.cartan_type, rs.rank)
    d = depth(lam_plus)
    ok = d > thr
    reason = "" if ok else f"depth(lam) = {d} <= Xi = {thr}"
    if not ok and not force:
        return Verdict("below-threshold", None, reason)
    if word and not lam_plus.is_regular():
        raise RefusalError(
            "translation part is singular and not dominant; cannot fold"
        )
    graph = build_qbg(rs)
    t = graph.table
    # g = s_{i_k} ... s_{i_1} for the word i_1 .. i_k, so g(lam) = lam_plus
    g = 0
    for i in reversed(word):
        g = t.rmult[i][g]
    if t.elements[g].act_pairing(w.lam) != coords:
        raise InvariantError("g(lambda) is not the dominant representative")
    # w = u t^lam_plus v with u = g^{-1}, v = g z, and x = v <| u
    x = t.ltri_idx(t.prod_idx(g, t.idx(w.fin)), t.inv_idx(g))
    value = lam_plus - coweight_from_coroot(rs, graph.wt1(x))
    return Verdict("ok" if ok else "below-threshold", value, reason)


# -- verification sweeps --------------------------------------------------


def theorem_grid(rs: RootSystem) -> list[Coweight]:
    """All integral dominant lam with every pairing coordinate in
    {Xi+1, Xi+2}: depths sit in the first two integers above the bound."""
    thr = xi_bound(rs.cartan_type, rs.rank)
    return [
        coweight(rs, p)
        for p in product((thr + 1, thr + 2), repeat=rs.rank)
    ]


def _chain_cover(table: GroupTable) -> list[tuple[int, ...]]:
    """Reduced words of the longest element whose prefix products p_k,
    left-multiplied by w0, jointly cover the whole group.  Greedy and
    deterministic: the word for an uncovered x runs through w0 x, so the
    chain of tops w0 p_k passes through x."""
    w0 = table.w0_idx
    covered = [False] * len(table)
    chains: list[tuple[int, ...]] = []
    for x in range(len(table)):
        if covered[x]:
            continue
        p = table.prod_idx(w0, x)
        tail = table.prod_idx(table.inv_idx(p), w0)
        word = table.words[p] + table.words[tail]
        if len(word) != table.lengths[w0]:
            raise InvariantError("chain word not reduced")
        pref = 0
        covered[w0] = True
        for j in word:
            pref = table.rmult[j][pref]
            covered[table.prod_idx(w0, pref)] = True
        chains.append(word)
    return chains


def sweep_records(rs: RootSystem, lambdas) -> list[dict]:
    """Compare the closed form against the brute-force maximum for every
    x in W and each given dominant regular lam.

    Walks one interval per (lam, chain): for t^lam w0 = tau w2 (``tau_word``)
    the word w2 extended letter by letter along a reduced word of w0 stays
    reduced, so snapshots of the subword DP from tau are exactly the
    intervals below t^lam x for x on a chain from w0 down to the identity.
    Beside the state sets, which the engine bounds, the walk carries a set
    of codes per bucket holding its hull's corners: the base interval's
    ``IntervalEngine.corners``, found once per lam, and after a letter j
    C[y] | C[y s_j] for bucket y, as the vertices of conv(A | B) lie among
    those of A and B.  Each top's maximum is over the last top and the keys
    of the codes new to their bucket's set since (exact, see
    ``_max_point``), starting from the base's top; one key memo serves
    every lam."""
    table = enumerate_group(rs)
    graph = build_qbg(rs)
    w0_elt = longest_element(rs)
    n_elts = len(table)
    chains = _chain_cover(table)
    records: list[dict] = []
    memo: dict = {}
    for lam in lambdas:
        if not (lam.is_dominant() and lam.is_regular()):
            raise RefusalError("sweep needs dominant regular lambda")
        lam_int = lam.int_pairing()
        # the chains add finite letters only, so the base interval's box holds
        eng, base = _interval_engine([AffineElt(rs, lam_int, w0_elt)])
        keys = _nu_keys(eng, memo)
        base_corners = {x: eng.corners(b) for x, b in base.buckets.items()}
        base_top = _max_point(rs, keys(base_corners))
        done = [False] * n_elts
        results: dict[int, dict] = {}
        for chain in chains:
            states = base
            corners = seen = base_corners
            best = base_top
            pref = 0
            for step_no in range(len(chain) + 1):
                top = table.prod_idx(table.w0_idx, pref)
                if not done[top]:
                    done[top] = True
                    new = {x: c - seen.get(x, frozenset()) for x, c in corners.items()}
                    best = _max_point(rs, keys(new) | {best})
                    seen = corners
                    nu_b = tuple(Fraction(c, best[1]) for c in best[0])
                    nu_f = lam - coweight_from_coroot(rs, graph.wt1(top))
                    results[top] = {
                        "type": rs.cartan_type,
                        "rank": rs.rank,
                        "lambda": list(lam_int),
                        "x": word_str(table.words[top]),
                        "nu_formula": [str(c) for c in nu_f.pairing],
                        "nu_brute": [str(c) for c in nu_b],
                        "match": nu_f.pairing == nu_b,
                    }
                if step_no < len(chain):
                    j = chain[step_no]
                    states = eng._bounded(eng.step(states, j + 1))
                    r, merged = table.rmult[j], {}
                    for x, c in corners.items():  # r is an involution
                        if x not in merged:
                            merged[x] = merged[r[x]] = c | corners.get(r[x], c)
                    corners = merged
                    pref = r[pref]
        records.extend(results[i] for i in sorted(results))
    return records
