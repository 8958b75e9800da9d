"""Brute-force oracles the tests compare the package against."""

from functools import lru_cache
from itertools import chain
from math import gcd

from adlv.adm import DEFAULT_ADM_BUDGET, _orbit
from adlv.affine import (
    AffineElt,
    affine_length,
    descent_left,
    lower_union,
    simple_affine,
)
from adlv.cover import CocoverRecord, CoverResult, cover_depth_threshold
from adlv.newton import _averaging_data
from adlv.rootsys import _dominantize, coweight_from_coroot, depth
from adlv.weyl import WeylElt, identity_elt, per_table, reflection, simple_reflection


def simple_root(rs, i: int) -> tuple[int, ...]:
    """The i-th simple root in root coordinates."""
    return tuple(1 if j == i else 0 for j in range(rs.rank))


def from_word(rs, word) -> WeylElt:
    """Product of simple reflections (0-based indices)."""
    w = identity_elt(rs)
    for i in word:
        w = w.mul(simple_reflection(rs, i))
    return w


def pair_root_coroot(rs, root, coroot) -> int:
    """<beta, gamma_check> for a root and a coroot, via the Cartan matrix:
    the oracle for ``RootSystem.coroot_columns``."""
    n = rs.rank
    return sum(root[i] * coroot[j] * rs.cartan[j][i] for i in range(n) for j in range(n))


def quantum_roots_by_classification(rs) -> list[tuple[int, ...]]:
    """Independent route to the quantum roots: all long roots, plus the short
    roots whose support uses only short simple roots.  (In the simply laced
    types every root counts as long.)"""
    dmax = max(rs.sym_d)
    out = []
    for a, r in enumerate(rs.positive_roots):
        if rs.root_d[a] == dmax:
            out.append(r)
        else:
            if all(rs.sym_d[i] < dmax for i in range(rs.rank) if r[i]):
                out.append(r)
    return out


def act_coroot(x: WeylElt, coeffs) -> tuple[int, ...]:
    """x acting on a coweight in simple-coroot coordinates.  With
    alpha_j_check = alpha_j / d_j the coroot action is D r D^-1, and every
    entry r[k][j] d_k / d_j is an integer."""
    d = x.rs.sym_d
    return tuple(
        sum(row[j] * d[k] // d[j] * coeffs[j] for j in range(len(d)))
        for k, row in enumerate(x.r)
    )


def _bruhat_masks(table) -> list[int]:
    nroots = len(table.rs.positive_roots)
    tabs = [table.rmult_root(t) for t in range(nroots)]
    masks = [0] * len(table)
    for a in range(len(table)):
        m = 1 << a
        la = table.lengths[a]
        for t in range(nroots):
            b = tabs[t][a]
            if table.lengths[b] == la - 1:
                m |= masks[b]
        assert not la or m != 1 << a, "element without a cocover"
        masks[a] = m
    return masks


def bruhat_masks(table) -> list[int]:
    """For each index a of a group table, a bitmask of all indices b with
    b <= a in Bruhat order, by the cocover recursion in length order (kept
    on the table)."""
    return per_table(_bruhat_masks)(table)


def leq_idx(table, a: int, b: int) -> bool:
    """Bruhat order on table indices, read from ``bruhat_masks``."""
    return bool((bruhat_masks(table)[b] >> a) & 1)


def adm_set_by_intervals(mu, budget: int = DEFAULT_ADM_BUDGET) -> frozenset:
    """The admissible set as the literal union of ``lower_union`` over
    the translations by the Weyl orbit of mu, one engine per orbit point:
    the oracle for the merged engine of ``adm_set``."""
    rs = mu.rs
    members = set()
    for pt in _orbit(rs, mu.int_pairing()):
        members |= lower_union([AffineElt(rs, pt, identity_elt(rs))], budget)
    return frozenset(members)


@lru_cache(maxsize=None)
def _bruhat(x: WeylElt, y: WeylElt) -> bool:
    if x.length() > y.length():
        return False
    if x.length() == y.length():
        return x == y
    # deterministic lifting: take the least left descent of y
    rs = x.rs
    i = next(k for k in range(rs.rank) if y.descent_left(k))
    s = simple_reflection(rs, i)
    sy = s.mul(y)
    if x.descent_left(i):
        return _bruhat(s.mul(x), sy)
    return _bruhat(x, sy)


def bruhat_leq(x: WeylElt, y: WeylElt) -> bool:
    """Bruhat order on the finite Weyl group, by the lifting recursion."""
    assert x.rs is y.rs
    return _bruhat(x, y)


@lru_cache(maxsize=500_000)
def _ableq(a: AffineElt, b: AffineElt) -> bool:
    if a == b:
        return True
    if affine_length(a) >= affine_length(b):
        return False
    n = a.rs.rank
    j = next(k for k in range(n + 1) if descent_left(b, k))
    s = simple_affine(a.rs, j)
    sb = s.mul(b)
    if descent_left(a, j):
        return _ableq(s.mul(a), sb)
    return _ableq(a, sb)


def bruhat_leq_affine(a: AffineElt, b: AffineElt) -> bool:
    """Bruhat order on the extended affine Weyl group, by the lifting
    recursion.  Elements in different translation-lattice classes are
    incomparable."""
    assert a.rs is b.rs
    if a.omega != b.omega:
        return False
    return _ableq(a, b)


def _pair(root, lam) -> int:
    return sum(a * b for a, b in zip(root, lam))


def affine_length_loop(w: AffineElt) -> int:
    """Affine length by one pairing per positive root: |<alpha, lam>| when
    x^-1 alpha > 0 and |<alpha, lam> - 1| otherwise.  The oracle for the
    column kernel of ``affine_length``."""
    total = 0
    for root, c in zip(w.rs.positive_roots, w.fin.inv_images()):
        a = _pair(root, w.lam)
        total += abs(a) if c >= 0 else abs(a - 1)
    return total


def cocovers_by_reflections(w: AffineElt) -> list:
    """Cocovers as (root index, m, r w), each candidate built as the product
    of the affine reflection r = t^{m alpha_check} s_alpha with w, lengths by
    the per-root loop: the oracle for ``cocovers_with_reflections``."""
    rs = w.rs
    h = rs.coxeter_number
    lw = affine_length_loop(w)
    out = []
    for a, (root, img) in enumerate(zip(rs.positive_roots, w.fin.inv_images())):
        ht = rs.heights[img] if img >= 0 else -rs.heights[~img]
        hi = h * _pair(root, w.lam) + ht
        ms = range(1, (hi - 1) // h + 1) if hi > 0 else range(hi // h + 1, 1)
        for m in ms:
            coroot = coweight_from_coroot(rs, rs.positive_coroots[a]).pairing
            r = AffineElt(rs, tuple(m * c for c in coroot), reflection(rs, a))
            cand = r.mul(w)
            if affine_length_loop(cand) == lw - 1:
                out.append((a, m, cand))
    return out


def averaging_data_matrices(table) -> list:
    """Per element z: the sum of the pairing-action matrices ``ri`` of z^i
    over i = 1..ord(z), row-major, and ord(z), read from the built table
    elements: the oracle for ``newton._averaging_data``."""
    out = []
    for z in range(len(table)):
        acc, cur, m = [0] * table.rs.rank ** 2, z, 0
        while True:
            m += 1
            acc = [a + c for a, c in zip(acc, chain(*table.elements[cur].ri))]
            if cur == 0:  # the identity
                break
            cur = table.prod_idx(cur, z)
        out.append((tuple(acc), m))
    return out


def nu_keys(eng, states) -> set:
    """Normalized Newton keys over a state set, one decoded mu tuple and
    one matrix-vector product per state: the oracle for the packed
    ``newton._nu_keys``."""
    rs, n = eng.rs, eng.rs.rank
    data = _averaging_data(eng.table)
    keys = set()
    for x_idx, mus in eng.decoded(states):
        T, m = data[x_idx]
        cols = [T[k::n] for k in range(n)]
        for mu in mus:
            raw = tuple(sum(a * t for a, t in zip(mu, col)) for col in cols)
            dom, _ = _dominantize(rs, raw)
            g = gcd(m, *dom)
            keys.add((tuple(c // g for c in dom), m // g))
    return keys


def _utv(u: WeylElt, lam, v: WeylElt) -> AffineElt:
    """u t^lam v = t^{u(lam)} uv, for lam in pairing coordinates."""
    return AffineElt(u.rs, u.act_pairing(lam), u.mul(v))


def _object_reflection_shape(rs, r: AffineElt):
    """(beta, m) with r = t^{m beta_check} s_beta, beta positive."""
    roots = {reflection(rs, a): a for a in range(len(rs.positive_roots))}
    b = roots[r.fin]
    cb = rs.coroot_pairings[b]
    k = next(i for i, c in enumerate(cb) if c)
    m, rem = divmod(r.lam[k], cb[k])
    assert not rem and tuple(m * c for c in cb) == r.lam
    return rs.positive_roots[b], m


def predicted_cocovers_by_objects(u: WeylElt, lam, v: WeylElt,
                                  force: bool = False) -> CoverResult:
    """The four-case cocover list of w = u t^lam v on ``WeylElt`` and
    ``AffineElt`` objects: each case's element is built as a product, its
    separating reflection read from w' w^-1 and its length from
    ``affine_length``.  The oracle for the index classifier
    ``cover.predicted_cocovers``."""
    rs = lam.rs
    lam_int = lam.int_pairing()
    thr = cover_depth_threshold(rs.cartan_type)
    d = depth(lam)
    ok = d >= thr
    if not ok and not force:
        return CoverResult("below-threshold", [], d, thr)
    w = _utv(u, lam_int, v)
    lw = affine_length(w)
    lu, lv = u.length(), v.length()
    by_result: dict = {}
    non_cocover: list = []
    w_inv = w.inv()

    def emit(case: int, w2: AffineElt) -> None:
        if w2 in by_result:
            by_result[w2][0].append(case)
            return
        beta, m = _object_reflection_shape(rs, w2.mul(w_inv))
        if affine_length(w2) != lw - 1:
            assert not ok, f"case {case} produced a non-cocover length"
            if w2 not in non_cocover:
                non_cocover.append(w2)
            return
        by_result[w2] = ([case], beta, m)

    for a in range(len(rs.positive_roots)):
        sa = reflection(rs, a)
        drop = 2 * sum(rs.positive_coroots[a])
        lam_minus = tuple(p - c for p, c in zip(lam_int, rs.coroot_pairings[a]))
        usa, sav = u.mul(sa), sa.mul(v)
        if usa.length() == lu - 1:
            emit(1, _utv(usa, lam_int, v))
        if usa.length() == lu + drop - 1:
            assert rs.quantum_flags[a]
            emit(2, _utv(usa, lam_minus, v))
        if sav.length() == lv + 1:
            emit(3, _utv(u, lam_int, sav))
        if sav.length() == lv - drop + 1:
            assert rs.quantum_flags[a]
            emit(4, _utv(u, lam_minus, sav))

    records = [
        CocoverRecord(beta, m, min(cases), tuple(sorted(set(cases))), w2)
        for w2, (cases, beta, m) in by_result.items()
    ]
    records.sort(key=lambda r: (r.case_label, r.root, r.m))
    return CoverResult(
        "ok" if ok else "below-threshold", records, d, thr, non_cocover
    )
