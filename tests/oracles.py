"""Brute-force oracles the tests compare the package against."""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from operator import add, mul, sub

from adlv.adm import _orbit
from adlv.affine import (
    AffineElt,
    affine_length,
    descent_left,
    lower_union,
    simple_affine,
)
from adlv.cover import CocoverRecord, CoverResult, cover_depth_threshold
from adlv.errors import InvariantError
from adlv.newton import _averaging_data
from adlv.qbg import build_qbg
from adlv.rootsys import _dominantize, _edges_and_d, coweight_from_coroot, depth
from adlv.weyl import (
    WeylElt,
    enumerate_group,
    identity_elt,
    per_table,
    reflection,
    simple_reflection,
)


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


def coroot_coords(lam) -> tuple:
    """Coefficients of a coweight over the simple coroots: p = C^T c
    solved as den * C^-T p over den (``RootSystem.inv_cartan_scaled``),
    each integral one an int and the rest Fractions."""
    den = lam.rs.inv_cartan_den
    return tuple(x // den if x % den == 0 else Fraction(x, den)
                 for x in (sum(map(mul, row, lam.pairing))
                           for row in lam.rs.inv_cartan_scaled))


def symmetrizer(rs) -> tuple[int, ...]:
    """d_i = (a_i, a_i)/2, so that (a_i, a_j) = d_i C[i][j]."""
    return _edges_and_d(rs.cartan_type, rs.rank)[1]


def half_norm(rs, root) -> int:
    """d_beta = (beta, beta)/2 from the symmetric form (a_i, a_j) = d_i C[i][j]."""
    d, C, n = symmetrizer(rs), rs.cartan, rs.rank
    norm2 = sum(root[i] * root[j] * d[i] * C[i][j] for i in range(n) for j in range(n))
    assert norm2 > 0 and norm2 % 2 == 0, (root, norm2)
    return norm2 // 2


def roots_by_strings(rs) -> list[tuple[int, ...]]:
    """The positive roots by closing the simple roots under root addition,
    sorted by (height, coefficients): beta + a_i is a root iff
    p - <beta, a_i_check> >= 1, p the length of the a_i-string below beta."""
    n, C = rs.rank, rs.cartan
    roots = {simple_root(rs, i) for i in range(n)}
    level = sorted(roots)
    while level:
        nxt = set()
        for beta in level:
            for i in range(n):
                ai = simple_root(rs, i)
                if beta == ai:
                    continue
                p, cur = 0, tuple(map(sub, beta, ai))
                while cur in roots:
                    p, cur = p + 1, tuple(map(sub, cur, ai))
                if p - sum(C[i][j] * beta[j] for j in range(n)) >= 1:
                    nxt.add(tuple(map(add, beta, ai)))
        nxt -= roots
        roots |= nxt
        level = sorted(nxt)
    return sorted(roots, key=lambda r: (sum(r), r))


def coroots_by_norms(rs, roots) -> list[tuple[int, ...]]:
    """beta_check = sum_i c_i (d_i / d_beta) a_i_check for beta = sum_i c_i a_i,
    every coefficient an integer."""
    d, out = symmetrizer(rs), []
    for r in roots:
        db = half_norm(rs, r)
        assert all(c * di % db == 0 for c, di in zip(r, d)), r
        out.append(tuple(c * di // db for c, di in zip(r, d)))
    return out


def reflect(rs, beta, beta_check, gamma) -> tuple[int, ...]:
    """s_beta gamma = gamma - <gamma, beta_check> beta, in root coordinates."""
    k = pair_root_coroot(rs, gamma, beta_check)
    return tuple(g - k * b for g, b in zip(gamma, beta))


def reflection_lengths_by_counting(rs, roots, coroots) -> list[int]:
    """ell(s_beta) = #{gamma > 0 : s_beta gamma < 0}, each image read by
    the sign of its first nonzero coefficient."""
    def negative(v):
        assert any(v), "a reflection sent a root to 0"
        return next(c for c in v if c) < 0
    return [sum(negative(reflect(rs, beta, bc, gamma)) for gamma in roots)
            for beta, bc in zip(roots, coroots)]


def quantum_roots_by_classification(rs) -> list[tuple[int, ...]]:
    """Independent route to the quantum roots: all long roots, plus the short
    roots whose support uses only short simple roots.  (In the simply laced
    types every root counts as long.)"""
    d = symmetrizer(rs)
    dmax = max(d)
    out = []
    for r in rs.positive_roots:
        if half_norm(rs, r) == dmax:
            out.append(r)
        else:
            if all(d[i] < dmax for i in range(rs.rank) if r[i]):
                out.append(r)
    return out


@lru_cache(maxsize=None)
def word_matrix(rs, word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The action on root coordinates of s_{i_1} ... s_{i_l}, multiplied
    out from the Cartan matrix: s_i alpha_j = alpha_j - C[i][j] alpha_i,
    so right multiplication by s_i takes row[i] * C[i] off each row."""
    m = [[int(k == j) for j in range(rs.rank)] for k in range(rs.rank)]
    for i in word:
        m = [[v - row[i] * c for v, c in zip(row, rs.cartan[i])] for row in m]
    return tuple(map(tuple, m))


def act_root(x: WeylElt, coeffs) -> tuple[int, ...]:
    """x acting on a root in simple-root coordinates: x(alpha_j) is the
    root at alpha_j's entry of the row of x^-1."""
    rs = x.rs
    row = x.inv().imgs
    images = [rs.signed_roots[row[a]] for a in rs.letter_roots[1:]]
    return tuple(sum(c * v[k] for c, v in zip(coeffs, images)) for k in range(rs.rank))


def rho_key_by_forward_images(x: WeylElt) -> tuple[int, ...]:
    """ht(x alpha_j) over the simple roots alpha_j: the rho_check key of
    ``GroupTable``'s index, from the forward images."""
    return tuple(sum(act_root(x, simple_root(x.rs, j))) for j in range(x.rs.rank))


def act_coroot(x: WeylElt, coeffs) -> tuple[int, ...]:
    """x acting on a coweight in simple-coroot coordinates, from the matrix
    r of its table word.  With alpha_j_check = alpha_j / d_j the coroot
    action is D r D^-1, and every entry r[k][j] d_k / d_j is an integer."""
    table = enumerate_group(x.rs)
    d = symmetrizer(x.rs)
    return tuple(
        sum(row[j] * d[k] // d[j] * coeffs[j] for j in range(len(d)))
        for k, row in enumerate(word_matrix(x.rs, table.words[table.idx(x)]))
    )


def rmult_root_by_word(table, root_idx: int) -> list[int]:
    """Right multiplication by s_beta, folding ``rmult`` along the table's
    reduced word of s_beta, found by its rho_check key (``idx``): the
    reference for ``GroupTable.rmult_root``."""
    tab = list(range(len(table)))
    for i in table.words[table.idx(reflection(table.rs, root_idx))]:
        ri = table.rmult[i]
        tab = [ri[v] for v in tab]
    return tab


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


def adm_set_by_intervals(mu) -> frozenset:
    """The admissible set as the literal union of ``lower_union`` over
    the translations by the Weyl orbit of mu, one engine per orbit point:
    the oracle for the merged engine of ``adm_set``."""
    rs = mu.rs
    members = set()
    for pt in _orbit(rs, mu.int_pairing()):
        members |= lower_union([AffineElt(rs, pt, identity_elt(rs))])
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
    for root, c in zip(w.rs.positive_roots, w.fin.imgs):
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
    for a, (root, img) in enumerate(zip(rs.positive_roots, w.fin.imgs)):
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
    """Per element z: the sum of the pairing-action matrices of z^i over
    i = 1..ord(z), row-major, and ord(z): the oracle for
    ``newton._averaging_data``.  The pairing action of x is the root action
    of x^-1, multiplied out along the reversed table word of x."""
    out = []
    for z in range(len(table)):
        acc, cur, m = [0] * table.rs.rank ** 2, z, 0
        while True:
            m += 1
            ri = word_matrix(table.rs, table.words[cur][::-1])
            acc = [a + c for a, c in zip(acc, chain(*ri))]
            if cur == 0:  # the identity
                break
            cur = table.prod_idx(cur, z)
        out.append((tuple(acc), m))
    return out


def bit_positions(bits: int):
    """Indices of the set bits of a nonnegative int, ascending, one find
    per bit: the oracle for ``affine._line_ends``."""
    s = bin(bits)[:1:-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


def nu_keys(eng, states) -> set:
    """Normalized Newton keys of every state of a state set, one decoded mu
    tuple and one matrix-vector product per state: the oracle for the packed
    ``newton._nu_keys``, which reads only the ends of each box line."""
    rs, n = eng.rs, eng.rs.rank
    data = _averaging_data(eng.table)
    keys = set()
    for x_idx, b in states.buckets.items():
        T, m = data[x_idx]
        cols = [T[k::n] for k in range(n)]
        for mu in map(eng.unpack, bit_positions(b) if eng._dense else b):
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
    ok = depth(lam) >= thr
    if not ok and not force:
        return CoverResult("below-threshold", [])
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
    return CoverResult("ok" if ok else "below-threshold", records, non_cocover)


def orthogonal_decompositions(x: WeylElt) -> list[tuple[int, ...]]:
    """All ways to write the involution x as a product of pairwise
    orthogonal reflections, as sorted root-index tuples (order within a
    tuple is irrelevant: the factors commute).  Orthogonal roots are
    linearly independent, so no tuple has more than rank factors."""
    if not x.mul(x).is_identity():
        raise ValueError("orthogonal decompositions are of involutions only")
    rs = x.rs
    table = enumerate_group(rs)
    cols = rs.coroot_columns  # cols[b][a] = <beta_a, beta_b_check>
    nroots = len(rs.positive_roots)
    target = table.idx(x)
    mult = [table.rmult_root(a) for a in range(nroots)]
    out: list[tuple[int, ...]] = []

    def rec(start: int, chosen: list[int], cur: int) -> None:
        if cur == target:
            out.append(tuple(chosen))
        for a in range(start, nroots):
            if all(not cols[b][a] for b in chosen):
                chosen.append(a)
                rec(a + 1, chosen, mult[a][cur])
                chosen.pop()

    rec(0, [], 0)
    return out


def qbg_edges(table, forward: bool = True) -> list[list[tuple]]:
    """Each vertex's quantum Bruhat graph edges, leaving it when
    ``forward`` and entering it otherwise, as (other end, root index, or
    None for an up edge), derived from ``rmult_root``, the lengths and the
    quantum flags rather than read off a graph: an up edge raises the
    length by one, a down edge through a quantum root beta drops it by
    <2 rho, beta_check> - 1."""
    rs = table.rs
    ell = table.lengths
    sign = 1 if forward else -1
    edges = [[] for _ in range(len(table))]
    for a, cr in enumerate(rs.positive_coroots):
        drop = pair_root_coroot(rs, rs.two_rho, cr) - 1
        for x, y in enumerate(table.rmult_root(a)):
            d = sign * (ell[y] - ell[x])
            if d == 1:
                edges[x].append((y, None))
            elif d == -drop and rs.quantum_flags[a]:
                edges[x].append((y, a))
    return edges


def qbg_search(rs, edges, src: int) -> tuple[list[int], list[tuple]]:
    """Reference layered BFS from src along ``edges`` (``qbg_edges``; with
    in-edges it runs to src), each weight a tuple of simple-coroot
    coordinates, refusing two shortest paths of different weights.
    Unreached vertices keep distance -1."""
    coroots = rs.positive_coroots
    dist = [-1] * len(edges)
    wts = [None] * len(edges)
    dist[src] = 0
    wts[src] = (0,) * rs.rank
    queue = [src]
    for v in queue:  # the loop also visits the vertices appended below
        for u, a in edges[v]:
            w = wts[v] if a is None else tuple(map(add, wts[v], coroots[a]))
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                wts[u] = w
                queue.append(u)
            elif dist[u] == dist[v] + 1 and wts[u] != w:
                raise InvariantError("two shortest paths with different weights")
    return dist, wts


def _down_parents(table) -> list[int]:
    """Each vertex's first-found parent in the down-only breadth-first
    search from the identity along reversed down edges of the quantum
    Bruhat graph: the first queued vertex with a down edge from it."""
    g = build_qbg(table.rs)
    parent = [-1] * len(table)
    queue = [0]
    for v in queue:  # the loop also visits the vertices appended below
        for u, _ in g._down_in[v]:
            if parent[u] < 0:
                parent[u] = v
                queue.append(u)
    return parent


def down_parents(table) -> list[int]:
    """``_down_parents`` of the graph on ``table``, kept on the table."""
    return per_table(_down_parents)(table)


def rqrd(g, x) -> tuple[tuple[int, ...], ...]:
    """A minimal downward decomposition x = s_{beta_1} ... s_{beta_k} in the
    graph ``g``, read off the down-only search tree, as root coefficient
    vectors in product order: each tree edge v -> parent[v] is
    v s_beta = parent[v]."""
    t = g.table
    parent = down_parents(t)
    v = t.idx(x) if isinstance(x, WeylElt) else x
    labels = []
    while v != 0:
        p = parent[v]
        labels.append(t.root_of_reflection[t.prod_idx(t.inv_idx(v), p)])
        v = p
    return tuple(g.rs.positive_roots[a] for a in reversed(labels))
