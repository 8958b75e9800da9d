"""Finite crystallographic root systems in the Bourbaki labelling.

Roots are integer coefficient vectors over the simple roots, coroots are
integer coefficient vectors over the simple coroots, and coweights are kept
in *pairing coordinates*: lambda is stored as the tuple
``(<alpha_1, lambda>, ..., <alpha_n, lambda>)``.  All arithmetic is exact
(int / Fraction); nothing in this package ever touches a float.

The Cartan matrix convention is ``C[i][j] = <alpha_j, alpha_i_check>``, so
row i lists the pairings of all simple roots against the i-th simple coroot.

The per-type constants the paper's theorems use (valid ranks, |Phi+|, |W|,
the depth threshold c, S, M-tilde and ell_R(w0)) are defined once, in
``TYPE_TABLE``; ``check_type`` is the one type/rank validator.  The
closed forms that hold only inside a regime answer with a ``Verdict``.

>>> rs = build_root_system("G", 2)
>>> len(rs.positive_roots)
6
>>> rs.theta            # highest root 3a1 + 2a2
(3, 2)
>>> rs.positive_coroots[rs.theta_index]
(1, 2)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from ._matrix import mat_inv, mat_vec, transpose
from .errors import InvariantError, RefusalError

__all__ = [
    "RootSystem",
    "Coweight",
    "build_root_system",
    "coweight",
    "coweight_from_coroot",
    "pairing",
    "depth",
    "dominance_leq",
    "root_leq",
    "TYPE_TABLE",
    "TypeRow",
    "Verdict",
    "WEYL_ORDER",
    "check_type",
]

Root = tuple[int, ...]          # coefficients over simple roots
Coroot = tuple[int, ...]        # coefficients over simple coroots
Num = Union[int, Fraction]


class _Frozen:
    """Base of the slotted value classes: each field of ``__slots__`` is set
    once, by ``_set`` in ``__init__``, and assigning or deleting it later
    raises; equal and hashed by their fields.  The records read rarely are
    NamedTuples instead."""

    __slots__ = ()
    _set = object.__setattr__

    def __init__(self, **fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes every field by keyword")
        for name, value in fields.items():
            self._set(name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class TypeRow(NamedTuple):
    """The per-type constants the paper's theorems depend on.

    Ranks run from ``lo`` through ``hi`` (unbounded when None); every
    callable field maps a valid rank to its value."""

    lo: int
    hi: int | None
    depth_threshold: int               # c: cocover and Adm-membership depth
    n_positive: Callable[[int], int]   # |Phi+|
    weyl_order: Callable[[int], int]   # |W|
    s: Callable[[int], int]            # S = <theta, 2 rho_check>
    m_tilde: Callable[[int], int]      # bound on <alpha_i, wt(x)>
    ell_r_w0: Callable[[int], int]     # reflection length of w0

    def valid(self, n: int) -> bool:
        return n >= self.lo and (self.hi is None or n <= self.hi)

    @property
    def table_ranks(self) -> range:
        """The ranks ``adlv tables`` covers: classical types through 8."""
        return range(self.lo, (self.hi or 8) + 1)


# columns: lo, hi, c, |Phi+|, |W|, S, M-tilde, ell_R(w0)
_BC = TypeRow(2, None, 4, lambda n: n * n,
              lambda n: 2 ** n * math.factorial(n), lambda n: 4 * n - 2,
              lambda n: 2 * n, lambda n: n)

TYPE_TABLE = {
    "A": TypeRow(1, None, 3, lambda n: n * (n + 1) // 2,
                 lambda n: math.factorial(n + 1), lambda n: 2 * n,
                 lambda n: n + 1, lambda n: (n + 1) // 2),
    "B": _BC,
    "C": _BC,
    "D": TypeRow(4, None, 3, lambda n: n * (n - 1),
                 lambda n: 2 ** (n - 1) * math.factorial(n),
                 lambda n: 4 * n - 6, lambda n: 2 * n, lambda n: 2 * (n // 2)),
    "E": TypeRow(6, 8, 3, {6: 36, 7: 63, 8: 120}.__getitem__,
                 {6: 51840, 7: 2903040, 8: 696729600}.__getitem__,
                 {6: 22, 7: 34, 8: 58}.__getitem__,
                 {6: 12, 7: 16, 8: 28}.__getitem__,
                 {6: 4, 7: 7, 8: 8}.__getitem__),
    "F": TypeRow(4, 4, 4, lambda n: 24, lambda n: 1152, lambda n: 22,
                 lambda n: 12, lambda n: 4),
    "G": TypeRow(2, 2, 6, lambda n: 6, lambda n: 12, lambda n: 10,
                 lambda n: 4, lambda n: 2),
}


class Verdict(NamedTuple):
    """A closed form behind its regime gate.  ``status`` is "ok" inside the
    regime, where ``value`` is certified; outside it, "below-threshold",
    "outside-regime", "refused" or "probe", with ``value`` filled only on
    request (``force``) and certifying nothing, and ``reason`` naming the
    clause that failed."""

    status: str
    value: object
    reason: str = ""


def check_type(cartan_type: str, rank: int | None = None) -> str:
    """The canonical type letter; ValueError when the type is unknown or
    (if given) the rank is invalid for it."""
    ct = cartan_type.upper()
    if ct not in TYPE_TABLE:
        raise ValueError(f"unsupported Cartan type {cartan_type!r}")
    if rank is not None and not TYPE_TABLE[ct].valid(rank):
        raise ValueError(f"rank {rank} invalid for type {ct}")
    return ct


def WEYL_ORDER(ct: str, n: int) -> int:
    """Order of the finite Weyl group of type ``ct`` rank ``n``."""
    return TYPE_TABLE[check_type(ct, n)].weyl_order(n)


def _edges_and_d(ct: str, n: int) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """Dynkin diagram edges (0-based) and the symmetrizer d_i = (a_i, a_i)/2."""
    chain = [(i, i + 1) for i in range(n - 1)]
    if ct == "A":
        return chain, (1,) * n
    if ct == "B":
        return chain, (2,) * (n - 1) + (1,)
    if ct == "C":
        return chain, (1,) * (n - 1) + (2,)
    if ct == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)], (1,) * n
    if ct == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        return edges, (1,) * n
    if ct == "F":
        return chain, (2, 2, 1, 1)
    return chain, (1, 3)  # G2


class RootSystem(_Frozen):
    """Immutable root-system data, with everything derived from it per root,
    every field given by keyword; build via :func:`build_root_system`, which
    makes one object per (type, rank), so equality and hashing are by
    identity.  Plain slots, since the hot loops read its fields."""

    __slots__ = (
        "cartan_type",
        "rank",
        "cartan",              # C[i][j] = <a_j, a_i_check>
        "positive_roots",      # sorted by (height, coeffs)
        "positive_coroots",    # index-paired with the roots
        "heights",
        "theta_index",
        "two_rho",
        "quantum_flags",
        # per positive root beta, s_beta gamma over the positive roots gamma
        # as signed root indices: the row of the WeylElt s_beta
        "reflection_rows",
        "reflection_lengths",  # ell(s_beta): the negative entries of its row
        # indexed by a signed root index: c for the c-th positive root, ~c
        # for its negative (the list read from the end)
        "signed_roots",
        "coroot_pairings",     # C^T beta_check
        # <beta, gamma_check> over the positive roots beta, per signed
        # index of gamma
        "coroot_columns",
        "letter_roots",        # theta, then alpha_1..n
        "root_columns",        # transposed roots
        "cartan_t",            # C^T, coroots to pairings
        # the least den making den * C^-T integral, and that matrix: its
        # rows give scaled coroot coordinates of a coweight
        "inv_cartan_den",
        "inv_cartan_scaled",
        "root_index",
    )
    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def theta(self) -> Root:
        return self.positive_roots[self.theta_index]

    @property
    def coxeter_number(self) -> int:
        return self.heights[self.theta_index] + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RootSystem({self.cartan_type}{self.rank})"


def _unit(n: int, i: int) -> Root:
    return tuple(1 if j == i else 0 for j in range(n))


def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Construct the root system of the given Cartan type and rank (cached:
    one object per canonical type and rank).

    Each positive root is found together with its coroot in one walk: from
    the simple pairs (a_i, a_i_check), apply s_i wherever it raises the
    height, beta -> beta - <beta, a_i_check> a_i and beta_check ->
    beta_check - <a_i, beta_check> a_i_check.  Every positive root is
    reached this way and (w beta)_check = w(beta_check) (Humphreys,
    *Introduction to Lie Algebras*, 10.2-10.3), so no norms are needed.
    The roots are checked against the classical root count, and each
    reflection's signed root permutation is computed once from them.
    """
    return _build_root_system(check_type(cartan_type, rank), rank)


@lru_cache(maxsize=None)
def _build_root_system(ct: str, n: int) -> RootSystem:
    edges, d = _edges_and_d(ct, n)
    adj = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}
    # symmetric bilinear form B[i][j] = (a_i, a_j), then C[i][j] = B[i][j]/d_i
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        B[i][i] = 2 * d[i]
    for i, j in adj:
        B[i][j] = -max(d[i], d[j])
    C = tuple(tuple(B[i][j] // d[i] for j in range(n)) for i in range(n))
    if any(B[i][j] != C[i][j] * d[i] for i in range(n) for j in range(n)):
        raise InvariantError("Cartan symmetrization failed")

    # the walk of build_root_system, breadth first
    pairs = {_unit(n, i): _unit(n, i) for i in range(n)}  # root -> coroot
    level = list(pairs)
    while level:
        nxt = []
        for beta in level:
            bc = pairs[beta]
            ks = mat_vec(C, beta)  # <beta, a_i_check> per i
            if sum(map(mul, ks, bc)) != 2:
                raise InvariantError(f"<beta, beta_check> != 2 for {beta} in {ct}{n}")
            for i, k in enumerate(ks):  # s_i raises beta iff k < 0; else up = beta
                up = beta[:i] + (beta[i] - k,) + beta[i + 1:] if k < 0 else beta
                if up not in pairs:
                    m = sum(C[j][i] * bc[j] for j in range(n))  # <a_i, beta_check>
                    pairs[up] = bc[:i] + (bc[i] - m,) + bc[i + 1:]
                    nxt.append(up)
        level = nxt
    if len(pairs) != TYPE_TABLE[ct].n_positive(n):
        raise InvariantError(f"root closure produced {len(pairs)} roots for {ct}{n}")

    positive = tuple(sorted(pairs, key=lambda r: (sum(r), r)))
    coroots = tuple(map(pairs.__getitem__, positive))
    index = {r: a for a, r in enumerate(positive)}
    heights = tuple(sum(r) for r in positive)
    signed = positive + tuple(tuple([-c for c in r]) for r in positive[::-1])

    # <alpha_i, beta_check> per positive coroot (C^T beta_check), then negatives
    Ct = transpose(C)
    cps = tuple(mat_vec(Ct, bc) for bc in coroots)
    cps += tuple(tuple([-v for v in p]) for p in cps[::-1])
    # cols[c][b] = <beta_b, gamma_check>, gamma the root at signed index c
    cols = tuple(tuple([sum(map(mul, r, cp)) for r in positive]) for cp in cps)

    # rows[a][c]: s_beta gamma = gamma - <gamma, beta_check> beta as a signed
    # index, beta and gamma the a-th and c-th positive roots
    signed_index = dict(zip(signed, [*range(len(positive)), *range(-len(positive), 0)]))
    rows = []
    for beta, col in zip(positive, cols):
        row = []
        for gamma, k in zip(positive, col):
            img = tuple([g - k * b for g, b in zip(gamma, beta)])
            if img not in signed_index:
                raise InvariantError(f"s_{beta} sends {gamma} to {img}, not a root")
            row.append(signed_index[img])
        rows.append(tuple(row))
    refl_len = tuple([sum(c < 0 for c in row) for row in rows])

    # highest root: unique height maximum, and dominance-maximal among all roots
    hmax = max(heights)
    tops = [a for a, h in enumerate(heights) if h == hmax]
    if len(tops) != 1:
        raise InvariantError("highest root is not unique")
    ti = tops[0]
    th = positive[ti]
    if not all(t >= c for r in positive for t, c in zip(th, r)):
        raise InvariantError("theta not dominance-maximal")

    # cross-check: the sum of the positive roots pairs to 2 with every
    # simple coroot, so it is 2 rho
    two_rho = tuple(sum(r[i] for r in positive) for i in range(n))
    if any(p != 2 for p in mat_vec(C, two_rho)):
        raise InvariantError("2 rho != sum of positive roots")
    # and the positive coroots sum to 2 rho_check, which pairs to 2 with
    # every simple root
    if any(p != 2 for p in map(sum, zip(*cps[:len(positive)]))):
        raise InvariantError("2 rho_check != sum of positive coroots")
    cinv_t = mat_inv(Ct)
    den = math.lcm(*(x.denominator for row in cinv_t for x in row))

    # quantum roots: ell(s_beta) == <2 rho, beta_check> - 1 (always >= holds
    # with <2 rho, beta_check> - 1 >= ell(s_beta); see the library tests)
    qflags = tuple(
        refl_len[a] == 2 * sum(coroots[a]) - 1 for a in range(len(positive))
    )

    return RootSystem(
        cartan_type=ct,
        rank=n,
        cartan=C,
        positive_roots=positive,
        positive_coroots=coroots,
        heights=heights,
        theta_index=ti,
        two_rho=two_rho,
        quantum_flags=qflags,
        reflection_rows=tuple(rows),
        reflection_lengths=refl_len,
        signed_roots=signed,
        coroot_pairings=cps,
        coroot_columns=cols,
        letter_roots=(ti, *(index[_unit(n, i)] for i in range(n))),
        root_columns=tuple(zip(*positive)),
        cartan_t=Ct,
        inv_cartan_den=den,
        inv_cartan_scaled=tuple(tuple(int(x * den) for x in row) for row in cinv_t),
        root_index=index,
    )


def _norm_num(x: Num) -> Num:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _same_rs(a: "Coweight", b: "Coweight") -> RootSystem:
    if a.rs is not b.rs:
        raise RefusalError("coweights of different root systems")
    return a.rs


def _rank_vector(rs: RootSystem, v: Iterable[Num], what: str) -> tuple:
    """v as a tuple of rank-many coordinates; RefusalError otherwise."""
    v = tuple(v)
    if len(v) != rs.rank:
        raise RefusalError(f"{len(v)} {what} coordinates in rank {rs.rank}")
    return v


class Coweight(_Frozen):
    """A rational coweight in pairing coordinates ``<alpha_i, lambda>``,
    each an int or a non-integral Fraction (an integral one is stored as an
    int); equal and hashed by (rs, pairing)."""

    __slots__ = ("rs", "pairing")

    def __init__(self, rs: RootSystem, pairing: tuple[Num, ...]):
        pairing = _rank_vector(rs, pairing, "coweight")
        if not all(type(x) is int or isinstance(x, Fraction) for x in pairing):
            raise RefusalError("coweight coordinates must be int or Fraction")
        self._set("rs", rs)
        self._set("pairing", tuple(map(_norm_num, pairing)))

    def __add__(self, other: "Coweight") -> "Coweight":
        return Coweight(_same_rs(self, other), tuple(map(add, self.pairing, other.pairing)))

    def __sub__(self, other: "Coweight") -> "Coweight":
        return Coweight(_same_rs(self, other), tuple(map(sub, self.pairing, other.pairing)))

    def int_pairing(self) -> tuple[int, ...]:
        """The pairing coordinates, which must all be integers (lambda in
        the coweight lattice); RefusalError otherwise."""
        if not all(type(x) is int for x in self.pairing):
            raise RefusalError(
                f"coweight {[str(x) for x in self.pairing]} is not integral"
            )
        return self.pairing

    def is_dominant(self) -> bool:
        return all(x >= 0 for x in self.pairing)

    def is_regular(self) -> bool:
        return all(x != 0 for x in self.pairing)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Coweight({list(self.pairing)})"


def coweight(rs: RootSystem, pairing_coords: Iterable[Num]) -> Coweight:
    return Coweight(rs, tuple(pairing_coords))


def coweight_from_coroot(rs: RootSystem, coeffs: Iterable[Num]) -> Coweight:
    """Coweight from coefficients over the simple coroots (p = C^T c)."""
    return Coweight(rs, mat_vec(rs.cartan_t, _rank_vector(rs, coeffs, "coroot")))


def pairing(rs: RootSystem, root: Root, lam: Coweight) -> Num:
    """Exact pairing <beta, lambda> of a root with a coweight of rs."""
    if lam.rs is not rs:
        raise RefusalError("coweight of another root system")
    return _norm_num(sum(map(mul, _rank_vector(rs, root, "root"), lam.pairing)))


def depth(lam: Coweight) -> Num:
    """min_i <alpha_i, lambda>: positive iff lambda is dominant regular.

    For dominant lambda this measures how far lambda sits from the nearest
    wall of the dominant cone, in simple-pairing units.
    """
    return min(lam.pairing)


def dominance_leq(a: Coweight, b: Coweight) -> bool:
    """True iff b - a is a nonnegative rational combination of simple
    coroots: its coroot coordinates, scaled by den > 0, are nonnegative."""
    diff = tuple(map(sub, b.pairing, a.pairing))
    coords = mat_vec(_same_rs(a, b).inv_cartan_scaled, diff)
    return all(x >= 0 for x in coords)


def _dominantize(rs: RootSystem, p: Sequence[Num]) -> tuple[tuple[Num, ...], list[int]]:
    """Sweep lambda into the dominant cone; returns (coords, word) where the
    recorded simple reflections, applied left-to-right as written, satisfy
    s_{i_k} ... s_{i_1} lambda = lambda_plus.  Integer coordinates come back
    untouched; Fraction ones are normalized."""
    C = rs.cartan
    n = rs.rank
    cur = list(p)
    word: list[int] = []
    i = 0
    while i < n:  # reflect in the first negative coordinate, then rescan
        pi = cur[i]
        if pi < 0:
            cur = [c - d * pi for c, d in zip(cur, C[i])]
            word.append(i)
            i = 0
        else:
            i += 1
    return tuple(map(_norm_num, cur) if Fraction in map(type, cur) else cur), word


def root_leq(beta: Root, gamma: Root) -> bool:
    """Coefficientwise dominance order on root coefficient vectors."""
    return all(b <= g for b, g in zip(beta, gamma))
