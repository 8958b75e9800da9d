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
``TYPE_TABLE``; ``check_type`` is the one type/rank validator.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence, Union

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
    "dominant_rep",
    "root_leq",
    "TYPE_TABLE",
    "TypeRow",
    "WEYL_ORDER",
    "check_type",
]

Root = tuple[int, ...]          # coefficients over simple roots
Coroot = tuple[int, ...]        # coefficients over simple coroots
Num = Union[int, Fraction]


@dataclass(frozen=True)
class TypeRow:
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


def _sign(v: Sequence[int]) -> int:
    """Sign of a sign-coherent coefficient vector (0 for the zero vector)."""
    for x in v:
        if x:
            return 1 if x > 0 else -1
    return 0


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable root-system data, with everything derived from it per root;
    build via :func:`build_root_system`, which makes one object per (type,
    rank), so equality and hashing are by identity."""

    cartan_type: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]          # C[i][j] = <a_j, a_i_check>
    sym_d: tuple[int, ...]
    positive_roots: tuple[Root, ...]             # sorted by (height, coeffs)
    positive_coroots: tuple[Coroot, ...]         # index-paired with the roots
    root_d: tuple[int, ...]                      # d_beta = (beta, beta)/2
    heights: tuple[int, ...]
    theta_index: int
    two_rho: Root
    quantum_flags: tuple[bool, ...]
    reflection_lengths: tuple[int, ...]          # ell(s_beta) per positive root
    # indexed by a signed root index: c for the c-th positive root, ~c for
    # its negative (the list read from the end)
    signed_roots: tuple[Root, ...] = field(repr=False)
    coroot_pairings: tuple[tuple[int, ...], ...] = field(repr=False)  # C^T beta_check
    # <beta, gamma_check> over the positive roots beta, per signed index of gamma
    coroot_columns: tuple[tuple[int, ...], ...] = field(repr=False)
    letter_roots: tuple[int, ...] = field(repr=False)  # theta, then alpha_1..n
    root_columns: tuple[tuple[int, ...], ...] = field(repr=False)  # transposed roots
    cartan_t: tuple[tuple[int, ...], ...] = field(repr=False)  # C^T, coroots to pairings
    # the least den making den * C^-T integral, and that matrix: its rows
    # give scaled coroot coordinates of a coweight
    inv_cartan_den: int = field(repr=False)
    inv_cartan_scaled: tuple[tuple[int, ...], ...] = field(repr=False)
    root_index: dict = field(repr=False)

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

    Positive roots are generated by closing the simple roots under root
    addition, using the string criterion: beta + a_i is a root iff
    p - <beta, a_i_check> >= 1 where p is the length of the alpha_i-string
    below beta.  The result is checked against the classical root count.
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

    # pairing of a root-coefficient vector with the i-th simple coroot
    def pair_simple_coroot(c: Sequence[int], i: int) -> int:
        return sum(C[i][j] * c[j] for j in range(n))

    roots: set[Root] = {_unit(n, i) for i in range(n)}
    level = sorted(roots)
    while level:
        nxt: set[Root] = set()
        for beta in level:
            for i in range(n):
                ai = _unit(n, i)
                if beta == ai:
                    continue
                p = 0
                cur = tuple(b - a for b, a in zip(beta, ai))
                while cur in roots:
                    p += 1
                    cur = tuple(b - a for b, a in zip(cur, ai))
                if p - pair_simple_coroot(beta, i) >= 1:
                    cand = tuple(b + a for b, a in zip(beta, ai))
                    if cand not in roots:
                        nxt.add(cand)
        roots |= nxt
        level = sorted(nxt)
    if len(roots) != TYPE_TABLE[ct].n_positive(n):
        raise InvariantError(f"root closure produced {len(roots)} roots for {ct}{n}")

    positive = tuple(sorted(roots, key=lambda r: (sum(r), r)))
    index = {r: a for a, r in enumerate(positive)}
    heights = tuple(sum(r) for r in positive)

    # d_beta and the coroot of each root: beta_check = sum_i c_i (d_i/d_beta) a_i_check
    root_d = []
    coroots = []
    for r in positive:
        norm2 = sum(r[i] * r[j] * B[i][j] for i in range(n) for j in range(n))
        if norm2 % 2 or norm2 <= 0:
            raise InvariantError(f"root {r} of {ct}{n} has norm {norm2}")
        db = norm2 // 2
        cr = []
        for i in range(n):
            num = r[i] * d[i]
            if num % db:
                raise InvariantError(f"non-integral coroot coefficient for {r} in {ct}{n}")
            cr.append(num // db)
        root_d.append(db)
        coroots.append(tuple(cr))
    root_d = tuple(root_d)
    coroots = tuple(coroots)

    # <alpha_i, beta_check> per positive coroot (C^T beta_check), then negatives
    Ct = transpose(C)
    cps = tuple(mat_vec(Ct, bc) for bc in coroots)
    cps += tuple(tuple([-v for v in p]) for p in cps[::-1])

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
    if any(pair_simple_coroot(two_rho, i) != 2 for i in range(n)):
        raise InvariantError("2 rho != sum of positive roots")
    cinv_t = mat_inv(Ct)
    den = math.lcm(*(x.denominator for row in cinv_t for x in row))

    # cols[c][b] = <beta_b, gamma_check>, gamma the root at signed index c
    cols = tuple(tuple([sum(map(mul, r, cp)) for r in positive]) for cp in cps)
    # ell(s_beta) = #{gamma > 0 : s_beta gamma < 0}, via the exact root action
    refl_len = []
    for a, beta in enumerate(positive):
        cnt = 0
        for gamma, k in zip(positive, cols[a]):  # k = <gamma, beta_check>
            img = tuple(gc - k * bb for gc, bb in zip(gamma, beta))
            s = _sign(img)
            if not s:
                raise InvariantError(f"reflection of {beta} sends a root to 0")
            if s < 0:
                cnt += 1
        refl_len.append(cnt)
    refl_len = tuple(refl_len)

    # quantum roots: ell(s_beta) == <2 rho, beta_check> - 1 (always >= holds
    # with <2 rho, beta_check> - 1 >= ell(s_beta); see the library tests)
    qflags = tuple(
        refl_len[a] == 2 * sum(coroots[a]) - 1 for a in range(len(positive))
    )

    return RootSystem(
        cartan_type=ct,
        rank=n,
        cartan=C,
        sym_d=tuple(d),
        positive_roots=positive,
        positive_coroots=coroots,
        root_d=root_d,
        heights=heights,
        theta_index=ti,
        two_rho=two_rho,
        quantum_flags=qflags,
        reflection_lengths=refl_len,
        signed_roots=positive + tuple(tuple([-c for c in r]) for r in positive[::-1]),
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


@dataclass(frozen=True)
class Coweight:
    """A rational coweight in pairing coordinates ``<alpha_i, lambda>``.

    ``lattice`` records where the point lives: "coroot" for the coroot
    lattice, "coweight" for the coweight lattice, "rational" otherwise.
    It is derived from the coordinates, never trusted from the caller.
    """

    rs: RootSystem
    pairing: tuple[Num, ...]
    lattice: str = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.pairing) != self.rs.rank:
            raise RefusalError(
                f"{len(self.pairing)} coweight coordinates in rank {self.rs.rank}"
            )
        if not all(type(x) is int or isinstance(x, Fraction) for x in self.pairing):
            raise RefusalError("coweight coordinates must be int or Fraction")
        coords = tuple(map(_norm_num, self.pairing))
        object.__setattr__(self, "pairing", coords)
        if all(type(x) is int for x in self.coroot_coords()):
            lat = "coroot"
        elif all(type(x) is int for x in coords):
            lat = "coweight"
        else:
            lat = "rational"
        object.__setattr__(self, "lattice", lat)

    def coroot_coords(self) -> tuple[Num, ...]:
        """Coefficients over the simple coroots (p = C^T c inverted exactly) as
        den * C^-T p over den, integral iff den divides it (Fractions too)."""
        den = self.rs.inv_cartan_den
        return tuple([x // den if x % den == 0 else Fraction(x, den)
                      for x in mat_vec(self.rs.inv_cartan_scaled, self.pairing)])

    def __add__(self, other: "Coweight") -> "Coweight":
        return Coweight(_same_rs(self, other), tuple(map(add, self.pairing, other.pairing)))

    def __sub__(self, other: "Coweight") -> "Coweight":
        return Coweight(_same_rs(self, other), tuple(map(sub, self.pairing, other.pairing)))

    def __neg__(self) -> "Coweight":
        return Coweight(self.rs, tuple(-a for a in self.pairing))

    def int_pairing(self) -> tuple[int, ...]:
        """The pairing coordinates, which must all be integers (lambda in
        the coweight lattice); RefusalError otherwise."""
        if self.lattice == "rational":
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


def coweight_from_coroot(rs: RootSystem, coroot_coords: Iterable[Num]) -> Coweight:
    """Coweight from coefficients over the simple coroots (p = C^T c)."""
    return Coweight(rs, mat_vec(rs.cartan_t, tuple(coroot_coords)))


def pairing(rs: RootSystem, root: Root, lam: Coweight) -> Num:
    """Exact pairing <beta, lambda> of a root with a coweight."""
    return _norm_num(sum(c * p for c, p in zip(root, lam.pairing)))


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


def dominant_rep(lam: Coweight):
    """Dominant representative of the Weyl orbit of lam.

    Returns ``(lam_plus, g)`` with ``g(lam) = lam_plus`` (g a WeylElt).
    """
    from .weyl import identity_elt, simple_reflection

    rs = lam.rs
    coords, word = _dominantize(rs, lam.pairing)
    g = identity_elt(rs)
    for i in word:
        g = simple_reflection(rs, i).mul(g)
    out = Coweight(rs, coords)
    if g.act_pairing(lam.pairing) != out.pairing:
        raise InvariantError("g(lambda) is not the dominant representative")
    return out, g


def root_leq(beta: Root, gamma: Root) -> bool:
    """Coefficientwise dominance order on root coefficient vectors."""
    return all(b <= g for b, g in zip(beta, gamma))
