"""Extended affine Weyl group elements t^lambda x, with exact lengths.

An element is a pair: an integral coweight lambda (pairing coordinates) and a
finite part x, multiplying by t^a x . t^b y = t^{a + x(b)} (xy).  The affine
simple generator is s_0 = t^{theta_check} s_theta; words use letters 0..n
with 0 the affine node and j >= 1 the finite simple reflection s_j.

Length is the number of affine hyperplanes separating the base alcove from
its image, evaluated at the generic point rho_check / h (h the Coxeter
number).  Clearing denominators by h makes the count pure integer
arithmetic: for each positive root alpha the contribution is
|<alpha, lambda>| when x^-1 alpha > 0 and |<alpha, lambda> - 1| otherwise.

Lengths, descents and cocovers read the signs and heights of x^-1 alpha
from ``WeylElt.inv_images`` (lengths through its 0/1 form
``WeylElt.neg_mask``), and products of finite parts go through
``WeylElt.mul``: both are table lookups when the finite group has a cached
``GroupTable`` (``enumerate_group`` builds one; nothing here does), and
fall back to the integer matrices otherwise (E7, E8, or any group not yet
enumerated).  Translation parts move by ``WeylElt.act_pairing``, on the
columns of x^-1 cached on the finite part, so with a table they are
transposed once per index.  Products, inverses, cocover candidates and
interval members are built by ``_affine``, which skips the refusals of the
public constructor: their parts come from elements that passed them.

Lower intervals, and their unions over tops that share tau (admissible
sets), come from one ``IntervalEngine`` started at tau: its subword dynamic
program runs along the reduced word of each top w = tau s_{j_1} ... s_{j_l}
(``tau_word``; left multiplication by a length-zero tau preserves the
Bruhat order), and the state sets merge bucket by bucket.  Every interval,
Newton maxima's included, is set up by ``_interval_engine`` and refused
past ``STATE_CAP`` states.  Cocovers come from enumerating separating
reflections, and the three Demazure products from folding reduced words.

The engine keeps a state set grouped by finite Weyl index, one bucket of
mixed-radix codes of translation parts per index over a box sized from the
word's letters 0: up to rank ``DENSE_MAX_RANK`` (3) a big-int bitset, so a
letter costs one OR or shift per index, and in higher rank a frozenset of
ints.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import prod
from operator import add, mul, sub
from typing import Sequence

from .errors import BudgetError, InvariantError, RefusalError
from .rootsys import Coweight, RootSystem
from .weyl import (
    GroupTable,
    WeylElt,
    enumerate_group,
    identity_elt,
    reflection,
    simple_reflection,
)

__all__ = [
    "AffineElt",
    "embed",
    "translation",
    "simple_affine",
    "affine_length",
    "descent_left",
    "descent_right",
    "reduced_word_and_tau",
    "tau_word",
    "lower_union",
    "cocovers",
    "cocovers_with_reflections",
    "demazure_star",
    "demazure_rtri",
    "demazure_ltri",
    "IntervalEngine",
    "StateSet",
]

DEFAULT_INTERVAL_BUDGET = 30
# the most states an interval's state set may hold
STATE_CAP = 5_000_000


class AffineElt:
    """t^lam * fin, with lam given in integer pairing coordinates."""

    __slots__ = ("rs", "lam", "fin", "_len", "_hash", "_omega")

    def __init__(self, rs: RootSystem, lam: Sequence[int], fin: WeylElt):
        lam = tuple(lam)
        if len(lam) != rs.rank:
            raise RefusalError(f"{len(lam)} translation coordinates in rank {rs.rank}")
        if fin.rs is not rs:
            raise RefusalError("finite part of a different root system")
        if not {int}.issuperset(map(type, lam)):
            raise RefusalError("translation part must be integral")
        self.rs = rs
        self.lam = lam
        self.fin = fin
        self._len = None
        self._hash = None
        self._omega = None

    def mul(self, other: "AffineElt") -> "AffineElt":
        if self.rs is not other.rs:
            raise RefusalError("product of elements of different root systems")
        x = self.fin
        moved = x.act_pairing(other.lam)
        return _affine(self.rs, tuple(map(add, self.lam, moved)), x.mul(other.fin))

    def inv(self) -> "AffineElt":
        xi = self.fin.inv()
        return _affine(self.rs, tuple([-a for a in xi.act_pairing(self.lam)]), xi)

    def is_identity(self) -> bool:
        return not any(self.lam) and self.fin.is_identity()

    @property
    def omega(self) -> tuple[int, ...]:
        """Class of the translation part in (coweight lattice)/(coroot
        lattice): its coroot coordinates, scaled to integers, mod the
        scale."""
        if self._omega is None:
            rs = self.rs
            self._omega = tuple(sum(map(mul, row, self.lam)) % rs.inv_cartan_den
                                for row in rs.inv_cartan_scaled)
        return self._omega

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineElt)
            and self.lam == other.lam
            and self.fin == other.fin
        )

    def __hash__(self) -> int:
        # the finite part's hash is its cached hash of r, so this is
        # hash((lam, fin.r)) without hashing r again
        if self._hash is None:
            self._hash = hash((self.lam, self.fin))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AffineElt(t^{list(self.lam)} {self.fin!r})"


def _affine(rs: RootSystem, lam: tuple[int, ...], fin: WeylElt) -> AffineElt:
    """AffineElt without the refusals, for parts computed from checked ones:
    lam an int tuple of length rank, fin an element of rs."""
    w = object.__new__(AffineElt)
    w.rs, w.lam, w.fin = rs, lam, fin
    w._len = w._hash = w._omega = None
    return w


def embed(x: WeylElt) -> AffineElt:
    """The finite element x viewed as t^0 x."""
    return AffineElt(x.rs, (0,) * x.rs.rank, x)


def translation(lam: Coweight) -> AffineElt:
    """t^lam; RefusalError unless lam has integer pairing coordinates."""
    return AffineElt(lam.rs, lam.int_pairing(), identity_elt(lam.rs))


@lru_cache(maxsize=None)
def simple_affine(rs: RootSystem, j: int) -> AffineElt:
    """The affine generator s_0 = t^{theta_check} s_theta, or s_j for j >= 1."""
    if j == 0:
        th = rs.theta_index
        return AffineElt(rs, rs.coroot_pairings[th], reflection(rs, th))
    return embed(simple_reflection(rs, j - 1))


def _pairings(rs: RootSystem, lam: tuple[int, ...]):
    """<beta, lam> over the positive roots beta, as an iterator: one
    C-level scaled column per coordinate of lam."""
    cols = rs.root_columns
    acc = map(lam[0].__mul__, cols[0])
    for k in range(1, rs.rank):
        acc = map(add, acc, map(lam[k].__mul__, cols[k]))
    return acc


def affine_length(w: AffineElt) -> int:
    """Number of affine root hyperplanes separating the base alcove from its
    image under w, via an exact count at the point rho_check / h: the sum
    of |<beta, lam> - [x^-1 beta < 0]| over the positive roots beta."""
    if w._len is None:
        w._len = sum(map(abs, map(sub, _pairings(w.rs, w.lam), w.fin.neg_mask())))
    return w._len


def descent_right(w: AffineElt, j: int) -> bool:
    """True iff ell(w s_j) < ell(w), i.e. s_j is a left descent of w^-1."""
    return descent_left(w.inv(), j)


def descent_left(w: AffineElt, j: int) -> bool:
    """True iff ell(s_j w) < ell(w)."""
    rs = w.rs
    neg = w.fin.inv_images()[rs.letter_roots[j]] < 0
    if j == 0:
        c = sum(map(mul, rs.theta, w.lam))
        return c > 1 or (c == 1 and not neg)
    li = w.lam[j - 1]
    return li < 0 or (li == 0 and neg)


def reduced_word_and_tau(w: AffineElt) -> tuple[tuple[int, ...], AffineElt]:
    """Greedy least-left-descent word and the length-zero residual:
    w = s_{j_1} ... s_{j_l} tau with l = ell(w).

    The residual tau is the identity exactly when the translation part lies
    in the coroot lattice; otherwise it is the stabilizer element of w's
    lattice class."""
    n = w.rs.rank
    target = affine_length(w)
    out: list[int] = []
    cur = w
    while len(out) < target:
        j = next((k for k in range(n + 1) if descent_left(cur, k)), None)
        if j is None:
            raise InvariantError("no descent on a length-positive element")
        out.append(j)
        cur = simple_affine(w.rs, j).mul(cur)
    if affine_length(cur) != 0:
        raise InvariantError("peeling left descents left length behind")
    return tuple(out), cur


def tau_word(w: AffineElt) -> tuple[AffineElt, tuple[int, ...]]:
    """(tau, word) with w = tau s_{j_1} ... s_{j_l}, tau of length zero and
    l = ell(w), from the greedy word of w^-1.

    >>> from adlv.rootsys import build_root_system, coweight
    >>> tau, word = tau_word(translation(coweight(build_root_system("A", 2), (1, 0))))
    >>> word, affine_length(tau), tau.lam, tau.fin.to_word()
    ((2, 1), 0, (1, 0), (0, 1))
    """
    word, tau = reduced_word_and_tau(w.inv())
    return tau.inv(), word[::-1]


def lower_union(tops: Sequence[AffineElt],
                budget: int = DEFAULT_INTERVAL_BUDGET) -> frozenset[AffineElt]:
    """All u below some element of ``tops``, which must share one
    length-zero part tau: tau times the union of the intervals [e, v] over
    the words v of ``tau_word``, from ``_interval_engine``; each distinct
    member is decoded and built once.  BudgetError past ``STATE_CAP``
    states, or for a group above the ``enumerate_group`` cap (E7, E8),
    whose finite Weyl group the engine indexes."""
    lw = max(map(affine_length, tops))
    if lw > budget:
        raise BudgetError(
            f"lower interval of an element of length {lw} exceeds the budget "
            f"of {budget}; raise the budget explicitly to proceed"
        )
    eng, states = _interval_engine(tops)
    elements = eng.table.elements
    members = frozenset([_affine(eng.rs, mu, elements[x])
                         for x, mus in eng.decoded(states) for mu in mus])
    if not members.issuperset(tops):
        raise InvariantError("lower interval misses its top element")
    return members


def cocovers_with_reflections(w: AffineElt) -> list[tuple[int, int, AffineElt]]:
    """All Bruhat cocovers of w, as (root index, translation step m, r w)
    where the separating reflection is r = t^{m alpha_check} s_alpha.

    Candidate reflections are exactly those whose hyperplane separates the
    base alcove from w's alcove; their number must equal ell(w), which is
    checked.  Cocovers are the candidates that drop the length by exactly 1.
    With w = t^lam x, a candidate is r w = t^{lam + k alpha_check} s_alpha x,
    k = m - <alpha, lam>: one finite product per root, and a length that is
    one pass over lam's pairings plus k times alpha's column
    ``RootSystem.coroot_columns``, against the descent mask of s_alpha x.
    """
    rs = w.rs
    h, heights = rs.coxeter_number, rs.heights
    lam, x = w.lam, w.fin
    lw = affine_length(w)
    pairs = list(_pairings(rs, lam))
    out = []
    nsep = 0
    for a, (p, img) in enumerate(zip(pairs, x.inv_images())):
        # h * <alpha, w(q)> with q = rho_check/h, by the signed height of
        # x^-1 alpha
        hi = h * p + (heights[img] if img >= 0 else -heights[~img])
        # integers m with m*h strictly between ht(alpha) in (0,h) and hi
        if hi > 0:
            ms = range(1, (hi - 1) // h + 1)
        else:
            ms = range(hi // h + 1, 1)
        if not ms:
            continue
        nsep += len(ms)
        fin = reflection(rs, a).mul(x)
        base, col = list(map(sub, pairs, fin.neg_mask())), rs.coroot_columns[a]
        for m in ms:
            k = m - p
            if sum(map(abs, map(add, base, map(k.__mul__, col)))) == lw - 1:
                coroot = map(k.__mul__, rs.coroot_pairings[a])
                out.append((a, m, _affine(rs, tuple(map(add, lam, coroot)), fin)))
    if nsep != lw:
        raise InvariantError(
            f"separating-hyperplane count {nsep} != length {lw}"
        )
    return out


def cocovers(w: AffineElt) -> list[AffineElt]:
    return [c for (_, _, c) in cocovers_with_reflections(w)]


# -- Demazure products ---------------------------------------------------

def demazure_star(x: AffineElt, y: AffineElt) -> AffineElt:
    """Max-fold product: the longest element of {u v : u <= x, v <= y}."""
    word, tau = reduced_word_and_tau(y)
    cur = x
    for j in word:
        cand = cur.mul(simple_affine(x.rs, j))
        if affine_length(cand) > affine_length(cur):
            cur = cand
    return cur if tau.is_identity() else cur.mul(tau)


def demazure_rtri(x: AffineElt, y: AffineElt) -> AffineElt:
    """Left min-fold x |> y: the unique minimum of {u y : u <= x}."""
    word, tau = reduced_word_and_tau(x)
    cur = y if tau.is_identity() else tau.mul(y)
    for j in reversed(word):
        cand = simple_affine(x.rs, j).mul(cur)
        if affine_length(cand) < affine_length(cur):
            cur = cand
    return cur


def demazure_ltri(x: AffineElt, y: AffineElt) -> AffineElt:
    """Right min-fold x <| y: the unique minimum of {x v : v <= y}."""
    word, tau = reduced_word_and_tau(y)
    cur = x
    for j in word:
        cand = cur.mul(simple_affine(x.rs, j))
        if affine_length(cand) < affine_length(cur):
            cur = cand
    return cur if tau.is_identity() else cur.mul(tau)


# -- interval engine -----------------------------------------------------

def _bit_positions(bits: int):
    """Indices of the set bits of a nonnegative int, ascending."""
    s = bin(bits)[:1:-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


# bitsets up to this rank, frozensets of codes above it: the box, width**rank
# codes per finite index, outgrows the interval as the rank grows, and
# neither kind serves every rank.  One process per run on an x86-64 host,
# Python 3.11, CPU time and peak RSS, equal outputs.  Rank 2: the A2, B2, C2
# and G2 theorem grids take 0.3 s at 18 MB with bitsets, 2.4 s at 50 MB with
# frozensets.  Rank 3: the A3 grid 20-25 s at 73 MB against 35-43 s at
# 290 MB, and Adm(1,1,1) of B3 0.05 against 0.13 s.  Rank 4: Adm(1,1,1,1)
# of A4 takes 4.7 s against 0.55 s, and of D4 45 s against 4.5 s.
DENSE_MAX_RANK = 3


class StateSet:
    """A set of interval states t^mu z, grouped by finite index: ``buckets``
    maps indices z to the codes of their translation parts, as one bitset
    (a dense engine) or a frozenset of ints (a sparse one).  ``zeros``
    counts the letters 0 the states have taken."""

    __slots__ = ("buckets", "zeros")

    def __init__(self, buckets: dict, zeros: int = 0):
        self.buckets = buckets
        self.zeros = zeros

    def __len__(self) -> int:
        bs = self.buckets.values()
        return sum(b.bit_count() if isinstance(b, int) else len(b) for b in bs)

    def __or__(self, other: "StateSet") -> "StateSet":
        """Bucketwise union (an OR of bitsets, a union of frozensets),
        counting the larger number of letters 0."""
        out = dict(self.buckets)
        for x, b in other.buckets.items():
            out[x] = out[x] | b if x in out else b
        return StateSet(out, max(self.zeros, other.zeros))

    def __sub__(self, other: "StateSet") -> "StateSet":
        out = {}
        for x, b in self.buckets.items():
            c = other.buckets.get(x)
            out[x] = b if c is None else b & ~c if isinstance(b, int) else b - c
        return StateSet(out, self.zeros)


class IntervalEngine:
    """Subword dynamic programming from ``start`` (the identity by default)
    over state sets grouped by finite index, sized for the word ``word``.

    A state is t^mu z, z indexed in a GroupTable.  A letter j >= 1 merges
    bucket z into bucket z s_j; the letter 0 translates bucket z by
    delta[z] = z(theta_check) into bucket z s_theta.  Only letters 0 move
    mu, so after at most ``zeros`` of them (the word's count) every mu lies
    in the box lo <= mu <= hi, lo_k = start_k + zeros min(0, min_z
    delta[z][k]) and hi_k likewise with max.  A bucket holds the codes
    sum (mu_k - lo_k) places_k (a mixed radix, one width per coordinate):
    up to rank DENSE_MAX_RANK as the bits of one int, above it as a
    frozenset.  A translation adds offset[z] = sum delta[z][k] places_k to
    each code (one shift for a bitset) and inside the box never carries;
    ``step`` refuses a letter 0 past ``zeros``, the only way out of it.

    >>> from adlv.rootsys import build_root_system, coweight
    >>> rs = build_root_system("A", 2)
    >>> tau, word = tau_word(translation(coweight(rs, (1, 0))))
    >>> eng = IntervalEngine(enumerate_group(rs), word, tau)
    >>> eng.lo, eng.hi, len(eng.interval_states(word))
    ((1, 0), (1, 0), 4)
    >>> eng = IntervalEngine(enumerate_group(rs), word + (0,), tau)
    >>> eng.lo, eng.hi, eng.widths
    ((-1, -2), (3, 2), (5, 5))
    """

    def __init__(self, table: GroupTable, word: Sequence[int],
                 start: AffineElt | None = None):
        self.table = table
        self.rs = rs = table.rs
        self.start = start or embed(identity_elt(rs))
        self.zeros = zeros = word.count(0)
        self.rmult_stheta = table.rmult_root(rs.theta_index)
        # x(theta_check) is the coroot of x(theta), read from the root
        # images of x^-1 as a signed root index
        cps, imgs, th = rs.coroot_pairings, table.inv_images(), rs.theta_index
        self.delta = [cps[imgs[table.inv_idx(x)][th]] for x in range(len(table))]
        cols = list(zip(*self.delta))
        self.lo = tuple([s + zeros * min(0, *c) for s, c in zip(self.start.lam, cols)])
        self.hi = tuple([s + zeros * max(0, *c) for s, c in zip(self.start.lam, cols)])
        self.widths = tuple([h - l + 1 for l, h in zip(self.lo, self.hi)])
        self.places = [prod(self.widths[:k]) for k in range(rs.rank)]
        self.offset = [sum(map(mul, dv, self.places)) for dv in self.delta]
        self.size = len(table) * prod(self.widths)  # the states the box holds
        self.dense = rs.rank <= DENSE_MAX_RANK
        self.codes = _bit_positions if self.dense else iter  # a bucket's codes

    def pack(self, mu: Sequence[int]) -> int:
        if not all(l <= c <= h for l, c, h in zip(self.lo, mu, self.hi)):
            raise InvariantError("interval state out of the coweight box")
        return sum(map(mul, map(sub, mu, self.lo), self.places))

    def unpack(self, code: int) -> tuple[int, ...]:
        return tuple([code // p % w + l
                      for p, w, l in zip(self.places, self.widths, self.lo)])

    def decoded(self, states: StateSet):
        """Per bucket: its finite index and an iterator over its translation parts."""
        for x, b in states.buckets.items():
            yield x, map(self.unpack, self.codes(b))

    def _translate(self, x: int, b):
        """Bucket b of index x translated by delta[x]."""
        off = self.offset[x]
        if not self.dense:
            return frozenset(map(off.__add__, b))
        return b << off if off >= 0 else b >> -off

    def step(self, states: StateSet, j: int) -> StateSet:
        zeros = states.zeros
        if j:
            r = self.table.rmult[j - 1]
        elif zeros < self.zeros:
            r, zeros = self.rmult_stheta, zeros + 1
        else:
            raise InvariantError(f"letter 0 past the {self.zeros} the box is sized for")
        out = dict(states.buckets)
        for x, b in states.buckets.items():
            y, b = r[x], b if j else self._translate(x, b)
            out[y] = out[y] | b if y in out else b
        return StateSet(out, zeros)

    def _bounded(self, states: StateSet) -> StateSet:
        """states, or BudgetError if they number more than ``STATE_CAP``;
        counted only when the box can hold that many."""
        if self.size > STATE_CAP and len(states) > STATE_CAP:
            raise BudgetError(f"interval grew past {STATE_CAP} states")
        return states

    def interval_states(self, word: Sequence[int]) -> StateSet:
        """start times each subword of word, bounded by ``STATE_CAP``."""
        code = self.pack(self.start.lam)
        seed = 1 << code if self.dense else frozenset([code])
        states = StateSet({self.table.idx(self.start.fin): seed})
        for j in word:
            states = self._bounded(self.step(states, j))
        return states


def _interval_engine(tops: Sequence[AffineElt]) -> tuple[IntervalEngine, StateSet]:
    """One ``IntervalEngine`` started at the length-zero part tau that
    ``tops`` share, its box sized for the word with the most letters 0, and
    the union, bucket by bucket, of the state sets of their words
    (``tau_word``): tau times the intervals [e, v].  Each state set and the
    union are bounded by ``STATE_CAP``."""
    rs = tops[0].rs
    tws = [tau_word(w) for w in tops]
    tau = tws[0][0]
    if any(t.rs is not rs or t != tau for t, _ in tws):
        raise RefusalError("tops must share a root system and a length-zero part")
    words = [word for _, word in tws]
    eng = IntervalEngine(enumerate_group(rs), max(words, key=lambda v: v.count(0)), tau)
    return eng, reduce(lambda a, b: eng._bounded(a | b), map(eng.interval_states, words))
