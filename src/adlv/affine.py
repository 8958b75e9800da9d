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
from the finite part's row of root images ``WeylElt.imgs`` (lengths
through its 0/1 form ``WeylElt.neg_mask``), and products of finite parts
compose rows through ``WeylElt.mul``, in every group alike: nothing here
reads or builds a ``GroupTable`` outside the interval engine.  Translation
parts move by ``WeylElt.act_pairing``, on the roots x^-1(alpha_k) cached
on the finite part.  The descent peel behind ``tau_word`` walks raw parts,
a translation tuple and a row, and builds only what is left.  Products,
inverses, cocover candidates, interval members and the peel's rest are
built by ``_affine``, which skips the refusals of the public constructor:
their parts come from elements that passed them.

Lower intervals, and their unions over tops that share tau (admissible
sets), come from one ``IntervalEngine`` started at tau: its subword dynamic
program runs along the reduced word of each top w = tau s_{j_1} ... s_{j_l}
(``tau_word``; left multiplication by a length-zero tau preserves the
Bruhat order), and the state sets merge bucket by bucket.  Every interval,
Newton maxima's included, is set up by ``_interval_engine`` and refused
past ``STATE_CAP`` states, its one bound; ``interval_budget`` is the one
rule of the length budget on admissible sets.  Cocovers come from
enumerating separating reflections, and the three Demazure products from
folding ``tau_word``.

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
from re import finditer
from typing import Sequence

from .errors import BudgetError, InvariantError, RefusalError
from .rootsys import Coweight, RootSystem, _rank_vector
from .weyl import (
    GroupTable,
    WeylElt,
    _reflection_by_index,
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
    "tau_word",
    "interval_budget",
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


def interval_budget(budget: int | None) -> int:
    """A length budget: ``budget``, or ``DEFAULT_INTERVAL_BUDGET`` read now
    when it is None; RefusalError unless that is an int (not a bool) >= 1."""
    budget = DEFAULT_INTERVAL_BUDGET if budget is None else budget
    if type(budget) is not int or budget < 1:
        raise RefusalError(f"a length budget must be an int >= 1, not {budget!r}")
    return budget


class AffineElt:
    """t^lam * fin, with lam given in integer pairing coordinates."""

    __slots__ = ("rs", "lam", "fin", "_len", "_hash", "_omega")

    def __init__(self, rs: RootSystem, lam: Sequence[int], fin: WeylElt):
        lam = _rank_vector(rs, lam, "translation")
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
        # the finite part's hash is its cached hash of its row, so this
        # is hash((lam, fin.imgs)) without hashing the row again
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


@lru_cache(maxsize=None, typed=True)  # typed: True is not the cached s_1
def simple_affine(rs: RootSystem, j: int) -> AffineElt:
    """The affine generator s_0 = t^{theta_check} s_theta, or s_j for j >= 1;
    RefusalError unless j is an int (not a bool) in 0..rank."""
    _require_letters(rs, (j,))
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
    """True iff ell(w s_j) < ell(w), i.e. s_j is a left descent of w^-1;
    refuses j as ``descent_left`` does."""
    return descent_left(w.inv(), j)


def descent_left(w: AffineElt, j: int) -> bool:
    """True iff ell(s_j w) < ell(w); RefusalError unless j is an int (not
    a bool) in 0..rank."""
    _require_letters(w.rs, (j,))
    return _descent_left(w.rs, w.lam, w.fin.imgs, j)


def _descent_left(rs: RootSystem, lam: tuple, row: tuple, j: int) -> bool:
    """``descent_left`` of t^lam x, x given by its row, for a letter j
    already known to be in 0..rank."""
    neg = row[rs.letter_roots[j]] < 0
    if j == 0:
        c = sum(map(mul, rs.theta, lam))
        return c > 1 or (c == 1 and not neg)
    li = lam[j - 1]
    return li < 0 or (li == 0 and neg)


def _peel(w: AffineElt, letters: range) -> tuple[list[int], AffineElt]:
    """(word, rest) with w = s_{j_1} ... s_{j_k} rest: each j_i the least
    left descent among ``letters`` of what is left, peeled at most ell(w)
    times, so k < ell(w) only where rest has no descent among them.  What
    is left is walked as its translation part and row, and built once: s_j
    = t^{[j = 0] beta_check} s_beta, beta = theta or alpha_j, sends lam to
    lam + ([j = 0] - <beta, lam>) beta_check (whose pairings, for j >= 1,
    are row j - 1 of the Cartan matrix) and the row to beta's reflection
    row composed with it."""
    rs, word, lam, row = w.rs, [], w.lam, w.fin.imgs
    for _ in range(affine_length(w)):
        j = next((k for k in letters if _descent_left(rs, lam, row, k)), None)
        if j is None:
            break
        word.append(j)
        b = rs.letter_roots[j]
        c = (j == 0) - sum(map(mul, rs.positive_roots[b], lam))
        lam = tuple([a + c * e for a, e in zip(lam, rs.coroot_pairings[b])])
        row = tuple([row[e] if e >= 0 else ~row[~e] for e in rs.reflection_rows[b]])
    return word, _affine(rs, lam, WeylElt(rs, row))


def tau_word(w: AffineElt) -> tuple[AffineElt, tuple[int, ...]]:
    """(tau, word) with w = tau s_{j_1} ... s_{j_l}, tau of length zero and
    l = ell(w), from the least-left-descent peel of w^-1.  tau is the
    identity exactly when the translation part lies in the coroot lattice;
    otherwise it is the stabilizer element of w's lattice class.

    >>> from adlv.rootsys import build_root_system, coweight
    >>> tau, word = tau_word(translation(coweight(build_root_system("A", 2), (1, 0))))
    >>> word, affine_length(tau), tau.lam, tau.fin.to_word()
    ((2, 1), 0, (1, 0), (0, 1))
    """
    word, rest = _peel(w.inv(), range(w.rs.rank + 1))
    if len(word) < affine_length(w):  # = ell(w^-1), the peel's bound
        raise InvariantError("no descent on a length-positive element")
    if affine_length(rest) != 0:
        raise InvariantError("peeling left descents left length behind")
    return rest.inv(), tuple(word[::-1])


def lower_union(tops: Sequence[AffineElt]) -> frozenset[AffineElt]:
    """All u below some element of ``tops``, which must share one
    length-zero part tau: tau times the union of the intervals [e, v] over
    the words v of ``tau_word``, from ``_interval_engine``; each distinct
    member is decoded and built once.  BudgetError past ``STATE_CAP``
    states, or for a group above the ``enumerate_group`` cap (E7, E8),
    whose finite Weyl group the engine indexes."""
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
    for a, (p, img) in enumerate(zip(pairs, x.imgs)):
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
        fin = _reflection_by_index(rs, a).mul(x)  # a is in range: no index check
        base = [q - 1 if c < 0 else q for q, c in zip(pairs, fin.imgs)]
        col = rs.coroot_columns[a]
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

def _right_fold(x: AffineElt, y: AffineElt, longer: bool) -> AffineElt:
    """x times y = tau v (``tau_word``), folded from x tau (a length-zero tau
    keeps length and Bruhat order): each letter of v taken exactly when it
    makes the product longer (``longer``), or else shorter."""
    tau, word = tau_word(y)
    cur = x.mul(tau)
    for j in word:
        cand = cur.mul(simple_affine(x.rs, j))
        if (affine_length(cand) > affine_length(cur)) == longer:
            cur = cand
    return cur


def demazure_star(x: AffineElt, y: AffineElt) -> AffineElt:
    """Max-fold product: the longest element of {u v : u <= x, v <= y}."""
    return _right_fold(x, y, True)


def demazure_rtri(x: AffineElt, y: AffineElt) -> AffineElt:
    """Left min-fold x |> y: the unique minimum of {u y : u <= x}.  With
    x = tau v (``tau_word``) it is tau (v |> y), v folded on the left of y
    from its last letter."""
    tau, word = tau_word(x)
    cur = y
    for j in reversed(word):
        cand = simple_affine(x.rs, j).mul(cur)
        if affine_length(cand) < affine_length(cur):
            cur = cand
    return tau.mul(cur)


def demazure_ltri(x: AffineElt, y: AffineElt) -> AffineElt:
    """Right min-fold x <| y: the unique minimum of {x v : v <= y}."""
    return _right_fold(x, y, False)


# -- interval engine -----------------------------------------------------

def _corners(bits: int, width: int, plane: int) -> set[int]:
    """The set bits that are vertices of their plane's hull, in a box of
    planes of ``plane`` bits and lines of ``width``: the ends (lowest and
    highest set bit) of a plane's lines on its left or right convex chain.
    A vertex of the hull of all set bits is one of its plane's."""
    k = max((bits & -bits).bit_length() - 1, 0) // plane * plane  # skip empty low planes
    s, out = bin(bits >> k)[:1:-1], set()
    i = s.find("1")
    while i >= 0:
        stop, left, right = i - i % plane + plane, [], []
        while 0 <= i < stop:
            end = i - i % width + width
            left.append(i + k)
            right.append(s.rfind("1", i, end) + k)
            i = s.find("1", end)
        out.update(_chain(left, width, 1), _chain(right, width, -1))
    return out


def _chain(ends: list[int], width: int, sign: int) -> list[int]:
    """The codes among ``ends``, one per line and ascending, on their left
    convex chain (least place in the line) for sign 1, right one for -1."""
    hull: list[tuple[int, int, int]] = []
    for c in ends:
        r, x = divmod(c, width)
        while len(hull) > 1:
            (ra, xa, _), (rb, xb, _) = hull[-2], hull[-1]
            if sign * ((xb - xa) * (r - ra) - (x - xa) * (rb - ra)) < 0:
                break
            hull.pop()
        hull.append((r, x, c))
    return [c for _, _, c in hull]


# bitsets up to this rank, frozensets of codes above it: the box, width**rank
# codes per finite index, outgrows the interval as the rank grows, and
# neither kind serves every rank.  One process per run on an x86-64 host,
# Python 3.11, CPU time and peak RSS, equal outputs.  Rank 2: the A2, B2, C2
# and G2 theorem grids take 0.2 s at 16 MB with bitsets, 2.8 s at 56 MB with
# frozensets.  Rank 3: the A3 grid 3.4-5.1 s at 55 MB against 51 s at 340 MB,
# and Adm(1,1,1) of B3 0.05 against 0.13 s.  Rank 4: Adm(1,1,1,1) of A4
# takes 4.7 s against 0.55 s, and of D4 45 s against 4.5 s.
DENSE_MAX_RANK = 3


class StateSet:
    """A set of interval states t^mu z, grouped by finite index: ``buckets``
    maps indices z to the codes of their translation parts, as one bitset
    (a dense engine) or a frozenset of ints (a sparse one).  ``zeros``
    counts the letters 0 the states have taken, and ``bound`` is at least
    their number: exact after a count, doubled by a step (each state stays
    or moves) and summed by a union."""

    __slots__ = ("buckets", "zeros", "bound")

    def __init__(self, buckets: dict, zeros: int, bound: int):
        self.buckets = buckets
        self.zeros = zeros
        self.bound = bound

    def __len__(self) -> int:
        bs = self.buckets.values()
        return sum(b.bit_count() if isinstance(b, int) else len(b) for b in bs)

    def __or__(self, other: "StateSet") -> "StateSet":
        """Bucketwise union (an OR of bitsets, a union of frozensets),
        counting the larger number of letters 0."""
        out = dict(self.buckets)
        for x, b in other.buckets.items():
            out[x] = out[x] | b if x in out else b
        return StateSet(out, max(self.zeros, other.zeros), self.bound + other.bound)


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
        _require_letters(rs, word)
        self._start = start or embed(identity_elt(rs))
        self.zeros = zeros = word.count(0)
        self._rmult_stheta = table.rmult_root(rs.theta_index)
        # x(theta_check) is the coroot of x(theta), read from the root
        # images of x^-1 as a signed root index
        cps, imgs, th = rs.coroot_pairings, table.inv_images(), rs.theta_index
        self._delta = [cps[imgs[table.inv_idx(x)][th]] for x in range(len(table))]
        cols = list(zip(*self._delta))
        self.lo = tuple([s + zeros * min(0, *c) for s, c in zip(self._start.lam, cols)])
        self.hi = tuple([s + zeros * max(0, *c) for s, c in zip(self._start.lam, cols)])
        self.widths = tuple([h - l + 1 for l, h in zip(self.lo, self.hi)])
        self.places = [prod(self.widths[:k]) for k in range(rs.rank)]
        self._offset = [sum(map(mul, dv, self.places)) for dv in self._delta]
        self._size = len(table) * prod(self.widths)  # the states the box holds
        self._dense = rs.rank <= DENSE_MAX_RANK

    def pack(self, mu: Sequence[int]) -> int:
        if not all(l <= c <= h for l, c, h in zip(self.lo, mu, self.hi)):
            raise InvariantError("interval state out of the coweight box")
        return sum(map(mul, map(sub, mu, self.lo), self.places))

    def unpack(self, code: int) -> tuple[int, ...]:
        return tuple([code // p % w + l
                      for p, w, l in zip(self.places, self.widths, self.lo)])

    def corners(self, b):
        """Codes of bucket b among which are its hull's extreme points: of a
        bitset, its planes' hull vertices (the first two coordinates free,
        ``_corners``); of a frozenset, every code."""
        return _corners(b, self.widths[0], prod(self.widths[:2])) if self._dense else b

    def decoded(self, states: StateSet):
        """Per bucket: its finite index and an iterator over its translation parts."""
        for x, b in states.buckets.items():
            codes = (m.start() for m in finditer("1", bin(b)[:1:-1])) if self._dense else b
            yield x, map(self.unpack, codes)

    def _translate(self, x: int, b):
        """Bucket b of index x translated by delta[x]."""
        off = self._offset[x]
        if not self._dense:
            return frozenset(map(off.__add__, b))
        return b << off if off >= 0 else b >> -off

    def step(self, states: StateSet, j: int) -> StateSet:
        zeros = states.zeros
        if j:
            r = self.table.rmult[j - 1]
        elif zeros < self.zeros:
            r, zeros = self._rmult_stheta, zeros + 1
        else:
            raise InvariantError(f"letter 0 past the {self.zeros} the box is sized for")
        out = dict(states.buckets)
        for x, b in states.buckets.items():
            y, b = r[x], b if j else self._translate(x, b)
            out[y] = out[y] | b if y in out else b
        return StateSet(out, zeros, 2 * states.bound)

    def _bounded(self, states: StateSet) -> StateSet:
        """states, or BudgetError if they number more than ``STATE_CAP``;
        counted only when the box and their bound can hold that many."""
        if self._size > STATE_CAP and states.bound > STATE_CAP:
            states.bound = len(states)
            if states.bound > STATE_CAP:
                raise BudgetError(f"interval grew past {STATE_CAP} states")
        return states

    def interval_states(self, word: Sequence[int]) -> StateSet:
        """start times each subword of word, bounded by ``STATE_CAP``; like
        the constructor, and unlike ``step``, it refuses bad letters."""
        _require_letters(self.rs, word)
        code = self.pack(self._start.lam)
        seed = 1 << code if self._dense else frozenset([code])
        states = StateSet({self.table.idx(self._start.fin): seed}, 0, 1)
        for j in word:
            states = self._bounded(self.step(states, j))
        return states


def _require_letters(rs: RootSystem, word: Sequence[int]) -> None:
    """RefusalError unless every letter is an int (not a bool) in 0..rank."""
    if not all(type(j) is int and 0 <= j <= rs.rank for j in word):
        raise RefusalError(f"letters must be ints in 0..{rs.rank}, got {tuple(word)}")


def _interval_engine(tops: Sequence[AffineElt]) -> tuple[IntervalEngine, StateSet]:
    """One ``IntervalEngine`` started at the length-zero part tau that
    ``tops`` share, its box sized for the word with the most letters 0, and
    the union, bucket by bucket, of the state sets of their words
    (``tau_word``): tau times the intervals [e, v].  Each state set and the
    union are bounded by ``STATE_CAP``."""
    if not tops:
        raise RefusalError("a lower interval needs at least one top")
    rs = tops[0].rs
    tws = [tau_word(w) for w in tops]
    tau = tws[0][0]
    if any(t.rs is not rs or t != tau for t, _ in tws):
        raise RefusalError("tops must share a root system and a length-zero part")
    words = [word for _, word in tws]
    eng = IntervalEngine(enumerate_group(rs), max(words, key=lambda v: v.count(0)), tau)
    return eng, reduce(lambda a, b: eng._bounded(a | b), map(eng.interval_states, words))
