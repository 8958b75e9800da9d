"""Finite Weyl group elements as signed root permutations.

An element x is the row ``imgs`` of x^-1(beta) over the positive roots
beta, each a signed root index: c for the c-th positive root, ~c for its
negative.  It is the row ``GroupTable.inv_images`` stores, and all the
arithmetic runs on it: a product composes two rows
((xy)^-1 beta = y^-1(x^-1 beta)), an inverse inverts the permutation, the
length counts negative entries, a left descent is one entry and a right
descent one scan.  The pairing action reads the roots x^-1(alpha_k), the
rho_check key of a table index the positions of +-alpha_j in the row, and
the reflection length (the rank of x - 1) the forward images x(alpha_j).
A reflection's row is ``RootSystem.reflection_rows``.

Products and inverses always compose and invert rows, whether or not W has
a cached ``GroupTable`` (only ``enumerate_group`` builds one; E7 and E8 have
none); code holding table indices multiplies them by ``prod_idx`` and reads
``elements``, which cache their lengths, pairing roots and descent masks
once per index.  A table element and its row are built on first access,
from its word-prefix parent, so building a table (and the quantum Bruhat
graph on it) builds no table element; a reflection's table conjugates a
lower one's by a simple reflection.  Whatever is derived from a table (the
quantum Bruhat graph, the Newton averaging sums, dp, ell_red) is kept on
that table by ``per_table``, so it lives exactly as long as the table's
cache entry.  ``enumerate_group`` refuses a group above ``GROUP_CAP``
elements.

>>> from adlv.rootsys import build_root_system
>>> rs = build_root_system("A", 2)
>>> w0 = longest_element(rs)
>>> w0.length(), reflection_length(w0)
(3, 1)
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from ._matrix import mat_rank
from .errors import BudgetError, InvariantError, RefusalError
from .rootsys import RootSystem, WEYL_ORDER

__all__ = [
    "WeylElt",
    "GroupTable",
    "identity_elt",
    "simple_reflection",
    "reflection",
    "longest_element",
    "reflection_length",
    "enumerate_group",
    "per_table",
    "word_str",
    "GROUP_CAP",
]

# the largest group order ``enumerate_group`` tables
GROUP_CAP = 10**6


class WeylElt:
    """A finite Weyl group element; build via the module constructors."""

    __slots__ = ("rs", "imgs", "_len", "_hash", "_idx", "_cols", "_mask")

    def __init__(self, rs: RootSystem, imgs: tuple[int, ...]):
        self.rs = rs
        self.imgs = imgs  # x^-1(beta) per positive root beta, signed index
        self._len = None
        self._hash = None
        self._idx = None  # table index: the same in every table of rs
        self._cols = None  # root coordinates of x^-1(alpha_k), for act_pairing
        self._mask = None  # neg_mask()

    # -- group operations -------------------------------------------------

    def mul(self, other: "WeylElt") -> "WeylElt":
        rs = self.rs
        if rs is not other.rs:
            raise RefusalError("product of elements of different root systems")
        # (xy)^-1 beta = y^-1(x^-1 beta)
        o = other.imgs
        return WeylElt(rs, tuple([o[c] if c >= 0 else ~o[~c] for c in self.imgs]))

    def inv(self) -> "WeylElt":
        return WeylElt(self.rs, _inverse(self.imgs))

    # -- actions ----------------------------------------------------------

    def neg_mask(self) -> tuple[int, ...]:
        """1 where x^-1(beta) < 0 and 0 where it is positive, over the
        positive roots beta (cached on the element)."""
        if self._mask is None:
            self._mask = tuple([1 if c < 0 else 0 for c in self.imgs])
        return self._mask

    def act_pairing(self, p: Sequence) -> tuple:
        # <alpha_k, w lambda> = <w^-1 alpha_k, lambda>.  The root
        # coordinates of w^-1 alpha_k are cached on the element, so a table
        # element reads them once per index.
        cols = self._cols
        if cols is None:
            roots, imgs = self.rs.signed_roots, self.imgs
            cols = self._cols = tuple([roots[imgs[a]] for a in self.rs.letter_roots[1:]])
        return tuple([sum(map(mul, col, p)) for col in cols])

    # -- length and descents ----------------------------------------------

    def length(self) -> int:
        if self._len is None:
            self._len = len([c for c in self.imgs if c < 0])
        return self._len

    def is_identity(self) -> bool:
        return not self.length()

    def descent_right(self, i: int) -> bool:
        """ell(w s_i) < ell(w), i.e. w(alpha_i) < 0 (i is 0-based): some
        positive root has image -alpha_i under w^-1.  RefusalError unless
        i is an int (not a bool) in 0..rank-1."""
        return ~_simple_root(self.rs, i) in self.imgs

    def descent_left(self, i: int) -> bool:
        """ell(s_i w) < ell(w), i.e. w^-1(alpha_i) < 0; refuses i as
        ``descent_right`` does."""
        return self.imgs[_simple_root(self.rs, i)] < 0

    def to_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word (0-based generator indices)."""
        w = self
        out: list[int] = []
        n = self.rs.rank
        while True:
            i = next((k for k in range(n) if w.descent_left(k)), None)
            if i is None:
                if not w.is_identity():
                    raise InvariantError("descents ran out off the identity")
                return tuple(out)
            out.append(i)
            w = simple_reflection(self.rs, i).mul(w)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElt) and self.imgs == other.imgs
                and self.rs is other.rs)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.imgs)
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = self.to_word()
        return "WeylElt(e)" if not w else f"WeylElt({word_str(w)})"


def _inverse(imgs: tuple[int, ...]) -> tuple[int, ...]:
    """The row of x from the row of x^-1: x^-1(beta_c) = +-beta_s means
    x(beta_s) = +-beta_c."""
    out = [0] * len(imgs)
    for c, s in enumerate(imgs):
        if s < 0:
            out[~s] = ~c
        else:
            out[s] = c
    return tuple(out)


def _rho_key(rs: RootSystem, imgs: tuple[int, ...]) -> tuple[int, ...]:
    """ht(x alpha_j) over the simple roots, the rho_check key of x, from its
    row: x^-1(beta_s) = +-alpha_j at one position s, so x(alpha_j) = +-beta_s."""
    h = rs.heights
    return tuple([h[imgs.index(a)] if a in imgs else -h[imgs.index(~a)]
                  for a in rs.letter_roots[1:]])


def word_str(word: Iterable[int]) -> str:
    """Human form of a finite word, in 1-based Bourbaki labels."""
    seq = list(word)
    if not seq:
        return "e"
    return "".join(f"s{i + 1}" for i in seq)


@lru_cache(maxsize=None)
def identity_elt(rs: RootSystem) -> WeylElt:
    return WeylElt(rs, tuple(range(len(rs.positive_roots))))


@lru_cache(maxsize=None, typed=True)  # typed: True is not the cached s_1
def simple_reflection(rs: RootSystem, i: int) -> WeylElt:
    """s_i for 0-based simple index i; RefusalError unless i is an int (not
    a bool) in 0..rank-1."""
    return _reflection_by_index(rs, _simple_root(rs, i))


def _simple_root(rs: RootSystem, i) -> int:
    """The positive root index of alpha_{i+1}; RefusalError unless i is an
    int (not a bool) in 0..rank-1."""
    if type(i) is not int or not 0 <= i < rs.rank:
        raise RefusalError(f"simple indices are ints in 0..{rs.rank - 1}, not {i!r}")
    return rs.letter_roots[i + 1]


def reflection(rs: RootSystem, root) -> WeylElt:
    """s_beta for a positive root, given by its index or its coefficients;
    RefusalError for an index that is not an int (not a bool) in range, or
    a vector that is not a positive root as a tuple or list of ints (no bools)."""
    vector = isinstance(root, (tuple, list)) and {int}.issuperset(map(type, root))
    a = rs.root_index.get(tuple(root)) if vector else root
    if type(a) is not int or not 0 <= a < len(rs.positive_roots):
        raise RefusalError(f"{root!r} is neither a positive root nor its index")
    return _reflection_by_index(rs, a)


@lru_cache(maxsize=None)
def _reflection_by_index(rs: RootSystem, a: int) -> WeylElt:
    """s_beta from its row of root images; s_beta is an involution, so
    they are also the images under its inverse."""
    return WeylElt(rs, rs.reflection_rows[a])


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElt:
    w = identity_elt(rs)
    n = rs.rank
    while True:
        i = next((k for k in range(n) if not w.descent_right(k)), None)
        if i is None:
            if w.length() != len(rs.positive_roots):
                raise InvariantError("ascents ran out below w0")
            return w
        w = w.mul(simple_reflection(rs, i))


def reflection_length(x: WeylElt) -> int:
    """Least number of reflections multiplying to x: the rank of (x - 1) on
    the reflection representation (the same on root and coroot
    coordinates).  Row j of its transpose is x(alpha_j) - alpha_j."""
    rs, fwd = x.rs, _inverse(x.imgs)
    return mat_rank([
        [c - (k == j) for k, c in enumerate(rs.signed_roots[fwd[a]])]
        for j, a in enumerate(rs.letter_roots[1:])
    ])


class GroupTable:
    """Breadth-first enumeration of a finite Weyl group.

    Elements are indexed 0..|W|-1 ordered by (length, lexicographic reduced
    word); index 0 is the identity and index |W|-1 the longest element.
    The search runs over the orbit of rho_check: x is keyed by the pairing
    coordinates of x^-1 rho_check, so x s_i is one reflection of the key and
    a right descent is a negative key entry.  ``rmult[i][a]`` is the index
    of ``elements[a] * s_i``; ``prod_idx`` and ``inv_idx`` fold ``rmult``
    along ``words``, and ``rmult_root`` conjugates a lower root's table by
    one simple reflection.  ``root_of_reflection`` maps the index of a
    reflection to its positive root index.  The build records only
    this index data: each element's row of root images (``inv_images``)
    and the element holding it are built on first access (see
    ``_Elements``), and so are reflection-multiplication tables and what
    other modules derive from the table (``per_table``).
    """

    def __init__(self, rs: RootSystem):
        order = WEYL_ORDER(rs.cartan_type, rs.rank)
        self.rs = rs
        n = rs.rank
        C = rs.cartan
        words: list[tuple[int, ...]] = [()]
        # key of x: <alpha_j, x^-1 rho_check> = ht(x alpha_j) for each j
        index: dict = {(1,) * n: 0}
        rmult: list[list[int]] = [[-1] * order for _ in range(n)]
        layer = list(index.items())
        while layer:
            nxt: list[tuple[tuple[int, ...], int]] = []
            for p, a in layer:
                for i in range(n):
                    pi = p[i]
                    if pi < 0:
                        continue
                    Ci = C[i]
                    q = tuple([a - c * pi for a, c in zip(p, Ci)])
                    b = index.get(q)
                    if b is None:
                        b = index[q] = len(words)
                        words.append(words[a] + (i,))
                        nxt.append((q, b))
                    rmult[i][a] = b
                    rmult[i][b] = a
            layer = nxt
        if len(words) != order:
            raise InvariantError(f"BFS found {len(words)} of {order}")
        self.elements = _Elements(rs, words, rmult, index)
        self.words = words
        self._index = index
        self.lengths = [len(w) for w in words]
        self.rmult = rmult
        # the key of s_beta: ht(alpha_j - <alpha_j, beta_check> beta)
        self._reflections = [
            index[tuple([1 - p * h for p in rs.coroot_pairings[a]])]
            for a, h in enumerate(rs.heights)
        ]
        self.root_of_reflection = {r: a for a, r in enumerate(self._reflections)}
        self._refl_mult: dict[int, list[int]] = {}
        self._inv_images: list[tuple[int, ...]] | None = None
        self._derived: dict = {}  # per_table: build -> build(self)
        self.w0_idx = order - 1

    def __len__(self) -> int:
        return len(self.elements)

    def idx(self, x: WeylElt) -> int:
        if x.rs is not self.rs:
            raise RefusalError("element and table of different root systems")
        a = x._idx
        if a is None:
            a = x._idx = self._index[_rho_key(self.rs, x.imgs)]
        return a

    def inv_idx(self, a: int) -> int:
        v = 0
        for i in reversed(self.words[a]):
            v = self.rmult[i][v]
        return v

    def prod_idx(self, a: int, b: int) -> int:
        rmult = self.rmult
        for i in self.words[b]:
            a = rmult[i][a]
        return a

    def ltri_idx(self, a: int, b: int) -> int:
        """Index of the right min-fold x <| y = min{x v : v <= y}, for
        x, y at indices a, b: fold a reduced word of y into x, keeping
        each letter only when it lowers the length."""
        rmult, lengths = self.rmult, self.lengths
        for i in self.words[b]:
            c = rmult[i][a]
            if lengths[c] < lengths[a]:
                a = c
        return a

    def rmult_root(self, root_idx: int) -> list[int]:
        """Table of right multiplication by s_beta, shared and read-only:
        ``rmult[i]`` for beta = alpha_{i+1}, else s_i s_gamma s_i for the
        first simple s_i taking beta to a lower root gamma (Humphreys,
        *Reflection Groups and Coxeter Groups*, 1.2).  RefusalError unless
        root_idx is an int (not a bool) in 0..|Phi+|-1."""
        rs, top = self.rs, len(self.rs.heights) - 1
        if type(root_idx) is not int or not 0 <= root_idx <= top:
            raise RefusalError(f"root indices are ints in 0..{top}, not {root_idx!r}")
        tab = self._refl_mult.get(root_idx)
        if tab is None:  # the first s_i negating beta (beta = alpha_i) or lowering it
            h, rows = rs.heights[root_idx], rs.reflection_rows
            i, g = next((i, g) for i, s in enumerate(rs.letter_roots[1:])
                        if (g := rows[s][root_idx]) < 0 or rs.heights[g] < h)
            tab = self.rmult[i]
            if g >= 0:  # x s_beta = ((x s_i) s_gamma) s_i
                tab = list(map(tab.__getitem__, map(self.rmult_root(g).__getitem__, tab)))
            if tab[0] != self._reflections[root_idx]:
                raise InvariantError("a reflection table does not send e to s_beta")
            self._refl_mult[root_idx] = tab
        return tab

    def inv_images(self) -> list[tuple[int, ...]]:
        """Per index, the row ``imgs`` of its element: the signed root
        indices of x^-1(beta) over the positive roots beta."""
        if self._inv_images is None:
            elements = self.elements
            for a in range(len(elements)):
                elements._row(a)
            self._inv_images = elements._rows
        return self._inv_images


class _Elements(Sequence):
    """A table's elements in index order, each built on first access from
    its row (``_row``), checking that the row keys to its own index."""

    def __init__(self, rs: RootSystem, words, rmult, index):
        self._rs, self._words, self._rmult, self._index = rs, words, rmult, index
        e = identity_elt(rs)
        e._idx, e._len = 0, 0
        self._slots: list[WeylElt | None] = [e] + [None] * (len(words) - 1)
        self._rows: list = [e.imgs] + [None] * (len(words) - 1)
        self._perms = [simple_reflection(rs, i).imgs for i in range(rs.rank)]  # s_i's rows

    def __len__(self) -> int:
        return len(self._slots)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def __getitem__(self, a):
        if isinstance(a, slice):
            return [self[b] for b in range(len(self))[a]]
        x = self._slots[a]
        if x is not None:
            return x
        a = range(len(self))[a]
        x = WeylElt(self._rs, self._row(a))
        if self._index.get(_rho_key(self._rs, x.imgs)) != a:
            raise InvariantError("table element's row keys to another index")
        x._idx, x._len = a, len(self._words[a])
        self._slots[a] = x
        return x

    def _row(self, a: int) -> tuple[int, ...]:
        """The row of element a.  With x = y s_i for the word-prefix parent
        y, x^-1(beta) = s_i(y^-1(beta)): walk up the parents whose rows are
        not yet known, at most one per letter, then map back down."""
        rows, words, rmult = self._rows, self._words, self._rmult
        path = []
        for _ in words[a]:
            if rows[a] is not None:
                break
            i = words[a][-1]
            path.append((a, i))
            a = rmult[i][a]
        row = rows[a]
        if row is None:
            raise InvariantError("word-prefix parents do not reach the identity")
        for b, i in reversed(path):  # the row of y s_i, as ``WeylElt.mul`` composes it
            p = self._perms[i]
            row = rows[b] = tuple([p[c] if c >= 0 else ~p[~c] for c in row])
        return row


def per_table(build):
    """``build(table)``, computed once per table and kept on it: data
    derived from a group table lives exactly as long as the table."""
    def get(table: GroupTable):
        if build not in table._derived:
            table._derived[build] = build(table)
        return table._derived[build]
    return get


_TABLES: dict[RootSystem, GroupTable] = {}


def enumerate_group(rs: RootSystem) -> GroupTable:
    """Enumerate W (cached).  Raises BudgetError when |W| exceeds
    ``GROUP_CAP``."""
    order = WEYL_ORDER(rs.cartan_type, rs.rank)
    if order > GROUP_CAP:
        raise BudgetError(
            f"Weyl group of type {rs.cartan_type}{rs.rank} has {order} "
            f"elements, exceeding the cap of {GROUP_CAP}"
        )
    tab = _TABLES.get(rs)
    if tab is None:
        tab = GroupTable(rs)
        _TABLES[rs] = tab
    return tab

