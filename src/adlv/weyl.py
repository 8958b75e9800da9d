"""Finite Weyl group elements as exact integer matrices.

An element carries two integer matrices: its action on root coordinates and
the inverse action.  Carrying the inverse makes inversion free and gives
O(n^2) access to both "how does w move this root" and "which root maps onto
this one".  The coroot action is derived from the root action through the
symmetrizer.

While W has a cached ``GroupTable`` (only ``enumerate_group`` builds one),
an element carries its table index, and products, inverses and the root
images under the inverse (hence lengths) are table lookups; the matrix
products serve groups with no cached table.  An element caches the columns
of its inverse matrix (the pairing action) and its descent mask, so on the
shared table elements both are per-index tables.  A table element's matrices are
built on first access, from its word-prefix parent, so building a table (and
the quantum Bruhat graph on it) multiplies no matrices.  Reflection length is
the rank of (action - id) on the reflection representation.  Whatever is
derived from a table (the quantum Bruhat graph, the Newton averaging sums,
dp, ell_red) is kept on that table by ``per_table``, so it lives exactly as
long as the table's cache entry.  ``enumerate_group`` refuses a group above
``GROUP_CAP`` elements.

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

from ._matrix import identity, mat_mul, mat_rank, mat_sub, mat_vec
from .errors import BudgetError, InvariantError, RefusalError
from .rootsys import RootSystem, WEYL_ORDER, _sign

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

    __slots__ = ("rs", "r", "ri", "_len", "_hash", "_idx", "_cols", "_mask")

    def __init__(self, rs: RootSystem, r, ri):
        self.rs = rs
        self.r = r      # action on root coordinates; column j is w(alpha_j)
        self.ri = ri
        self._len = None
        self._hash = None
        self._idx = None  # table index: the same in every table of rs
        self._cols = None  # columns of ri, for act_pairing
        self._mask = None  # neg_mask()

    # -- group operations -------------------------------------------------

    def mul(self, other: "WeylElt") -> "WeylElt":
        rs = self.rs
        if rs is not other.rs:
            raise RefusalError("product of elements of different root systems")
        tab = _TABLES.get(rs)
        if tab is not None:
            k = tab.prod_idx(tab.idx(self), tab.idx(other))
            return tab.elements._slots[k] or tab.elements[k]
        return WeylElt(
            rs, mat_mul(self.r, other.r), mat_mul(other.ri, self.ri)
        )

    def inv(self) -> "WeylElt":
        tab = _TABLES.get(self.rs)
        if tab is not None:
            k = tab.inv_idx(tab.idx(self))
            return tab.elements._slots[k] or tab.elements[k]
        return WeylElt(self.rs, self.ri, self.r)

    # -- actions ----------------------------------------------------------

    def act_root(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        return mat_vec(self.r, coeffs)

    def inv_images(self) -> tuple[int, ...]:
        """x^-1(beta) for each positive root beta, as a signed root index:
        c for the c-th positive root, ~c for its negative.  Read from the
        cached group table when there is one, else from the matrix."""
        rs = self.rs
        tab = _TABLES.get(rs)
        if tab is not None:
            return tab.inv_images()[tab.idx(self)]
        return _signed_images(rs, self.ri)

    def neg_mask(self) -> tuple[int, ...]:
        """1 where x^-1(beta) < 0 and 0 where it is positive, over the
        positive roots beta (cached on the element)."""
        if self._mask is None:
            self._mask = tuple([1 if c < 0 else 0 for c in self.inv_images()])
        return self._mask

    def act_pairing(self, p: Sequence) -> tuple:
        # <alpha_k, w lambda> = <w^-1 alpha_k, lambda>; column k of ri holds
        # the root coordinates of w^-1 alpha_k.  The columns are cached on
        # the element, so a table element transposes once per index.
        cols = self._cols
        if cols is None:
            cols = self._cols = tuple(zip(*self.ri))
        return tuple([sum(map(mul, col, p)) for col in cols])

    # -- length and descents ----------------------------------------------

    def length(self) -> int:
        if self._len is None:
            self._len = sum(c < 0 for c in self.inv_images())
        return self._len

    def is_identity(self) -> bool:
        return self.r == _id_mat(self.rs)

    def descent_right(self, i: int) -> bool:
        """ell(w s_i) < ell(w), i.e. w(alpha_i) < 0 (i is 0-based)."""
        return _sign(tuple(row[i] for row in self.r)) < 0

    def descent_left(self, i: int) -> bool:
        """ell(s_i w) < ell(w), i.e. w^-1(alpha_i) < 0."""
        return _sign(tuple(row[i] for row in self.ri)) < 0

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
        return isinstance(other, WeylElt) and self.r == other.r and self.rs is other.rs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.r)
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = self.to_word()
        return "WeylElt(e)" if not w else f"WeylElt({word_str(w)})"


def word_str(word: Iterable[int]) -> str:
    """Human form of a finite word, in 1-based Bourbaki labels."""
    seq = list(word)
    if not seq:
        return "e"
    return "".join(f"s{i + 1}" for i in seq)


@lru_cache(maxsize=None)
def _id_mat(rs: RootSystem):
    return identity(rs.rank)


@lru_cache(maxsize=None)
def identity_elt(rs: RootSystem) -> WeylElt:
    e = _id_mat(rs)
    return WeylElt(rs, e, e)


@lru_cache(maxsize=None)
def simple_reflection(rs: RootSystem, i: int) -> WeylElt:
    """s_i for 0-based simple index i."""
    n = rs.rank
    C = rs.cartan
    r = tuple(
        tuple((1 if k == j else 0) - (C[i][j] if k == i else 0) for j in range(n))
        for k in range(n)
    )
    return WeylElt(rs, r, r)


def reflection(rs: RootSystem, root) -> WeylElt:
    """s_beta for a positive root (given by coefficients or by index)."""
    a = root if isinstance(root, int) else rs.root_index[tuple(root)]
    return _reflection_by_index(rs, a)


@lru_cache(maxsize=None)
def _reflection_by_index(rs: RootSystem, a: int) -> WeylElt:
    beta = rs.positive_roots[a]
    prc = rs.coroot_pairings[a]  # <alpha_j, beta_check>
    n = rs.rank
    r = tuple(
        tuple((1 if k == j else 0) - prc[j] * beta[k] for j in range(n))
        for k in range(n)
    )
    return WeylElt(rs, r, r)


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
    coordinates)."""
    return mat_rank(mat_sub(x.r, _id_mat(x.rs)))


class GroupTable:
    """Breadth-first enumeration of a finite Weyl group.

    Elements are indexed 0..|W|-1 ordered by (length, lexicographic reduced
    word); index 0 is the identity and index |W|-1 the longest element.
    The search runs over the orbit of rho_check: x is keyed by the pairing
    coordinates of x^-1 rho_check, so x s_i is one reflection of the key and
    a right descent is a negative key entry.  ``rmult[i][a]`` is the index
    of ``elements[a] * s_i``; every other product (``prod_idx``,
    ``inv_idx``, ``rmult_root``) is a fold of ``rmult`` along ``words``.
    ``reflections`` maps a positive root index to the index of its
    reflection, and ``root_of_reflection`` back.  The build records only
    this index data: ``elements[a]`` is built on first access (see
    ``_Elements``), and so are the root images under inverses
    (``inv_images``), reflection-multiplication tables and what other
    modules derive from the table (``per_table``).
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
                    q = tuple(p[j] - Ci[j] * pi for j in range(n))
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
        self.index = index
        self.lengths = [len(w) for w in words]
        self.rmult = rmult
        self.reflections = [
            self.idx(reflection(rs, a)) for a in range(len(rs.positive_roots))
        ]
        self.root_of_reflection = {r: a for a, r in enumerate(self.reflections)}
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
            a = x._idx = self.index[tuple(map(sum, zip(*x.r)))]
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
        """Table of right multiplication by the reflection s_beta."""
        tab = self._refl_mult.get(root_idx)
        if tab is None:
            tab = list(range(len(self.elements)))
            for i in self.words[self.reflections[root_idx]]:
                ri = self.rmult[i]
                tab = [ri[v] for v in tab]
            self._refl_mult[root_idx] = tab
        return tab

    def inv_images(self) -> list[tuple[int, ...]]:
        """Per index, ``WeylElt.inv_images`` of its element: the signed
        root indices of x^-1(beta) over the positive roots beta.  With
        x = y s_i, x^-1(beta) = s_i(y^-1(beta)), so each row is the row of
        the parent ``rmult[i][x]`` through the signed root permutation of
        s_i; only the n simple reflections' matrices are read."""
        if self._inv_images is None:
            rs = self.rs
            perms = []
            for i in range(rs.rank):
                # P[c] is s_i(beta_c); P[~c], read from the end, -s_i(beta_c)
                pos = _signed_images(rs, simple_reflection(rs, i).r)
                perms.append(pos + tuple(~p for p in reversed(pos)))
            rows = [tuple(range(len(rs.positive_roots)))]
            for a in range(1, len(self.elements)):
                i = self.words[a][-1]
                parent = rows[self.rmult[i][a]]
                rows.append(tuple(map(perms[i].__getitem__, parent)))
            self._inv_images = rows
        return self._inv_images


class _Elements(Sequence):
    """A table's elements in index order, each built on first access: walk
    up the word-prefix parents not yet built, then multiply back down by
    simple reflections, checking that the rho_check key of each new matrix
    is its own index."""

    def __init__(self, rs: RootSystem, words, rmult, index):
        self._rs, self._words, self._rmult, self._index = rs, words, rmult, index
        e = identity_elt(rs)
        e._idx, e._len = 0, 0
        self._slots: list[WeylElt | None] = [e] + [None] * (len(words) - 1)

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
        slots, path, a = self._slots, [], range(len(self))[a]
        for i in reversed(self._words[a]):
            if slots[a] is not None:
                break
            path.append((a, i))
            a = self._rmult[i][a]
        else:  # the walk used the whole word: its base is the identity
            a = 0
        x = slots[a]
        for b, i in reversed(path):
            # mat_mul, not WeylElt.mul, which would come back here
            g = simple_reflection(self._rs, i)
            r = mat_mul(x.r, g.r)
            if self._index.get(tuple(map(sum, zip(*r)))) != b:
                raise InvariantError("table element's matrix keys to another index")
            x = slots[b] = WeylElt(self._rs, r, mat_mul(g.ri, x.ri))
            x._idx, x._len = b, len(self._words[b])
        return x


def _signed_images(rs: RootSystem, m) -> tuple[int, ...]:
    """m(beta) over the positive roots beta, for a matrix m acting on root
    coordinates: c for the c-th positive root, ~c for its negative."""
    idx = rs.root_index  # positive roots only
    return tuple(
        idx[v] if v in idx else ~idx[tuple(-c for c in v)]
        for v in (mat_vec(m, root) for root in rs.positive_roots)
    )


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

