"""Quantum Bruhat graph on a finite Weyl group.

Vertices are the group elements.  For each element x and positive root beta
there is an "up" edge x -> x s_beta of weight zero when the length rises by
one, and a "down" edge of weight beta_check when the length drops by exactly
<2 rho, beta_check> - 1.  A drop of that size forces ell(s_beta) =
<2 rho, beta_check> - 1, so down edges can only use quantum roots; the
builder checks this instead of assuming it.

All shortest directed paths between two fixed vertices carry the same
accumulated weight.  Rather than trusting that, the breadth-first searches
here check weight agreement layer by layer (raising InvariantError).  The
weight wt(x, y) and the distance d_Gamma(x, y) are served from the one
search to the identity through the group table; ``adlv verify qbg`` checks
them against the forward search from x.  They and the downward-only
decompositions drive the closed-form weight tables, the Newton-point
weight bound and the dimension formulas.  ``build_qbg`` keeps one graph
per group table, on the table (``weyl.per_table``), and refuses a group
above its own cap, ``QBG_CAP``, below the group cap ``weyl.GROUP_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetError, InvariantError, RefusalError
from .rootsys import (
    Coroot,
    Root,
    RootSystem,
    TYPE_TABLE,
    WEYL_ORDER,
    _unit,
    check_type,
)
from .weyl import (
    GroupTable,
    WeylElt,
    enumerate_group,
    identity_elt,
    per_table,
    reflection,
    reflection_length,
)

__all__ = [
    "QBGraph",
    "RQRD",
    "RQRDReport",
    "build_qbg",
    "verify_rqrd",
    "wt_w0_closed_form",
    "w0_rqrd_exhibit",
    "compute_M",
    "m_tilde",
    "reflection_length_w0",
    "QBG_CAP",
]

QBG_CAP = 10 ** 5


@dataclass(frozen=True)
class RQRD:
    """A factorization x = s_{beta_1} ... s_{beta_k} into reflections in
    quantum roots, with additive length and k as small as possible.  Factors
    are root coefficient vectors, in product order."""

    factors: tuple[Root, ...]

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)


class QBGraph:
    """The graph, with weighted breadth-first search utilities.

    ``up[x]`` lists the targets of the weight-zero edges leaving x and
    ``down[x]`` the ``(target, packed coroot)`` pairs of its down edges, in
    root-index order, each edge through beta carrying the one int
    ``inc[beta]``; ``up_in``/``down_in`` list them by target.  The root of
    an edge x -> y is fixed by x^-1 y = s_beta.  Layered searches check
    every shortest-path edge for weight agreement.  The lists are kept
    rather than re-derived from ``rmult_root`` per search: a vertex has a
    handful of edges but |Phi+| candidate roots.

    A search carries its accumulated weight as one packed int: field i,
    ``width`` bits at offset ``i * width``, holds simple-coroot coordinate
    i, and ``inc[a]`` is the packed positive coroot of root a.  With
    ``width = (|W| * c).bit_length() + 1``, c the largest coroot
    coefficient, no field can carry: coordinates are nonnegative and a
    shortest path has fewer than |W| edges, so every coordinate is below
    |W| * c.  Packing is then injective, and comparing two packed weights
    is comparing the tuples.
    """

    def __init__(self, table: GroupTable):
        self.table = table
        self.rs = rs = table.rs
        nv = len(table)
        lengths = table.lengths
        top = max(max(c) for c in rs.positive_coroots)
        self.width = width = (nv * top).bit_length() + 1
        self.inc = inc = [
            sum(c << (i * width) for i, c in enumerate(cr))
            for cr in rs.positive_coroots
        ]
        up, up_in, down, down_in = ([[] for _ in range(nv)] for _ in range(4))
        roots = [  # <2 rho, alpha_i_check> = 2 for all i gives the drop
            (table.rmult_root(a), 2 * sum(cr) - 1, rs.quantum_flags[a], inc[a])
            for a, cr in enumerate(rs.positive_coroots)
        ]
        # v s_beta = w iff w s_beta = v: each vertex lists its out- and
        # in-edges in root order, allocated together for the searches' scans
        for v in range(nv):
            lv = lengths[v]
            for tab, drop, quantum, c in roots:
                w = tab[v]
                d = lengths[w] - lv
                if d == 1:
                    up[v].append(w)
                elif d == -drop:
                    if not quantum:
                        raise InvariantError("down edge through a non-quantum root")
                    down[v].append((w, c))
                if d == -1:
                    up_in[v].append(w)
                elif d == drop:
                    down_in[v].append((w, c))
        self.up, self.down, self.up_in, self.down_in = up, down, up_in, down_in
        self._rev_down: tuple[list[int], list[int]] | None = None
        # Strong connectivity: the identity reaches everything and is
        # reachable from everything.
        dist_from_e, _ = self.search(0)
        rd, rwts, _ = self._run_bfs(0, up_in, down_in)
        if max(dist_from_e) == nv or max(rd) == nv:
            raise InvariantError("graph not strongly connected")
        self._rev: tuple[list[int], list[Coroot]] = (rd, list(map(self.decode, rwts)))

    # -- searches ---------------------------------------------------------

    def decode(self, packed: int) -> Coroot:
        """The simple-coroot coordinates of a packed weight."""
        width = self.width
        mask = (1 << width) - 1
        return tuple(
            packed >> (i * width) & mask for i in range(self.rs.rank)
        )

    def _run_bfs(self, src: int, up, down):
        """Layered BFS accumulating packed down-edge weights: distances, packed
        weights and discovery order.  Distances start at |W|, above all, so an
        edge into the same or an earlier layer costs one comparison."""
        n = len(up)
        dist = [n] * n
        wts = [0] * n
        dist[src] = 0
        queue = [src]
        for v in queue:  # the loop also visits the vertices appended below
            dnext = dist[v] + 1
            wv = wts[v]
            for u in up[v]:
                du = dist[u]
                if du < dnext:
                    continue
                if du > dnext:
                    dist[u] = dnext
                    wts[u] = wv
                    queue.append(u)
                elif wts[u] != wv:
                    raise InvariantError("two shortest paths with different weights")
            for u, c in down[v]:
                du = dist[u]
                if du < dnext:
                    continue
                w = wv + c
                if du > dnext:
                    dist[u] = dnext
                    wts[u] = w
                    queue.append(u)
                elif wts[u] != w:
                    raise InvariantError("two shortest paths with different weights")
        return dist, wts, queue

    def search(self, src) -> tuple[list[int], list[int]]:
        """Uncached forward search, the oracle for ``wt`` and ``d_gamma``:
        d_Gamma(src, y) and the packed wt(src, y) for every index y, each
        reached, as the graph is strongly connected."""
        return self._run_bfs(self._idx(src), self.up, self.down)[:2]

    def _reverse_down(self):
        """The down-only search to the identity: distances, and each vertex's
        first-found parent, derived once as its earliest-queued in-neighbour."""
        if self._rev_down is None:
            nv = len(self.up)
            dist, _, order = self._run_bfs(0, [()] * nv, self.down_in)
            if max(dist) == nv:
                raise InvariantError("element with no downward decomposition")
            # Down-only distance to the identity agrees with the
            # unrestricted one.
            if dist != self._rev[0]:
                raise InvariantError(
                    "a shortest path to the identity beats the down-only one"
                )
            parent = [-1] * nv
            for v in order:  # the first queued vertex with an edge to u found u
                for u, _ in self.down_in[v]:
                    if parent[u] < 0:
                        parent[u] = v
            self._rev_down = (dist, parent)
        return self._rev_down

    # -- queries ----------------------------------------------------------

    def _idx(self, x) -> int:
        if isinstance(x, WeylElt):
            return self.table.idx(x)
        if type(x) is not int or not 0 <= x < len(self.table):
            raise RefusalError(f"index {x!r} outside the group of order {len(self.table)}")
        return x

    def wt(self, x, y) -> Coroot:
        """wt(x, y) = wt(x^-1 <| y, 1) (Postnikov, Proc. AMS 133 (2005)).

        >>> from adlv.rootsys import build_root_system
        >>> g = build_qbg(build_root_system("A", 2))  # index 5 is w0
        >>> g.wt(0, 5), g.wt(5, 0), g.wt(5, 5)
        ((0, 0), (1, 1), (0, 0))
        """
        t = self.table
        return self._rev[1][t.ltri_idx(t.inv_idx(self._idx(x)), self._idx(y))]

    def d_gamma(self, x, y) -> int:
        """d_Gamma(x, y) = ell(y) - ell(x) + <2 rho, wt(x, y)>: along a path
        an up edge adds 1 to the length, and a down edge through beta adds
        beta_check to the weight and 1 - <2 rho, beta_check> to the length,
        so k edges of weight v end at length ell(x) + k - <2 rho, v>; take a
        shortest path, of weight wt(x, y).  Here <2 rho, alpha_i_check> = 2.

        >>> from adlv.rootsys import build_root_system
        >>> g = build_qbg(build_root_system("A", 2))  # index 5 is w0
        >>> g.d_gamma(0, 5), g.d_gamma(5, 0), g.d_gamma(1, 1)
        (3, 1, 0)
        """
        x, y = self._idx(x), self._idx(y)
        ell = self.table.lengths
        return ell[y] - ell[x] + 2 * sum(self.wt(x, y))

    def wt1(self, x) -> Coroot:
        """wt(x, 1), the weight to the identity."""
        return self._rev[1][self._idx(x)]

    def ell_down(self, x) -> int:
        """Least number of down edges from x to the identity."""
        return self._reverse_down()[0][self._idx(x)]

    def rqrd(self, x) -> RQRD:
        """A minimal downward decomposition of x read off the search tree:
        each tree edge v -> parent[v] is v s_beta = parent[v]."""
        _, parent = self._reverse_down()
        t = self.table
        v = self._idx(x)
        labels = []
        while v != 0:
            p = parent[v]
            labels.append(t.root_of_reflection[t.prod_idx(t.inv_idx(v), p)])
            v = p
        roots = self.rs.positive_roots
        return RQRD(tuple(roots[a] for a in reversed(labels)))

    def all_wt1(self) -> list[Coroot]:
        return self._rev[1]

    def all_ell_down(self) -> list[int]:
        return self._reverse_down()[0]


_graph = per_table(QBGraph)


def build_qbg(rs: RootSystem) -> QBGraph:
    """The graph on the cached group table, built once and kept on it;
    BudgetError when |W| exceeds ``QBG_CAP``, the graph cap."""
    order = WEYL_ORDER(rs.cartan_type, rs.rank)
    if order > QBG_CAP:
        raise BudgetError(
            f"quantum Bruhat graph of type {rs.cartan_type}{rs.rank} has "
            f"{order} vertices, exceeding the graph cap of {QBG_CAP}"
        )
    return _graph(enumerate_group(rs))


@dataclass
class RQRDReport:
    """Outcome of checking a proposed downward decomposition."""

    ok: bool
    reasons: list[str] = field(default_factory=list)
    factor_count: int = 0
    length_sum: int = 0
    minimality: str | None = None  # "graph" or "reflection-length bound"


def verify_rqrd(x: WeylElt, factors) -> RQRDReport:
    """Check that ``factors`` (root coefficient vectors, product order) is a
    minimal length-additive quantum-reflection factorization of x.

    Minimality is decided by graph search when the group fits under
    ``QBG_CAP``; otherwise it is certified only when the factor count meets
    the reflection-length lower bound rank(x - 1)."""
    rs = x.rs
    factors = tuple(tuple(f) for f in factors)
    k = len(factors)
    reasons: list[str] = []
    idxs: list[int] = []
    for f in factors:
        a = rs.root_index.get(f)
        if a is None:
            reasons.append(f"{f} is not a positive root")
        elif not rs.quantum_flags[a]:
            reasons.append(f"{f} is not a quantum root")
        else:
            idxs.append(a)
    lsum = 0
    if len(idxs) == k:
        prod = identity_elt(rs)
        for a in idxs:
            prod = prod.mul(reflection(rs, a))
            lsum += rs.reflection_lengths[a]
        if prod != x:
            reasons.append("factors do not multiply to the element")
        if lsum != x.length():
            reasons.append(
                f"length sum {lsum} differs from ell(x) = {x.length()}"
            )
    minimality = None
    if not reasons:
        if WEYL_ORDER(rs.cartan_type, rs.rank) <= QBG_CAP:
            d = build_qbg(rs).ell_down(x)
            if k == d:
                minimality = "graph"
            else:
                reasons.append(
                    f"not minimal: {k} factors, but a {d}-step "
                    "decomposition exists"
                )
        else:
            lr = reflection_length(x)
            if k == lr:
                minimality = "reflection-length bound"
            else:
                reasons.append(
                    f"minimality undecided without enumeration "
                    f"({k} factors, lower bound {lr})"
                )
    return RQRDReport(not reasons, reasons, k, lsum, minimality)


# -- closed forms ---------------------------------------------------------


def _pairs(top: int) -> list[int]:
    """(2, 2, 4, 4, ..., top, top) for even top >= 0."""
    out: list[int] = []
    for v in range(2, top + 1, 2):
        out += [v, v]
    return out


def wt_w0_closed_form(cartan_type: str, rank: int) -> Coroot:
    """wt(w_0) in simple-coroot coordinates, per type and rank.

    >>> wt_w0_closed_form("A", 3)
    (1, 2, 1)
    >>> wt_w0_closed_form("G", 2)
    (2, 2)
    """
    ct = check_type(cartan_type, rank)
    n = rank
    k = n // 2
    if ct == "A":
        if n % 2 == 0:
            half = list(range(1, k + 1))
            return tuple(half + half[::-1])
        half = list(range(1, k + 2))
        return tuple(half + half[-2::-1])
    if ct == "B":
        if n % 2 == 0:
            return tuple(_pairs(2 * k - 2) + [2 * k, k])
        return tuple(_pairs(2 * k) + [k + 1])
    if ct == "C":
        return tuple(range(1, n + 1))
    if ct == "D":
        if n % 2 == 0:
            return tuple(_pairs(2 * k - 2) + [k, k])
        return tuple(_pairs(2 * k - 2) + [2 * k, k, k])
    return {
        ("E", 6): (2, 2, 4, 6, 4, 2),
        ("E", 7): (2, 5, 6, 8, 7, 4, 3),
        ("E", 8): (4, 8, 10, 14, 12, 8, 6, 2),
        ("F", 4): (2, 6, 4, 2),
        ("G", 2): (2, 2),
    }[(ct, n)]


def w0_rqrd_exhibit(cartan_type: str, rank: int) -> tuple[Root, ...]:
    """A minimal downward decomposition of the longest element, as root
    coefficient vectors in product order.

    The factors are pairwise orthogonal (they form the cascade of strongly
    orthogonal roots), the factor count equals the reflection length of w_0,
    and the coroots of the factors sum to ``wt_w0_closed_form``.  All three
    facts are what the test suite checks."""
    ct = check_type(cartan_type, rank)
    n = rank
    k = n // 2
    facs: list[Root] = []
    if ct == "A":
        for j in range(1, (n + 1) // 2 + 1):
            facs.append(
                tuple(1 if j - 1 <= i <= n - j else 0 for i in range(n))
            )
        return tuple(facs)
    if ct == "B":
        last_o = n - 1 if n % 2 == 0 else n - 2
        for o in range(1, last_o + 1, 2):
            long_root = tuple(
                0 if i < o - 1 else (1 if i == o - 1 else 2)
                for i in range(n)
            )
            facs += [long_root, _unit(n, o - 1)]
        if n % 2 == 1:
            facs.append(_unit(n, n - 1))
        return tuple(facs)
    if ct == "C":
        for j in range(1, n + 1):
            facs.append(
                tuple(
                    0 if i < j - 1 else (1 if i == n - 1 else 2)
                    for i in range(n)
                )
            )
        return tuple(facs)
    if ct == "D":
        # Tails are 2's through position n-2, then 1, 1 on the fork.
        last_o = n - 3 if n % 2 == 0 else n - 4
        for o in range(1, last_o + 1, 2):
            long_root = tuple(
                0 if i < o - 1
                else 1 if i == o - 1 or i >= n - 2
                else 2
                for i in range(n)
            )
            facs += [long_root, _unit(n, o - 1)]
        if n % 2 == 0:
            facs += [_unit(n, n - 2), _unit(n, n - 1)]
        else:
            fork = tuple(1 if i >= n - 3 else 0 for i in range(n))
            facs += [fork, _unit(n, n - 3)]
        return tuple(facs)
    return {
        ("E", 6): (
            (1, 2, 2, 3, 2, 1),
            (1, 0, 1, 1, 1, 1),
            (0, 0, 1, 1, 1, 0),
            (0, 0, 0, 1, 0, 0),
        ),
        ("E", 7): (
            (2, 2, 3, 4, 3, 2, 1),
            (0, 1, 1, 2, 2, 2, 1),
            (0, 1, 1, 2, 1, 0, 0),
            (0, 1, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 0, 1),
        ),
        ("E", 8): (
            (2, 3, 4, 6, 5, 4, 3, 2),
            (2, 2, 3, 4, 3, 2, 1, 0),
            (0, 1, 1, 2, 2, 2, 1, 0),
            (0, 1, 1, 2, 1, 0, 0, 0),
            (0, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 0),
        ),
        ("F", 4): (
            (2, 3, 4, 2),
            (0, 1, 2, 2),
            (0, 1, 2, 0),
            (0, 1, 0, 0),
        ),
        ("G", 2): ((3, 2), (1, 0)),
    }[(ct, n)]


# -- weight bounds --------------------------------------------------------


def m_tilde(cartan_type: str, rank: int) -> int:
    """Tabulated bound for max over x and simple alpha of <alpha, wt(x)>."""
    return TYPE_TABLE[check_type(cartan_type, rank)].m_tilde(rank)


def reflection_length_w0(cartan_type: str, rank: int) -> int:
    """Tabulated reflection length of the longest element (the least number
    of reflections, simple or not, whose product is w0)."""
    return TYPE_TABLE[check_type(cartan_type, rank)].ell_r_w0(rank)


def compute_M(rs: RootSystem) -> int:
    """max over x in W and simple alpha of <alpha, wt(x)>, by enumeration."""
    g = build_qbg(rs)
    C = rs.cartan
    n = rs.rank
    best = 0
    for v in g.all_wt1():
        for i in range(n):
            s = sum(v[j] * C[j][i] for j in range(n) if v[j])
            if s > best:
                best = s
    return best
