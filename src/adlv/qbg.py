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
them against the search to y.  Every search reads the in-edge lists, which
hold each edge once.  They and the down-only
distances ell_down drive the closed-form weight tables, the Newton-point
weight bound and the dimension formulas.  ``build_qbg`` keeps one graph
per group table, on the table (``weyl.per_table``), and refuses a group
above its own cap, ``QBG_CAP``, below the group cap ``weyl.GROUP_CAP``.
"""

from __future__ import annotations

from typing import NamedTuple

from ._matrix import mat_vec
from .errors import BudgetError, InvariantError, RefusalError
from .rootsys import (
    Coroot,
    RootSystem,
    TYPE_TABLE,
    WEYL_ORDER,
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
    "RQRDReport",
    "build_qbg",
    "verify_rqrd",
    "wt_w0_closed_form",
    "compute_M",
    "m_tilde",
    "reflection_length_w0",
    "QBG_CAP",
]

QBG_CAP = 10 ** 5


class QBGraph:
    """The graph, with weighted breadth-first search utilities.

    ``_up_in[y]`` lists the sources of the weight-zero edges into y and
    ``_down_in[y]`` the ``(source, packed coroot)`` pairs of its down edges,
    in root-index order, each edge through beta carrying the one int
    ``_inc[beta]``; each edge is stored once, at its target.  The root of an
    edge x -> y is fixed by x^-1 y = s_beta.  Every search runs to a target
    over these lists, and layered searches check every shortest-path edge
    for weight agreement.  The lists are kept rather than re-derived from
    ``rmult_root`` per search: a vertex has a handful of edges but |Phi+|
    candidate roots.

    A search carries its accumulated weight as one packed int: field i,
    ``width`` bits at offset ``_shifts[i] = i * width``, holds simple-coroot
    coordinate i, and ``_inc[a]`` is the packed positive coroot of root a.  No field
    carries with ``width = max(1, ell(w0).bit_length())``: along k edges
    from x to y the coordinates, all nonnegative, sum to
    (ell(x) + k - ell(y)) / 2, as an up edge adds 1 to the length and a
    down edge through beta subtracts <2 rho, beta_check> - 1.  Descents
    are down edges and reduced words up paths, so d(x, e) <= ell(x) and
    d(e, y) = ell(y), which the constructor certifies from its one search
    to the identity and an up in-edge at every y != e; a shortest path has
    k <= ell(x) + ell(y), so each coordinate is at most ell(x) <= ell(w0).
    Packing is then injective, and comparing two packed weights is
    comparing the tuples.
    """

    def __init__(self, table: GroupTable):
        self.table = table
        self.rs = rs = table.rs
        nv = len(table)
        lengths = table.lengths
        width = max(1, max(lengths).bit_length())
        self._shifts, self._mask = [i * width for i in range(rs.rank)], (1 << width) - 1
        self._inc = inc = [
            sum(c << s for c, s in zip(cr, self._shifts)) for cr in rs.positive_coroots
        ]
        up_in, down_in = [[] for _ in range(nv)], [[] for _ in range(nv)]
        roots = [  # <2 rho, alpha_i_check> = 2 for all i gives the drop
            (table.rmult_root(a), 2 * sum(cr) - 1, rs.quantum_flags[a], inc[a])
            for a, cr in enumerate(rs.positive_coroots)
        ]
        # v s_beta = w iff w s_beta = v: each vertex lists its in-edges in
        # root order, and each edge is listed once, at its target
        for v in range(nv):
            lv = lengths[v]
            for tab, drop, quantum, c in roots:
                w = tab[v]
                d = lengths[w] - lv
                if d == -1:
                    up_in[v].append(w)
                elif d == drop:
                    if not quantum:
                        raise InvariantError("down edge through a non-quantum root")
                    down_in[v].append((w, c))
        self._up_in, self._down_in = up_in, down_in
        self._rev_down: list[int] | None = None
        # Strong connectivity: everything reaches the identity, and by
        # induction on length an up in-edge at each y != e gives d(e, y) <= ell(y)
        rd, rwts = self.search(0)
        if max(rd) == nv:
            raise InvariantError("graph not strongly connected")
        # the width rests on d(e, y) = ell(y) and d(x, e) <= ell(x)
        if not all(up_in[1:]) or any(map(int.__gt__, rd, lengths)):
            raise InvariantError("an identity distance breaks the weight width bound")
        self._rev: tuple[list[int], list[Coroot]] = (rd, list(map(self.decode, rwts)))

    # -- searches ---------------------------------------------------------

    def decode(self, packed: int) -> Coroot:
        """The simple-coroot coordinates of a packed weight."""
        mask = self._mask
        return tuple([packed >> s & mask for s in self._shifts])

    def _run_bfs(self, dst: int, up, down):
        """Layered BFS to dst along in-edges accumulating packed down-edge
        weights: distances and packed weights.  Distances start at |W|, above
        all, so an edge into the same or an earlier layer costs one comparison."""
        n = len(up)
        dist = [n] * n
        wts = [0] * n
        dist[dst] = 0
        queue = [dst]
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
        return dist, wts

    def search(self, dst) -> tuple[list[int], list[int]]:
        """Uncached search to dst, the oracle for ``wt`` and ``d_gamma``:
        d_Gamma(x, dst) and the packed wt(x, dst) for every index x, each
        reached, as the graph is strongly connected."""
        return self._run_bfs(self._idx(dst), self._up_in, self._down_in)

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
        return self.all_ell_down()[self._idx(x)]

    def all_wt1(self) -> list[Coroot]:
        return self._rev[1]

    def all_ell_down(self) -> list[int]:
        """Distances of the down-only search to the identity, derived once."""
        if self._rev_down is None:
            dist, _ = self._run_bfs(0, [()] * len(self._up_in), self._down_in)
            # Down-only distance to the identity agrees with the unrestricted
            # one, which is below |W|: every element has a downward path.
            if dist != self._rev[0]:
                raise InvariantError(
                    "a shortest path to the identity beats the down-only one"
                )
            self._rev_down = dist
        return self._rev_down


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


class RQRDReport(NamedTuple):
    """Outcome of checking a proposed downward decomposition."""

    ok: bool
    reasons: list[str]
    factor_count: int
    length_sum: int
    minimality: str | None  # "reflection-length bound" or "graph"


def verify_rqrd(x: WeylElt, factors) -> RQRDReport:
    """Check that ``factors`` (root coefficient vectors, product order) is a
    minimal length-additive quantum-reflection factorization of x.

    Valid factors give a downward path of k edges, so ell_down(x) <= k,
    and ell_down(x) >= ell_R(x) = rank(x - 1): a factor count meeting that
    bound is minimal.  Only when it does not is minimality decided by the
    graph, for a group under ``QBG_CAP``; above it, it stays undecided.
    RefusalError for a factor that is not a tuple or list of rank ints."""
    rs = x.rs
    factors = tuple(factors)
    if not all(isinstance(f, (tuple, list)) and len(f) == rs.rank
               and {int}.issuperset(map(type, f)) for f in factors):
        raise RefusalError(f"factors must be vectors of {rs.rank} ints, not {factors!r}")
    factors = tuple(map(tuple, factors))
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
        lr = reflection_length(x)
        if k == lr:
            minimality = "reflection-length bound"
        elif WEYL_ORDER(rs.cartan_type, rs.rank) <= QBG_CAP:
            d = build_qbg(rs).ell_down(x)
            if k == d:
                minimality = "graph"
            else:
                reasons.append(
                    f"not minimal: {k} factors, but a {d}-step "
                    "decomposition exists"
                )
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


# -- weight bounds --------------------------------------------------------


def m_tilde(cartan_type: str, rank: int) -> int:
    """Tabulated bound for max over x and simple alpha of <alpha, wt(x)>."""
    return TYPE_TABLE[check_type(cartan_type, rank)].m_tilde(rank)


def reflection_length_w0(cartan_type: str, rank: int) -> int:
    """Tabulated reflection length of the longest element (the least number
    of reflections, simple or not, whose product is w0)."""
    return TYPE_TABLE[check_type(cartan_type, rank)].ell_r_w0(rank)


def compute_M(rs: RootSystem) -> int:
    """max over x in W and simple alpha of <alpha, wt(x)>, by enumeration:
    the largest pairing coordinate C^T wt(x) of a weight to the identity."""
    return max(max(mat_vec(rs.cartan_t, v)) for v in build_qbg(rs).all_wt1())
