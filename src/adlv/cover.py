"""Cocover classification for deep translations.

For w = u t^lam v with lam dominant and deep enough, every Bruhat cocover
of w comes from a finite positive root alpha in one of four ways: reflecting
u down (same translation), reflecting u up across the quantum drop (the
translation loses alpha_check), reflecting v up (same translation), or
reflecting v down across the drop (translation loses alpha_check).  This
module evaluates the four length conditions directly and checks the
resulting list against the exhaustive cocover enumeration from ``affine``.

The classifier runs on group-table indices and returns keys (translation,
table index), each with its separating affine reflection: w' = t^{m
beta_check} s_beta w for a finite positive root beta (u(alpha), made
positive) and an integer m, recomputed from w' w^-1 and checked.  Records
are built from the keys; the theorem check compares the keys themselves.
"""

from __future__ import annotations

from operator import sub
from random import Random
from typing import NamedTuple, Sequence

from .affine import AffineElt, _pairings, cocovers
from .errors import InvariantError, RefusalError
from .rootsys import TYPE_TABLE, Coweight, Root, RootSystem, check_type, coweight, depth
from .weyl import GroupTable, WeylElt, enumerate_group, identity_elt, word_str

__all__ = [
    "CocoverRecord",
    "CoverResult",
    "cover_depth_threshold",
    "predicted_cocovers",
    "verify_cover_theorem",
    "cover_sweep",
    "sample_triples",
]


def cover_depth_threshold(cartan_type: str) -> int:
    """Depth of lam from which the four-case classification is asserted,
    read from the per-type table."""
    return TYPE_TABLE[check_type(cartan_type)].depth_threshold


class CocoverRecord(NamedTuple):
    """One predicted cocover.

    ``root`` and ``m`` describe the separating reflection t^{m root_check}
    s_root applied on the left of w; ``case_label`` is the least of the
    ``labels`` under the four-case numbering (1: u down, 2: u up across the
    drop, 3: v up, 4: v down across the drop).  Records coming from several
    cases at once are merged, keeping every label.
    """

    root: Root
    m: int
    case_label: int
    labels: tuple[int, ...]
    result: AffineElt


class CoverResult(NamedTuple):
    """Classifier output with its validity status ("ok" above the depth
    threshold, "below-threshold" otherwise; records filled below threshold
    only on request).  ``non_cocover`` holds the elements a case predicted
    whose length is not ell(w) - 1; it can fill only below the threshold,
    where the classification claims nothing."""

    status: str
    records: list[CocoverRecord]
    non_cocover: Sequence[AffineElt] = ()


def _reflection_shape(table: GroupTable, lam: tuple[int, ...], x: int) -> tuple[int, int]:
    """(b, m) with t^lam x = t^{m beta_check} s_beta for the b-th positive
    root beta, x a table index; InvariantError unless it has that shape."""
    b = table.root_of_reflection.get(x)
    if b is None:
        raise InvariantError("finite part of a cocover step is not a reflection")
    cb = table.rs.coroot_pairings[b]
    k = next(i for i, c in enumerate(cb) if c)
    m, rem = divmod(lam[k], cb[k])
    if rem or tuple([m * c for c in cb]) != lam:
        raise InvariantError("translation part is not a multiple of the coroot")
    return b, m


def _classify(u: WeylElt, lam: Coweight, v: WeylElt,
              force: bool) -> tuple[str, dict, list]:
    """(status, cases, non_cocover) for w = u t^lam v: ``cases`` maps each
    cocover key (nu, y), t^nu times table element y, to (its cases, root
    index b, m), and ``non_cocover`` lists the predicted keys of another
    length; both empty below the threshold unless ``force`` is set."""
    rs = lam.rs
    if u.rs is not rs or v.rs is not rs:
        raise RefusalError("u, lambda and v must share one root system")
    if not lam.is_dominant():
        raise RefusalError("translation part must be dominant to classify")
    lam_int = lam.int_pairing()
    table = enumerate_group(rs)
    ok = depth(lam) >= cover_depth_threshold(rs.cartan_type)
    status = "ok" if ok else "below-threshold"
    by_result: dict[tuple, tuple[list[int], int, int]] = {}
    non_cocover: list[tuple] = []
    if not ok and not force:
        return status, by_result, non_cocover

    imgs, lengths = table.inv_images(), table.lengths
    cols, cps, simple = rs.coroot_columns, rs.coroot_pairings, rs.letter_roots[1:]
    ui, vi = table.idx(u), table.idx(v)
    lu, lv = lengths[ui], lengths[vi]
    # w = t^mu x with mu = u(lam), x = uv; q[b] = <beta_b, mu> = <u^-1 beta_b, lam>
    x = table.prod_idx(ui, vi)
    x_inv = table.inv_idx(x)
    p = list(_pairings(rs, lam_int))
    q = [p[c] if c >= 0 else -p[~c] for c in imgs[ui]]
    mu = tuple([q[s] for s in simple])
    u_imgs = imgs[table.inv_idx(ui)]  # u(beta), as signed root indices

    def length(pairs, y: int) -> int:  # ell(t^nu y) from the pairings of nu
        return sum(map(abs, map(sub, pairs, map((0).__gt__, imgs[y]))))

    lw = length(q, x)

    def emit(case: int, k: int, c: int, y: int) -> None:
        # the candidate t^nu y, nu = mu - k gamma_check, gamma at signed index c
        nu = tuple(map(sub, mu, map(k.__mul__, cps[c])))
        key = (nu, y)
        if key in by_result:
            by_result[key][0].append(case)
            return
        # a reflection step with a length drop of one is a Bruhat cocover:
        # t^nu y (t^mu x)^-1 = t^{nu - z(mu)} z with z = y x^-1, and
        # <alpha_i, z(mu)> = <z^-1 alpha_i, mu> is read off q
        z = table.prod_idx(y, x_inv)
        zmu = [q[e] if e >= 0 else -q[~e] for e in map(imgs[z].__getitem__, simple)]
        b, m = _reflection_shape(table, tuple(map(sub, nu, zmu)), z)
        if length(map(sub, q, map(k.__mul__, cols[c])), y) != lw - 1:
            if ok:
                raise InvariantError(f"case {case} produced a non-cocover length")
            if key not in non_cocover:
                non_cocover.append(key)
            return
        by_result[key] = ([case], b, m)

    for a in range(len(rs.positive_roots)):
        usa = table.rmult_root(a)[ui]
        # s_alpha v = v s_{v^-1 alpha}, so u s_alpha v = x s_{v^-1 alpha}
        c = imgs[vi][a]
        sv = table.rmult_root(c if c >= 0 else ~c)
        sav, y = sv[vi], sv[x]
        drop = 2 * sum(rs.positive_coroots[a])  # <2 rho, alpha_i_check> = 2 for all i
        pa, ua = p[a], u_imgs[a]
        if lengths[usa] == lu - 1:
            emit(1, pa, ua, y)
        if lengths[usa] == lu + drop - 1:
            if not rs.quantum_flags[a]:
                raise InvariantError("a full-drop ascent from u must use a quantum root")
            emit(2, pa - 1, ua, y)
        if lengths[sav] == lv + 1:
            emit(3, 0, ua, y)
        if lengths[sav] == lv - drop + 1:
            if not rs.quantum_flags[a]:
                raise InvariantError("a full-drop descent from v must use a quantum root")
            emit(4, 1, ua, y)
    return status, by_result, non_cocover


def predicted_cocovers(u: WeylElt, lam: Coweight, v: WeylElt,
                       force: bool = False) -> CoverResult:
    """The four-case cocover list of w = u t^lam v.

    Guaranteed complete only when depth(lam) is at least the type's
    threshold; below that the result carries a "below-threshold" status and
    records only when ``force`` is set.  It needs the group table, so E7
    and E8 raise BudgetError; mixed root systems raise RefusalError."""
    status, cases, non_cocover = _classify(u, lam, v, force)
    if status != "ok" and not force:
        return CoverResult(status, [])
    rs, elements = lam.rs, enumerate_group(lam.rs).elements

    def built(key: tuple) -> AffineElt:
        return AffineElt(rs, key[0], elements[key[1]])

    records = [
        CocoverRecord(rs.positive_roots[b], m, min(labels),
                      tuple(sorted(set(labels))), built(key))
        for key, (labels, b, m) in cases.items()
    ]
    records.sort(key=lambda r: (r.case_label, r.root, r.m))
    return CoverResult(status, records, list(map(built, non_cocover)))


def verify_cover_theorem(u: WeylElt, lam: Coweight, v: WeylElt) -> dict:
    """Compare the four-case classification of w = u t^lam v against the
    exhaustive cocover enumeration, as (translation, finite part's row)
    pairs, mapping to reduced words only the pairs reported.
    Below the depth threshold the report is flagged and carries the mismatch
    data without any claim, including the predicted elements that are not
    cocovers at all (``non_cocover``)."""
    rs = lam.rs
    status, cases, non_cocover = _classify(u, lam, v, force=True)
    table = enumerate_group(rs)
    imgs = table.inv_images()
    lam_int = lam.int_pairing()
    ui, vi = table.idx(u), table.idx(v)

    def label(key) -> list:
        return [list(key[0]), word_str(table.words[table.idx(WeylElt(rs, key[1]))])]

    w = AffineElt(rs, u.act_pairing(lam_int), table.elements[table.prod_idx(ui, vi)])
    enumerated = {(c.lam, c.fin.imgs) for c in cocovers(w)}
    predicted = {(nu, imgs[y]) for nu, y in cases}
    return {
        "type": rs.cartan_type,
        "rank": rs.rank,
        "u": word_str(table.words[ui]),
        "lambda": list(lam_int),
        "v": word_str(table.words[vi]),
        "status": status,
        "below_threshold": status != "ok",
        "predicted": len(predicted),
        "enumerated": len(enumerated),
        "missing": sorted(map(label, enumerated - predicted)),
        "extra": sorted(map(label, predicted - enumerated)),
        "non_cocover": sorted([[list(nu), word_str(table.words[y])] for nu, y in non_cocover]),
        "match": predicted == enumerated and not non_cocover,
    }


def cover_sweep(rs: RootSystem, lambdas) -> list[dict]:
    """Reports for u = identity, every given lam and every v in the finite
    group."""
    e, vs = identity_elt(rs), enumerate_group(rs).elements
    return [verify_cover_theorem(e, lam, v) for lam in lambdas for v in vs]


def sample_triples(
    rs: RootSystem,
    count: int,
    lo: int,
    hi: int,
    seed: int = 0,
) -> list[tuple[WeylElt, Coweight, WeylElt]]:
    """Seeded (u, lam, v) sample with dominant lam coordinates in [lo, hi];
    u and v uniform over the finite group; anything but ints (a bool is
    not one) with count >= 0 and 0 <= lo <= hi, and an int seed, is refused."""
    if not {int}.issuperset(map(type, (count, lo, hi, seed))) or count < 0 or not 0 <= lo <= hi:
        raise RefusalError(f"need ints count >= 0, 0 <= lo <= hi and seed, "
                           f"not {count!r}, {lo!r}, {hi!r}, {seed!r}")
    table = enumerate_group(rs)
    rng = Random(seed)
    out = []
    for _ in range(count):
        lam = coweight(
            rs, tuple(rng.randint(lo, hi) for _ in range(rs.rank))
        )
        out.append(
            (rng.choice(table.elements), lam, rng.choice(table.elements))
        )
    return out
