"""Cocover classification for deep translations.

For w = u t^lam v with lam dominant and deep enough, every Bruhat cocover
of w comes from a finite positive root alpha in one of four ways: reflecting
u down (same translation), reflecting u up across the quantum drop (the
translation loses alpha_check), reflecting v up (same translation), or
reflecting v down across the drop (translation loses alpha_check).  This
module evaluates the four length conditions directly and checks the
resulting list against the exhaustive cocover enumeration from ``affine``.

The classifier emits the separating affine reflection with every record: the
predicted element w' always equals t^{m beta_check} s_beta w for a finite
positive root beta (the image of alpha under u, made positive) and an
integer m, and that shape is recomputed and checked rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from random import Random

from .affine import AffineElt, affine_length, cocovers
from .errors import InvariantError, RefusalError
from .rootsys import (
    TYPE_TABLE,
    Coweight,
    Root,
    RootSystem,
    check_type,
    coweight,
    depth,
)
from .weyl import (
    WeylElt,
    enumerate_group,
    identity_elt,
    reflection,
    word_str,
)

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


@dataclass(frozen=True)
class CocoverRecord:
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


@dataclass
class CoverResult:
    """Classifier output with its validity status ("ok" above the depth
    threshold, "below-threshold" otherwise; records filled below threshold
    only on request).  ``non_cocover`` holds the elements a case predicted
    whose length is not ell(w) - 1; it can fill only below the threshold,
    where the classification claims nothing."""

    status: str
    records: list[CocoverRecord]
    depth: object
    threshold: int
    non_cocover: list[AffineElt] = field(default_factory=list)


@lru_cache(maxsize=None)
def _reflection_roots(rs: RootSystem) -> dict[WeylElt, int]:
    """s_beta -> index of the positive root beta."""
    return {reflection(rs, a): a for a in range(len(rs.positive_roots))}


def _reflection_shape(rs: RootSystem, r: AffineElt) -> tuple[Root, int]:
    """(beta, m) with r = t^{m beta_check} s_beta, beta positive;
    InvariantError unless r has that shape."""
    b = _reflection_roots(rs).get(r.fin)
    if b is None:
        raise InvariantError("finite part of a cocover step is not a reflection")
    cb = rs.coroot_pairings[b]
    k = next(i for i, c in enumerate(cb) if c)
    m, rem = divmod(r.lam[k], cb[k])
    if rem or tuple(m * c for c in cb) != tuple(r.lam):
        raise InvariantError("translation part is not a multiple of the coroot")
    return rs.positive_roots[b], m


def _utv(u: WeylElt, lam: tuple[int, ...], v: WeylElt) -> AffineElt:
    """u t^lam v = t^{u(lam)} uv, for lam in pairing coordinates."""
    return AffineElt(u.rs, u.act_pairing(lam), u.mul(v))


def predicted_cocovers(
    u: WeylElt,
    lam: Coweight,
    v: WeylElt,
    force: bool = False,
) -> CoverResult:
    """The four-case cocover list of w = u t^lam v.

    Guaranteed complete only when depth(lam) is at least the type's
    threshold; below that the result carries a "below-threshold" status and
    records only when ``force`` is set."""
    rs = lam.rs
    if not lam.is_dominant():
        raise RefusalError("translation part must be dominant to classify")
    lam_int = lam.int_pairing()
    thr = cover_depth_threshold(rs.cartan_type)
    d = depth(lam)
    ok = d >= thr
    if not ok and not force:
        return CoverResult("below-threshold", [], d, thr)

    w = _utv(u, lam_int, v)
    lw = affine_length(w)
    lu, lv = u.length(), v.length()
    by_result: dict[AffineElt, tuple[list[int], Root, int]] = {}
    non_cocover: list[AffineElt] = []
    w_inv = w.inv()

    def emit(case: int, root: Root, w2: AffineElt) -> None:
        if w2 in by_result:
            by_result[w2][0].append(case)
            return
        # a reflection step with a length drop of one is a Bruhat cocover
        r = w2.mul(w_inv)
        beta, m = _reflection_shape(rs, r)
        if affine_length(w2) != lw - 1:
            if ok:
                raise InvariantError(
                    f"case {case} produced a non-cocover length"
                )
            if w2 not in non_cocover:
                non_cocover.append(w2)
            return
        by_result[w2] = ([case], beta, m)

    for a, alpha in enumerate(rs.positive_roots):
        sa = reflection(rs, a)
        drop = 2 * sum(rs.positive_coroots[a])  # <2 rho, alpha_i_check> = 2 for all i
        acheck = rs.coroot_pairings[a]
        lam_minus = tuple(p - c for p, c in zip(lam_int, acheck))
        usa, sav = u.mul(sa), sa.mul(v)
        lusa, lsav = usa.length(), sav.length()
        if lusa == lu - 1:
            emit(1, alpha, _utv(usa, lam_int, v))
        if lusa == lu + drop - 1:
            if not rs.quantum_flags[a]:
                raise InvariantError(
                    "a full-drop ascent from u must use a quantum root"
                )
            emit(2, alpha, _utv(usa, lam_minus, v))
        if lsav == lv + 1:
            emit(3, alpha, _utv(u, lam_int, sav))
        if lsav == lv - drop + 1:
            if not rs.quantum_flags[a]:
                raise InvariantError(
                    "a full-drop descent from v must use a quantum root"
                )
            emit(4, alpha, _utv(u, lam_minus, sav))

    records = [
        CocoverRecord(beta, m, min(cases), tuple(sorted(set(cases))), w2)
        for w2, (cases, beta, m) in by_result.items()
    ]
    records.sort(key=lambda r: (r.case_label, r.root, r.m))
    return CoverResult(
        "ok" if ok else "below-threshold", records, d, thr, non_cocover
    )


def verify_cover_theorem(
    u: WeylElt,
    lam: Coweight,
    v: WeylElt,
) -> dict:
    """Compare the four-case prediction for w = u t^lam v against the
    exhaustive cocover enumeration.  Below the depth threshold the report is
    flagged and carries the mismatch data without any claim, including the
    predicted elements that are not cocovers at all (``non_cocover``)."""
    rs = lam.rs
    res = predicted_cocovers(u, lam, v, force=True)
    lam_int = lam.int_pairing()
    enumerated = set(cocovers(_utv(u, lam_int, v)))
    predicted = {r.result for r in res.records}

    def _key(e: AffineElt):
        return [list(e.lam), word_str(e.fin.to_word())]

    missing = sorted(map(_key, enumerated - predicted))
    extra = sorted(map(_key, predicted - enumerated))
    non_cocover = sorted(map(_key, res.non_cocover))
    return {
        "type": rs.cartan_type,
        "rank": rs.rank,
        "u": word_str(u.to_word()),
        "lambda": list(lam_int),
        "v": word_str(v.to_word()),
        "status": res.status,
        "below_threshold": res.status != "ok",
        "predicted": len(predicted),
        "enumerated": len(enumerated),
        "missing": missing,
        "extra": extra,
        "non_cocover": non_cocover,
        "match": predicted == enumerated and not non_cocover,
    }


def cover_sweep(
    rs: RootSystem,
    lambdas,
    us=None,
    vs=None,
) -> list[dict]:
    """Reports for every (u, lam, v) in the product; default u = identity
    and v over the whole finite group."""
    table = enumerate_group(rs)
    if us is None:
        us = [identity_elt(rs)]
    if vs is None:
        vs = list(table.elements)
    out = []
    for lam in lambdas:
        for u in us:
            for v in vs:
                out.append(verify_cover_theorem(u, lam, v))
    return out


def sample_triples(
    rs: RootSystem,
    count: int,
    lo: int,
    hi: int,
    seed: int = 0,
) -> list[tuple[WeylElt, Coweight, WeylElt]]:
    """Seeded (u, lam, v) sample with dominant lam coordinates in [lo, hi];
    u and v uniform over the finite group."""
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
