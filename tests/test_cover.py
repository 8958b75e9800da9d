"""Cocover classification of w = u t^lam v with dominant lam: four-case
prediction against exhaustive enumeration."""

import pytest

from adlv import cover, weyl
from adlv.errors import BudgetError, InvariantError, RefusalError
from adlv.rootsys import build_root_system, coweight
from adlv.affine import (
    AffineElt,
    affine_length,
    cocovers,
    embed,
    translation,
)
from adlv.weyl import (
    enumerate_group,
    identity_elt,
    longest_element,
    reflection,
    simple_reflection,
)
from adlv.cover import (
    cover_depth_threshold,
    cover_sweep,
    predicted_cocovers,
    sample_triples,
    verify_cover_theorem,
)

from oracles import bruhat_leq_affine, predicted_cocovers_by_objects


def test_thresholds():
    assert cover_depth_threshold("A") == 3
    assert cover_depth_threshold("D") == 3
    assert cover_depth_threshold("B") == 4
    assert cover_depth_threshold("C") == 4
    assert cover_depth_threshold("F") == 4
    assert cover_depth_threshold("G") == 6
    with pytest.raises(ValueError):
        cover_depth_threshold("X")


def test_nondominant_refused(a2):
    with pytest.raises(RefusalError):
        predicted_cocovers(
            identity_elt(a2), coweight(a2, (-1, 3)), identity_elt(a2)
        )


def test_mixed_root_systems_refused(a2, b2):
    lam = coweight(a2, (3, 3))
    with pytest.raises(RefusalError, match="one root system"):
        predicted_cocovers(identity_elt(b2), lam, identity_elt(a2))
    with pytest.raises(RefusalError, match="one root system"):
        predicted_cocovers(identity_elt(a2), lam, identity_elt(b2))


def test_classifier_refuses_groups_above_the_table_cap(monkeypatch):
    """The classifier runs on the group table, so E7 raises BudgetError
    without building one."""
    monkeypatch.setattr(weyl, "_TABLES", {})
    e7 = build_root_system("E", 7)
    e = identity_elt(e7)
    with pytest.raises(BudgetError):
        predicted_cocovers(e, coweight(e7, (3,) * 7), e)
    assert weyl._TABLES == {}


def test_below_threshold_status(a2):
    res = predicted_cocovers(
        identity_elt(a2), coweight(a2, (1, 1)), identity_elt(a2)
    )
    assert res.status == "below-threshold"
    assert res.records == []
    forced = predicted_cocovers(
        identity_elt(a2), coweight(a2, (1, 1)), identity_elt(a2), force=True
    )
    assert forced.records  # filled, but certifying nothing


def test_a2_diagonal_case_labels(a2):
    """Frozen small case: t^{(3,3)} has exactly five cocovers, three from
    forced-quantum case 2 and two from case 3."""
    e = identity_elt(a2)
    res = predicted_cocovers(e, coweight(a2, (3, 3)), e)
    assert res.status == "ok"
    assert len(res.records) == 5
    assert sorted(r.case_label for r in res.records) == [2, 2, 2, 3, 3]


@pytest.mark.parametrize("ct,n", [("A", 2), ("B", 2), ("G", 2)])
def test_records_carry_separating_reflection(ct, n):
    """result = t^{m beta^} s_beta w, with a length drop of one, and below
    w in Bruhat order by the lifting recursion (the classifier itself does
    not run it), for every v at the depth threshold."""
    rs = build_root_system(ct, n)
    e = identity_elt(rs)
    thr = cover_depth_threshold(ct)
    lam = coweight(rs, (thr,) * n)
    for v in enumerate_group(rs).elements:
        w = translation(lam).mul(embed(v))
        res = predicted_cocovers(e, lam, v)
        assert res.status == "ok" and res.records
        for rec in res.records:
            a = rs.root_index[rec.root]
            refl = embed(reflection(rs, a))
            shift = AffineElt(
                rs,
                tuple(rec.m * c for c in rs.coroot_pairings[a]),
                identity_elt(rs),
            )
            assert shift.mul(refl).mul(w) == rec.result
            assert affine_length(rec.result) == affine_length(w) - 1
            assert bruhat_leq_affine(rec.result, w)
            assert rec.case_label == min(rec.labels)


@pytest.mark.parametrize("ct,n", [("B", 2), ("G", 2), ("A", 3), ("C", 3)])
def test_index_classifier_matches_object_oracle(ct, n):
    """The whole ``CoverResult`` (status, records with root, m, case
    labels and result, and ``non_cocover``, in order) equals the object
    oracle's, for every v, u in {e, s1, w0} and depths thr - 2 ... thr + 1,
    forced, so below-threshold rows are included, and at depth 1, where
    cases 2 and 4 predict non-cocovers."""
    rs = build_root_system(ct, n)
    elts = enumerate_group(rs).elements
    thr = cover_depth_threshold(ct)
    us = [identity_elt(rs), simple_reflection(rs, 0), longest_element(rs)]
    non_cocovers = 0
    for d in {1, *range(thr - 2, thr + 2)}:
        lam = coweight(rs, tuple(d + i % 2 for i in range(n)))
        for u in us:
            for v in elts:
                got = predicted_cocovers(u, lam, v, force=True)
                assert got == predicted_cocovers_by_objects(u, lam, v, force=True)
                non_cocovers += len(got.non_cocover)
    assert non_cocovers


def test_predicted_equals_enumerated_a2_grid(a2):
    thr = cover_depth_threshold("A")
    lams = [coweight(a2, (thr, thr)), coweight(a2, (thr + 1, thr))]
    for rep in cover_sweep(a2, lams):
        assert rep["match"], rep
        assert rep["status"] == "ok"


def test_verify_against_enumeration_direct(b2):
    """Independent double-check on one case: compare the record results
    against literal cocover enumeration."""
    e = identity_elt(b2)
    lam = coweight(b2, (4, 4))
    res = predicted_cocovers(e, lam, e)
    w = translation(lam)
    assert {r.result for r in res.records} == set(cocovers(w))


def test_cover_sweep_with_u():
    """Over all (u, v) in A2, B2 and G2 at lam = (c, c), and in A2 also at
    (4, 4): every prediction matches the enumeration inside the regime, and
    the u-side cases 1 and 2 both occur."""
    for ct, extra in (("A", [(4, 4)]), ("B", []), ("G", [])):
        rs = build_root_system(ct, 2)
        elts = list(enumerate_group(rs).elements)
        c = cover_depth_threshold(ct)
        lams = [coweight(rs, p) for p in [(c, c)] + extra]
        reports = [verify_cover_theorem(u, lam, v)
                   for lam in lams for u in elts for v in elts]
        assert len(reports) == len(lams) * len(elts) ** 2
        assert all(r["match"] and r["status"] == "ok" for r in reports)
        labels = {
            rec.case_label
            for u in elts
            for v in elts
            for rec in predicted_cocovers(u, lams[0], v).records
        }
        assert {1, 2} <= labels, ct


def test_sample_triples_deterministic(a3):
    s1 = sample_triples(a3, 5, 3, 5, seed=11)
    s2 = sample_triples(a3, 5, 3, 5, seed=11)
    assert [(u, lam.pairing, v) for u, lam, v in s1] == [
        (u, lam.pairing, v) for u, lam, v in s2
    ]
    for u, lam, v in s1:
        assert lam.is_dominant()
        rep = verify_cover_theorem(u, lam, v)
        assert rep["match"], rep


@pytest.mark.parametrize(
    "count,lo,hi,seed",
    [(5, -1, 3, 0), (5, 4, 3, 0), (-1, 3, 5, 0), (True, 3, 5, 0), (2.5, 3, 5, 0),
     (5, True, 3, 0), (5, 1.5, 3, 0), (5, 3, 5, True), (5, 3, 5, 1.5), (5, 3, 5, "x")],
    ids=["negative-lo", "lo-above-hi", "negative-count", "bool-count", "float-count",
         "bool-lo", "float-lo", "bool-seed", "float-seed", "str-seed"],
)
def test_sample_triples_refuses_bad_range(a3, count, lo, hi, seed):
    """A range that would give non-dominant lambda or none at all, a
    negative count, or a count, bound or seed that is not an int (True is
    not 1, 2.5 and 1.5 do not leak a TypeError or ValueError, and True does
    not sample as seed 1), is refused rather than sampled, leaked or
    emptied."""
    with pytest.raises(RefusalError, match="0 <= lo <= hi"):
        sample_triples(a3, count, lo, hi, seed)


def test_non_cocover_reported_below_threshold(a2, monkeypatch):
    """At depth 1 cases 2 and 4 predict elements that are not cocovers;
    the report lists them instead of raising.  Once the same input counts
    as inside the regime, the check raises again."""
    e, s1 = identity_elt(a2), simple_reflection(a2, 0)
    lam = coweight(a2, (1, 1))
    rep = verify_cover_theorem(e, lam, s1)
    assert rep["below_threshold"] and not rep["match"]
    assert rep["non_cocover"] == [[[-1, 2], "e"], [[1, 1], "e"]]
    assert not rep["missing"] and not rep["extra"]
    monkeypatch.setattr(cover, "cover_depth_threshold", lambda ct: 1)
    with pytest.raises(InvariantError, match="non-cocover length"):
        predicted_cocovers(e, lam, s1)
