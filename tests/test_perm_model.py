"""Type A against a model that shares no code with the package: affine
permutations of Z (``oracles_perm``)."""

from itertools import product
from random import Random

import pytest

from adlv.adm import adm_set
from adlv.affine import (
    AffineElt,
    affine_length,
    cocovers,
    descent_left,
    descent_right,
    embed,
    lower_union,
    simple_affine,
    translation,
)
from adlv.cover import cover_depth_threshold, predicted_cocovers
from adlv.newton import max_newton_brute, newton_point
from adlv.rootsys import build_root_system, coweight
from adlv.weyl import enumerate_group

import oracles_perm as perm


def _grid(rank):
    """t^lam x for every x in W and lam in [-2, 2]^rank."""
    rs = build_root_system("A", rank)
    for x in enumerate_group(rs).elements:
        for lam in product(range(-2, 3), repeat=rank):
            yield AffineElt(rs, lam, x)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_length_and_newton_point_match_affine_permutations(rank):
    """The inversion count is ``affine_length`` and the cycle averages are
    ``newton_point``; each simple affine reflection acts on the right as
    its affine transposition, which pins the letter-0 convention and the
    order of t^lam x."""
    gens = [simple_affine(build_root_system("A", rank), j) for j in range(rank + 1)]
    cases = 0
    for w in _grid(rank):
        f = perm.window(w)
        assert perm.length(f) == affine_length(w), w
        assert perm.newton(f) == newton_point(w).pairing, w
        for j, s in enumerate(gens):
            assert perm.window(w.mul(s)) == perm.compose(f, perm.generator(j, rank + 1))
        cases += 1
    assert cases == {1: 10, 2: 150, 3: 3000}[rank]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_descents_match_affine_permutations(rank):
    """Right descents compare neighbouring window entries and left descents
    those of the inverse; they are ``descent_right`` and ``descent_left``
    on the whole grid."""
    letters = range(rank + 1)
    for w in _grid(rank):
        f = perm.window(w)
        assert perm.right_descents(f) == {j for j in letters if descent_right(w, j)}, w
        assert perm.left_descents(f) == {j for j in letters if descent_left(w, j)}, w


# lambda windows of the interval checks: every x in W at each lambda; A3
# includes (1, 0, 0), off the coroot lattice, whose tau is not the identity
INTERVAL_WINDOWS = {
    1: list(product(range(-2, 3), repeat=1)),
    2: list(product(range(-1, 2), repeat=2)),
    3: [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 2, 2)],
}


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_lower_intervals_and_max_newton_match_affine_permutations(rank):
    """The subwords of a reduced word found by right descents are
    ``lower_union([w])``, and their dominance-maximal Newton point, unique,
    is ``max_newton_brute(w)``."""
    rs = build_root_system("A", rank)
    cases = 0
    for lam in INTERVAL_WINDOWS[rank]:
        for x in enumerate_group(rs).elements:
            w = AffineElt(rs, lam, x)
            below = perm.lower_interval(perm.window(w))
            assert below == {tuple(perm.window(u)) for u in lower_union([w])}, w
            assert perm.max_newton(below) == max_newton_brute(w).pairing, w
            cases += 1
    assert cases == {1: 10, 2: 54, 3: 96}[rank]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cocovers_match_affine_permutations(rank):
    """The affine transpositions that shorten a window by exactly one are
    ``cocovers``, on every x at the interval checks' lambda windows."""
    rs = build_root_system("A", rank)
    for lam in INTERVAL_WINDOWS[rank]:
        for x in enumerate_group(rs).elements:
            w = AffineElt(rs, lam, x)
            found = {tuple(perm.window(c)) for c in cocovers(w)}
            assert perm.cocovers(perm.window(w)) == found, w


def _cover_cases(rank):
    """(u, lam, v) with lam in {c, c + 1}^rank, c the depth threshold: every
    u and v in A2, a seeded sample of 60 pairs in A3."""
    rs = build_root_system("A", rank)
    c = cover_depth_threshold("A")
    elements = enumerate_group(rs).elements
    pairs = list(product(elements, repeat=2))
    if rank == 3:
        pairs = Random(0).sample(pairs, 60)
    for lam in product((c, c + 1), repeat=rank):
        for u, v in pairs:
            yield u, coweight(rs, lam), v


@pytest.mark.parametrize("rank", [2, 3])
def test_predicted_cocovers_match_affine_permutations(rank):
    """At depth c and c + 1 the four-case prediction for u t^lam v, whose
    window is composed here from the windows of u, t^lam and v, is exactly
    the set of shortening transpositions."""
    cases = 0
    for u, lam, v in _cover_cases(rank):
        f = perm.compose(perm.compose(perm.window(embed(u)), perm.window(translation(lam))),
                         perm.window(embed(v)))
        res = predicted_cocovers(u, lam, v)
        assert res.status == "ok"
        found = {tuple(perm.window(r.result)) for r in res.records}
        assert found == perm.cocovers(f), (u, lam, v)
        cases += 1
    assert cases == {2: 144, 3: 480}[rank]


@pytest.mark.parametrize("rank,mu", [(2, (1, 0)), (2, (1, 1)), (3, (1, 0, 0)), (3, (0, 1, 0))])
def test_adm_set_matches_affine_permutations(rank, mu):
    """Adm(mu) is the union of the perm-model lower intervals of the
    translations by the permutations of mu's GL_n lift."""
    members = adm_set(coweight(build_root_system("A", rank), mu)).members
    assert {tuple(perm.window(w)) for w in members} == perm.admissible(mu)
