"""Type A against a model that shares no code with the package: affine
permutations of Z (``oracles_perm``)."""

from itertools import product

import pytest

from adlv.affine import (
    AffineElt,
    affine_length,
    descent_left,
    descent_right,
    lower_union,
    simple_affine,
)
from adlv.newton import max_newton_brute, newton_point
from adlv.rootsys import build_root_system
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
