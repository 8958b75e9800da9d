"""Type A against a model that shares no code with the package: affine
permutations of Z (``oracles_perm``)."""

from itertools import product

import pytest

from adlv.affine import AffineElt, affine_length, simple_affine
from adlv.newton import newton_point
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
