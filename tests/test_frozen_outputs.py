"""Frozen outputs of the cover, Newton and admissible-set paths.

The ``verify newton`` and ``verify cover`` reports hold counts, pass
flags and the failing cases, so a change that moved a prediction and its
oracle together would leave them unchanged.  These digests pin the full outputs instead:
every ``cover_sweep`` report, every ``sweep_records`` record, eta and the
virtual dimension on each admissible member, and the product sets.  An
element is written as its translation part and its finite part's row of
root images, which name it exactly.  The digests were recorded before the
descent peel, the cocover check and the product set stopped building
per-step objects.
"""

import hashlib
import json
from itertools import product

import pytest

from adlv.adm import BInvariants, adm_set, eta, product_set, virtual_dim
from adlv.cover import cover_depth_threshold, cover_sweep
from adlv.newton import sweep_records, theorem_grid
from adlv.rootsys import build_root_system, coweight


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def key(w) -> list:
    return [list(w.lam), list(w.fin.imgs)]


COVER_SWEEP = {
    ("A", 3):
        "2cb3e717225afb3752ce851a1354c65ca5d801b6f4f35578cb1446329c4cb9cd",
    ("B", 2):
        "f16b50f90a52e34c36bf76453d710ba15b76d841e3cbb47ee7d8c0884ef88567",
    ("G", 2):
        "931b73ecdcd78d49a92873e5c038d9d68cb14a220d64ec4806c13c6a2d120c5c",
    ("A", 2):
        "718bdef7078f1c12c19fc8c9c0ee00f237e2420f5b2d200bae623a83e2888178",
    ("C", 2):
        "100272df5e067f2f3dcd6e58a5629303e2019e0f6ffa2dd35cab28b6ffe26761",
}


@pytest.mark.parametrize("ct,n", list(COVER_SWEEP))
def test_cover_sweep_frozen(ct, n):
    """The full ``cover_sweep`` reports at lam in {c, c + 1}^rank, c the
    type's cover depth threshold (the ``verify cover`` grid)."""
    rs = build_root_system(ct, n)
    c = cover_depth_threshold(ct)
    lams = [coweight(rs, p) for p in product((c, c + 1), repeat=n)]
    assert digest(cover_sweep(rs, lams)) == COVER_SWEEP[ct, n]


SWEEP_RECORDS = {
    ("A", 2):
        "2e483852a3e720df2e409f8bf393f9092d502a142a8da55d6adaeedc68c987d2",
    ("B", 2):
        "4b744dbc530e337df3f9f53e4ce0039ac7492eb7c4557a4eb3689f6c3d7b5906",
    ("C", 2):
        "c16191dd887207c9fc632fe62f7ff6734f310eb026d818a54e547617ebd689ef",
}


@pytest.mark.parametrize("ct,n", list(SWEEP_RECORDS))
def test_sweep_records_frozen(ct, n):
    rs = build_root_system(ct, n)
    assert digest(sweep_records(rs, theorem_grid(rs))) == SWEEP_RECORDS[ct, n]


ADM_ETA = {
    ("A", 2):
        "ef9ebb2b5cf1393c564531750a519d214776d17e71c696b0b562b32679a4420d",
    ("B", 2):
        "6af01a1941b09e3fb5eef5286273f1a98b92f80026333ca96c8e112a62350cf4",
    ("G", 2):
        "c5d7d08d21a20c78306eb140559b9acaf8e7796ae662297d2bfb7a3ab2b057e2",
    ("A", 3):
        "02096bb0de3f203f98c69d84610c28ee381b6431d5332400a89b636b5b480ffd",
}


@pytest.mark.parametrize("ct,n", list(ADM_ETA))
def test_adm_eta_and_virtual_dim_frozen(ct, n):
    """The sorted (member, eta, virtual dimension) of Adm(1, ..., 1), the
    dimension taken for the basic class (Newton point 0, defect 0)."""
    rs = build_root_system(ct, n)
    b0 = BInvariants(coweight(rs, (0,) * n), 0)
    rows = sorted(
        [key(w), list(eta(w).imgs), str(virtual_dim(w, b0))]
        for w in adm_set(coweight(rs, (1,) * n)).members
    )
    assert digest(rows) == ADM_ETA[ct, n]


PRODUCT_SET = {
    ("A", 2):
        "15daaa6cc3b05c4ba861062c6bd3f8c2e3f83f65d3dca744db9e9c4e2921f901",
    ("B", 2):
        "3fcbcb1a717cc95320676b4657036b4ef45fdc1ed7ed7663c00902348feca0df",
    ("G", 2):
        "de322ec5f86f715eea7baf90998f230c223a5f8f7fad3cad4da2a7787e9bd552",
}


@pytest.mark.parametrize("ct,n", list(PRODUCT_SET))
def test_product_set_frozen(ct, n):
    rs = build_root_system(ct, n)
    adm = adm_set(coweight(rs, (1,) * n))
    assert digest(sorted(map(key, product_set(adm, adm)))) == PRODUCT_SET[ct, n]
