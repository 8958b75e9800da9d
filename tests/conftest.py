"""Shared test helpers.

The library builds one root system per (type, rank), with its derived root
data on it, and caches one group table per root system in ``weyl._TABLES``;
whatever is derived from a table (the graph, the Newton averaging sums, dp
and ell_red) is kept on that table.  A finite Weyl element is its row of
signed root images, and products and inverses compose and invert rows
whether or not its group's table is cached (E7 and E8 have none); code
holding table indices reads the table's elements.  Fixtures hand out the
cached objects, and a test that needs fresh tables, or no table at all,
monkeypatches ``weyl._TABLES``.  The package is imported from ``src``
through the ``pythonpath`` setting in ``pyproject.toml``.
"""

import pytest

from adlv import affine
from adlv.rootsys import build_root_system


@pytest.fixture(params=[True, False], ids=["dense", "sparse"])
def dense(request, monkeypatch):
    """Run a test with engines forced dense (bitsets, up to rank 3) or sparse
    (frozensets); both hold the same mixed-radix codes of one box."""
    monkeypatch.setattr(affine, "DENSE_MAX_RANK", 3 if request.param else 0)
    return request.param


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B", 2)


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G", 2)


@pytest.fixture(scope="session")
def a3():
    return build_root_system("A", 3)


@pytest.fixture(scope="session")
def b3():
    return build_root_system("B", 3)


@pytest.fixture(scope="session")
def c3():
    return build_root_system("C", 3)


@pytest.fixture(scope="session")
def d4():
    return build_root_system("D", 4)
