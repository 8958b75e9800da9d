"""Exact-arithmetic toolkit for affine Weyl group combinatorics.

Everything is integer or Fraction arithmetic; no floats, no tolerances.
The modules layer bottom-up:

- rootsys: root systems, coweights, pairings, dominance, and the per-type
  table of constants (ranks, group orders, thresholds, bounds)
- weyl: finite Weyl group elements and cached group tables
- affine: extended affine Weyl group, Bruhat intervals, Demazure products
- qbg: the quantum Bruhat graph, weights, and closed-form weight tables
- newton: maximal Newton points, closed form vs interval brute force
- cover: cocover classification of elements with dominant translation part
- adm: admissible sets, membership, and dimension-formula arithmetic
- cascade: involution cascades and depth statistics
- cli: the ``adlv`` command-line front end
"""

__version__ = "0.1.0"

from .errors import BudgetError, RefusalError

__all__ = ["BudgetError", "RefusalError", "__version__"]
