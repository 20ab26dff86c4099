"""Element builders that only the tests use: a power of w, a cyclotomic
constant and a Clifford vector, each one call of a checking constructor.

No command or check of the package builds these values on its own, so they
are kept here rather than as classmethods of ``spinbott``.
"""

from __future__ import annotations

from spinbott.clifford import CliffordElement
from spinbott.rings import Cyclotomic


def zeta(order: int, power: int = 1) -> Cyclotomic:
    """w^power in order ``order``, reduced."""
    return Cyclotomic(order, {power % order: 1})


def cyclotomic_const(order: int, c) -> Cyclotomic:
    return Cyclotomic(order, {0: c})


def clifford_vector(form, coords) -> CliffordElement:
    """sum_i coords[i] e_(i+1)."""
    return CliffordElement(form, {1 << i: c for i, c in enumerate(coords)})
