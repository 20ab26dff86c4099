"""Exact sparse operators, the one matrix format in the package.

``SparseOp`` holds a square operator by columns; every module operator is
one, from the monomial base generators to the signed permutations and
monomial sums on tensor powers, where a sparse product costs the nonzeros
touched instead of dim^3.  There is no dense matrix and no elimination
here: the Gram checks of ``verify`` read the top-coefficient forms as
signed pairings (``clifford.phi_gram``).
"""

from __future__ import annotations

from fractions import Fraction

from .rings import _exact


class SparseOp:
    """A square operator stored by columns: ``cols[j]`` is ``{row: coeff}``.

    Coefficients are exact and no stored coefficient is zero, so two
    operators are equal exactly when their column dicts are.  Integral
    Fractions enter as ints, which keeps integer operators on int
    arithmetic.
    """

    __slots__ = ("cols",)

    def __init__(self, cols):
        self.cols = tuple(cols)

    @classmethod
    def identity(cls, n: int) -> "SparseOp":
        return cls({j: 1} for j in range(n))

    def compose(self, other: "SparseOp") -> "SparseOp":
        """self o other: column j is self applied to column j of other."""
        mine = self.cols
        out = []
        for col in other.cols:
            acc = {}
            for r, x in col.items():
                for i, y in mine[r].items():
                    acc[i] = acc.get(i, 0) + y * x
            out.append({i: v for i, v in acc.items() if v})
        return SparseOp(out)

    def __add__(self, other: "SparseOp") -> "SparseOp":
        out = []
        for a, b in zip(self.cols, other.cols):
            acc = dict(a)
            for i, x in b.items():
                acc[i] = acc.get(i, 0) + x
            out.append({i: v for i, v in acc.items() if v})
        return SparseOp(out)

    def scale(self, c) -> "SparseOp":
        if not c:
            return SparseOp({} for _ in self.cols)
        c = _exact(c)
        return SparseOp({i: x * c for i, x in col.items()} for col in self.cols)

    def __eq__(self, other):
        return isinstance(other, SparseOp) and self.cols == other.cols

    __hash__ = None

    def trace(self, keep, right: "SparseOp | None" = None):
        """Trace of self, or of self o right, over the basis vectors selected
        by the boolean list ``keep``.

        The product is never formed: its diagonal entries are read off the
        nonzeros of self, so a signed permutation costs dim lookups.
        """
        acc = Fraction(0)
        for r, col in enumerate(self.cols):
            for j, x in col.items():
                if keep[j]:
                    if right is None:
                        if j == r:
                            acc = acc + x
                    elif r in right.cols[j]:
                        acc = acc + x * right.cols[j][r]
        return acc
