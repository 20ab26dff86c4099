"""Small exact linear algebra: dense Fraction matrices and sparse operators.

Dense matrices are lists of lists.  The only elimination left is ``det``
(field entries, i.e. Fractions), for the Gram checks of ``verify``; there
is no dense product, rank or solve.  ``SparseOp`` holds a square operator by
columns; every module operator is one, from the monomial base generators
to the signed permutations and monomial sums on tensor powers, where a
sparse product costs the nonzeros touched instead of dim^3.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import _exact

Matrix = list


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


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

    @classmethod
    def from_dense(cls, a: Matrix) -> "SparseOp":
        return cls({i: _exact(a[i][j]) for i in range(len(a)) if a[i][j]}
                   for j in range(len(a)))

    def to_dense(self) -> Matrix:
        out = zeros(len(self.cols))
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                out[i][j] = Fraction(x)
        return out

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
