"""Exact sparse operators, the one matrix format in the package.

``SparseOp`` holds a square operator by columns.  The signed permutations
of the symmetric-group action are held in monomial form, a (perm, sign)
pair of lists; two of them compose by list indexing in O(dim), and every
other product is one loop over columns that costs the nonzeros touched.
There is no dense matrix and no elimination here.
"""

from __future__ import annotations

from .rings import _exact


class SparseOp:
    """A square operator by columns: ``cols[j]`` is ``{row: coeff}``.

    Coefficients are exact and no stored coefficient is zero; integral
    Fractions enter as ints, which keeps integer operators on int
    arithmetic.  An operator with one nonzero per column, on distinct rows,
    is always held in monomial form: ``perm[j]`` is the row and ``sign[j]``
    the coefficient of column j, and ``cols`` is built only when read.
    Every other operator has ``perm`` None.  So each operator has one form,
    and two are equal exactly when their forms and contents are.
    """

    __slots__ = ("_cols", "perm", "sign")

    def __init__(self, cols):
        cols = tuple(cols)
        self._cols, self.perm, self.sign = cols, None, None
        if all(len(col) == 1 for col in cols):
            perm = [r for col in cols for r in col]
            if len(set(perm)) == len(perm):
                self._cols, self.perm = None, perm
                self.sign = [x for col in cols for x in col.values()]

    @classmethod
    def monomial(cls, perm: list, sign: list) -> "SparseOp":
        """Column j holds sign[j] in row perm[j]; perm must be a permutation
        of range(len(perm)) and no sign zero."""
        op = object.__new__(cls)
        op._cols, op.perm, op.sign = None, perm, sign
        return op

    @property
    def cols(self) -> tuple:
        if self._cols is None:
            self._cols = tuple({r: x} for r, x in zip(self.perm, self.sign))
        return self._cols

    @classmethod
    def identity(cls, n: int) -> "SparseOp":
        return cls.monomial(list(range(n)), [1] * n)

    def compose(self, other: "SparseOp") -> "SparseOp":
        """self o other: column j is self applied to column j of other."""
        perm, sign = self.perm, self.sign
        if perm is not None and other.perm is not None:
            return SparseOp.monomial([perm[r] for r in other.perm],
                                     [sign[r] * x for r, x in zip(other.perm, other.sign)])
        out, cols = [], self.cols
        for col in other.cols:
            acc = {}
            for r, x in col.items():
                for i, y in cols[r].items():
                    acc[i] = acc.get(i, 0) + y * x
            out.append({i: v for i, v in acc.items() if v})
        return SparseOp(out)

    def scale(self, c) -> "SparseOp":
        if not c:
            return SparseOp({} for _ in self.cols)
        c = _exact(c)
        if self.perm is not None:
            return SparseOp.monomial(self.perm, [x * c for x in self.sign])
        return SparseOp({i: x * c for i, x in col.items()} for col in self._cols)

    def __eq__(self, other):
        if not isinstance(other, SparseOp):
            return False
        if self.perm is None and other.perm is None:
            return self._cols == other._cols
        return self.perm == other.perm and self.sign == other.sign

    __hash__ = None

    def entries(self):
        """(column, row, coeff) of every nonzero."""
        if self.perm is not None:
            return zip(range(len(self.perm)), self.perm, self.sign)
        return ((c, r, x) for c, col in enumerate(self._cols) for r, x in col.items())

    def trace(self, keep, right: "SparseOp | None" = None):
        """Trace of self, or of self o right, over the basis vectors selected
        by the boolean list ``keep``; an int on integer operators.

        The product is never formed: its diagonal entries are read off the
        nonzeros of self, so a signed permutation costs dim lookups.
        """
        if right is None:
            return sum(x for c, r, x in self.entries() if r == c and keep[r])
        cols = right.cols
        return sum(x * cols[r][c] for c, r, x in self.entries() if keep[r] and c in cols[r])
