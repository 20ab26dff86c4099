"""Dense Gram diagonalization, kept as an oracle for the quadratic-form layer.

No command takes a Gram matrix, so ``spinbott.quadforms`` works on diagonal
forms only; the congruence tests build a Gram matrix from a form and a
change of basis and read the form back through this dense Fraction
elimination, which lives only here.
"""

from __future__ import annotations

from fractions import Fraction

from spinbott.quadforms import DegenerateFormError, QuadraticForm


def diagonalize(gram, want_basis: bool = False):
    """Diagonal form congruent to a symmetric nonsingular Gram matrix.

    Returns the QuadraticForm, or (form, B) with B^T gram B diagonal when
    ``want_basis`` is set.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    if any(len(row) != n for row in a):
        raise ValueError("Gram matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("Gram matrix must be symmetric")

    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def add_col(dst, src, f):
        # basis change e_dst += f * e_src, applied congruently
        for t in range(n):
            a[t][dst] += f * a[t][src]
        for t in range(n):
            a[dst][t] += f * a[src][t]
        for t in range(n):
            basis[t][dst] += f * basis[t][src]

    def swap_col(i, j):
        for t in range(n):
            a[t][i], a[t][j] = a[t][j], a[t][i]
        for t in range(n):
            a[i][t], a[j][t] = a[j][t], a[i][t]
        for t in range(n):
            basis[t][i], basis[t][j] = basis[t][j], basis[t][i]

    for i in range(n):
        if a[i][i] == 0:
            j = next((t for t in range(i + 1, n) if a[t][t] != 0), None)
            if j is not None:
                swap_col(i, j)
            else:
                # all remaining diagonal zero; rows and columns before i are
                # cleared, so a zero row i here makes the matrix singular
                j = next((t for t in range(i + 1, n) if a[i][t] != 0), None)
                if j is None:
                    raise DegenerateFormError("singular Gram matrix")
                add_col(i, j, Fraction(1))
        pivot = a[i][i]
        for j in range(i + 1, n):
            if a[i][j]:
                add_col(j, i, -a[i][j] / pivot)

    form = QuadraticForm(tuple(a[i][i] for i in range(n)))
    return (form, basis) if want_basis else form
