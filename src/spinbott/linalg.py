"""Small exact linear algebra over Fraction matrices (lists of lists).

Sums, products and traces are duck-typed and also work for matrices
over other exact rings (cyclotomic entries); elimination-based
routines (rank, solve, det) require field entries, i.e. Fractions.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def diag(entries) -> Matrix:
    n = len(entries)
    out = zeros(n)
    for i, e in enumerate(entries):
        out[i][i] = Fraction(e) if isinstance(e, int) else e
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    bt = [[b[t][j] for t in range(k)] for j in range(m)]
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for t in range(1, k):
                if row[t] and col[t]:
                    acc = acc + row[t] * col[t]
            out_row.append(acc)
        out.append(out_row)
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def trace(a: Matrix):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def masked_trace(a: Matrix, keep) -> Fraction:
    """Trace over the rows/columns selected by the boolean list ``keep``."""
    acc = Fraction(0)
    for i, flag in enumerate(keep):
        if flag:
            acc = acc + a[i][i]
    return acc


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def rank(a: Matrix) -> int:
    """Row rank via exact Gaussian elimination."""
    m = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def solve(a: Matrix, b: list) -> list | None:
    """Solve a x = b exactly; None if the system is singular/inconsistent."""
    n = len(a)
    m = [list(row) + [bv] for row, bv in zip(a, b)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


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
