"""Dense Fraction elimination, kept as an independent oracle for the Clifford layer.

``spinbott.clifford`` inverts outside the Clifford group by a
characteristic-polynomial recursion and certifies the untwisting map by a
permutation check on blade pairs.  The code here is the dense path those
replaced: the inverse solves a x = 1 in the regular representation on the
2^n blade basis, and bijectivity is the rank of the 2^(n+r) blade images
as columns.  ``phi_gram`` returns a signed pairing; the oracle here is the
full Gram matrix of the top-coefficient form, read off element products,
with its determinant by elimination.  ``rank``, ``solve`` and ``det`` are
plain Gaussian elimination and live only here, so a bug in the sparse code
cannot be shared with its oracle.  It costs 8^n and is meant for n <= 8
only.
"""

from __future__ import annotations

from fractions import Fraction

from spinbott.clifford import CliffordElement
from spinbott.quadforms import QuadraticForm, is_orientable


def rank(a) -> int:
    """Row rank via exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in a]
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


def solve(a, b) -> list | None:
    """Solve a x = b exactly; None if the system is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
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


def det(a) -> Fraction:
    """Determinant via exact Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
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


def dense_phi_gram(q: QuadraticForm, parity: int) -> tuple[list, list]:
    """(basis, Gram): the sorted blades of that parity, and the matrix of
    (a, b) -> s * top coefficient of a b, s the orientation witness."""
    _, s = is_orientable(q)
    top = (1 << q.rank) - 1
    basis = [m for m in range(top + 1) if bin(m).count("1") % 2 == parity]
    blades = [CliffordElement(q, {m: 1}) for m in basis]
    return basis, [[s * (a * b).coefficient(top) for b in blades] for a in blades]


def dense_inverse(a: CliffordElement) -> CliffordElement | None:
    """Two-sided inverse of a by solving a x = 1 on the 2^n blade basis."""
    dim = 1 << a.form.rank
    mat = [[0] * dim for _ in range(dim)]
    for j in range(dim):
        for i, c in (a * CliffordElement(a.form, {j: 1})).coeffs.items():
            mat[i][j] = c
    x = solve(mat, [1] + [0] * (dim - 1))
    if x is None:
        return None
    inv = CliffordElement(a.form, dict(enumerate(x)))
    assert a * inv == 1 and inv * a == 1
    return inv


def dense_untwist_bijective(q: QuadraticForm, r: int, gen_images) -> bool:
    """Rank of the blade images of the untwisting map, from its generator images.

    Blade images are products of generator images in increasing index
    order in the ungraded tensor C(V) (x) C^{0,r}, written out as dense
    columns over the blade-pair basis.
    """
    n = q.rank
    ones = QuadraticForm((1,) * r)

    def tensor_mul(x, y):
        out: dict = {}
        for (mv1, mr1), c1 in x.items():
            for (mv2, mr2), c2 in y.items():
                pv = CliffordElement(q, {mv1: 1}) * CliffordElement(q, {mv2: 1})
                pr = CliffordElement(ones, {mr1: 1}) * CliffordElement(ones, {mr2: 1})
                for mv, cv in pv.coeffs.items():
                    for mr, cr in pr.coeffs.items():
                        out[mv, mr] = out.get((mv, mr), 0) + c1 * c2 * cv * cr
        return out

    dim = 1 << (n + r)
    cols = []
    for mask in range(dim):
        img = {(0, 0): 1}
        for i in range(n + r):
            if mask >> i & 1:
                img = tensor_mul(img, gen_images[i])
        col = [0] * dim
        for (mv, mr), c in img.items():
            col[mv | (mr << n)] = c
        cols.append(col)
    return rank(cols) == dim
