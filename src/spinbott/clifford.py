"""Exact blade arithmetic in the Clifford algebra of a diagonal rational form.

Basis blades are indexed by bitmasks over the orthogonal basis e1..en.
The structure constant of e_a e_b = c e_(a xor b), c the merge sign times
q_i for each shared index, is stated once, in ``_blade_product``, from two
helpers: ``_crossings(a)``, whose parity against b is the sign, and
``_squares(diag)``, a memo per form of the product of the q_i over each
overlap mask a & b.  The checks, the parser and the spinor signs of
``modules`` call ``_blade_product``; the element product applies the same
two helpers with each left blade's crossing mask taken once.  Integral
coefficients are stored as ints (``rings._exact``), as are the integral
entries of a form, so integral forms keep products on int arithmetic; a
coefficient from another exact ring (a ``Cyclotomic``) passes through
unchanged.  On top of the ring structure this module provides the
reversal involution, the adjugate and inverse, Clifford-group
membership with the induced isometry, volume elements, the
top-coefficient bilinear forms on the even/odd parts, the graded-tensor
and untwisting isomorphism checks, and the lifting of symmetric-group
transpositions to even elements of square one.

No dense matrix is eliminated here: adjugates outside the Clifford group
come from Shirokov's characteristic-polynomial recursion (2021), and the
untwisting map is certified by a permutation check on signed blade pairs.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .config import FailedCheckError, check_cap
from .quadforms import QuadraticForm, is_orientable, scale
from .rings import RingElement, RingMismatchError, _by_degree, _exact, _parse_terms

_popcount = int.bit_count


class FormMismatchError(RingMismatchError):
    """Operands live over different quadratic forms."""


class NotOrientableError(ValueError):
    """The form has no volume element of square one over Q."""


def _crossings(a: int) -> int:
    """Bit j set when an odd number of the indices of a lie above j: merging
    e_a with e_b crosses an odd number of pairs exactly when bit j is set
    for an odd number of j in b."""
    x = a >> 1
    shift = 1
    while x >> shift:  # suffix xor by doubling
        x ^= x >> shift
        shift <<= 1
    return x


class _Squares(dict):
    """mask -> the product of diag[i] over the bits i of mask, each entry
    computed on first use from the entry one bit shorter."""

    __slots__ = ("diag",)

    def __init__(self, diag):
        super().__init__({0: 1})
        self.diag = diag

    def __missing__(self, mask):
        low = mask & -mask
        self[mask] = out = self[mask ^ low] * self.diag[low.bit_length() - 1]
        return out


_squares = lru_cache(maxsize=None)(_Squares)  # one memo per diagonal a process meets


def _blade_product(a: int, b: int, squares: _Squares, c=1):
    """c times the structure constant of e_a e_b = x e_(a xor b): the sign of
    the index crossings merging a with b, times diag[i] for each i in a and
    b, read from ``squares = _squares(diag)``."""
    if _popcount(_crossings(a) & b) & 1:
        c = -c
    common = a & b
    return c * squares[common] if common else c


class CliffordElement(RingElement):
    """Sparse element of C(V, q): map from blade bitmask to coefficient."""

    __slots__ = ("form", "coeffs")
    _mismatch = FormMismatchError

    def __init__(self, form: QuadraticForm, coeffs=None):
        check_cap("max_dim", form.rank, "Clifford rank")
        clean = {}
        top = 1 << form.rank
        for mask, c in (coeffs or {}).items():
            if not 0 <= mask < top:
                raise ValueError(f"blade mask {mask:#x} outside rank {form.rank}")
            if type(c) is not int:
                c = _exact(c)
            if c:
                clean[mask] = c
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def scalar(cls, form: QuadraticForm, c) -> "CliffordElement":
        return cls(form, {0: c})

    @classmethod
    def generator(cls, form: QuadraticForm, i: int) -> "CliffordElement":
        """e_i, 1-based."""
        if not 1 <= i <= form.rank:
            raise ValueError(f"e{i} out of range for rank {form.rank}")
        return cls(form, {1 << (i - 1): 1})

    # -- ring structure ----------------------------------------------------

    _ring = property(lambda self: self.form)

    def _new(self, coeffs) -> "CliffordElement":
        return CliffordElement(self.form, coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        o = self._match(other)
        if o is NotImplemented:
            return NotImplemented
        squares = _squares(self.form.diag)
        right = o.coeffs.items()
        coeffs: dict = {}
        get = coeffs.get
        for m1, c1 in self.coeffs.items():
            cross = _crossings(m1)  # the rule of _blade_product, signed once per left blade
            for m2, c2 in right:
                c = c1 * c2
                if _popcount(cross & m2) & 1:
                    c = -c
                common = m1 & m2
                if common:
                    c = c * squares[common]
                m = m1 ^ m2
                acc = get(m)
                coeffs[m] = c if acc is None else acc + c
        return self._trusted(coeffs)

    __rmul__ = __mul__

    # -- grading and involution ---------------------------------------------

    def degree(self):
        """0 or 1 for homogeneous elements, None otherwise (0 for zero)."""
        parities = {_popcount(m) & 1 for m in self.coeffs}
        if not parities:
            return 0
        if len(parities) > 1:
            return None
        return parities.pop()

    def bar(self) -> "CliffordElement":
        """The reversal involution: fixes V, reverses blade factors."""
        out = {}
        for m, c in self.coeffs.items():
            r = _popcount(m)
            out[m] = -c if (r * (r - 1) // 2) & 1 else c
        return CliffordElement(self.form, out)

    def is_scalar(self) -> bool:
        return not any(m for m in self.coeffs)

    def adjugate(self) -> tuple:
        """(adj, det) with a adj = adj a = det, a scalar: a is a unit iff
        det != 0, and then a^-1 = adj / det.

        When N(a) = a bar(a) is a nonzero scalar (every Clifford-group
        element), this is (bar(a), N(a)).  Otherwise the characteristic-
        polynomial recursion of Shirokov (Comput. Appl. Math. 40, 173 (2021))
        runs in the algebra: with N = 2^ceil(n/2), U_1 = a,
        C_j = (N/j) <U_j>_0 and U_(j+1) = a (U_j - C_j), the scalar part
        scaled by N is the trace of an N-dimensional faithful representation,
        so Cayley-Hamilton makes U_N the scalar C_N = det, and
        adj = U_(N-1) - C_(N-1), at the cost of N sparse products.  Integral
        coefficients keep the recursion on ints.
        """
        a_bar = self.bar()
        nbar = self * a_bar
        if nbar.is_scalar() and nbar.coefficient(0):
            return a_bar, nbar.coefficient(0)
        size = 1 << (self.form.rank + 1) // 2
        u, adj = self, CliffordElement.scalar(self.form, 1)  # U_j, U_(j-1) - C_(j-1)
        for j in range(1, size):
            adj = u - Fraction(size, j) * u.coefficient(0)
            u = self * adj
        if not u.is_scalar():
            raise FailedCheckError("Cayley-Hamilton failed: U_N is not a scalar")
        det = u.coefficient(0)
        if adj * self != u:
            raise FailedCheckError("the Cayley-Hamilton adjugate does not commute with a")
        return adj, det

    def inverse(self) -> "CliffordElement | None":
        """Two-sided inverse adj / det, or None when the element is not a unit."""
        adj, det = self.adjugate()
        return adj * Fraction(1, det) if det else None

    # -- textual element format: "2*e1e3 - e2 + 1" --------------------------

    _order = staticmethod(_by_degree)
    _repr_ring = property(lambda self: f"{str(self.form)!r}, ")

    def _var(self, mask):
        return "".join(f"e{i + 1}" for i in range(self.form.rank) if mask >> i & 1)


# -- volume element ----------------------------------------------------------

def volume_element(q: QuadraticForm) -> CliffordElement:
    """u = s e1...en with u^2 = 1, even, anticommuting with V.

    Exists exactly when the form is orientable; s is the orientation
    witness.
    """
    ok, s = is_orientable(q)
    if not ok:
        raise NotOrientableError(f"<{q}> has no volume element over Q")
    return CliffordElement(q, {(1 << q.rank) - 1: s})


# -- Clifford group membership ------------------------------------------------

class Membership(namedtuple("Membership", "member reason degree images norm in_spin",
                            defaults=("", None, None, None, False))):
    """Outcome of the Clifford-group test; a member's ``images[c]`` is the
    image of e_(c+1) under its isometry, as {t: coeff} with t 0-based, and
    a non-member has a ``reason``."""

    __slots__ = ()

    def rows(self) -> list:
        """Dense rows: row r, column c is the coefficient of e_(r+1) in img(e_(c+1))."""
        return [[img.get(r, 0) for img in self.images] for r in range(len(self.images))]


def clifford_group_test(a: CliffordElement) -> Membership:
    """Membership of a in the Clifford group, with the induced isometry.

    Checks homogeneity, invertibility and stability of V under twisted
    conjugation v -> (-1)^deg(a) a v a^-1; members also get their
    spinorial norm and the Spin flag (even of norm one).  Images that do
    not preserve the form are a failed check.

    Conjugation does not see scalars, so it runs on b = L a, L the lcm of
    the coefficient denominators, and on the integer adjugate (adj, det) of
    b: det = 0 is no unit, and the images are (-1)^deg(a) b e_i adj, divided
    by det once.  Over a nondegenerate form every member has a nonzero
    scalar norm N(b) = b bar(b), so its adjugate is bar(b), det is N(b) and
    the norm is N(b) / L^2; any other adjugate whose images stay in V is a
    failed check.

    Only the generators in the support of a (the union of its blade masks)
    are conjugated: every other e_i anticommutes with each blade of a as
    often as deg(a), so e_i b = (-1)^deg(a) b e_i and its image is e_i
    itself.  The pairing check still reads every pair of images.
    """
    deg = a.degree()
    if deg is None:
        return Membership(False, reason="not homogeneous")
    if not a.coeffs:
        return Membership(False, reason="zero is not invertible")
    den = lcm(*(c.denominator for c in a.coeffs.values()))
    b = a * den
    adj, det = b.adjugate()
    if not det:
        return Membership(False, reason="not invertible")
    diag = a.form.diag
    sign = -1 if deg else 1
    support = 0
    for m in b.coeffs:
        support |= m
    images = []
    for i in range(1, len(diag) + 1):
        if not support >> (i - 1) & 1:
            images.append({i - 1: 1})
            continue
        img = b * CliffordElement.generator(a.form, i) * adj
        if any(_popcount(m) != 1 for m in img.coeffs):
            return Membership(False, reason=f"conjugation moves e{i} outside V")
        images.append({m.bit_length() - 1: _exact(Fraction(sign * c, det))
                       for m, c in img.coeffs.items()})
    if adj != b.bar():
        raise FailedCheckError("a member has no scalar norm a bar(a)")
    for i, x in enumerate(images):
        for j, y in enumerate(images[i:], i):
            pair = sum(c * diag[t] * y[t] for t, c in x.items() if t in y)  # b(img_i, img_j)
            if pair != (diag[i] if i == j else 0):
                raise FailedCheckError("matrix does not preserve the form")
    norm = _exact(Fraction(det, den * den))
    return Membership(True, degree=deg, images=tuple(images), norm=norm,
                      in_spin=(deg == 0 and norm == 1))


# -- the even/odd top-coefficient bilinear forms ------------------------------

def phi_gram(q: QuadraticForm, parity: int) -> dict:
    """The form (a, b) -> s * top-blade coefficient of a b on C^parity, as a
    signed pairing ``{m: entry}`` over the blades m of that parity.

    e_a e_b lands on e_top only when b is the complement top ^ a, so row m
    of the Gram matrix on the sorted blade basis holds one nonzero, the
    entry, in column top ^ m.  The form is symmetric for parity 0,
    antisymmetric for parity 1 and nondegenerate in both cases; s is the
    orientation witness trivializing the top exterior power.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    ok, s = is_orientable(q)
    if not ok:
        raise NotOrientableError("the top power is only trivialized for orientable forms")
    check_cap("max_dim", q.rank, "Clifford rank")
    top = (1 << q.rank) - 1
    squares = _squares(q.diag)
    return {m: _blade_product(m, top ^ m, squares, s)
            for m in range(top + 1) if _popcount(m) & 1 == parity}


def pairing_det(pairing: dict):
    """Determinant of the Gram matrix of a ``phi_gram`` pairing.

    Complementing reverses the sorted blade basis, so the determinant is
    the sign of that reversal, (-1)^(N(N-1)/2) for N blades, times the
    product of the entries.
    """
    n = len(pairing)
    return prod(pairing.values(), start=-1 if n % 4 in (2, 3) else 1)


# -- graded tensor decomposition ----------------------------------------------

def graded_tensor_check(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Structure constants of C(V + W) match those of C(V) (x) C(W).

    The graded tensor multiplies with the Koszul sign
    (a (x) b)(c (x) d) = (-1)^(deg b deg c) (ac (x) bd); blades of the sum
    are identified with blade pairs, V factors first.  Both sides of a
    blade product land on the same pair (a xor c, b xor d), so only the
    structure constants are compared.
    """
    n1, n2 = q1.rank, q2.rank
    check_cap("max_dim", n1 + n2, "Clifford rank")
    sq1, sq2 = _squares(q1.diag), _squares(q2.diag)
    sqsum = _squares(q1.diag + q2.diag)
    for a1 in range(1 << n1):
        for b1 in range(1 << n2):
            left = a1 | (b1 << n1)
            for a2 in range(1 << n1):
                # Koszul sign of moving b1 past a2
                koszul = -1 if (_popcount(b1) & _popcount(a2) & 1) else 1
                pa = _blade_product(a1, a2, sq1, koszul)
                for b2 in range(1 << n2):
                    if (_blade_product(left, a2 | (b2 << n1), sqsum)
                            != _blade_product(b1, b2, sq2, pa)):
                        return False
    return True


# -- untwisting: C(V + <1>^r) ~ C(V) (x) C^{0,r}, ungraded tensor -------------

class UntwistIso(namedtuple("UntwistIso", "form r gen_images relations_ok bijective")):
    """Verified untwisting map onto the ungraded tensor with C^{0,r}.

    ``gen_images[i]`` is the image of the i-th source generator as a map
    (V-blade mask, extra-blade mask) -> coefficient; the first n entries
    are the original generators, the last r the adjoined unit ones.
    """

    __slots__ = ()


def untwist_iso(q: QuadraticForm, r: int) -> UntwistIso:
    """Send v -> v (x) 1 and each new unit generator t -> u (x) t.

    The target multiplies without Koszul signs; u is the volume element,
    so the images anticommute as required and the map extends to an
    algebra homomorphism, checked on all generator relations.  As u is
    one signed blade, every generator image is one signed blade pair
    (V-mask, extra mask, coeff), and so is every product of them: the map
    has one nonzero entry per column of the blade-pair basis, and it is
    bijective exactly when the 2^(n+r) blade images have pairwise distinct
    mask pairs.  No matrix is formed.
    """
    if r < 1:
        raise ValueError("need at least one extra generator")
    n = q.rank
    check_cap("max_dim", n + r, "Clifford rank")  # C(V + <1>^r) is never built
    [(top, s)] = volume_element(q).coeffs.items()
    ones = (1,) * r
    src = q.diag + ones  # the diagonal of V + <1>^r
    squares, unit = _squares(q.diag), _squares(ones)

    def mul(x, y):  # the ungraded product of two signed blade pairs
        (v1, w1, c1), (v2, w2, c2) = x, y
        return (v1 ^ v2, w1 ^ w2,
                _blade_product(w1, w2, unit, _blade_product(v1, v2, squares, c1 * c2)))

    gens = [(1 << i, 0, 1) for i in range(n)] + [(top, 1 << j, s) for j in range(r)]
    # both sides of a relation land on the same mask pair: compare coefficients
    relations_ok = all(
        mul(g, g) == (0, 0, src[i])
        and all(mul(g, h)[2] == -mul(h, g)[2] for h in gens[i + 1:])
        for i, g in enumerate(gens))

    # image of every source blade, built from its prefix blade: the image of
    # mask + 2^i (all bits of mask below i) is image(mask) * gens[i]
    images = [(0, 0, 1)]
    for g in gens:
        images += [mul(img, g) for img in images]
    bijective = len({img[:2] for img in images}) == len(images)
    return UntwistIso(q, r, tuple({(v, w): c} for v, w, c in gens), relations_ok, bijective)


# -- lifting transpositions to the spinorial level -----------------------------

class SpinLift(namedtuple("SpinLift", "form copies generators lambda_sign squares_ok "
                                      "braid_ok commutation_ok matrices_ok norms in_spin")):
    """Lifted transposition generators in C(V^k) with their relation report."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.squares_ok and self.braid_ok and self.commutation_ok and self.matrices_ok


def braid_normalize(gens: list) -> tuple:
    """(corrected generators, sign): fix the braid defect of square-one lifts.

    The two braid words of consecutive lifts always agree up to a scalar
    of square one; when it is -1, replacing the even-indexed generators
    (1-based) by their negatives restores the relation.  The sign is read
    off the algebra, never assumed.
    """
    if len(gens) < 2:
        return list(gens), Fraction(1)
    x = gens[0] * gens[1] * gens[0]
    y = gens[1] * gens[0] * gens[1]
    mask, c = next(iter(y.coeffs.items()))
    lam = Fraction(x.coefficient(mask), c)
    if x != y * lam or lam not in (1, -1):
        raise FailedCheckError("braid words are not proportional by a sign")
    if lam != 1:
        gens = [g * lam if (i + 1) % 2 == 0 else g for i, g in enumerate(gens)]
    return list(gens), lam


def spin_lift(q: QuadraticForm, k: int) -> SpinLift:
    """Even square-one elements of C(V^k) inducing the adjacent swaps.

    Each generator g_c = s2 b_c is the volume element of the antidiagonal
    copy of (V, 2q) inside summands c and c+1: s2 is the orientation
    witness of (V, 2q) and b_c = prod_j (e_(cn+j) - e_((c+1)n+j)) has
    integer coefficients.  The braid and commutation relations are
    homogeneous in s2, so the scalar relating the two braid words, the
    correction of the even-indexed generators when it is -1, and those
    relations are computed on the b_c; the squares are checked as
    s2^2 b_c^2 = 1.  Only the generators and the Clifford-group tests use
    g_c itself.  Every relation is an exact algebra identity.
    """
    n = q.rank
    if k < 2:
        raise ValueError("need at least two copies")
    if n % 2:
        raise ValueError("rank must be even")
    ok, _ = is_orientable(q)
    if not ok:
        raise NotOrientableError("the form must be orientable")

    big = QuadraticForm(q.diag * k)
    ok2, s2 = is_orientable(scale(q, 2))
    if not ok2:
        raise NotOrientableError("(V, 2q) must be orientable")

    def antidiagonal(c: int) -> CliffordElement:
        # b_c: the blade product of the antidiagonal {(v, -v)} of copies c, c+1
        out = CliffordElement.scalar(big, 1)
        for j in range(n):
            out = out * (CliffordElement.generator(big, c * n + j + 1)
                         - CliffordElement.generator(big, (c + 1) * n + j + 1))
        return out

    bs, lam = braid_normalize([antidiagonal(c) for c in range(k - 1)])
    gens = [b * s2 for b in bs]
    one = CliffordElement.scalar(big, 1)

    def induces_swap(c, res) -> bool:
        # the swap of coordinate blocks c and c+1 (0-based) moves e_t by +-n
        shift = {c: n, c + 1: -n}
        return res.member and res.degree == 0 and all(
            img == {t + shift.get(t // n, 0): 1} for t, img in enumerate(res.images))

    # one Clifford-group test per generator, its images dropped once read
    tests = [(res.norm, res.in_spin, induces_swap(c, res))
             for c, res in enumerate(map(clifford_group_test, gens))]
    return SpinLift(
        q, k, gens, lam,
        squares_ok=all(b * b * (s2 * s2) == one for b in bs),
        braid_ok=all(bs[i] * bs[i + 1] * bs[i] == bs[i + 1] * bs[i] * bs[i + 1]
                     for i in range(len(bs) - 1)),
        commutation_ok=all(bs[i] * bs[j] == bs[j] * bs[i]
                           for i in range(len(bs)) for j in range(i + 2, len(bs))),
        matrices_ok=all(ok for _, _, ok in tests),
        norms=[norm for norm, _, _ in tests],
        in_spin=[spin for _, spin, _ in tests])


_BLADE_RE = re.compile(r"e.*", re.S)  # a factor starting with e is a run of generators e<i>
_GEN_RE = re.compile(r"e(\d+)")


def parse_element(s: str, form: QuadraticForm) -> CliffordElement:
    squares = _squares(form.diag)

    def read(mask, coeff, blade):
        f, last = blade[0], 0
        for g in _GEN_RE.finditer(f):
            if g.start() != last:
                raise ValueError(f"cannot parse blade {f!r}")
            i, last = int(g[1]), g.end()
            if not 1 <= i <= form.rank:
                raise ValueError(f"e{i} out of range for rank {form.rank}")
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError(f"repeated generator e{i}")
            # e_i moves left past the higher generators already read
            coeff = _blade_product(mask, bit, squares, coeff)
            mask |= bit
        if last != len(f):
            raise ValueError(f"cannot parse blade {f!r}")
        return mask, coeff

    return CliffordElement(form, _parse_terms(s, _BLADE_RE, read, 0))
