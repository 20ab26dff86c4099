"""Exact coefficient domains: rationals, cyclotomic integers, truncated polynomials.

Rationals are stored as `int` when integral and as `fractions.Fraction`
(always reduced, positive denominator) otherwise, so integer data stays on
int arithmetic; ``_exact`` is the one place that decides, for
``LineExpr``, ``TruncatedPoly``, ``CliffordElement``, ``Cyclotomic`` and
``linalg.SparseOp``.  The two structured domains live here:

* ``Cyclotomic`` -- the ring Z(w) = Z[x]/(Phi_k(x)) and its rational
  extension, stored reduced mod Phi_k so equality is syntactic.
* ``TruncatedPoly`` -- Q[x1..xr]/(xi^2), the nilpotent ring where virtual
  Bott classes are evaluated.

Both, like ``LineExpr`` and ``CliffordElement``, are ``RingElement``
subclasses: immutable, stored as a sparse ``{monomial: coeff}`` dict, with
sums, differences, scaling, powers, comparisons and text written once there;
every operation is a pure function.  Cyclotomic coefficients are rationals
by default but may be elements of any exact commutative ring implementing
+, -, * (with int and with each other), since reduction mod the monic
integer polynomial Phi_k only ever scales coefficients by integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .config import check_cap


class RingMismatchError(ValueError):
    """Operands belong to distinct rings (order, arity or form disagrees)."""


class NotAUnitError(ZeroDivisionError):
    """Inversion attempted on a non-unit."""


class GaloisActionError(ValueError):
    """w -> w^j is not a Galois element (j shares a factor with the order)."""


class DescentError(ValueError):
    """Element is not Galois-invariant, so it has no rational image.

    ``violating`` is the first exponent j with galois(j) != identity.
    """

    def __init__(self, order: int, violating: int):
        super().__init__(f"not fixed by w -> w^{violating} in order {order}")
        self.order = order
        self.violating = violating


class RingElement:
    """The ring structure shared by every exact ring element of the package.

    A subclass keeps its coefficients in ``coeffs`` -- a ``{monomial:
    coeff}`` dict with no zero entries -- and supplies five things: a
    checking constructor, ``_ring`` (what two operands must share: an
    order, a variable count, a form), ``_new`` (an element of the same
    ring from coefficients), its own ``__mul__``/``__rmul__`` and ``_var``
    (the text of a monomial, '' for the constants).  The printed text is
    written once here from ``_terms``, the (monomial, coefficient) terms
    sorted by the key ``_order`` (by monomial when None); a repr shows
    ``_repr_ring`` before that text.
    Ints and Fractions coerce to constants; an operand from another ring
    raises the subclass's ``_mismatch`` error.  Values are immutable.
    Arithmetic on elements of one ring builds its result with ``_trusted``,
    which skips the checking constructor.  A dict coefficient may itself be
    a ring element (a ``Cyclotomic`` over ``LineExpr``): the constants stay
    plain ints, so no ring needs to carry the zero of its coefficients.
    """

    __slots__ = ()
    _mismatch = RingMismatchError
    _ONE = 0  # the monomial of the constants

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def _const(self, c):
        return self._new({self._ONE: c})

    def _trusted(self, coeffs):
        """An element of this ring from coefficients computed out of
        operands of this ring: zeros are dropped and integral Fractions
        become ints, but no key is re-checked, because the operands' keys
        passed the checking constructor (in range, caps held, stripped)
        and sums, scalings and products keep them so."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            if name != "coeffs":
                object.__setattr__(out, name, getattr(self, name))
        object.__setattr__(out, "coeffs", {m: c if type(c) is int else _exact(c)
                                           for m, c in coeffs.items() if c})
        return out

    def _match(self, other):
        if isinstance(other, type(self)):
            ring = self._ring
            if other._ring is not ring and other._ring != ring:
                raise self._mismatch(f"{type(self).__name__} operands over different "
                                     f"rings: {self._ring} vs {other._ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return self._const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._match(other)
        if o is NotImplemented:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for m, c in o.coeffs.items():
            acc = coeffs.get(m)
            coeffs[m] = c if acc is None else acc + c
        return self._trusted(coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._match(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._trusted({m: -c for m, c in self.coeffs.items()})

    def _scale(self, c):
        return self._trusted({m: x * c for m, x in self.coeffs.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative powers of {type(self).__name__} values "
                             "are not supported")
        if not e:
            return self._const(1)
        out, base = None, self  # square only while bits are left
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._const(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        return self._ring == other._ring and self.coeffs == other.coeffs

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, monomial):
        return self.coeffs.get(monomial, Fraction(0))

    _order = None
    _repr_ring = ""

    def _terms(self):
        """(monomial as ``_var`` reads it, coefficient) of every term, in
        print order: the (monomial, coefficient) items sorted by ``_order``
        (by monomial when None; monomials are distinct)."""
        return sorted(self.coeffs.items(), key=self._order)

    def __str__(self):
        text = ""
        for m, c in self._terms():
            mono = self._var(m)
            a = -c if c < 0 else c
            body = str(a) if not mono else mono if a == 1 else f"{a}*{mono}"
            text += f" {'-' if c < 0 else '+'} {body}"
        if not text:
            return "0"
        return text[3:] if text[1] == "+" else "-" + text[3:]  # "-a + b", "a - b"

    def __repr__(self):
        return f"{type(self).__name__}({self._repr_ring}{str(self)!r})"


def _by_degree(term):
    """The term order of the bitmask rings: by degree, then by mask."""
    m = term[0]
    return m.bit_count(), m


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, divisor monic.
    num = list(num)
    deg_d = len(den) - 1
    out = [0] * (len(num) - deg_d)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + deg_d]
        out[i] = c
        if c:
            for t, d in enumerate(den):
                num[i + t] -= c * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, lowest degree first (monic, integral)."""
    if k < 1:
        raise ValueError("order must be positive")
    if k == 1:
        return (-1, 1)
    num = [-1] + [0] * (k - 1) + [1]  # x^k - 1
    for d in range(1, k):
        if k % d == 0:
            num = _poly_divexact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _exact(c):
    """The stored form of a coefficient: an int or a ring element used as a
    coefficient (a Cyclotomic entry may be one) is kept as it is, anything
    else (a float, a str) is read through Fraction, and an integral
    Fraction becomes its numerator."""
    if type(c) is int or isinstance(c, RingElement):
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# A key of the Cyclotomic reduction holds the power p of w in its low digit
# of _BITS bits, p < 2^71: a plain Cyclotomic's key is its power, and an
# element of Q(w) (x) line expressions (see lambda_bott) is keyed
# p + (line key << _BITS), so the product of two terms adds their keys.
_BITS = 72
_POWER = (1 << _BITS) - 1


def _line_product(left: dict, right: dict) -> dict:
    """The product of two ``{key: coeff}`` dicts whose keys add, the one
    product loop of ``LineExpr`` and ``Cyclotomic``: the key of a product
    of two terms is the sum of theirs."""
    right = right.items()
    coeffs: dict = {}
    get = coeffs.get
    for e1, c1 in left.items():
        for e2, c2 in right:
            e = e1 + e2
            coeffs[e] = get(e, 0) + c1 * c2
    return coeffs


@lru_cache(maxsize=None)
def _power_rows(order: int) -> tuple:
    """(phi(k), rows): rows[q] holds the (t - q, a) terms of w^q mod Phi_k,
    every t below phi(k), for q < 2k, so a key of power q moves by t - q.
    w^q for q >= k is w^(q - k); a power from phi(k) to k - 1 is
    w^(q - phi) times x^phi(k) = -(the lower terms of Phi_k), each a row
    already made."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rows: list = []
    for q in range(2 * order):
        if q < deg:
            rows.append(((q, 1),))
        elif q >= order:
            rows.append(rows[q - order])
        else:
            acc: dict = {}
            for t, a in enumerate(phi[:-1]):
                for s, b in rows[q - deg + t]:
                    acc[s] = acc.get(s, 0) - a * b
            rows.append(tuple((s, c) for s, c in sorted(acc.items()) if c))
    return deg, tuple(tuple((t - q, a) for t, a in row) for q, row in enumerate(rows))


def _reduce_mod_phi(order: int, coeffs: dict) -> dict:
    """``coeffs`` reduced mod Phi_k, zeros dropped and coefficients stored as
    ``_exact`` does: every key's power of w (its low digit, below 2k) below
    phi(k).  The keys of ``coeffs`` are distinct, so a power below phi(k)
    is stored at once; a higher one is then replaced by its row of
    ``_power_rows``, the rest of the key unchanged, and only the entries
    that are no int or zero are read again."""
    deg, rows = _power_rows(order)
    out, high = {}, []
    for key, c in coeffs.items():
        p = key & _POWER
        if p < deg:
            if c:
                out[key] = c if type(c) is int else _exact(c)
        else:
            high.append((key, c, rows[p]))
    if not high:
        return out
    get = out.get
    for key, c, row in high:
        for step, a in row:
            e = key + step
            out[e] = get(e, 0) + (c if a == 1 else -c if a == -1 else a * c)
    for e, c in [(e, c) for e, c in out.items() if type(c) is not int or not c]:
        if c:
            out[e] = _exact(c)
        else:
            del out[e]
    return out


def _galois(order: int, coeffs: dict, j: int) -> dict:
    """The image of ``coeffs`` under w -> w^j, gcd(j, k) = 1, unreduced: each
    power p below k goes to p j mod k, a bijection, so no two keys meet."""
    out = {}
    for key, c in coeffs.items():
        p = key & _POWER
        out[key + (p * j % order - p) if p else key] = c
    return out


def _descend(order: int, coeffs: dict) -> dict:
    """The ``{rest of key: coeff}`` value of a reduced, Galois-invariant
    ``coeffs``.  Over a torsion-free base ring the element is invariant
    exactly when no key holds a power of w above 0, so that is what is
    read; the Galois group is walked only to name the first j with
    galois(j) != self, which the DescentError carries."""
    if any(key & _POWER for key in coeffs):
        raise DescentError(order, next(
            (j for j in range(2, order) if gcd(j, order) == 1
             and _reduce_mod_phi(order, _galois(order, coeffs, j)) != coeffs), 1))
    return {key >> _BITS: c for key, c in coeffs.items()}


class Cyclotomic(RingElement):
    """An element of Omega_k (x) R, reduced mod Phi_k: a sparse map power ->
    coefficient with every power below phi(k)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 1:
            raise ValueError("order must be positive")
        check_cap("max_k", order, "cyclotomic order")
        clean, far, top = {}, [], 2 * order
        for p, c in (coeffs or {}).items():
            if type(p) is not int or p < 0:
                raise ValueError(f"power {p!r} of w is not a nonnegative int")
            if p < top:
                clean[p] = c if type(c) is int else _exact(c)
            else:
                far.append((p, c))
        for p, c in far:  # w^k = 1: folded to below k, where a power may repeat
            p %= order
            clean[p] = clean.get(p, 0) + (c if type(c) is int else _exact(c))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", _reduce_mod_phi(order, clean))

    _ring = property(lambda self: self.order)

    def _new(self, coeffs) -> "Cyclotomic":
        return Cyclotomic(self.order, coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        o = self._match(other)
        if o is NotImplemented:
            return NotImplemented
        return self._trusted(_reduce_mod_phi(self.order, _line_product(self.coeffs, o.coeffs)))

    __rmul__ = __mul__

    # -- Galois structure --------------------------------------------------

    def galois(self, j: int) -> "Cyclotomic":
        """Image under w -> w^j; requires gcd(j, order) = 1."""
        k = self.order
        if gcd(j, k) != 1:
            raise GaloisActionError(f"w -> w^{j} is not invertible mod {k}")
        j %= k
        if j == 1:
            return self
        return self._trusted(_reduce_mod_phi(k, _galois(k, self.coeffs, j)))

    def descend(self):
        """The rational (base-ring) value of a Galois-invariant element, or
        DescentError naming the first j with galois(j) != self."""
        return _descend(self.order, self.coeffs).get(0, Fraction(0))

    # -- text format: "1 - 2*w + w^2@3" -----------------------------------

    def _var(self, p):
        return "" if not p else "w" if p == 1 else f"w^{p}"

    def __str__(self):
        return f"{super().__str__()}@{self.order}"


def _split_terms(s: str):
    # split into (sign, term) pairs; a sign right after '^' is an exponent.
    # Only a leading sign may stand without a term before it, and every
    # sign needs a term after it: "e1--e2" and "e1 +" are refused.
    s = s.strip()
    if not s:
        raise ValueError("empty expression")
    out = []
    sign, buf, prev = 1, [], ""
    for i, ch in enumerate(s):
        if ch in "+-" and prev != "^":
            body = "".join(buf).strip()
            if body:
                out.append((sign, body))
            elif i:
                raise ValueError(f"empty term before {ch!r} in {s!r}")
            sign = -1 if ch == "-" else 1
            buf = []
        else:
            buf.append(ch)
        if not ch.isspace():
            prev = ch
    body = "".join(buf).strip()
    if not body:
        raise ValueError(f"empty term at the end of {s!r}")
    out.append((sign, body))
    return out


def _parse_terms(s: str, token, read, one) -> dict:
    """The {monomial: coefficient} sum of the text ``s``, the one reader of
    every ring's text.  A term is a signed product of ``*``-separated
    factors; a factor that the regex ``token`` matches in full is a
    variable, which ``read(monomial, coeff, match)`` multiplies into the
    term's (monomial, coefficient), starting from (``one``, sign); any
    other factor must be a rational."""
    coeffs: dict = {}
    for sign, term in _split_terms(s):
        m, coeff = one, Fraction(sign)
        for f in term.split("*"):
            f = f.strip()
            match = token.fullmatch(f)
            if match:
                m, coeff = read(m, coeff, match)
            else:
                coeff *= Fraction(f)
        coeffs[m] = coeffs.get(m, 0) + coeff
    return coeffs


_W_RE = re.compile(r"w(?:\^(-?\d+))?")


def parse_cyclotomic(s: str) -> Cyclotomic:
    if "@" not in s:
        raise ValueError(f"missing '@order' in cyclotomic literal: {s!r}")
    body, order_s = s.rsplit("@", 1)
    order = int(order_s)
    if order < 1:
        raise ValueError("order must be positive")
    # w^order = 1, so negative powers are positive ones
    return Cyclotomic(order, _parse_terms(
        body, _W_RE, lambda p, c, w: ((p + int(w[1] or 1)) % order, c), 0))


class TruncatedPoly(RingElement):
    """Element of Q[x1..xr]/(xi^2): sparse map variable-bitmask -> rational."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        check_cap("max_vars", nvars, "variable count")
        clean: dict = {}
        for mask, c in (coeffs or {}).items():
            if mask >> nvars:
                raise ValueError(f"term mask {mask:#x} outside {nvars} variables")
            if type(c) is not int:
                c = _exact(Fraction(c))
            if c:
                clean[mask] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def const(cls, nvars: int, c) -> "TruncatedPoly":
        return cls(nvars, {0: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "TruncatedPoly":
        """x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"x{i} out of range for {nvars} variables")
        return cls(nvars, {1 << (i - 1): 1})

    _ring = property(lambda self: self.nvars)

    def _new(self, coeffs) -> "TruncatedPoly":
        return TruncatedPoly(self.nvars, coeffs)

    def __mul__(self, other):
        """The product, over the pairs of terms on disjoint variables only
        (a repeated variable gives xi^2 = 0).  A left term m1 reads its
        partners among the submasks of its free variables, full ^ m1, when
        there are fewer of those than right terms, each looked up; otherwise
        it scans the right terms and skips those that meet m1.  Dense
        operands over r variables so take 3^r steps instead of 4^r."""
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        o = self._match(other)
        if o is NotImplemented:
            return NotImplemented
        right, full = o.coeffs, (1 << self.nvars) - 1
        coeffs: dict = {}
        for m1, c1 in self.coeffs.items():
            free = full ^ m1
            if 1 << free.bit_count() < len(right):
                m2 = free
                while True:
                    c2 = right.get(m2)
                    if c2 is not None:
                        c = c1 * c2
                        acc = coeffs.get(m1 | m2)
                        coeffs[m1 | m2] = c if acc is None else acc + c
                    if not m2:
                        break
                    m2 = (m2 - 1) & free
            else:
                for m2, c2 in right.items():
                    if not m1 & m2:
                        c = c1 * c2
                        acc = coeffs.get(m1 | m2)
                        coeffs[m1 | m2] = c if acc is None else acc + c
        return self._trusted(coeffs)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.invert() ** -e
        return super().__pow__(e)

    def is_unit(self) -> bool:
        return bool(self.coefficient(0))

    def invert(self) -> "TruncatedPoly":
        """Exact inverse via the finite geometric series.

        Valid exactly when the constant term c is nonzero: then self =
        c (1 + n/c) with n nilpotent, (nvars+1)-st power zero, and the
        inverse is (1/c) sum_i (-n/c)^i, summed by a running term.
        """
        c = self.coefficient(0)
        if not c:
            raise NotAUnitError("zero constant term has no inverse")
        inv_c = 1 / Fraction(c)
        step = (self - c) * -inv_c
        out = term = TruncatedPoly.const(self.nvars, inv_c)
        while term:
            term = term * step
            out = out + term
        return out

    # -- text format: "1/4 - 1/8*x1 + 1/16*x1*x2" ---------------------------

    _order = staticmethod(_by_degree)
    _repr_ring = property(lambda self: f"{self.nvars}, ")

    def _var(self, mask):
        return "*".join(f"x{i + 1}" for i in range(self.nvars) if mask >> i & 1)


_X_RE = re.compile(r"x(\d+)")


def parse_truncated(s: str, nvars: int) -> TruncatedPoly:
    def read(mask, coeff, x):
        i = int(x[1])
        if not 1 <= i <= nvars:
            raise ValueError(f"x{i} out of range for {nvars} variables")
        if mask >> (i - 1) & 1:
            raise ValueError(f"repeated variable x{i} in one term")
        return mask | 1 << (i - 1), coeff

    return TruncatedPoly(nvars, _parse_terms(s, _X_RE, read, 0))
