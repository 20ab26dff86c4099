"""Lambda-ring engine: Bott classes and their square root.

K-classes come in two shapes with a one-way conversion between them:

* ``LineExpr`` -- integer combinations of Laurent monomials in formal line
  symbols L1..Lr, where the splitting principle is literal arithmetic;
* ``LambdaVector`` -- a rank n together with the exterior powers
  (lam^1..lam^n) in some exact coefficient ring.

On these the module computes the multiplicative Bott class (line
product form and cyclotomic product form with Galois descent), the square
root of the Bott class on self-dual even-rank classes, the corrected
class, and the closed sphere-coefficient formulas checked against the
truncated-ring evaluation.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add

from .config import FailedCheckError, check_cap
from .rings import (Cyclotomic, NotAUnitError, RingElement, TruncatedPoly,
                    _exact, _parse_terms, _product_mod_phi)


class NotEffectiveError(ValueError):
    """Operation needs nonnegative integer coefficients; route the input
    through the virtual (truncated-ring) evaluation instead."""


class FormulaMismatchError(FailedCheckError):
    """The two sphere-computation paths disagree."""


def _strip(exps) -> tuple:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def _line_product(left: dict, right: dict) -> dict:
    """The product of two ``{exponent tuple: coeff}`` dicts with stripped
    keys, the one product loop of ``LineExpr``.

    Keys are stripped, so the longer key's tail is copied as it is and only
    a sum of two keys of equal length can end in a cancelled 0.
    """
    right = [(e2, len(e2), c2) for e2, c2 in right.items()]
    coeffs: dict = {}
    get = coeffs.get
    for e1, c1 in left.items():
        n1 = len(e1)
        for e2, n2, c2 in right:
            e = tuple(map(_add, e1, e2))
            if n1 > n2:
                e += e1[n2:]
            elif n1 < n2:
                e += e2[n1:]
            elif e and not e[-1]:
                e = _strip(e)
            coeffs[e] = get(e, 0) + c1 * c2
    return coeffs


class LineExpr(RingElement):
    """Linear combination of Laurent monomials in line symbols L1, L2, ..."""

    __slots__ = ("coeffs",)
    _ONE = ()

    def __init__(self, coeffs=None):
        # keys equal after stripping name one monomial: their coefficients add
        clean = {}
        for exps, c in (coeffs or {}).items():
            key = _strip(exps)
            clean[key] = clean.get(key, 0) + (c if type(c) is int else Fraction(c))
        object.__setattr__(self, "coeffs", {e: c if type(c) is int else _exact(c)
                                            for e, c in clean.items() if c})

    @classmethod
    def scalar(cls, c) -> "LineExpr":
        return cls({(): c})

    @classmethod
    def symbol(cls, i: int) -> "LineExpr":
        """L_i, 1-based."""
        if i < 1:
            raise ValueError("line symbols are 1-based")
        return cls({(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exps, c=1) -> "LineExpr":
        return cls({tuple(exps): c})

    _ring = None  # one ring: every line symbol is available to every expression

    def _new(self, coeffs) -> "LineExpr":
        return LineExpr(coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        o = self._match(other)
        if o is NotImplemented:
            return NotImplemented
        return self._trusted(_line_product(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    @property
    def nsymbols(self) -> int:
        return max((len(e) for e in self.coeffs), default=0)

    def is_effective(self) -> bool:
        return all(c > 0 and c.denominator == 1 for c in self.coeffs.values())

    def monomials(self):
        """(exponent tuple, multiplicity) pairs; effective input only."""
        if not self.is_effective():
            raise NotEffectiveError("expression has negative or fractional coefficients")
        return [(e, int(c)) for e, c in sorted(self.coeffs.items())]

    def _var(self, exps):
        return "*".join(f"L{i}" if e == 1 else f"L{i}^{e}"
                        for i, e in enumerate(exps, start=1) if e)


@dataclass(frozen=True)
class LambdaVector:
    """Rank n plus the exterior powers lam^1..lam^n in an exact ring."""

    rank: int
    lams: tuple

    def __post_init__(self):
        if self.rank < 0 or len(self.lams) != self.rank:
            raise ValueError("need exactly rank many lambda values")
        object.__setattr__(self, "lams", tuple(self.lams))

    def lam(self, j: int):
        if j == 0:
            return 1
        return self.lams[j - 1] if 1 <= j <= self.rank else 0

    @property
    def delta(self):
        """(-1)^n lam^n, the discriminant-like unit of the class."""
        top = self.lam(self.rank)
        return top if self.rank % 2 == 0 else -top

    def is_self_dual(self) -> bool:
        """lam^j = lam^(n-j) for all j (with lam^0 = 1)."""
        n = self.rank
        if self.lam(n) != 1:
            return False
        return all(self.lam(j) == self.lam(n - j) for j in range(1, n))


def trivial_lambda_vector(n: int) -> LambdaVector:
    """Lambda vector of the trivial rank-n class: binomial coefficients."""
    from math import comb
    return LambdaVector(n, tuple(Fraction(comb(n, j)) for j in range(1, n + 1)))


def line_to_lambda(x: LineExpr) -> LambdaVector:
    """Elementary-symmetric expansion of an effective sum of line monomials."""
    monos = []
    for exps, mult in x.monomials():
        monos.extend([exps] * mult)
    elems = [LineExpr.scalar(1)]
    for exps in monos:  # multiply out prod (1 + t M)
        m = LineExpr.monomial(exps)
        nxt = [elems[0]]
        for j in range(1, len(elems) + 1):
            prev = elems[j] if j < len(elems) else LineExpr.scalar(0)
            nxt.append(prev + elems[j - 1] * m)
        elems = nxt
    return LambdaVector(len(monos), tuple(elems[1:]))


# -- Bott classes -------------------------------------------------------------

def _geometric_power(k: int, m: int) -> list:
    """The coefficients a_0..a_(m(k-1)) of (1 + t + ... + t^(k-1))^m.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7): a_0 = 1
    and j a_j = sum_(i=1..min(k-1, j)) ((m+1) i - j) a_(j-i), the division
    exact.  The sum is (m+1) s1 - j s0 over the window s0 = sum a_(j-i),
    s1 = sum i a_(j-i), i = 1..k-1, which slides in O(1) per step.
    """
    a = [1]
    s0 = s1 = 0
    for j in range(1, m * (k - 1) + 1):
        enter, leave = a[j - 1], a[j - k] if j >= k else 0
        s1 += s0 + enter - k * leave
        s0 += enter - leave
        a.append(((m + 1) * s1 - j * s0) // j)
    return a


def _check_line_budget(monos, k: int) -> None:
    """Refuse a line expansion whose estimated size exceeds max_output_mb.

    It has at most T = prod (mult (k-1) + 1) monomials over the nontrivial
    line monomials, and each coefficient at most B = ceil(sum mult log2 k)
    bits, so it takes about T (B/8 + 100) bytes, 100 bytes being a dict
    entry with its key tuple.  log2 k is rounded up at 10 binary places,
    in integers: ceil(2^10 log2 k) is the bit length of k^(2^10) - 1.

    It also refuses an expansion that could not be printed: the M = sum mult
    multiplicities give coefficients summing to k^M over at most T terms,
    so when k^M // T >= 10^D some coefficient has more than D digits, D
    being Python's int-to-str limit (no check when it is 0).
    """
    terms, total = 1, 0
    for exps, mult in monos:
        total += mult
        if exps:
            terms *= mult * (k - 1) + 1
    bits = -(-total * (k ** 1024 - 1).bit_length() >> 10)
    check_cap("max_output_mb", -(-terms * (bits + 800) // 8_000_000),
              "estimated line expansion (MB)")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # k^M < 2^(M bits(k)) <= 2^(3D) < 10^D settles most expansions at once
    if digits and total * k.bit_length() > 3 * digits:
        floor = terms * 10 ** digits  # k^M // T >= 10^D exactly when k^M >= T 10^D
        if total * (k.bit_length() - 1) >= floor.bit_length() or k ** total >= floor:
            raise ValueError(f"the line expansion has a coefficient above the "
                             f"{digits}-digit limit for printing an int "
                             f"(PYTHONINTMAXSTRDIGITS raises it)")


def bott_lines(x: LineExpr, k: int) -> LineExpr:
    """Multiplicative class with value 1 + M + ... + M^(k-1) on each line monomial.

    Each monomial M of multiplicity m contributes (1 + M + ... + M^(k-1))^m,
    whose coefficients come from Miller's power recurrence (Knuth, TAOCP
    vol. 2, 4.7; see ``_geometric_power``) at the keys t * exps; the trivial
    monomial contributes the constant k^m.  The factors multiply as plain
    dicts and one LineExpr is built at the end.  An expansion estimated
    above the max_output_mb cap is refused before any product.
    """
    if k < 1:
        raise ValueError("k must be positive")
    check_cap("max_k", k, "Bott order")
    monos = x.monomials()
    _check_line_budget(monos, k)
    out = {(): 1}
    for exps, mult in monos:
        factor = ({(tuple(t * e for e in exps) if t else ()): a
                   for t, a in enumerate(_geometric_power(k, mult))} if exps
                  else {(): k ** mult})
        out = _line_product(out, factor)
    return LineExpr.scalar(1)._trusted(out)


def bott_virtual(x: LineExpr, k: int, nvars: int | None = None,
                 images: dict | None = None) -> TruncatedPoly:
    """Bott class of a virtual line combination, in the truncated ring.

    Line symbols map to units of Q[x1..xr]/(xi^2) (default L_i -> 1 + x_i),
    so negative multiplicities become exact inverses.
    """
    if k < 1:
        raise ValueError("k must be positive")
    check_cap("max_k", k, "Bott order")
    r = nvars if nvars is not None else max(x.nsymbols, 1)
    if images is None:
        images = {i: TruncatedPoly.const(r, 1) + TruncatedPoly.var(r, i)
                  for i in range(1, r + 1)}

    def image_of(exps) -> TruncatedPoly:
        out = TruncatedPoly.const(r, 1)
        for i, e in enumerate(exps, start=1):
            if e:
                if i not in images:
                    raise ValueError(f"no image for line symbol L{i}")
                out = out * images[i] ** e
        return out

    result = TruncatedPoly.const(r, 1)
    for exps, c in sorted(x.coeffs.items()):
        if c.denominator != 1:
            raise NotEffectiveError("virtual evaluation needs integer multiplicities")
        m = image_of(exps)
        if not m.is_unit():
            raise NotAUnitError("a line symbol maps to a non-unit of the ambient ring")
        factor = TruncatedPoly.const(r, 1)
        for _ in range(k - 1):  # Horner: 1 + m (1 + m (1 + ...))
            factor = factor * m + 1
        result = result * factor ** int(c)
    return result


def _eval_at_minus_zeta(v: LambdaVector, k: int, r: int, shift: int = 0) -> dict:
    """G(-z^r) z^shift = sum_j lam^j (-1)^j w^(rj + shift), as a
    ``{power mod k: coeff}`` dict with ring coefficients."""
    coeffs = {shift % k: 1}
    for j in range(1, v.rank + 1):
        val = v.lam(j)
        if val:
            p = (r * j + shift) % k
            coeffs[p] = coeffs.get(p, 0) + (val if j % 2 == 0 else -val)
    return {p: _exact(c) for p, c in coeffs.items() if c}


def _product_at_minus_zeta(v: LambdaVector, k: int, rs, shift: int = 0) -> Cyclotomic:
    """The product over r in rs of G(-z^r) z^(shift r), one factor at a time
    through the Cyclotomic product loop, as one Cyclotomic.  The lambda
    values pass through ``_exact`` once, so integral Fractions are summed
    into the factors as ints."""
    check_cap("max_k", k, "cyclotomic order")
    v = LambdaVector(v.rank, tuple(map(_exact, v.lams)))
    prod = {0: 1}
    for r in rs:
        prod = _product_mod_phi(k, prod, _eval_at_minus_zeta(v, k, r, shift * r))
    return Cyclotomic(k, prod)


def bott_cyclotomic(v: LambdaVector, k: int):
    """The Bott class as the product of G(-z^r) over r = 1..k-1, descended.

    The product is Galois-invariant, so the descent to the base ring must
    succeed; failure signals inconsistent input or a genuine bug.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    return _product_at_minus_zeta(v, k, range(1, k)).descend()


@dataclass(frozen=True)
class SerreSqrt:
    """Square root of the Bott class; sign_ambiguous marks a skipped
    normalization sign (the exponent n(k-1)/4 was not an integer)."""

    value: object
    sign_ambiguous: bool


def serre_sqrt(v: LambdaVector, k: int) -> SerreSqrt:
    """Galois-invariant square root of the Bott class of a self-dual class.

    value = (-1)^(n(k-1)/4) * prod_{r=1..(k-1)/2} G(-z^r) z^(-nr/2),
    which squares to the Bott class.  Requires k odd and v self-dual of
    even rank; when n(k-1)/4 is not an integer the sign is omitted and the
    result is flagged.  Each z^(-nr/2) is a shift of the evaluation at r,
    so each r costs one Cyclotomic product.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be odd and at least 3")
    n = v.rank
    if n % 2:
        raise ValueError("rank must be even")
    if not v.is_self_dual():
        raise ValueError("lambda vector is not self-dual")
    prod = _product_at_minus_zeta(v, k, range(1, (k - 1) // 2 + 1), -n // 2)
    ambiguous = (n * (k - 1)) % 4 != 0
    if not ambiguous and (n * (k - 1) // 4) % 2 == 1:
        prod = -prod
    return SerreSqrt(prod.descend(), ambiguous)


def corrected_bott(rho_k, v: LambdaVector, k: int):
    """The corrected class rho_k / sqrt of the Bott class of the underlying
    module; its square is one on the classes where it is defined."""
    root = serre_sqrt(v, k).value
    if isinstance(root, (int, Fraction)):
        if root == 0:
            raise NotAUnitError("square root vanishes")
        return Fraction(rho_k) / Fraction(root)
    raise NotAUnitError("corrected class only implemented over rational values")


# -- sphere formulas ----------------------------------------------------------

def sum_of_powers(r: int, k: int) -> int:
    return sum(j ** r for j in range(1, k))


def sphere_formula(r: int, k: int) -> Fraction:
    """Sphere coefficient: [1 + 2^r + ... + (k-1)^r] / k^r on the top class.

    Path one expands the Bott class of the product line symbol L1...Lr in
    the truncated ring (a k-term geometric series of binomial products)
    and normalizes its top coefficient by k^r, the value of the class on
    the rank companion.  Path two is the closed power sum.  The two must
    agree exactly; a mismatch raises.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if k < 2:
        raise ValueError("k must be at least 2")
    f = bott_virtual(LineExpr.monomial((1,) * r), k, nvars=r)
    top = (1 << r) - 1
    coeff = f.coefficient(top) / Fraction(k) ** r
    expect = Fraction(sum_of_powers(r, k), k ** r)
    if coeff != expect or f.coefficient(0) != k:
        raise FormulaMismatchError(
            f"truncated-ring coefficient {coeff} differs from closed form {expect}")
    return coeff


# -- textual grammar ----------------------------------------------------------

_LINE_RE = re.compile(r"L(\d+)(?:\^(-?\d+))?")


def _read_line(exps, coeff, sym):
    i = int(sym[1])
    if i < 1:
        raise ValueError("line symbols are 1-based")
    exps = list(exps) + [0] * (i - len(exps))
    exps[i - 1] += int(sym[2] or 1)
    return _strip(exps), coeff


def parse_line_expr(s: str) -> LineExpr:
    return LineExpr(_parse_terms(s, _LINE_RE, _read_line, ()))
