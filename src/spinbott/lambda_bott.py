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
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .config import FailedCheckError, check_cap
from .rings import (_BITS, NotAUnitError, RingElement, TruncatedPoly, _descend, _exact,
                    _galois, _line_product, _parse_terms, _reduce_mod_phi)


class NotEffectiveError(ValueError):
    """Operation needs nonnegative integer coefficients; route the input
    through the virtual (truncated-ring) evaluation instead."""


class FormulaMismatchError(FailedCheckError):
    """The two sphere-computation paths disagree."""


class ExponentRangeError(ValueError):
    """A line exponent of magnitude 2^70 or more: the packed key has no room
    for it."""


# A monomial L1^e1 ... Ln^en is stored as the one int key sum e_i 2^(72(i-1)),
# its exponents being signed digits of 72 bits: a zero exponent adds nothing,
# so 0 is the constant monomial and trailing zeros vanish, and the product of
# two monomials is the sum of their keys.  Every stored exponent is below 2^70
# in magnitude, so a sum of two stays inside half a digit and never carries
# into its neighbour; each LineExpr carries a bound on its exponents so that
# this holds without reading its keys.  CPython hashes an int mod 2^61 - 1,
# where 2^72 is 2^11, so a key hashes as sum e_i 2^(11(i-1)): distinct for
# |e_i| < 2^10 over up to five symbols, where a digit of 64 bits (2^64 being
# 8) would collide.  ``_BITS`` lives in rings, whose cyclotomic reduction
# reads the digit below the symbols (see "the cyclotomic form" below).
_BYTES = _BITS // 8
_LIMIT = 1 << 70
_HALF = 1 << 71


def _digits(n: int, value: int) -> int:
    """``value`` in each of the n digits of a key."""
    return int.from_bytes(value.to_bytes(_BYTES, "little") * n, "little")


def _out_of_range(e: int) -> ExponentRangeError:
    return ExponentRangeError(f"line exponent {e} is not below 2^70 in magnitude")


def _pack(exps) -> int:
    """The key of an exponent sequence, through bytes: one digit per exponent."""
    n = len(exps)
    raw = bytearray(_BYTES * n)
    try:
        raw[::_BYTES] = exps  # bytes, or every exponent in 0..255
        return int.from_bytes(raw, "little")
    except ValueError:
        pass
    for e in exps:
        if not -_LIMIT < e < _LIMIT:
            raise _out_of_range(e)
    raw = b"".join((e + _HALF).to_bytes(_BYTES, "little") for e in exps)
    return int.from_bytes(raw, "little") - _digits(n, _HALF)


def _exponent_bytes(key: int):
    """The exponents of a key as bytes when every one is in 0..255, else None.

    Such a key's digits are the low bytes of its 9-byte digits, every other
    byte being zero; the bytes sort as the exponent tuples do.
    """
    if key < 0:
        return None
    raw = key.to_bytes(_BYTES * (-(-key.bit_length() // _BITS)), "little")
    low = raw[::_BYTES]
    return low if raw.count(0) - low.count(0) == len(raw) - len(low) else None


def _unpack(key: int) -> tuple:
    """The exponent tuple of a key, with no trailing zeros, through bytes."""
    low = _exponent_bytes(key)
    return tuple(low) if low is not None else _signed_exponents(key)


def _signed_exponents(key: int) -> tuple:
    """The exponent tuple of any key, read digit by digit after a bias of
    2^71 per digit has made every digit nonnegative.

    A key of n symbols has |key| between 2^(72(n-1)-1) and 2^(72(n-1)+71),
    so its bit length names n, and a key below 2^71 in magnitude is the
    exponent of L1.
    """
    if -_HALF < key < _HALF:
        return (key,) if key else ()
    n = abs(key).bit_length() // _BITS + 1
    raw = (key + _digits(n, _HALF)).to_bytes(_BYTES * n, "little")
    return tuple([int.from_bytes(raw[i:i + _BYTES], "little") - _HALF
                  for i in range(0, len(raw), _BYTES)])


def _scan(keys) -> int:
    """The largest |exponent| of keys whose bound reached 2^70 (no digit of
    them carried), or ExponentRangeError if it is 2^70 or more.  Exponents
    that are bytes are read without their zeros, so a key of millions of
    symbols but few factors is read at once."""
    top = 0
    for key in keys:
        low = _exponent_bytes(key)
        top = max(top, max(map(abs, _signed_exponents(key))) if low is None
                  else max(low.translate(None, b"\0"), default=0))
    if top >= _LIMIT:
        raise _out_of_range(max((e for key in keys for e in _unpack(key)), key=abs))
    return top


def _symbol_index(i: int) -> int:
    """i, once L_i is 1-based and its key's 9 i bytes are within max_output_mb."""
    if i < 1:
        raise ValueError("line symbols are 1-based")
    check_cap("max_output_mb", -(-_BYTES * i // 1_000_000), f"key of line symbol L{i} (MB)")
    return i


class LineExpr(RingElement):
    """Linear combination of Laurent monomials in line symbols L1, L2, ...

    The constructor, ``monomial`` and ``coefficient`` take exponent tuples;
    ``coeffs`` is keyed by the packed int of each monomial (see ``_pack``).
    ``bound`` is at least every |exponent|: set where exponents are read,
    the sum of the operands' bounds in a product, the larger of the two in a
    sum, kept by negation and scaling.  Only a product whose bound reaches
    2^70 reads its keys, for the true bound (see ``_scan``).
    """

    __slots__ = ("coeffs", "bound")
    _ONE = ()

    def __init__(self, coeffs=None):
        # tuples equal after stripping name one key: their coefficients add
        clean, bound = {}, 0
        for exps, c in (coeffs or {}).items():
            key = _pack(exps)
            bound = max(bound, max(map(abs, exps), default=0))
            clean[key] = clean.get(key, 0) + (c if type(c) is int else Fraction(c))
        object.__setattr__(self, "coeffs", {e: c if type(c) is int else _exact(c)
                                            for e, c in clean.items() if c})
        object.__setattr__(self, "bound", bound)

    @classmethod
    def scalar(cls, c) -> "LineExpr":
        return cls.monomial((), c)

    @classmethod
    def symbol(cls, i: int) -> "LineExpr":
        """L_i, 1-based."""
        return _ZERO._bounded({1 << _BITS * (_symbol_index(i) - 1): 1}, 1)

    @classmethod
    def monomial(cls, exps, c=1) -> "LineExpr":
        """c L1^e1 ... Ln^en, its one key packed directly: the constructor's
        value, with a coefficient read as it reads one."""
        exps = tuple(exps)
        return _ZERO._bounded({_pack(exps): c if type(c) is int else Fraction(c)},
                              max(map(abs, exps), default=0))

    _ring = None  # one ring: every line symbol is available to every expression

    def _new(self, coeffs) -> "LineExpr":
        return LineExpr(coeffs)

    def _bounded(self, coeffs, bound) -> "LineExpr":
        """``_trusted`` with the bound of the new coefficients."""
        out = self._trusted(coeffs)
        object.__setattr__(out, "bound", bound)
        return out

    def __add__(self, other):
        out = super().__add__(other)
        if out is not NotImplemented:
            object.__setattr__(out, "bound", max(self.bound, getattr(other, "bound", 0)))
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        o = self._match(other)
        if o is NotImplemented:
            return NotImplemented
        coeffs = _line_product(self.coeffs, o.coeffs)
        bound = self.bound + o.bound
        return self._bounded(coeffs, bound if bound < _LIMIT else _scan(coeffs))

    __rmul__ = __mul__

    def coefficient(self, monomial):
        return super().coefficient(_pack(monomial))

    @property
    def nsymbols(self) -> int:
        top = max(map(abs, self.coeffs), default=0)
        return top and top.bit_length() // _BITS + 1

    def is_effective(self) -> bool:
        return all(c > 0 and c.denominator == 1 for c in self.coeffs.values())

    def _multiplicities(self) -> list:
        """(key, multiplicity) pairs; effective input only."""
        if not self.is_effective():
            raise NotEffectiveError("expression has negative or fractional coefficients")
        return [(key, int(c)) for key, c in self.coeffs.items()]

    def monomials(self):
        """(exponent tuple, multiplicity) pairs in tuple order; effective input only."""
        return sorted((_unpack(key), mult) for key, mult in self._multiplicities())

    def _terms(self):
        """(monomial, coefficient) of every term, in the order of the
        exponent tuples.  The keys sort by their exponents as bytes, which
        order as the tuples do in under half their memory, and ``_var``
        decodes each key again as its term prints; a key with an exponent
        outside 0..255 reads as None, which does not compare, and then the
        (tuple, key) pairs sort, each key decoded once, and the tuple is
        the monomial that prints."""
        coeffs = self.coeffs
        try:
            keys = sorted(coeffs, key=_exponent_bytes)
        except TypeError:
            return ((exps, coeffs[key]) for exps, key in
                    sorted([(_unpack(key), key) for key in coeffs]))
        return ((key, coeffs[key]) for key in keys)

    def _var(self, m):
        # a key, decoded as _unpack does with no tuple copy, or its tuple
        exps = m if type(m) is tuple else _exponent_bytes(m) or _signed_exponents(m)
        return "*".join([f"L{i}" if e == 1 else f"L{i}^{e}"
                         for i, e in enumerate(exps, start=1) if e])


_ZERO = LineExpr()  # a LineExpr made from no operand is built by its _bounded


class LambdaVector(namedtuple("LambdaVector", "rank lams")):
    """Rank n plus the exterior powers lam^1..lam^n in an exact ring."""

    __slots__ = ()

    def __new__(cls, rank, lams):
        if rank < 0 or len(lams) != rank:
            raise ValueError("need exactly rank many lambda values")
        return super().__new__(cls, rank, tuple(lams))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

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
    return LambdaVector(n, tuple(Fraction(comb(n, j)) for j in range(1, n + 1)))


def line_to_lambda(x: LineExpr) -> LambdaVector:
    """Elementary-symmetric expansion of an effective sum of line monomials.

    prod (1 + t M) is multiplied out on plain ``{key: coeff}`` dicts, e_j
    gaining e_(j-1) with every key moved by that of M, and one LineExpr is
    built per e_j at the end.  The bound of e_j grows by x.bound a step;
    only a step whose bound reaches 2^70 reads its keys (see ``_scan``).
    The coefficients are positive, so none cancels.
    """
    monos = []
    for key, mult in x._multiplicities():
        monos.extend([key] * mult)
    elems, bounds = [{0: 1}], [0]
    for key in monos:  # multiply out prod (1 + t M)
        elems.append({})
        bounds.append(0)
        for j in range(len(elems) - 1, 0, -1):
            acc, bound = elems[j], bounds[j - 1] + x.bound
            get = acc.get
            for e, c in elems[j - 1].items():
                e += key
                acc[e] = get(e, 0) + c
            bounds[j] = max(bounds[j], bound) if bound < _LIMIT else _scan(acc)
    return LambdaVector(len(monos), tuple(x._bounded(e, b) for e, b in zip(elems[1:], bounds[1:])))


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


@lru_cache(maxsize=None)
def _log2_ceil_1024(k: int) -> int:
    """ceil(2^10 log2 k), in integers: the bit length of k^(2^10) - 1."""
    return (k ** 1024 - 1).bit_length()


def _check_line_budget(monos, k: int) -> None:
    """Refuse a line expansion whose estimated size exceeds max_output_mb.

    It has at most T = prod (mult (k-1) + 1) monomials over the nontrivial
    line monomials, and each coefficient at most B = ceil(sum mult log2 k)
    bits, so it takes about T (B/8 + 100) bytes, 100 bytes being a dict
    entry with its key.  log2 k is rounded up at 10 binary places
    (``_log2_ceil_1024``, computed once per k).

    It also refuses an expansion that could not be printed: the M = sum mult
    multiplicities give coefficients summing to k^M over at most T terms,
    so when k^M // T >= 10^D some coefficient has more than D digits, D
    being Python's int-to-str limit (no check when it is 0).
    """
    terms, total = 1, 0
    for key, mult in monos:
        total += mult
        if key:
            terms *= mult * (k - 1) + 1
    bits = -(-total * _log2_ceil_1024(k) >> 10)
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
    vol. 2, 4.7; see ``_geometric_power``) at the keys t * key; the trivial
    monomial contributes the constant k^m.  The factors multiply as plain
    dicts and one LineExpr is built at the end, whose positive int
    coefficients ``_trusted`` keeps without a rebuild.  An expansion estimated above
    the max_output_mb cap is refused before any product, and so is a factor
    whose exponents reach 2^70, m (k - 1) max|e| of its monomial.  A
    factor's reach is first taken from the bound of x, m (k - 1) x.bound,
    and its key is read for max|e| (``_scan``) only when that reaches 2^70;
    the running product is read for its largest exponent only when the
    reaches of its factors add up to 2^70.
    """
    if k < 1:
        raise ValueError("k must be positive")
    check_cap("max_k", k, "Bott order")
    monos = x._multiplicities()
    _check_line_budget(monos, k)
    out, bound = None, 0
    for key, mult in monos:
        reach = mult * (k - 1) * x.bound
        if reach >= _LIMIT:
            reach = mult * (k - 1) * _scan((key,))
        if reach >= _LIMIT:
            raise ExponentRangeError(f"the Bott class of order {k} could reach a line "
                                     f"exponent of {reach}, not below 2^70 in magnitude")
        # the first power of the key is the key itself, so a key of millions
        # of symbols is held once
        factor = ({key if t == 1 else t * key: a
                   for t, a in enumerate(_geometric_power(k, mult))} if key
                  else {0: k ** mult})
        out = factor if out is None else _line_product(factor, out)  # the few terms outside
        bound += reach
        if bound >= _LIMIT:
            bound = _scan(out)
    return x._bounded(out or {0: 1}, bound)


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

    def image_of(key) -> TruncatedPoly:
        out = TruncatedPoly.const(r, 1)
        for i, e in enumerate(_unpack(key), start=1):
            if e:
                if i not in images:
                    raise ValueError(f"no image for line symbol L{i}")
                out = out * images[i] ** e
        return out

    result = TruncatedPoly.const(r, 1)
    for key, c in x.coeffs.items():
        if c.denominator != 1:
            raise NotEffectiveError("virtual evaluation needs integer multiplicities")
        m = image_of(key)
        if not m.is_unit():
            raise NotAUnitError("a line symbol maps to a non-unit of the ambient ring")
        result = result * _geometric_series(m, k) ** int(c)
    return result


def _geometric_series(m: TruncatedPoly, k: int) -> TruncatedPoly:
    """1 + m + ... + m^(k-1) in Q[x1..xr]/(xi^2), by the binomial theorem.

    m = u + n with u its constant term and n nilpotent (n^(r+1) = 0), so
    the sum is sum_j S_j n^j with S_j = sum_(t=j..k-1) C(t, j) u^(t-j),
    j < min(k, r + 1): min(k, r + 1) - 2 products for the powers of n, where
    Horner's rule takes k - 1.
    """
    u = m.coefficient(0)
    n = m - u
    out = TruncatedPoly.const(m.nvars, sum(u ** t for t in range(k)))
    power = n
    for j in range(1, min(k, m.nvars + 1)):
        if j > 1:
            power = power * n
        if not power:
            break
        out = out + power * sum(comb(t, j) * u ** (t - j) for t in range(j, k))
    return out


# -- the cyclotomic form --------------------------------------------------------
#
# An element of Q(w) (x) line expressions, w a primitive k-th root of unity,
# is one flat {p + (line key << _BITS): coeff} dict (see rings._BITS): a
# product is the keys-add loop ``_line_product`` followed by the one reduction
# mod Phi_k, ``rings._reduce_mod_phi``, and no LineExpr is built per
# coefficient.  A rational lambda value is the line key 0.

def _flat_lams(v: LambdaVector):
    """(terms, bound, lines): terms[j-1] the (line key << _BITS, (-1)^j c)
    pairs of lam^j, bound the largest bound of a LineExpr lam^j, and lines
    whether some lam^j is a LineExpr, whose Bott class is then a LineExpr."""
    terms, bound, lines = [], 0, False
    for j, lam in enumerate(v.lams, start=1):
        if isinstance(lam, LineExpr):
            lines, bound = True, max(bound, lam.bound)
            items = lam.coeffs.items()
        else:
            items = ((0, _exact(lam)),) if lam else ()
        terms.append([(key << _BITS, -c if j % 2 else c) for key, c in items])
    return terms, bound, lines


def _eval_at_minus_zeta(terms, k: int, r: int, shift: int = 0) -> dict:
    """G(-w^r) w^shift = sum_j lam^j (-1)^j w^(rj + shift), its powers below k,
    as a flat dict of the ``_flat_lams`` terms."""
    coeffs = {shift % k: 1}
    get = coeffs.get
    for j, pairs in enumerate(terms, start=1):
        p = (r * j + shift) % k
        for line, c in pairs:
            e = line + p if p else line  # a key of a million symbols is copied only to move
            coeffs[e] = get(e, 0) + c
    return {e: c for e, c in coeffs.items() if c}


def _flat_product(k: int, left: dict, right: dict, bound: int):
    """(left * right reduced mod Phi_k, its bound): ``bound`` is the sum of
    the operands' bounds, and only when it reaches 2^70 are the line keys of
    the product read for the true one (see ``_scan``)."""
    prod = _reduce_mod_phi(k, _line_product(left, right))
    return prod, bound if bound < _LIMIT else _scan([key >> _BITS for key in prod])


def _product_at_minus_zeta(terms, bound: int, k: int, rs, shift: int = 0):
    """(the product over r in rs of G(-w^r) w^(shift r), reduced mod Phi_k,
    its bound): one factor at a time through the flat loop, the factor, of
    at most rank + 1 powers, in its outer loop."""
    prod = total = None
    for r in rs:
        factor = _eval_at_minus_zeta(terms, k, r, shift * r)
        prod, total = ((factor, bound) if prod is None
                       else _flat_product(k, factor, prod, total + bound))
    # a factor's powers run to k - 1; a product has reduced them
    return prod if len(rs) > 1 else _reduce_mod_phi(k, prod), total


def _halving_chain(n: int, units: list) -> list:
    """g_1..g_e in (Z/n)^*, of order a power of 2, each outside H = <g_1..g_(i-1)>
    with its square inside, so <H, g_i> = H u g_i H has twice the elements of H
    and the last is the whole group.  Each g_i is 1 mod the largest divisor of
    n it can be: H is then, as far as it can be, the kernel of
    (Z/n)^* -> (Z/d)^*, whose fixed field Q(w^(n/d)) is sparse in the powers
    of w when every prime of n divides d."""
    group, chain = {1}, []
    while len(group) < len(units):
        g = max((g for g in units if g not in group and g * g % n in group),
                key=lambda g: (gcd(g - 1, n), -g))
        chain.append(g)
        group |= {h * g % n for h in group}
    return chain


def _norm(terms, bound: int, n: int):
    """(N(G(-w)) = the product of G(-w^s) over s in (Z/n)^*, reduced mod Phi_n,
    its bound).

    Where phi(n) is a power of 2 it is a norm tower: N <- N sigma_g(N) over
    the ``_halving_chain`` (the doubling chain of Itoh and Tsujii, Inform. and
    Comput. 78 (1988) 171-177, on a chain of index-2 subgroups; norms are
    transitive, Washington, Introduction to Cyclotomic Fields, GTM 83), which
    leaves N fixed by one subgroup more at each of its log2 phi(n) products.
    Elsewhere the conjugates multiply in sequence.
    """
    units = [s for s in range(1, n) if gcd(s, n) == 1]
    if len(units) & (len(units) - 1):
        return _product_at_minus_zeta(terms, bound, n, units)
    prod, chain = _eval_at_minus_zeta(terms, n, 1), _halving_chain(n, units)
    for g in chain:
        prod, bound = _flat_product(n, prod, _galois(n, prod, g), 2 * bound)
    return prod if chain else _reduce_mod_phi(n, prod), bound


def _value(coeffs: dict, bound: int, lines: bool):
    """The class of a descended ``{line key: coeff}`` product: a LineExpr when
    some lambda value was one, else its rational constant."""
    if lines:
        return _ZERO._bounded(coeffs, bound)
    c = coeffs.get(0, 0)
    return _exact(c) if c else Fraction(0)


def bott_cyclotomic(v: LambdaVector, k: int):
    """The Bott class as the product of G(-w^r) over r = 1..k-1, descended.

    The r with gcd(r, k) = d form one Galois orbit, whose product is the
    norm from Q(w_n), n = k/d, of G(-w_n) (see ``_norm``); each orbit's
    product is computed in order n and descends on its own, and the
    descended values multiply as line expressions.  A norm is
    Galois-invariant, so every descent must succeed; failure signals a
    genuine bug.  The bound of the class is the sum of its factors' bounds.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    check_cap("max_k", k, "cyclotomic order")
    terms, bound, lines = _flat_lams(v)
    out, total = None, 0
    for n in range(2, k + 1):
        if k % n == 0:
            norm, reach = _norm(terms, bound, n)
            orbit = _descend(n, norm)
            out = orbit if out is None else _line_product(out, orbit)
            total += reach
            if total >= _LIMIT:
                total = _scan(out)
    return _value(out, total, lines)


class SerreSqrt(namedtuple("SerreSqrt", "value sign_ambiguous")):
    """Square root of the Bott class; sign_ambiguous marks a skipped
    normalization sign (the exponent n(k-1)/4 was not an integer)."""

    __slots__ = ()


def serre_sqrt(v: LambdaVector, k: int) -> SerreSqrt:
    """Galois-invariant square root of the Bott class of a self-dual class.

    value = (-1)^(n(k-1)/4) * prod_{r=1..(k-1)/2} G(-z^r) z^(-nr/2),
    which squares to the Bott class.  Requires k odd and v self-dual of
    even rank; when n(k-1)/4 is not an integer the sign is omitted and the
    result is flagged.  Each z^(-nr/2) is a shift of the evaluation at r,
    so each r costs one product on the flat loop.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be odd and at least 3")
    n = v.rank
    if n % 2:
        raise ValueError("rank must be even")
    if not v.is_self_dual():
        raise ValueError("lambda vector is not self-dual")
    check_cap("max_k", k, "cyclotomic order")
    terms, bound, lines = _flat_lams(v)
    prod, bound = _product_at_minus_zeta(terms, bound, k, range(1, (k - 1) // 2 + 1), -n // 2)
    ambiguous = (n * (k - 1)) % 4 != 0
    if not ambiguous and (n * (k - 1) // 4) % 2 == 1:
        prod = {e: -c for e, c in prod.items()}
    return SerreSqrt(_value(_descend(k, prod), bound, lines), ambiguous)


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
    the truncated ring (the geometric series 1 + m + ... + m^(k-1) of
    m = (1 + x1)...(1 + xr), summed by the binomial theorem over the powers
    of its nilpotent part; see ``_geometric_series``) and normalizes its
    top coefficient by k^r, the value of the class on the rank companion.
    Path two is the closed power sum sum_j j^r, which the binomial sums
    do not use, so the two are independent.  They must agree exactly; a
    mismatch raises.
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


def _read_line(factors, coeff, sym):
    return factors + ((_symbol_index(int(sym[1])), int(sym[2] or 1)),), coeff


def parse_line_expr(s: str) -> LineExpr:
    """A LineExpr from its text.  A term's factors are read as (symbol,
    exponent) pairs, and its key is packed directly as the sum of
    e 2^(72(i-1)) over its symbols, with no dense exponent tuple."""
    coeffs, bound = {}, 0
    for factors, c in _parse_terms(s, _LINE_RE, _read_line, ()).items():
        exps: dict = {}
        for i, e in factors:
            exps[i] = exps.get(i, 0) + e
        key = 0
        for i, e in exps.items():
            if not -_LIMIT < e < _LIMIT:
                raise _out_of_range(e)
            bound = max(bound, abs(e))
            digit = e << _BITS * (i - 1)
            key = key + digit if key else digit  # no copy of a lone digit
        coeffs[key] = coeffs.get(key, 0) + c
    return _ZERO._bounded(coeffs, bound)
