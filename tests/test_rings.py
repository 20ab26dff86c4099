"""Exact coefficient domains: worked examples and ring-axiom properties."""

import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import cyclotomic_const, zeta
from spinbott.clifford import CliffordElement, FormMismatchError, parse_element
from spinbott.config import CapExceededError, Caps, caps_scope
from spinbott.lambda_bott import LineExpr, _unpack, parse_line_expr
from spinbott.linalg import SparseOp
from spinbott.quadforms import QuadraticForm
from spinbott.rings import (Cyclotomic, DescentError, GaloisActionError,
                            NotAUnitError, RingElement, RingMismatchError, TruncatedPoly,
                            _exact, cyclotomic_polynomial, parse_cyclotomic,
                            parse_truncated)


def euler_phi(k: int) -> int:
    """phi(k), the degree of the k-th cyclotomic polynomial."""
    return len(cyclotomic_polynomial(k)) - 1


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
orders = st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 10, 12])


@st.composite
def cyclotomics(draw, order=None):
    k = order if order is not None else draw(orders)
    coeffs = draw(st.lists(fractions, min_size=euler_phi(k), max_size=euler_phi(k)))
    return Cyclotomic(k, dict(enumerate(coeffs)))


@st.composite
def truncateds(draw, nvars=3):
    terms = draw(st.dictionaries(st.integers(0, (1 << nvars) - 1), fractions, max_size=6))
    return TruncatedPoly(nvars, terms)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_cyclotomic_mul_examples():
    w3 = zeta(3)
    assert w3 * w3 == Cyclotomic(3, {0: -1, 1: -1})
    w4 = zeta(4)
    assert w4 * w4 == -1
    one = cyclotomic_const(3, 1)
    assert (one - w3) * (one - w3 * w3) == 3


def test_cyclotomic_order_mismatch():
    with pytest.raises(RingMismatchError):
        zeta(3) * zeta(4)


def test_galois_examples():
    a = Cyclotomic(3, {0: 2, 1: 1})  # 2 + w
    assert a.galois(2) == Cyclotomic(3, {0: 1, 1: -1})  # 1 - w
    assert a.galois(1) == a
    assert cyclotomic_const(3, 3).galois(2) == 3
    with pytest.raises(GaloisActionError):
        zeta(6).galois(3)


def test_descend_examples():
    w = zeta(3)
    assert (w * (-3) * w * w).descend() == -3
    assert cyclotomic_const(5, 5).descend() == 5
    with pytest.raises(DescentError) as err:
        w.descend()
    assert err.value.violating == 2


def test_descend_reads_the_power_basis(monkeypatch):
    # a rational value is read off the reduced form; no Galois image is built
    def refuse(self, j):
        raise AssertionError("galois called on a rational element")

    monkeypatch.setattr(Cyclotomic, "galois", refuse)
    assert Cyclotomic(5, {0: 3}).descend() == 3
    assert Cyclotomic(5, {1: 1, 2: 1, 3: 1, 4: 1}).descend() == -1


@given(cyclotomics(order=5), st.integers(1, 20), st.integers(1, 20))
@settings(max_examples=60)
def test_galois_composition(a, j1, j2):
    from math import gcd
    if gcd(j1, 5) != 1 or gcd(j2, 5) != 1:
        return
    assert a.galois(j2).galois(j1) == a.galois((j1 * j2) % 5)


@given(st.data())
@settings(max_examples=80)
def test_descend_iff_invariant(data):
    from math import gcd
    a = data.draw(cyclotomics())
    k = a.order
    invariant = all(a.galois(j) == a for j in range(2, k) if gcd(j, k) == 1)
    if invariant:
        back = cyclotomic_const(k, a.descend())
        assert back == a
    else:
        with pytest.raises(DescentError):
            a.descend()


@given(cyclotomics(order=7), cyclotomics(order=7), cyclotomics(order=7))
@settings(max_examples=50)
def test_cyclotomic_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


def test_trunc_examples():
    one_x1 = TruncatedPoly(2, {0: 1, 1: 1})
    assert one_x1 * one_x1 == TruncatedPoly(2, {0: 1, 1: 2})
    one_x2 = TruncatedPoly(2, {0: 1, 2: 1})
    assert one_x1 * one_x2 == TruncatedPoly(2, {0: 1, 1: 1, 2: 1, 3: 1})
    x1x2 = TruncatedPoly(2, {3: 1})
    x1 = TruncatedPoly(2, {1: 1})
    assert x1x2 * x1 == TruncatedPoly(2, {})


def test_trunc_arity_mismatch():
    with pytest.raises(RingMismatchError):
        TruncatedPoly(2, {0: 1}) * TruncatedPoly(3, {0: 1})


def test_trunc_invert_examples():
    a = TruncatedPoly(1, {0: 2, 1: 1})
    assert a.invert() == TruncatedPoly(1, {0: Fraction(1, 2), 1: Fraction(-1, 4)})
    assert TruncatedPoly(1, {0: 1}).invert() == 1
    b = TruncatedPoly(2, {0: 4, 1: 2, 2: 2, 3: 1})
    inv = b.invert()
    assert inv == TruncatedPoly(2, {0: Fraction(1, 4), 1: Fraction(-1, 8),
                                    2: Fraction(-1, 8), 3: Fraction(1, 16)})
    assert b * inv == 1


def test_trunc_invert_non_unit():
    with pytest.raises(NotAUnitError):
        TruncatedPoly(2, {1: 1}).invert()


@given(truncateds(), truncateds(), truncateds())
@settings(max_examples=50)
def test_trunc_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(truncateds())
@settings(max_examples=60)
def test_trunc_invert_roundtrip(a):
    if not a.is_unit():
        return
    assert a * a.invert() == 1


def test_caps():
    with pytest.raises(CapExceededError):
        zeta(33)
    with pytest.raises(CapExceededError):
        TruncatedPoly(9, {})
    with caps_scope(Caps(max_k=64)):
        zeta(33)  # raised cap admits it


def test_raised_cap_holds_through_arithmetic():
    with caps_scope(Caps(max_k=64, max_vars=10)):
        w = zeta(41)
        assert (w ** 2).galois(2) == zeta(41, 4)
        assert (w + 1) * (w - 1) == w ** 2 - 1
        x = TruncatedPoly.const(10, 2) + TruncatedPoly.var(10, 10)
        assert x * x.invert() == 1


def test_caps_scope_restored_after_exception():
    with pytest.raises(ZeroDivisionError):
        with caps_scope(Caps(max_k=64)):
            zeta(41)
            raise ZeroDivisionError
    with pytest.raises(CapExceededError):
        zeta(41)


@given(cyclotomics())
@settings(max_examples=60)
def test_cyclotomic_text_roundtrip(a):
    assert parse_cyclotomic(str(a)) == a


@given(truncateds())
@settings(max_examples=60)
def test_truncated_text_roundtrip(a):
    assert parse_truncated(str(a), a.nvars) == a


def test_parse_unreduced_literal():
    # inputs may be unreduced; storage is canonical mod the cyclotomic polynomial
    assert parse_cyclotomic("1 - 2*w + w^2@3") == Cyclotomic(3, {1: -3})


def test_parse_cyclotomic_negative_powers():
    # w^-1 = w^(k-1), reduced mod Phi_k
    assert parse_cyclotomic("w^-1@3") == Cyclotomic(3, {0: -1, 1: -1})
    assert str(parse_cyclotomic("w^-1@3")) == "-1 - w@3"
    assert str(parse_cyclotomic("1 + w^-1@3")) == "-w@3"
    assert parse_cyclotomic("w^-3@4") == zeta(4)
    assert parse_cyclotomic("w*w^-1@5") == 1
    assert parse_cyclotomic("w^7@3") == zeta(3)


@pytest.mark.parametrize("text", ["w@0", "1 + w^-1@0", "w@-3"])
def test_parse_cyclotomic_refuses_nonpositive_order(text):
    with pytest.raises(ValueError, match="order must be positive"):
        parse_cyclotomic(text)


PARSERS = {
    "element": lambda s: parse_element(s, QuadraticForm((1, 1))),
    "line_expr": parse_line_expr,
    "truncated": lambda s: parse_truncated(s, 2),
    "cyclotomic": lambda s: parse_cyclotomic(s + "@5"),
}
PARSER_TERMS = {"element": ("e1", "e2"), "line_expr": ("L1", "L2"),
                "truncated": ("x1", "x2"), "cyclotomic": ("w", "w^2")}


@pytest.mark.parametrize("parser", sorted(PARSERS))
@pytest.mark.parametrize("shape", ["{a}--{b}", "{a} -+ {b}", "{a} + - {b}", "{a}+",
                                   "{a} - ", "--{a}", "+-{a}", "-"])
def test_parsers_refuse_a_sign_without_a_term(parser, shape):
    # "e1--e2" once parsed as e1 - e2 and "e1+" as e1: the last sign won
    a, b = PARSER_TERMS[parser]
    with pytest.raises(ValueError, match="empty term"):
        PARSERS[parser](shape.format(a=a, b=b))


@pytest.mark.parametrize("parser", sorted(PARSERS))
def test_parsers_keep_one_leading_sign(parser):
    a, b = PARSER_TERMS[parser]
    parse = PARSERS[parser]
    assert parse(f"-{a} + {b}") == parse(f"{b} - {a}")
    assert parse(f" + {a}") == parse(a)
    assert parse(f"-{a}") == -parse(a)


PARSER_JUNK = {"element": ("e1q", "e1e2x"), "line_expr": ("L1x", "L1^2y"),
               "truncated": ("x1y", "x2q"), "cyclotomic": ("w5", "wq", "w^2x")}


@pytest.mark.parametrize("parser", sorted(PARSERS))
@pytest.mark.parametrize("shape", ["{junk}", "{b} + 2*{junk}", "{junk}*{a}"])
def test_parsers_refuse_a_variable_token_followed_by_junk(parser, shape):
    # "w5" and "wq" once parsed as w: only the leading "w" was looked at
    a, b = PARSER_TERMS[parser]
    for junk in PARSER_JUNK[parser]:
        with pytest.raises(ValueError):
            PARSERS[parser](shape.format(a=a, b=b, junk=junk))


def test_parse_line_expr_refuses_symbol_zero():
    # "L0" once parsed as the constant 1
    for text in ("L0", "2*L0^3 + L1"):
        with pytest.raises(ValueError, match="line symbols are 1-based"):
            parse_line_expr(text)


def test_parsers_keep_their_error_texts():
    cases = [(lambda: parse_element("e1q", QuadraticForm((1, 1))), "cannot parse blade 'e1q'"),
             (lambda: parse_element("e1e2e1", QuadraticForm((1, 1))), "repeated generator e1"),
             (lambda: parse_truncated("x0 + 1", 2), "x0 out of range for 2 variables"),
             (lambda: parse_truncated("x1*x1", 2), "repeated variable x1 in one term"),
             (lambda: parse_line_expr("L1x"), "Invalid literal for Fraction: 'L1x'"),
             (lambda: parse_cyclotomic("wq@7"), "Invalid literal for Fraction: 'wq'")]
    for parse, message in cases:
        with pytest.raises(ValueError) as info:
            parse()
        assert str(info.value) == message


def test_parsers_keep_the_negative_exponent():
    assert parse_line_expr("-L1^-1 + L2") == LineExpr.symbol(2) - LineExpr.monomial((-1,))
    assert parse_cyclotomic("-w^-1@3") == -zeta(3) ** 2


# Per ring type: a non-constant element, an element of another ring of the
# same type (None: the type is one ring), the mismatch error, the constant
# monomial.
RING_CASES = {
    "LineExpr": (lambda: LineExpr.symbol(1) + 2, lambda: None, RingMismatchError, ()),
    "TruncatedPoly": (lambda: TruncatedPoly(2, {0: 2, 1: 1}),
                      lambda: TruncatedPoly(3, {0: 1}), RingMismatchError, 0),
    "CliffordElement": (lambda: CliffordElement(QuadraticForm((1, -1)), {0: 2, 0b11: 1}),
                        lambda: CliffordElement(QuadraticForm((1, 1)), {0: 1}),
                        FormMismatchError, 0),
    "Cyclotomic": (lambda: Cyclotomic(3, {0: 2, 1: 1}), lambda: Cyclotomic(4, {0: 1}),
                   RingMismatchError, 0),
}


@pytest.mark.parametrize("name", sorted(RING_CASES))
def test_shared_ring_structure(name):
    make, make_other, mismatch, one = RING_CASES[name]
    x, other = make(), make_other()
    assert isinstance(x, RingElement) and type(x).__name__ == name

    with pytest.raises(AttributeError, match="immutable"):
        x.coeffs = {}
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(TypeError):
        hash(x)

    if other is not None:
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(mismatch):
                op(x, other)
        assert x != other
    with pytest.raises(TypeError):
        x + "1"
    assert (x == "1") is False

    # a scalar on either side of +, - and *
    assert 2 + x == x + 2 and (2 + x).coefficient(one) == x.coefficient(one) + 2
    assert x - 2 == -(2 - x) and (x - 2) + 2 == x
    assert Fraction(1, 2) - x == -(x - Fraction(1, 2))
    assert 3 * x == x * 3 == x + x + x
    assert Fraction(1, 2) * x + x * Fraction(1, 2) == x
    assert x - x == 0 and not (x - x) and bool(x)

    # a scalar compares as a constant
    assert x * 0 + 2 == 2 and 2 == x * 0 + 2
    assert x != 2 and (x == 2) is False

    # a float or a str coefficient is read exactly, never stored as it is
    for c in (0.5, "1/2"):
        half = x._new({one: c})
        stored = half.coefficient(one)
        assert stored == Fraction(1, 2) and type(stored) is Fraction
        assert "1/2" in str(half) and "0.5" not in str(half)
        assert half * half == Fraction(1, 4)

    assert x ** 0 == 1 and x ** 1 == x and x ** 3 == x * x * x
    if isinstance(x, TruncatedPoly):
        assert x ** -1 * x == 1 and x ** -2 == (x ** -1) ** 2
    else:
        with pytest.raises(ValueError, match="negative powers"):
            x ** -1


def test_cyclotomic_over_line_expressions():
    # ring-element coefficients next to plain int constants
    L1 = LineExpr.symbol(1)
    a = Cyclotomic(3, {0: L1, 1: 1})
    assert not (a - a) and bool(a)
    assert a * 0 == 0 and a - a == 0
    assert (a + 1).coefficient(0) == L1 + 1
    assert a * a == Cyclotomic(3, {0: L1 * L1 - 1, 1: 2 * L1 - 1})


def test_cyclotomic_refuses_a_power_that_is_not_a_nonnegative_int():
    for power in (-1, -5, 1.0, Fraction(1), "1", None):
        with pytest.raises(ValueError, match="nonnegative int"):
            Cyclotomic(5, {power: 1})


# -- an independent oracle: complex evaluation at every primitive k-th root --
#
# An element of Q(w) is determined by its values at the primitive k-th roots
# of unity, and the map is a ring homomorphism compatible with w -> w^j, so
# floating evaluation checks reduction, products, sums and the Galois action
# without any of the package's own arithmetic.

def _primitive_roots(k):
    return [cmath.exp(2j * cmath.pi * m / k) for m in range(1, k + 1) if gcd(m, k) == 1]


def _evaluate(coeffs: dict, z: complex) -> complex:
    return sum(float(c) * z ** p for p, c in coeffs.items())


def _size(coeffs) -> float:
    return sum(abs(float(c)) for c in coeffs)


def _agrees(a: Cyclotomic, expect, size: float) -> bool:
    """a equals ``expect(z)`` at every primitive root z of its order; ``size``
    bounds the sum of the absolute terms ``expect`` adds up."""
    tol = 1e-9 * (1 + size + _size(a.coeffs.values()))
    return all(abs(_evaluate(a.coeffs, z) - expect(z)) <= tol
               for z in _primitive_roots(a.order))


all_orders = st.integers(1, 32)


@st.composite
def unreduced(draw, k):
    """A {power: coeff} map with powers up to 3k, as the constructor takes it."""
    return draw(st.dictionaries(st.integers(0, 3 * k), fractions, max_size=8))


def test_primitive_roots_are_the_roots_of_phi():
    for k in range(1, 33):
        phi = cyclotomic_polynomial(k)
        roots = _primitive_roots(k)
        assert len(roots) == euler_phi(k)
        assert all(abs(sum(c * z ** i for i, c in enumerate(phi))) < 1e-9 for z in roots)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_cyclotomic_against_complex_evaluation(data):
    k = data.draw(all_orders)
    da, db = data.draw(unreduced(k)), data.draw(unreduced(k))
    a, b = Cyclotomic(k, da), Cyclotomic(k, db)
    assert all(0 <= p < euler_phi(k) and c for p, c in a.coeffs.items())
    na, nb = _size(da.values()), _size(db.values())
    assert _agrees(a, lambda z: _evaluate(da, z), na)
    assert _agrees(a + b, lambda z: _evaluate(da, z) + _evaluate(db, z), na + nb)
    assert _agrees(a - b, lambda z: _evaluate(da, z) - _evaluate(db, z), na + nb)
    assert _agrees(a * b, lambda z: _evaluate(da, z) * _evaluate(db, z), na * nb)
    assert _agrees(a * Fraction(-3, 2), lambda z: _evaluate(da, z) * -1.5, 1.5 * na)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_galois_against_complex_evaluation(data):
    k = data.draw(all_orders)
    da = data.draw(unreduced(k))
    j = data.draw(st.integers(1, 3 * k).filter(lambda j: gcd(j, k) == 1))
    # sigma_j(a) at z is a at z^j
    assert _agrees(Cyclotomic(k, da).galois(j), lambda z: _evaluate(da, z ** j),
                   _size(da.values()))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_parsed_literals_against_complex_evaluation(data):
    # unreduced powers up to 3k and negative powers, as a user may type them
    k = data.draw(all_orders)
    terms = data.draw(st.lists(st.tuples(fractions.filter(bool), st.integers(-3 * k, 3 * k)),
                               min_size=1, max_size=6))
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*w^{p}" for c, p in terms)
    a = parse_cyclotomic(f"{text}@{k}")
    assert _agrees(a, lambda z: sum(float(c) * z ** p for c, p in terms),
                   _size(c for c, _ in terms))


# -- coefficient storage: integral values as int, the rest as Fraction --------

def test_exact_rules():
    assert _exact(3) == 3 and type(_exact(3)) is int
    assert _exact(Fraction(6, 3)) == 2 and type(_exact(Fraction(6, 3))) is int
    assert type(_exact(Fraction(1, 2))) is Fraction
    assert _exact(0.5) == _exact("1/2") == Fraction(1, 2) and type(_exact(0.5)) is Fraction
    assert _exact(2.0) == 2 and type(_exact(2.0)) is int
    line = LineExpr.symbol(1)
    assert _exact(line) is line  # a ring element used as a coefficient


# Per storage: build from one coefficient c, and read the stored c back.
STORES = {
    "LineExpr": (lambda c: LineExpr({(1,): c}),
                 lambda a: {_unpack(k): c for k, c in a.coeffs.items()}[(1,)]),
    "TruncatedPoly": (lambda c: TruncatedPoly(2, {3: c}), lambda a: a.coeffs[3]),
    "Cyclotomic": (lambda c: Cyclotomic(5, {1: c}), lambda a: a.coeffs[1]),
    "SparseOp": (lambda c: SparseOp.identity(2).scale(c), lambda a: a.cols[1][1]),
    "CliffordElement": (lambda c: CliffordElement(QuadraticForm((Fraction(1, 2), 3)), {3: c}),
                        lambda a: a.coeffs[3]),
}


@pytest.mark.parametrize("name", sorted(STORES))
@given(x=fractions.filter(bool))
@settings(max_examples=30)
def test_integral_coefficients_are_stored_as_int(name, x):
    make, stored = STORES[name]
    for c in [x] + ([x.numerator] if x.denominator == 1 else []):
        value = stored(make(c))
        assert value == x
        assert type(value) is (int if x.denominator == 1 else Fraction)


def test_integral_results_are_stored_as_int():
    half = Fraction(1, 2)
    cases = [({_unpack(k): c for k, c in (LineExpr({(1,): half}) * 2).coeffs.items()},
              {(1,): 1}),
             ((TruncatedPoly(1, {1: half}) + TruncatedPoly(1, {1: half})).coeffs, {1: 1}),
             (TruncatedPoly(2, {0: 1, 1: 1}).invert().coeffs, {0: 1, 1: -1}),
             ((Cyclotomic(3, {0: half, 1: half}) * 2).coeffs, {0: 1, 1: 1}),
             (parse_cyclotomic("1/2 + 1/2*w^3@3").coeffs, {0: 1}),
             (SparseOp.identity(2).scale(Fraction(4, 2)).cols[1], {1: 2}),
             ((CliffordElement(QuadraticForm((Fraction(1, 2), 2)), {1: 2}) ** 2).coeffs, {0: 2}),
             ((CliffordElement(QuadraticForm((1, -1)), {3: half}) * 4).coeffs, {3: 2})]
    for stored, expected in cases:
        assert stored == expected
        assert all(type(c) is int for c in stored.values())


@given(st.integers(-5, 5).filter(bool), st.lists(st.integers(-2, 2), min_size=1, max_size=3))
@settings(max_examples=30)
def test_storage_type_is_invisible(n, exps):
    # the same value given as an int and as a Fraction: equal, same text, same parse
    pairs = [(LineExpr({tuple(exps): n}), LineExpr({tuple(exps): Fraction(n)}),
              parse_line_expr),
             (TruncatedPoly(2, {1: n}), TruncatedPoly(2, {1: Fraction(n)}),
              lambda t: parse_truncated(t, 2)),
             (Cyclotomic(5, {1: n}), Cyclotomic(5, {1: Fraction(n)}), parse_cyclotomic),
             (CliffordElement(QuadraticForm((1, -2)), {3: n}),
              CliffordElement(QuadraticForm((1, -2)), {3: Fraction(n)}),
              lambda t: parse_element(t, QuadraticForm((1, -2))))]
    for a, b, parse in pairs:
        assert a == b and b == a
        assert str(a) == str(b) and repr(a) == repr(b)
        assert parse(str(a)) == a


# -- the products against their plain definitions --------------------------------

def _long_division(order: int, coeffs: dict) -> dict:
    """``coeffs`` reduced mod Phi_k by clearing every power from the top down
    to phi(k), with no folding mod k first."""
    phi = cyclotomic_polynomial(order)
    deg, out = len(phi) - 1, dict(coeffs)
    for top in range(max(out, default=0), deg - 1, -1):
        c = out.pop(top, 0)
        if c:
            for t in range(deg):
                out[top - deg + t] = out.get(top - deg + t, 0) - c * phi[t]
    return {p: c for p, c in out.items() if c}


def _plain_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def _random_cyclotomic_coeffs(rng, k, value):
    """Reduced coefficients at a random density: none, one power, some, all."""
    powers = range(euler_phi(k))
    size = rng.choice((0, 1, len(powers) // 2, len(powers)))
    return {p: value(rng) for p in rng.sample(powers, size)}


def _assert_stored_exactly(coeffs: dict, expect: dict):
    assert coeffs == expect
    assert all(c and (type(c) is not Fraction or c.denominator != 1) for c in coeffs.values())


@pytest.mark.parametrize("k", range(1, 33))
def test_cyclotomic_product_matches_long_division(k):
    rng = random.Random(k)

    def rational(rng):
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    for _ in range(12):
        da = _random_cyclotomic_coeffs(rng, k, rational)
        db = _random_cyclotomic_coeffs(rng, k, rational)
        product = Cyclotomic(k, da) * Cyclotomic(k, db)
        _assert_stored_exactly(product.coeffs, _long_division(k, _plain_product(da, db)))
        # the constructor takes unreduced powers up to 3k
        raw = {rng.randint(0, 3 * k): rational(rng) for _ in range(rng.randint(0, 8))}
        _assert_stored_exactly(Cyclotomic(k, raw).coeffs, _long_division(k, raw))
    # ring-element coefficients, as bott_cyclotomic takes them
    lines = [LineExpr.symbol(1), LineExpr.symbol(2) * 2 - 1, LineExpr({(1, -1): Fraction(1, 2)})]
    for _ in range(3):
        da = _random_cyclotomic_coeffs(rng, k, lambda rng: rng.choice(lines))
        db = _random_cyclotomic_coeffs(rng, k, lambda rng: rng.choice(lines + [3]))
        product = Cyclotomic(k, da) * Cyclotomic(k, db)
        assert product.coeffs == _long_division(k, _plain_product(da, db))


def _pair_loop(a: TruncatedPoly, b: TruncatedPoly) -> dict:
    out: dict = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            if not m1 & m2:
                out[m1 | m2] = out.get(m1 | m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


@st.composite
def truncated_pairs(draw):
    """Two elements over 0..8 variables, each dense (every mask) or sparse."""
    n = draw(st.integers(0, 8))

    def operand():
        if draw(st.booleans()):
            values = draw(st.lists(fractions, min_size=1 << n, max_size=1 << n))
            return TruncatedPoly(n, dict(enumerate(values)))
        return TruncatedPoly(n, draw(st.dictionaries(st.integers(0, (1 << n) - 1),
                                                     fractions, max_size=6)))
    return operand(), operand()


@given(truncated_pairs())
@settings(max_examples=120, deadline=None)
def test_truncated_product_matches_the_pair_loop(pair):
    a, b = pair
    _assert_stored_exactly((a * b).coeffs, _pair_loop(a, b))
    _assert_stored_exactly((b * a).coeffs, _pair_loop(a, b))


def test_trusted_drops_the_zeros_of_a_cancelling_product():
    L1 = LineExpr.symbol(1)
    square = (L1 + 1) * (L1 - 1)  # the L1 terms cancel
    assert {_unpack(key): c for key, c in square.coeffs.items()} == {(2,): 1, (): -1}
    assert str(square) == "-1 + L1^2"
    assert ((L1 + 1) - (L1 + 1)).coeffs == {} and (L1 * 0).coeffs == {}
    form = QuadraticForm((1, -1))
    e1 = CliffordElement(form, {1: 1})
    assert ((e1 + 1) * (e1 - 1)).coeffs == {}  # e1^2 = 1


def test_trusted_stores_integral_fractions_as_ints():
    half = Fraction(1, 2)
    for value in (LineExpr({(1,): half}) + LineExpr({(1,): half}),
                  Cyclotomic(5, {1: half, 2: Fraction(3, 2)}) * 2,
                  -TruncatedPoly(2, {1: half, 3: Fraction(-5, 2)}) * Fraction(2),
                  CliffordElement(QuadraticForm((1, 3)), {0: half, 3: half}) * 4):
        assert value.coeffs and all(type(c) is int for c in value.coeffs.values())


def test_trusted_reads_no_ring_element_coefficient_of_a_cyclotomic(monkeypatch):
    L1, L2 = LineExpr.symbol(1), LineExpr.symbol(2)
    a = Cyclotomic(3, {0: L1, 1: L2})
    b = Cyclotomic(3, {0: L2, 1: 1})
    product, difference = a * b, a - a

    def no_compare(self, other):
        raise AssertionError("a ring-element coefficient was compared")

    # the type test comes first, so no ring-element coefficient is compared with 0
    monkeypatch.setattr(LineExpr, "__eq__", no_compare)
    assert (a * b).coeffs.keys() == product.coeffs.keys() and not a - a
    monkeypatch.undo()
    assert product == Cyclotomic(3, {0: L1 * L2 - L2, 1: L2 * L2 + L1 - L2})
    assert difference.coeffs == {} and (a * 3 - a * 2) == a


def test_no_result_shares_its_dict_with_an_operand():
    L1, L2 = LineExpr.symbol(1), LineExpr.symbol(2)
    half = Fraction(1, 2)
    operands = [(L1 + 2 * L2, L1 - L2), (L1, L1),
                (Cyclotomic(5, {1: 2, 3: 1}), Cyclotomic(5, {0: 1, 4: 3})),
                (Cyclotomic(4, {0: L1, 1: 1}), Cyclotomic(4, {1: L2})),
                (TruncatedPoly(3, {1: 2, 6: 1}), TruncatedPoly(3, {0: 1, 4: half})),
                (CliffordElement(QuadraticForm((1, -2)), {1: 1, 2: 3}),
                 CliffordElement(QuadraticForm((1, -2)), {0: 2, 3: 1}))]
    for a, b in operands:
        results = [a + b, a - b, -a, a * b, b * a, a * 3, a * half, a + 0, a ** 2, 0 + a]
        if isinstance(a, Cyclotomic):
            results.append(a.galois(2 if a.order % 2 else 3))
        for r in results:
            assert r.coeffs is not a.coeffs and r.coeffs is not b.coeffs
        assert len({id(r.coeffs) for r in results}) == len(results)


def _text_term_by_term(x) -> str:
    """The text of x with no memo: every term after its " + " or " - ",
    the first term's then cut to "" or "-"."""
    text = ""
    for m, c in x._terms():
        mono, a = x._var(m), abs(c)
        body = str(a) if not mono else mono if a == 1 else f"{a}*{mono}"
        text += f" {'-' if c < 0 else '+'} {body}"
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def test_text_is_the_term_by_term_text():
    rng = random.Random(29)
    q = QuadraticForm((1, -1, 2))
    values = [LineExpr(), Cyclotomic(7, {}), CliffordElement(q, {}),
              LineExpr({(): -1}), Cyclotomic(7, {3: -5}), CliffordElement(q, {6: -1}),
              LineExpr({(1,): 1}), Cyclotomic(7, {0: Fraction(2, 3)}), CliffordElement(q, {0: 4})]
    for _ in range(300):
        coeffs = [rng.choice((-1, 1)) * rng.choice((1, 2, 10 ** 30, Fraction(3, 7)))
                  for _ in range(rng.randint(1, 4))]
        values.append(LineExpr({tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3))): c
                                for c in coeffs}))
        values.append(Cyclotomic(7, {rng.randrange(6): c for c in coeffs}))
        values.append(CliffordElement(q, {rng.randrange(8): c for c in coeffs}))
    texts = [RingElement.__str__(x) for x in values]  # a Cyclotomic then adds its "@7"
    assert texts == [_text_term_by_term(x) for x in values]
    assert texts[:9] == ["0", "0", "0", "-1", "-5*w^3", "-e2e3", "L1", "2/3", "4"]
    # leading negative terms and single terms, of all three rings
    for ring in (LineExpr, Cyclotomic, CliffordElement):
        mine = [t for x, t in zip(values, texts) if type(x) is ring and x]
        assert any(t.startswith("-") for t in mine) and any(" " not in t for t in mine)
        assert any(t.startswith("-") and " - " in t for t in mine)


def test_text_converts_each_distinct_int_coefficient_once(monkeypatch):
    from spinbott import rings
    from spinbott.lambda_bott import bott_lines
    # the class of 30 L1 at k = 5 is palindromic, so its coefficients repeat
    values = [bott_lines(parse_line_expr("30*L1"), 5),
              bott_lines(parse_line_expr("3*L1 + 2*L2 - 0"), 4) * -1 + Fraction(1, 3),
              TruncatedPoly(3, {0: Fraction(-1, 2), 1: Fraction(1, 2), 2: 1, 3: -1, 7: 2})]
    texts = [_text_term_by_term(x) for x in values]
    converted = []
    monkeypatch.setattr(rings, "str", lambda a: converted.append(a) or str(a), raising=False)
    for x, text in zip(values, texts):
        converted.clear()
        assert x.__str__() == text
        distinct = {abs(c) for m, c in x._terms()
                    if type(c) is int and (not x._var(m) or abs(c) != 1)}
        assert sorted(a for a in converted if type(a) is int) == sorted(distinct)
