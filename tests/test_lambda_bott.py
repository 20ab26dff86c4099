"""Adams operations, Bott classes, the square root, sphere coefficients."""

import sys
from fractions import Fraction
from itertools import product, zip_longest
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adams_oracles import adams_lines, adams_newton
from bott_oracles import (bott_cyclotomic_sequential, bott_virtual_horner, eval_at_minus_zeta,
                          serre_sqrt_sequential)
from builders import cyclotomic_const, zeta
from spinbott.lambda_bott import (LambdaVector, LineExpr,
                                  NotEffectiveError,
                                  bott_cyclotomic, bott_lines, bott_virtual,
                                  corrected_bott, line_to_lambda,
                                  parse_line_expr, serre_sqrt, sphere_formula,
                                  sum_of_powers, trivial_lambda_vector)
from spinbott import cli, lambda_bott, rings
from spinbott.config import CapExceededError, Caps, caps_scope
from spinbott.lambda_bott import (ExponentRangeError, SerreSqrt, _check_line_budget,
                                  _exponent_bytes, _geometric_power, _pack, _unpack)
from spinbott.rings import _BITS, Cyclotomic, DescentError, TruncatedPoly, _descend

L1, L2, L3 = (LineExpr.symbol(i) for i in (1, 2, 3))


@st.composite
def effective_exprs(draw, nsyms=3, max_monomials=3):
    out = LineExpr.scalar(0)
    for _ in range(draw(st.integers(1, max_monomials))):
        exps = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=nsyms)))
        out = out + LineExpr.monomial(exps, draw(st.integers(1, 2)))
    return out


@st.composite
def line_exprs(draw, nsyms=3, coeffs=st.integers(-3, 3)):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = tuple(draw(st.lists(st.integers(-2, 2), min_size=0, max_size=nsyms)))
        terms[exps] = draw(coeffs)
    return LineExpr(terms)


def test_adams_lines_examples():
    assert adams_lines(L1, 4) == L1 ** 4
    assert adams_lines(1 - L1, 3) == 1 - L1 ** 3


@given(line_exprs(), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60)
def test_adams_lines_compose(x, k, l):
    assert adams_lines(adams_lines(x, k), l) == adams_lines(x, k * l)


@given(line_exprs(), line_exprs(), st.integers(1, 5))
@settings(max_examples=60)
def test_adams_lines_additive(x, y, k):
    assert adams_lines(x + y, k) == adams_lines(x, k) + adams_lines(y, k)


@given(line_exprs(), line_exprs(), st.integers(1, 4))
@settings(max_examples=60)
def test_adams_lines_multiplicative(x, y, k):
    assert adams_lines(x * y, k) == adams_lines(x, k) * adams_lines(y, k)


# -- the product against the padded product it replaced -------------------------

def decoded(x):
    """The coefficients of x keyed by exponent tuples."""
    return {_unpack(key): c for key, c in x.coeffs.items()}


def padded_product(x, y):
    """Independent oracle: pad both operands' exponent tuples to one length,
    add them entrywise and let the checking constructor strip the keys."""
    n = max(x.nsymbols, y.nsymbols)
    coeffs: dict = {}
    for e1, c1 in decoded(x).items():
        for e2, c2 in decoded(y).items():
            e = tuple(a + b for a, b in zip(e1 + (0,) * (n - len(e1)),
                                            e2 + (0,) * (n - len(e2))))
            coeffs[e] = coeffs.get(e, 0) + c1 * c2
    return LineExpr(coeffs)


def _assert_stored_form(x):
    # keys stripped, integral coefficients stored as int
    for e, c in decoded(x).items():
        assert not e or e[-1] != 0
        assert c and type(c) is (int if c.denominator == 1 else Fraction)


@given(line_exprs(), line_exprs(coeffs=st.fractions(-2, 2, max_denominator=3)))
@settings(max_examples=150)
def test_product_matches_the_padded_product(x, y):
    for a, b in ((x, y), (y, x), (x, x)):
        prod = a * b
        assert prod.coeffs == padded_product(a, b).coeffs
        _assert_stored_form(prod)


def test_product_pinned_cases():
    L2_inv = LineExpr.monomial((0, -1))
    short, long = 2 * L1 + 1, LineExpr.monomial((0, 1, -2), 3)
    half = LineExpr({(1,): Fraction(1, 2)})
    cases = [
        ((L1 * L2, L2_inv), {(1,): 1}),  # the trailing entry cancels to 0
        ((L1 * L2 * L3, LineExpr.monomial((0, -1, -1))), {(1,): 1}),
        ((L1 * L2, LineExpr.monomial((-1, -1))), {(): 1}),
        ((L1 - L2, LineExpr.scalar(0)), {}),  # a zero product
        ((L1 + L2, L1 - L1), {}),
        ((L1 - L2, L1 + L2), {(2,): 1, (0, 2): -1}),  # cross terms cancel
        ((short, long), {(1, 1, -2): 6, (0, 1, -2): 3}),  # unequal lengths
        ((long, short), {(1, 1, -2): 6, (0, 1, -2): 3}),
        ((half, 2 * L2), {(1, 1): 1}),  # an integral Fraction product
    ]
    for (a, b), expect in cases:
        prod = a * b
        assert decoded(prod) == expect == decoded(padded_product(a, b))
        _assert_stored_form(prod)


# -- packed keys ------------------------------------------------------------------

LIMIT = 2 ** 70  # every stored exponent is below this in magnitude

exponents = st.one_of(st.integers(-3, 3), st.integers(-300, 300),
                      st.integers(-LIMIT + 1, LIMIT - 1))


def stripped(exps):
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


@given(st.lists(exponents, max_size=6), st.integers(0, 3))
@settings(max_examples=200)
def test_packed_key_round_trip(exps, zeros):
    key = _pack(exps)
    assert _unpack(key) == stripped(exps)
    assert _pack(exps + [0] * zeros) == key  # trailing zeros add nothing
    assert _pack(_unpack(key)) == key
    assert LineExpr.monomial(exps).nsymbols == len(stripped(exps))
    low = _exponent_bytes(key)
    assert (low is not None) == all(0 <= e <= 255 for e in exps)
    assert low is None or tuple(low) == stripped(exps)


@given(st.lists(exponents, max_size=5), st.lists(exponents, max_size=5))
@settings(max_examples=200)
def test_keys_of_unequal_length_are_equal_exactly_when_the_tuples_strip_equal(a, b):
    assert (_pack(a) == _pack(b)) == (stripped(a) == stripped(b))
    # the sum of two keys is the key of the padded entrywise sum
    n = max(len(a), len(b))
    total = [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    assert _unpack(_pack(a) + _pack(b)) == stripped(total)


def test_keys_of_many_symbols_round_trip():
    for exps in [(0,) * 29999 + (1,), (3,) * 5000, (0,) * 5000 + (-1,),
                 (2 ** 69,) + (0,) * 3000 + (7,), (-5,) * 3000]:
        assert _unpack(_pack(exps)) == exps
    x = parse_line_expr("L30000")
    assert list(x.coeffs) == [1 << 72 * 29999] and x.nsymbols == 30000
    assert str(x) == "L30000"


@st.composite
def wide_line_exprs(draw):
    """Line expressions whose exponents reach 2^68, so a product of two is
    still below 2^70."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = tuple(draw(st.lists(st.integers(-2 ** 68, 2 ** 68), max_size=3)))
        terms[exps] = draw(st.integers(-3, 3))
    return LineExpr(terms)


@given(wide_line_exprs(), wide_line_exprs())
@settings(max_examples=100)
def test_product_of_wide_exponents_matches_the_padded_product(x, y):
    assert decoded(x * y) == decoded(padded_product(x, y))
    assert parse_line_expr(str(x * y)) == x * y


def test_hash_of_small_keys_is_spread():
    # 2^72 is 2^11 mod 2^61 - 1, so a key hashes as sum e_i 2^(11(i-1));
    # CPython hashes -1 as -2, the one collision among these keys
    for bound, n in ((12, 3), (3, 5)):
        keys = [_pack(e) for e in product(range(-bound, bound + 1), repeat=n)]
        hashes = {}
        for key in keys:
            hashes.setdefault(hash(key), []).append(_unpack(key))
        collided = [sorted(v) for v in hashes.values() if len(v) > 1]
        assert collided == [[(-2,), (-1,)]]


@pytest.mark.parametrize("coeffs, text", [
    ({(1,): 1, (): 1, (-1,): 1}, "1 + L1^-1 + L1"),  # () sorts before (-1,)
    ({(300,): 1, (2,): -2, (-300,): 3}, "3*L1^-300 - 2*L1^2 + L1^300"),
    ({(0, 1): 1, (1,): 1, (1, -1): 1, (): 2}, "2 + L2 + L1 + L1*L2^-1"),
    ({(0, 1): 1, (1,): 1, (2,): 1, (3, 4): 1}, "L2 + L1 + L1^2 + L1^3*L2^4"),
])
def test_terms_print_in_the_order_of_their_exponent_tuples(coeffs, text):
    assert str(LineExpr(coeffs)) == text


@given(st.one_of(line_exprs(), wide_line_exprs(), line_exprs(nsyms=1)))
@settings(max_examples=150)
def test_terms_print_in_tuple_order_whatever_their_keys(x):
    # oracle: each term printed alone, joined in the order of the tuples
    terms = sorted(decoded(x).items())
    text = " + ".join(str(LineExpr({e: c})) for e, c in terms).replace(" + -", " - ")
    assert str(x) == (text or "0")


def test_coefficient_reads_an_exponent_tuple():
    x = LineExpr({(1, 0, 2): 3, (): 5})
    assert x.coefficient((1, 0, 2)) == x.coefficient((1, 0, 2, 0)) == 3
    assert x.coefficient(()) == 5 and x.coefficient((2,)) == 0


def test_exponents_of_magnitude_two_to_the_seventy_are_refused():
    m = LineExpr.monomial((2 ** 60,))
    just_below = LineExpr.monomial((0, LIMIT - 1))
    for make in (lambda: LineExpr.monomial((LIMIT,)),
                 lambda: LineExpr({(1, -LIMIT): 1}),
                 lambda: LineExpr.monomial((2 ** 69,)) * LineExpr.monomial((2 ** 69,)),
                 lambda: LineExpr.monomial((-2 ** 69,)) ** 2,
                 lambda: just_below * L2,
                 lambda: m ** 1024,
                 lambda: bott_lines(just_below, 3),
                 lambda: bott_lines(LineExpr.monomial((2 ** 66,), 8), 3),
                 lambda: parse_line_expr(f"L1^{LIMIT}"),
                 lambda: parse_line_expr(f"L1^{LIMIT - 1}*L1"),
                 lambda: parse_line_expr(f"L1^{2 ** 100}")):
        with pytest.raises(ExponentRangeError, match="not below 2\\^70"):
            make()
    # the largest exponents that are kept
    assert _unpack(_pack((LIMIT - 1, 1 - LIMIT))) == (LIMIT - 1, 1 - LIMIT)
    assert m ** 1023 == LineExpr.monomial((1023 * 2 ** 60,))
    assert str(bott_lines(just_below, 2)) == f"1 + L2^{LIMIT - 1}"
    assert str(parse_line_expr(f"L1^{LIMIT - 1}*L1^-1")) == f"L1^{LIMIT - 2}"


def largest_exponent(x):
    return max((abs(e) for exps in decoded(x) for e in exps), default=0)


@st.composite
def reaching_line_exprs(draw):
    """Line expressions whose exponents reach 2^69, so that the bounds of a
    product add up to 2^70 and its keys are read."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = tuple(draw(st.lists(st.one_of(st.integers(-3, 3),
                                             st.integers(-2 ** 69, 2 ** 69),
                                             st.sampled_from([2 ** 69, -2 ** 69])),
                                   max_size=3)))
        terms[exps] = draw(st.integers(-3, 3))
    return LineExpr(terms)


any_line_exprs = st.one_of(line_exprs(), wide_line_exprs(), reaching_line_exprs())


@given(any_line_exprs, reaching_line_exprs(), effective_exprs(), st.integers(-3, 3),
       st.integers(0, 5))
@settings(max_examples=150)
def test_the_bound_is_at_least_every_exponent(x, y, z, c, n):
    values = [x, y, x + y, x - y, 2 - x, -x, c * x, x * Fraction(c, 2), parse_line_expr(str(x)),
              *line_to_lambda(z).lams]
    for make in (lambda: [x * y], lambda: [x ** n], lambda: [y * x * x],
                 lambda: (Cyclotomic(3, {0: x, 1: y})
                          * Cyclotomic(3, {0: y, 1: 1})).coeffs.values(),
                 lambda: [bott_cyclotomic(LambdaVector(2, (x, y)), 2 + n)],
                 lambda: [bott_cyclotomic(line_to_lambda(z), 2 + n)]):
        try:
            values.extend(make())
        except ExponentRangeError:
            pass
    for v in values:
        if isinstance(v, LineExpr):
            assert v.bound >= largest_exponent(v)
    sums = [abs(a + b) for e1 in decoded(x) for e2 in decoded(y)
            for a, b in zip_longest(e1, e2, fillvalue=0)]
    if x.bound + y.bound < LIMIT:  # no key is read: the bound is the sum
        assert (x * y).bound == x.bound + y.bound
    elif max(sums, default=0) >= LIMIT:  # refused exactly where an exponent reaches 2^70
        with pytest.raises(ExponentRangeError):
            x * y
    else:  # the keys read are every sum of two, cancelled or not
        assert (x * y).bound == max(sums, default=0)


def test_a_product_that_reaches_the_bound_reads_its_exponents():
    e = 2 ** 69
    big = LineExpr.monomial((e,)) + LineExpr.monomial((0, e))
    assert big.bound == e
    # the bounds add up to 2^70, so the keys of L2 + L1^-e*L2^(e+1) are read
    assert (big * LineExpr.monomial((-e, 1))).bound == e + 1
    assert (LineExpr.monomial((e,)) * LineExpr.monomial((-e,))).bound == 0
    assert bott_lines(big, 2).bound == e


def test_a_line_symbol_key_is_checked_against_the_output_cap_before_it_is_built():
    # the key of L_i takes 9 i bytes; max_output_mb=1 admits 999,999 of them
    with caps_scope(Caps(max_output_mb=1)):
        assert LineExpr.symbol(111111).nsymbols == parse_line_expr("L111111").nsymbols == 111111
        for make in (lambda: LineExpr.symbol(111112), lambda: parse_line_expr("1 + L111112")):
            with pytest.raises(CapExceededError, match="key of line symbol L111112 \\(MB\\) 2"):
                make()


@pytest.mark.parametrize("coeffs, text", [
    ({(1, 0): 1, (1,): 2}, "3*L1"),
    ({(1,): 2, (1, 0): 1}, "3*L1"),
    ({(1, 0): 1, (1,): -1}, "0"),
    ({(1, 0): Fraction(1, 2), (1,): Fraction(1, 2), (): 1}, "1 + L1"),
])
def test_keys_equal_after_stripping_add_their_coefficients(coeffs, text):
    x = LineExpr(coeffs)
    assert str(x) == text
    _assert_stored_form(x)


def test_newton_recursion_identities():
    # psi^2 = (lam^1)^2 - 2 lam^2 and psi^3 = (lam^1)^3 - 3 lam^1 lam^2 + 3 lam^3
    a, b, c = Fraction(5), Fraction(7), Fraction(11)
    v3 = LambdaVector(3, (a, b, c))
    assert adams_newton(v3, 2) == a * a - 2 * b
    assert adams_newton(v3, 3) == a ** 3 - 3 * a * b + 3 * c


def test_newton_on_two_lines():
    v = line_to_lambda(L1 + L2)
    assert adams_newton(v, 2) == L1 ** 2 + L2 ** 2


@pytest.mark.parametrize("r,k", list(product(range(1, 6), range(1, 7))))
def test_newton_power_sum_oracle(r, k):
    # independent oracle: psi^k of a sum of r line symbols is the power sum
    x = LineExpr.scalar(0)
    for i in range(1, r + 1):
        x = x + LineExpr.symbol(i)
    expected = LineExpr.scalar(0)
    for i in range(1, r + 1):
        expected = expected + LineExpr.symbol(i) ** k
    assert adams_newton(line_to_lambda(x), k) == expected


@given(effective_exprs(), effective_exprs(), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_adams_additive_via_convolution(x, y, k):
    # lambda vector of a sum is the convolution; psi^k stays additive
    vx, vy, vxy = line_to_lambda(x), line_to_lambda(y), line_to_lambda(x + y)
    got = adams_newton(vxy, k)
    assert got == adams_newton(vx, k) + adams_newton(vy, k)


def test_bott_lines_examples():
    assert bott_lines(L1, 3) == 1 + L1 + L1 ** 2
    assert bott_lines(LineExpr.scalar(1), 5) == 5
    assert bott_lines(L1 + L2, 2) == (1 + L1) * (1 + L2)
    with pytest.raises(NotEffectiveError):
        bott_lines(L1 - 1, 2)


@given(effective_exprs(max_monomials=2), effective_exprs(max_monomials=2),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=40, deadline=None)
def test_bott_multiplicative(x, y, k):
    assert bott_lines(x + y, k) == bott_lines(x, k) * bott_lines(y, k)


def test_bott_lines_with_a_trivial_line_summand():
    # the closed-form factor of the trivial line is the constant k, not 1
    three = LineExpr.scalar(3)
    assert bott_lines(three, 4) == 64
    x = 1 + L1 ** 2 * L3
    m = L1 ** 2 * L3
    assert bott_lines(x, 3) == 3 * (1 + m + m ** 2)
    assert bott_lines(x + 2, 3) == 27 * (1 + m + m ** 2)
    for y, k in ((three, 4), (x, 3), (x + 2, 3)):
        assert bott_cyclotomic(line_to_lambda(y), k) == bott_lines(y, k)


def test_bott_virtual_examples():
    assert bott_virtual(L1 - 1, 2) == TruncatedPoly(1, {0: 1, 1: Fraction(1, 2)})
    x4 = (L1 - 1) * (L2 - 1)
    assert bott_virtual(x4, 2) == TruncatedPoly(2, {0: 1, 3: Fraction(1, 4)})
    assert bott_virtual(L1 - 1, 3) == TruncatedPoly(1, {0: 1, 1: 1})


def test_bott_cyclotomic_examples():
    v_line = LambdaVector(1, (L1,))
    assert bott_cyclotomic(v_line, 3) == 1 + L1 + L1 ** 2
    for m in (1, 2, 3):
        assert bott_cyclotomic(trivial_lambda_vector(m), 2) == 2 ** m


def _geometric(m, k):
    """1 + m + ... + m^(k-1), each power taken from scratch."""
    out = m * 0
    for t in range(k):
        out = out + m ** t
    return out


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3), st.integers(1, 7),
       st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_bott_lines_factor_is_geometric_sum(exps, k, mult):
    m = LineExpr.monomial(exps)
    assert bott_lines(LineExpr.monomial(exps, mult), k) == _geometric(m, k) ** mult


@pytest.mark.parametrize("k", range(1, 33))
def test_geometric_power_is_repeated_convolution(k):
    # Miller's recurrence against (1 + t + ... + t^(k-1))^m multiplied out
    power = [1]
    for m in range(7):
        got = _geometric_power(k, m)
        assert got == power
        assert sum(got) == k ** m and got == got[::-1]
        nxt = [0] * (len(power) + k - 1)
        for i, c in enumerate(power):
            for t in range(k):
                nxt[i + t] += c
        power = nxt


def test_bott_lines_refuses_an_expansion_over_budget_before_any_product(monkeypatch):
    def no_product(*_):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(lambda_bott, "_line_product", no_product)
    # the last is the constant 10^10, whose Bott class is the one coefficient 2^(10^10)
    for text, k in (("L1+L2+L3+L4+L5+L6+L7+L8", 8), ("100000*L1", 3), ("10000000000", 2)):
        with pytest.raises(CapExceededError, match="max_output_mb=256"):
            bott_lines(parse_line_expr(text), k)
    with caps_scope(Caps(max_output_mb=0)), pytest.raises(CapExceededError):
        bott_lines(parse_line_expr("100*L1"), 32)


def test_cyclotomic_mode_refuses_an_expansion_over_budget_before_any_product(monkeypatch, capsys):
    def no_product(*_):
        raise AssertionError("a product was formed")

    for module, name in ((lambda_bott, "_line_product"), (rings, "_line_product"),
                         (cli, "line_to_lambda")):
        monkeypatch.setattr(module, name, no_product)
    for text, k in (("L1+L2+L3+L4+L5+L6+L7+L8", 8), ("100000*L1", 3)):
        assert cli.main(["bott", "--mode", "cyclotomic", "--expr", text, "--k", str(k)]) == 2
        assert "max_output_mb=256" in capsys.readouterr().err


@pytest.mark.parametrize("text, k, mb", [
    ("L1+L2+L3+L4", 32, 108), ("1000*L1", 32, 23),
    ("L1+L2+L3+L4+L5+L6+L7+L8", 8, 1729), ("100000*L1", 3, 3985),
])
def test_line_budget_estimates_the_sizing_points(monkeypatch, text, k, mb):
    # T (B/8 + 100) bytes, rounded up to MB, is just above a cap of mb - 1;
    # with no limit on printing an int the estimate alone decides (the
    # coefficients of 100000*L1 at k = 3 are too long to print by default)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    with caps_scope(Caps(max_output_mb=mb - 1)), pytest.raises(CapExceededError):
        _check_line_budget(parse_line_expr(text).monomials(), k)
    with caps_scope(Caps(max_output_mb=mb)):
        _check_line_budget(parse_line_expr(text).monomials(), k)


# units of Q[x1..x3]/(xi^2) with positive constant terms, so every
# geometric sum of their powers is a unit too
_UNITS = {1: TruncatedPoly(3, {0: 1, 1: 1}),
          2: TruncatedPoly(3, {0: 2, 1: -1, 2: 1}),
          3: TruncatedPoly(3, {0: Fraction(1, 2), 4: 3, 5: Fraction(1, 3)})}


@given(st.lists(st.integers(-2, 2), min_size=1, max_size=3), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_bott_virtual_factor_is_geometric_sum(exps, k):
    m = TruncatedPoly.const(3, 1)
    for i, e in enumerate(exps, start=1):
        m = m * _UNITS[i] ** e  # a negative exponent is an inverse image
    factor = _geometric(m, k)
    x = LineExpr.monomial(exps)
    assert bott_virtual(x, k, nvars=3, images=_UNITS) == factor
    assert bott_virtual(-x, k, nvars=3, images=_UNITS) * factor == 1


@given(line_exprs(), st.integers(1, 12), st.booleans())
@settings(max_examples=60, deadline=None)
def test_bott_virtual_matches_horners_rule(x, k, custom):
    # negative multiplicities are inverses; the custom images have constant
    # terms 1, 2 and 1/2, so the binomial sums S_j carry powers of u
    images = _UNITS if custom else None
    assert bott_virtual(x, k, nvars=3, images=images) == bott_virtual_horner(x, k, 3, images)


@pytest.mark.parametrize("k", range(2, 33))
def test_bott_cyclotomic_matches_the_sequential_product(k):
    # orbit norms, towers where phi(n) is a power of 2, against the product
    # of the k - 1 factors one at a time; the line classes against bott_lines too
    numeric = LambdaVector(4, (Fraction(1, 2), -3, Fraction(1, 2), 1))  # self-dual
    assert bott_cyclotomic(numeric, k) == bott_cyclotomic_sequential(numeric, k)
    for text in ("L1", "2*L1", "L1+L2^-1", "L1*L2+L3"):
        x = parse_line_expr(text)
        got = bott_cyclotomic(line_to_lambda(x), k)
        assert got == bott_cyclotomic_sequential(line_to_lambda(x), k) == bott_lines(x, k)
        assert got.bound >= largest_exponent(got)


def test_descent_refuses_a_flat_element_that_is_not_invariant():
    line = 1 << _BITS  # the key of L1, above the power digit
    assert _descend(5, {line: 3, 0: 1}) == {1: 3, 0: 1}
    for coeffs, j in (({line + 1: 1}, 2), ({0: 1, 2 * line + 3: -1}, 2),
                      ({line: 1, 1: 1, 2: 1, 3: 1, 4: 1}, 2)):
        with pytest.raises(DescentError) as err:
            _descend(7, coeffs)
        assert err.value.violating == j and err.value.order == 7


@given(effective_exprs(max_monomials=2), st.sampled_from([2, 3, 4, 5, 6, 9, 12]))
@settings(max_examples=30, deadline=None)
def test_bott_cyclotomic_matches_lines(x, k):
    assert bott_cyclotomic(line_to_lambda(x), k) == bott_lines(x, k)


def test_serre_sqrt_hyperbolic_plane():
    v = trivial_lambda_vector(2)  # lambda vector (2, 1)
    root = serre_sqrt(v, 3)
    assert root.value == 3 and not root.sign_ambiguous
    assert root.value ** 2 == bott_cyclotomic(v, 3) == 9


@pytest.mark.parametrize("k,m", list(product((3, 5, 7), (1, 2, 3))))
def test_serre_sqrt_squares_to_bott(k, m):
    v = trivial_lambda_vector(2 * m)
    root = serre_sqrt(v, k)
    assert root.value ** 2 == bott_cyclotomic(v, k)
    assert root.value == Fraction(k) ** m


def _self_dual_vectors(m):
    """Self-dual lambda vectors of rank 2m: lam^j = lam^(2m-j), lam^2m = 1."""
    for head in ((comb(2 * m, j) for j in range(1, m + 1)), range(-1, m - 1),
                 (Fraction(j, 2) for j in range(1, m + 1))):
        head = tuple(head)
        yield LambdaVector(2 * m, head + head[-2::-1] + (1,))


@pytest.mark.parametrize("m", (1, 2, 3))
def test_serre_sqrt_folds_the_twist_into_each_evaluation(m):
    # the twist w^(-mr) rides in each evaluation; the old formula multiplied
    # by it as a second Cyclotomic product per r (n = 2m, so n(k-1)/4 is whole),
    # and the sequential oracle takes the twisted factors one at a time
    for v in _self_dual_vectors(m):
        assert v.is_self_dual()
        for k in range(3, 32, 2):
            old = cyclotomic_const(k, 1)
            for r in range(1, (k - 1) // 2 + 1):
                old = (old * Cyclotomic(k, eval_at_minus_zeta(v, k, r))
                       * zeta(k, -m * r))
            if m * (k - 1) // 2 % 2:
                old = -old
            assert serre_sqrt(v, k) == SerreSqrt(old.descend(), False) \
                == serre_sqrt_sequential(v, k)


def test_serre_sqrt_line_hyperbolic():
    # H(W) for a formal line W: sqrt = lam(top of dual)^((k-1)/2) * bott(W)
    v = LambdaVector(2, (L1 + LineExpr.monomial((-1,)), LineExpr.scalar(1)))
    for k in (3, 5):
        sigma = LineExpr.monomial((-1,)) ** ((k - 1) // 2)
        assert serre_sqrt(v, k).value == sigma * bott_lines(L1, k)


@st.composite
def line_monomial_multisets(draw):
    count = draw(st.integers(1, 2))
    return [tuple(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2)))
            for _ in range(count)]


@given(line_monomial_multisets(), st.sampled_from([3, 5]))
@settings(max_examples=25, deadline=None)
def test_serre_sqrt_random_hyperbolic(monos, k):
    # W a random sum of line monomials, H(W) = W + W^dual:
    # the root squares to the Bott class and equals sigma^((k-1)/2) bott(W)
    w = LineExpr.scalar(0)
    dual = LineExpr.scalar(0)
    sigma = LineExpr.scalar(1)
    for e in monos:
        w = w + LineExpr.monomial(e)
        dual = dual + LineExpr.monomial(tuple(-x for x in e))
        sigma = sigma * LineExpr.monomial(tuple(-x for x in e))
    v = line_to_lambda(w + dual)
    assert v.is_self_dual()
    root = serre_sqrt(v, k)
    assert root.value ** 2 == bott_cyclotomic(v, k)
    assert root.value == sigma ** ((k - 1) // 2) * bott_lines(w, k)


def test_serre_sqrt_preconditions():
    with pytest.raises(ValueError):
        serre_sqrt(trivial_lambda_vector(2), 4)  # even k
    with pytest.raises(ValueError):
        serre_sqrt(LambdaVector(2, (Fraction(2), Fraction(3))), 3)  # not self-dual
    with pytest.raises(ValueError):
        serre_sqrt(LambdaVector(3, (3, 3, 1)), 3)  # odd rank


def test_corrected_bott_examples():
    v = trivial_lambda_vector(2)
    assert corrected_bott(Fraction(3), v, 3) == 1
    for k, m in product((3, 5), (1, 2, 3)):
        vm = trivial_lambda_vector(2 * m)
        rbar = corrected_bott(Fraction(k) ** m, vm, k)
        assert rbar == 1 and rbar ** 2 == 1


def test_delta_accessor():
    v = trivial_lambda_vector(3)
    assert v.delta == -1  # (-1)^3 * lam^3 = -1
    assert trivial_lambda_vector(2).delta == 1


def test_sphere_formula_examples():
    assert sphere_formula(1, 2) == Fraction(1, 2)
    assert sphere_formula(2, 3) == Fraction(5, 9)
    assert sphere_formula(2, 2) == Fraction(1, 4)


@pytest.mark.parametrize("r,k", list(product(range(1, 5), range(2, 8))))
def test_sphere_formula_paths_agree(r, k):
    assert sphere_formula(r, k) == Fraction(sum_of_powers(r, k), k ** r)


def test_sphere_parity_matches_half():
    # for odd k the power sum has the parity of (k-1)/2, any exponent
    for k in (3, 5, 7, 9, 11):
        for r in (1, 4, 5, 8):
            assert sum_of_powers(r, k) % 2 == ((k - 1) // 2) % 2
    # so the mod-2 class is 1 + top for k and (k-1)/2 both odd
    for k in (3, 7, 11):
        assert sphere_formula(4, k).numerator % 2 == 1


def test_line_expr_text_roundtrip():
    x = parse_line_expr("2*L1*L2^-1 - 3 + L3^2")
    assert x == LineExpr({(1, -1): 2, (): -3, (0, 0, 2): 1})
    assert parse_line_expr(str(x)) == x


@given(line_exprs())
@settings(max_examples=60)
def test_line_expr_roundtrip_random(x):
    assert parse_line_expr(str(x)) == x


@given(line_exprs(), line_exprs(), line_exprs())
@settings(max_examples=60)
def test_line_expr_distributive(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x * (y - z) == x * y - x * z


def test_bott_lines_reads_no_key_below_the_bound(monkeypatch):
    # each factor's reach is m (k - 1) x.bound; no key is read below 2^70
    def no_scan(keys):
        raise AssertionError("a key was read")

    cases = [(text, k) for text in ("L1", "3*L1 + 2*L2^-1 + 5", "L1*L2^2 + 2*L3")
             for k in (1, 2, 3, 7, 32)] + [(f"L1^{2 ** 69}", 1), (f"L1^{2 ** 69}", 2)]
    expected = {(text, k): bott_lines(parse_line_expr(text), k) for text, k in cases}
    monkeypatch.setattr(lambda_bott, "_scan", no_scan)
    for (text, k), value in expected.items():
        assert bott_lines(parse_line_expr(text), k) == value


def test_bott_lines_scans_and_refuses_only_where_the_bound_reaches_two_to_the_seventy(monkeypatch):
    e = 2 ** 69
    scanned = []
    real_scan = lambda_bott._scan
    monkeypatch.setattr(lambda_bott, "_scan", lambda keys: scanned.append(len(keys)) or
                        real_scan(keys))
    # each factor of L1^e + L2^e reaches 2^69; the product reaches 2^70 and is read
    assert str(bott_lines(parse_line_expr(f"L1^{e}+L2^{e}"), 2)) == \
        f"1 + L2^{e} + L1^{e} + L1^{e}*L2^{e}"
    assert scanned == [4]
    # the bound of L1 + L2^e puts the reach of L1 at 2^70, so its key is read
    # and found to reach 2; the factor of L2^e then reaches 2^70 and is refused
    for text, k, reach in ((f"L1^{e}", 3, 2 * e), (f"L1 + L2^{e}", 3, 2 * e),
                           (f"L1^{e - 1}", 5, 4 * (e - 1))):
        scanned.clear()
        with pytest.raises(ExponentRangeError) as err:
            bott_lines(parse_line_expr(text), k)
        assert str(err.value) == (f"the Bott class of order {k} could reach a line "
                                  f"exponent of {reach}, not below 2^70 in magnitude")
        assert scanned and set(scanned) == {1}


def test_line_budget_takes_its_log_constant_once_per_k():
    for k in range(1, 33):
        assert lambda_bott._log2_ceil_1024(k) == (k ** 1024 - 1).bit_length()
    # the refusals read the same with the constant cached
    for _ in range(2):
        with pytest.raises(CapExceededError) as err:
            _check_line_budget(parse_line_expr("100000*L1").monomials(), 3)
        assert str(err.value) == "estimated line expansion (MB) 3985 exceeds cap max_output_mb=256"
        if sys.get_int_max_str_digits() == 4300:
            with pytest.raises(ValueError) as err:
                _check_line_budget(parse_line_expr("15000*L1").monomials(), 2)
            assert str(err.value) == ("the line expansion has a coefficient above the "
                                      "4300-digit limit for printing an int "
                                      "(PYTHONINTMAXSTRDIGITS raises it)")
        _check_line_budget(parse_line_expr("14000*L1").monomials(), 2)


@pytest.mark.parametrize("c", [1, -3, 0, True, False, Fraction(3, 1), Fraction(-1, 2),
                               Fraction(0), 0.5, 0.0, -2.0, "2", "1/3", "0", "-0/5"])
def test_monomial_and_scalar_store_what_the_constructor_stores(c):
    for exps in ((), (0,), (2,), (1, 0, -3), (0, 0), (2 ** 69, -1)):
        fast, checked = LineExpr.monomial(exps, c), LineExpr({exps: c})
        assert fast.coeffs == checked.coeffs and fast.bound == checked.bound
        assert [type(v) for v in fast.coeffs.values()] == \
            [type(v) for v in checked.coeffs.values()]
        assert str(fast) == str(checked)
    scalar = LineExpr.scalar(c)
    assert scalar.coeffs == LineExpr({(): c}).coeffs and scalar.bound == 0


def test_monomial_keeps_the_constructors_errors():
    for exps, c, error in (((2 ** 70,), 1, ExponentRangeError), ((1,), "x", ValueError),
                           ((1,), None, TypeError), ((-2 ** 70, 1), "x", ExponentRangeError)):
        for make in (lambda: LineExpr.monomial(exps, c), lambda: LineExpr({exps: c})):
            with pytest.raises(error):
                make()
