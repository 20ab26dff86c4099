"""Blade arithmetic, the Clifford group, volume elements and the liftings."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import clifford_vector, zeta
from dense_clifford import (dense_group_test, dense_inverse, dense_phi_gram, dense_preserves,
                            dense_untwist_bijective, det)
from dense_modules import mat_eq, mat_mul, mat_scale, transpose
from spinbott import clifford
from spinbott.clifford import (CliffordElement, FormMismatchError, Membership,
                               NotOrientableError, _blade_product, _squares,
                               clifford_group_test, graded_tensor_check, pairing_det,
                               parse_element, phi_gram, spin_lift, untwist_iso,
                               volume_element)
from spinbott.config import DEFAULT_CAPS, CapExceededError, Caps, FailedCheckError, caps_scope
from spinbott.quadforms import QuadraticForm, hyperbolic, square_free_part

H = hyperbolic(1)


def gen(form, i):
    return CliffordElement.generator(form, i)


@st.composite
def forms(draw, max_rank=4):
    rank = draw(st.integers(1, max_rank))
    entries = draw(st.lists(st.sampled_from([1, -1, 2, -2, 3]),
                            min_size=rank, max_size=rank))
    return QuadraticForm(tuple(entries))


@st.composite
def elements(draw, form=None, max_rank=4):
    q = form if form is not None else draw(forms(max_rank))
    coeffs = draw(st.dictionaries(st.integers(0, (1 << q.rank) - 1),
                                  st.integers(-3, 3), max_size=5))
    return CliffordElement(q, coeffs)


def test_mul_examples():
    q = QuadraticForm((2, -1))
    assert gen(q, 1) * gen(q, 1) == 2
    assert (gen(H, 1) * gen(H, 2)) * gen(H, 1) == -gen(H, 2)
    assert (gen(H, 1) * gen(H, 2)) ** 2 == 1


MERGE_FORMS = (QuadraticForm((1, -1, 2, -2, 3, -3)),
               QuadraticForm((Fraction(1, 2), -3, Fraction(-2, 3), 2, Fraction(5, 4), -1)))


def _merge_oracle(q, m1, m2):
    """(mask, coeff) of e_m1 e_m2 from blades as index lists: bubble the
    right factor into place and apply e_i e_i = q_i on collisions."""
    seq = [i for i in range(6) if m1 >> i & 1] + [i for i in range(6) if m2 >> i & 1]
    coeff = Fraction(1)
    changed = True
    while changed:
        changed = False
        for t in range(len(seq) - 1):
            if seq[t] > seq[t + 1]:
                seq[t], seq[t + 1] = seq[t + 1], seq[t]
                coeff = -coeff
                changed = True
            elif seq[t] == seq[t + 1]:
                coeff *= q.diag[seq[t]]
                del seq[t:t + 2]
                changed = True
                break
    mask = 0
    for i in seq:
        mask |= 1 << i
    return mask, coeff


def test_blade_product_against_merge_oracle():
    # independent oracle on single blades, checked on the structure-constant
    # kernel and on the element product, over an integral form and a form
    # with proper-fraction entries
    for q in MERGE_FORMS:
        rng = random.Random(13)
        squares = _squares(q.diag)
        for _ in range(300):
            m1, m2 = rng.randrange(64), rng.randrange(64)
            mask, coeff = _merge_oracle(q, m1, m2)
            assert mask == m1 ^ m2
            assert _blade_product(m1, m2, squares) == coeff
            assert _blade_product(m1, m2, squares, Fraction(-2, 3)) == Fraction(-2, 3) * coeff
            prod = CliffordElement(q, {m1: 1}) * CliffordElement(q, {m2: 1})
            assert prod == CliffordElement(q, {mask: coeff})


def test_multi_term_products_against_merge_oracle():
    # products of random multi-term elements, expanded pair by pair through
    # the oracle; the two forms of the same rank alternate in one process,
    # so a product memo shared between them would show
    rng = random.Random(29)
    for step in range(120):
        q = MERGE_FORMS[step % 2]
        a, b = ({rng.randrange(64): Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                 for _ in range(rng.randint(1, 8))} for _ in range(2))
        expect = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mask, coeff = _merge_oracle(q, m1, m2)
                expect[mask] = expect.get(mask, 0) + c1 * c2 * coeff
        assert CliffordElement(q, a) * CliffordElement(q, b) == CliffordElement(q, expect)


# -- coefficient storage: integral values as int, the rest as Fraction --------

STORAGE_FORMS = (QuadraticForm((Fraction(1, 2), 3, -5)), QuadraticForm((2, -2)))


def _assert_stored_exactly(a):
    for c in a.coeffs.values():
        assert c and type(c) is (int if c.denominator == 1 else Fraction)


@pytest.mark.parametrize("q", STORAGE_FORMS, ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_clifford_results_store_integral_values_as_int(q, data):
    values = st.fractions(-3, 3, max_denominator=4)
    masks = st.integers(0, (1 << q.rank) - 1)
    a, b = (CliffordElement(q, data.draw(st.dictionaries(masks, values, max_size=4)))
            for _ in range(2))
    results = [a, b, a * b, b * a, a + b, a - b, -a, a * Fraction(4, 2), a * Fraction(1, 3),
               a.bar(), a * a.bar()]
    inv = a.inverse()
    if inv is not None:
        results.append(inv)
    for x in results:
        _assert_stored_exactly(x)


def test_clifford_storage_examples():
    half = QuadraticForm((Fraction(1, 2), 3, -5))
    e1, e2 = gen(half, 1), gen(half, 2)
    assert (e1 * e1).coeffs == {0: Fraction(1, 2)} and type((e1 * e1).coeffs[0]) is Fraction
    assert (e2 * e2).coeffs == {0: 3} and type((e2 * e2).coeffs[0]) is int
    q = QuadraticForm((2, -2))
    f1, f2 = gen(q, 1), gen(q, 2)
    blade = f1 * f2
    assert (blade * blade).coeffs == {0: 4} and type((blade * blade).coeffs[0]) is int
    assert type(clifford_group_test(blade).norm) is int


def test_mul_form_mismatch():
    with pytest.raises(FormMismatchError):
        gen(H, 1) * gen(QuadraticForm((1, 1)), 1)


def test_bar_examples():
    assert gen(H, 1).bar() == gen(H, 1)
    e12 = gen(H, 1) * gen(H, 2)
    assert e12.bar() == -e12


@given(elements())
@settings(max_examples=60)
def test_bar_involution(a):
    assert a.bar().bar() == a


@given(st.data())
@settings(max_examples=60)
def test_bar_antiautomorphism(data):
    q = data.draw(forms())
    a = data.draw(elements(form=q))
    b = data.draw(elements(form=q))
    assert (a * b).bar() == b.bar() * a.bar()


@given(st.data())
@settings(max_examples=40)
def test_mul_associative(data):
    q = data.draw(forms(max_rank=6))
    a, b, c = (data.draw(elements(form=q)) for _ in range(3))
    assert (a * b) * c == a * (b * c)


@given(st.data())
@settings(max_examples=60)
def test_degree_multiplicative(data):
    q = data.draw(forms())
    a = data.draw(elements(form=q))
    b = data.draw(elements(form=q))
    if a.degree() is None or b.degree() is None or not a or not b:
        return
    prod = a * b
    if prod:
        assert prod.degree() == (a.degree() + b.degree()) % 2


def test_norm_examples():
    def norm(a):
        return clifford_group_test(a).norm

    q3 = QuadraticForm((3,))
    assert norm(gen(q3, 1)) == 3
    assert norm(gen(H, 1) * gen(H, 2)) == -1
    a = gen(H, 1) + 2 * gen(H, 2)
    assert norm(a * 5) == 25 * norm(a) == -75


def test_volume_element_examples():
    u = volume_element(H)
    assert u == gen(H, 1) * gen(H, 2)
    assert u * u == 1
    q4 = QuadraticForm((1, 1, 1, 1))
    u4 = volume_element(q4)
    assert u4 * u4 == 1
    assert all(u4 * gen(q4, i) + gen(q4, i) * u4 == 0 for i in range(1, 5))
    with pytest.raises(NotOrientableError):
        volume_element(QuadraticForm((1, 1)))


@pytest.mark.parametrize("q", [H, QuadraticForm((2, -2)), hyperbolic(2),
                               QuadraticForm((1, 1, 1, 1)), hyperbolic(3)])
def test_volume_element_norm_depends_on_rank(q):
    # computed value: bar(u) = (-1)^(n(n-1)/2) u, so N(u) = -1 for rank 2 mod 4
    res = clifford_group_test(volume_element(q))
    expected = -1 if q.rank % 4 == 2 else 1
    assert res.member and res.degree == 0
    assert res.norm == expected
    assert res.in_spin == (expected == 1)


def test_group_test_examples():
    res = clifford_group_test(gen(H, 1))
    assert res.member and res.degree == 1 and res.norm == 1 and not res.in_spin
    assert res.rows() == [[-1, 0], [0, 1]]

    res = clifford_group_test(gen(H, 1) * gen(H, 2))
    assert res.member and res.norm == -1 and not res.in_spin
    assert res.rows() == [[-1, 0], [0, -1]]

    q = QuadraticForm((1, 1))
    res = clifford_group_test(gen(q, 1) + gen(q, 2))
    assert res.member and res.degree == 1 and res.norm == 2 and not res.in_spin
    assert res.rows() == [[0, -1], [-1, 0]]


def rejection_cases() -> list:
    """(element, reason): one element per non-member branch."""
    one = CliffordElement.scalar(H, 1)
    q = QuadraticForm((1, -1))
    q4 = QuadraticForm((1, 1, 1, 1))
    r4 = QuadraticForm((Fraction(1, 2), 1, -3, 1))
    return [
        (one + gen(H, 1), "not homogeneous"),
        (CliffordElement(H, {}), "zero is not invertible"),
        # 1 + e1e2 squares to 2(1 + e1e2), and its norm is the scalar 0
        ((one + gen(q, 1) * gen(q, 2)) * Fraction(1, 2), "not invertible"),
        # invertible, but 2 + e1e2e3e4 has the norm 5 + 4 e1e2e3e4
        (CliffordElement.scalar(q4, 2) + volume_element(q4), "conjugation moves e1 outside V"),
        # rational coefficients over a rational form, no scalar norm either
        (CliffordElement.scalar(r4, Fraction(2, 3)) + gen(r4, 1) * gen(r4, 2) * Fraction(1, 2)
         - gen(r4, 3) * gen(r4, 4) * Fraction(2, 3), "conjugation moves e1 outside V"),
    ]


def test_group_test_rejections(monkeypatch):
    # each non-member branch with its reason; the test takes the adjugate of
    # the integer multiple b = L a and never forms an inverse
    def refuse(self):
        raise AssertionError("the Clifford-group test needs no inverse()")

    monkeypatch.setattr(CliffordElement, "inverse", refuse)
    for a, reason in rejection_cases():
        assert clifford_group_test(a) == Membership(False, reason=reason)


def test_isometry_check_reads_every_pair(monkeypatch):
    # an image step that always answers with the image of e1 gives images of
    # the right lengths that are not orthogonal: only the off-diagonal pair
    # fails.  e1 e2 has both generators in its support, so both are solved for
    q = QuadraticForm((1, 1))
    a = gen(q, 1) * gen(q, 2)
    intertwine = clifford._intertwine
    monkeypatch.setattr(clifford, "_intertwine", lambda b, i, *rest: intertwine(b, 0, *rest))
    with pytest.raises(FailedCheckError, match="does not preserve the form"):
        clifford_group_test(a)


def test_group_test_conjugates_only_the_support(monkeypatch):
    # a spin-lift generator over 4 copies of a rank-2 form lives on copies
    # c and c+1: only their 2n generators are solved for, every other image
    # is e_i itself, and the result is that of full conjugation
    n, k, c = 2, 4, 1
    g = spin_lift(H, k).generators[c]
    solved = []
    intertwine = clifford._intertwine
    monkeypatch.setattr(clifford, "_intertwine",
                        lambda b, i, *rest: solved.append(i) or intertwine(b, i, *rest))
    res = clifford_group_test(g)
    assert solved == list(range(c * n, (c + 2) * n))
    assert all(res.images[i] == {i: 1} for i in range(n * k) if i // n not in (c, c + 1))
    monkeypatch.undo()
    inv = g.inverse()
    full = []
    for i in range(1, n * k + 1):
        img = g * gen(g.form, i) * inv
        full.append({m.bit_length() - 1: x for m, x in img.coeffs.items()})
    assert res.member and res.degree == 0 and list(res.images) == full


def test_member_without_a_scalar_norm_is_a_failed_check(monkeypatch):
    # over a nondegenerate form every member has a nonzero scalar a*bar(a);
    # a conjugation that breaks this sends e1 e2 down the inverse() path,
    # whose images stay in V, so the test reports a failed check, not a norm
    q = QuadraticForm((1, 1))
    bar = CliffordElement.bar
    monkeypatch.setattr(CliffordElement, "bar", lambda self: bar(self) + gen(q, 1))
    with pytest.raises(FailedCheckError, match="no scalar norm"):
        clifford_group_test(gen(q, 1) * gen(q, 2))


def test_group_test_solve_fallback():
    # 2 + e1e2e3e4 is even and invertible, but a*bar(a) = 5 + 4u is not a
    # scalar, so the inverse comes from the characteristic-polynomial
    # recursion instead of the Clifford-group path; conjugation then leaves
    # V, so it is still not a group element
    q = QuadraticForm((1, 1, 1, 1))
    a = CliffordElement.scalar(q, 2) + volume_element(q)
    inv = a.inverse()
    assert inv is not None and a * inv == 1
    assert inv == (CliffordElement.scalar(q, 2) - volume_element(q)) * Fraction(1, 3)
    res = clifford_group_test(a)
    assert not res.member and "outside V" in res.reason


# -- the intertwining test against the conjugation oracle ----------------------

def assert_same_membership(a):
    """clifford_group_test(a) is dense_group_test(a): every field, each value
    of the same type, or the same failed check."""
    try:
        want = dense_group_test(a)
    except FailedCheckError as err:
        with pytest.raises(FailedCheckError, match=re.escape(str(err))):
            clifford_group_test(a)
        return want
    got = clifford_group_test(a)
    assert got == want
    assert repr(got.norm) == repr(want.norm)
    assert ([repr(sorted(img.items())) for img in got.images or ()]
            == [repr(sorted(img.items())) for img in want.images or ()])
    return got


@pytest.mark.parametrize("seed", range(4))
def test_group_test_matches_conjugation_on_random_elements(seed):
    # homogeneous elements of rank <= 6 over int and Fraction forms: products
    # c v_1...v_m of random vectors (members, or zero divisors when a vector
    # is isotropic) and random sums of blades of one parity
    rng = random.Random(seed)
    entries = ([1, -1, 2, -3, 5], [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    reasons = set()
    for case in range(60):
        n = rng.randint(1, 6)
        q = QuadraticForm(tuple(rng.choice(entries[case % 2]) for _ in range(n)))
        if case % 3:
            a = CliffordElement.scalar(q, rng.choice([1, 2, Fraction(-1, 2)]))
            for _ in range(rng.randint(1, 4)):
                a = a * clifford_vector(q, [rng.randint(-2, 2) for _ in range(n)])
        else:
            parity = rng.randint(0, 1)
            masks = [m for m in range(1 << n) if bin(m).count("1") % 2 == parity]
            a = CliffordElement(q, {rng.choice(masks): rng.choice(values)
                                    for _ in range(rng.randint(1, 4))})
        res = assert_same_membership(a)
        reasons.add(res.reason.split(" e")[0] if res.reason else "member")
    assert {"member", "conjugation moves"} <= reasons


def test_group_test_matches_conjugation_on_the_rejections():
    for a, _ in rejection_cases():
        assert_same_membership(a)


def test_group_test_matches_conjugation_on_cli_shapes():
    # clifford-check of a + b e_i e_j at ranks 4..10: a unit unless
    # a^2 + b^2 q_i q_j = 0, which three non-units force by their q_j
    rng = random.Random(5)
    entries = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7)
    shapes = [(n, True) for n in range(4, 11) for _ in range(3)] + [(n, False) for n in (4, 6, 8)]
    for n, unit in shapes:
        q = [Fraction(rng.choice(entries)) for _ in range(n)]
        i, j = sorted(rng.sample(range(n), 2))
        a, b = rng.choice((1, -1)) * rng.randint(1, 5), rng.choice((1, -1)) * rng.randint(1, 5)
        if not unit:
            q[j] = Fraction(-a * a, b * b) / q[i]
        elif a * a + b * b * q[i] * q[j] == 0:
            q[j] = -q[j]
        form = QuadraticForm(tuple(q))
        res = assert_same_membership(CliffordElement(form, {0: a, 1 << i | 1 << j: b}))
        assert res.member == unit


@pytest.mark.parametrize("forms, copies", [
    ([(a, -a) for a in (1, 2, 3, 5, 6, 7)], range(2, 7)),
    ([(a, -a, b, -b) for a, b in itertools.combinations((1, 2, 3, 5, 6, 7), 2)], [2])])
def test_group_test_matches_conjugation_on_spin_lift_generators(forms, copies):
    for entries in forms:
        for k in copies:
            for g in spin_lift(QuadraticForm(entries), k).generators:
                assert assert_same_membership(g).member


def test_pairing_check_matches_the_pairwise_loop():
    # the images of members, half of them with one entry set to another
    # value (0 included, or a new coordinate), and random sparse images: the
    # row-wise sums agree with the pair-by-pair loop, over int and Fraction
    # forms
    rng = random.Random(17)
    values = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
    verdicts = set()
    for case in range(300):
        n = rng.randint(1, 6)
        diag = tuple(rng.choice([1, -1, 2, -3, Fraction(1, 2)]) for _ in range(n))
        q = QuadraticForm(diag)
        images = None
        if case % 2:
            v = [rng.randint(-2, 2) for _ in range(n)]
            if sum(d * x * x for d, x in zip(diag, v)):
                res = clifford_group_test(clifford_vector(q, v) * rng.choice([1, 3]))
                images = [dict(img) for img in res.images]
                c, t = rng.randrange(n), rng.randrange(n)
                if case % 4 == 1:
                    images[c][t] = rng.choice(values)
        if images is None:
            images = [{t: rng.choice(values[1:])
                       for t in rng.sample(range(n), rng.randint(0, min(2, n)))}
                      for _ in range(n)]
        verdict = dense_preserves(images, diag)
        assert clifford._preserves(images, diag) == verdict, (diag, images)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def dense_even_member(rank: int) -> CliffordElement:
    """The sum of every even blade over 1, 2, 3, 5, ..., a member."""
    q = QuadraticForm((1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)[:rank])
    return CliffordElement(q, {m: 1 for m in range(1 << rank) if bin(m).count("1") % 2 == 0})


def test_group_test_matches_conjugation_on_a_dense_member():
    assert assert_same_membership(dense_even_member(8)).member


def test_member_test_forms_one_dense_product(monkeypatch):
    # the rank-8 member of all 128 even blades: its one element product is
    # N(b), 128 x 128 terms.  Signing adj for the n support indices takes
    # n |b| blade products, and each support generator at most 3 n |b|
    # blade products and column lookups (b e_i, the vector part w of
    # b e_i adj, w b)
    a = dense_even_member(8)
    n, size = a.form.rank, len(a.coeffs)
    products, blades, lookups, per_generator = [], [0], [0], []
    mul, blade, intertwine = CliffordElement.__mul__, clifford._blade_product, clifford._intertwine

    class Column(dict):
        def get(self, key, default=None):
            lookups[0] += 1
            return dict.get(self, key, default)

    def counted_mul(self, other):
        if isinstance(other, CliffordElement):
            products.append((len(self.coeffs), len(other.coeffs)))
        return mul(self, other)

    def counted_blade(*args):
        blades[0] += 1
        return blade(*args)

    def counted_intertwine(b, i, columns, squares):
        start = blades[0], lookups[0]
        out = intertwine(b, i, [(t, Column(column)) for t, column in columns], squares)
        per_generator.append((blades[0] - start[0], lookups[0] - start[1]))
        return out

    monkeypatch.setattr(CliffordElement, "__mul__", counted_mul)
    monkeypatch.setattr(clifford, "_blade_product", counted_blade)
    monkeypatch.setattr(clifford, "_intertwine", counted_intertwine)
    res = clifford_group_test(a)
    assert res.member and res.degree == 0
    assert products == [(size, size)]
    assert len(per_generator) == n
    assert all(p + q <= 3 * n * size for p, q in per_generator)
    assert blades[0] - sum(p for p, _ in per_generator) == n * size


@st.composite
def inverse_cases(draw):
    # odd and even n <= 5, proper-fraction entries; mixed, even or odd
    # elements, and zero divisors b (1 + w) with w a blade of square one
    n = draw(st.integers(0, 5))
    q = QuadraticForm(tuple(draw(st.lists(
        st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3)]),
        min_size=n, max_size=n))))
    parity = draw(st.sampled_from([None, 0, 1]))
    masks = [m for m in range(1 << n) if parity is None or bin(m).count("1") % 2 == parity]
    if not masks:
        masks = [0]
    coeffs = draw(st.dictionaries(st.sampled_from(masks),
                                  st.fractions(-3, 3, max_denominator=2),
                                  min_size=1, max_size=6))
    a = CliffordElement(q, coeffs)
    ones = [w for w in range(1, 1 << n)
            if (CliffordElement(q, {w: 1}) * CliffordElement(q, {w: 1})) == 1]
    if ones and draw(st.booleans()):
        a = a * (CliffordElement(q, {draw(st.sampled_from(ones)): 1}) + 1)
    return a


@given(inverse_cases())
@settings(max_examples=150, deadline=None)
def test_inverse_matches_the_dense_solve(a):
    assert a.inverse() == dense_inverse(a)


def test_inverse_finds_non_units_and_units():
    q = hyperbolic(4)
    one = CliffordElement.scalar(q, 1)
    assert (one + gen(q, 1) * gen(q, 2)).inverse() is None
    assert (one + gen(q, 1)).inverse() is None
    a = one * 2 + gen(q, 1) * gen(q, 3) + gen(q, 2) * gen(q, 4) * gen(q, 5) * gen(q, 6)
    inv = a.inverse()
    assert inv == dense_inverse(a) and a * inv == 1


def test_adjugate_is_a_scalar_two_sided_adjugate():
    # a adj = adj a = det, a scalar, and det = 0 exactly for the elements the
    # dense solve cannot invert; mixed, even and odd elements of rank <= 6,
    # some made zero divisors as b (1 + w) with w a blade of square one
    rng = random.Random(29)
    values = [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3)]
    seen = set()
    for case in range(90):
        n = rng.choice([0, 1, 2, 3, 3, 4, 4, 5, 6])
        q = QuadraticForm(tuple(rng.choice([1, -1, 2, -3, Fraction(1, 2)]) for _ in range(n)))
        parity = rng.choice([None, 0, 1])
        masks = [m for m in range(1 << n)
                 if parity is None or bin(m).count("1") % 2 == parity] or [0]
        a = CliffordElement(q, {rng.choice(masks): rng.choice(values)
                                for _ in range(rng.randint(1, 5))})
        ones = [w for w in range(1, 1 << n) if CliffordElement(q, {w: 1}) ** 2 == 1]
        if ones and case % 3 == 0:
            a = a * (CliffordElement(q, {rng.choice(ones): 1}) + 1)
        adj, det = a.adjugate()
        assert a * adj == det and adj * a == det
        assert (det == 0) == (dense_inverse(a) is None)
        norm = a * a.bar()
        seen.add((det != 0, norm.is_scalar() and norm.coefficient(0) != 0))
    # units with and without a scalar norm, and non-units
    assert seen == {(True, True), (True, False), (False, False)}


def test_phi_homomorphism_on_members():
    rng = random.Random(3)
    q = QuadraticForm((1, -1, 2, -2))
    vectors = []
    while len(vectors) < 6:
        coords = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        v = clifford_vector(q, coords)
        if (v * v.bar()).coefficient(0) != 0:
            vectors.append(v)
    for i in range(0, 6, 2):
        a, b = vectors[i], vectors[i + 1]
        ra, rb, rab = (clifford_group_test(x) for x in (a, b, a * b))
        assert ra.member and rb.member and rab.member
        assert mat_mul(ra.rows(), rb.rows()) == rab.rows()


def reflection(d, v):
    # S_v(x) = x - 2 b(v, x) / q(v) v, with b(v, e_j) = d_j v_j
    qv = sum(di * vi * vi for di, vi in zip(d, v))
    return [[int(i == j) - 2 * v[i] * d[j] * v[j] / qv for j in range(len(d))]
            for i in range(len(d))]


def test_isometry_is_the_product_of_reflections(monkeypatch):
    # c v_1...v_m acts on V as the product of the reflections
    # S_(v_1)...S_(v_m), each from its closed form, and has the norm
    # c^2 q(v_1)...q(v_m); a rational content c clears denominators first.
    # A member's norm is a nonzero scalar, so no inverse is ever formed
    def refuse(self):
        raise AssertionError("a member needs no inverse()")

    monkeypatch.setattr(CliffordElement, "inverse", refuse)
    rng = random.Random(11)
    entries = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    contents = [1, Fraction(1, 2), Fraction(-2, 3), 3]
    checked = 0
    for case in range(60):
        n = rng.randint(1, 6)
        d = [Fraction(rng.choice(entries)) for _ in range(n)]
        q = QuadraticForm(tuple(d))
        c = contents[case % len(contents)]
        a = CliffordElement.scalar(q, c)
        expect = [[int(i == j) for j in range(n)] for i in range(n)]
        norm, count = c * c, 0
        for _ in range(rng.randint(1, 3)):
            v = [Fraction(rng.randint(-2, 2)) for _ in d]
            qv = sum(di * vi * vi for di, vi in zip(d, v))
            if qv == 0:
                continue
            a = a * clifford_vector(q, v)
            expect = mat_mul(expect, reflection(d, v))
            norm, count = norm * qv, count + 1
        if a.is_scalar():
            continue
        checked += 1
        res = clifford_group_test(a)
        assert res.member and res.rows() == expect, case
        assert res.degree == count % 2 and res.norm == norm, case
        assert res.in_spin == (count % 2 == 0 and norm == 1), case
    assert checked >= 50


def test_phi_gram_examples():
    assert phi_gram(H, 0) == {0: 1, 3: 1}
    assert phi_gram(H, 1) == {1: 1, 2: -1}
    assert pairing_det(phi_gram(H, 0)) == -1 and pairing_det(phi_gram(H, 1)) == 1


@pytest.mark.parametrize("q", [H, hyperbolic(2), QuadraticForm((2, -2))])
def test_phi_gram_shape(q):
    top = (1 << q.rank) - 1
    g0, g1 = phi_gram(q, 0), phi_gram(q, 1)
    assert all(x == g0[top ^ m] for m, x in g0.items())
    assert all(x == -g1[top ^ m] for m, x in g1.items())
    assert pairing_det(g0) != 0 and pairing_det(g1) != 0
    half = (1 << (q.rank - 1)) // 2
    assert square_free_part(pairing_det(g0) * Fraction(-1) ** half) == 1


@st.composite
def orientable_forms(draw, rank):
    # the last entry makes (-1)^(n(n-1)/2) a1...an a square
    nonzero = st.fractions(-4, 4, max_denominator=3).filter(bool)
    entries = draw(st.lists(nonzero, min_size=rank - 1, max_size=rank - 1))
    last = (-1) ** (rank * (rank - 1) // 2) * draw(nonzero) ** 2
    for a in entries:
        last *= a
    return QuadraticForm(tuple(entries) + (last,))


@pytest.mark.parametrize("rank", [2, 4, 6])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_phi_gram_pairing_matches_the_dense_gram(rank, data):
    q = data.draw(orientable_forms(rank))
    top = (1 << rank) - 1
    for parity in (0, 1):
        pairing = phi_gram(q, parity)
        basis, gram = dense_phi_gram(q, parity)
        assert sorted(pairing) == basis
        assert gram == [[pairing[a] if b == top ^ a else 0 for b in basis] for a in basis]
        assert mat_eq(gram, transpose(gram) if parity == 0 else mat_scale(transpose(gram), -1))
        assert det(gram) == pairing_det(pairing)


@pytest.mark.parametrize("parity", [0, 1])
def test_phi_gram_at_the_rank_cap(parity):
    q = hyperbolic(DEFAULT_CAPS.max_dim // 2)
    pairing = phi_gram(q, parity)
    assert len(pairing) == 1 << (q.rank - 1)
    # the hyperbolic form on 2 * half blades has det (-1)^half when symmetric
    # and 1 when alternating
    half = (1 << (q.rank - 1)) // 2
    hyperbolic_det = (-1) ** half if parity == 0 else 1
    assert square_free_part(pairing_det(pairing)) == square_free_part(hyperbolic_det)


def test_graded_tensor_examples():
    one = QuadraticForm((1,))
    assert graded_tensor_check(one, one)
    assert graded_tensor_check(H, H)
    assert graded_tensor_check(QuadraticForm((2,)), QuadraticForm((3,)))


def test_untwist_examples():
    res = untwist_iso(H, 1)
    assert res.relations_ok and res.bijective
    res = untwist_iso(H, 2)
    assert res.relations_ok and res.bijective


def test_untwist_rank_four():
    res = untwist_iso(hyperbolic(2), 1)
    assert res.relations_ok and res.bijective


@pytest.mark.parametrize("q, r", [
    (H, 1), (H, 2), (hyperbolic(2), 1), (QuadraticForm((2, -2)), 1),
    (QuadraticForm((2, -2)), 3), (hyperbolic(3), 1), (hyperbolic(3), 2)])
def test_untwist_bijective_matches_the_dense_rank(q, r):
    res = untwist_iso(q, r)
    assert res.bijective == dense_untwist_bijective(q, r, res.gen_images)
    assert res.bijective


@pytest.mark.parametrize("build, rank", [
    (lambda: phi_gram(hyperbolic(2), 0), 4),
    (lambda: graded_tensor_check(H, hyperbolic(2)), 6),
    (lambda: untwist_iso(hyperbolic(2), 2), 6),
], ids=["phi_gram", "graded_tensor_check", "untwist_iso"])
def test_blade_checks_honour_the_rank_cap(build, rank):
    # none of these builds an element of the full rank, so each checks the cap itself
    with caps_scope(Caps(max_dim=rank - 1)):
        with pytest.raises(CapExceededError, match=f"Clifford rank {rank} exceeds"):
            build()
    with caps_scope(Caps(max_dim=rank)):
        build()


def test_spin_lift_two_copies():
    lift = spin_lift(H, 2)
    assert lift.all_ok
    assert lift.norms == [Fraction(-1)]  # rank 2 mod 4: norm is -1
    assert lift.in_spin == [False]


def test_spin_lift_three_copies():
    lift = spin_lift(H, 3)
    assert lift.all_ok
    assert lift.lambda_sign in (1, -1)


def test_braid_normalize_both_branches():
    from spinbott.clifford import braid_normalize
    gens = spin_lift(H, 3).generators
    same, lam = braid_normalize(gens)
    assert lam == 1 and same == gens
    # flip the sign of the second lift: the defect is read off and undone
    broken = [gens[0], -gens[1]]
    fixed, lam = braid_normalize(broken)
    assert lam == -1
    assert fixed == gens
    assert fixed[0] * fixed[1] * fixed[0] == fixed[1] * fixed[0] * fixed[1]


def test_spin_lift_rank_four():
    lift = spin_lift(hyperbolic(2), 2)
    assert lift.all_ok
    assert lift.norms == [Fraction(1)]
    assert lift.in_spin == [True]


@pytest.mark.parametrize("q, k", [(H, 2), (H, 3), (hyperbolic(2), 2)], ids=str)
def test_spin_lift_values_are_int_or_fraction(q, k):
    # integral Clifford coefficients are ints; no division may make a float
    lift = spin_lift(q, k)
    values = [lift.lambda_sign, *lift.norms]
    values += [c for g in lift.generators for c in g.coeffs.values()]
    assert all(type(v) in (int, Fraction) for v in values)
    gens = lift.generators
    if len(gens) > 1:
        # scaled by 4 every coefficient is an int, so the sign is int / int
        from spinbott.clifford import braid_normalize
        for sign in (1, -1):
            scaled = [g * 4 if i % 2 == 0 else g * (4 * sign) for i, g in enumerate(gens)]
            assert all(type(c) is int for g in scaled for c in g.coeffs.values())
            fixed, lam = braid_normalize(scaled)
            assert lam == sign and type(lam) is Fraction
            assert all(type(c) is int for g in fixed for c in g.coeffs.values())


def _rational_spin_lift(q, k):
    """spin_lift computed on the rational generators g_c = s2 b_c throughout:
    the braid sign, the squares and every relation read off the g_c."""
    from spinbott.clifford import SpinLift, braid_normalize
    from spinbott.quadforms import is_orientable, scale
    n, big = q.rank, QuadraticForm(q.diag * k)
    _, s2 = is_orientable(scale(q, 2))
    lifts = []
    for c in range(k - 1):
        g = CliffordElement.scalar(big, s2)
        for j in range(n):
            g = g * (gen(big, c * n + j + 1) - gen(big, (c + 1) * n + j + 1))
        lifts.append(g)
    gens, lam = braid_normalize(lifts)
    one = CliffordElement.scalar(big, 1)
    tests = [clifford_group_test(g) for g in gens]
    swaps_ok = all(
        res.member and res.degree == 0 and all(
            img == {t + {c: n, c + 1: -n}.get(t // n, 0): 1} for t, img in enumerate(res.images))
        for c, res in enumerate(tests))
    return SpinLift(
        q, k, gens, lam,
        squares_ok=all(g * g == one for g in gens),
        braid_ok=all(gens[i] * gens[i + 1] * gens[i] == gens[i + 1] * gens[i] * gens[i + 1]
                     for i in range(len(gens) - 1)),
        commutation_ok=all(gens[i] * gens[j] == gens[j] * gens[i]
                           for i in range(len(gens)) for j in range(i + 2, len(gens))),
        matrices_ok=swaps_ok, norms=[res.norm for res in tests],
        in_spin=[res.in_spin for res in tests])


# the spin-lift requests of the benchmark's algebra-cli round (a, -a with 2..6
# copies, a, -a, b, -b with 2) and the rank-12 point of the CI cap step
_SPIN_ENTRIES = (1, 2, 3, 5, 6, 7)
SPIN_LIFT_POINTS = (
    [((a, -a), c) for a in _SPIN_ENTRIES for c in range(2, 7)]
    + [((a, -a, b, -b), 2) for a in _SPIN_ENTRIES for b in _SPIN_ENTRIES if a < b]
    + [((1, -1, 1, -1, 1, -1), 2)])


@pytest.mark.parametrize("diag, k", SPIN_LIFT_POINTS, ids=str)
def test_spin_lift_matches_the_rational_generators(diag, k):
    q = QuadraticForm(diag)
    lift, expect = spin_lift(q, k), _rational_spin_lift(q, k)
    assert lift == expect and lift.all_ok
    stored = [[type(c) for c in g.coeffs.values()] for g in lift.generators]
    assert stored == [[type(c) for c in g.coeffs.values()] for g in expect.generators]
    assert [type(x) for x in lift.norms] == [type(x) for x in expect.norms]


def test_spin_lift_with_a_wrong_witness_fails_its_squares(monkeypatch, capsys):
    # a witness of (V, 2q) scaled by 2 makes every generator square to 4:
    # the relations homogeneous in it still hold, the squares must not
    import json
    from spinbott import clifford
    from spinbott.cli import main
    true_orientable = clifford.is_orientable

    def doubled_witness(q):
        ok, s = true_orientable(q)
        return ok, s and 2 * s

    monkeypatch.setattr(clifford, "is_orientable", doubled_witness)
    lift = spin_lift(H, 3)
    assert not lift.squares_ok and lift.braid_ok and lift.commutation_ok
    assert main(["spin-lift", "--form", "1,-1", "--copies", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["squares_ok"] is False and payload["braid_ok"] is True


def test_spin_lift_preconditions():
    with pytest.raises(ValueError):
        spin_lift(QuadraticForm((1,)), 2)
    with pytest.raises(NotOrientableError):
        spin_lift(QuadraticForm((1, 1)), 2)


@given(elements(max_rank=3))
@settings(max_examples=60)
def test_element_text_roundtrip(a):
    assert parse_element(str(a), a.form) == a


def test_parse_element_examples():
    q = QuadraticForm((1, -1, 2))
    a = parse_element("2*e1e3 - e2 + 1", q)
    assert a.coefficient(0b101) == 2
    assert a.coefficient(0b010) == -1
    assert a.coefficient(0) == 1


def test_parse_element_double_digit_generators():
    q = QuadraticForm((1, -1) * 5)
    a = parse_element("e10 - e1e2", q)
    assert a.coefficient(1 << 9) == 1
    assert parse_element(str(a), q) == a


def test_cyclotomic_coefficients():
    # blade coefficients may live in any exact coefficient ring
    from spinbott.rings import Cyclotomic
    w = zeta(3)
    a = CliffordElement(H, {0b01: w})
    b = CliffordElement(H, {0b10: w})
    prod = a * b
    assert prod.coefficient(0b11) == w * w
    assert (a * a).coefficient(0) == w * w  # contraction by q_1 = 1


@pytest.mark.parametrize("text, expect", [
    ("e2e1", "-e1e2"),
    ("e3*e1e2", "e1e2e3"),
    ("e3e2e1", "-e1e2e3"),
    ("e1e3e2 + 2*e2e1e3", "-3*e1e2e3"),
    ("e1e2 + e2e1", "0"),
])
def test_parse_element_applies_the_generator_order_sign(text, expect):
    q = QuadraticForm((1, -1, 2))
    assert str(parse_element(text, q)) == expect


def test_parse_element_matches_the_product_of_its_generators():
    q = QuadraticForm((1, -1, 2))
    for order in itertools.permutations((1, 2, 3)):
        text = "".join(f"e{i}" for i in order)
        assert parse_element(text, q) == gen(q, order[0]) * gen(q, order[1]) * gen(q, order[2])


def test_parse_element_refuses_a_repeated_generator():
    with pytest.raises(ValueError, match="repeated generator e1"):
        parse_element("e1e2e1", QuadraticForm((1, -1)))


@given(*[elements(form=QuadraticForm((1, -1, 2)))] * 3)
@settings(max_examples=50)
def test_clifford_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * (b - c) == a * b - a * c
