"""SparseOp in both of its forms, against the dense oracle of tests/dense_modules.py."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_modules import from_dense, mat_mul, mat_scale, masked_trace, to_dense
from spinbott.linalg import SparseOp

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
ints = st.integers(-3, 3).filter(bool)
scalars = st.one_of(st.just(0), st.integers(-3, 3), coeffs, st.just(Fraction(4, 2)))


@st.composite
def signed_perms(draw, n):
    perm = draw(st.permutations(range(n)))
    return SparseOp.monomial(list(perm), draw(st.lists(st.sampled_from((1, -1)),
                                                       min_size=n, max_size=n)))


@st.composite
def general_ops(draw, n, values=coeffs):
    cols = draw(st.lists(st.dictionaries(st.integers(0, n - 1), values, max_size=3),
                         min_size=n, max_size=n))
    return SparseOp(cols)


@st.composite
def pairs(draw):
    """Two operators of one dimension 1..16, each a signed permutation or general."""
    n = draw(st.integers(1, 16))
    return tuple(draw(st.one_of(signed_perms(n), general_ops(n))) for _ in range(2))


def is_monomial(dense) -> bool:
    rows = [[i for i, x in enumerate(col) if x] for col in zip(*dense)]
    return all(len(r) == 1 for r in rows) and len({r[0] for r in rows}) == len(rows)


def assert_matches(op, dense):
    """op stores exactly ``dense``, in monomial form exactly when dense is monomial."""
    assert to_dense(op) == dense
    assert (op.perm is not None) == is_monomial(dense)
    assert op == from_dense(dense)


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_compose_in_every_order_matches_the_dense_product(ab):
    a, b = ab
    for left, right in ((a, b), (b, a), (a, a), (b, b)):
        assert_matches(left.compose(right), mat_mul(to_dense(left), to_dense(right)))


@given(pairs(), scalars)
@settings(max_examples=100, deadline=None)
def test_scale_and_equality_match_the_dense_ops(ab, c):
    a, b = ab
    assert_matches(a.scale(c), mat_scale(to_dense(a), Fraction(c)))
    assert (a == b) == (to_dense(a) == to_dense(b))
    assert a == SparseOp(a.cols) and a != "not an operator"


@given(pairs(), st.data())
@settings(max_examples=100, deadline=None)
def test_trace_matches_the_dense_trace(ab, data):
    a, b = ab
    n = len(a.cols)
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert a.trace(keep) == masked_trace(to_dense(a), keep)
    assert a.trace(keep, b) == masked_trace(mat_mul(to_dense(a), to_dense(b)), keep)


@given(st.integers(1, 16).flatmap(lambda n: st.one_of(signed_perms(n), general_ops(n, ints))))
@settings(max_examples=50, deadline=None)
def test_integral_scales_of_integer_operators_store_ints(op):
    scaled = op.scale(Fraction(4, 2))
    assert all(type(x) is int for _, _, x in scaled.entries())
    assert all(type(x) is int for col in scaled.cols for x in col.values())


def test_monomial_forms_on_small_examples():
    p = SparseOp.monomial([1, 2, 0], [1, -1, 2])
    assert p.cols == ({1: 1}, {2: -1}, {0: 2})
    assert SparseOp(p.cols).perm == [1, 2, 0] and SparseOp(p.cols) == p
    assert p.compose(p).compose(p) == SparseOp.identity(3).scale(-2)
    assert p.trace([True] * 3) == 0 and type(p.trace([True] * 3)) is int
    assert SparseOp.identity(3).trace([True, False, True]) == 2
    assert p.scale(0) == SparseOp([{}, {}, {}]) and p.scale(0).perm is None
    # a general operator whose columns hold one entry each on a repeated row stays general
    assert SparseOp([{0: 1}, {0: 1}]).perm is None
