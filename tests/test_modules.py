"""Graded Clifford modules, tensor powers, both Adams routes, the reduction."""

import functools
import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import pytest

import cycle_traces
import dense_modules
from dense_modules import (clifford_action_matrix, diag, from_dense, identity, mat_add,
                           mat_mul, mat_scale, to_dense, zeros)
from spinbott import modules
from spinbott.clifford import CliffordElement, volume_element
from spinbott.linalg import SparseOp
from spinbott.modules import (GradedModule, PresentationError, TensorPower, adams_bar,
                              adams_character, adams_module_report,
                              hermitian_bott, hermitian_bott_of, is_end_iso,
                              opposite_form_check, opposite_module, partitions,
                              spinor_rep, sym_character, tensor_power, twist_rep,
                              volume_product)
from spinbott.quadforms import QuadraticForm, scale


def test_spinor_rep_small():
    m1 = spinor_rep(1)
    assert m1.dims == (1, 1)
    # the two generators in 2x2 form
    assert to_dense(m1.gens[0]) == [[0, 1], [1, 0]]
    assert to_dense(m1.gens[1]) == [[0, -1], [1, 0]]
    # volume element acts as +1 on evens, -1 on odds
    assert to_dense(m1.volume_op()) == diag([1, -1])


def test_spinor_rep_surjective():
    m2 = spinor_rep(2)
    assert m2.dims == (2, 2)
    assert is_end_iso(m2)


_X, _Y = from_dense([[0, 1], [1, 0]]), from_dense([[0, -1], [1, 0]])  # squares +1, -1
_REFUSED = [
    ((1, -1), (0, 1), (_X,), "need one generator per form entry"),
    ((1, -1), (0, 0), (_X, _Y), "both graded blocks must be nonzero"),
    ((1, -1), (0, 1), (from_dense(diag([1, -1])), _Y), "generator 1 is not odd"),
    # blade images 1, X, X, X^2 = 1 spanning 2 of the 4 dimensions of End(E):
    # no module, so is_end_iso never sees a rank-deficient structure map
    ((1, -1), (0, 1), (_X, _X), "generator 2 does not square to q_2"),
    ((1, 1), (0, 1), (_X, _X), "generators 1,2 do not anticommute"),
    ((1, -1), (1, 0), (_X, _Y), "volume element is not diag(1,-1) on E0+E1"),
    # no generators: the volume operator is the identity
    ((), (0, 1), (), "volume element is not diag(1,-1) on E0+E1"),
    # a generator too large, too small, or with a row outside E
    ((1, -1), (0, 1), spinor_rep(2).gens[:2], "generator 1 is not a 2 x 2 operator"),
    ((1, -1, 1, -1), (0, 1, 1, 0), spinor_rep(1).gens * 2,
     "generator 1 is not a 4 x 4 operator"),
    ((1, -1), (0, 1), (_X, SparseOp([{1: -1}, {2: 1}])), "generator 2 is not a 2 x 2 operator"),
    ((1, -1), (0, 1), (_X, SparseOp([{-1: -1}, {0: 1}])), "generator 2 is not a 2 x 2 operator"),
]


@pytest.mark.parametrize("diag_, grading, gens, message", _REFUSED,
                         ids=["count", "blocks", "odd", "square", "anticommute", "volume",
                              "rank 0", "too large", "too small", "row too large", "negative row"])
def test_graded_module_is_checked_when_built(diag_, grading, gens, message):
    with pytest.raises(PresentationError, match=f"^{re.escape(message)}$"):
        GradedModule(QuadraticForm(diag_), grading, gens)


def test_volume_product_starts_at_the_first_generator(monkeypatch):
    # n generators take n - 1 products; no generators give the identity
    m, calls, compose = spinor_rep(3), [], SparseOp.compose
    monkeypatch.setattr(SparseOp, "compose", lambda a, b: calls.append(1) or compose(a, b))
    product, s = volume_product(m.form, m.gens, m.dim)
    assert len(calls) == len(m.gens) - 1
    assert product.scale(s) == m.grading_op()
    product, s = volume_product(QuadraticForm(()), (), 3)
    assert product == SparseOp.identity(3) and s == 1 and len(calls) == len(m.gens) - 1


def test_twist_rep():
    m1 = spinor_rep(1)
    t1 = twist_rep(m1, 1)
    assert t1.gens == m1.gens
    t2 = twist_rep(m1, 2)
    assert t2.form == scale(m1.form, 2)
    for gen, q in zip(t2.gens, t2.form.diag):
        assert mat_mul(to_dense(gen), to_dense(gen)) == mat_scale(identity(2), q)
    assert is_end_iso(t2)


def test_opposite_module():
    m1 = spinor_rep(1)
    opp = opposite_module(m1)
    assert opp.form == scale(m1.form, -1)
    assert opp.grading == (1, 0)  # rank 2: the volume operator is -eps


def _twist_by_entries(module, k):
    """The k-twist by rewriting each entry: k on the even<-odd ones."""
    g = module.grading
    gens = tuple(SparseOp({r: x * k if (g[r], g[c]) == (0, 1) else x for r, x in col.items()}
                          for c, col in enumerate(gen.cols))
                 for gen in module.gens)
    return GradedModule(scale(module.form, k), g, gens)


def _opposite_by_search(module):
    """The opposite module on the generators (-1)^(deg row) g_i, graded by
    whichever of E's grading and its complement the volume element fits."""
    g, d = module.grading, module.dim
    gens = tuple(SparseOp({r: -x if g[r] else x for r, x in col.items()} for col in gen.cols)
                 for gen in module.gens)
    form = scale(module.form, -1)
    volume = clifford_action_matrix(volume_element(form), [to_dense(g) for g in gens], d)
    for grading in (g, tuple(1 - x for x in g)):
        if volume == diag([-1 if x else 1 for x in grading]):
            return GradedModule(form, grading, gens)
    raise AssertionError("volume element of the opposite module is not diagonal")


def _general_module():
    # conjugating spinor_rep(2) by an even, non-monomial change of basis gives an
    # isomorphic module whose generators have two entries in some columns
    base = spinor_rep(2)
    even = [i for i, g in enumerate(base.grading) if g == 0]
    change, inverse = identity(base.dim), identity(base.dim)
    change[even[0]][even[1]], inverse[even[0]][even[1]] = Fraction(1), Fraction(-1)
    return GradedModule(base.form, base.grading, tuple(
        from_dense(mat_mul(mat_mul(change, to_dense(g)), inverse)) for g in base.gens))


@pytest.mark.parametrize("base", [(m, k) for m in (1, 2, 3) for k in (1, 2, 3)] + ["general"],
                         ids=str)
def test_derived_modules_match_the_entrywise_constructions(base):
    # base (m, k) is twist_rep(spinor_rep(m), k); k = 1 is spinor_rep(m) itself
    module = _general_module() if base == "general" else twist_rep(spinor_rep(base[0]), base[1])
    opp = opposite_module(module)
    assert opp == _opposite_by_search(module)
    assert opposite_module(opp) == _opposite_by_search(opp)
    for k in (1, 2, 3):
        assert twist_rep(module, k) == _twist_by_entries(module, k)
        assert twist_rep(opp, k) == _twist_by_entries(opp, k)


def _action(tp):
    """(swaps, copy_gens, deltas) of ``diagonal_generators(tp)``: the adjacent
    swaps and copies as ``_check_action`` received them, and the Delta_j."""
    seen = []
    check = modules._check_action
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modules, "_check_action", lambda *args: seen.append(args) or check(*args))
        deltas = modules.diagonal_generators(tp)
    ((_, swaps, copy_gens),) = seen
    return swaps, copy_gens, deltas


def test_tensor_power_holds_only_its_gradings():
    tp = tensor_power(spinor_rep(1), 2)
    assert TensorPower._fields == ("base", "k", "gradings")
    with pytest.raises(AttributeError):
        tp.k = 3


def test_checked_records_check_through_replace():
    from spinbott.lambda_bott import LambdaVector
    from spinbott.quadforms import DegenerateFormError
    m1 = spinor_rep(1)
    assert m1._replace(grading=m1.grading) == m1
    with pytest.raises(PresentationError, match="one generator per form entry"):
        m1._replace(gens=())
    with pytest.raises(DegenerateFormError):
        QuadraticForm((1, -1))._replace(diag=(1, 0))
    assert QuadraticForm((1,))._replace(diag=("1/2", 2.0)).diag == (Fraction(1, 2), 2)
    with pytest.raises(ValueError, match="rank many"):
        LambdaVector(1, (2,))._replace(rank=2)


def test_tensor_power_invariants():
    m1 = spinor_rep(1)
    tp = tensor_power(m1, 2)
    assert tp.dim == 4
    swaps, _, deltas = _action(tp)
    swap = to_dense(swaps[0])
    assert mat_mul(swap, swap) == identity(4)
    # graded swap fixes 00, exchanges 01/10, negates 11
    assert swap[3][3] == -1 and swap[0][0] == 1
    for j, q in enumerate(m1.form.diag):
        gen = to_dense(deltas[j])
        sq = mat_mul(gen, gen)
        assert sq == mat_scale(identity(4), 2 * q)


def test_tensor_power_braid():
    tp = tensor_power(spinor_rep(1), 3)
    s1, s2 = (to_dense(s) for s in _action(tp)[0])
    lhs = mat_mul(mat_mul(s1, s2), s1)
    rhs = mat_mul(mat_mul(s2, s1), s2)
    assert lhs == rhs
    cyc = to_dense(tp.cycles((3,)))
    assert mat_mul(mat_mul(cyc, cyc), cyc) == identity(8)


def test_characters():
    assert sym_character((2,), (1, 1)) == 1
    assert sym_character((1, 1), (2,)) == -1
    assert sym_character((2, 1), (1, 1, 1)) == 2
    assert sym_character((2, 1), (3,)) == -1
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert dense_modules.cycle_type((1, 2, 0, 3)) == (3, 1)
    # column orthogonality at the identity: sum of squared dimensions = k!
    assert sum(sym_character(lam, (1,) * 4) ** 2 for lam in partitions(4)) == 24


def test_adams_bar_dimensions():
    vcm = adams_bar(spinor_rep(1), 3)
    assert vcm.total() == 8
    assert vcm.graded_dims[1] == vcm.graded_dims[2]  # prime k: conjugate eigenmodules
    vcm2 = adams_bar(spinor_rep(1), 2)
    assert vcm2.graded_dims == ((1, 1), (1, 1))


def test_adams_character_total_dimension():
    char = adams_character(spinor_rep(1), 3)
    total = sum(p.dim * (p.graded_mult[0] + p.graded_mult[1]) for p in char.pieces)
    assert total == 8
    # psi^2 = Sym^2 - Lambda^2: trivial rep weight +1, sign weight -1
    char2 = adams_character(spinor_rep(1), 2)
    weights = {p.partition: p.char_at_cycle for p in char2.pieces}
    assert weights == {(2,): 1, (1, 1): -1}


def doubled(module):
    """E + E, with each generator repeated block-diagonally."""
    d = module.dim
    return GradedModule(module.form, module.grading * 2,
                        tuple(SparseOp(gen.cols + tuple({r + d: x for r, x in col.items()}
                                                        for col in gen.cols))
                              for gen in module.gens))


def _end_iso_module(case):
    if case == "doubled":
        return doubled(spinor_rep(1))  # 2^n = 4 != d^2 = 16
    m, k, opposite = case
    module = twist_rep(spinor_rep(m), k)  # k = 1 is spinor_rep(m) itself
    return opposite_module(module) if opposite else module


@pytest.mark.parametrize("case", [(m, k, opposite) for m in (1, 2, 3) for k in (1, 2, 3)
                                  for opposite in (False, True)] + ["doubled"], ids=str)
def test_is_end_iso_matches_dense_rank(case):
    module = _end_iso_module(case)
    expected = isinstance(case, tuple)
    assert is_end_iso(module) == dense_modules.is_end_iso(module) == expected


@pytest.mark.parametrize("case", [(1, 1, False), (3, 1, False), (2, 3, False), (2, 1, True)],
                         ids=str)
def test_is_end_iso_traces_every_blade_image(monkeypatch, case):
    # the prefix-built images are exactly the blades of the dense oracle,
    # each traced once
    module = _end_iso_module(case)
    traced = []
    real_trace = SparseOp.trace

    def spy(op, keep, right=None):
        traced.append(op)
        return real_trace(op, keep, right)

    monkeypatch.setattr(SparseOp, "trace", spy)
    assert is_end_iso(module)
    monkeypatch.undo()
    gens = [to_dense(g) for g in module.gens]
    blades = [from_dense(clifford_action_matrix(CliffordElement(module.form, {mask: 1}),
                                                gens, module.dim))
              for mask in range(1, 1 << module.form.rank)]
    assert len(traced) == len(blades)
    assert all(blade in traced for blade in blades)


def _virtual_rank(grading, product, s, presentation):
    """w0 - w1 of the sparse reduction for P = 1: the block traces of 1 and of
    the volume product, the latter scaled by the witness s once."""
    traces, vol_traces = modules._block_traces([SparseOp.identity(len(grading)), product],
                                               grading)
    return modules._morita_weights(traces, [s * t for t in vol_traces], presentation)


def _dense_virtual_rank(grading, product, s, presentation):
    return dense_modules.morita_virtual_rank(grading, mat_scale(to_dense(product), s),
                                             presentation, identity(len(grading)), 1)


def test_morita_examples():
    # E itself, E + E and E^(x)2 reduced against E, E and the 2-twist of E:
    # W is (1, 0), (2, 0) and, as E^(x)2 has blocks (2, 2), (1, 1)
    m1 = spinor_rep(1)
    double = doubled(m1)
    tp = tensor_power(m1, 2)
    twist = twist_rep(m1, 2)
    cases = [(m1.grading, *volume_product(m1.form, m1.gens, m1.dim), m1, 1),
             (double.grading, *volume_product(double.form, double.gens, double.dim), m1, 2),
             (tp.grading, *volume_product(twist.form, modules.diagonal_generators(tp), tp.dim),
              twist, 0)]
    for grading, product, s, presentation, expected in cases:
        assert all(type(x) is int for _, _, x in product.entries())
        assert _virtual_rank(grading, product, s, presentation) == expected
        assert _dense_virtual_rank(grading, product, s, presentation) == expected


def test_morita_mismatch():
    m1 = spinor_rep(1)
    for reduce in (_virtual_rank, _dense_virtual_rank):
        with pytest.raises(PresentationError, match="disagree with the presentation"):
            reduce((0, 0, 1), from_dense(diag([1, 1, -1])), 1, m1)


@pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2), (3, 2)])
def test_hermitian_bott_values(m, k):
    assert hermitian_bott(m, k) == k ** m


@pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2)])
def test_opposite_form(m, k):
    assert opposite_form_check(m, k)


def test_multiplicativity():
    assert hermitian_bott(2, 2) == hermitian_bott(1, 2) * hermitian_bott(1, 2)


def test_adams_module_report_shape():
    rep = adams_module_report(1, 3)
    assert set(rep) == {"m", "k", "eigen_dims", "psi_bar", "psi_char",
                        "rho_k", "expected"}
    assert rep["psi_bar"] == rep["psi_char"]
    assert rep["rho_k"] == rep["expected"] == "3"


def test_twist_squares_on_random_vectors():
    import random
    rng = random.Random(7)
    m2 = spinor_rep(2)
    t3 = twist_rep(m2, 3)
    for _ in range(10):
        coords = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        fv = zeros(m2.dim)
        for c, gen in zip(coords, t3.gens):
            fv = mat_add(fv, mat_scale(to_dense(gen), c))
        qv = sum(c * c * q for c, q in zip(coords, m2.form.diag))
        assert mat_mul(fv, fv) == mat_scale(identity(m2.dim), 3 * qv)


def test_prime_reduction_to_two_eigenmodules():
    # for prime k the weighted sum collapses to (first) - (second) eigenmodule
    for m, k in ((1, 3), (1, 2)):
        rep = adams_module_report(m, k)
        dims = rep["eigen_dims"]
        for block in (0, 1):
            reduced = dims[0][block] - dims[1][block]
            assert rep["psi_bar"][block] == reduced


def test_adams_agreement_full_grid():
    # completes the {2,3} x {1,2} grid beyond the acceptance triples
    rep = adams_module_report(2, 3)
    assert rep["psi_bar"] == rep["psi_char"]
    assert rep["rho_k"] == rep["expected"] == "9"
    dims = rep["eigen_dims"]
    assert dims[1] == dims[2]
    assert sum(d0 + d1 for d0, d1 in dims) == 64


@pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3)])
def test_sparse_report_matches_dense_oracle(m, k):
    assert adams_module_report(m, k) == dense_modules.adams_module_report(m, k)


@pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2)])
def test_opposite_module_bott_matches_dense_oracle(m, k):
    opp = opposite_module(spinor_rep(m))
    assert hermitian_bott_of(opp, k) == dense_modules.hermitian_bott_of(opp, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_class_words_realize_their_cycle_types(k):
    for mu in partitions(k):
        perm = list(range(k))
        for c in dense_modules.class_word(mu):
            perm[c], perm[c + 1] = perm[c + 1], perm[c]
        assert dense_modules.cycle_type(tuple(perm)) == mu
    assert sum(modules._class_size(mu) for mu in partitions(k)) == math.factorial(k)


def test_sparse_operator_matches_dense_products():
    tp = tensor_power(spinor_rep(1), 3)
    dense = dense_modules.tensor_power(spinor_rep(1), 3)
    swaps, copy_gens, deltas = _action(tp)
    for sparse_gen, dense_gen in zip(deltas, dense.diag_gens):
        assert to_dense(sparse_gen) == dense_gen
    assert to_dense(tp.cycles((3,))) == dense.cycle_matrix()
    product, s = volume_product(scale(tp.base.form, 3), deltas, tp.dim)
    assert all(type(x) is int for _, _, x in product.entries())
    assert mat_scale(to_dense(product), s) == dense.u_matrix()
    a, b = deltas
    assert to_dense(a.compose(b)) == mat_mul(to_dense(a), to_dense(b))
    assert to_dense(a) == functools.reduce(mat_add, map(to_dense, copy_gens[0]))
    assert from_dense(to_dense(a)) == a
    assert to_dense(a.scale(Fraction(3, 2))) == mat_scale(to_dense(a), Fraction(3, 2))
    cyc, u = tp.cycles((3,)), product
    x = from_dense([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1, 3)]])
    y = from_dense([[Fraction(5), Fraction(0)], [Fraction(7), Fraction(8)]])
    assert x.trace([True, False], y) == 19 and x.trace([False, True], y) == Fraction(-8, 3)
    for left, right in ((a, cyc), (cyc, b), (cyc, cyc), (cyc, u),
                        (swaps[0], cyc.compose(a))):
        prod = mat_mul(to_dense(left), to_dense(right))
        for block in (0, 1):
            keep = [g == block for g in tp.grading]
            assert left.trace(keep, right) == dense_modules.masked_trace(prod, keep)
            assert left.trace(keep) == dense_modules.masked_trace(to_dense(left), keep)


# -- the signed permutations built from the digits, against the oracles --------

def _small_modules():
    for m in (1, 2):
        yield f"spinor_rep({m})", spinor_rep(m)
        yield f"opposite_module(spinor_rep({m}))", opposite_module(spinor_rep(m))


def _as_tuple_action(op, d, k):
    """A signed permutation of E^(x)k read as {basis tuple: (sign, image tuple)}."""
    basis = list(itertools.product(range(d), repeat=k))
    return {t: (op.sign[i], basis[op.perm[i]]) for i, t in enumerate(basis)}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name, module", list(_small_modules()), ids=lambda x: str(x)[:40])
def test_class_representatives_and_cycle_powers_match_the_word_oracle(name, module, k):
    tp = tensor_power(module, k)
    for mu in partitions(k):
        sigma = tp.cycles(mu)
        assert sigma.perm is not None
        word = dense_modules.class_word(mu)
        expected = dense_modules.word_action(module, k, word)
        assert _as_tuple_action(sigma, module.dim, k) == expected
    t_pows, _ = modules.cycle_eigen_projectors(tp)
    cycle_word = dense_modules.class_word((k,))
    for l, power in enumerate(t_pows):
        assert _as_tuple_action(power, module.dim, k) == dense_modules.word_action(
            module, k, cycle_word * l)


@pytest.mark.parametrize("m, k, opposite", [(1, 2, False), (1, 3, True), (1, 4, False),
                                            (1, 5, True), (2, 2, False), (2, 2, True)])
def test_class_representatives_and_cycle_powers_match_the_dense_matrices(m, k, opposite):
    module = opposite_module(spinor_rep(m)) if opposite else spinor_rep(m)
    tp = tensor_power(module, k)
    dense = dense_modules.tensor_power(module, k)
    for mu in partitions(k):
        assert to_dense(tp.cycles(mu)) == dense.perm_matrix(dense_modules.class_word(mu))
    _, copy_gens, deltas = _action(tp)
    for j, (copies, dense_gen) in enumerate(zip(copy_gens, dense.diag_gens)):
        assert [to_dense(c) for c in copies] == [dense.copy_gens[a][j] for a in range(k)]
        assert to_dense(deltas[j]) == dense_gen
    t_pows, _ = modules.cycle_eigen_projectors(tp)
    power = identity(tp.dim)
    for op in t_pows:
        assert to_dense(op) == power
        power = mat_mul(power, dense.cycle_matrix())
    assert power == identity(tp.dim)


def _flip_sign(op, column):
    sign = list(op.sign)
    sign[column] = -sign[column]
    return SparseOp.monomial(list(op.perm), sign)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_flipped_sign_in_one_swap_is_caught(k):
    tp = tensor_power(spinor_rep(1), k)
    swaps, copy_gens, _ = _action(tp)
    for c, swap in enumerate(swaps):
        # a column the swap moves, and one it fixes (two equal factors)
        for column in (next(j for j, r in enumerate(swap.perm) if r != j), 0):
            flipped = swaps[:c] + (_flip_sign(swap, column),) + swaps[c + 1:]
            with pytest.raises(PresentationError):
                modules._check_action(tp, flipped, copy_gens)


@pytest.mark.parametrize("m, k", [(1, 2), (1, 3), (2, 2)])
def test_one_wrong_copy_entry_is_caught(m, k):
    tp = tensor_power(spinor_rep(m), k)
    swaps, copy_gens, _ = _action(tp)
    modules._check_action(tp, swaps, copy_gens)
    for j, copies in enumerate(copy_gens):
        for a, copy in enumerate(copies):
            for change in ("negate", "drop", "add"):
                cols = [dict(col) for col in copy.cols]
                row, x = next(iter(cols[1].items()))
                if change == "negate":
                    cols[1][row] = -x
                elif change == "drop":
                    del cols[1][row]
                else:
                    cols[1][1] = 1  # a copy never maps a basis vector to itself
                bad = copies[:a] + (SparseOp(cols),) + copies[a + 1:]
                with pytest.raises(PresentationError, match="swaps do not commute"):
                    modules._check_action(tp, swaps,
                                          copy_gens[:j] + (bad,) + copy_gens[j + 1:])


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_a_wrong_projector_exponent_is_caught(k):
    exponents = [[-j * l % k for l in range(k)] for j in range(k)]
    modules._check_eigen_exponents(exponents)
    for j in range(k):
        for l in range(k):
            bad = [list(row) for row in exponents]
            bad[j][l] = (bad[j][l] + 1) % k
            with pytest.raises(PresentationError):
                modules._check_eigen_exponents(bad)


def test_tensor_power_of_a_module_with_general_generators():
    base, module = spinor_rep(2), _general_module()
    assert any(g.perm is None for g in module.gens)
    tp = tensor_power(module, 2)
    dense = dense_modules.tensor_power(module, 2)
    assert [to_dense(g) for g in modules.diagonal_generators(tp)] == list(dense.diag_gens)
    assert hermitian_bott_of(module, 2) == 4
    assert adams_bar(module, 2) == adams_bar(base, 2)
    assert adams_character(module, 3) == adams_character(base, 3)


def test_copies_that_commute_across_slots_are_caught():
    # unsigned copies with ungraded swaps pass every swap check and the slot-0
    # relations; only the anticommutation of copies on slots 0 and 1 fails
    tp = tensor_power(spinor_rep(1), 3)
    d, dim = tp.base.dim, tp.dim

    def unsigned(copy, a):
        before = [-1 if tp.gradings[a][i // d ** (tp.k - a)] else 1 for i in range(dim)]
        return SparseOp.monomial(list(range(dim)), before).compose(copy)

    swaps, copy_gens, _ = _action(tp)
    copies = tuple(tuple(unsigned(c, a) for a, c in enumerate(cs)) for cs in copy_gens)
    ungraded = tuple(SparseOp.monomial(list(s.perm), [1] * dim) for s in swaps)
    with pytest.raises(PresentationError, match="copy generators .* do not anticommute"):
        modules._check_action(tp, ungraded, copies)


def test_copies_that_share_an_entry_are_refused():
    tp = tensor_power(spinor_rep(1), 2)
    _, copy_gens, deltas = _action(tp)
    copies = copy_gens[0]
    with pytest.raises(PresentationError, match="share an entry"):
        modules._sum_of_copies((copies[0], copies[1], copies[0]), tp.dim)
    assert modules._sum_of_copies(copies, tp.dim) == deltas[0]


@pytest.mark.parametrize("m, k", [(1, 2), (1, 3), (2, 2)])
def test_one_report_builds_and_checks_the_diagonal_action_once(monkeypatch, m, k):
    calls = Counter()

    def counted(name):
        real = getattr(modules, name)
        return lambda *args: calls.update([name]) or real(*args)

    for name in ("diagonal_generators", "_check_action", "_sum_of_copies"):
        monkeypatch.setattr(modules, name, counted(name))
    adams_module_report(m, k)
    assert calls == {"diagonal_generators": 1, "_check_action": 1, "_sum_of_copies": 2 * m}


# -- closed-form cycle traces: an oracle at every tensor dim up to 1024 ---------

def test_closed_form_characters_match_the_package():
    for k in range(1, 9):
        classes = list(cycle_traces.partitions(k))
        assert classes == list(partitions(k))
        assert sum(cycle_traces.class_size(mu) for mu in classes) == math.factorial(k)
        for lam in classes:
            for mu in classes:
                assert cycle_traces.character(lam, mu) == sym_character(lam, mu)


@pytest.mark.parametrize("m, k", [(1, k) for k in range(1, 7)] + [(2, 2), (2, 3), (3, 2)])
def test_closed_form_traces_match_the_block_traces(m, k):
    module = spinor_rep(m)
    tp = tensor_power(module, k)
    for mu in partitions(k):
        (traces,) = modules._block_traces([tp.cycles(mu)], tp.grading)
        assert tuple(traces) == cycle_traces.block_traces(*module.dims, mu), mu


_UP_TO_1024 = [(m, k) for m in range(1, 7) for k in range(1, 11) if m * k <= 10]


@pytest.mark.parametrize("m, k", _UP_TO_1024)
def test_adams_routes_match_the_closed_form_traces(m, k):
    module = spinor_rep(m)
    assert adams_bar(module, k).graded_dims == cycle_traces.eigen_dims(*module.dims, k)
    char = adams_character(module, k)
    pieces = cycle_traces.isotypic(*module.dims, k)
    assert {p.partition: (p.dim, p.char_at_cycle, p.graded_mult) for p in char.pieces} == pieces
    assert char.psi_graded == tuple(sum(chi * h[b] for _, chi, h in pieces.values())
                                    for b in (0, 1))
