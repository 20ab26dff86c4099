"""Acceptance gate: one test per criterion, exact values, bounded runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from spinbott.cli import main
from spinbott.clifford import (CliffordElement, clifford_group_test, graded_tensor_check,
                               pairing_det, phi_gram, spin_lift, untwist_iso, volume_element)
from spinbott.lambda_bott import (LineExpr, bott_cyclotomic, bott_lines,
                                  corrected_bott, serre_sqrt, sphere_formula,
                                  sum_of_powers, trivial_lambda_vector)
from spinbott.modules import (adams_module_report, hermitian_bott,
                              opposite_form_check)
from spinbott.quadforms import (INF, QuadraticForm, hilbert_symbol, hyperbolic)
from spinbott.verify import _random_effective


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_sphere_formulas():
    started = time.perf_counter()
    for r in range(1, 5):
        for k in range(2, 8):
            assert sphere_formula(r, k) == Fraction(sum_of_powers(r, k), k ** r)
    _report("1 sphere formulas", started, 1.0)


def test_criterion_1_sphere_formula_at_the_cap():
    # r = 8 variables and order k = 32 are the default max_vars and max_k
    started = time.perf_counter()
    assert sphere_formula(8, 32) == Fraction(sum_of_powers(8, 32), 32 ** 8)
    _report("1 sphere formula at the cap (r=8, k=32)", started, 3.0)


def test_criterion_2_bott_class_axioms():
    started = time.perf_counter()
    rng = random.Random(2024)
    for k in (2, 3, 5):
        geometric = LineExpr.scalar(0)
        for t in range(k):
            geometric = geometric + LineExpr.symbol(1) ** t
        assert bott_lines(LineExpr.symbol(1), k) == geometric
        for _ in range(200):
            x, y = _random_effective(rng), _random_effective(rng)
            assert bott_lines(x + y, k) == bott_lines(x, k) * bott_lines(y, k)
    _report("2 Bott class axioms", started, 5.0)


def test_criterion_3_serre_square_root():
    started = time.perf_counter()
    for k, m in product((3, 5), (1, 2, 3)):
        v = trivial_lambda_vector(2 * m)  # m hyperbolic planes
        root = serre_sqrt(v, k)
        assert not root.sign_ambiguous
        assert root.value ** 2 == bott_cyclotomic(v, k)  # descent succeeded
        assert root.value == Fraction(k) ** m  # = sigma^((k-1)/2) rho^k(W), sigma = 1
        rbar = corrected_bott(Fraction(k) ** m, v, k)
        assert rbar == 1 and rbar ** 2 == 1
    # hyperbolic plane on a formal line bundle: sigma is now nontrivial
    from spinbott.lambda_bott import LambdaVector
    line = LineExpr.symbol(1)
    dual = LineExpr.monomial((-1,))
    v = LambdaVector(2, (line + dual, LineExpr.scalar(1)))
    for k in (3, 5):
        root = serre_sqrt(v, k)
        assert root.value ** 2 == bott_cyclotomic(v, k)
        assert root.value == dual ** ((k - 1) // 2) * bott_lines(line, k)
    _report("3 Serre square root", started, 5.0)


def test_criterion_4_clifford_structure():
    started = time.perf_counter()
    for q in (hyperbolic(1), hyperbolic(2), QuadraticForm((2, -2))):
        u = volume_element(q)
        assert u * u == 1
        for i in range(1, q.rank + 1):
            v = CliffordElement.generator(q, i)
            assert u * v + v * u == 0
        top = (1 << q.rank) - 1
        g0, g1 = phi_gram(q, 0), phi_gram(q, 1)
        assert all(x == g0[top ^ m] for m, x in g0.items())
        assert all(x == -g1[top ^ m] for m, x in g1.items())
        assert pairing_det(g0) != 0 and pairing_det(g1) != 0
    rng = random.Random(4)
    entries = [1, -1, 2, -2, 3]
    for r1, r2 in product(range(1, 4), range(1, 4)):
        q1 = QuadraticForm(tuple(rng.choice(entries) for _ in range(r1)))
        q2 = QuadraticForm(tuple(rng.choice(entries) for _ in range(r2)))
        assert graded_tensor_check(q1, q2)
    _report("4 Clifford structure", started, 10.0)


def test_criterion_4_non_group_inverse_at_rank_10(capsys):
    # a * bar(a) is not a scalar, so this needs the general inverse; the
    # dense 2^n solve it replaced took 10-12 s (Python 3.11, 2 cores)
    started = time.perf_counter()
    code = main(["clifford-check", "--form=1,1,1,1,1,1,1,1,1,1",
                 "--element=2 + e1e2e3e4"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "member": False, "reason": "conjugation moves e1 outside V"}
    _report("4 non-group inverse at rank 10", started, 2.0)


def test_criterion_4_dense_rational_non_member_at_rank_8():
    # all 128 even blades with proper-fraction coefficients: a * bar(a) is not
    # a scalar, so the test takes the adjugate of the integer multiple b = L a;
    # the Fraction inverse it replaced took 2.8-4.2 s (Python 3.11, 2 cores)
    q = QuadraticForm((1, -1, 2, 3, 5, -7, 11, 13))
    even = [m for m in range(1 << q.rank) if bin(m).count("1") % 2 == 0]
    a = CliffordElement(q, {m: Fraction(i % 5 + 1, i % 3 + 1) for i, m in enumerate(even)})
    started = time.perf_counter()
    res = clifford_group_test(a)
    assert not res.member and res.reason == "conjugation moves e1 outside V"
    _report("4 dense rational non-member at rank 8", started, 2.0)


def test_criterion_4_untwisting_at_rank_10():
    # the dense rank of the 1024 blade images took 3.5-3.8 s (Python 3.11, 2 cores)
    started = time.perf_counter()
    res = untwist_iso(hyperbolic(4), 2)
    assert res.relations_ok and res.bijective
    _report("4 untwisting at rank 10", started, 2.0)


def test_criterion_5_spin_lifting():
    started = time.perf_counter()
    for q, k in ((hyperbolic(1), 2), (hyperbolic(1), 3), (hyperbolic(2), 2)):
        lift = spin_lift(q, k)
        assert lift.squares_ok and lift.braid_ok and lift.commutation_ok
        assert lift.matrices_ok  # each isometry is the block swap
        if q.rank % 4 == 0:
            assert lift.norms == [Fraction(1)] * (k - 1)
            assert all(lift.in_spin)
    _report("5 Spin lifting", started, 30.0)


def test_criterion_6_module_adams():
    started = time.perf_counter()
    for m, k in ((1, 2), (1, 3), (2, 2)):
        rep = adams_module_report(m, k)  # projector resolution checked inside
        assert rep["psi_bar"] == rep["psi_char"]
        dims = rep["eigen_dims"]
        assert sum(d0 + d1 for d0, d1 in dims) == (2 ** m) ** k
        if k in (2, 3):  # prime k: conjugate eigenmodules are isomorphic
            assert all(dims[j] == dims[1] for j in range(1, k))
    _report("6 module-level Adams", started, 30.0)


def test_criterion_7_hermitian_bott():
    started = time.perf_counter()
    values = {}
    for m, k in ((1, 2), (1, 3), (2, 2)):
        values[(m, k)] = hermitian_bott(m, k)
        assert values[(m, k)] == k ** m
        assert opposite_form_check(m, k)
    assert values[(2, 2)] == values[(1, 2)] * values[(1, 2)]  # multiplicativity
    _report("7 hermitian Bott class", started, 60.0)


def _squarefree(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    out, d = 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return sign * out * n


def _numpy_oracle(a: int, b: int, p: int) -> int:
    """Independent grid search: primitive zero of z^2 - a x^2 - b y^2 mod p^e.

    Square-free reduction makes the Hensel exponents e = 3 (odd p) and
    e = 5 (p = 2) exact, so solubility mod p^e is solubility over Q_p.
    """
    a, b = _squarefree(a), _squarefree(b)
    e = 5 if p == 2 else 3
    mod = p ** e
    z = np.arange(mod, dtype=np.int64)
    squares = np.zeros(mod, dtype=bool)
    squares[(z * z) % mod] = True
    unit_squares = np.zeros(mod, dtype=bool)
    unit_squares[(z[z % p != 0] ** 2) % mod] = True
    x = np.arange(mod, dtype=np.int64)
    ax2 = (a * x * x) % mod
    by2 = (b * x * x) % mod
    grid = (ax2[:, None] + by2[None, :]) % mod
    x_unit = (x % p != 0)
    some_unit = x_unit[:, None] | x_unit[None, :]
    ok = (some_unit & squares[grid]) | (~some_unit & unit_squares[grid])
    return 1 if bool(ok.any()) else -1


def test_criterion_8_number_theory():
    started = time.perf_counter()
    rng = random.Random(8)
    primes = [p for p in range(2, 50) if all(p % d for d in range(2, p))]
    places = primes + [INF]

    def rand_rational():
        num = rng.choice([1, -1])
        for p in rng.sample(primes, 3):
            num *= p ** rng.randint(0, 2)
        return Fraction(num, rng.choice(primes) ** rng.randint(0, 1))

    for _ in range(500):
        a, b, c = rand_rational(), rand_rational(), rand_rational()
        p = rng.choice(places)
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert (hilbert_symbol(a * c, b, p)
                == hilbert_symbol(a, b, p) * hilbert_symbol(c, b, p))
        assert 1 == np.prod([hilbert_symbol(a, b, q) for q in places])

    cache = {}
    for p in (2, 3, 5, 7):
        for a in range(-20, 21):
            for b in range(-20, 21):
                if a == 0 or b == 0:
                    continue
                key = (_squarefree(a), _squarefree(b), p)
                if key not in cache:
                    cache[key] = _numpy_oracle(a, b, p)
                assert hilbert_symbol(a, b, p) == cache[key]
    for a in range(-20, 21):
        for b in range(-20, 21):
            if a and b:
                expected = -1 if (a < 0 and b < 0) else 1
                assert hilbert_symbol(a, b, INF) == expected
    _report("8 number-theoretic layer", started, 30.0)


def test_criterion_8_verify_oracle_matches_the_grid_search():
    # verify's residue search, factored through per-value bitmasks, against
    # the independent grid search, from cold caches
    from spinbott import verify
    started = time.perf_counter()
    verify._oracle_cache.clear()
    verify._a_masks.cache_clear()
    verify._b_masks.cache_clear()
    classes = sorted({_squarefree(n) for n in range(-20, 21) if n})
    assert len(classes) == 26
    for p in (2, 3, 5, 7):
        for a in classes:
            for b in classes:
                assert verify.hilbert_oracle(a, b, p) == _numpy_oracle(a, b, p), (a, b, p)
    _report("8 verify oracle against the grid search", started, 10.0)
