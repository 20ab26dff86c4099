"""Quadratic-form invariants: worked examples and number-theoretic properties."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_clifford import det
from dense_modules import diag, mat_mul, transpose
from dense_quadforms import diagonalize
from spinbott.quadforms import (INF, PRIME_PLACE_LIMIT, BWTriple, DegenerateFormError,
                                IncompleteScanError, InvalidPlaceError, _is_prime,
                                QuadraticForm, bw_class, discriminant,
                                hasse_witt, hilbert_symbol, hyperbolic,
                                is_orientable, parse_form, scale, square_free_part)

small_nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
small_places = st.sampled_from([2, 3, 5, 7, 11, INF])


def test_form_construction():
    q = QuadraticForm((1, Fraction(-2, 3)))
    assert q.rank == 2
    # entries are stored once, as ints when integral: Clifford products
    # contract with them directly
    q = QuadraticForm((Fraction(4, 2), "-3", Fraction(1, 2)))
    assert q.diag == (2, -3, Fraction(1, 2))
    assert [type(a) for a in q.diag] == [int, int, Fraction]
    with pytest.raises(DegenerateFormError):
        QuadraticForm((1, 0))


def test_hyperbolic_and_scale():
    assert hyperbolic(1).diag == (1, -1)
    assert hyperbolic(2).diag == (1, -1, 1, -1)
    assert square_free_part(discriminant(hyperbolic(3))) == -1
    assert scale(hyperbolic(1), 3).diag == (3, -3)
    assert scale(QuadraticForm((1, 1)), -1).diag == (-1, -1)
    with pytest.raises(DegenerateFormError):
        scale(hyperbolic(1), 0)


def test_diagonalize_examples():
    half = Fraction(1, 2)
    form, basis = diagonalize([[0, half], [half, 0]], want_basis=True)
    assert sorted(square_free_part(a) for a in form.diag) == [-1, 1]
    gram = [[0, half], [half, 0]]
    check = mat_mul(transpose(basis), mat_mul(gram, basis))
    assert check == diag(list(form.diag))

    assert diagonalize([[1, 0], [0, 1]]).diag == (1, 1)
    assert diagonalize([[2, 1], [1, 2]]).diag == (2, Fraction(3, 2))
    singular = ([[0]], [[1, 1], [1, 1]], [[0, 0], [0, 1]],
                [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    for gram in singular:
        with pytest.raises(DegenerateFormError, match="singular Gram matrix"):
            diagonalize(gram)


@st.composite
def symmetric_grams(draw):
    n = draw(st.integers(1, 4))
    upper = {(i, j): draw(st.integers(-2, 2)) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@given(symmetric_grams())
@settings(max_examples=300)
def test_diagonalize_refuses_exactly_the_singular_grams(gram):
    # the elimination finds singularity itself; the determinant is the oracle
    if det(gram) == 0:
        with pytest.raises(DegenerateFormError, match="singular Gram matrix"):
            diagonalize(gram)
    else:
        form, basis = diagonalize(gram, want_basis=True)
        check = mat_mul(transpose(basis), mat_mul(gram, basis))
        assert check == diag(list(form.diag))


def test_hilbert_symbol_examples():
    assert hilbert_symbol(1, 7, 3) == 1
    assert hilbert_symbol(1, -5, 2) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    with pytest.raises(InvalidPlaceError):
        hilbert_symbol(1, 1, 4)


def test_hilbert_symbol_refuses_zero_before_checking_the_place():
    with pytest.raises(ValueError, match="needs nonzero arguments") as err:
        hilbert_symbol(0, 1, 4)
    assert not isinstance(err.value, InvalidPlaceError)
    with pytest.raises(ValueError, match="needs nonzero arguments"):
        hilbert_symbol("1", "0/3", INF)


def test_hilbert_symbol_reads_int_fraction_and_str_alike():
    # ints and Fractions reach the kernel as they are, anything else as a
    # Fraction: every spelling of a value gives the symbol of that Fraction
    rng = random.Random(18)
    spellings = (str, lambda x: f"{x.numerator}/{x.denominator}")
    for _ in range(400):
        a, b = (Fraction(rng.choice([1, -1]) * rng.randint(1, 200), rng.randint(1, 12))
                for _ in range(2))
        p = rng.choice([2, 3, 5, 7, 11, 13, INF])
        expected = hilbert_symbol(a, b, p)
        for spell in spellings:
            assert hilbert_symbol(spell(a), spell(b), p) == expected, (a, b, p)
        assert hilbert_symbol(str(a), b, p) == hilbert_symbol(a, str(b), p) == expected
        if a.denominator == b.denominator == 1:
            assert hilbert_symbol(int(a), int(b), p) == expected
    assert hilbert_symbol("3/4", -1, 3) == hilbert_symbol(3, -1, 3) == -1


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    sieve = [_trial_division_prime(n) for n in range(100_000)]
    assert [_is_prime(n) for n in range(100_000)] == sieve


def test_strong_pseudoprimes_are_not_places():
    # the least strong pseudoprimes to the prime bases up to 7 and up to 31
    for n in (3215031751, 3825123056546413051):
        assert not _is_prime(n)
        with pytest.raises(InvalidPlaceError):
            hilbert_symbol(1, 1, n)
    assert _is_prime(1000000000000000003) and _is_prime(2 ** 61 - 1)
    assert hilbert_symbol(-1, -1, 2 ** 61 - 1) == 1


def test_places_beyond_the_primality_bound_are_refused():
    for p in (PRIME_PLACE_LIMIT, 2 ** 89 - 1):  # 2^89 - 1 is a Mersenne prime
        with pytest.raises(InvalidPlaceError, match="primality bound"):
            hilbert_symbol(1, 1, p)


def test_hasse_witt_examples():
    assert all(hasse_witt(hyperbolic(1), p) == 1 for p in (2, 3, 5, INF))
    q = QuadraticForm((-1, -1))
    assert hasse_witt(q, 2) == -1
    assert hasse_witt(q, 3) == 1


def pairwise_hasse_witt(q, p):
    """The oracle: the product of (a_i, a_j)_p over every pair i < j."""
    d = q.diag
    out = 1
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            out *= hilbert_symbol(d[i], d[j], p)
    return out


def test_hasse_witt_matches_the_pairwise_product():
    # square-class representatives, valuations of both parities, units of
    # every class mod 8, and denominators, at the real place and five primes
    rng = random.Random(16)
    entries = [1, -1, 2, -2, 3, -3, 5, 6, -7, 12, 18, -50, 75, 49, -98,
               Fraction(1, 2), Fraction(-3, 4), Fraction(5, 9), Fraction(7, 8)]
    for _ in range(300):
        q = QuadraticForm(tuple(rng.choice(entries) for _ in range(rng.randint(1, 8))))
        for p in (INF, 2, 3, 5, 7, 11):
            assert hasse_witt(q, p) == pairwise_hasse_witt(q, p), (q, p)


@pytest.mark.parametrize("rank", [1, 2, 5, 40])
def test_hasse_witt_takes_at_most_rank_symbols_per_place(monkeypatch, rank):
    from spinbott import quadforms
    calls = []
    real = quadforms._symbol  # the unchecked kernel hasse_witt calls
    monkeypatch.setattr(quadforms, "_symbol",
                        lambda a, b, p: calls.append(p) or real(a, b, p))
    rng = random.Random(rank)
    q = QuadraticForm(tuple(rng.choice([1, -2, 3, Fraction(-5, 7)]) for _ in range(rank)))
    for p in (INF, 2, 3, 7):
        calls.clear()
        hasse_witt(q, p)
        assert len(calls) == rank - 1


def test_hasse_witt_checks_its_place_once(monkeypatch, capsys):
    # bug: every symbol of hasse_witt re-checked its place, 4,000 Miller-Rabin
    # primality tests for a rank-2,000 form at 2 and at one large prime
    from spinbott import cli, quadforms
    primality, places = [], []
    real_prime, real_hw = quadforms._is_prime, quadforms.hasse_witt

    def hasse_witt_counted(q, p):
        places.append(p)
        return real_hw(q, p)

    monkeypatch.setattr(quadforms, "_is_prime", lambda p: primality.append(p) or real_prime(p))
    monkeypatch.setattr(quadforms, "hasse_witt", hasse_witt_counted)
    monkeypatch.setattr(cli, "hasse_witt", hasse_witt_counted)
    big = 1000000000000000003
    assert cli.main(["qf", ",".join(["1"] * 2000), "--primes", str(big)]) == 0
    assert json.loads(capsys.readouterr().out)["hasse"] == {str(big): 1}
    assert len(places) == 3 and set(places) == {2, big, INF}
    assert len(primality) <= len(places)


def _trial_division(n, divisors):
    """{prime: exponent} of n > 1 by division by the candidates in
    increasing order; whatever is left above the last one is a prime."""
    out = {}
    for d in divisors:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
    return out | ({n: 1} if n > 1 else {})


def test_factorize_matches_trial_division():
    from spinbott.quadforms import _factorize
    rng = random.Random(3)
    # below 10^6 no cofactor reaches Brent's rho; above it, up to 10^10, rho
    # splits the products of primes above the trial bound
    for n in [rng.randint(2, 10 ** 6) for _ in range(200)] + [
            rng.randint(10 ** 6, 10 ** 10) for _ in range(60)] + [1009 * 1013, 999983 ** 2]:
        assert _factorize(n) == _trial_division(n, range(2, math.isqrt(n) + 1))


def test_factorize_splits_above_the_primality_bound():
    # both are above PRIME_PLACE_LIMIT, and trial division below 1000 misses
    # 1009; trial division answered them, and Brent's rho splits them
    from spinbott.quadforms import _factorize
    p, q = 10000019, 1000000000000000003
    assert _is_prime(p) and _is_prime(q) and 1009 * p * q > PRIME_PLACE_LIMIT
    assert _factorize(1009 ** 9) == {1009: 9}
    assert _factorize(1009 * p * q) == {1009: 1, p: 1, q: 1}


def test_qf_of_two_primes_near_1e9_is_that_of_trial_division(capsys, monkeypatch):
    from spinbott import cli, quadforms
    p, q = 999999937, 1000000007
    assert _is_prime(p) and _is_prime(q)
    argv = ["qf", "--prime-bound", str(q), f"3,{p * q},-{2 * p}"]
    assert cli.main(argv) == 0
    answer = capsys.readouterr().out
    monkeypatch.setattr(quadforms, "_factorize",
                        lambda n: _trial_division(n, [*range(2, 1000), p, q]))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == answer
    assert json.loads(answer)["disc"] == -6 * q


def test_qf_entry_with_a_prime_factor_near_1e20_answers_or_refuses_in_seconds(capsys):
    from spinbott import cli
    big = 100000000000000000039  # prime; trial division stalled on it
    start = time.perf_counter()
    assert cli.main(["qf", f"1,{big}"]) == 2
    assert capsys.readouterr().err == f"error: prime_bound 50 misses primes [{big}]\n"
    assert cli.main(["qf", "--prime-bound", str(big), f"1,{big}"]) == 0
    assert json.loads(capsys.readouterr().out)["disc"] == big
    assert time.perf_counter() - start < 10


def test_qf_entry_with_an_unprovable_factor_is_refused(capsys):
    from spinbott import cli
    start = time.perf_counter()
    # a probable prime at or above the primality bound cannot be placed
    assert cli.main(["qf", f"1,{2 ** 89 - 1}"]) == 2
    assert "not below the primality bound" in capsys.readouterr().err
    # two 25-digit primes: rho needs about 10^12 steps to split them
    p, q = 2 ** 89 - 1, 10 ** 25 + 13
    assert cli.main(["qf", f"1,{p * q}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot factor {p * q}")
    assert time.perf_counter() - start < 30


def test_bw_class_examples():
    assert bw_class(hyperbolic(1), 10) == BWTriple(0, -1, ())
    assert bw_class(QuadraticForm((1,)), 10) == BWTriple(1, 1, ())
    assert bw_class(QuadraticForm((-1, -1)), 10) == BWTriple(0, 1, (2, INF))
    with pytest.raises(IncompleteScanError):
        bw_class(QuadraticForm((Fraction(1, 13), 1)), 7)


def test_bw_even_minus_count():
    rng = random.Random(5)
    for _ in range(25):
        q = QuadraticForm(tuple(rng.choice([1, -1, 2, -3, 5, -6]) for _ in range(3)))
        assert len(bw_class(q, 50).hasse_minus) % 2 == 0  # product formula


def _primes_by_sieve(n):
    flags = [True] * (n + 1)
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(range(p * p, n + 1, p))
    return [p for p in range(2, n + 1) if flags[p]]


def test_bw_class_matches_a_full_prime_scan():
    # the support places give the same Hasse-minus list as every prime up to the bound
    rng = random.Random(11)
    entries = [1, -1, 2, -3, 5, -6, 7, Fraction(1, 3), Fraction(-2, 5), Fraction(7, 11), 13]
    for _ in range(40):
        q = QuadraticForm(tuple(rng.choice(entries) for _ in range(rng.randint(1, 5))))
        bound = rng.randint(13, 60)
        scan = [p for p in _primes_by_sieve(bound) + [INF] if hasse_witt(q, p) == -1]
        assert bw_class(q, bound).hasse_minus == tuple(scan)


def test_bw_class_checks_the_product_formula(monkeypatch):
    from spinbott import quadforms
    from spinbott.config import FailedCheckError
    real = quadforms.hasse_witt
    monkeypatch.setattr(quadforms, "hasse_witt",
                        lambda q, p: -real(q, p) if p == INF else real(q, p))
    with pytest.raises(FailedCheckError, match="odd number of places"):
        bw_class(QuadraticForm((-1, -1)), 10)


def test_bw_class_disc_matches_the_square_free_part_of_the_discriminant():
    # the disc class comes from the entries' own factorizations
    rng = random.Random(24)
    for _ in range(3000):
        q = QuadraticForm(tuple(Fraction(rng.choice([-1, 1]) * rng.randint(1, 500),
                                         rng.randint(1, 60))
                                for _ in range(rng.randint(1, 5))))
        assert bw_class(q, 500).disc_class == square_free_part(discriminant(q)), q


def test_qf_of_a_squared_prime_near_1e20_answers_without_factoring_the_square(capsys):
    # rho cannot split the square of the prime in the discriminant
    from spinbott import cli
    big = 100000000000000000039
    start = time.perf_counter()
    assert cli.main(["qf", "--prime-bound", str(big), f"{big},{big}"]) == 0
    assert json.loads(capsys.readouterr().out)["disc"] == 1
    assert time.perf_counter() - start < 10


def test_orientability():
    for m in (1, 2, 3):
        ok, s = is_orientable(hyperbolic(m))
        assert ok and s == 1
    assert is_orientable(QuadraticForm((1, 1))) == (False, None)
    assert is_orientable(QuadraticForm((1,))) == (False, None)
    ok, s = is_orientable(QuadraticForm((2, -2)))
    assert ok and s == Fraction(1, 2)
    d = Fraction(-1) * 2 * -2
    assert s * s * d == 1


@given(small_nonzero, small_nonzero, small_places)
@settings(max_examples=100)
def test_hilbert_symmetry(a, b, p):
    assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)


@given(small_nonzero, small_nonzero, small_nonzero, small_places)
@settings(max_examples=100)
def test_hilbert_bimultiplicative(a1, a2, b, p):
    assert (hilbert_symbol(a1 * a2, b, p)
            == hilbert_symbol(a1, b, p) * hilbert_symbol(a2, b, p))


@given(small_nonzero, small_nonzero)
@settings(max_examples=100)
def test_hilbert_product_formula(a, b):
    # numerators of value-bounded fractions reach 24, so scan primes to 23
    places = [2, 3, 5, 7, 11, 13, 17, 19, 23, INF]
    prod = 1
    for p in places:
        prod *= hilbert_symbol(a, b, p)
    assert prod == 1


def test_invariance_under_congruence():
    rng = random.Random(11)
    places = [2, 3, 5, 7, INF]
    for _ in range(15):
        q = QuadraticForm(tuple(rng.choice([1, -1, 2, -2, 3]) for _ in range(3)))
        while True:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            if det(m) != 0:
                break
        gram = mat_mul(transpose(m), mat_mul(diag(list(q.diag)), m))
        q2, basis = diagonalize(gram, want_basis=True)
        check = mat_mul(transpose(basis), mat_mul(gram, basis))
        assert check == diag(list(q2.diag))
        assert square_free_part(discriminant(q2)) == square_free_part(discriminant(q))
        for p in places:
            assert hasse_witt(q2, p) == hasse_witt(q, p)


@given(st.lists(small_nonzero, min_size=1, max_size=4), small_nonzero)
@settings(max_examples=60)
def test_orientable_square_scaling(diag, c):
    q = QuadraticForm(tuple(diag))
    assert is_orientable(q)[0] == is_orientable(scale(q, c * c))[0]


def test_parse_format_roundtrip():
    q = parse_form("1,-1,2/3")
    assert q.diag == (1, -1, Fraction(2, 3))
    assert str(q) == "1,-1,2/3" and parse_form(str(q)) == q


def test_verify_oracle_builds_each_table_once():
    # the exhaustive oracle's residue tables depend only on the place, and
    # its masks only on a square-free value and the place
    from spinbott import verify
    tables = (verify._bitmask_tables, verify._a_masks, verify._b_masks)
    verify._oracle_cache.clear()
    for table in tables:
        table.cache_clear()
    values = range(-6, 7)
    for p in (2, 3, 5, 7):
        for a in values:
            for b in values:
                if a and b:
                    assert verify.hilbert_oracle(a, b, p) == hilbert_symbol(a, b, p)
    info = verify._bitmask_tables.cache_info()
    assert info.misses == info.currsize == 4
    classes = {square_free_part(c) for c in values if c}
    assert len(classes) == 10
    for table in tables[1:]:
        info = table.cache_info()
        assert info.misses == info.currsize == 4 * len(classes)
    assert len(verify._oracle_cache) == 4 * len(classes) ** 2


def test_each_place_is_tested_prime_once_per_process(monkeypatch):
    from spinbott import quadforms
    tested = []
    real_prime = quadforms._is_prime
    monkeypatch.setattr(quadforms, "_PRIME_PLACES", set())
    monkeypatch.setattr(quadforms, "_is_prime", lambda p: tested.append(p) or real_prime(p))
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    rng = random.Random(5)
    for _ in range(2000):
        a, b = rng.choice([-1, 1]) * rng.randint(1, 500), rng.randint(1, 500)
        p = rng.choice(primes + [INF])
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
    assert sorted(tested) == primes
    hasse_witt(QuadraticForm((1, 2, 3)), 1000000000000000003)
    hasse_witt(QuadraticForm((1, 2, 3)), 1000000000000000003)
    assert tested[len(primes):] == [1000000000000000003]


@pytest.mark.parametrize("place, message", [
    (4, "4 is neither a prime nor 'inf'"),
    (1, "1 is neither a prime nor 'inf'"),
    (-3, "-3 is neither a prime nor 'inf'"),
    (True, "True is neither a prime nor 'inf'"),
    (2.0, "2.0 is neither a prime nor 'inf'"),
    ("2", "'2' is neither a prime nor 'inf'"),
    (PRIME_PLACE_LIMIT, f"place {PRIME_PLACE_LIMIT} is not below the primality bound "
                        f"{PRIME_PLACE_LIMIT}"),
])
def test_a_refused_place_is_refused_on_every_call(monkeypatch, place, message):
    from spinbott import quadforms
    monkeypatch.setattr(quadforms, "_PRIME_PLACES", set())
    assert (hilbert_symbol(3, 5, 2), hilbert_symbol(3, 5, 3)) == (1, -1)  # 2 and 3 remembered
    for _ in range(3):
        for call in (lambda: hilbert_symbol(3, 5, place),
                     lambda: hasse_witt(QuadraticForm((3,)), place)):
            with pytest.raises(InvalidPlaceError) as err:
                call()
            assert str(err.value) == message
    assert quadforms._PRIME_PLACES == {2, 3}
