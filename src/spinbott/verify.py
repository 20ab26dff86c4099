"""Named verification suites reproducing the desk-checkable identities.

Each suite runs deterministically from a seed and yields cases with a
``statement`` field naming the identity checked, an expected and an
actual value, and a pass/fail status.  The command-line front end wraps
these into JSON reports.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from .clifford import (CliffordElement, clifford_group_test, graded_tensor_check,
                       pairing_det, phi_gram, spin_lift, untwist_iso, volume_element)
from .lambda_bott import (LineExpr, bott_cyclotomic, bott_lines, corrected_bott,
                          line_to_lambda, serre_sqrt, sphere_formula, sum_of_powers,
                          trivial_lambda_vector)
from .modules import adams_module_report, hermitian_bott, opposite_form_check
from .quadforms import INF, QuadraticForm, _is_prime, hilbert_symbol, square_free_part


class VerificationReport(SimpleNamespace):
    """A suite's name, seed and cases, and its wall-clock seconds
    (``elapsed``, set after the run when it is timed)."""

    def __init__(self, suite: str, seed: int, cases: list | None = None,
                 elapsed: float | None = None):
        super().__init__(suite=suite, seed=seed, cases=[] if cases is None else cases,
                         elapsed=elapsed)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c["status"] == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if c["status"] == "fail")

    @property
    def all_pass(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "counts": {"pass": self.passed, "fail": self.failed,
                       "skipped": len(self.cases) - self.passed - self.failed},
            "elapsed": self.elapsed,
        }


def _case(cid: str, statement: str, inputs, expected, actual) -> dict:
    return {
        "id": cid,
        "statement": statement,
        "inputs": inputs,
        "expected": str(expected),
        "actual": str(actual),
        "status": "pass" if str(expected) == str(actual) else "fail",
    }


def _guarded(cid: str, statement: str, inputs, expected, thunk) -> dict:
    try:
        actual = thunk()
    except Exception as exc:  # a raised check is a failed case, not a crash
        return _case(cid, statement, inputs, expected, f"error: {exc}")
    return _case(cid, statement, inputs, expected, actual)


# -- spheres: closed sphere coefficients and the line-class axioms ------------

def _random_effective(rng: random.Random, nsyms: int = 3) -> LineExpr:
    # one or two monomials, a repeated one's coefficients added (by the
    # constructor where two tuples pack to one key)
    terms: dict = {}
    for _ in range(rng.randint(1, 2)):
        exps = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, nsyms)))
        terms[exps] = terms.get(exps, 0) + rng.randint(1, 2)
    return LineExpr(terms)


def suite_spheres(seed: int) -> list:
    cases = []
    for r in range(1, 5):
        for k in range(2, 8):
            cases.append(_guarded(
                f"sphere-r{r}-k{k}",
                "top Bott coefficient equals [1 + 2^r + ... + (k-1)^r]/k^r",
                {"r": r, "k": k},
                Fraction(sum_of_powers(r, k), k ** r),
                lambda r=r, k=k: sphere_formula(r, k)))
    rng = random.Random(seed)
    for k in (2, 3, 5):
        expect = LineExpr.scalar(0)
        for t in range(k):
            expect = expect + LineExpr.symbol(1) ** t
        cases.append(_case(
            f"bott-line-k{k}", "bott(L) = 1 + L + ... + L^(k-1)",
            {"k": k}, expect, bott_lines(LineExpr.symbol(1), k)))
        samples, good = 200, 0
        for _ in range(samples):
            x, y = _random_effective(rng), _random_effective(rng)
            if bott_lines(x + y, k) == bott_lines(x, k) * bott_lines(y, k):
                good += 1
        cases.append(_case(
            f"bott-mult-k{k}", "bott(x + y) = bott(x) bott(y)",
            {"k": k, "samples": samples}, f"{samples}/{samples}", f"{good}/{samples}"))
        agree = 0
        trials = 25
        for _ in range(trials):
            x = _random_effective(rng)
            if bott_cyclotomic(line_to_lambda(x), k) == bott_lines(x, k):
                agree += 1
        cases.append(_case(
            f"bott-cyclotomic-k{k}",
            "cyclotomic product form agrees with the line product form",
            {"k": k, "samples": trials}, f"{trials}/{trials}", f"{agree}/{trials}"))
    return cases


# -- symbols: Hilbert symbol properties and the solubility oracle --------------

def _squarefree_int(n: int) -> int:
    # local copy so the oracle does not share code with the implementation
    sign = -1 if n < 0 else 1
    n = abs(n)
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    return sign * out * n


@lru_cache(maxsize=None)  # one entry per place: four in the symbols suite
def _bitmask_tables(p: int):
    # the squares and the unit squares mod p^e (the Hensel exponent e),
    # bit v set for the residue v: every per-value mask of the oracle
    # below is built from these two
    mod = p ** (5 if p == 2 else 3)
    sq = unit_sq = 0
    for z in range(mod):
        v = z * z % mod
        sq |= 1 << v
        if z % p:
            unit_sq |= 1 << v
    return mod, sq, unit_sq


def _values(c: int, p: int, mod: int):
    """The residues c x^2 mod p^e over unit x and over non-unit x."""
    unit, nonunit = set(), set()
    for x in range(mod):
        (unit if x % p else nonunit).add(c * x * x % mod)
    return unit, nonunit


@lru_cache(maxsize=None)  # one entry per (square-free a, p)
def _a_masks(a: int, p: int):
    """(W_u, W_n, W_nz): bit w of W_u is set iff w + a x^2 is a square for
    some unit x, of W_n iff it is for some non-unit x, and of W_nz iff it
    is a unit square for some non-unit x."""
    mod, sq, unit_sq = _bitmask_tables(p)
    full = (1 << mod) - 1

    def rotated(mask, shift):
        # bit w of the result is bit (w + shift) mod `mod` of `mask`
        return ((mask >> shift) | (mask << (mod - shift))) & full

    unit, nonunit = _values(a, p, mod)
    w_u = w_n = w_nz = 0
    for v in unit:
        w_u |= rotated(sq, v)
    for v in nonunit:
        w_n |= rotated(sq, v)
        w_nz |= rotated(unit_sq, v)
    return w_u, w_n, w_nz


@lru_cache(maxsize=None)  # one entry per (square-free b, p)
def _b_masks(b: int, p: int):
    """(b_all, b_unit, b_nonunit): the residues b y^2 over every y, over
    unit y and over non-unit y."""
    mod = _bitmask_tables(p)[0]
    unit, nonunit = _values(b, p, mod)  # distinct residues: the sum of their bits is their union
    b_unit = sum(1 << v for v in unit)
    b_nonunit = sum(1 << v for v in nonunit)
    return b_unit | b_nonunit, b_unit, b_nonunit


_oracle_cache: dict = {}  # pair answers, keyed (a, b, p) after square-free reduction


def hilbert_oracle(a: int, b: int, p) -> int:
    """Exhaustive solubility search for z^2 = a x^2 + b y^2 over Q_p.

    The inputs are reduced to their square-free parts (both solubility
    and the symbol only depend on square classes), after which a
    primitive solution modulo p^3 (odd p) or 2^5 lifts by Hensel's lemma
    and conversely.  The search runs over all residues, factored through
    bitmasks built once per square-free value: a primitive zero has x a
    unit (any y), or x a non-unit and y a unit (any z), or x and y
    non-units and z a unit, so the pair is soluble iff W_u meets b_all,
    W_n meets b_unit or W_nz meets b_nonunit (``_a_masks``, ``_b_masks``).
    """
    if p == INF:
        return -1 if (a < 0 and b < 0) else 1
    a, b = _squarefree_int(a), _squarefree_int(b)
    key = (a, b, p)
    hit = _oracle_cache.get(key)
    if hit is not None:
        return hit
    w_u, w_n, w_nz = _a_masks(a, p)
    b_all, b_unit, b_nonunit = _b_masks(b, p)
    out = 1 if (w_u & b_all or w_n & b_unit or w_nz & b_nonunit) else -1
    _oracle_cache[key] = out
    return out


def _random_rational(rng: random.Random, primes) -> Fraction:
    num = rng.choice([1, -1])
    for p in primes:
        num *= p ** rng.randint(0, 2)
    den = 1
    for p in primes:
        den *= p ** rng.randint(0, 1)
    return Fraction(num, den)


def suite_symbols(seed: int) -> list:
    cases = []
    rng = random.Random(seed)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    places = primes + [INF]
    samples = 500
    sym = bim = prod = 0
    for _ in range(samples):
        a = _random_rational(rng, rng.sample(primes, 3))
        b = _random_rational(rng, rng.sample(primes, 3))
        c = _random_rational(rng, rng.sample(primes, 2))
        p = rng.choice(places)
        if hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p):
            sym += 1
        if hilbert_symbol(a * c, b, p) == hilbert_symbol(a, b, p) * hilbert_symbol(c, b, p):
            bim += 1
        if 1 == _product_over_places(a, b, places):
            prod += 1
    cases.append(_case("hilbert-symmetric", "(a,b)_p = (b,a)_p",
                       {"samples": samples}, f"{samples}/{samples}", f"{sym}/{samples}"))
    cases.append(_case("hilbert-bimultiplicative", "(ac,b)_p = (a,b)_p (c,b)_p",
                       {"samples": samples}, f"{samples}/{samples}", f"{bim}/{samples}"))
    cases.append(_case("hilbert-product-formula", "prod over all places of (a,b)_p = 1",
                       {"samples": samples}, f"{samples}/{samples}", f"{prod}/{samples}"))
    for p in (2, 3, 5, 7, INF):
        bad = 0
        total = 0
        for a in range(-20, 21):
            for b in range(-20, 21):
                if a == 0 or b == 0:
                    continue
                total += 1
                if hilbert_symbol(a, b, p) != hilbert_oracle(a, b, p):
                    bad += 1
        cases.append(_case(
            f"hilbert-oracle-p{p}",
            "case analysis agrees with exhaustive modular solubility search",
            {"place": str(p), "pairs": total},
            f"{total}/{total}", f"{total - bad}/{total}"))
    return cases


def _product_over_places(a, b, places) -> int:
    out = 1
    for p in places:
        out *= hilbert_symbol(a, b, p)
    return out


# -- clifford: volume elements, bilinear forms, tensor decompositions ----------

_CLIFFORD_FORMS = (QuadraticForm((1, -1)), QuadraticForm((1, -1, 1, -1)),
                   QuadraticForm((2, -2)))


def suite_clifford(seed: int) -> list:
    cases = []
    for q in _CLIFFORD_FORMS:
        name = str(q).replace(",", "_")
        u = volume_element(q)
        cases.append(_case(f"volume-square-{name}", "u^2 = 1", {"form": str(q)},
                           CliffordElement.scalar(q, 1), u * u))
        anti = all((u * CliffordElement.generator(q, i)
                    + CliffordElement.generator(q, i) * u) == 0
                   for i in range(1, q.rank + 1))
        cases.append(_case(f"volume-anticommute-{name}", "u v + v u = 0 for v in V",
                           {"form": str(q)}, True, anti and u.degree() == 0))
        cases.append(_case(
            f"volume-norm-{name}",
            "spinorial norm of u is (-1)^(n(n-1)/2), reported as computed",
            {"form": str(q)}, Fraction(-1) ** (q.rank * (q.rank - 1) // 2),
            clifford_group_test(u).norm))
        top = (1 << q.rank) - 1
        for parity in (0, 1):
            gram = phi_gram(q, parity)
            sym_ok = all(x == (-1) ** parity * gram[top ^ m] for m, x in gram.items())
            dval = pairing_det(gram)
            shape = "symmetric" if parity == 0 else "antisymmetric"
            cases.append(_case(
                f"gram-{parity}-{name}",
                f"top-coefficient form on C^{parity} is {shape} and nondegenerate",
                {"form": str(q)}, True, sym_ok and dval != 0))
        half = (1 << (q.rank - 1)) // 2
        dclass = square_free_part(pairing_det(phi_gram(q, 0)) * Fraction(-1) ** half)
        cases.append(_case(
            f"gram-hyperbolic-{name}",
            "Gram determinant square class matches the hyperbolic one",
            {"form": str(q)}, 1, dclass))
        untwist = untwist_iso(q, 1)
        cases.append(_case(
            f"untwist-{name}",
            "v -> v (x) 1, t -> u (x) t is an isomorphism onto the plain tensor",
            {"form": str(q), "extra": 1}, True,
            untwist.relations_ok and untwist.bijective))
    rng = random.Random(seed)
    entries = [1, -1, 2, -2, 3]
    for r1 in range(1, 4):
        for r2 in range(1, 4):
            q1 = QuadraticForm(tuple(rng.choice(entries) for _ in range(r1)))
            q2 = QuadraticForm(tuple(rng.choice(entries) for _ in range(r2)))
            cases.append(_case(
                f"graded-tensor-{r1}-{r2}",
                "structure constants of C(V + W) match the graded tensor product",
                {"q1": str(q1), "q2": str(q2)}, True,
                graded_tensor_check(q1, q2)))
    return cases


# -- spin-lift -----------------------------------------------------------------

_LIFT_CONFIGS = ((QuadraticForm((1, -1)), 2), (QuadraticForm((1, -1)), 3),
                 (QuadraticForm((1, -1, 1, -1)), 2))


def suite_spin_lift(seed: int) -> list:
    cases = []
    for q, k in _LIFT_CONFIGS:
        name = f"{str(q).replace(',', '_')}-k{k}"
        lift = spin_lift(q, k)
        cases.append(_case(f"lift-squares-{name}", "each lifted swap squares to one",
                           {"form": str(q), "copies": k}, True, lift.squares_ok))
        cases.append(_case(f"lift-braid-{name}", "lifted swaps satisfy the braid relation",
                           {"form": str(q), "copies": k}, True, lift.braid_ok))
        cases.append(_case(f"lift-commute-{name}", "distant lifted swaps commute",
                           {"form": str(q), "copies": k}, True, lift.commutation_ok))
        cases.append(_case(f"lift-matrices-{name}",
                           "induced isometry is the block swap of adjacent copies",
                           {"form": str(q), "copies": k}, True, lift.matrices_ok))
        if q.rank % 4 == 0:
            cases.append(_case(f"lift-norm-{name}", "lifted swaps have spinorial norm one",
                               {"form": str(q), "copies": k},
                               [Fraction(1)] * (k - 1),
                               [Fraction(x) for x in lift.norms]))
    return cases


# -- serre ----------------------------------------------------------------------

def suite_serre(seed: int) -> list:
    cases = []
    for k in (3, 5):
        for m in (1, 2, 3):
            v = trivial_lambda_vector(2 * m)
            name = f"rank{2 * m}-k{k}"
            root = serre_sqrt(v, k)
            rho = bott_cyclotomic(v, k)
            cases.append(_case(f"serre-square-{name}",
                               "the square root squares to the Bott class",
                               {"rank": 2 * m, "k": k}, rho, root ** 2))
            cases.append(_case(f"serre-hyperbolic-{name}",
                               "sqrt on m hyperbolic planes equals k^m",
                               {"rank": 2 * m, "k": k}, Fraction(k) ** m, root))
            rbar = corrected_bott(Fraction(k) ** m, v, k)
            cases.append(_case(f"corrected-trivial-{name}",
                               "corrected class is one on hyperbolic classes",
                               {"rank": 2 * m, "k": k}, Fraction(1), rbar))
            cases.append(_case(f"corrected-torsion-{name}",
                               "corrected class squares to one",
                               {"rank": 2 * m, "k": k}, Fraction(1), rbar ** 2))
    # hyperbolic plane on a formal line symbol: sqrt = sigma^((k-1)/2) bott(L)
    from .lambda_bott import LambdaVector
    hl = LambdaVector(2, (LineExpr.monomial((1,)) + LineExpr.monomial((-1,)),
                          LineExpr.scalar(1)))
    for k in (3, 5):
        sigma = LineExpr.monomial((-1,)) ** ((k - 1) // 2)
        cases.append(_case(
            f"serre-line-hyperbolic-k{k}",
            "sqrt on a line hyperbolic plane is sigma^((k-1)/2) times bott(L)",
            {"k": k}, sigma * bott_lines(LineExpr.symbol(1), k),
            serre_sqrt(hl, k)))
    return cases


# -- adams -----------------------------------------------------------------------

_ADAMS_CONFIGS = ((1, 2), (1, 3), (2, 2))


def suite_adams(seed: int) -> list:
    cases = []
    for m, k in _ADAMS_CONFIGS:
        rep = adams_module_report(m, k)
        name = f"m{m}-k{k}"
        cases.append(_case(f"adams-agreement-{name}",
                           "eigenmodule and character Adams operations agree",
                           {"m": m, "k": k}, rep["psi_char"], rep["psi_bar"]))
        dims = rep["eigen_dims"]
        cases.append(_case(f"adams-total-{name}",
                           "eigenmodule dimensions resolve the tensor power",
                           {"m": m, "k": k}, (2 ** m) ** k,
                           sum(d0 + d1 for d0, d1 in dims)))
        if _is_prime(k):
            cases.append(_case(f"adams-prime-isotypy-{name}",
                               "nontrivial eigenmodules all have equal graded dimensions",
                               {"m": m, "k": k}, True,
                               all(dims[j] == dims[1] for j in range(1, k))))
        cases.append(_case(f"bott-value-{name}", "module Bott class equals k^m",
                           {"m": m, "k": k}, str(k ** m), rep["rho_k"]))
        cases.append(_case(f"bott-opposite-{name}",
                           "Bott class is insensitive to negating the form",
                           {"m": m, "k": k}, True, opposite_form_check(m, k)))
    cases.append(_case("bott-multiplicative",
                       "Bott class of a sum is the product of the classes",
                       {"pairs": "(1,2)+(1,2) vs (2,2)"}, True,
                       hermitian_bott(2, 2) == hermitian_bott(1, 2) ** 2))
    return cases


_RUNNERS = {
    "clifford": suite_clifford,
    "spin-lift": suite_spin_lift,
    "adams": suite_adams,
    "serre": suite_serre,
    "spheres": suite_spheres,
    "symbols": suite_symbols,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, seed: int = 0, timings: bool = False) -> VerificationReport:
    """Run one named suite (or 'all'), cases sorted by id."""
    if name == "all":
        names = list(SUITES)
    elif name in _RUNNERS:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    start = time.perf_counter()
    cases = []
    for n in names:
        cases.extend(_RUNNERS[n](seed))
    cases.sort(key=lambda c: c["id"])
    report = VerificationReport(suite=name, seed=seed, cases=cases)
    if timings:
        report.elapsed = round(time.perf_counter() - start, 3)
    return report
