"""Seeded, stratified inputs for the three workloads and independent checks.

Every expected value is derived here from a closed form or from an
independent expansion written for the benchmark; nothing in this module
imports spinbott, so a defect in the program cannot hide in its own oracle.

A check returns None when an output is right and a one-line reason when it
is wrong.  The runner counts every reason as a failed operation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

WORKLOADS = ("verify-all", "module-adams", "algebra-cli")

# Every workload repeats one round of distinct requests until its time is
# up, each round in fresh interpreters, so every request of a round meets the
# cold caches of a new process and no request is ever a repeat of one that
# process already answered.  A request's latency in a run is the fastest of
# its rounds; the metrics are medians and percentiles over one round.
#
# There is no record of how spinbott is used, so the weights below are an
# assumption: every grid point and every request kind counts the same, and
# parameters are spread evenly over the stated ranges.

# module-adams: each (m, k) once per round, tensor dim 2^(mk) = 4..16, in an
# order the seed sets.  These are the three configs of verify's adams suite
# and (1, 4), the largest that answers in about a second.
ADAMS_GRID = ((1, 2), (1, 3), (2, 2), (1, 4))

# algebra-cli: 28 requests of each of the seven commands, 196 a round.  Of
# the 28 `clifford-check` requests, a fixed three are non-units, which take
# the dense regular-representation solve.
PER_KIND = 28
ALGEBRA_MIX = (
    ("qf", PER_KIND),
    ("sphere", PER_KIND),
    ("lines", PER_KIND),
    ("cyclotomic", PER_KIND),
    ("serre-sqrt", PER_KIND),
    ("spin-lift", PER_KIND),
    ("clifford-unit", PER_KIND - 3),
    ("clifford-nonunit", 3),
)

# verify-all: a round is one `verify --suite all` with verify's default seed
# 0, the report users get and the one that must stay byte-identical.  verify's
# seed moves the cost of one verify by up to +-25% (3.1-5.4 s), and a run has
# room for only eight or so verifies, so every run uses the same seed: each
# extra seed would halve the repetitions the fastest is taken over.
VERIFY_POOL = (0,)

MIN_ROUNDS = 2  # a run completes at least this many rounds, whatever --seconds says


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple
    expect: object


def requests_for(workload: str, seed: int) -> list:
    """The round of distinct requests a workload repeats; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        out = [Request("verify", ("verify", "--suite", "all", "--seed", str(s)), s)
               for s in VERIFY_POOL]
    elif workload == "module-adams":
        out = [Request("adams-module", ("adams-module", "--m", str(m), "--k", str(k)), (m, k))
               for m, k in ADAMS_GRID]
    elif workload == "algebra-cli":
        out = []
        for kind, count in ALGEBRA_MIX:
            out.extend(_GENERATORS[kind](rng, count))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if len({r.argv for r in out}) != len(out):
        raise AssertionError(f"{workload} round repeats a request")
    rng.shuffle(out)
    return out


def _spread(grid: list, count: int) -> list:
    """`count` distinct points evenly spaced over `grid`, the first and last among them."""
    return [grid[round(i * (len(grid) - 1) / (count - 1))] for i in range(count)]


def _distinct(rng: random.Random, count: int, make) -> list:
    """`count` requests `make(rng, i)` with distinct argvs, redrawing any repeat."""
    out, seen = [], set()
    for i in range(count):
        req = make(rng, i)
        while req.argv in seen:
            req = make(rng, i)
        seen.add(req.argv)
        out.append(req)
    return out


def check(req: Request, rc: int, out: str):
    """None if the output of one request is right, else the reason it is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not JSON"
    try:
        return _CHECKS[req.kind](req.expect, payload)
    except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


# -- number theory written for the benchmark ----------------------------------

def primes_upto(n: int) -> list:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


_SMALL_PRIMES = primes_upto(997)


def _squarefree(x: Fraction) -> int:
    n = x.numerator * x.denominator
    sign, n = (-1 if n < 0 else 1), abs(n)
    out = 1
    for p in _SMALL_PRIMES:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out *= p ** (e % 2)
    if n != 1:
        raise ValueError("entry has a prime factor above 997")
    return sign * out


def _is_rational_square(x: Fraction) -> bool:
    return x > 0 and all(isqrt(v) ** 2 == v for v in (x.numerator, x.denominator))


def _format_q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- qf: rank 4-8, prime factors below 1000, --prime-bound 1000-3000 ------------

def _one_qf(rng: random.Random, i: int) -> Request:
    n = 4 + i % 5  # ranks 4..8 in turn
    diag = []
    for _ in range(n):
        x = Fraction(rng.choice((1, -1)))
        for p in rng.sample(_SMALL_PRIMES[:60], rng.randint(1, 2)):
            x *= p ** rng.randint(1, 2)
        if rng.random() < 0.25:
            x /= rng.choice(_SMALL_PRIMES[:10])
        diag.append(x)
    bound = rng.randint(1000, 3000)
    disc = Fraction(1)
    for x in diag:
        disc *= x
    signed = disc * (-1) ** (n * (n - 1) // 2)
    support = {p for x in diag for p in _SMALL_PRIMES
               if x.numerator % p == 0 or x.denominator % p == 0}
    expect = {"rank": n, "disc": _squarefree(disc), "support": support,
              "orientable": n % 2 == 0 and _is_rational_square(signed)}
    text = ",".join(_format_q(x) for x in diag)
    return Request("qf", ("qf", "--prime-bound", str(bound), "--", text), expect)


def _check_qf(e, p):
    if p["rank"] != e["rank"]:
        return f"rank {p['rank']} != {e['rank']}"
    if p["disc"] != e["disc"] or p["bw"]["disc_class"] != e["disc"]:
        return f"discriminant class {p['disc']} != {e['disc']}"
    if p["bw"]["rank_parity"] != e["rank"] % 2:
        return "rank parity is wrong"
    if p["orientable"] is not e["orientable"]:
        return f"orientable {p['orientable']} != {e['orientable']}"
    minus = p["hasse_minus"]
    if minus != p["bw"]["hasse_minus"]:
        return "hasse_minus differs from bw.hasse_minus"
    if len(minus) % 2:
        return f"odd number of Hasse-minus places {minus} (Hilbert reciprocity)"
    stray = [v for v in minus if v != "inf" and v != 2 and v not in e["support"]]
    if stray:
        return f"Hasse-minus at primes {stray} that divide no entry"
    return None


# -- bott --mode sphere: r <= 7, k <= 12 ---------------------------------------

def _sphere(r: int, k: int) -> Request:
    expect = (r, k, Fraction(sum(j ** r for j in range(1, k)), k ** r))
    return Request("sphere", ("bott", "--mode", "sphere", "--r", str(r), "--k", str(k)), expect)


def _gen_sphere(rng: random.Random, count: int) -> list:
    grid = [(r, k) for r in range(1, 8) for k in range(2, 13)]
    return [_sphere(r, k) for r, k in _spread(grid, count)]


def _check_sphere(e, p):
    r, k, coeff = e
    if (p["r"], p["k"]) != (r, k):
        return "r or k not echoed"
    if Fraction(p["coefficient"]) != coeff:
        return f"coefficient {p['coefficient']} != {coeff}"
    return None


# -- bott --mode lines / cyclotomic: effective line expressions ---------------

def _strip(exps) -> tuple:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def _mono_text(exps) -> str:
    return "*".join(f"L{i}" if e == 1 else f"L{i}^{e}"
                    for i, e in enumerate(exps, start=1) if e)


def _random_effective(rng: random.Random, rank: int, shape: int) -> dict:
    """{exponents: multiplicity}, total multiplicity `rank`, over symbols L1..L(shape+1).

    The cost of a Bott class grows with the number of monomials and symbols,
    so the shape is chosen by the caller and only the exponents are drawn:
    shape 0 is one monomial in L1, shapes 1 and 2 are two monomials (one for
    rank 1) over L1-L2 and L1-L3, each symbol in at least one of them.
    """
    nsyms = shape + 1
    count = 1 if rank == 1 or shape == 0 else 2
    while True:
        monos = [tuple(rng.choice((-1, 0, 1, 2)) for _ in range(nsyms)) for _ in range(count)]
        if (all(any(m) for m in monos) and len(set(monos)) == count
                and all(any(m[j] for m in monos) for j in range(nsyms))):
            break
    mults = [rank] if count == 1 else rng.choice(([1, rank - 1], [rank - 1, 1]))
    return {_strip(m): mult for m, mult in zip(monos, mults)}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            n = max(len(ea), len(eb))
            e = _strip(x + y for x, y in zip(ea + (0,) * (n - len(ea)),
                                             eb + (0,) * (n - len(eb))))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def bott_expansion(terms: dict, k: int) -> dict:
    """prod over monomials M of (1 + M + ... + M^(k-1))^mult, expanded."""
    out = {(): Fraction(1)}
    for exps, mult in terms.items():
        factor = {_strip(e * t for e in exps): 1 for t in range(k)}
        for _ in range(mult):
            out = _poly_mul(out, factor)
    return out


def parse_line_poly(text: str) -> dict:
    """{exponents: coefficient} from the program's printed line expression."""
    tokens = text.split(" ")
    first = tokens[0]
    pairs = [(-1, first[1:]) if first.startswith("-") else (1, first)]
    pairs += [(1 if op == "+" else -1, body) for op, body in zip(tokens[1::2], tokens[2::2])]
    if len(tokens) % 2 == 0 or any(op not in "+-" for op in tokens[1::2]):
        raise ValueError(f"cannot split {text!r} into terms")
    out: dict = {}
    for sign, body in pairs:
        coeff = Fraction(sign)
        exps: dict = {}
        for f in body.split("*"):
            if f.startswith("L"):
                sym, _, e = f[1:].partition("^")
                exps[int(sym)] = exps.get(int(sym), 0) + (int(e) if e else 1)
            else:
                coeff *= Fraction(f)
        key = _strip(exps.get(i, 0) for i in range(1, max(exps, default=0) + 1))
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c}


def _lines_request(kind: str, terms: dict, k: int) -> Request:
    text = " + ".join(f"{m}*{_mono_text(e)}" for e, m in terms.items())
    expect = (tuple(terms.items()), k)  # expanded when checked, not held for the run
    return Request(kind, ("bott", "--mode", kind, "--expr", text, "--k", str(k)), expect)


def _one_lines(rng: random.Random, i: int) -> Request:
    # k = 2..9, rank 1..3 and shape 0..2 in turn
    return _lines_request("lines", _random_effective(rng, 1 + i % 3, i // 3 % 3), 2 + i % 8)


def _one_cyclotomic(rng: random.Random, i: int) -> Request:
    # k = 3, 5, 7, rank 1..3 and shape 0..2 in turn: all 27 triples in 27 requests
    k = (3, 5, 7)[i % 3]
    return _lines_request("cyclotomic", _random_effective(rng, 1 + i // 3 % 3, i // 9 % 3), k)


def _check_lines(e, p):
    terms, k = dict(e[0]), e[1]
    at_one = k ** sum(terms.values())
    got = parse_line_poly(p["value"])
    if sum(got.values()) != at_one:
        return f"value at L_i = 1 is {sum(got.values())}, not k^rank = {at_one}"
    if got != bott_expansion(terms, k):
        return "expansion differs from prod (1 + M + ... + M^(k-1))^mult"
    return None


# -- serre-sqrt on trivial rank 2m: value k^m ----------------------------------

def _gen_serre(rng: random.Random, count: int) -> list:
    out = []
    for m, k in _spread([(m, k) for m in (1, 2, 3) for k in range(3, 32, 2)], count):
        lams = ",".join(str(comb(2 * m, j)) for j in range(1, 2 * m + 1))
        out.append(Request("serre-sqrt", ("serre-sqrt", "--lams", lams, "--k", str(k)), (m, k)))
    return out


def _check_serre(e, p):
    m, k = e
    if Fraction(p["value"]) != k ** m:
        return f"value {p['value']} != k^m = {k ** m}"
    if Fraction(p["squares_to"]) != k ** (2 * m):
        return f"squares_to {p['squares_to']} != k^(2m)"
    if p["square_checks"] is not True or p["sign_ambiguous"] is not False:
        return "square_checks false or sign ambiguous"
    return None


# -- spin-lift up to total rank 12 ---------------------------------------------

_SPIN_ENTRIES = (1, 2, 3, 5, 6, 7)


def _gen_spin_lift(rng: random.Random, count: int) -> list:
    # rank-2 forms a,-a with 2..6 copies, and rank-4 forms a,-a,b,-b with 2;
    # a rank-4 form with 3 copies or a rank-6 form takes 0.4-1 s
    grid = [(f"{a},-{a}", c) for a in _SPIN_ENTRIES for c in range(2, 7)]
    grid += [(f"{a},-{a},{b},-{b}", 2) for a in _SPIN_ENTRIES for b in _SPIN_ENTRIES if a < b]
    return [Request("spin-lift", ("spin-lift", f"--form={form}", "--copies", str(copies)),
                    (form, copies)) for form, copies in _spread(grid, count)]


def _check_spin_lift(e, p):
    form, copies = e
    if (p["form"], p["copies"]) != (form, copies):
        return "form or copies not echoed"
    flags = ("squares_ok", "braid_ok", "commutation_ok", "matrices_ok")
    bad = [f for f in flags if p[f] is not True]
    if bad:
        return f"flags not true: {bad}"
    if len(p["norms"]) != copies - 1 or len(p["in_spin"]) != copies - 1:
        return "one norm per lifted swap expected"
    return None


# -- clifford-check of a + b e_i e_j: member iff a^2 + b^2 q_i q_j != 0 --------

_FORM_ENTRIES = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7)


def _clifford_request(kind: str, n: int, rng: random.Random) -> Request:
    q = [Fraction(rng.choice(_FORM_ENTRIES)) for _ in range(n)]
    i, j = sorted(rng.sample(range(n), 2))
    while True:
        a, b = rng.randint(1, 5) * rng.choice((1, -1)), rng.randint(1, 5) * rng.choice((1, -1))
        if kind == "clifford-nonunit":
            q[j] = Fraction(-a * a, b * b) / q[i]
        norm = a * a + b * b * q[i] * q[j]
        if (norm == 0) == (kind == "clifford-nonunit"):
            break
    sign = "-" if b < 0 else "+"
    element = f"{a} {sign} {abs(b)}*e{i + 1}e{j + 1}"
    form = ",".join(_format_q(x) for x in q)
    return Request(kind, ("clifford-check", f"--form={form}", f"--element={element}"), norm)


def _one_clifford_unit(rng: random.Random, i: int) -> Request:
    return _clifford_request("clifford-unit", 4 + i % 7, rng)  # ranks 4..10 in turn


def _one_clifford_nonunit(rng: random.Random, i: int) -> Request:
    # non-units take the dense 2^n regular-representation solve; rank <= 8
    return _clifford_request("clifford-nonunit", (4, 6, 8)[i % 3], rng)


def _check_clifford(norm, p):
    if norm == 0:
        return "zero divisor reported as a member" if p["member"] is not False else None
    if p["member"] is not True:
        return f"unit reported as non-member ({p.get('reason')})"
    if Fraction(p["norm"]) != norm:
        return f"norm {p['norm']} != a^2 + b^2 q_i q_j = {norm}"
    if p["degree"] != 0 or p["in_spin"] is not (norm == 1):
        return "degree or in_spin is wrong"
    return None


# -- adams-module: rho_k = k^m, psi_bar = psi_char, eigen dims sum to 2^(mk) ---

def _check_adams(e, p):
    m, k = e
    if Fraction(p["rho_k"]) != k ** m:
        return f"rho_k {p['rho_k']} != k^m = {k ** m}"
    if p["psi_bar"] != p["psi_char"]:
        return f"psi_bar {p['psi_bar']} != psi_char {p['psi_char']}"
    total = sum(d0 + d1 for d0, d1 in p["eigen_dims"])
    if total != 2 ** (m * k):
        return f"eigen dims sum to {total}, not 2^(mk) = {2 ** (m * k)}"
    return None


# -- verify --suite all: every case passes ---------------------------------------

def _check_verify(seed, p):
    if p["suite"] != "all" or p["seed"] != seed:
        return "suite or seed not echoed"
    if not p["cases"]:
        return "no cases"
    failing = [c["id"] for c in p["cases"] if c["status"] != "pass"]
    if failing or p["counts"]["fail"]:
        return f"failing cases {failing[:5]}"
    return None


def case_ids(out: str) -> tuple:
    """The case ids of a verify report; they must be the same on every pass."""
    return tuple(c["id"] for c in json.loads(out)["cases"])


_GENERATORS = {  # kind -> gen(rng, count), `count` requests with distinct argvs
    "qf": lambda rng, count: _distinct(rng, count, _one_qf),
    "sphere": _gen_sphere,
    "lines": lambda rng, count: _distinct(rng, count, _one_lines),
    "cyclotomic": lambda rng, count: _distinct(rng, count, _one_cyclotomic),
    "serre-sqrt": _gen_serre,
    "spin-lift": _gen_spin_lift,
    "clifford-unit": lambda rng, count: _distinct(rng, count, _one_clifford_unit),
    "clifford-nonunit": lambda rng, count: _distinct(rng, count, _one_clifford_nonunit),
}

_CHECKS = {
    "qf": _check_qf,
    "sphere": _check_sphere,
    "lines": _check_lines,
    "cyclotomic": _check_lines,
    "serre-sqrt": _check_serre,
    "spin-lift": _check_spin_lift,
    "clifford-unit": _check_clifford,
    "clifford-nonunit": _check_clifford,
    "adams-module": _check_adams,
    "verify": _check_verify,
}
