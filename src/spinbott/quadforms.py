"""Diagonal quadratic forms over Q and their classical invariants.

Rank, discriminant square class, Hasse-Witt invariant through Hilbert
symbols, the orientability criterion with its square-root witness, and
the standard constructors (hyperbolic, scaling).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, isqrt, prod

from .config import FailedCheckError
from .rings import _exact

INF = "inf"  # the real place


class DegenerateFormError(ValueError):
    """The form (or a scaling factor) is singular."""


class InvalidPlaceError(ValueError):
    """Place is neither a prime nor the real place 'inf'."""


class IncompleteScanError(ValueError):
    """prime_bound misses a prime dividing some diagonal entry."""


class UnfactoredError(ValueError):
    """An entry has a factor that is neither split nor proved prime."""


class QuadraticForm(namedtuple("QuadraticForm", "diag")):
    """<a1, ..., an> with every ai a nonzero rational, stored as an int
    when integral (``rings._exact``): the factors Clifford products
    contract with."""

    __slots__ = ()

    def __new__(cls, diag):
        entries = tuple(_exact(Fraction(a)) for a in diag)
        if any(a == 0 for a in entries):
            raise DegenerateFormError("diagonal entries must be nonzero")
        return super().__new__(cls, entries)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @property
    def rank(self) -> int:
        return len(self.diag)

    def __str__(self):
        return ",".join(map(str, self.diag))


def hyperbolic(m: int) -> QuadraticForm:
    """m hyperbolic planes, diagonalized: <1,-1> repeated m times."""
    if m < 1:
        raise ValueError("need at least one hyperbolic plane")
    return QuadraticForm((1, -1) * m)


def scale(q: QuadraticForm, k) -> QuadraticForm:
    k = Fraction(k)
    if k == 0:
        raise DegenerateFormError("scaling by zero degenerates the form")
    return QuadraticForm(tuple(a * k for a in q.diag))


def discriminant(q: QuadraticForm) -> Fraction:
    out = Fraction(1)
    for a in q.diag:
        out *= a
    return out


# -- square classes ---------------------------------------------------------

def _factorize(n: int) -> dict:
    """{prime: exponent} of an integer n >= 1: trial division below
    TRIAL_BOUND, then ``_large_factors`` on what is left."""
    out: dict = {}
    d = 2
    while d * d <= n and d < TRIAL_BOUND:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1 if d == 2 else 2
    for p in _large_factors(n) if n > 1 else ():
        out[p] = out.get(p, 0) + 1
    return out


def _large_factors(n: int) -> list:
    """The prime factors, with multiplicity, of an n > 1 with no factor
    below TRIAL_BOUND: Miller-Rabin proves a prime below PRIME_PLACE_LIMIT
    (a probable prime above it is refused), and Brent's rho splits a
    composite, which is refused when rho runs out of steps."""
    if n < TRIAL_BOUND ** 2:
        return [n]
    if _is_prime(n):
        if n < PRIME_PLACE_LIMIT:
            return [n]
        raise UnfactoredError(f"factor {n} is not below the primality bound "
                              f"{PRIME_PLACE_LIMIT}")
    d = _brent_rho(n)
    if d is None:
        raise UnfactoredError(f"cannot factor {n}: Brent's rho found no factor "
                              "within its step budget")
    return _large_factors(d) + _large_factors(n // d)


def _brent_rho(n: int):
    """A proper factor of the odd composite n, or None when the budget of
    steps x -> x^2 + c finds none: Brent's variant of Pollard's rho, with
    the differences multiplied up and a gcd taken once per 128 steps
    (Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    Algorithm 8.5.2).  The budget is RHO_BUDGET steps up to 128 bits and
    shrinks as the steps grow dearer above that."""
    budget = RHO_BUDGET * 128 // max(n.bit_length(), 128)
    steps = 0
    for c in range(1, 100):
        x = y = ys = 2
        q = g = r = 1
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == 1:
            return None
        if g == n:  # the batch overshot: step through it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    return None


def square_free_part(x) -> int:
    """The square-free integer representing the square class of x != 0."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    n = x.numerator * x.denominator  # same class as x
    out = -1 if n < 0 else 1
    for p, e in _factorize(abs(n)).items():
        if e % 2:
            out *= p
    return out


def is_square(x) -> bool:
    x = Fraction(x)
    if x < 0:
        return False
    return (isqrt(x.numerator) ** 2 == x.numerator
            and isqrt(x.denominator) ** 2 == x.denominator)


def rational_sqrt(x) -> Fraction:
    x = Fraction(x)
    if not is_square(x):
        raise ValueError(f"{x} is not a rational square")
    return Fraction(isqrt(x.numerator), isqrt(x.denominator))


# -- Hilbert symbols and Hasse-Witt ------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Strong-probable-prime tests to the 13 bases above decide primality below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017)); places at or
# above it are refused.
PRIME_PLACE_LIMIT = 3317044064679887385961981
# Entries are factored by trial division below TRIAL_BOUND, and Brent's rho
# splits the rest.  It takes about sqrt(p) steps to find a prime factor p,
# and a composite below PRIME_PLACE_LIMIT has one below 1.9e12, so RHO_BUDGET
# steps cover them with room to spare.
TRIAL_BOUND = 1000
RHO_BUDGET = 1 << 22


def _is_prime(p: int) -> bool:
    """Deterministic for p < PRIME_PLACE_LIMIT: trial division by the primes
    up to 41 (which settles every p < 43^2), then Miller-Rabin rounds."""
    if p < 2:
        return False
    for b in _SMALL_PRIMES:
        if p % b == 0:
            return p == b
    if p < 43 * 43:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _SMALL_PRIMES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


_PRIME_PLACES: set = set()  # the int places _check_place has passed, per process


def _check_place(p):
    """Refuse a place that is neither INF nor a prime below PRIME_PLACE_LIMIT.

    The primality test runs once per place per process: an int place that
    passed is remembered in ``_PRIME_PLACES``, and is then passed at once.
    A refused place, a non-int and a bool (even the bool True, equal to 1)
    are never remembered, so they raise the same InvalidPlaceError on every
    call.
    """
    if type(p) is int and p in _PRIME_PLACES:
        return
    if p == INF:
        return
    if isinstance(p, int) and p >= PRIME_PLACE_LIMIT:
        raise InvalidPlaceError(f"place {p} is not below the primality bound "
                                f"{PRIME_PLACE_LIMIT}")
    if not isinstance(p, int) or not _is_prime(p):
        raise InvalidPlaceError(f"{p!r} is neither a prime nor {INF!r}")
    if type(p) is int:
        _PRIME_PLACES.add(p)


def _square_int(a) -> int:
    """An integer in the square class of the rational a: a itself when it is
    an int, else its numerator times its denominator (a times a square)."""
    if type(a) is int:
        return a
    if not isinstance(a, Fraction):
        a = Fraction(a)
    return a.numerator * a.denominator


def _split(x: int, p):
    """(v, u) with x = p^v * u: u the signed unit part of the nonzero
    integer x at the prime p."""
    u, v = abs(x), 0
    while not u % p:
        u //= p
        v += 1
    return v, (u if x > 0 else -u)


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a, b, p) -> int:
    """(a, b)_p: 1 iff z^2 = a x^2 + b y^2 has a nontrivial Q_p (or real) zero.

    Standard valuation / Legendre-symbol case analysis; depends only on
    the square classes of a and b, so each is first replaced by an integer
    of its class (``_square_int``; an argument that is neither int nor
    Fraction is read as a Fraction).
    """
    a, b = _square_int(a), _square_int(b)
    if not (a and b):
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if not (type(p) is int and p in _PRIME_PLACES):
        _check_place(p)
    return _symbol(a, b, p)


def _symbol(a, b, p) -> int:
    """(a, b)_p for nonzero ints a and b at a checked place p."""
    if p == INF:
        return -1 if (a < 0 and b < 0) else 1
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    if p == 2:
        # eps(u) eps(v) + alpha omega(v) + beta omega(u) mod 2, for the odd u
        # and v: eps(x) = (x - 1)/2 mod 2 is bit 1 of x, and omega(x) =
        # (x^2 - 1)/8 mod 2 is 1 iff x is 3 or 5 mod 8, bit 2 of x + 2
        e = (u & v) >> 1 ^ alpha & (v + 2) >> 2 ^ beta & (u + 2) >> 2
        return -1 if e & 1 else 1
    # (-1)^(alpha beta (p - 1)/2), (p - 1)/2 odd iff bit 1 of p is set
    s = -1 if alpha & beta & p >> 1 & 1 else 1
    if beta & 1:
        s *= _legendre(u, p)
    if alpha & 1:
        s *= _legendre(v, p)
    return s


def _square_class(a: int, p) -> int:
    """An integer in the square class of the nonzero integer a at the place
    p: its sign at INF; else p^(v_p(a) mod 2) times its unit part, reduced
    mod 8 at 2 and mod p at an odd p."""
    if p == INF:
        return -1 if a < 0 else 1
    v, u = _split(a, p)
    return p ** (v % 2) * (u % (8 if p == 2 else p))


def hasse_witt(q: QuadraticForm, p) -> int:
    """Product of (a_i, a_j)_p over i < j, as prod_j (a_1...a_(j-1), a_j)_p:
    the symbol is bimultiplicative (Serre, A Course in Arithmetic, III 1), so
    rank - 1 symbols, each prefix carried as its square-class representative.
    The place is checked up front (its primality test runs once per place
    per process, see ``_check_place``), so a rank-1 form, which takes no
    symbol, refuses a bad place too."""
    _check_place(p)
    d = [_square_int(a) for a in q.diag]
    out, prefix = 1, d[0] if d else 1
    for a in d[1:]:
        out *= _symbol(prefix, a, p)
        prefix = _square_class(prefix * a, p)
    return out


class BWTriple(namedtuple("BWTriple", "rank_parity disc_class hasse_minus")):
    """Rank parity, discriminant square class, places with Hasse-Witt -1."""

    __slots__ = ()


def bw_class(q: QuadraticForm, prime_bound: int) -> BWTriple:
    """The (rank mod 2, disc class, Hasse-minus places) invariant triple.

    Evaluates the real place, 2 and the primes dividing an entry, which
    ``prime_bound`` must cover (checked): at any other prime the entries
    are units and every (a_i, a_j)_p is 1 (Serre, A Course in Arithmetic,
    III Thm. 1).  The count of -1 places is checked even (reciprocity).
    The disc class is the discriminant's sign times its odd-exponent primes.
    """
    exponents = Counter()
    for a in q.diag:
        exponents.update(_factorize(abs(a.numerator)))
        exponents.update(_factorize(a.denominator))
    missing = [p for p in exponents if p > prime_bound]
    if missing:
        raise IncompleteScanError(
            f"prime_bound {prime_bound} misses primes {sorted(missing)}")
    minus = [p for p in sorted({2, *exponents}) if hasse_witt(q, p) == -1]
    if hasse_witt(q, INF) == -1:
        minus.append(INF)
    if len(minus) % 2:
        raise FailedCheckError(f"Hasse-Witt is -1 at an odd number of places {minus}")
    disc = prod(p for p, e in exponents.items() if e % 2)
    return BWTriple(q.rank % 2, -disc if discriminant(q) < 0 else disc, tuple(minus))


# -- orientation -------------------------------------------------------------

def is_orientable(q: QuadraticForm):
    """(flag, witness): the form admits a volume element of square one.

    True iff the rank n is even and (-1)^(n(n-1)/2) * a1...an is a rational
    square; the witness s then satisfies s^2 * (-1)^(n(n-1)/2) * a1...an = 1,
    which is exactly the normalization making (s e1...en)^2 = 1.
    """
    n = q.rank
    if n % 2:
        return False, None
    d = discriminant(q)
    if n % 4 == 2:
        d = -d
    if not is_square(d):
        return False, None
    return True, 1 / rational_sqrt(d)


# -- textual form ------------------------------------------------------------

def parse_form(s: str) -> QuadraticForm:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty form")
    return QuadraticForm(tuple(Fraction(p) for p in parts))
