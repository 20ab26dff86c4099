"""The Bott classes by their first algorithms, kept for the tests as oracles.

``spinbott.lambda_bott`` takes the cyclotomic product orbit by orbit, each a
norm (a tower of Galois conjugates where phi(n) is a power of 2), on flat
``{p + (line key << 72): coeff}`` dicts, and sums each truncated-ring
geometric series by the binomial theorem.  These compute the same classes
the plain way: ``bott_cyclotomic_sequential`` multiplies G(-w^r) over
r = 1..k-1 one factor at a time on ``{power: coeff}`` dicts whose
coefficients are the lambda values themselves, each product reduced mod
Phi_k by clearing the powers k - 1 down to phi(k), and reads the constant
term; ``serre_sqrt_sequential`` is its twisted half product; and
``bott_virtual_horner`` sums 1 + m + ... + m^(k-1) by Horner's rule.
"""

from __future__ import annotations

from fractions import Fraction

from spinbott.lambda_bott import LambdaVector, LineExpr, SerreSqrt, _unpack
from spinbott.rings import TruncatedPoly, cyclotomic_polynomial


def _reduce(k: int, coeffs: dict) -> dict:
    """``coeffs`` mod Phi_k: powers folded mod k, then each power from k - 1
    down to phi(k) cleared by the lower terms of Phi_k, shifted."""
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    folded: dict = {}
    for p, c in coeffs.items():
        folded[p % k] = folded.get(p % k, 0) + c
    for top in range(k - 1, deg - 1, -1):
        c = folded.pop(top, 0)
        if c:
            for t, a in enumerate(phi[:-1]):
                if a:
                    p = top - deg + t
                    folded[p] = folded.get(p, 0) - c * a
    return {p: c for p, c in folded.items() if c}


def _product(k: int, left: dict, right: dict) -> dict:
    coeffs: dict = {}
    for i, a in left.items():
        for j, b in right.items():
            coeffs[i + j] = coeffs.get(i + j, 0) + a * b
    return _reduce(k, coeffs)


def eval_at_minus_zeta(v: LambdaVector, k: int, r: int, shift: int = 0) -> dict:
    """G(-w^r) w^shift = sum_j lam^j (-1)^j w^(rj + shift), as a
    ``{power mod k: coeff}`` dict with ring coefficients."""
    coeffs = {shift % k: 1}
    for j in range(1, v.rank + 1):
        val = v.lam(j)
        if val:
            p = (r * j + shift) % k
            coeffs[p] = coeffs.get(p, 0) + (val if j % 2 == 0 else -val)
    return {p: c for p, c in coeffs.items() if c}


def _descended(k: int, coeffs: dict):
    if coeffs.keys() - {0}:
        raise ValueError(f"the product is not Galois-invariant in order {k}")
    return coeffs.get(0, Fraction(0))


def _product_at_minus_zeta(v: LambdaVector, k: int, rs, shift: int = 0) -> dict:
    prod = {0: 1}
    for r in rs:
        prod = _product(k, prod, eval_at_minus_zeta(v, k, r, shift * r))
    return prod


def bott_cyclotomic_sequential(v: LambdaVector, k: int):
    """The product of G(-w^r) over r = 1..k-1, descended."""
    return _descended(k, _product_at_minus_zeta(v, k, range(1, k)))


def serre_sqrt_sequential(v: LambdaVector, k: int) -> SerreSqrt:
    """(-1)^(n(k-1)/4) prod_(r=1..(k-1)/2) G(-w^r) w^(-nr/2), descended; k odd,
    v self-dual of even rank n."""
    n = v.rank
    prod = _product_at_minus_zeta(v, k, range(1, (k - 1) // 2 + 1), -n // 2)
    ambiguous = (n * (k - 1)) % 4 != 0
    if not ambiguous and (n * (k - 1) // 4) % 2 == 1:
        prod = {p: -c for p, c in prod.items()}
    return SerreSqrt(_descended(k, prod), ambiguous)


def bott_virtual_horner(x: LineExpr, k: int, nvars: int | None = None,
                        images: dict | None = None) -> TruncatedPoly:
    """The Bott class of a virtual line combination in Q[x1..xr]/(xi^2), each
    line symbol mapped to a unit (default L_i -> 1 + x_i) and each factor
    1 + m + ... + m^(k-1) summed by Horner's rule."""
    r = nvars if nvars is not None else max(x.nsymbols, 1)
    if images is None:
        images = {i: TruncatedPoly.const(r, 1) + TruncatedPoly.var(r, i)
                  for i in range(1, r + 1)}
    result = TruncatedPoly.const(r, 1)
    for key, c in x.coeffs.items():
        m = TruncatedPoly.const(r, 1)
        for i, e in enumerate(_unpack(key), start=1):
            if e:
                m = m * images[i] ** e
        factor = TruncatedPoly.const(r, 1)
        for _ in range(k - 1):  # 1 + m (1 + m (1 + ...))
            factor = factor * m + 1
        result = result * factor ** int(c)
    return result
