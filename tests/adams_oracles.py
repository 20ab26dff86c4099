"""Adams operations on line expressions and lambda vectors, kept for the tests.

No command computes psi^k directly, so ``spinbott.lambda_bott`` has no Adams
operation; the lambda-ring identities the tests check (psi^k additive and
multiplicative, psi^k psi^l = psi^(kl), Newton's recursion against the
splitting principle) are stated through these two.
"""

from __future__ import annotations

from spinbott.lambda_bott import LambdaVector, LineExpr, _unpack


def adams_lines(x: LineExpr, k: int) -> LineExpr:
    """psi^k on line combinations: every monomial exponent scaled by k."""
    if k < 1:
        raise ValueError("k must be positive")
    return LineExpr({tuple(e * k for e in _unpack(key)): c for key, c in x.coeffs.items()})


def adams_newton(v: LambdaVector, k: int):
    """psi^k from lam^1..lam^k by the Newton recursion.

    psi^1 = lam^1 and, for k >= 2,
    psi^k = lam^1 psi^(k-1) - lam^2 psi^(k-2) + ... + (-1)^k lam^(k-1) psi^1
            + (-1)^(k-1) k lam^k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    psi: list = [None, v.lam(1)]
    for i in range(2, k + 1):
        acc = 0
        for j in range(1, i):
            term = v.lam(j)
            if term and psi[i - j]:
                acc = acc + (term * psi[i - j] if j % 2 == 1 else -(term * psi[i - j]))
        top = v.lam(i)
        if top:
            acc = acc + (i * top if i % 2 == 1 else -(i * top))
        psi.append(acc)
    return psi[k]
