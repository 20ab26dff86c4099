"""Closed-form cycle traces: an oracle for the module path with no tensor power.

For E of graded dimension (d0, d1), an l-cycle of l slots fixes exactly the
tensors x (x) ... (x) x of one basis vector x, with the Koszul sign
(-1)^((l - 1) deg x), in the block of parity l deg x.  So tr(sigma_mu |
block b) on E^(x)k is the coefficient of t^b in
prod_(l in mu) (d0 + (-1)^(l-1) d1 t^l) in Z[t]/(t^2 - 1) (Berele and
Regev, Adv. Math. 64 (1987)).  From these traces come the eigenmodule
dimensions of the k-cycle T (T^l has cycle type (k/g)^g, g = gcd(l, k)) and
the isotypic multiplicities, against characters computed by removing rim
hooks from the Young diagram, not from beta numbers as the package does.
Nothing here imports the package.
"""

from __future__ import annotations

import math


def partitions(k: int, top: int | None = None):
    """The partitions of k with parts at most ``top``, largest parts first."""
    top = k if top is None else top
    if k == 0:
        yield ()
    for p in range(min(k, top), 0, -1):
        for rest in partitions(k - p, p):
            yield (p,) + rest


def class_size(mu: tuple) -> int:
    z = math.prod(l ** mu.count(l) * math.factorial(mu.count(l)) for l in set(mu))
    return math.factorial(sum(mu)) // z


def block_traces(d0: int, d1: int, mu: tuple) -> tuple:
    """(tr(sigma_mu | block 0), tr(sigma_mu | block 1)): the coefficients of
    1 and t in prod_(l in mu) (d0 + (-1)^(l-1) d1 t^l), with t^2 = 1."""
    even, odd = 1, 0
    for l in mu:
        if l % 2:  # d0 + d1 t
            even, odd = d0 * even + d1 * odd, d0 * odd + d1 * even
        else:      # d0 - d1
            even, odd = (d0 - d1) * even, (d0 - d1) * odd
    return even, odd


def character(lam: tuple, mu: tuple) -> int:
    """chi_lam(mu) by Murnaghan-Nakayama: remove a rim hook of length mu[0]
    for every cell whose hook has that length, signed by its leg length."""
    if not mu:
        return 1 if not lam else 0
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0])] if lam else []
    total = 0
    for i, row in enumerate(lam):
        for j in range(row):
            leg = cols[j] - i - 1
            if row - j + leg != mu[0]:
                continue
            # rows i..i+leg lose the hook: each takes the next row less one,
            # and the last ends at column j
            rest = lam[:i] + tuple(lam[r + 1] - 1 for r in range(i, i + leg)) + (j,)
            rest = tuple(x for x in rest + lam[i + leg + 1:] if x)
            total += (-1) ** leg * character(rest, mu[1:])
    return total


def _ramanujan_sum(q: int, j: int) -> int:
    """sum of w^(aj) over the a mod q prime to q, w a primitive q-th root of 1."""
    total = 0
    for d in range(1, q + 1):
        if q % d == 0 and j % d == 0:
            m, mobius, p = q // d, 1, 2
            while p * p <= m:
                if m % p == 0:
                    m //= p
                    if m % p == 0:
                        mobius = 0
                    mobius = -mobius
                p += 1
            if m > 1:
                mobius = -mobius
            total += mobius * d
    return total


def eigen_dims(d0: int, d1: int, k: int) -> tuple:
    """((d0, d1) of the w^j-eigenmodule of T for j = 0..k-1):
    (1/k) sum_l w^(-jl) tr(T^l | block), grouping l by g = gcd(l, k), whose
    powers of w sum to a Ramanujan sum."""
    dims = []
    for j in range(k):
        pair = [0, 0]
        for g in range(1, k + 1):
            if k % g == 0:
                weight = _ramanujan_sum(k // g, j)
                for block, t in enumerate(block_traces(d0, d1, (k // g,) * g)):
                    pair[block] += weight * t
        assert pair[0] % k == 0 and pair[1] % k == 0
        dims.append((pair[0] // k, pair[1] // k))
    return tuple(dims)


def isotypic(d0: int, d1: int, k: int) -> dict:
    """{lam: (dim, chi_lam at the k-cycle, (h0, h1))}, h_b the multiplicity
    (1/k!) sum_mu |C_mu| chi_lam(mu) tr(sigma_mu | block b)."""
    classes = list(partitions(k))
    traces = {mu: block_traces(d0, d1, mu) for mu in classes}
    out = {}
    for lam in classes:
        sums = [sum(class_size(mu) * character(lam, mu) * traces[mu][b] for mu in classes)
                for b in (0, 1)]
        assert all(x % math.factorial(k) == 0 for x in sums)
        out[lam] = (character(lam, (1,) * k), character(lam, (k,)),
                    tuple(x // math.factorial(k) for x in sums))
    return out
