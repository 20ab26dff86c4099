"""The dense module path, kept as an independent oracle for small tensor powers.

This is ``spinbott.modules`` as it stood before the sparse operators
replaced it: the base generators are read as dense matrices, every operator
on E^(x)k is a dense Fraction (or Cyclotomic) matrix, the projectors are
formed and multiplied in full, every trace is taken of a full product, and
bijectivity of the structure map is a rank.  Nothing here imports the
sparse code past the base module's constructors, and every dense helper
(lists of lists, ``to_dense``/``from_dense`` for a ``SparseOp``, the rank
``dense_clifford.rank``) lives in the test oracles, since the package has
no dense matrices, so a bug in that code cannot be shared with its
oracle.  It costs k!·dim^3 and is meant for dim <= 64
only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from builders import cyclotomic_const, zeta
from dense_clifford import rank
from spinbott.clifford import CliffordElement, volume_element
from spinbott.linalg import SparseOp
from spinbott.modules import (GradedModule, PresentationError, VirtualCyclotomicModule,
                              partitions, spinor_rep, sym_character, twist_rep)
from spinbott.quadforms import scale
from spinbott.rings import Cyclotomic


def zeros(n, m=None):
    m = n if m is None else m
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n):
    return diag([1] * n)


def diag(entries):
    n = len(entries)
    out = zeros(n)
    for i, e in enumerate(entries):
        out[i][i] = Fraction(e) if isinstance(e, int) else e
    return out


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def to_dense(op: SparseOp):
    out = zeros(len(op.cols))
    for j, col in enumerate(op.cols):
        for i, x in col.items():
            out[i][j] = Fraction(x)
    return out


def from_dense(a) -> SparseOp:
    """The columns of a, integral entries as ints as ``SparseOp`` stores them."""
    return SparseOp({i: x.numerator if x.denominator == 1 else x
                     for i, x in enumerate(col) if x} for col in zip(*a))


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    k, m = len(b), len(b[0])
    bt = [[b[t][j] for t in range(k)] for j in range(m)]
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for t in range(1, k):
                if row[t] and col[t]:
                    acc = acc + row[t] * col[t]
            out_row.append(acc)
        out.append(out_row)
    return out


def masked_trace(a, keep) -> Fraction:
    """Trace over the rows/columns selected by the boolean list ``keep``."""
    acc = Fraction(0)
    for i, flag in enumerate(keep):
        if flag:
            acc = acc + a[i][i]
    return acc


def clifford_action_matrix(elem, gen_mats, dim):
    """Image of a Clifford element under e_i -> gen_mats[i-1]."""
    acc = zeros(dim)
    for mask, coeff in elem.coeffs.items():
        m = identity(dim)
        i = 0
        mm = mask
        while mm:
            if mm & 1:
                m = mat_mul(m, gen_mats[i])
            mm >>= 1
            i += 1
        acc = mat_add(acc, mat_scale(m, coeff))
    return acc


def is_end_iso(module: GradedModule) -> bool:
    """Blade images span the full endomorphism algebra (bijectivity), by rank."""
    n = module.form.rank
    d = module.dim
    if (1 << n) != d * d:
        return False
    gens = [to_dense(gen) for gen in module.gens]
    rows = []
    for mask in range(1 << n):
        mat = clifford_action_matrix(CliffordElement(module.form, {mask: 1}), gens, d)
        rows.append([mat[r][c] for r in range(d) for c in range(d)])
    return rank(rows) == d * d


def cycle_type(perm: tuple) -> tuple:
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def class_word(mu: tuple) -> list:
    """Adjacent-swap word of a permutation of cycle type mu.

    tau_s tau_(s+1) ... tau_(s+l-2) is an l-cycle on the slots s..s+l-1,
    one such word per part on consecutive slots.
    """
    word, start = [], 0
    for part in mu:
        word.extend(range(start, start + part - 1))
        start += part
    return word


def word_action(module: GradedModule, k: int, word) -> dict:
    """The graded action of tau_(word[0]) ... tau_(word[-1]) on E^(x)k, as
    {basis tuple: (sign, image tuple)}: the swaps act on the tuple right to
    left, each signed -1 when it exchanges two odd factors."""
    g = module.grading
    out = {}
    for t in itertools.product(range(module.dim), repeat=k):
        sign, u = 1, list(t)
        for c in reversed(word):
            if g[u[c]] and g[u[c + 1]]:
                sign = -sign
            u[c], u[c + 1] = u[c + 1], u[c]
        out[t] = (sign, tuple(u))
    return out


def adjacent_word(perm: tuple) -> list:
    # bubble-sort word; composing the adjacents in word order realizes perm
    arr = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for j in range(len(arr) - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                word.append(j)
                changed = True
    return word


@dataclass
class TensorPower:
    """E^(x)k with diagonal Clifford generators and graded transpositions."""

    base: GradedModule
    k: int
    grading: tuple
    diag_gens: tuple
    copy_gens: tuple
    adjacents: tuple

    @property
    def dim(self) -> int:
        return len(self.grading)

    def perm_matrix(self, word):
        out = identity(self.dim)
        for c in word:
            out = mat_mul(out, self.adjacents[c])
        return out

    def cycle_matrix(self):
        return self.perm_matrix(range(self.k - 1))

    def u_matrix(self):
        u = volume_element(scale(self.base.form, self.k))
        return clifford_action_matrix(u, list(self.diag_gens), self.dim)


def tensor_power(module: GradedModule, k: int) -> TensorPower:
    d = module.dim
    dim = d ** k
    n = module.form.rank
    basis = list(itertools.product(range(d), repeat=k))
    index = {t: i for i, t in enumerate(basis)}
    g = module.grading
    grading = tuple(sum(g[i] for i in t) % 2 for t in basis)

    def copy_generator(c, j):
        gen = to_dense(module.gens[j])
        out = zeros(dim)
        for t in basis:
            sign = Fraction(-1) ** sum(g[t[a]] for a in range(c))
            col = index[t]
            for r in range(d):
                x = gen[r][t[c]]
                if x:
                    u = t[:c] + (r,) + t[c + 1:]
                    out[index[u]][col] = x * sign
        return out

    copy_gens = tuple(tuple(copy_generator(c, j) for j in range(n)) for c in range(k))
    diag_gens = []
    for j in range(n):
        acc = copy_gens[0][j]
        for c in range(1, k):
            acc = mat_add(acc, copy_gens[c][j])
        diag_gens.append(acc)

    def adjacent(c):
        out = zeros(dim)
        for t in basis:
            u = t[:c] + (t[c + 1], t[c]) + t[c + 2:]
            out[index[u]][index[t]] = Fraction(-1) ** (g[t[c]] * g[t[c + 1]])
        return out

    adjacents = tuple(adjacent(c) for c in range(k - 1))
    tp = TensorPower(module, k, grading, tuple(diag_gens), copy_gens, adjacents)

    ident = identity(dim)
    for j in range(n):
        if not mat_eq(mat_mul(diag_gens[j], diag_gens[j]),
                             mat_scale(ident, k * module.form.diag[j])):
            raise PresentationError("diagonal generator does not square to k q")
    for i in range(n):
        for j in range(i + 1, n):
            anti = mat_add(mat_mul(diag_gens[i], diag_gens[j]),
                           mat_mul(diag_gens[j], diag_gens[i]))
            if any(any(x for x in row) for row in anti):
                raise PresentationError("diagonal generators do not anticommute")
    for s in adjacents:
        if not mat_eq(mat_mul(s, s), ident):
            raise PresentationError("graded swap does not square to one")
    for c in range(k - 2):
        lhs = mat_mul(mat_mul(adjacents[c], adjacents[c + 1]), adjacents[c])
        rhs = mat_mul(mat_mul(adjacents[c + 1], adjacents[c]), adjacents[c + 1])
        if not mat_eq(lhs, rhs):
            raise PresentationError("graded swaps fail the braid relation")
    for c1 in range(k - 1):
        for c2 in range(c1 + 2, k - 1):
            if not mat_eq(mat_mul(adjacents[c1], adjacents[c2]),
                                 mat_mul(adjacents[c2], adjacents[c1])):
                raise PresentationError("distant graded swaps do not commute")
    for s in adjacents:
        for gmat in diag_gens:
            if not mat_eq(mat_mul(s, gmat), mat_mul(gmat, s)):
                raise PresentationError("swaps do not commute with the diagonal action")
    return tp


def _cyc_scaled(mat, scalar: Cyclotomic):
    return [[scalar * x for x in row] for row in mat]


def _cyc_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _cyc_mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _as_integer(x) -> int:
    if isinstance(x, Cyclotomic):
        x = x.descend()
    x = Fraction(x)
    if x.denominator != 1:
        raise PresentationError(f"expected an integer, got {x}")
    return x.numerator


def cycle_eigen_projectors(tp: TensorPower):
    k = tp.k
    dim = tp.dim
    t_pows = [identity(dim)]
    cyc = tp.cycle_matrix()
    for _ in range(k - 1):
        t_pows.append(mat_mul(t_pows[-1], cyc))
    if not mat_eq(mat_mul(t_pows[-1], cyc), identity(dim)):
        raise PresentationError("cycle operator order is not k")

    zero = cyclotomic_const(k, 0)
    projectors = []
    for j in range(k):
        acc = [[zero] * dim for _ in range(dim)]
        for l in range(k):
            scalar = zeta(k, (-j * l) % k) * Fraction(1, k)
            acc = _cyc_add(acc, _cyc_scaled(t_pows[l], scalar))
        projectors.append(acc)

    for i, p in enumerate(projectors):
        if not _cyc_mat_eq(mat_mul(p, p), p):
            raise PresentationError("eigenprojector is not idempotent")
        for j in range(i + 1, k):
            prod = mat_mul(p, projectors[j])
            if any(any(bool(x) for x in row) for row in prod):
                raise PresentationError("eigenprojectors are not orthogonal")
    total = projectors[0]
    for p in projectors[1:]:
        total = _cyc_add(total, p)
    if not _cyc_mat_eq(total, [[cyclotomic_const(k, 1 if r == c else 0)
                                for c in range(dim)] for r in range(dim)]):
        raise PresentationError("eigenprojectors do not resolve the identity")
    return projectors


def adams_bar_of(tp: TensorPower) -> VirtualCyclotomicModule:
    projectors = cycle_eigen_projectors(tp)
    keep0 = [g == 0 for g in tp.grading]
    keep1 = [g == 1 for g in tp.grading]
    dims = []
    for p in projectors:
        d0 = _as_integer(masked_trace(p, keep0))
        d1 = _as_integer(masked_trace(p, keep1))
        if d0 < 0 or d1 < 0:
            raise PresentationError("negative eigenmodule dimension")
        dims.append((d0, d1))
    vcm = VirtualCyclotomicModule(tp.k, tuple(dims))
    if vcm.total() != tp.dim:
        raise PresentationError("eigenmodule dimensions do not sum to the total")
    return vcm


def isotypic_projectors(tp: TensorPower):
    k = tp.k
    perms = list(itertools.permutations(range(k)))
    mats = {perm: tp.perm_matrix(adjacent_word(perm)) for perm in perms}
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    out = []
    for lam in partitions(k):
        dim_pi = sym_character(lam, (1,) * k)
        chi_c = sym_character(lam, (k,))
        acc = zeros(tp.dim)
        for perm in perms:
            chi = sym_character(lam, cycle_type(perm))
            if chi:
                acc = mat_add(acc, mat_scale(mats[perm], Fraction(chi)))
        proj = mat_scale(acc, Fraction(dim_pi, fact))
        if not mat_eq(mat_mul(proj, proj), proj):
            raise PresentationError("isotypic projector is not idempotent")
        out.append((lam, dim_pi, chi_c, proj))
    return out


def adams_character_psi(tp: TensorPower) -> tuple:
    keep0 = [g == 0 for g in tp.grading]
    keep1 = [g == 1 for g in tp.grading]
    psi0 = psi1 = 0
    check0 = check1 = 0
    for lam, dim_pi, chi_c, proj in isotypic_projectors(tp):
        h0 = _as_integer(masked_trace(proj, keep0) / dim_pi)
        h1 = _as_integer(masked_trace(proj, keep1) / dim_pi)
        psi0 += chi_c * h0
        psi1 += chi_c * h1
        check0 += dim_pi * h0
        check1 += dim_pi * h1
    if check0 != sum(keep0) or check1 != sum(keep1):
        raise PresentationError("isotypic decomposition does not preserve dimension")
    return psi0, psi1


def morita_virtual_rank(grading, u_matrix, presentation: GradedModule,
                        projector, isotypic_dim: int) -> int:
    e0, e1 = presentation.dims
    dim = len(grading)
    half = Fraction(1, 2)
    ident = identity(dim)
    q_plus = mat_scale(mat_add(ident, u_matrix), half)
    q_minus = mat_scale(mat_sub(ident, u_matrix), half)
    a = mat_mul(projector, q_plus)
    b = mat_mul(projector, q_minus)
    keep0 = [g == 0 for g in grading]
    keep1 = [g == 1 for g in grading]
    t0p = masked_trace(a, keep0) / isotypic_dim
    t0m = masked_trace(b, keep0) / isotypic_dim
    t1p = masked_trace(a, keep1) / isotypic_dim
    t1m = masked_trace(b, keep1) / isotypic_dim

    def ratio(x, y):
        if y == 0 or x % y:
            raise PresentationError("module dimension is not a multiple of dim E")
        return x // y

    w0 = ratio(_as_integer(t0p), e0)
    w1 = ratio(_as_integer(t1p), e0)
    if w0 != ratio(_as_integer(t1m), e1) or w1 != ratio(_as_integer(t0m), e1):
        raise PresentationError("graded blocks disagree with the presentation")
    return w0 - w1


def hermitian_bott_of(module: GradedModule, k: int) -> Fraction:
    return hermitian_bott_of_power(tensor_power(module, k))


def hermitian_bott_of_power(tp: TensorPower) -> Fraction:
    twist = twist_rep(tp.base, tp.k)
    if not is_end_iso(twist):
        raise PresentationError("twisted structure map is not bijective")
    u_n = tp.u_matrix()
    rho = 0
    for lam, dim_pi, chi_c, proj in isotypic_projectors(tp):
        if chi_c == 0:
            continue
        rho += chi_c * morita_virtual_rank(tp.grading, u_n, twist, proj, dim_pi)
    return Fraction(rho)


def adams_module_report(m: int, k: int) -> dict:
    """The dense computation of ``spinbott.modules.adams_module_report``.

    The tensor power is built once here and shared by the three stages.
    """
    tp = tensor_power(spinor_rep(m), k)
    vcm = adams_bar_of(tp)
    psi_bar = [_as_integer(vcm.value(block)) for block in (0, 1)]
    psi_char = adams_character_psi(tp)
    rho = hermitian_bott_of_power(tp)
    return {
        "m": m,
        "k": k,
        "eigen_dims": [list(p) for p in vcm.graded_dims],
        "psi_bar": psi_bar,
        "psi_char": list(psi_char),
        "rho_k": str(rho),
        "expected": str(k ** m),
    }
