"""Explicit graded Clifford modules and the module-level Adams machinery.

The hyperbolic Clifford algebra acts on the exterior algebra by creation
and annihilation operators; twisting the top-right blocks by k turns the
same space into a module over the k-scaled form.  Every operator, from
the base generators on, is a sparse ``linalg.SparseOp``, and the blade
images of the bijectivity check are built from their prefixes, one
compose each.  Tensor powers carry the sign-twisted symmetric-group
action (signs always derived from the grading operators, never from
tables), from which two Adams operations are computed and compared: the
eigenmodule decomposition of the cycle operator over a cyclotomic
extension, and the character-weighted isotypic decomposition.  The Morita
reduction yields the module-level Bott class as a sum of integers w0 - w1,
from traces against the integer product of the diagonal generators, scaled
once by the orientation witness.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from fractions import Fraction

from .linalg import SparseOp
from .clifford import _blade_product, _squares, volume_element
from .config import FailedCheckError, check_cap
from .quadforms import QuadraticForm, hyperbolic, scale
from .rings import Cyclotomic


class PresentationError(FailedCheckError):
    """Module dimensions are inconsistent with the supplied presentation."""


class GradedModule(namedtuple("GradedModule", "form grading gens")):
    """A graded space E with odd generators for a diagonal form.

    ``grading[i]`` is the degree (0 or 1) of the i-th basis vector; each
    generator is a dim x dim ``SparseOp`` that exchanges the two blocks and
    squares to its diagonal coefficient.  The volume element must act as +1
    on the even block and -1 on the odd block (the normalized choice of E).
    All of this is checked when the module is built.
    """

    __slots__ = ()

    def __new__(cls, form, grading, gens):
        self = super().__new__(cls, form, grading, gens)
        if len(gens) != form.rank:
            raise PresentationError("need one generator per form entry")
        if self.dims[0] == 0 or self.dims[1] == 0:
            raise PresentationError("both graded blocks must be nonzero")
        g, dim = grading, self.dim
        for i, gen in enumerate(gens):
            if len(gen.cols) != dim or any(not 0 <= r < dim for col in gen.cols for r in col):
                raise PresentationError(f"generator {i + 1} is not a {dim} x {dim} operator")
            if any(g[r] == g[c] for c, col in enumerate(gen.cols) for r in col):
                raise PresentationError(f"generator {i + 1} is not odd")
        failure = _relation_failure(gens, form.diag, dim)
        if failure:
            raise PresentationError(failure)
        if self.volume_op() != self.grading_op():
            raise PresentationError("volume element is not diag(1,-1) on E0+E1")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @property
    def dim(self) -> int:
        return len(self.grading)

    @property
    def dims(self) -> tuple:
        return (self.grading.count(0), self.grading.count(1))

    def grading_op(self) -> SparseOp:
        return SparseOp.monomial(list(range(self.dim)), [-1 if g else 1 for g in self.grading])

    def volume_op(self) -> SparseOp:
        """s g_1 ... g_n for the orientation witness s."""
        product, s = volume_product(self.form, self.gens, self.dim)
        return product.scale(s)


def volume_product(form: QuadraticForm, gens, dim) -> tuple:
    """(g_1 o ... o g_n, s): the product of the generators, on their own
    entries (ints for integer generators), and the orientation witness s of
    ``volume_element(form)``; s times the product is the volume operator.
    The product starts at g_1; no generators (a rank-0 form) give the
    identity."""
    (s,) = volume_element(form).coeffs.values()
    product = functools.reduce(SparseOp.compose, gens) if gens else SparseOp.identity(dim)
    return product, s


def _relation_failure(gens, diag, dim) -> str | None:
    """The first Clifford relation g_j^2 = q_j, g_i g_j = -g_j g_i that
    ``gens`` break for the form ``diag``, or None when all hold."""
    ident = SparseOp.identity(dim)
    for j, (gen, q) in enumerate(zip(gens, diag)):
        if gen.compose(gen) != ident.scale(q):
            return f"generator {j + 1} does not square to q_{j + 1}"
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i].compose(gens[j]) != gens[j].compose(gens[i]).scale(-1):
                return f"generators {i + 1},{j + 1} do not anticommute"
    return None


def spinor_rep(m: int) -> GradedModule:
    """C(H(Q^m)) acting on the exterior algebra of Q^m.

    Basis vectors are subsets of the m modes; the +1 generator of the
    i-th hyperbolic pair acts as creation + annihilation, the -1 generator
    as creation - annihilation.  Either way column s has the one entry
    +-1 in row s ^ 2^i, signed by the modes below i that s occupies.
    """
    if m < 1:
        raise ValueError("need at least one hyperbolic pair")
    dim = 1 << m
    check_cap("max_tensor", dim, "spinor dimension")
    unit = _squares((1,) * m)

    def generator(i, minus):
        bit = 1 << i
        signs = (_blade_product(bit, s, unit) for s in range(dim))
        return SparseOp.monomial([s ^ bit for s in range(dim)],
                                 [-x if minus and s & bit else x for s, x in enumerate(signs)])

    gens = tuple(generator(i, minus) for i in range(m) for minus in (False, True))
    module = GradedModule(hyperbolic(m),
                          tuple(s.bit_count() % 2 for s in range(dim)), gens)
    if not is_end_iso(module):
        raise PresentationError("structure map is not bijective")
    return module


def is_end_iso(module: GradedModule) -> bool:
    """The blade images B_S of the generators form a basis of End(E).

    True exactly when 2^n = d^2 (d = dim E) and tr(B_U) = 0 for every blade U
    other than the empty one.  This is sound: every GradedModule satisfies the
    Clifford relations, checked when it is built, and under them
    B_S B_T = c B_(S xor T) with c = +-prod_(i in S and T) q_i, never zero, so
    the trace pairing tr(B_S B_T) = c tr(B_(S xor T)) vanishes for S != T and
    is c d for S = T.  A diagonal pairing with nonzero diagonal makes the 2^n
    images independent, hence a basis of the d^2-dimensional End(E).  (For
    even n the traces vanish under the relations anyway: C(V) is central
    simple; Lam, Introduction to Quadratic Forms over Fields, ch. V.)  The
    images are built depth first, B_(S+i) = B_S o g_i for i above every index
    in S: one compose each, n + 1 images held at once.
    """
    n, d = module.form.rank, module.dim
    if (1 << n) != d * d:
        return False
    everything = [True] * d

    def traceless_from(blade, low):
        # B_S o g_i for each i >= low, and every blade extending it, is traceless
        for i in range(low, n):
            ext = blade.compose(module.gens[i])
            if ext.trace(everything) or not traceless_from(ext, i + 1):
                return False
        return True

    return traceless_from(SparseOp.identity(d), 0)


def twist_rep(module: GradedModule, k: int) -> GradedModule:
    """Scale the even<-odd blocks by k: a module over the k-scaled form,
    with generators D_k o g_i, D_k = k on E0 and 1 on E1."""
    if k < 1:
        raise ValueError("k must be positive")
    d_k = SparseOp.monomial(list(range(module.dim)), [1 if g else k for g in module.grading])
    return GradedModule(scale(module.form, k), module.grading,
                        tuple(d_k.compose(gen) for gen in module.gens))


def opposite_module(module: GradedModule) -> GradedModule:
    """Module over the negated form via multiplication by the volume action.

    The generators are eps o g_i, eps the grading operator; their volume
    operator is (-1)^(n/2) eps, and its signs give the grading, E's or its
    complement, on whose even block the new volume element is again +1.
    """
    eps, d, form = module.grading_op(), module.dim, scale(module.form, -1)
    gens = tuple(eps.compose(g) for g in module.gens)
    product, s = volume_product(form, gens, d)
    if product.perm != list(range(d)) or any(s * x not in (1, -1) for x in product.sign):
        raise PresentationError("volume element of the opposite module is not diagonal")
    return GradedModule(form, tuple(0 if s * x == 1 else 1 for x in product.sign), gens)


# -- tensor powers with the sign-twisted symmetric-group action ---------------

class TensorPower(namedtuple("TensorPower", "base k gradings")):
    """E^(x)k as a graded space with the sign-twisted S_k action.

    Basis vectors are numbered in base d = dim E, slot 0 the leading digit;
    the swaps and class representatives are signed permutations built from
    the digits.  The diagonal Clifford action is ``diagonal_generators``.
    ``gradings[m][h]`` is the degree of basis vector h of E^(x)m, m = 0..k.
    """

    __slots__ = ()

    @property
    def grading(self) -> list:
        return self.gradings[-1]

    @property
    def dim(self) -> int:
        return len(self.grading)

    def cycles(self, parts) -> SparseOp:
        """The graded action cycling each run of consecutive slots, of the
        lengths ``parts``, as tau_s ... tau_(s+l-2) does on the slots
        s..s+l-1: on E^(x)l, head*d + y goes to y*d^(l-1) + head with the
        Koszul sign (-1)^(deg y deg head).  The runs have degree 0, so the
        operator is their Kronecker product.
        """
        d, g = self.base.dim, self.base.grading
        perm, sign = [0], [1]
        for l in parts:
            high, head_deg = d ** (l - 1), self.gradings[l - 1]
            run = [(h % d * high + h // d, -1 if g[h % d] & head_deg[h // d] else 1)
                   for h in range(high * d)]
            n = len(run)
            perm = [a * n + b for a in perm for b, _ in run]
            sign = [x * y for x in sign for _, y in run]
        return SparseOp.monomial(perm, sign)


def tensor_power(module: GradedModule, k: int) -> TensorPower:
    """E^(x)k: the gradings of E^(x)0 .. E^(x)k, under the max_tensor cap."""
    if k < 1:
        raise ValueError("k must be positive")
    check_cap("max_tensor", module.dim ** k, "tensor dimension")
    gradings = [[0]]
    for _ in range(k):
        gradings.append([p ^ x for p in gradings[-1] for x in module.grading])
    return TensorPower(module, k, tuple(gradings))


def diagonal_generators(tp: TensorPower) -> tuple:
    """Delta_j, the sum over slots a of the copy of g_j on slot a, which acts
    on digit a signed by the degree of the slots before it; the copies and
    the adjacent swaps pass ``_check_action`` first."""
    d, k, dim = tp.base.dim, tp.k, tp.dim

    def copies(a):
        w = d ** (k - 1 - a)
        digits = [i // w % d for i in range(dim)]
        flips = [tp.gradings[a][i // (w * d)] for i in range(dim)]
        for gen in tp.base.gens:
            if gen.perm is None:
                yield SparseOp({i + (r - x) * w: -y if f else y
                                for r, y in gen.cols[x].items()}
                               for i, (x, f) in enumerate(zip(digits, flips)))
            else:
                p, s = gen.perm, gen.sign
                yield SparseOp.monomial([i + (p[x] - x) * w for i, x in enumerate(digits)],
                                        [-s[x] if f else s[x] for x, f in zip(digits, flips)])

    copy_gens = tuple(zip(*(tuple(copies(a)) for a in range(k))))
    swaps = tuple(tp.cycles((1,) * c + (2,) + (1,) * (k - c - 2)) for c in range(k - 1))
    _check_action(tp, swaps, copy_gens)
    return tuple(_sum_of_copies(cs, dim) for cs in copy_gens)


def _check_action(tp: TensorPower, swaps, copy_gens) -> None:
    """Raise PresentationError unless the twisted-action identities hold.

    The graded swaps square to one, satisfy the braid relation, commute at
    distance, and conjugate the copies (``copy_gens[j][a]``: g_j on slot a)
    as they permute slots, so they commute with each diagonal generator (the
    sum of its copies) and carry any two slots to slots 0 and 1.  The copies
    there satisfy the Clifford relations, so all copies do, and the diagonal
    generators square to k q_j and anticommute.
    """
    k = tp.k
    ident = SparseOp.identity(tp.dim)
    if any(s.compose(s) != ident for s in swaps):
        raise PresentationError("graded swap does not square to one")
    for c in range(k - 2):
        a, b = swaps[c], swaps[c + 1]
        if a.compose(b).compose(a) != b.compose(a).compose(b):
            raise PresentationError("graded swaps fail the braid relation")
    for c1 in range(k - 1):
        for c2 in range(c1 + 2, k - 1):
            if swaps[c1].compose(swaps[c2]) != swaps[c2].compose(swaps[c1]):
                raise PresentationError("distant graded swaps do not commute")
    for c, s in enumerate(swaps):
        for copies in copy_gens:
            for a, copy in enumerate(copies):
                moved = copies[c + 1 if a == c else c if a == c + 1 else a]
                if s.compose(copy) != moved.compose(s):
                    raise PresentationError("swaps do not commute with the diagonal action")
    slots = min(k, 2)
    failure = _relation_failure([cs[a] for a in range(slots) for cs in copy_gens],
                                tp.base.form.diag * slots, tp.dim)
    if failure:
        raise PresentationError(f"copy {failure}")


def _sum_of_copies(copies, dim: int) -> SparseOp:
    """The sum of operators with no nonzero in a common place, filled once
    from their entries.  The k copies of a generator are such operators,
    because each moves one slot and so reaches rows no other copy does;
    PresentationError if two of them share a place."""
    cols = [{} for _ in range(dim)]
    for copy in copies:
        for c, r, x in copy.entries():
            if r in cols[c]:
                raise PresentationError("two copies of a generator share an entry")
            cols[c][r] = x
    return SparseOp(cols)


# -- symmetric-group characters (Murnaghan-Nakayama) ---------------------------

def partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


@functools.lru_cache(maxsize=None)
def sym_character(lam: tuple, mu: tuple) -> int:
    """chi_lam(mu) by recursive border-strip removal on beta numbers."""
    if not mu:
        return 1 if not lam else 0
    t, rest = mu[0], mu[1:]
    r = len(lam)
    beta = [lam[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        mlen = len(newbeta)
        newlam = tuple(x for x in
                       (newbeta[i] - (mlen - 1 - i) for i in range(mlen)) if x > 0)
        total += (-1) ** height * sym_character(newlam, rest)
    return total


def _class_size(mu: tuple) -> int:
    """|C_mu| = k! / prod_i i^(m_i) m_i!, m_i the number of parts equal to i."""
    z = 1
    for part in set(mu):
        z *= part ** mu.count(part) * math.factorial(mu.count(part))
    return math.factorial(sum(mu)) // z


def _block_traces(ops, grading, right=None) -> list:
    """[tr(op o right | block 0), tr(op o right | block 1)] for each operator."""
    keeps = [[g == b for g in grading] for b in (0, 1)]
    return [[op.trace(keep, right) for keep in keeps] for op in ops]


def _weigh(weights, denominator, traces) -> list:
    """[sum_i c_i tr(A_i | block) / denominator for blocks 0, 1]: the integer
    numerators c_i are summed against the traces, then divided once."""
    return [Fraction(sum(c * t[block] for c, t in zip(weights, traces) if c), denominator)
            for block in (0, 1)]


# -- Adams via eigenmodules of the cycle --------------------------------------

class VirtualCyclotomicModule(namedtuple("VirtualCyclotomicModule", "order graded_dims")):
    """Graded dimensions of the cycle eigenmodules, one pair per eigenvalue:
    ``graded_dims`` is ((d0, d1), ...) for the eigenvalues w^0 .. w^(k-1)."""

    __slots__ = ()

    def total(self) -> int:
        return sum(d0 + d1 for d0, d1 in self.graded_dims)

    def value(self, block: int) -> Cyclotomic:
        """sum_j dims[j][block] w^j as a cyclotomic integer."""
        return Cyclotomic(self.order,
                          {j: pair[block] for j, pair in enumerate(self.graded_dims)})


def _as_integer(x) -> int:
    if isinstance(x, Cyclotomic):
        x = x.descend()
    x = Fraction(x)
    if x.denominator != 1:
        raise PresentationError(f"expected an integer, got {x}")
    return x.numerator


def cycle_eigen_projectors(tp: TensorPower):
    """Eigenprojectors p_j = (1/k) sum_l w^(-jl) T^l of the cycle operator T.

    Returns the powers T^0..T^(k-1) and, per eigenvalue w^j, the exponents
    -jl mod k of k p_j over them, an element of the group algebra of
    <T> = Z/k over Z[w].  T^k = 1 is checked on the operator, so T
    satisfies every relation of that group algebra; idempotence, mutual
    orthogonality and the resolution of 1 are checked there.
    """
    k = tp.k
    cyc = tp.cycles((k,))
    t_pows = [SparseOp.identity(tp.dim)]
    for _ in range(k - 1):
        t_pows.append(t_pows[-1].compose(cyc))
    if t_pows[-1].compose(cyc) != t_pows[0]:
        raise PresentationError("cycle operator order is not k")

    exponents = [[-j * l % k for l in range(k)] for j in range(k)]
    _check_eigen_exponents(exponents)
    return t_pows, exponents


def _check_eigen_exponents(exponents) -> None:
    """Raise PresentationError unless the k p_j = sum_l w^(exponents[j][l]) T^l
    satisfy (k p_i)(k p_j) = delta_ij k (k p_j) and sum_j k p_j = k.  Each
    coefficient of T^l is a count of powers of w, reduced mod Phi_k once."""
    k = len(exponents)

    def product(a, b):
        counts = [Counter() for _ in range(k)]
        for x, ax in enumerate(a):
            for y, by in enumerate(b):
                counts[(x + y) % k][(ax + by) % k] += 1
        return [Cyclotomic(k, c) for c in counts]

    for i, p in enumerate(exponents):
        if product(p, p) != [Cyclotomic(k, {e: k}) for e in p]:
            raise PresentationError("eigenprojector is not idempotent")
        for q in exponents[i + 1:]:
            if any(product(p, q)):
                raise PresentationError("eigenprojectors are not orthogonal")
    if [Cyclotomic(k, Counter(column)) for column in zip(*exponents)] != [k] + [0] * (k - 1):
        raise PresentationError("eigenprojectors do not resolve the identity")


def adams_bar(module: GradedModule, k: int) -> VirtualCyclotomicModule:
    """Graded eigenmodule dimensions of the cycle operator on E^(x)k, from
    the block traces tr(T^l | block), each taken once."""
    tp = tensor_power(module, k)
    t_pows, exponents = cycle_eigen_projectors(tp)
    traces = _block_traces(t_pows, tp.grading)
    dims = []
    for p in exponents:
        # tr(k p_j | block) = sum_l w^(p[l]) tr(T^l | block), summed per power of w
        counts = (Counter(), Counter())
        for e, pair in zip(p, traces):
            for trace, count in zip(pair, counts):
                count[e] += trace
        d0, d1 = (_as_integer(Cyclotomic(k, count) * Fraction(1, k)) for count in counts)
        if d0 < 0 or d1 < 0:
            raise PresentationError("negative eigenmodule dimension")
        dims.append((d0, d1))
    vcm = VirtualCyclotomicModule(tp.k, tuple(dims))
    if vcm.total() != tp.dim:
        raise PresentationError("eigenmodule dimensions do not sum to the total")
    return vcm


# -- Adams via characters of the symmetric group -------------------------------

# graded_mult: the multiplicity of the irreducible in each block
IsotypicPiece = namedtuple("IsotypicPiece", "partition dim char_at_cycle graded_mult")
# psi_graded: (psi on block 0, psi on block 1)
AdamsCharacter = namedtuple("AdamsCharacter", "k pieces psi_graded")


def isotypic_projectors(tp: TensorPower):
    """Class representatives and, per irreducible, (partition, dim, chi at
    the k-cycle, integer weights of its central idempotent over k! dim).

    The idempotent (dim/k!) sum_g chi(g) g is kept as a class function on
    the representatives sigma_mu, which cycle runs of slots of the lengths
    mu: divided by dim, its block traces, also against operators commuting
    with the action, are those of the class sum with integer weights
    |C_mu| chi(mu) over k!, so one trace of each sigma_mu serves every lambda.
    """
    classes, sizes, table = _character_table(tp.k)
    reps = [tp.cycles(mu) for mu in classes]
    return reps, [(lam, row[-1], row[0], [n * chi for n, chi in zip(sizes, row)])
                  for lam, row in zip(classes, table)]


@functools.lru_cache(maxsize=None)
def _character_table(k: int):
    """The partitions of k (the k-cycle first, the identity last), their
    class sizes and the integer character table, rows indexed by lambda;
    the isotypic idempotents are checked once per k, as the row
    orthogonality sum_mu |C_mu| chi_lam(mu) chi_lam'(mu) = k! delta."""
    classes = tuple(partitions(k))
    sizes = tuple(_class_size(mu) for mu in classes)
    table = tuple(tuple(sym_character(lam, mu) for mu in classes) for lam in classes)
    fact = math.factorial(k)
    for i, row in enumerate(table):
        for j, row2 in enumerate(table[:i + 1]):
            if sum(n * a * b for n, a, b in zip(sizes, row, row2)) != (fact if i == j else 0):
                raise PresentationError("isotypic idempotents are not orthogonal")
    return classes, sizes, table


def adams_character(module: GradedModule, k: int) -> AdamsCharacter:
    """Character-weighted isotypic decomposition of E^(x)k, per graded block."""
    tp = tensor_power(module, k)
    reps, isotypic = isotypic_projectors(tp)
    traces = _block_traces(reps, tp.grading)
    pieces = []
    psi0 = psi1 = 0
    check0 = check1 = 0
    for lam, dim_pi, chi_c, weights in isotypic:
        h0, h1 = (_as_integer(x) for x in _weigh(weights, math.factorial(k), traces))
        if h0 < 0 or h1 < 0:
            raise PresentationError("negative isotypic multiplicity")
        pieces.append(IsotypicPiece(lam, dim_pi, chi_c, (h0, h1)))
        psi0 += chi_c * h0
        psi1 += chi_c * h1
        check0 += dim_pi * h0
        check1 += dim_pi * h1
    if check0 != tp.grading.count(0) or check1 != tp.grading.count(1):
        raise PresentationError("isotypic decomposition does not preserve dimension")
    return AdamsCharacter(tp.k, tuple(pieces), (psi0, psi1))


# -- Morita reduction and the module-level Bott class --------------------------

def _morita_weights(traces, vol_traces, presentation: GradedModule) -> int:
    """w0 - w1 from tr(P | block) and tr(P u | block), P a projector commuting
    with the volume operator u.

    Writing N = E (x) W with u of square one acting as +1 on E0 and -1 on
    E1, the graded multiplicities (w0, w1) of W are read off Q+- = (1 +- u)/2.
    By linearity tr(P Q+- | block) = (tr(P | block) +- tr(P u | block)) / 2:
    these are w0 e0 and w1 e0 for Q+ on blocks 0 and 1, and w1 e1 and w0 e1
    for Q- (an isotypic P comes with its traces divided by its dim).  All
    four equations and the dimension arithmetic are checked.
    """
    e0, e1 = presentation.dims

    def q_trace(block, sign):
        return _as_integer(Fraction(traces[block] + sign * vol_traces[block], 2))

    def ratio(x, y):
        if y == 0 or x % y:
            raise PresentationError("module dimension is not a multiple of dim E")
        return x // y

    w0 = ratio(q_trace(0, 1), e0)
    w1 = ratio(q_trace(1, 1), e0)
    if w0 != ratio(q_trace(1, -1), e1) or w1 != ratio(q_trace(0, -1), e1):
        raise PresentationError("graded blocks disagree with the presentation")
    return w0 - w1


def hermitian_bott_of(module: GradedModule, k: int) -> Fraction:
    """Bott class of a presented module: power, Adams weights, reduction.

    Each sigma_mu is traced against the integer product Delta_1 ... Delta_n;
    the witness s making s Delta_1 ... Delta_n the volume operator of the
    k-scaled form enters each weighted trace once, as its divisor k!/s."""
    tp = tensor_power(module, k)
    twist = twist_rep(module, k)
    if not is_end_iso(twist):
        raise PresentationError("twisted structure map is not bijective")
    reps, isotypic = isotypic_projectors(tp)
    product, s = volume_product(twist.form, diagonal_generators(tp), tp.dim)
    traces = _block_traces(reps, tp.grading)
    vol_traces = _block_traces(reps, tp.grading, product)
    fact = math.factorial(k)
    rho = 0
    for lam, dim_pi, chi_c, weights in isotypic:
        if chi_c == 0:
            continue
        rho += chi_c * _morita_weights(_weigh(weights, fact, traces),
                                       _weigh(weights, Fraction(fact, s), vol_traces), twist)
    return Fraction(rho)


def hermitian_bott(m: int, k: int) -> Fraction:
    """The Bott class of m hyperbolic planes; equals k^m."""
    return hermitian_bott_of(spinor_rep(m), k)


def opposite_form_check(m: int, k: int) -> bool:
    """The class is insensitive to negating the quadratic form."""
    module = spinor_rep(m)
    return hermitian_bott_of(module, k) == hermitian_bott_of(opposite_module(module), k)


def adams_module_report(m: int, k: int) -> dict:
    """One-run summary for a hyperbolic module: both Adams routes and the class."""
    module = spinor_rep(m)
    vcm = adams_bar(module, k)
    char = adams_character(module, k)
    rho = hermitian_bott_of(module, k)
    return {
        "m": m,
        "k": k,
        "eigen_dims": [list(p) for p in vcm.graded_dims],
        "psi_bar": [_as_integer(vcm.value(block)) for block in (0, 1)],
        "psi_char": list(char.psi_graded),
        "rho_k": str(rho),
        "expected": str(k ** m),
    }
