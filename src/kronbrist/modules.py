"""Finite-dimensional n-Kronecker modules and their homological calculus.

A module is a pair of spaces (M1, M2) with n structure matrices acting on
column vectors M1 -> M2.  Provided here: Hom/Ext spaces via the exact
intertwining system, the bilinear form on dimension vectors and its
companion lattice transformation, translation by composed reflections
(kernel at the sink, then again at the new sink), duality, socle/radical
layers, trace submodules and generation tests, quotients, and a tri-state
isomorphism search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import (
    DimensionMismatch,
    FieldSpec,
    InternalCheckFailed,
    Matrix,
    Subspace,
    block_diag,
    joint_kernel,
    kernel_basis,
    quotient_projection,
    embed_free_coordinates,
    rank,
)

DimVector = tuple  # (dim at vertex 1, dim at vertex 2)


class NotSubmodule(ValueError):
    """The given subspace pair is not closed under the structure maps."""


# -- dimension-vector arithmetic --------------------------------------------

def euler_form(x: DimVector, y: DimVector, n: int) -> int:
    """<(a,b),(a',b')> = a a' + b b' - n a b'."""
    a, b = x
    ap, bp = y
    return a * ap + b * bp - n * a * bp


def coxeter_apply(x: DimVector, n: int, power: int = 1) -> DimVector:
    """Lattice transformation (a,b) -> (n^2 a - n b - a, n a - b), iterated.

    Negative powers apply the inverse (n d - c, (n^2 - 1) d - n c).
    Intermediate values may be negative integers and are returned as such.
    """
    a, b = x
    if power >= 0:
        for _ in range(power):
            a, b = n * n * a - n * b - a, n * a - b
    else:
        for _ in range(-power):
            a, b = n * b - a, (n * n - 1) * b - n * a
    return (a, b)


# -- core data types ---------------------------------------------------------

@dataclass(frozen=True)
class KroneckerModule:
    n: int
    field: FieldSpec
    dim1: int
    dim2: int
    alphas: tuple  # n matrices, each dim2 x dim1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one arrow")
        if len(self.alphas) != self.n:
            raise ValueError(f"expected {self.n} structure matrices, got {len(self.alphas)}")
        for a in self.alphas:
            if (a.rows, a.cols) != (self.dim2, self.dim1) or a.field != self.field:
                raise DimensionMismatch("structure matrix shape/field mismatch")

    @property
    def dims(self) -> DimVector:
        return (self.dim1, self.dim2)

    def is_zero(self) -> bool:
        return self.dim1 == 0 and self.dim2 == 0


def zero_module(n: int, field: FieldSpec) -> KroneckerModule:
    z = Matrix.zeros(field, 0, 0)
    return KroneckerModule(n, field, 0, 0, tuple(z for _ in range(n)))


def simple_module(n: int, field: FieldSpec, vertex: int) -> KroneckerModule:
    if vertex == 1:
        return KroneckerModule(n, field, 1, 0, tuple(Matrix.zeros(field, 0, 1) for _ in range(n)))
    if vertex == 2:
        return KroneckerModule(n, field, 0, 1, tuple(Matrix.zeros(field, 1, 0) for _ in range(n)))
    raise ValueError("vertex must be 1 or 2")


def projective_module(n: int, field: FieldSpec, vertex: int) -> KroneckerModule:
    """P(1) = (k, k^n; coordinate inclusions); P(2) = S(2)."""
    if vertex == 2:
        return simple_module(n, field, 2)
    if vertex != 1:
        raise ValueError("vertex must be 1 or 2")
    alphas = tuple(Matrix.from_rows(field, [[field.one() if r == i else field.zero()]
                                            for r in range(n)], cols=1)
                   for i in range(n))
    return KroneckerModule(n, field, 1, n, alphas)


def injective_module(n: int, field: FieldSpec, vertex: int) -> KroneckerModule:
    """I(1) = S(1); I(2) = (k^n, k; coordinate projections)."""
    if vertex == 1:
        return simple_module(n, field, 1)
    if vertex != 2:
        raise ValueError("vertex must be 1 or 2")
    alphas = tuple(Matrix.from_rows(field, [[field.one() if c == i else field.zero()
                                             for c in range(n)]], cols=n)
                   for i in range(n))
    return KroneckerModule(n, field, n, 1, alphas)


@dataclass(frozen=True)
class Morphism:
    """Pair of matrices intertwining two modules' structure maps."""

    source: KroneckerModule
    target: KroneckerModule
    f1: Matrix  # target.dim1 x source.dim1
    f2: Matrix  # target.dim2 x source.dim2

    def __post_init__(self):
        M, N = self.source, self.target
        if M.n != N.n or M.field != N.field:
            raise DimensionMismatch("morphism between incompatible modules")
        if (self.f1.rows, self.f1.cols) != (N.dim1, M.dim1):
            raise DimensionMismatch("f1 shape mismatch")
        if (self.f2.rows, self.f2.cols) != (N.dim2, M.dim2):
            raise DimensionMismatch("f2 shape mismatch")
        for aM, aN in zip(M.alphas, N.alphas):
            if self.f2 @ aM != aN @ self.f1:
                raise ValueError("matrices do not intertwine the structure maps")

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f2.is_zero()


def identity_morphism(M: KroneckerModule) -> Morphism:
    return Morphism(M, M, Matrix.identity(M.field, M.dim1), Matrix.identity(M.field, M.dim2))


def compose(g: Morphism, f: Morphism) -> Morphism:
    if f.target is not g.source and f.target != g.source:
        raise DimensionMismatch("composition target/source mismatch")
    return Morphism(f.source, g.target, g.f1 @ f.f1, g.f2 @ f.f2)


@dataclass(frozen=True)
class SubmodulePair:
    """Subspaces (U1, U2) of a module, closed under every structure map."""

    parent: KroneckerModule
    U1: Subspace
    U2: Subspace

    def __post_init__(self):
        M = self.parent
        if self.U1.ambient_dim != M.dim1 or self.U2.ambient_dim != M.dim2:
            raise DimensionMismatch("subspace ambient dims do not match the module")
        for a in M.alphas:
            if not self.U2.contains_rows(self.U1.basis @ a.transpose()):
                raise NotSubmodule("not a submodule: subspaces not closed under the maps")

    @property
    def dims(self) -> DimVector:
        return (self.U1.dim, self.U2.dim)

    def is_full(self) -> bool:
        return self.U1.is_full() and self.U2.is_full()

    def contains(self, other: "SubmodulePair") -> bool:
        return self.U1.contains(other.U1) and self.U2.contains(other.U2)


# -- Hom and Ext -------------------------------------------------------------

def _check_same_category(M: KroneckerModule, N: KroneckerModule):
    if M.n != N.n or M.field != N.field:
        raise DimensionMismatch("modules over different quivers or fields")


def intertwining_blocks(a_src: Matrix, a_tgt: Matrix):
    """Coefficients of f2.a_src - a_tgt.f1 = 0 in row-major vec(f1) and vec(f2).

    For a_src: X1 -> X2 and a_tgt: Y1 -> Y2 the unknowns are f1: X1 -> Y1 and
    f2: X2 -> Y2; the blocks are -a_tgt kron I_{dim X1} and I_{dim Y2} kron
    a_src^T, one row per entry of the (dim Y2) x (dim X1) equation.
    """
    f = a_src.field
    return (a_tgt.scale(-1).kron(Matrix.identity(f, a_src.cols)),
            Matrix.identity(f, a_tgt.rows).kron(a_src.transpose()))


def _hom_system(M: KroneckerModule, N: KroneckerModule) -> Matrix:
    """Coefficient matrix of f2.aM - aN.f1 = 0 in unknowns vec(f1) ++ vec(f2)."""
    rows = [Matrix.hstack(*intertwining_blocks(aM, aN)) for aM, aN in zip(M.alphas, N.alphas)]
    return rows[0].vstack(*rows[1:])


def hom_dim(M: KroneckerModule, N: KroneckerModule) -> int:
    _check_same_category(M, N)
    t = N.dim1 * M.dim1 + N.dim2 * M.dim2
    if t == 0:
        return 0
    return t - rank(_hom_system(M, N))


def hom_basis(M: KroneckerModule, N: KroneckerModule) -> list:
    """Canonical basis of the space of morphisms M -> N."""
    _check_same_category(M, N)
    t1 = N.dim1 * M.dim1
    t2 = N.dim2 * M.dim2
    if t1 + t2 == 0:
        return []
    ker = kernel_basis(_hom_system(M, N))
    return [Morphism(M, N, Matrix(M.field, v[:t1].reshape(N.dim1, M.dim1)),
                     Matrix(M.field, v[t1:].reshape(N.dim2, M.dim2)))
            for v in ker.basis.data]


def end_dim(M: KroneckerModule) -> int:
    """Endomorphism-ring dimension; 1 means M is a brick."""
    return hom_dim(M, M)


def ext1_dim(M: KroneckerModule, N: KroneckerModule) -> int:
    """dim Ext^1 from the hereditary identity hom - ext = bilinear form."""
    _check_same_category(M, N)
    h = hom_dim(M, N)
    e = h - euler_form(M.dims, N.dims, M.n)
    if e < 0:
        raise InternalCheckFailed(
            f"hom dim {h} below the bilinear form value; Ext cannot be negative")
    return e


def ext1_dim_via_resolution(M: KroneckerModule, N: KroneckerModule) -> int:
    """Independent route: Hom(-, N) applied to a projective presentation of M.

    P0 = P(1)^dim1 (+) P(2)^dim2 surjects onto M by evaluation; its kernel P1
    is concentrated at vertex 2, hence projective.  Ext^1(M, N) is the
    cokernel of Hom(P0, N) -> Hom(P1, N).
    """
    _check_same_category(M, N)
    n, f = M.n, M.field
    m1, m2 = M.dims
    blocks = [projective_module(n, f, 1)] * m1 + [projective_module(n, f, 2)] * m2
    if not blocks:
        return 0
    P0 = direct_sum_list(blocks)
    # evaluation P0 -> M: generator of the i-th P(1) copy goes to basis vector i,
    # so that copy's j-th vertex-2 vector goes to alpha_j e_i (column i*n + j)
    eps1 = Matrix.identity(f, m1)
    images = np.stack([a.data for a in M.alphas], axis=2).reshape(m2, m1 * n)
    eps2 = Matrix(f, images).hstack(Matrix.identity(f, m2))
    eps = Morphism(P0, M, eps1, eps2)
    ker_pair = SubmodulePair(P0, kernel_basis(eps.f1), kernel_basis(eps.f2))
    P1, incl = submodule_as_module(P0, ker_pair)
    h0 = hom_basis(P0, N)
    h1_dim = hom_dim(P1, N)
    composed = [compose(g, incl) for g in h0]
    amb = N.dim1 * P1.dim1 + N.dim2 * P1.dim2
    vecs = [g.f1.entries_flat() + g.f2.entries_flat() for g in composed]
    img = Subspace.from_spanning(f, amb, vecs) if amb else Subspace.zero(f, 0)
    return h1_dim - img.dim


# -- trace submodules and generation -----------------------------------------

def trace_submodule(generators: Sequence[KroneckerModule], M: KroneckerModule) -> SubmodulePair:
    """Sum of images of every morphism from the generators into M."""
    v1, v2 = [], []
    for G in generators:
        _check_same_category(G, M)
        for fm in hom_basis(G, M):
            v1.extend(fm.f1.transpose().data)
            v2.extend(fm.f2.transpose().data)
    return SubmodulePair(M,
                         Subspace.from_spanning(M.field, M.dim1, v1),
                         Subspace.from_spanning(M.field, M.dim2, v2))


def is_generated_by(generators: Sequence[KroneckerModule], M: KroneckerModule) -> bool:
    return trace_submodule(generators, M).is_full()


# -- translation by composed reflections -------------------------------------

def _sink_reflection(maps: Sequence[Matrix], d_src: int, d_tgt: int, field: FieldSpec):
    """Kernel of the summed map src^n -> tgt; returns (new dim, projections)."""
    n = len(maps)
    K = kernel_basis(Matrix.zeros(field, d_tgt, 0).hstack(*maps))
    new_maps = [K.basis.col_block(i * d_src, (i + 1) * d_src).transpose() for i in range(n)]
    return K.dim, new_maps


def ar_translate(M: KroneckerModule, direction: str = "tau") -> KroneckerModule:
    """Translation by two composed reflections.

    direction "tau": reflect at the sink, then at the new sink; projective
    summands die.  direction "tau-": the dual of tau on the dual module;
    injective summands die.  For indecomposable non-projective M, "tau"
    gives dimension vector coxeter_apply(M.dims).
    """
    f = M.field
    if direction == "tau":
        dK, proj = _sink_reflection(M.alphas, M.dim1, M.dim2, f)
        dK2, proj2 = _sink_reflection(proj, dK, M.dim1, f)
        return KroneckerModule(M.n, f, dK2, dK, tuple(proj2))
    if direction == "tau-":
        return dual(ar_translate(dual(M), "tau"))
    raise ValueError(f"direction must be 'tau' or 'tau-', got {direction!r}")


# -- duality, layers, faithfulness -------------------------------------------

def dual(M: KroneckerModule) -> KroneckerModule:
    """Vector-space duality: swap the vertices and transpose every map."""
    return KroneckerModule(M.n, M.field, M.dim2, M.dim1,
                           tuple(a.transpose() for a in M.alphas))


class Layers(NamedTuple):
    socle: SubmodulePair
    radical: SubmodulePair
    top_dims: DimVector
    soc_dims: DimVector


def layers(M: KroneckerModule) -> Layers:
    """Socle (cap of kernels, all of M2), radical (0, sum of images), tops."""
    f = M.field
    soc1 = joint_kernel(f, M.dim1, M.alphas)
    rad_vecs = []
    for a in M.alphas:
        rad_vecs.extend(a.transpose().data)
    rad2 = Subspace.from_spanning(f, M.dim2, rad_vecs)
    socle = SubmodulePair(M, soc1, Subspace.full(f, M.dim2))
    radical = SubmodulePair(M, Subspace.zero(f, M.dim1), rad2)
    return Layers(socle, radical,
                  (M.dim1, M.dim2 - rad2.dim),
                  (soc1.dim, M.dim2))


def is_faithful(M: KroneckerModule) -> bool:
    """Both spaces nonzero and the structure maps linearly independent."""
    if M.dim1 == 0 or M.dim2 == 0:
        return False
    flat = Matrix.from_rows(M.field, [a.entries_flat() for a in M.alphas],
                            cols=M.dim1 * M.dim2)
    return rank(flat) == M.n


# -- sums, submodules, quotients ---------------------------------------------

def direct_sum(M: KroneckerModule, N: KroneckerModule) -> KroneckerModule:
    _check_same_category(M, N)
    alphas = tuple(block_diag(M.field, [a, b]) for a, b in zip(M.alphas, N.alphas))
    return KroneckerModule(M.n, M.field, M.dim1 + N.dim1, M.dim2 + N.dim2, alphas)


def direct_sum_list(mods: Sequence[KroneckerModule]) -> KroneckerModule:
    if not mods:
        raise ValueError("empty direct sum needs an explicit zero_module")
    out = mods[0]
    for m in mods[1:]:
        out = direct_sum(out, m)
    return out


def submodule_as_module(M: KroneckerModule, U: SubmodulePair):
    """U as an abstract module in its RREF bases, with the inclusion map."""
    f = M.field
    alphas = []
    for a in M.alphas:
        images = U.U1.basis @ a.transpose()  # row i: the image of basis vector i
        if not U.U2.contains_rows(images):
            raise NotSubmodule("not a submodule: image leaves the subspace")
        # coordinates in the RREF basis of U2 are the entries at its pivots
        alphas.append(Matrix(f, images.data[:, list(U.U2.pivot_cols)].T))
    sub = KroneckerModule(M.n, f, U.U1.dim, U.U2.dim, tuple(alphas))
    incl = Morphism(sub, M, U.U1.basis.transpose(), U.U2.basis.transpose())
    return sub, incl


def quotient(M: KroneckerModule, U: SubmodulePair):
    """Quotient module on the complement coordinates, with the projection."""
    if U.parent != M:
        raise DimensionMismatch("submodule of a different parent")
    f = M.field
    Q1 = quotient_projection(U.U1)
    Q2 = quotient_projection(U.U2)
    L1 = embed_free_coordinates(U.U1)
    alphas = tuple(Q2 @ a @ L1 for a in M.alphas)
    quot = KroneckerModule(M.n, f, Q1.rows, Q2.rows, alphas)
    proj = Morphism(M, quot, Q1, Q2)
    return quot, proj


# -- isomorphism search -------------------------------------------------------

ISO = "verified-iso"
NON_ISO = "verified-non-iso"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class IsoResult:
    status: str
    morphism: Optional[Morphism] = None


def _invertible_pair(fm: Morphism) -> bool:
    return (fm.f1.rows == fm.f1.cols and fm.f2.rows == fm.f2.cols
            and rank(fm.f1) == fm.f1.rows and rank(fm.f2) == fm.f2.rows)


def find_isomorphism(M: KroneckerModule, N: KroneckerModule,
                     attempts: int = 64, rng: Optional[random.Random] = None) -> IsoResult:
    """Tri-state isomorphism test.

    Non-isomorphy is certified by dimension vectors or asymmetric Hom
    dimensions; isomorphy by an explicit invertible intertwiner found among
    the Hom basis elements or `attempts` random combinations of them.
    """
    _check_same_category(M, N)
    if M.dims != N.dims:
        return IsoResult(NON_ISO)
    if M == N:
        return IsoResult(ISO, identity_morphism(M))
    basis = hom_basis(M, N)
    if len(basis) != hom_dim(N, M):
        return IsoResult(NON_ISO)
    if M.is_zero():
        return IsoResult(ISO, identity_morphism(M))
    for fm in basis:
        if _invertible_pair(fm):
            return IsoResult(ISO, fm)
    if not basis:
        return IsoResult(NON_ISO)  # nonzero modules with Hom = 0 on both sides
    rng = rng if rng is not None else random.Random(0xA11CE)
    f = M.field
    for _ in range(attempts):
        if f.is_finite:
            coeffs = [rng.randrange(f.characteristic) for _ in basis]
        else:
            coeffs = [Fraction(rng.randrange(-4, 5)) for _ in basis]
        f1 = Matrix.zeros(f, N.dim1, M.dim1)
        f2 = Matrix.zeros(f, N.dim2, M.dim2)
        for c, bm in zip(coeffs, basis):
            if c:
                f1 = f1 + bm.f1.scale(c)
                f2 = f2 + bm.f2.scale(c)
        cand = Morphism(M, N, f1, f2)
        if _invertible_pair(cand):
            return IsoResult(ISO, cand)
    return IsoResult(UNKNOWN)


# -- random fixtures ----------------------------------------------------------

def random_module(n: int, field: FieldSpec, rng: random.Random,
                  max_dim1: int, max_dim2: int,
                  zero_map_index: Optional[int] = None) -> KroneckerModule:
    """Uniform random module with dims in [0, max]; optionally one map zeroed."""
    d1 = rng.randrange(max_dim1 + 1)
    d2 = rng.randrange(max_dim2 + 1)
    alphas = []
    for i in range(n):
        if i == zero_map_index:
            alphas.append(Matrix.zeros(field, d2, d1))
            continue
        if field.is_finite:
            rows = [[rng.randrange(field.characteristic) for _ in range(d1)] for _ in range(d2)]
        else:
            rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(d1)] for _ in range(d2)]
        alphas.append(Matrix.from_rows(field, rows, cols=d1))
    return KroneckerModule(n, field, d1, d2, tuple(alphas))
