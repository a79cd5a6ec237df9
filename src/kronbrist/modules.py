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
from typing import Callable, NamedTuple, Optional, Sequence

from .linalg import (
    DimensionMismatch,
    FieldSpec,
    InternalCheckFailed,
    Matrix,
    Subspace,
    bristle_hom_system,
    image_subspace,
    intertwining_system,
    joint_kernel,
    kernel_basis,
    place_blocks,
    quotient_projection,
    embed_free_coordinates,
    rank,
    SparseSystem,
    sparse_block_ranks,
    sparse_blocks,
    sparse_kernel,
    sparse_kernel_rows,
    sparse_rank,
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
    alphas = tuple(Matrix.identity(field, n).col_block(i, i + 1) for i in range(n))
    return KroneckerModule(n, field, 1, n, alphas)


def injective_module(n: int, field: FieldSpec, vertex: int) -> KroneckerModule:
    """I(1) = S(1); I(2) = (k^n, k; coordinate projections)."""
    if vertex == 1:
        return simple_module(n, field, 1)
    if vertex != 2:
        raise ValueError("vertex must be 1 or 2")
    alphas = tuple(Matrix.identity(field, n).col_block(i, i + 1).transpose() for i in range(n))
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
        if not _intertwine(M, N, self.f1, self.f2):
            raise ValueError("matrices do not intertwine the structure maps")

    @classmethod
    def _checked(cls, source: KroneckerModule, target: KroneckerModule,
                 f1: Matrix, f2: Matrix) -> "Morphism":
        """A morphism whose shapes and intertwining the caller has checked."""
        fm = object.__new__(cls)
        for name, value in (("source", source), ("target", target), ("f1", f1), ("f2", f2)):
            object.__setattr__(fm, name, value)
        return fm

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f2.is_zero()


def _intertwine(M: KroneckerModule, N: KroneckerModule, F1: Matrix, F2: Matrix, k: int = 1) -> bool:
    """Whether F2_j aM_i = aN_i F1_j for every arrow i and every j < k.

    F1 = [F1_1; ...; F1_k] and F2 = [F2_1; ...; F2_k] stack k pairs.  All k
    pairs are checked with two products, [F2_1; ...; F2_k] [aM_1 | ... | aM_n]
    against [aN_1; ...; aN_n] [F1_1 | ... | F1_k], compared block by block.
    """
    if k == 0:
        return True
    aM = M.alphas[0].hstack(*M.alphas[1:])
    aN = N.alphas[0].vstack(*N.alphas[1:])
    return F2 @ aM == (aN @ F1.transpose_blocks(k, 1)).transpose_blocks(M.n, k)


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
        if self.U2.is_full():
            return  # every image lies in the full space: nothing can fail
        # one product: row r of U1 times [a_1; ...; a_n]^T holds a_1 u_r, ..., a_n u_r
        images = self.U1.basis @ M.alphas[0].vstack(*M.alphas[1:]).transpose()
        if not self.U2.contains_rows(images.reshape(-1, M.dim2)):
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


def _is_bristle(M: KroneckerModule) -> bool:
    """Dimension (1, 1) with a nonzero map: a bristle, up to the scaling of its point."""
    return M.dims == (1, 1) and not all(a.is_zero() for a in M.alphas)


def _point(M: KroneckerModule) -> Matrix:
    """The scalar maps of a (1, 1) module as one row."""
    return M.alphas[0].hstack(*M.alphas[1:])


def _hom_system(M: KroneckerModule, N: KroneckerModule) -> SparseSystem:
    """The sparse system f2.aM - aN.f1 = 0 in unknowns vec(f1) ++ vec(f2);
    from a bristle M, the one-point block of ``bristle_hom_system``."""
    if _is_bristle(M):
        return bristle_hom_system(N.alphas, _point(M))
    t1, h = N.dim1 * M.dim1, N.dim2 * M.dim1
    terms = [(i * h, 0, t1, aM, aN) for i, (aM, aN) in enumerate(zip(M.alphas, N.alphas))]
    return intertwining_system(M.field, M.n * h, t1 + N.dim2 * M.dim2, terms)


def bristle_hom_dims(points: Matrix, N: KroneckerModule):
    """(b, dim Hom(B_p, N)) for the bristle B_p of each row p of ``points``,
    from one block system and one peel (``sparse_block_ranks``): first the
    points the peel decided, then the others in row order, each core
    eliminated only when the caller asks for its dimension."""
    width = N.dim1 + N.dim2
    S = bristle_hom_system(N.alphas, points)
    return ((b, width - r) for b, r in sparse_block_ranks(S, points.rows))


def hom_dim(M: KroneckerModule, N: KroneckerModule) -> int:
    _check_same_category(M, N)
    t = N.dim1 * M.dim1 + N.dim2 * M.dim2
    if t == 0:
        return 0
    return t - sparse_rank(_hom_system(M, N))


def _hom_stacks(M: KroneckerModule, N: KroneckerModule,
                kernel: Callable[[SparseSystem], Matrix]):
    """(k, [F1_1; ...; F1_k], [F2_1; ...; F2_k]) for the basis (F1_j, F2_j)
    of the morphisms M -> N whose vectors are the rows ``kernel`` gives for
    the Hom system: the canonical basis for ``hom_basis``, any basis where
    only the span matters.  One intertwining guard covers the whole basis; a
    mismatch is a bug in the Hom system or the kernel, so it raises
    InternalCheckFailed."""
    _check_same_category(M, N)
    ker = kernel(_hom_system(M, N))
    k, t1 = ker.rows, N.dim1 * M.dim1
    F1 = ker.col_block(0, t1).reshape(k * N.dim1, M.dim1)
    F2 = ker.col_block(t1, ker.cols).reshape(k * N.dim2, M.dim2)
    if not _intertwine(M, N, F1, F2, k):
        raise InternalCheckFailed("a Hom basis element does not intertwine the structure maps")
    return k, F1, F2


def hom_basis(M: KroneckerModule, N: KroneckerModule) -> list:
    """Canonical basis of the space of morphisms M -> N."""
    k, F1, F2 = _hom_stacks(M, N, lambda S: sparse_kernel(S).basis)
    return [Morphism._checked(M, N, f1, f2) for f1, f2 in zip(F1.split_rows(k), F2.split_rows(k))]


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
    images = Matrix.hstack(*(a.transpose() for a in M.alphas)).reshape(m1 * n, m2).transpose()
    eps = Morphism(P0, M, Matrix.identity(f, m1), images.hstack(Matrix.identity(f, m2)))
    ker_pair = SubmodulePair(P0, kernel_basis(eps.f1), kernel_basis(eps.f2))
    P1, incl = submodule_as_module(P0, ker_pair)
    # g . incl for the k basis elements g of Hom(P0, N), stacked; no guard: P1
    # sits at vertex 2, so any pair of maps intertwines its zero-width maps
    k, G1, G2 = _hom_stacks(P0, N, sparse_kernel_rows)
    img = (G1 @ incl.f1).reshape(k, N.dim1 * P1.dim1).hstack(
        (G2 @ incl.f2).reshape(k, N.dim2 * P1.dim2))
    return hom_dim(P1, N) - rank(img)


# -- trace submodules and generation -----------------------------------------

def trace_submodule(generators: Sequence[KroneckerModule], M: KroneckerModule) -> SubmodulePair:
    """Sum of images of every morphism from the generators into M: at each
    vertex the column space of [F_1 | ... | F_k] over every Hom basis."""
    images1, images2 = [Matrix.zeros(M.field, M.dim1, 0)], [Matrix.zeros(M.field, M.dim2, 0)]
    for G in generators:
        k, F1, F2 = _hom_stacks(G, M, sparse_kernel_rows)
        if k:
            images1.append(F1.transpose_blocks(k, 1))
            images2.append(F2.transpose_blocks(k, 1))
    return SubmodulePair(M, image_subspace(Matrix.hstack(*images1)),
                         image_subspace(Matrix.hstack(*images2)))


def bristle_images(points: Matrix, M: KroneckerModule):
    """(X, Y): the images of a basis of Hom(B_p, M) for every row p of
    ``points``, stacked: row r of X and of Y is the pair (x, y) with
    a_i x = p_i y of one basis element.

    The Hom spaces come from one block system (``bristle_hom_system``), a
    kernel per block, and all the rows pass one intertwining guard: for
    each arrow i, X a_i^T against Y with each row scaled by p_i of its
    point.  A mismatch is a bug in the system or a kernel, so it raises
    InternalCheckFailed.
    """
    S = bristle_hom_system(M.alphas, points)
    kernels = [sparse_kernel_rows(block) for block in sparse_blocks(S, points.rows)]
    H = kernels[0].vstack(*kernels[1:])
    X, Y = H.col_block(0, M.dim1), H.col_block(M.dim1, H.cols)
    P = points.select_rows([b for b, K in enumerate(kernels) for _ in range(K.rows)])
    if not all(X @ a.transpose() == P.col_block(i, i + 1).row_kron(Y)
               for i, a in enumerate(M.alphas)):
        raise InternalCheckFailed("a Hom basis element does not intertwine the structure maps")
    return X, Y


def is_generated_by(generators: Sequence[KroneckerModule], M: KroneckerModule) -> bool:
    """Whether the trace of the generators is all of M, decided by rank
    alone: the images of every Hom basis element span M at each vertex.

    The bristles among the generators bring their images from
    ``bristle_images``, one system and one guard for all of them; any other
    generator brings the columns of its basis maps, checked by
    ``_hom_stacks``.  The stacked images at each vertex are ranked as their
    nonzeros (``sparse_rank``); no canonical basis is formed.
    """
    images1, images2, points = [], [], []
    for G in generators:
        _check_same_category(G, M)
        if _is_bristle(G):
            points.append(_point(G))
            continue
        k, F1, F2 = _hom_stacks(G, M, sparse_kernel_rows)
        if k:
            images1.append(F1.transpose_blocks(k, 1).transpose())
            images2.append(F2.transpose_blocks(k, 1).transpose())
    if points:
        X, Y = bristle_images(points[0].vstack(*points[1:]), M)
        images1.append(X)
        images2.append(Y)
    return all(sparse_rank(SparseSystem.of(M.field, d, images)) == d
               for d, images in ((M.dim1, images1), (M.dim2, images2)))


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
    rad2 = image_subspace(Matrix.hstack(*M.alphas))
    socle = SubmodulePair(M, soc1, Subspace.full(f, M.dim2))
    radical = SubmodulePair(M, Subspace.zero(f, M.dim1), rad2)
    return Layers(socle, radical,
                  (M.dim1, M.dim2 - rad2.dim),
                  (soc1.dim, M.dim2))


def is_faithful(M: KroneckerModule) -> bool:
    """Both spaces nonzero and the structure maps linearly independent."""
    if M.dim1 == 0 or M.dim2 == 0:
        return False
    return rank(Matrix.vstack(*(a.reshape(1, -1) for a in M.alphas))) == M.n


# -- sums, submodules, quotients ---------------------------------------------

def direct_sum(M: KroneckerModule, N: KroneckerModule) -> KroneckerModule:
    _check_same_category(M, N)
    alphas = tuple(place_blocks(M.field, a.rows + b.rows, a.cols + b.cols,
                                [(0, 0, a), (a.rows, a.cols, b)])
                   for a, b in zip(M.alphas, N.alphas))
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
        alphas.append(images.select_cols(U.U2.pivot_cols).transpose())
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
                     attempts: int = 64) -> IsoResult:
    """Tri-state isomorphism test.

    Certificates in the order tried: unequal dims (non-iso); M == N (iso); an
    invertible Hom(M, N) basis element (iso); Hom(M, N) = 0 or dim Hom(M, N)
    != dim Hom(N, M) (non-iso); an invertible one of `attempts` random
    combinations of the basis (iso); otherwise unknown.
    """
    _check_same_category(M, N)
    if M.dims != N.dims:
        return IsoResult(NON_ISO)
    if M == N:
        return IsoResult(ISO, identity_morphism(M))
    basis = hom_basis(M, N)
    for fm in basis:
        if _invertible_pair(fm):
            return IsoResult(ISO, fm)
    if not basis or len(basis) != hom_dim(N, M):
        return IsoResult(NON_ISO)
    rng = random.Random(0xA11CE)
    f = M.field
    lo, hi = (0, f.characteristic) if f.is_finite else (-4, 5)
    for _ in range(attempts):
        coeffs = [rng.randrange(lo, hi) for _ in basis]
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
    lo, hi = (0, field.characteristic) if field.is_finite else (-3, 4)
    alphas = []
    for i in range(n):
        if i == zero_map_index:
            alphas.append(Matrix.zeros(field, d2, d1))
            continue
        rows = [[rng.randrange(lo, hi) for _ in range(d1)] for _ in range(d2)]
        alphas.append(Matrix.from_rows(field, rows, cols=d1))
    return KroneckerModule(n, field, d1, d2, tuple(alphas))
