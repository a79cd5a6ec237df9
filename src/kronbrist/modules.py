"""Finite-dimensional n-Kronecker modules and their homological calculus.

A module is its n structure matrices, acting on column vectors M1 -> M2;
n, the field and the dimension vector are read off them.  Provided here: Hom
and Ext via the exact intertwining system, Ext again from the matrices of a
projective presentation with no Hom system, the bilinear form and its
companion lattice transformation, the translate tau by composed reflections
(kernel at the sink, then again at the new sink), duality, socle/radical
layers, bristle traces and generation tests, quotients, and a tri-state
isomorphism search.  Every Hom basis comes from one route, ``_hom_rows``:
``hom_system`` for a list of sources of one dimension vector, a kernel, and
one guard, ``intertwines``, which every ``Morphism`` passes too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

from .linalg import (
    DimensionMismatch,
    FieldSpec,
    InternalCheckFailed,
    Matrix,
    Subspace,
    hom_system,
    image_subspace,
    intertwines,
    joint_kernel,
    kernel_basis,
    place_blocks,
    quotient_projection,
    rank,
    SparseSystem,
    sparse_block_kernels,
    sparse_block_ranks,
    sparse_kernel,
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
    """The n structure matrices M1 -> M2, each dim2 x dim1 over one field;
    n, the field and the dimension vector are read off them."""

    alphas: tuple

    n = property(lambda self: len(self.alphas))
    field = property(lambda self: self.alphas[0].field)
    dim1 = property(lambda self: self.alphas[0].cols)
    dim2 = property(lambda self: self.alphas[0].rows)

    def __post_init__(self):
        if not self.alphas:
            raise ValueError("need at least one arrow")
        a0 = self.alphas[0]
        if any((a.rows, a.cols, a.field) != (a0.rows, a0.cols, a0.field) for a in self.alphas):
            raise DimensionMismatch("structure matrix shape/field mismatch")

    @property
    def dims(self) -> DimVector:
        return (self.dim1, self.dim2)

    @property
    def stacked(self) -> Matrix:
        """[a_1; ...; a_n], (n dim2) x dim1, built on each call: never kept."""
        return self.alphas[0].vstack(*self.alphas[1:])

    def is_zero(self) -> bool:
        return self.dim1 == 0 and self.dim2 == 0


def zero_module(n: int, field: FieldSpec) -> KroneckerModule:
    return KroneckerModule((Matrix.zeros(field, 0, 0),) * n)


def simple_module(n: int, field: FieldSpec, vertex: int) -> KroneckerModule:
    if vertex == 1:
        return KroneckerModule((Matrix.zeros(field, 0, 1),) * n)
    if vertex == 2:
        return KroneckerModule((Matrix.zeros(field, 1, 0),) * n)
    raise ValueError("vertex must be 1 or 2")


def injective_module(n: int, field: FieldSpec) -> KroneckerModule:
    """The injective I(2) = (k^n, k; coordinate projections); I(1) is the
    simple module S(1)."""
    alphas = tuple(Matrix.identity(field, n).col_block(i, i + 1).transpose() for i in range(n))
    return KroneckerModule(alphas)


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
        row = self.f1.reshape(1, -1).hstack(self.f2.reshape(1, -1))
        if not intertwines(N.alphas, _source(M), M.dims, row, [1]):
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
        images = self.U1.basis @ M.stacked.transpose()
        if not self.U2.contains_rows(images.reshape(-1, M.dim2)):
            raise NotSubmodule("not a submodule: subspaces not closed under the maps")

    @property
    def dims(self) -> DimVector:
        return (self.U1.dim, self.U2.dim)

    def is_full(self) -> bool:
        return self.U1.is_full() and self.U2.is_full()


# -- Hom and Ext -------------------------------------------------------------

def _check_same_category(M: KroneckerModule, N: KroneckerModule):
    if M.n != N.n or M.field != N.field:
        raise DimensionMismatch("modules over different quivers or fields")


def _source(M: KroneckerModule) -> Matrix:
    """M's maps read row-major one after another, as one row: a ``hom_system`` source."""
    return M.stacked.reshape(1, -1)


_POINT_RUN = 2**10  # points per block system of ``bristle_hom_dims``, by measurement


def bristle_hom_dims(points: Matrix, N: KroneckerModule):
    """(b, dim Hom(B_p, N)) for the bristle B_p of each row p of ``points``,
    in runs of ``_POINT_RUN`` rows, each built only when the caller asks past
    the run before it, from one block system and one peel
    (``sparse_block_ranks``): within a run, first the points the peel
    decided, then the others in row order, each core eliminated only when
    the caller asks for its dimension."""
    width = N.dim1 + N.dim2
    for start in range(0, points.rows, _POINT_RUN):
        run = points.select_rows(range(start, min(start + _POINT_RUN, points.rows)))
        S = hom_system(N.alphas, run, (1, 1))
        for b, r in sparse_block_ranks(S, run.rows):
            yield start + b, width - r


def hom_dim(M: KroneckerModule, N: KroneckerModule) -> int:
    _check_same_category(M, N)
    t = N.dim1 * M.dim1 + N.dim2 * M.dim2
    if t == 0 or M.dim1 * N.dim2 == 0:
        return t  # no unknowns, or no equations: every pair of maps intertwines
    return t - sparse_rank(hom_system(N.alphas, _source(M), M.dims))


def _hom_rows(sources: Matrix, dims: DimVector, N: KroneckerModule,
              kernel: Callable[[SparseSystem, int], tuple]):
    """(rows, counts): a basis of Hom(M_b, N) for each source M_b of
    ``hom_system``, counts[b] rows vec(F1) ++ vec(F2), that ``kernel`` gives
    for the block system and its number of blocks (the canonical kernel of
    one source; the block kernels where only the span matters).  All
    rows pass one guard, ``intertwines``; a mismatch is a bug, so it raises
    InternalCheckFailed."""
    H, counts = kernel(hom_system(N.alphas, sources, dims), sources.rows)
    if not intertwines(N.alphas, sources, dims, H, counts):
        raise InternalCheckFailed("a Hom basis element does not intertwine the structure maps")
    return H, counts


def _pairs(H: Matrix, M: KroneckerModule, N: KroneckerModule):
    """The pair (f1, f2) of every row vec(f1) ++ vec(f2) of H, maps M -> N."""
    k, t1 = H.rows, N.dim1 * M.dim1
    F1 = H.col_block(0, t1).reshape(k * N.dim1, M.dim1)
    F2 = H.col_block(t1, H.cols).reshape(k * N.dim2, M.dim2)
    return zip(F1.split_rows(k), F2.split_rows(k))


def hom_basis(M: KroneckerModule, N: KroneckerModule) -> list:
    """Canonical basis of the space of morphisms M -> N."""
    _check_same_category(M, N)
    H, _ = _hom_rows(_source(M), M.dims, N, lambda S, _: (K := sparse_kernel(S).basis, [K.rows]))
    return [Morphism._checked(M, N, f1, f2) for f1, f2 in _pairs(H, M, N)]


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
    """Independent route: Hom(-, N) on a projective presentation of M, read
    off its matrices with no Hom system.

    P0 = P(1)^m1 (+) P(2)^m2 maps onto M by the identity at vertex 1 and by
    eps2 = [images | I_m2] at vertex 2 (column i n + j is alpha_j e_i); its
    kernel P1 = P(2)^k is spanned by the canonical kernel basis K of eps2.
    By Yoneda a map from P(1) is the image of its generator in N1 and one
    from P(2) a vector of N2, so restriction from Hom(P0, N) = N1^m1 (+) N2^m2
    to Hom(P1, N) = N2^k is R, with blocks (r, i) = sum_j K[r, i n + j] a_j and
    (r, l) = K[r, n m1 + l] I, and Ext^1(M, N) = k d2 - rank(R).  The guard
    eps2 K^T = 0 stands for the morphism checks of the modules not built here.
    """
    _check_same_category(M, N)
    n, f, (m1, m2), (d1, d2) = M.n, M.field, M.dims, N.dims
    images = M.stacked.transpose().reshape(m1 * n, m2).transpose()
    eps2 = images.hstack(Matrix.identity(f, m2))
    K = kernel_basis(eps2).basis
    k = K.rows
    if k == 0 or d2 == 0:
        return 0
    if not (eps2 @ K.transpose()).is_zero():
        raise InternalCheckFailed("a kernel vector of the presentation is not in the kernel")
    # R with its columns permuted, which keeps its rank: rows (r, p); the blocks (r, i)
    # one to a row, regridded to columns (c, i), then I_d2 (x) K2, rows put in (r, p) order
    R1 = K.col_block(0, n * m1).reshape(k * m1, n) @ N.stacked.reshape(n, d2 * d1)
    R1 = R1.reshape(k, -1).columns_of_rows(m1, d2 * d1).reshape(k * d2, d1 * m1)
    K2 = K.col_block(n * m1, K.cols)
    R2 = place_blocks(f, d2 * k, d2 * m2, [(p * k, p * m2, K2) for p in range(d2)])
    R2 = R2.select_rows([p * k + r for r in range(k) for p in range(d2)])
    return k * d2 - rank(R1.hstack(R2))


# -- bristle traces and generation -------------------------------------------

def bristle_images(points: Matrix, M: KroneckerModule):
    """(X, Y, counts): the images of a basis of Hom(B_p, M) for every row p
    of ``points``, stacked in row order, and the number of basis elements
    of each: row r of X and of Y is the pair (x, y) with a_i x = p_i y of
    one basis element: the case (1, 1) of ``_hom_rows``, split at M1."""
    H, counts = _hom_rows(points, (1, 1), M, sparse_block_kernels)
    return H.col_block(0, M.dim1), H.col_block(M.dim1, H.cols), counts


def is_generated_by(generators: Sequence[KroneckerModule], M: KroneckerModule) -> bool:
    """Whether the trace of the generators is all of M, decided by rank
    alone: the images of every Hom basis element span M at each vertex.

    Each group of generators of one dimension vector brings its Hom bases
    from one block system and one guard (``_hom_rows``, block kernels).  A
    basis element's images at a vertex are the columns of its map there: at
    m = 1 the rows themselves, with no copy.  ``images_span`` ranks them at
    each vertex; no canonical basis is formed."""
    groups = {}
    for G in generators:
        _check_same_category(G, M)
        groups.setdefault(G.dims, []).append(_source(G))
    images1, images2 = [], []
    for (m1, m2), sources in groups.items():
        H, _ = _hom_rows(sources[0].vstack(*sources[1:]), (m1, m2), M, sparse_block_kernels)
        images1.append(H.col_block(0, M.dim1 * m1).columns_of_rows(M.dim1, m1))
        images2.append(H.col_block(M.dim1 * m1, H.cols).columns_of_rows(M.dim2, m2))
    return images_span(M, images1, images2)


def images_span(M: KroneckerModule, images1: Sequence[Matrix], images2: Sequence[Matrix]) -> bool:
    """Whether the stacked rows of ``images1`` span M1 and those of
    ``images2`` span M2, ranked as their nonzeros (``sparse_rank``)."""
    return all(sparse_rank(SparseSystem.of(M.field, d, images)) == d
               for d, images in ((M.dim1, images1), (M.dim2, images2)))


# -- translation by composed reflections -------------------------------------

def _sink_reflection(maps: Sequence[Matrix]) -> tuple:
    """The maps of the reflected module: the projections K -> src of the
    kernel K of the summed map [a_1 ... a_n]: src^n -> tgt onto its n summands."""
    K, d = kernel_basis(maps[0].hstack(*maps[1:])).basis, maps[0].cols
    return tuple(K.col_block(i * d, (i + 1) * d).transpose() for i in range(len(maps)))


def ar_translate(M: KroneckerModule) -> KroneckerModule:
    """The Auslander-Reiten translate tau M, by two composed reflections:
    at the sink, then at the new sink; projective summands die.  For
    indecomposable non-projective M it has dimension vector
    coxeter_apply(M.dims)."""
    return KroneckerModule(_sink_reflection(_sink_reflection(M.alphas)))


# -- duality, layers, faithfulness -------------------------------------------

def dual(M: KroneckerModule) -> KroneckerModule:
    """Vector-space duality: swap the vertices and transpose every map."""
    return KroneckerModule(tuple(a.transpose() for a in M.alphas))


class Layers(NamedTuple):
    socle: SubmodulePair
    radical: SubmodulePair

    @property
    def top_dims(self) -> DimVector:  # of M modulo its radical
        return tuple(d - r for d, r in zip(self.radical.parent.dims, self.radical.dims))

    @property
    def soc_dims(self) -> DimVector:
        return self.socle.dims


def layers(M: KroneckerModule) -> Layers:
    """Socle (cap of kernels, all of M2) and radical (0, sum of images)."""
    f = M.field
    socle = SubmodulePair(M, joint_kernel(f, M.dim1, M.alphas), Subspace.full(f, M.dim2))
    radical = SubmodulePair(M, Subspace.zero(f, M.dim1), image_subspace(Matrix.hstack(*M.alphas)))
    return Layers(socle, radical)


def is_faithful(M: KroneckerModule) -> bool:
    """Both spaces nonzero and the structure maps linearly independent."""
    if M.dim1 == 0 or M.dim2 == 0:
        return False
    return rank(M.stacked.reshape(M.n, -1)) == M.n


# -- sums, submodules, quotients ---------------------------------------------

def direct_sum(*mods: KroneckerModule) -> KroneckerModule:
    """The direct sum of the modules, each placed once: one block-diagonal
    matrix per arrow."""
    if not mods:
        raise ValueError("empty direct sum needs an explicit zero_module")
    for N in mods[1:]:
        _check_same_category(mods[0], N)
    rows = list(accumulate((M.dim2 for M in mods), initial=0))
    cols = list(accumulate((M.dim1 for M in mods), initial=0))
    return KroneckerModule(tuple(
        place_blocks(mods[0].field, rows[-1], cols[-1],
                     [(r, c, M.alphas[i]) for r, c, M in zip(rows, cols, mods)])
        for i in range(mods[0].n)))


def submodule_as_module(U: SubmodulePair):
    """U as an abstract module in its RREF bases, with the inclusion map
    into its parent.

    U was checked closed when it was built.  Row i of U1's basis times a^T is
    the image of basis vector i, and its coordinates in the RREF basis of U2
    are its entries at U2's pivots.
    """
    M = U.parent
    alphas = tuple((U.U1.basis @ a.transpose()).select_cols(U.U2.pivot_cols).transpose()
                   for a in M.alphas)
    sub = KroneckerModule(alphas)
    incl = Morphism(sub, M, U.U1.basis.transpose(), U.U2.basis.transpose())
    return sub, incl


def quotient(U: SubmodulePair):
    """The parent of U modulo U on the complement coordinates, with the
    projection."""
    M = U.parent
    Q1 = quotient_projection(U.U1)
    Q2 = quotient_projection(U.U2)
    pivots = set(U.U1.pivot_cols)
    free = [c for c in range(M.dim1) if c not in pivots]  # U1's quotient coordinates
    alphas = tuple(Q2 @ a.select_cols(free) for a in M.alphas)
    quot = KroneckerModule(alphas)
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


def _invertible_pair(f1: Matrix, f2: Matrix) -> bool:
    """Whether the square matrices f1 and f2 are both invertible."""
    return rank(f1) == f1.rows and rank(f2) == f2.rows


def find_isomorphism(M: KroneckerModule, N: KroneckerModule,
                     attempts: int = 64) -> IsoResult:
    """Tri-state isomorphism test.

    Certificates in the order tried: unequal dims (non-iso); M == N (iso); an
    invertible Hom(M, N) basis element (iso); dim Hom(M, N) <= 1, whose one
    basis element, if any, is then not invertible, nor is any multiple of it,
    or dim Hom(M, N) != dim Hom(N, M) (non-iso); an invertible one of
    `attempts` random combinations of the basis (iso); otherwise unknown.

    Each combination is one product, its coefficient row times the basis
    stacked as rows vec(f1) ++ vec(f2); only the certificate returned is
    built, and checked, as a ``Morphism``.
    """
    _check_same_category(M, N)
    if M.dims != N.dims:
        return IsoResult(NON_ISO)
    if M == N:
        return IsoResult(ISO, identity_morphism(M))
    H, _ = _hom_rows(_source(M), M.dims, N, lambda S, _: (K := sparse_kernel(S).basis, [K.rows]))
    for f1, f2 in _pairs(H, M, N):
        if _invertible_pair(f1, f2):
            return IsoResult(ISO, Morphism._checked(M, N, f1, f2))
    if H.rows <= 1 or H.rows != hom_dim(N, M):
        return IsoResult(NON_ISO)
    rng, f = random.Random(0xA11CE), M.field
    lo, hi = (0, f.characteristic) if f.is_finite else (-4, 5)
    for _ in range(attempts):
        (f1, f2), = _pairs(Matrix.from_rows(f, [[rng.randrange(lo, hi) for _ in range(H.rows)]]) @ H, M, N)
        if _invertible_pair(f1, f2):
            return IsoResult(ISO, Morphism(M, N, f1, f2))
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
    return KroneckerModule(tuple(alphas))
