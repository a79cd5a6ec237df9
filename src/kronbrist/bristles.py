"""Length-two indecomposables: construction, canonical sets, enumeration,
bristle vectors, maximal bristled submodule, saturation.

A bristle is determined by a nonzero coefficient tuple up to scaling; a
point is the one row of ``rref`` of its coordinates, first nonzero 1, making
equality a plain tuple comparison.  Enumeration over a finite field is
exhaustive and in lexicographic order of the normalized coordinates: the
rows of one integer matrix per (n, field), ``bristle_points``, which every
sweep reads with no object per point, so downstream reports are
reproducible byte for byte.  Saturation is read from the bilinear form and
the Hom dimension of every bristle into the module itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .linalg import (FieldSpec, InternalCheckFailed, Matrix, Subspace, block_lines,
                     projective_points, rref)
from .modules import (
    KroneckerModule,
    SubmodulePair,
    bristle_hom_dims,
    bristle_images,
    euler_form,
)


@dataclass(frozen=True)
class BristlePoint:
    """Point of the projective space indexing a bristle; first nonzero is 1."""

    field: FieldSpec
    coords: tuple

    n = property(lambda self: len(self.coords))

    def __post_init__(self):
        if all(c == 0 for c in self.coords):
            raise ValueError("bristle coordinates must not all vanish")
        lead = next(c for c in self.coords if c != 0)
        if lead != 1:
            raise ValueError("coordinates not normalized; use bristle_point()")

    def __str__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def bristle_point(n: int, field: FieldSpec, coords: Sequence) -> BristlePoint:
    """Normalize raw coordinates to the canonical representative: the one
    row of ``rref`` of the coordinates, first nonzero scaled to 1."""
    if len(coords) != n:
        raise ValueError(f"expected {n} coordinates, got {len(coords)}")
    line = rref(Matrix.from_rows(field, [list(coords)], cols=n))
    if line.is_zero():
        raise ValueError("bristle coordinates must not all vanish")
    return BristlePoint(field, line.basis.row(0))


def unit_point(n: int, field: FieldSpec, r: int) -> BristlePoint:
    """The point with a single 1 in slot r (1-indexed)."""
    return bristle_point(n, field, [int(i == r - 1) for i in range(n)])


def pair_point(n: int, field: FieldSpec, r: int, s: int) -> BristlePoint:
    """The point with 1 in slots r and s (1-indexed, r != s)."""
    if r == s:
        raise ValueError("pair point needs two distinct slots")
    return bristle_point(n, field, [int(i + 1 in (r, s)) for i in range(n)])


def bristle(point: BristlePoint) -> KroneckerModule:
    """The module (k, k) whose i-th map is multiplication by the i-th coordinate."""
    f = point.field
    alphas = tuple(Matrix.from_rows(f, [[c]], cols=1) for c in point.coords)
    return KroneckerModule(alphas)


def canonical_set(name: str, n: int, field: FieldSpec) -> list:
    """The distinguished bristle sets used throughout.

    "B0": the two unit points at n-1 and n plus the consecutive pair points
    (r, r+1) for r = 1..n (indices mod n), n+2 points in all.  "B0prime"
    drops the pair (n-1, n).  "B1prime" is the unit point at 1 plus all the
    consecutive pairs.
    """
    if n < 3:
        raise ValueError("canonical bristle sets are defined for n >= 3")
    pairs = [pair_point(n, field, r, r % n + 1) for r in range(1, n + 1)]
    if name == "B0":
        return [unit_point(n, field, n - 1), unit_point(n, field, n)] + pairs
    if name == "B0prime":
        return [unit_point(n, field, n - 1), unit_point(n, field, n)] + \
            [p for p in pairs if p != pair_point(n, field, n - 1, n)]
    if name == "B1prime":
        return [unit_point(n, field, 1)] + pairs
    raise ValueError(f"unknown canonical set {name!r}")


def enumerate_bristles(n: int, field: FieldSpec) -> list:
    """All (q^n - 1)/(q - 1) points, the rows of ``bristle_points``."""
    P = bristle_points(n, field)
    return [BristlePoint(field, P.row(i)) for i in range(P.rows)]


@lru_cache(maxsize=None)
def bristle_points(n: int, field: FieldSpec) -> Matrix:
    """The coordinates of every point, one row each, lexicographic by
    normalized coordinates (``projective_points``), built once per (n, field)."""
    if not field.is_finite:
        raise ValueError("enumeration requires a finite field")
    return projective_points(field, n)


# -- bristle vectors ----------------------------------------------------------

def is_bristle_vector(M: KroneckerModule, u: Sequence) -> bool:
    """True iff the images of u under the structure maps span one dimension."""
    if all(x == 0 for x in u):
        raise ValueError("bristle vectors must be nonzero")
    return bristle_type_of(M, u) is not None


def bristle_type_of(M: KroneckerModule, u: Sequence) -> Optional[BristlePoint]:
    """``bristle_types`` of the single vector u."""
    return bristle_types(M, Matrix.from_rows(M.field, [list(u)], cols=M.dim1))[0]


def bristle_types(M: KroneckerModule, U: Matrix) -> list:
    """For each row u of U, the point of the bristle u generates, or None
    when a_1 u, ..., a_n u do not span one line.  One product gives them in
    the row of u, read as a block of n rows (``block_lines``); for a bristle
    vector a_i u = p_i w, so the block's first nonzero column is p."""
    images = U @ M.stacked.transpose()
    return [None if col is None else bristle_point(M.n, M.field, col)
            for col in block_lines(images.reshape(U.rows * M.n, M.dim2), M.n)]


# -- bristled modules and saturation ------------------------------------------

def maximal_bristled_submodule(M: KroneckerModule) -> SubmodulePair:
    """Trace of all bristles plus the full vertex-2 space: at vertex 1 the
    span of the images of every bristle's Hom basis (``bristle_images``)."""
    if not M.field.is_finite:
        raise ValueError("maximal bristled submodule requires a finite field")
    X, _, _ = bristle_images(bristle_points(M.n, M.field), M)
    return SubmodulePair(M, rref(X), Subspace.full(M.field, M.dim2))


def is_bristled(M: KroneckerModule) -> bool:
    """True iff M is a factor of a direct sum of length-two modules."""
    return maximal_bristled_submodule(M).is_full()


def form_forces_extensions(M: KroneckerModule) -> bool:
    """True iff <(1, 1), dim M> = dim1 - (n - 1) dim2 < 0, which forces Ext^1(B, M) > 0
    for every bristle B, as hom - ext is that form and hom >= 0: M is not saturated."""
    return euler_form((1, 1), M.dims, M.n) < 0


def is_saturated(M: KroneckerModule) -> bool:
    """True iff Ext^1(B, M) = 0 for every bristle B over the (finite) field.

    Over the hereditary Kronecker algebra hom(B, M) - ext(B, M) = <(1, 1), dim M>
    = e (Assem, Simson and Skowronski, Elements of the Representation Theory of
    Associative Algebras 1), so M is saturated iff hom(B, M) = e for every
    bristle.  M with e < 0 is refused with no Hom system built.  Otherwise the
    points are swept in row order, in runs of one block system and one peel
    each (``bristle_hom_dims``), and the sweep stops at the first hom above e; one
    below e is a negative Ext, a bug, so it raises InternalCheckFailed, as
    ``ext1_dim`` does.
    """
    if not M.field.is_finite:
        raise ValueError("saturation requires finite-field enumeration; "
                         "test ext1_dim against an explicit list instead")
    e = euler_form((1, 1), M.dims, M.n)
    if e < 0:
        return False
    for d in bristle_hom_dims(bristle_points(M.n, M.field), M):
        if d < e:
            raise InternalCheckFailed(f"hom dim {d} below the bilinear form value {e}; "
                                      "Ext cannot be negative")
        if d > e:
            return False
    return True
