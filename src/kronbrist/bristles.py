"""Length-two indecomposables: construction, canonical sets, enumeration,
variety of bristle lines, maximal bristled submodule, saturation.

A bristle is determined by a nonzero coefficient tuple up to scaling; points
are normalized so the first nonzero coordinate is 1, making equality a plain
tuple comparison.  Enumeration over a finite field is exhaustive and in
lexicographic order of the normalized coordinates, so downstream reports are
reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .linalg import FieldSpec, Matrix, Subspace, joint_kernel
from .modules import (
    KroneckerModule,
    SubmodulePair,
    ar_translate,
    bristle_hom_dims,
    bristle_images,
    dual,
    quotient,
)


@dataclass(frozen=True)
class BristlePoint:
    """Point of the projective space indexing a bristle; first nonzero is 1."""

    n: int
    field: FieldSpec
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates")
        if all(c == 0 for c in self.coords):
            raise ValueError("bristle coordinates must not all vanish")
        lead = next(c for c in self.coords if c != 0)
        if lead != self.field.one():
            raise ValueError("coordinates not normalized; use bristle_point()")

    def __str__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def bristle_point(n: int, field: FieldSpec, coords: Sequence) -> BristlePoint:
    """Normalize raw coordinates to the canonical representative."""
    raw = [field.normalize(c) for c in coords]
    if len(raw) != n:
        raise ValueError(f"expected {n} coordinates, got {len(raw)}")
    lead = next((c for c in raw if c != 0), None)
    if lead is None:
        raise ValueError("bristle coordinates must not all vanish")
    inv = field.inv(lead)
    return BristlePoint(n, field, tuple(field.mul(inv, c) for c in raw))


def unit_point(n: int, field: FieldSpec, r: int) -> BristlePoint:
    """The point with a single 1 in slot r (1-indexed)."""
    return bristle_point(n, field, [field.one() if i == r - 1 else field.zero()
                                    for i in range(n)])


def pair_point(n: int, field: FieldSpec, r: int, s: int) -> BristlePoint:
    """The point with 1 in slots r and s (1-indexed, r != s)."""
    if r == s:
        raise ValueError("pair point needs two distinct slots")
    return bristle_point(n, field, [field.one() if i + 1 in (r, s) else field.zero()
                                    for i in range(n)])


def bristle(point: BristlePoint) -> KroneckerModule:
    """The module (k, k) whose i-th map is multiplication by the i-th coordinate."""
    f = point.field
    alphas = tuple(Matrix.from_rows(f, [[c]], cols=1) for c in point.coords)
    return KroneckerModule(point.n, f, 1, 1, alphas)


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


def _projective_points(field: FieldSpec, dim: int) -> list:
    """One representative per line of k^dim, first nonzero 1, lexicographic.

    Later leading positions come first, because their prefixes hold more
    zeros; within a leading position the tails run in product order.
    """
    pts = []
    for lead in reversed(range(dim)):
        prefix = (field.zero(),) * lead + (field.one(),)
        for tail in itertools.product(list(field.elements()), repeat=dim - 1 - lead):
            pts.append(prefix + tail)
    return pts


def enumerate_bristles(n: int, field: FieldSpec) -> list:
    """All (q^n - 1)/(q - 1) points, lexicographic by normalized coordinates."""
    if not field.is_finite:
        raise ValueError("enumeration requires a finite field")
    return [BristlePoint(n, field, c) for c in _projective_points(field, n)]


@lru_cache(maxsize=None)
def bristle_modules(n: int, field: FieldSpec) -> tuple:
    """The bristle of every point, in ``enumerate_bristles`` order, built once
    per (n, field): modules are immutable, so callers share them."""
    return tuple(bristle(p) for p in enumerate_bristles(n, field))


@lru_cache(maxsize=None)
def bristle_points(n: int, field: FieldSpec) -> Matrix:
    """The coordinates of every point, one row each, in ``enumerate_bristles``
    order, built once per (n, field)."""
    return Matrix.from_rows(field, [p.coords for p in enumerate_bristles(n, field)], cols=n)


# -- bristle vectors and the variety of bristle lines ------------------------

def is_bristle_vector(M: KroneckerModule, u: Sequence) -> bool:
    """True iff the images of u under the structure maps span one dimension."""
    if all(x == 0 for x in u):
        raise ValueError("bristle vectors must be nonzero")
    images = [a.apply(u) for a in M.alphas]
    span = Subspace.from_spanning(M.field, M.dim2, images)
    return span.dim == 1


def bristle_type_of(M: KroneckerModule, u: Sequence) -> BristlePoint:
    """The point indexing the bristle generated by u (requires is_bristle_vector)."""
    f = M.field
    images = [a.apply(u) for a in M.alphas]
    gen = next((w for w in images if any(x != 0 for x in w)), None)
    if gen is None:
        raise ValueError("u generates no bristle: all images vanish")
    line = Subspace.from_spanning(f, M.dim2, [gen])
    coeffs = []
    for w in images:
        coords = line.coordinates(w)
        if coords is None:
            raise ValueError("u is not a bristle vector: images span more than a line")
        coeffs.append(coords[0])
    return bristle_point(M.n, f, coeffs)


def s1_generated_submodule(M: KroneckerModule) -> SubmodulePair:
    """Largest submodule generated by the simple at vertex 1: (cap of kernels, 0)."""
    return SubmodulePair(M, joint_kernel(M.field, M.dim1, M.alphas),
                         Subspace.zero(M.field, M.dim2))


def bristle_variety(M: KroneckerModule) -> list:
    """All bristle lines of M (after splitting off the vertex-1 socle).

    Returns (normalized generator in the reduced module, bristle type) pairs
    in lexicographic order of the generator.  Finite fields only; over the
    rationals use is_bristle_vector as a membership test instead.
    """
    if not M.field.is_finite:
        raise ValueError("variety enumeration requires a finite field; "
                         "use is_bristle_vector for membership over the rationals")
    reduced, _ = quotient(M, s1_generated_submodule(M))
    out = []
    for u in _projective_points(M.field, reduced.dim1):
        if is_bristle_vector(reduced, u):
            out.append((u, bristle_type_of(reduced, u)))
    return out


# -- bristled modules and saturation ------------------------------------------

def maximal_bristled_submodule(M: KroneckerModule) -> SubmodulePair:
    """Trace of all bristles plus the full vertex-2 space: at vertex 1 the
    span of the images of every bristle's Hom basis (``bristle_images``)."""
    if not M.field.is_finite:
        raise ValueError("maximal bristled submodule requires a finite field")
    X, _ = bristle_images(bristle_points(M.n, M.field), M)
    return SubmodulePair(M, Subspace.row_space(X), Subspace.full(M.field, M.dim2))


def is_bristled(M: KroneckerModule) -> bool:
    """True iff M is a factor of a direct sum of length-two modules."""
    return maximal_bristled_submodule(M).is_full()


def form_forces_extensions(M: KroneckerModule) -> bool:
    """True iff (n - 1) dim2 > dim1, which forces Ext^1(B, M) > 0 for every
    bristle B: hom - ext = <(1, 1), dim M> = dim1 - (n - 1) dim2, and
    hom >= 0.  Such an M is not saturated."""
    return (M.n - 1) * M.dim2 > M.dim1


def is_saturated(M: KroneckerModule) -> bool:
    """True iff Ext^1(B, M) = 0 for every bristle B over the (finite) field.

    Two exact steps decide it.  First the bilinear form: when
    ``form_forces_extensions(M)``, M is refused at once, with no Hom system
    built.  Otherwise the Auslander-Reiten formula over a hereditary algebra,
    Ext^1(B, M) = D Hom(tau^- M, B) (Assem, Simson and Skowronski,
    Elements of the Representation Theory of Associative Algebras 1,
    Cor. IV.2.14), and duality, Hom(tau^- M, B) = Hom(B, D tau^- M) as
    D B = B, turn each bristle's Ext into a Hom from the bristle into
    D tau^- M = tau D M, translated once.  Its unknowns are the entries of
    tau^- M's two spaces, far fewer than M's when M is preinjective.  One
    block system holds these Homs for all bristles and is peeled once
    (``bristle_hom_dims``).  The test stops at the first nonzero Hom: the
    bristles the peel decided come first, then the others in enumeration
    order, so no core past that bristle is eliminated.  ext1_dim and
    ext1_dim_via_resolution compute the same numbers directly.
    """
    if not M.field.is_finite:
        raise ValueError("saturation requires finite-field enumeration; "
                         "test ext1_dim against an explicit list instead")
    if form_forces_extensions(M):
        return False
    X = ar_translate(dual(M), "tau")  # D tau^- M, as tau^- is D tau D
    return all(d == 0 for _, d in bristle_hom_dims(bristle_points(M.n, M.field), X))
