"""Reference routines the tests compare the library against, and the
fixtures and module-file writer the tests share.

Each routine answers a question the library answers by another route, and
is kept only as an oracle: ``trace_submodule`` forms the trace of any
generators from their Hom bases as subspaces, one Hom system per generator
through the library's one route ``_hom_rows`` (the library's
``is_generated_by`` ranks the images of one block system per dimension
vector and forms no subspace);
``bristle_traces`` forms each bristle's trace as a ``SubmodulePair`` from
those images, one ``rref`` per point and vertex, over any field (the
library's subset search reduces all the traces in one stacked sweep and
builds no subspace); and ``generates`` sums a set of traces outright (the
search carries reduced rows and rules out branches by rank).
``projective_module`` builds the indecomposable projectives as modules,
which the library's resolution route for Ext reads by Yoneda instead.
``tau_minus`` is the inverse translate D tau D, the other half of the
tau/tau^- round trips; the library translates by tau alone.
``saturated_by_translate`` decides saturation by the Auslander-Reiten
formula, a Hom from every bristle into tau D M (the library compares each
bristle's Hom into M itself with the bilinear form).
``bristle_variety`` lists every bristle line of a module by brute force over
its projective points, where the library asks only whether the bristles
generate; ``projective_points_by_product`` lists those points as tuples,
one ``itertools.product`` per leading position (the library builds them as
one integer matrix from base-q digits).  ``bristle_type_by_images`` reads the type of a bristle vector
one image at a time, through ``apply``, ``from_spanning`` and
``coordinates``, a vector's coordinates in the RREF basis of a subspace
(the library forms all images with one product), and
``find_isomorphism_by_sums`` draws the isomorphism candidates as sums of
scaled basis morphisms, entry by entry (the library multiplies the
coefficient row by the stacked basis).  ``n2_generator_by_slope`` gives the
generator of the two-arrow family by the slope of the bristle, the
geometric series of a scalar slope and the last basis vector for the
infinite one (the library reads it off the point's image on the rational
normal curve, with no special case).

``kron_fixture`` reads a module from ``tests/data``, and
``write_module_file`` is the canonical writer that ``parse_module_file`` is
checked against: ``parse(write(M)) == M``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, product
from pathlib import Path
from typing import Optional, Sequence

from kronbrist.bristles import (BristlePoint, bristle_point, bristle_points,
                                bristle_type_of, form_forces_extensions, is_bristle_vector)
from kronbrist.linalg import (
    FieldSpec,
    Matrix,
    Subspace,
    image_subspace,
    joint_kernel,
    rank,
    rref,
    spanning_by_size,
    sparse_block_kernels,
    subspace_sum,
)
from kronbrist.modfile import parse_module_file
from kronbrist.modules import (
    ISO,
    NON_ISO,
    UNKNOWN,
    IsoResult,
    KroneckerModule,
    Morphism,
    SubmodulePair,
    _check_same_category,
    _hom_rows,
    _source,
    ar_translate,
    bristle_hom_dims,
    bristle_images,
    dual,
    hom_basis,
    hom_dim,
    identity_morphism,
    quotient,
    simple_module,
)

DATA = Path(__file__).parent / "data"


def trace_submodule(generators: Sequence[KroneckerModule], M: KroneckerModule) -> SubmodulePair:
    """Sum of images of every morphism from the generators into M: at each
    vertex the column space of [F_1 | ... | F_k] over every Hom basis."""
    images1, images2 = [Matrix.zeros(M.field, M.dim1, 0)], [Matrix.zeros(M.field, M.dim2, 0)]
    for G in generators:
        _check_same_category(G, M)
        H, _ = _hom_rows(_source(G), G.dims, M, sparse_block_kernels)
        t1 = M.dim1 * G.dim1
        images1.append(H.col_block(0, t1).columns_of_rows(M.dim1, G.dim1).transpose())
        images2.append(H.col_block(t1, H.cols).columns_of_rows(M.dim2, G.dim2).transpose())
    return SubmodulePair(M, image_subspace(Matrix.hstack(*images1)),
                         image_subspace(Matrix.hstack(*images2)))


def bristle_traces(points: Matrix, M: KroneckerModule) -> list:
    """The trace of the bristle B_p in M for every row p of ``points``, in
    row order, over any field: the row spaces of the rows
    ``bristle_images`` gives for p."""
    X, Y, counts = bristle_images(points, M)
    return [SubmodulePair(M, rref(X.select_rows(range(e - k, e))), rref(Y.select_rows(range(e - k, e))))
            for k, e in zip(counts, accumulate(counts))]


def generates(M: KroneckerModule, traces: Sequence[SubmodulePair]) -> bool:
    """Whether the given trace submodules of M together span all of M.

    Traces whose dimensions at a vertex sum to less than the dimension of M
    there cannot span it, so most subsets need no elimination at all.
    """
    if sum(tr.U1.dim for tr in traces) < M.dim1 or sum(tr.U2.dim for tr in traces) < M.dim2:
        return False
    return (subspace_sum(Subspace.zero(M.field, M.dim1), *(tr.U1 for tr in traces)).is_full()
            and subspace_sum(Subspace.zero(M.field, M.dim2), *(tr.U2 for tr in traces)).is_full())


def search_traces(M: KroneckerModule, traces: Sequence[SubmodulePair], max_size: int):
    """``spanning_by_size`` over the traces' bases as groups of rows, one
    stack per vertex, the shorter basis of each trace padded with zero rows."""
    counts = [max(tr.U1.dim, tr.U2.dim) for tr in traces]
    stacks = [Matrix.zeros(M.field, 0, d).vstack(*(
        U.basis.vstack(Matrix.zeros(M.field, k - U.dim, d)) for U, k in zip(spaces, counts)))
        for d, spaces in ((M.dim1, [tr.U1 for tr in traces]), (M.dim2, [tr.U2 for tr in traces]))]
    return spanning_by_size(stacks, counts, max_size)


def projective_module(n: int, field: FieldSpec, vertex: int) -> KroneckerModule:
    """P(1) = (k, k^n; coordinate inclusions); P(2) = S(2)."""
    if vertex == 2:
        return simple_module(n, field, 2)
    if vertex != 1:
        raise ValueError("vertex must be 1 or 2")
    alphas = tuple(Matrix.identity(field, n).col_block(i, i + 1) for i in range(n))
    return KroneckerModule(alphas)


def tau_minus(M: KroneckerModule) -> KroneckerModule:
    """The inverse translate D tau D M; injective summands die."""
    return dual(ar_translate(dual(M)))


def saturated_by_translate(M: KroneckerModule) -> bool:
    """Saturation by the Auslander-Reiten formula over a hereditary algebra:
    Ext^1(B, M) = D Hom(tau^- M, B) (Assem, Simson and Skowronski, Elements of
    the Representation Theory of Associative Algebras 1, Cor. IV.2.14), and
    Hom(tau^- M, B) = Hom(B, D tau^- M) as D B = B.  So M with no refusal by
    the bilinear form is saturated iff every bristle has no map into
    D tau^- M = tau D M, translated once."""
    if form_forces_extensions(M):
        return False
    X = ar_translate(dual(M))
    return all(d == 0 for _, d in bristle_hom_dims(bristle_points(M.n, M.field), X))


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
    reduced, _ = quotient(s1_generated_submodule(M))
    out = []
    for u in projective_points_by_product(M.field, reduced.dim1):
        if is_bristle_vector(reduced, u):
            out.append((u, bristle_type_of(reduced, u)))
    return out


def projective_points_by_product(field: FieldSpec, dim: int) -> list:
    """One representative per line of k^dim, first nonzero 1, lexicographic,
    as tuples: ``linalg.projective_points`` spelled out with
    ``itertools.product``.  Later leading positions come first, because
    their prefixes hold more zeros; within a leading position the tails run
    in product order."""
    pts = []
    for lead in reversed(range(dim)):
        prefix = (0,) * lead + (1,)
        for tail in product(range(field.order), repeat=dim - 1 - lead):
            pts.append(prefix + tail)
    return pts


def bristle_type_by_images(M: KroneckerModule, u: Sequence) -> Optional[BristlePoint]:
    """The point of the bristle that u generates, or None when the images
    of u do not span exactly one line: each image a_i u by ``apply``, their
    span by ``from_spanning``, and each image's coordinate on the line of
    the first nonzero one."""
    images = [a.apply(u) for a in M.alphas]
    if Subspace.from_spanning(M.field, M.dim2, images).dim != 1:
        return None
    gen = next(w for w in images if any(x != 0 for x in w))
    line = Subspace.from_spanning(M.field, M.dim2, [gen])
    return bristle_point(M.n, M.field, [coordinates(line, w)[0] for w in images])


def coordinates(U: Subspace, v: Sequence) -> Optional[tuple]:
    """Coordinates of v in the RREF basis of U, or None if v is outside:
    the basis is the identity on the pivot columns, so the only candidates
    are the entries of v there, and v is inside when they recombine to v."""
    w = Matrix.from_rows(U.field, [list(v)], cols=U.ambient_dim)
    coords = tuple(w.row(0)[c] for c in U.pivot_cols)
    if Matrix.from_rows(U.field, [list(coords)], cols=U.dim) @ U.basis != w:
        return None
    return coords


def n2_generator_by_slope(t: int, slope, field: FieldSpec) -> tuple:
    """The vector of ``n2_preinjective(t)`` generating the bristle of the
    given slope: (1, c, c^2, ..., c^t) for a scalar slope c, the point (1:c),
    and e_t for the slope None, the point (0:1) at infinity."""
    if slope is None:
        return tuple(field.normalize(int(i == t)) for i in range(t + 1))
    out, acc = [], field.normalize(1)
    for _ in range(t + 1):
        out.append(acc)
        acc = field.normalize(acc * field.normalize(slope))
    return tuple(out)


def _combination(field: FieldSpec, coeffs: Sequence, mats: Sequence[Matrix]) -> Matrix:
    """sum c * A over the coefficients c and the matrices A, entry by entry."""
    rows, cols = mats[0].rows, mats[0].cols
    out = [[field.normalize(0)] * cols for _ in range(rows)]
    for c, A in zip(coeffs, mats):
        for i in range(rows):
            out[i] = [field.normalize(x + field.normalize(c) * y) for x, y in zip(out[i], A.row(i))]
    return Matrix.from_rows(field, out, cols=cols)


def find_isomorphism_by_sums(M: KroneckerModule, N: KroneckerModule, attempts: int = 64) -> IsoResult:
    """``find_isomorphism`` with each random candidate formed as the sum of
    the basis morphisms scaled by its coefficients, from the same draws in
    the same order."""
    def invertible(fm):
        return rank(fm.f1) == fm.f1.rows and rank(fm.f2) == fm.f2.rows

    _check_same_category(M, N)
    if M.dims != N.dims:
        return IsoResult(NON_ISO)
    if M == N:
        return IsoResult(ISO, identity_morphism(M))
    basis = hom_basis(M, N)
    for fm in basis:
        if invertible(fm):
            return IsoResult(ISO, fm)
    if len(basis) <= 1 or len(basis) != hom_dim(N, M):
        return IsoResult(NON_ISO)
    rng = random.Random(0xA11CE)
    f = M.field
    lo, hi = (0, f.characteristic) if f.is_finite else (-4, 5)
    for _ in range(attempts):
        coeffs = [rng.randrange(lo, hi) for _ in basis]
        cand = Morphism(M, N, _combination(f, coeffs, [fm.f1 for fm in basis]),
                        _combination(f, coeffs, [fm.f2 for fm in basis]))
        if invertible(cand):
            return IsoResult(ISO, cand)
    return IsoResult(UNKNOWN)


def kron_fixture(name: str, field: FieldSpec) -> KroneckerModule:
    """The module of ``tests/data/<name>.kron``, over ``field``.  The
    fixtures there are written over gf(2) with entries 0 and 1 alone, so
    the same matrices define a module over any field."""
    text = (DATA / f"{name}.kron").read_text(encoding="utf-8")
    return parse_module_file(text.replace("field=gf(2)", f"field={field}", 1))


def _format_entry(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x)


def write_module_file(M: KroneckerModule) -> str:
    """M in the module file format, canonically: one space between entries,
    rationals in lowest terms, no comments."""
    out = [f"kron n={M.n} field={M.field} dims={M.dim1},{M.dim2}"]
    for i, alpha in enumerate(M.alphas, start=1):
        out.append(f"alpha {i}")
        if M.dim1 == 0:
            continue  # width-zero rows are omitted, mirroring the parser
        for r in range(M.dim2):
            out.append(" ".join(_format_entry(x) for x in alpha.row(r)))
    return "\n".join(out) + "\n"
