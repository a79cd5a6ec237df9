"""Reference routines the tests compare the library against, and the
fixtures and module-file writer the tests share.

Each routine answers a question the library answers by another route, and
is kept only as an oracle: ``trace_submodule`` forms the trace of any
generators from their Hom bases, one Hom system per generator (the library's
``bristle_traces`` and ``is_generated_by`` use one block system), and
``generates`` sums a set of traces outright (the library's subset search
carries running sums and rules out branches by dimension).
``projective_module`` builds the indecomposable projectives as modules,
which the library's resolution route for Ext reads by Yoneda instead.
``tau_minus`` is the inverse translate D tau D, the other half of the
tau/tau^- round trips; the library translates by tau alone.
``bristle_variety`` lists every bristle line of a module by brute force over
its projective points, where the library asks only whether the bristles
generate.  ``bristle_type_by_images`` reads the type of a bristle vector
one image at a time, through ``apply``, ``from_spanning`` and
``coordinates`` (the library forms all images with one product), and
``find_isomorphism_by_sums`` draws the isomorphism candidates as sums of
scaled basis morphisms, entry by entry (the library multiplies the
coefficient row by the stacked basis).

``kron_fixture`` reads a module from ``tests/data``, and
``write_module_file`` is the canonical writer that ``parse_module_file`` is
checked against: ``parse(write(M)) == M``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from kronbrist.bristles import BristlePoint, _projective_points, bristle_point, bristle_type_of, is_bristle_vector
from kronbrist.linalg import (
    FieldSpec,
    Matrix,
    Subspace,
    image_subspace,
    joint_kernel,
    rank,
    sparse_kernel_rows,
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
    _hom_stacks,
    ar_translate,
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
        k, F1, F2 = _hom_stacks(G, M, sparse_kernel_rows)
        if k:
            images1.append(F1.transpose_blocks(k, 1))
            images2.append(F2.transpose_blocks(k, 1))
    return SubmodulePair(M, image_subspace(Matrix.hstack(*images1)),
                         image_subspace(Matrix.hstack(*images2)))


def generates(M: KroneckerModule, traces: Sequence[SubmodulePair]) -> bool:
    """Whether the given trace submodules of M together span all of M.

    Traces whose dimensions at a vertex sum to less than the dimension of M
    there cannot span it, so most subsets need no elimination at all.
    """
    if sum(tr.U1.dim for tr in traces) < M.dim1 or sum(tr.U2.dim for tr in traces) < M.dim2:
        return False
    return (subspace_sum(Subspace.zero(M.field, M.dim1), *(tr.U1 for tr in traces)).is_full()
            and subspace_sum(Subspace.zero(M.field, M.dim2), *(tr.U2 for tr in traces)).is_full())


def projective_module(n: int, field: FieldSpec, vertex: int) -> KroneckerModule:
    """P(1) = (k, k^n; coordinate inclusions); P(2) = S(2)."""
    if vertex == 2:
        return simple_module(n, field, 2)
    if vertex != 1:
        raise ValueError("vertex must be 1 or 2")
    alphas = tuple(Matrix.identity(field, n).col_block(i, i + 1) for i in range(n))
    return KroneckerModule(n, field, 1, n, alphas)


def tau_minus(M: KroneckerModule) -> KroneckerModule:
    """The inverse translate D tau D M; injective summands die."""
    return dual(ar_translate(dual(M)))


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
    return bristle_point(M.n, M.field, [line.coordinates(w)[0] for w in images])


def _combination(field: FieldSpec, coeffs: Sequence, mats: Sequence[Matrix]) -> Matrix:
    """sum c * A over the coefficients c and the matrices A, entry by entry."""
    rows, cols = mats[0].rows, mats[0].cols
    out = [[field.zero()] * cols for _ in range(rows)]
    for c, A in zip(coeffs, mats):
        for i in range(rows):
            out[i] = [field.add(x, field.mul(field.normalize(c), y)) for x, y in zip(out[i], A.row(i))]
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
    if not basis or len(basis) != hom_dim(N, M):
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
