"""Reference routines the tests compare the library against.

Each answers a question the library answers by another route, and is kept
only as an oracle: ``trace_submodule`` forms the trace of any generators
from their Hom bases, one Hom system per generator (the library's
``bristle_traces`` and ``is_generated_by`` use one block system), and
``generates`` sums a set of traces outright (the library's subset search
carries running sums and rules out branches by dimension).
``projective_module`` builds the indecomposable projectives as modules,
which the library's resolution route for Ext reads by Yoneda instead.
"""

from __future__ import annotations

from typing import Sequence

from kronbrist.linalg import FieldSpec, Matrix, Subspace, image_subspace, sparse_kernel_rows, subspace_sum
from kronbrist.modules import KroneckerModule, SubmodulePair, _hom_stacks, simple_module


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
