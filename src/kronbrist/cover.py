"""Finite-support representations of the labelled n-regular tree with
bipartite orientation, and their push-down to Kronecker modules.

Vertices are reduced label paths from a fixed base source: tuples of labels
in 1..n with no two consecutive labels equal.  Even path length means a
source (pushes down to vertex 1), odd length a sink (vertex 2).  Every
incident edge of a vertex carries a distinct label, so the neighbor of v
along label i is the parent when v ends in i, and the child v + (i,)
otherwise.

The named constructions here are the radius-2 ball around the base (whose
push-down is the second preinjective), the pruned ball missing one branch
(push-down: the translate of the first unit bristle), and the intermediate
rep sitting between them (push-down: the middle term of the almost-split
sequence ending in that bristle).  The ball's center space is realized
concretely as the kernel of the all-ones functional on k^n with the
consecutive-difference basis, which turns the center decomposition into a
literal coordinate identity.

A subrepresentation (``CoverSubrep``) is a subspace of the host's space at
each vertex, checked once for closure under the host's arrows.  The
push-down layout, the block of the pushed spaces that each vertex occupies,
is worked out in one place (``_offsets``); the push-down and every subspace
or vector carried into it go through that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .linalg import (
    DimensionMismatch,
    FieldSpec,
    Matrix,
    Subspace,
    joint_kernel,
    rank,
    subspace_sum,
)
from .modules import KroneckerModule, NotSubmodule, SubmodulePair, intertwining_blocks

TreeVertex = Tuple[int, ...]

BASE: TreeVertex = ()


def vertex_class(v: TreeVertex) -> int:
    """1 for sources (even distance from the base), 2 for sinks."""
    return 1 if len(v) % 2 == 0 else 2


def neighbor(v: TreeVertex, label: int) -> TreeVertex:
    """The unique neighbor of v along the edge with the given label."""
    if v and v[-1] == label:
        return v[:-1]
    return v + (label,)


def is_reduced(v: TreeVertex, n: int) -> bool:
    return all(1 <= x <= n for x in v) and all(a != b for a, b in zip(v, v[1:]))


@dataclass
class CoverRep:
    """Finite-support representation of the labelled tree.

    ``spaces`` maps supported vertices to positive dimensions; ``maps`` is
    keyed by (source vertex, label) for arrows whose endpoints are both
    supported.  A missing key means the zero map.
    """

    n: int
    field: FieldSpec
    spaces: Dict[TreeVertex, int]
    maps: Dict[Tuple[TreeVertex, int], Matrix]

    def __post_init__(self):
        for v, d in self.spaces.items():
            if not is_reduced(v, self.n):
                raise ValueError(f"vertex {v} is not a reduced label path")
            if d <= 0:
                raise ValueError("supported vertices must have positive dimension")
        for (v, label), mat in self.maps.items():
            if vertex_class(v) != 1:
                raise ValueError("arrow maps must be keyed by their source (a source vertex)")
            w = neighbor(v, label)
            if v not in self.spaces or w not in self.spaces:
                raise ValueError(f"arrow ({v}, {label}) leaves the support")
            if (mat.rows, mat.cols) != (self.spaces[w], self.spaces[v]):
                raise DimensionMismatch(f"arrow map shape mismatch at ({v}, {label})")
            if mat.field != self.field:
                raise DimensionMismatch("arrow map over the wrong field")

    def dim(self, v: TreeVertex) -> int:
        return self.spaces.get(v, 0)

    def arrow(self, v: TreeVertex, label: int) -> Matrix:
        """The map along (v, label): zero when none is stored, and of zero
        size when an endpoint is unsupported."""
        got = self.maps.get((v, label))
        if got is not None:
            return got
        return Matrix.zeros(self.field, self.dim(neighbor(v, label)), self.dim(v))


def _offsets(X: CoverRep) -> Dict[TreeVertex, int]:
    """The push-down layout: where each vertex's block starts in the space of
    its vertex class.  The blocks of a class follow one another in
    (depth, label path) order."""
    offsets, ends = {}, [0, 0]
    for v in sorted(X.spaces, key=lambda u: (len(u), u)):
        cls = vertex_class(v) - 1
        offsets[v] = ends[cls]
        ends[cls] += X.spaces[v]
    return offsets


def push_down(X: CoverRep) -> KroneckerModule:
    """Sum the spaces over each vertex class and assemble the label maps blockwise."""
    f = X.field
    offsets = _offsets(X)
    d1, d2 = (sum(d for v, d in X.spaces.items() if vertex_class(v) == cls) for cls in (1, 2))
    alphas = [f.zeros((d2, d1)) for _ in range(X.n)]
    for (v, label), mat in X.maps.items():
        r, c = offsets[neighbor(v, label)], offsets[v]
        alphas[label - 1][r:r + mat.rows, c:c + mat.cols] = mat.data
    return KroneckerModule(X.n, f, d1, d2, tuple(Matrix(f, a) for a in alphas))


def _place(field: FieldSpec, offsets: Dict[TreeVertex, int], total: int,
           parts: Dict[TreeVertex, np.ndarray]) -> np.ndarray:
    """Rows of one push-down space, of dimension ``total``: row r holds row r
    of every part in the block of the part's vertex and zeros elsewhere.
    The parts have equal row counts and vertices of one class."""
    rows = next(iter(parts.values())).shape[0]
    out = field.zeros((rows, total))
    for v, local in parts.items():
        out[:, offsets[v]:offsets[v] + local.shape[1]] = local
    return out


def _pair(pushed: KroneckerModule, rows1: np.ndarray, rows2: np.ndarray) -> SubmodulePair:
    """The subspace pair of ``pushed`` spanned by the given rows at each vertex."""
    f = pushed.field
    return SubmodulePair(pushed, Subspace.from_spanning(f, pushed.dim1, rows1),
                         Subspace.from_spanning(f, pushed.dim2, rows2))


# -- named constructions -------------------------------------------------------

def _center_map_row(n: int, j: int, basis_labels: Sequence[int]) -> list:
    """Row of the j-th coordinate functional in the consecutive-difference basis.

    basis_labels lists the indices i for which e(i) - e(i+1) is a basis
    vector of the center space; the functional of slot j evaluates to
    [j == i] - [j == i+1] on it.
    """
    return [(1 if j == i else 0) - (1 if j == i + 1 else 0) for i in basis_labels]


def _ball(n: int, field: FieldSpec, center_labels: Sequence[int],
          branches: Sequence[int], leafy: Sequence[int]) -> CoverRep:
    """Center, one sink per label in ``branches``, and the n - 1 leaves of
    each sink whose label is in ``leafy``.

    The center has the basis e(i) - e(i+1), i in center_labels; its arrow of
    label j is the j-th coordinate functional in that basis.  All other
    arrows are identities.
    """
    d = len(center_labels)
    spaces: Dict[TreeVertex, int] = {BASE: d}
    maps: Dict[Tuple[TreeVertex, int], Matrix] = {}
    for j in branches:
        spaces[(j,)] = 1
        maps[(BASE, j)] = Matrix.from_rows(field, [_center_map_row(n, j, center_labels)],
                                           cols=d)
        if j not in leafy:
            continue
        for i in range(1, n + 1):
            if i != j:
                spaces[(j, i)] = 1
                maps[((j, i), i)] = Matrix.identity(field, 1)
    return CoverRep(n, field, spaces, maps)


def build_ball_rep(n: int, field: FieldSpec) -> CoverRep:
    """Radius-2 ball around the base with center dimension n - 1.

    Center space: kernel of the all-ones functional on k^n with basis
    e(i) - e(i+1), i = 1..n-1.  The center arrow of label j is the j-th
    coordinate functional in that basis; all other arrows are identities.
    Push-down is the second preinjective, of dimension (n^2 - 1, n).
    """
    if n < 3:
        raise ValueError("the ball construction needs n >= 3")
    return _ball(n, field, range(1, n), range(1, n + 1), range(1, n + 1))


def build_tau_bristle_rep(n: int, field: FieldSpec) -> CoverRep:
    """Ball with the label-1 branch removed and the center cut to n - 2.

    Center space: vectors of the ball center killed by the label-1 arrow,
    with basis e(i) - e(i+1), i = 2..n-1.  Push-down is the translate of the
    first unit bristle, of dimension (n^2 - n - 1, n - 1).
    """
    if n < 3:
        raise ValueError("the pruned ball needs n >= 3")
    return _ball(n, field, range(2, n), range(2, n + 1), range(2, n + 1))


def build_mu_bristle_rep(n: int, field: FieldSpec) -> CoverRep:
    """Ball minus the leaves of the label-1 branch, center kept at n - 1.

    Sits strictly between the pruned ball and the full ball; its push-down
    is the middle term of the almost-split sequence ending in the first unit
    bristle, of dimension (n^2 - n, n).
    """
    if n < 3:
        raise ValueError("the intermediate rep needs n >= 3")
    return _ball(n, field, range(1, n), range(1, n + 1), range(2, n + 1))


# -- subrepresentations ----------------------------------------------------------

@dataclass(frozen=True)
class CoverSubrep:
    """Vertexwise subspaces of a host rep, closed under every host arrow.

    A vertex missing from ``spaces`` carries the zero subspace.  Only the
    stored host maps need checking: every other arrow is zero.
    """

    host: CoverRep
    spaces: Dict[TreeVertex, Subspace]

    def __post_init__(self):
        X = self.host
        for v, U in self.spaces.items():
            if U.ambient_dim != X.dim(v) or U.field != X.field:
                raise DimensionMismatch(f"subspace at {v} does not live in the host space there")
        for (v, label), mat in X.maps.items():
            U = self.spaces.get(v)
            if U is None:
                continue
            w = neighbor(v, label)
            target = self.spaces.get(w, Subspace.zero(X.field, X.dim(w)))
            if not target.contains_rows(U.basis @ mat.transpose()):
                raise NotSubmodule(f"not a subrep: the arrow ({v}, {label}) leaves the subspaces")

    def dim(self, v: TreeVertex) -> int:
        U = self.spaces.get(v)
        return U.dim if U is not None else 0


def _full_at(X: CoverRep, vertices: Sequence[TreeVertex]) -> Dict[TreeVertex, Subspace]:
    return {v: Subspace.full(X.field, X.dim(v)) for v in vertices}


def leaves_of(X: CoverRep) -> List[Tuple[TreeVertex, int]]:
    """All depth-2 vertices with their types (the label of their out-arrow)."""
    return [(v, v[1]) for v in sorted(X.spaces) if len(v) == 2]


def leaf_projective(X: CoverRep, leaf: TreeVertex) -> CoverSubrep:
    """Thin subrep on a leaf and its parent sink: the projective at the leaf."""
    if leaf not in X.spaces or len(leaf) != 2:
        raise ValueError(f"{leaf} is not a supported leaf")
    return CoverSubrep(X, _full_at(X, (leaf, leaf[:1])))


def y_component(X: CoverRep, j: int) -> CoverSubrep:
    """Restriction to one sink branch: the sink (j,) and its leaves."""
    if (j,) not in X.spaces:
        raise ValueError(f"branch {j} is not supported")
    leaves = [(j, i) for i in range(1, X.n + 1) if (j, i) in X.spaces]
    return CoverSubrep(X, _full_at(X, [(j,)] + leaves))


def covered_pair_starts(n: int, j: int) -> List[int]:
    """Labels i for which the three-vertex wedge over branch j is used:
    i distinct from j-1, j and n-1 (labels mod n)."""
    jm1 = (j - 2) % n + 1
    return [i for i in range(1, n + 1) if i not in {jm1, j, n - 1}]


def covered_singleton_types(n: int, j: int) -> List[int]:
    """Leaf types of branch j covered individually: n-1 and n, minus j."""
    return [i for i in (n - 1, n) if i != j]


def v_component(X: CoverRep, j: int, i: int) -> CoverSubrep:
    """Wedge subrep on leaves (j,i), (j,i+1) over the sink (j,)."""
    ip1 = i % X.n + 1
    la, lb = (j, i), (j, ip1)
    if la not in X.spaces or lb not in X.spaces:
        raise ValueError(f"wedge ({j}; {i},{ip1}) is not inside the support")
    return CoverSubrep(X, _full_at(X, (la, lb, (j,))))


def center_line(X: CoverRep, i: int, j: int) -> Subspace:
    """The joint kernel of all center arrows other than labels i and j."""
    others = [X.arrow(BASE, s) for s in range(1, X.n + 1) if s not in (i, j)]
    return joint_kernel(X.field, X.dim(BASE), others)


def w_component(X: CoverRep, i: int, j: int) -> CoverSubrep:
    """Path subrep through the center between the leaves (j,i) and (i,j).

    Supported on (j,i), (j,), the center line, (i,), (i,j); the center part
    is one-dimensional.
    """
    if i == j:
        raise ValueError("the path needs two distinct labels")
    path = ((j, i), (j,), BASE, (i,), (i, j))
    for v in path:
        if v not in X.spaces:
            raise ValueError(f"path between ({j},{i}) and ({i},{j}) leaves the support")
    line = center_line(X, i, j)
    if line.dim != 1:
        raise ValueError("center line is not one-dimensional; path undefined")
    return CoverSubrep(X, {**_full_at(X, path), BASE: line})


# -- push-down bookkeeping --------------------------------------------------------

def subrep_subpair(sub: CoverSubrep, pushed: KroneckerModule) -> SubmodulePair:
    """The push-down of a subrep as a subspace pair of ``push_down(sub.host)``."""
    f = sub.host.field
    offsets = _offsets(sub.host)
    rows = ([f.zeros((0, pushed.dim1))], [f.zeros((0, pushed.dim2))])
    for v, U in sub.spaces.items():
        cls = vertex_class(v)
        rows[cls - 1].append(_place(f, offsets, pushed.dims[cls - 1], {v: U.basis.data}))
    return _pair(pushed, np.vstack(rows[0]), np.vstack(rows[1]))


def extract_bristle_from_wedge(X: CoverRep, pushed: KroneckerModule,
                               j: int, i: int) -> SubmodulePair:
    """The bristle inside the pushed wedge over branch j with leaf types i, i+1.

    Generated by the sum of the two leaf generators; both relevant maps send
    it to the sink generator, so the type is the pair point (i, i+1).
    """
    f = X.field
    offsets = _offsets(X)
    one = f.array([[1]])
    return _pair(pushed,
                 _place(f, offsets, pushed.dim1, {(j, i): one, (j, i % X.n + 1): one}),
                 _place(f, offsets, pushed.dim2, {(j,): one}))


def extract_mij(X: CoverRep, i: int, j: int, pushed: Optional[KroneckerModule] = None):
    """Bristle submodule of the pushed path rep with equal images under both maps.

    The generator puts the label-j center value on the leaf (j,i), the center
    line generator in the middle, and the label-i center value on the leaf
    (i,j); its images under the label-i and label-j maps then coincide
    exactly, so the submodule is literally of pair type (i, j).

    Returns (pair, generator vector).
    """
    if pushed is None:
        pushed = push_down(X)
    f = X.field
    line = w_component(X, i, j).spaces[BASE].basis
    gen = Matrix(f, _place(f, _offsets(X), pushed.dim1, {
        BASE: line.data,
        (j, i): (line @ X.arrow(BASE, j).transpose()).data,
        (i, j): (line @ X.arrow(BASE, i).transpose()).data,
    }))
    img = gen @ pushed.alphas[i - 1].transpose()
    if img != gen @ pushed.alphas[j - 1].transpose() or img.is_zero():
        raise RuntimeError("path bristle generator failed its image identity")
    return _pair(pushed, gen.data, img.data), gen.row(0)


# -- cover Hom spaces and the bristled part ----------------------------------------

def cover_hom_dim(X: CoverRep, Y: CoverRep) -> int:
    """Dimension of the space of morphisms X -> Y (vertexwise intertwiners)."""
    if X.n != Y.n or X.field != Y.field:
        raise DimensionMismatch("cover reps over different trees or fields")
    f = X.field
    common = sorted(set(X.spaces) & set(Y.spaces), key=lambda v: (len(v), v))
    offsets = {}
    total = 0
    for v in common:
        offsets[v] = total
        total += X.spaces[v] * Y.spaces[v]
    if total == 0:
        return 0
    blocks = [f.zeros((0, total))]
    sources = {v for v in set(X.spaces) | set(Y.spaces) if vertex_class(v) == 1}
    for v in sorted(sources, key=lambda u: (len(u), u)):
        for label in range(1, X.n + 1):
            w = neighbor(v, label)
            if Y.dim(w) == 0 or X.dim(v) == 0:
                continue
            # phi_w Ax = Ay phi_v in the vertex maps phi_v and phi_w; a block
            # without columns belongs to a vertex outside the common support
            row = f.zeros((Y.dim(w) * X.dim(v), total))
            for u, block in zip((v, w), intertwining_blocks(X.arrow(v, label),
                                                            Y.arrow(v, label))):
                if block.cols:
                    row[:, offsets[u]:offsets[u] + block.cols] = block.data
            blocks.append(row)
    return total - rank(Matrix(f, np.vstack(blocks)))


def cover_bristle_at(n: int, field: FieldSpec, v: TreeVertex, label: int) -> CoverRep:
    """Thin rep on the single arrow (v, label); v must be a source."""
    if vertex_class(v) != 1:
        raise ValueError("bristle arrows start at sources")
    w = neighbor(v, label)
    return CoverRep(n, field, {v: 1, w: 1}, {(v, label): Matrix.identity(field, 1)})


def cover_max_bristled(X: CoverRep) -> CoverSubrep:
    """Trace of the in-support single-arrow thin reps plus the sink simples.

    At a sink the trace is everything; at a source it is the sum over
    in-support arrows of the joint kernel of all the other in-support arrows.
    Bristles supported on arrows leaving the support are not considered.
    X is bristled iff the result is all of X, which happens iff every source
    space is exhausted.
    """
    f = X.field
    spaces: Dict[TreeVertex, Subspace] = {}
    for v, d in X.spaces.items():
        if vertex_class(v) == 2:
            spaces[v] = Subspace.full(f, d)
            continue
        in_support = [label for label in range(1, X.n + 1) if X.dim(neighbor(v, label)) > 0]
        parts = [joint_kernel(f, d, [X.arrow(v, other) for other in in_support if other != label])
                 for label in in_support]
        spaces[v] = subspace_sum(Subspace.zero(f, d), *parts)
    return CoverSubrep(X, spaces)


def cover_is_bristled(X: CoverRep) -> bool:
    sub = cover_max_bristled(X)
    return all(sub.dim(v) == d for v, d in X.spaces.items())


def injective_star(n: int, field: FieldSpec, j: int) -> CoverRep:
    """The injective at the sink (j,): the sink plus all its source neighbors."""
    spaces: Dict[TreeVertex, int] = {(j,): 1, BASE: 1}
    maps: Dict[Tuple[TreeVertex, int], Matrix] = {(BASE, j): Matrix.identity(field, 1)}
    for i in range(1, n + 1):
        if i != j:
            spaces[(j, i)] = 1
            maps[((j, i), i)] = Matrix.identity(field, 1)
    return CoverRep(n, field, spaces, maps)


# -- the center decomposition and the generation equalities ------------------------

def verify_cover_equalities(n: int, field: FieldSpec,
                            pair_starts: Optional[Sequence[int]] = None
                            ) -> List[Tuple[str, bool]]:
    """Mechanical verification of the generation identities inside the ball.

    Checks, per branch, that the branch restriction is the sum of its two
    singleton leaf projectives and the wedges; that its push-down is the sum
    of the pushed singleton bristles and the wedge bristles; that each pushed
    path rep lies in the branch part plus its extracted bristle; that the
    center space is the direct sum of the chosen path lines; and that the
    whole push-down is the branch part plus the extracted bristles.  Returns
    one (key, holds) pair per identity.

    pair_starts defaults to 1..n-2 plus n (the choice avoiding the pair
    (n-1, n)); the center decomposition is additionally checked for the
    plain consecutive choice 1..n-1.
    """
    X = build_ball_rep(n, field)
    pushed = push_down(X)
    f = field
    checks: List[Tuple[str, bool]] = []
    if pair_starts is None:
        pair_starts = list(range(1, n - 1)) + [n]

    branches = []
    for j in range(1, n + 1):
        yj = y_component(X, j)
        singles = [leaf_projective(X, (j, i)) for i in covered_singleton_types(n, j)]
        parts = singles + [v_component(X, j, i) for i in covered_pair_starts(n, j)]
        sums = {v: subspace_sum(Subspace.zero(f, X.dim(v)),
                                *(p.spaces[v] for p in parts if v in p.spaces))
                for v in yj.spaces}
        checks.append((f"branch-decomposition-j{j}", sums == yj.spaces))

        nj = subrep_subpair(yj, pushed)
        pieces = [subrep_subpair(s, pushed) for s in singles]
        pieces += [extract_bristle_from_wedge(X, pushed, j, i) for i in covered_pair_starts(n, j)]
        s1 = subspace_sum(Subspace.zero(f, pushed.dim1), *(p.U1 for p in pieces))
        s2 = subspace_sum(Subspace.zero(f, pushed.dim2), *(p.U2 for p in pieces))
        checks.append((f"pushed-branch-decomposition-j{j}", (s1, s2) == (nj.U1, nj.U2)))
        branches.append(nj)

    N1 = subspace_sum(Subspace.zero(f, pushed.dim1), *(nj.U1 for nj in branches))
    N2 = subspace_sum(Subspace.zero(f, pushed.dim2), *(nj.U2 for nj in branches))

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            wp = subrep_subpair(w_component(X, i, j), pushed)
            mij, _ = extract_mij(X, i, j, pushed)
            ok = (subspace_sum(N1, mij.U1).contains(wp.U1)
                  and subspace_sum(N2, mij.U2).contains(wp.U2))
            checks.append((f"path-inside-branches-plus-bristle-{i}-{j}", ok))

    for tag, starts in (("consecutive", list(range(1, n))), ("chosen", list(pair_starts))):
        lines = [center_line(X, i, i % n + 1).basis.row(0) for i in starts]
        span = Subspace.from_spanning(f, n - 1, lines)
        checks.append((f"center-direct-sum-{tag}", span.dim == n - 1 and len(lines) == n - 1))

    mijs = [extract_mij(X, i, i % n + 1, pushed)[0] for i in pair_starts]
    M1 = subspace_sum(N1, *(mij.U1 for mij in mijs))
    M2 = subspace_sum(N2, *(mij.U2 for mij in mijs))
    checks.append(("full-generation", M1.is_full() and M2.is_full()))
    return checks
