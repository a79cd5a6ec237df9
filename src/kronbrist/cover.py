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
    image_subspace,
    joint_kernel,
    rank,
    subspace_sum,
)
from .modules import KroneckerModule, SubmodulePair, intertwining_blocks

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

    def arrow(self, v: TreeVertex, label: int) -> Optional[Matrix]:
        """The map along (v, label), or a zero matrix if endpoints are supported."""
        w = neighbor(v, label)
        dv, dw = self.dim(v), self.dim(w)
        if dv == 0 or dw == 0:
            return None
        got = self.maps.get((v, label))
        return got if got is not None else Matrix.zeros(self.field, dw, dv)

    def sorted_vertices(self, cls: int) -> List[TreeVertex]:
        return sorted((v for v in self.spaces if vertex_class(v) == cls),
                      key=lambda v: (len(v), v))


class PushDownIndex:
    """Block layout of a push-down: vertex -> (vertex class, offset, dim)."""

    def __init__(self, blocks: Dict[TreeVertex, Tuple[int, int, int]]):
        self.blocks = blocks

    def offset(self, v: TreeVertex) -> int:
        return self.blocks[v][1]

    def dim(self, v: TreeVertex) -> int:
        return self.blocks[v][2]

    def embed(self, v: TreeVertex, local: Sequence, total: int, field: FieldSpec) -> tuple:
        """A local vector at v as a vector of the full push-down space."""
        cls, off, d = self.blocks[v]
        out = [field.zero()] * total
        out[off:off + d] = [field.normalize(x) for x in local]
        return tuple(out)


def push_down(X: CoverRep) -> Tuple[KroneckerModule, PushDownIndex]:
    """Sum the spaces over each vertex class and assemble the label maps blockwise."""
    f = X.field
    sources = X.sorted_vertices(1)
    sinks = X.sorted_vertices(2)
    blocks: Dict[TreeVertex, Tuple[int, int, int]] = {}
    off = 0
    for v in sources:
        blocks[v] = (1, off, X.spaces[v])
        off += X.spaces[v]
    d1 = off
    off = 0
    for w in sinks:
        blocks[w] = (2, off, X.spaces[w])
        off += X.spaces[w]
    d2 = off
    alphas = []
    for label in range(1, X.n + 1):
        a = f.zeros((d2, d1))
        for v in sources:
            w = neighbor(v, label)
            mat = X.maps.get((v, label))
            if mat is None or w not in blocks:
                continue
            _, roff, _ = blocks[w]
            _, coff, _ = blocks[v]
            a[roff:roff + mat.rows, coff:coff + mat.cols] = mat.data
        alphas.append(Matrix(f, a))
    return KroneckerModule(X.n, f, d1, d2, tuple(alphas)), PushDownIndex(blocks)


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

@dataclass
class CoverSubrep:
    """A subrepresentation with explicit vertexwise inclusion matrices."""

    rep: CoverRep
    inclusion: Dict[TreeVertex, Matrix]  # host dim x sub dim, per supported vertex

    def vertex_subspaces(self) -> Dict[TreeVertex, Subspace]:
        return {v: image_subspace(inc) for v, inc in self.inclusion.items()}


def _check_subrep(X: CoverRep, sub: CoverSubrep):
    """Inclusion must intertwine the arrow maps of sub.rep with those of X."""
    S = sub.rep
    for (v, label), mat in S.maps.items():
        w = neighbor(v, label)
        host = X.arrow(v, label)
        if host is None:
            raise ValueError("subrep uses an arrow outside the host support")
        lhs = host @ sub.inclusion[v]
        rhs = sub.inclusion[w] @ mat
        if lhs != rhs:
            raise ValueError("inclusion does not intertwine the arrow maps")


def leaves_of(X: CoverRep) -> List[Tuple[TreeVertex, int]]:
    """All depth-2 vertices with their types (the label of their out-arrow)."""
    return [(v, v[1]) for v in sorted(X.spaces) if len(v) == 2]


def leaf_projective(X: CoverRep, leaf: TreeVertex) -> CoverSubrep:
    """Thin subrep on a leaf and its parent sink: the projective at the leaf."""
    if leaf not in X.spaces or len(leaf) != 2:
        raise ValueError(f"{leaf} is not a supported leaf")
    j, i = leaf
    f = X.field
    rep = CoverRep(X.n, f, {leaf: 1, (j,): 1}, {(leaf, i): Matrix.identity(f, 1)})
    sub = CoverSubrep(rep, {leaf: Matrix.identity(f, 1), (j,): X.maps[(leaf, i)]})
    _check_subrep(X, sub)
    return sub


def y_component(X: CoverRep, j: int) -> CoverSubrep:
    """Restriction to one sink branch: the sink (j,) and its leaves."""
    if (j,) not in X.spaces:
        raise ValueError(f"branch {j} is not supported")
    f = X.field
    spaces = {(j,): 1}
    maps = {}
    incl = {(j,): Matrix.identity(f, 1)}
    for i in range(1, X.n + 1):
        v = (j, i)
        if v in X.spaces:
            spaces[v] = 1
            maps[(v, i)] = X.maps[(v, i)]
            incl[v] = Matrix.identity(f, 1)
    sub = CoverSubrep(CoverRep(X.n, f, spaces, maps), incl)
    _check_subrep(X, sub)
    return sub


def covered_pair_starts(n: int, j: int) -> List[int]:
    """Labels i for which the three-vertex wedge over branch j is used:
    i distinct from j-1, j and n-1 (labels mod n)."""
    jm1 = (j - 2) % n + 1
    return [i for i in range(1, n + 1) if i not in {jm1, j, n - 1}]


def covered_singleton_types(n: int, j: int) -> List[int]:
    """Leaf types of branch j covered individually: n-1 and n, minus j."""
    return [i for i in (n - 1, n) if i != j]


def v_component(X: CoverRep, j: int, i: int) -> CoverSubrep:
    """Wedge subrep on leaves (j,i), (j,i+1) over the sink (j,), identities."""
    ip1 = i % X.n + 1
    la, lb = (j, i), (j, ip1)
    if la not in X.spaces or lb not in X.spaces:
        raise ValueError(f"wedge ({j}; {i},{ip1}) is not inside the support")
    f = X.field
    rep = CoverRep(X.n, f, {la: 1, lb: 1, (j,): 1},
                   {(la, i): Matrix.identity(f, 1), (lb, ip1): Matrix.identity(f, 1)})
    sub = CoverSubrep(rep, {la: Matrix.identity(f, 1), lb: Matrix.identity(f, 1),
                            (j,): Matrix.identity(f, 1)})
    _check_subrep(X, sub)
    return sub


def center_line(X: CoverRep, i: int, j: int) -> Subspace:
    """The joint kernel of all center arrows other than labels i and j."""
    others = [X.arrow(BASE, s) for s in range(1, X.n + 1) if s not in (i, j)]
    return joint_kernel(X.field, X.dim(BASE), [mat for mat in others if mat is not None])


def w_component(X: CoverRep, i: int, j: int) -> CoverSubrep:
    """Path subrep through the center between the leaves (j,i) and (i,j).

    Supported on (j,i), (j,), the center line, (i,), (i,j); the center part
    is one-dimensional.
    """
    if i == j:
        raise ValueError("the path needs two distinct labels")
    for v in ((j, i), (j,), BASE, (i,), (i, j)):
        if v not in X.spaces:
            raise ValueError(f"path between ({j},{i}) and ({i},{j}) leaves the support")
    f = X.field
    line = center_line(X, i, j)
    if line.dim != 1:
        raise ValueError("center line is not one-dimensional; path undefined")
    wcol = line.basis.transpose()
    pi_i = X.maps[(BASE, i)] @ wcol  # 1x1
    pi_j = X.maps[(BASE, j)] @ wcol
    rep = CoverRep(X.n, f,
                   {(j, i): 1, (j,): 1, BASE: 1, (i,): 1, (i, j): 1},
                   {((j, i), i): Matrix.identity(f, 1),
                    ((i, j), j): Matrix.identity(f, 1),
                    (BASE, i): pi_i,
                    (BASE, j): pi_j})
    sub = CoverSubrep(rep, {(j, i): Matrix.identity(f, 1),
                            (j,): Matrix.identity(f, 1),
                            BASE: wcol,
                            (i,): Matrix.identity(f, 1),
                            (i, j): Matrix.identity(f, 1)})
    _check_subrep(X, sub)
    return sub


# -- push-down bookkeeping --------------------------------------------------------

def subrep_subpair(X: CoverRep, sub: CoverSubrep, pushed: KroneckerModule,
                   index: PushDownIndex) -> SubmodulePair:
    """The push-down of a subrep as a canonical subspace pair of the push-down."""
    f = X.field
    v1, v2 = [], []
    for v, inc in sub.inclusion.items():
        target = v1 if vertex_class(v) == 1 else v2
        total = pushed.dim1 if vertex_class(v) == 1 else pushed.dim2
        for col in inc.transpose().data:
            target.append(index.embed(v, col, total, f))
    return SubmodulePair(pushed,
                         Subspace.from_spanning(f, pushed.dim1, v1),
                         Subspace.from_spanning(f, pushed.dim2, v2))


def extract_bristle_from_wedge(X: CoverRep, pushed: KroneckerModule, index: PushDownIndex,
                               j: int, i: int) -> SubmodulePair:
    """The bristle inside the pushed wedge over branch j with leaf types i, i+1.

    Generated by the sum of the two leaf generators; both relevant maps send
    it to the sink generator, so the type is the pair point (i, i+1).
    """
    ip1 = i % X.n + 1
    f = X.field
    u = [f.zero()] * pushed.dim1
    u[index.offset((j, i))] = f.one()
    u[index.offset((j, ip1))] = f.one()
    v = [f.zero()] * pushed.dim2
    v[index.offset((j,))] = f.one()
    return SubmodulePair(pushed,
                         Subspace.from_spanning(f, pushed.dim1, [u]),
                         Subspace.from_spanning(f, pushed.dim2, [v]))


def extract_mij(X: CoverRep, i: int, j: int,
                pushed: Optional[KroneckerModule] = None,
                index: Optional[PushDownIndex] = None):
    """Bristle submodule of the pushed path rep with equal images under both maps.

    The generator puts the label-j center value on the leaf (j,i), the center
    line generator in the middle, and the label-i center value on the leaf
    (i,j); its images under the label-i and label-j maps then coincide
    exactly, so the submodule is literally of pair type (i, j).

    Returns (pair, generator vector).
    """
    if pushed is None or index is None:
        pushed, index = push_down(X)
    f = X.field
    sub = w_component(X, i, j)
    wcol = sub.inclusion[BASE]
    pi_i = (X.maps[(BASE, i)] @ wcol).row(0)[0]
    pi_j = (X.maps[(BASE, j)] @ wcol).row(0)[0]
    u = list(index.embed(BASE, wcol.entries_flat(), pushed.dim1, f))
    u[index.offset((j, i))] = pi_j
    u[index.offset((i, j))] = pi_i
    img = pushed.alphas[i - 1].apply(u)
    img_j = pushed.alphas[j - 1].apply(u)
    if img != img_j or all(x == 0 for x in img):
        raise RuntimeError("path bristle generator failed its image identity")
    pair = SubmodulePair(pushed,
                         Subspace.from_spanning(f, pushed.dim1, [u]),
                         Subspace.from_spanning(f, pushed.dim2, [img]))
    return pair, tuple(u)


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

    def arrow(R: CoverRep, v: TreeVertex, label: int) -> Matrix:
        got = R.arrow(v, label)
        return got if got is not None else Matrix.zeros(f, R.dim(neighbor(v, label)), R.dim(v))

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
            for u, block in zip((v, w), intertwining_blocks(arrow(X, v, label),
                                                            arrow(Y, v, label))):
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
    spaces: Dict[TreeVertex, int] = {}
    incl: Dict[TreeVertex, Matrix] = {}
    maps: Dict[Tuple[TreeVertex, int], Matrix] = {}
    source_sub: Dict[TreeVertex, Subspace] = {}
    for v in X.sorted_vertices(1):
        in_support = [label for label in range(1, X.n + 1)
                      if X.dim(neighbor(v, label)) > 0]
        parts = [joint_kernel(f, X.spaces[v], [X.arrow(v, other) for other in in_support
                                                if other != label])
                 for label in in_support]
        tr = subspace_sum(Subspace.zero(f, X.spaces[v]), *parts)
        source_sub[v] = tr
        if tr.dim > 0:
            spaces[v] = tr.dim
            incl[v] = tr.basis.transpose()
    for w in X.sorted_vertices(2):
        spaces[w] = X.spaces[w]
        incl[w] = Matrix.identity(f, X.spaces[w])
    for (v, label), mat in X.maps.items():
        if v in spaces and neighbor(v, label) in spaces:
            maps[(v, label)] = mat @ incl[v]
    sub = CoverSubrep(CoverRep(X.n, f, spaces, maps), incl)
    _check_subrep(X, sub)
    return sub


def cover_is_bristled(X: CoverRep) -> bool:
    sub = cover_max_bristled(X)
    return all(sub.rep.dim(v) == d for v, d in X.spaces.items())


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

@dataclass
class EqualityCheck:
    key: str
    expected: object
    computed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


def _sum_vertex_subspaces(parts: Sequence[Dict[TreeVertex, Subspace]],
                          field: FieldSpec,
                          dims: Dict[TreeVertex, int]) -> Dict[TreeVertex, Subspace]:
    return {v: subspace_sum(Subspace.zero(field, d), *(part[v] for part in parts if v in part))
            for v, d in dims.items()}


def verify_cover_equalities(n: int, field: FieldSpec,
                            pair_starts: Optional[Sequence[int]] = None) -> list:
    """Mechanical verification of the generation identities inside the ball.

    Checks, per branch, that the branch restriction is the sum of its two
    singleton leaf projectives and the wedges; that its push-down is the sum
    of the pushed singleton bristles and the wedge bristles; that each pushed
    path rep lies in the branch part plus its extracted bristle; that the
    center space is the direct sum of the chosen path lines; and that the
    whole push-down is the branch part plus the extracted bristles.

    pair_starts defaults to 1..n-2 plus n (the choice avoiding the pair
    (n-1, n)); the center decomposition is additionally checked for the
    plain consecutive choice 1..n-1.
    """
    X = build_ball_rep(n, field)
    pushed, index = push_down(X)
    f = field
    checks: List[EqualityCheck] = []
    if pair_starts is None:
        pair_starts = list(range(1, n - 1)) + [n]

    for j in range(1, n + 1):
        yj = y_component(X, j)
        dims = {v: X.spaces[v] for v in yj.rep.spaces}
        parts = [leaf_projective(X, (j, i)).vertex_subspaces()
                 for i in covered_singleton_types(n, j)]
        parts += [v_component(X, j, i).vertex_subspaces()
                  for i in covered_pair_starts(n, j)]
        total = _sum_vertex_subspaces(parts, f, dims)
        full = {v: Subspace.full(f, d) for v, d in dims.items()}
        checks.append(EqualityCheck(f"branch-decomposition-j{j}", True, total == full))

    npair_parts = {}
    for j in range(1, n + 1):
        nj = subrep_subpair(X, y_component(X, j), pushed, index)
        parts = [subrep_subpair(X, leaf_projective(X, (j, i)), pushed, index)
                 for i in covered_singleton_types(n, j)]
        rhs1 = [p.U1 for p in parts]
        rhs2 = [p.U2 for p in parts]
        for i in covered_pair_starts(n, j):
            eb = extract_bristle_from_wedge(X, pushed, index, j, i)
            rhs1.append(eb.U1)
            rhs2.append(eb.U2)
        s1 = subspace_sum(Subspace.zero(f, pushed.dim1), *rhs1)
        s2 = subspace_sum(Subspace.zero(f, pushed.dim2), *rhs2)
        checks.append(EqualityCheck(f"pushed-branch-decomposition-j{j}", True,
                                    (s1, s2) == (nj.U1, nj.U2)))
        npair_parts[j] = nj

    N1 = subspace_sum(Subspace.zero(f, pushed.dim1), *(nj.U1 for nj in npair_parts.values()))
    N2 = subspace_sum(Subspace.zero(f, pushed.dim2), *(nj.U2 for nj in npair_parts.values()))

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            wp = subrep_subpair(X, w_component(X, i, j), pushed, index)
            mij, _ = extract_mij(X, i, j, pushed, index)
            ok = (subspace_sum(N1, mij.U1).contains(wp.U1)
                  and subspace_sum(N2, mij.U2).contains(wp.U2))
            checks.append(EqualityCheck(f"path-inside-branches-plus-bristle-{i}-{j}", True, ok))

    for tag, starts in (("consecutive", list(range(1, n))), ("chosen", list(pair_starts))):
        lines = [center_line(X, i, i % n + 1).basis.row(0) for i in starts]
        span = Subspace.from_spanning(f, n - 1, lines)
        ok = span.dim == n - 1 and len(lines) == n - 1
        checks.append(EqualityCheck(f"center-direct-sum-{tag}", True, ok))

    mijs = [extract_mij(X, i, i % n + 1, pushed, index)[0] for i in pair_starts]
    M1 = subspace_sum(N1, *(mij.U1 for mij in mijs))
    M2 = subspace_sum(N2, *(mij.U2 for mij in mijs))
    checks.append(EqualityCheck("full-generation", True,
                                M1.is_full() and M2.is_full()))
    return checks
