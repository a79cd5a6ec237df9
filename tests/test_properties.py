"""Property tests: rank agrees over Q, over a large prime field and with
sympy, and the whole RREF over Q (matrix and pivots) equals sympy's; the
RREF over GF(2), GF(5) and GF(2^31 - 1) equals a textbook Gauss-Jordan
that divides at every step, and leaves its input unchanged, a single row
(reduced without the column loop) included; one stacked sweep reduces
every member as ``rref`` reduces it alone; the rank and
kernel of a sparse system, peeled, equal those of the system
written out densely; the Hom systems of modules and of cover
representations have the kernels of the systems written out with np.kron;
Hom and Ext dimensions are invariant under a change of basis at both
vertices; the two Ext routes and both forms of the Auslander-Reiten
formula agree; module files round-trip exactly; the pruned subset search
counts the generating subsets of each size as brute force does; a
product summed over the nonzeros of either operand equals the dense one,
and over Q every product equals one summed in Python ints, on both sides
of the int64 bound, and integer input reads as the same numerators as
the same entries given as Fractions;
the block system of many sources, bristles among them, gives block by
block the Hom systems the kron formula writes out; the kernels of all
diagonal blocks from one peel span the kernel of each block written out
densely, and the bristle traces from one system are the traces built one
bristle at a time; the canonical kernel from one elimination equals the
one from two; generation decided by rank agrees with the canonical trace;
a sum of subspaces extended from its largest summand, and the push-down
of a cover subrep placed block by block, equal the reduced row-echelon
form of all their rows, denominator and dtype included; the type of a
bristle vector from one product of its images, and the isomorphism
candidates from one product with the stacked Hom basis, equal the routes
that take one image and one scaled basis morphism at a time; and mixing the
arrows by an invertible h, which sends the bristle B_p to B_hp, carries
Hom dimensions, traces and bristle types from p to hp and keeps
saturation and bristledness, while new bases at both vertices keep them
at every point, with generation by B0 and the subset search's counts.

hypothesis runs derandomized with few examples, so every run checks the
same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from kronbrist import cover  # noqa: E402
from kronbrist.bristles import (  # noqa: E402
    bristle,
    bristle_point,
    bristle_points,
    canonical_set,
    bristle_type_of,
    bristle_types,
    enumerate_bristles,
    is_bristle_vector,
    is_bristled,
    is_saturated,
    unit_point,
)
from kronbrist.cover import (  # noqa: E402
    _cover_hom_system,
    _place,
    build_ball_rep,
    build_mu_bristle_rep,
    build_tau_bristle_rep,
    cover_bristle_at,
    cover_hom_dim,
    neighbor,
    verify_cover_equalities,
    vertex_class,
)
from kronbrist import linalg, scenarios  # noqa: E402
from kronbrist.linalg import (  # noqa: E402
    GF,
    QQ,
    Matrix,
    SparseSystem,
    Subspace,
    hom_system,
    kernel_basis,
    quotient_projection,
    rank,
    rref,
    spanning_by_size,
    sparse_block_kernels,
    sparse_block_ranks,
    sparse_kernel,
    sparse_rank,
    subspace_sum,
)
from kronbrist.families import preinjective  # noqa: E402
from kronbrist.modfile import parse_module_file  # noqa: E402
from kronbrist.modules import (  # noqa: E402
    KroneckerModule,
    SubmodulePair,
    _source,
    ar_translate,
    bristle_hom_dims,
    bristle_images,
    direct_sum,
    ext1_dim,
    ext1_dim_via_resolution,
    find_isomorphism,
    hom_basis,
    hom_dim,
    images_span,
    is_generated_by,
    simple_module,
    zero_module,
)

from oracles import (  # noqa: E402
    bristle_traces,
    bristle_type_by_images,
    find_isomorphism_by_sums,
    generates,
    product_by_objects,
    search_traces,
    tau_minus,
    trace_submodule,
    write_module_file,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=25, deadline=None)
FIELDS = [GF(2), GF(3), GF(5), QQ]
MERSENNE = GF(2**31 - 1)


def entries(field):
    if field.is_finite:
        return st.integers(0, field.characteristic - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def small_int_matrices(draw):
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return [[draw(st.integers(-3, 3)) for _ in range(c)] for _ in range(r)]


@st.composite
def matrices(draw, field, rows, cols):
    return Matrix.from_rows(field, [[draw(entries(field)) for _ in range(cols)]
                                    for _ in range(rows)], cols=cols)


@st.composite
def modules(draw, field, n, max_dim=3):
    d1, d2 = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    alphas = tuple(draw(matrices(field, d2, d1)) for _ in range(n))
    return KroneckerModule(alphas)


@st.composite
def invertible(draw, field, d):
    """L U with L unit lower and U upper triangular with a nonzero diagonal."""
    nonzero = entries(field).filter(lambda x: x != 0)
    L = [[1 if i == j else (draw(entries(field)) if j < i else 0) for j in range(d)]
         for i in range(d)]
    U = [[draw(nonzero) if i == j else (draw(entries(field)) if j > i else 0) for j in range(d)]
         for i in range(d)]
    return Matrix.from_rows(field, L, cols=d) @ Matrix.from_rows(field, U, cols=d)


def inverse(g: Matrix) -> Matrix:
    d = g.rows
    return rref(g.hstack(Matrix.identity(g.field, d))).basis.col_block(d, 2 * d)


@st.composite
def module_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    return draw(modules(field, n)), draw(modules(field, n))


def conjugated(M: KroneckerModule, g1: Matrix, g2: Matrix) -> KroneckerModule:
    """M in new bases at both vertices: alpha -> g2 alpha g1^-1."""
    h1 = inverse(g1)
    return KroneckerModule(tuple(g2 @ a @ h1 for a in M.alphas))


@st.composite
def rebased(draw, M):
    """M in new bases at both vertices, drawn."""
    return conjugated(M, draw(invertible(M.field, M.dim1)), draw(invertible(M.field, M.dim2)))


@PROPERTY
@given(small_int_matrices())
def test_rank_over_q_matches_sympy_and_large_prime(rows):
    # entries in [-3, 3], at most 6 x 6: every minor has absolute value at
    # most 6! * 3^6 < 2^31 - 1, so it vanishes over Q iff it vanishes mod p
    sympy = pytest.importorskip("sympy")
    r = rank(Matrix.from_rows(QQ, rows))
    assert r == sympy.Matrix(rows).rank()
    assert r == rank(Matrix.from_rows(MERSENNE, rows))


@st.composite
def rational_matrices(draw):
    """Rows of Fractions with small denominators or numerators near 2^70,
    plus repeated and zero rows, in a drawn order."""
    c = draw(st.integers(1, 6))
    entry = st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        st.builds(lambda k, d: Fraction(2**70 + k, d), st.integers(-3, 3), st.integers(1, 7)))
    rows = [[draw(entry) for _ in range(c)] for _ in range(draw(st.integers(1, 5)))]
    rows += draw(st.lists(st.sampled_from(rows + [[Fraction(0)] * c]), max_size=3))
    return draw(st.permutations(rows))


@PROPERTY
@given(rational_matrices())
def test_rref_over_q_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    U = rref(Matrix.from_rows(QQ, rows))
    S, sympy_pivots = sympy.Matrix(rows).rref()
    assert U.pivot_cols == tuple(sympy_pivots) and U.dim == len(sympy_pivots)
    assert [list(U.basis.row(i)) for i in range(U.dim)] + [[0] * S.cols] * (S.rows - U.dim) == \
        [[Fraction(int(x.p), int(x.q)) for x in S.row(i)] for i in range(S.rows)]


def textbook_rref(rows, p):
    """Gauss-Jordan on lists of Python ints mod p, dividing at every step:
    the pivot row is divided by its pivot and then subtracted from every
    other row with a nonzero in the pivot column."""
    R, pivots = [list(row) for row in rows], []
    for c in range(len(R[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], -1, p)
        R[r] = [x * inv % p for x in R[r]]
        for k in range(len(R)):
            if k != r and R[k][c]:
                R[k] = [(x - R[k][c] * y) % p for x, y in zip(R[k], R[r])]
        pivots.append(c)
    return R, pivots


@st.composite
def prime_field_rows(draw):
    """(field, rows): up to 12 x 30 over GF(2), GF(5) or GF(2^31 - 1), with
    entries drawn often from {0, 1, p - 1}, some columns zero, and zero and
    repeated rows, in a drawn order."""
    field = draw(st.sampled_from([GF(2), GF(5), MERSENNE]))
    p = field.characteristic
    entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    r, c = draw(st.integers(1, 10)), draw(st.integers(1, 30))
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=c // 2))
    rows = [[0 if j in zero_cols else draw(entry) for j in range(c)] for _ in range(r)]
    rows += draw(st.lists(st.sampled_from(rows + [[0] * c]), max_size=2))
    return field, draw(st.permutations(rows))


@settings(PROPERTY, max_examples=150)
@given(prime_field_rows())
def test_rref_over_prime_fields_matches_textbook_gauss_jordan(case):
    """The elimination kernel over GF(p), which updates only the rows and
    columns a pivot touches, gives the textbook RREF and pivots, and leaves
    its input array as it was."""
    field, rows = case
    a = np.array(rows, dtype=np.int64)
    before = a.copy()
    R, pivots, den = linalg._rref(a, field)
    expected, expected_pivots = textbook_rref(rows, field.characteristic)
    assert np.array_equal(a, before)
    assert (R.tolist(), pivots, den) == (expected, expected_pivots, 1)


@st.composite
def single_rows(draw):
    """(field, row): one row of up to 12 integers over GF(2), GF(2^31 - 1)
    or Q, entries drawn often from {0, 1, p - 1} (over Q from -3..3), so
    zero rows and rows with a negative first nonzero come up."""
    field = draw(st.sampled_from([GF(2), MERSENNE, QQ]))
    p = field.characteristic
    entry = (st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1)) if p
             else st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-3, 3)))
    return field, draw(st.lists(entry, min_size=1, max_size=12))


@settings(PROPERTY, max_examples=100)
@given(single_rows())
@example((QQ, [0, -6, 4, 0]))
@example((QQ, [0, 0, 0]))
@example((MERSENNE, [0, 2**31 - 2, 5]))
def test_one_row_rref_matches_textbook_gauss_jordan(case):
    """A single row is reduced without the column loop: over GF(p) it is
    the textbook RREF, and over both fields it gives the integers,
    pivots and denominator the column loop gives the row over a zero row;
    over Q that is the row divided by its first nonzero."""
    field, row = case
    a = np.array([row], dtype=field.dtype)
    R, pivots, den = linalg._rref(a, field)
    looped = linalg._rref(np.vstack([a, np.zeros_like(a)]), field)
    assert (R.tolist(), pivots, den) == (looped[0][:1].tolist(), looped[1], looped[2])
    assert np.array_equal(a, np.array([row], dtype=field.dtype))
    if field.is_finite:
        assert (R.tolist(), pivots) == textbook_rref([row], field.characteristic)
    else:
        first = next((x for x in row if x), 1)
        assert [Fraction(x, den) for x in R[0]] == [Fraction(x, first) for x in row]


def test_one_row_rref_over_q_keeps_fractional_entries():
    """``rref`` of one row with fractional entries is that row divided by
    its first nonzero, with the pivot columns the textbook gives."""
    row = [0, Fraction(-2, 3), Fraction(1, 2), 0, Fraction(5, 7)]
    U = rref(Matrix.from_rows(QQ, [row]))
    assert (U.pivot_cols, U.dim) == ((1,), 1)
    assert list(U.basis.row(0)) == [x / row[1] for x in row]


@st.composite
def stacks(draw):
    """(field, cols, members): up to five members of one width cols in
    0..6, each split into one to three parts of up to five rows, over
    GF(2), GF(3) or GF(2^31 - 1) (entries often p - 1, so products come
    near 2^62).  A member is all zero, random, rank
    deficient (a row is a combination of two others) or of full rank
    (unit upper triangular, rows shuffled)."""
    field = draw(st.sampled_from([GF(2), GF(3), MERSENNE]))
    cols = draw(st.integers(0, 6))
    entry = entries(field)
    if field is MERSENNE:
        entry = st.one_of(st.sampled_from([0, 1, 2**31 - 2, 2**31 - 3]), entry)

    def random_rows(count):
        return [[draw(entry) for _ in range(cols)] for _ in range(count)]

    members = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["zero", "random", "deficient", "full"]))
        if kind == "zero":
            rows = [[0] * cols for _ in range(draw(st.integers(0, 4)))]
        elif kind == "random":
            rows = random_rows(draw(st.integers(0, 5)))
        elif kind == "deficient":
            rows = random_rows(draw(st.integers(2, 4)))
            a, b = draw(entry), draw(entry)
            rows.append([field.normalize(a * x + b * y) for x, y in zip(rows[0], rows[1])])
        else:
            rows = [[0] * j + [1] + [draw(entry) for _ in range(cols - j - 1)] for j in range(cols)]
        rows = draw(st.permutations(rows))
        cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=2)))
        members.append([Matrix.from_rows(field, rows[i:j], cols=cols)
                        for i, j in zip([0] + cuts, cuts + [len(rows)])])
    return field, cols, members


@settings(PROPERTY, max_examples=200)
@given(stacks())
@example((GF(3), 4, []))
@example((GF(5), 3, [[Matrix.from_rows(GF(5), [[0, 3, 1], [2, 0, 3]])],
                     [Matrix.zeros(GF(5), 2, 3)], [Matrix.zeros(GF(5), 0, 3)]]))
def test_stacked_sweep_matches_rref_member_by_member(case):
    """One stacked sweep ranks every member as ``rref`` ranks it alone."""
    field, cols, members = case
    stacked = [parts[0].vstack(*parts[1:]) for parts in members]
    height = max((A.rows for A in stacked), default=0)
    a = field.zeros((len(members), height, cols))
    for k, A in enumerate(stacked):
        a[k, :A.rows] = A.data
    assert linalg._rank_stack(a, field.characteristic).tolist() == [rref(A).dim for A in stacked]


def written_out(S: SparseSystem) -> Matrix:
    """The sparse system S as a dense Matrix, its entries stored as they are."""
    a = S.field.zeros((S.rows, S.cols))
    a[S.i, S.j] = S.v
    return Matrix._of(S.field, a)


def sparse_of(field, rows, cols) -> SparseSystem:
    """The nonzeros of integer rows, as a sparse system over field."""
    a = field.array(rows)[0].reshape(len(rows), cols)
    i, j = np.nonzero(a)
    return SparseSystem(field, a.shape[0], cols, i, j, a[i, j])


def _entries(A: Matrix) -> np.ndarray:
    """The entries of A as an object array of Python ints or Fractions."""
    return np.array([A.row(i) for i in range(A.rows)], dtype=object).reshape(A.rows, A.cols)


def _eye(d: int) -> np.ndarray:
    return np.eye(d, dtype=int).astype(object)


def kron_hom_system(M, N) -> Matrix:
    """f2.aM = aN.f1 by the kron formula: [-aN kron I | I kron aM^T] per arrow."""
    S = np.vstack([np.hstack([np.kron(-_entries(aN), _eye(M.dim1)),
                              np.kron(_eye(N.dim2), _entries(aM).T)])
                   for aM, aN in zip(M.alphas, N.alphas)])
    return Matrix.from_rows(M.field, S.tolist(), cols=S.shape[1])


def kron_cover_hom_dim(X, Y) -> int:
    """dim Hom(X, Y) of cover reps from phi_w Ax = Ay phi_v by the kron formula."""
    common = sorted(set(X.spaces) & set(Y.spaces), key=lambda v: (len(v), v))
    cols, total = {}, 0
    for v in common:
        cols[v] = slice(total, total + Y.dim(v) * X.dim(v))
        total += Y.dim(v) * X.dim(v)
    rows = []
    for v in (set(X.spaces) | set(Y.spaces)):
        for label in range(1, X.n + 1) if vertex_class(v) == 1 else ():
            w = neighbor(v, label)
            block = np.zeros((Y.dim(w) * X.dim(v), total), dtype=object)
            if v in cols:
                block[:, cols[v]] = np.kron(-_entries(Y.arrow(v, label)), _eye(X.dim(v)))
            if w in cols:
                block[:, cols[w]] = np.kron(_eye(Y.dim(w)), _entries(X.arrow(v, label)).T)
            rows += block.tolist()
    return total - rank(Matrix.from_rows(X.field, rows, cols=total))


# over Q, maps with denominators such as 3 and 7
Q_ENTRIES = st.sampled_from([0, 1, -2, Fraction(1, 3), Fraction(2, 7), Fraction(-5, 6)])


@st.composite
def builder_pairs(draw):
    """Two modules with dims in 0..3 over GF(2), GF(5), GF(2^31 - 1) or Q."""
    field = draw(st.sampled_from([GF(2), GF(5), MERSENNE, QQ]))
    entry = entries(field) if field.is_finite else Q_ENTRIES
    n = draw(st.integers(1, 3))

    def module():
        d1, d2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        return KroneckerModule(tuple(
            Matrix.from_rows(field, [[draw(entry) for _ in range(d1)] for _ in range(d2)], cols=d1)
            for _ in range(n)))
    return module(), module()


@settings(PROPERTY, max_examples=60)
@given(builder_pairs())
def test_hom_system_matches_kron_formula(pair):
    M, N = pair
    ref = kron_hom_system(M, N)
    if M.field.is_finite:  # over Q each arrow's rows are scaled by its denominators
        assert written_out(hom_system(N.alphas, _source(M), M.dims)) == ref
    K = kernel_basis(ref)
    assert hom_dim(M, N) == K.dim
    # the canonical basis: row-major f1 then f2 of each element is a kernel row
    basis = hom_basis(M, N)
    assert [b.f1.reshape(1, -1).hstack(b.f2.reshape(1, -1)) for b in basis] == \
        K.basis.split_rows(K.dim)


@st.composite
def source_sweeps(draw):
    """(sources, N): one to four random modules of one dimension vector
    (m1, m2) in {0, 1, 2}^2 and a random N with dims in 0..3, n in 1..3,
    over GF(2), GF(5) or Q (maps with denominators)."""
    field = draw(st.sampled_from([GF(2), GF(5), QQ]))
    entry = entries(field) if field.is_finite else Q_ENTRIES
    n = draw(st.integers(1, 3))

    def module(d1, d2):
        return KroneckerModule(tuple(
            Matrix.from_rows(field, [[draw(entry) for _ in range(d1)] for _ in range(d2)], cols=d1)
            for _ in range(n)))
    m1, m2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    sources = [module(m1, m2) for _ in range(draw(st.integers(1, 4)))]
    return sources, module(draw(st.integers(0, 3)), draw(st.integers(0, 3)))


@settings(PROPERTY, max_examples=250)
@given(source_sweeps())
def test_hom_system_blocks_match_kron_formula(case):
    """Block b of ``hom_system`` over the sources M_b is Hom(M_b, N): it has
    the rank of the kron system and as many kernel vectors from
    ``sparse_block_kernels`` as that system has, nothing lies outside the
    blocks, and over GF(p) each block is the kron system entry for entry."""
    sources, N = case
    m1, m2 = sources[0].dims
    rows = [M.alphas[0].vstack(*M.alphas[1:]).reshape(1, -1) for M in sources]
    S = hom_system(N.alphas, rows[0].vstack(*rows[1:]), (m1, m2))
    height, width = N.n * N.dim2 * m1, N.dim1 * m1 + N.dim2 * m2
    assert (S.rows, S.cols) == (len(sources) * height, len(sources) * width)
    A = written_out(S)
    _, counts = sparse_block_kernels(S, len(sources))
    nonzeros = 0
    for b, M in enumerate(sources):
        block = A.select_rows(range(b * height, (b + 1) * height))
        block = block.col_block(b * width, (b + 1) * width)
        ref = kron_hom_system(M, N)
        assert rank(block) == rank(ref)
        assert counts[b] == width - rank(ref)
        if N.field.is_finite:
            assert block == ref
        nonzeros += np.count_nonzero(block.data)
    assert np.count_nonzero(A.data) == nonzeros


@pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
@pytest.mark.parametrize("n", [3, 4])
def test_cover_hom_dim_matches_kron_formula(field, n):
    reps = [build_ball_rep(n, field), build_tau_bristle_rep(n, field),
            build_mu_bristle_rep(n, field), cover_bristle_at(n, field, (), 2)]
    for X in reps:
        for Y in reps:
            S = _cover_hom_system(X, Y)
            assert cover_hom_dim(X, Y) == S.cols - rank(written_out(S)) == kron_cover_hom_dim(X, Y)


def _sparse_matches_dense(S: SparseSystem):
    A = written_out(S)
    assert sparse_rank(S) == rank(A)
    assert sparse_kernel(S) == kernel_basis(A)
    # the unreduced rows are a basis of the same kernel
    rows = sparse_block_kernels(S, 1)[0]
    assert rank(rows) == rows.rows == kernel_basis(A).dim
    assert rref(rows) == kernel_basis(A)


P = 2**31 - 1
# (rows, cols): dense integer rows; each case is peeled as described
SPARSE_CASES = {
    # x0 and x1 are singleton columns of one row: one is determined, one free
    "two-singletons-in-a-row": ([[1, 1, 0], [0, 0, 1]], 3),
    "two-singletons-chained": ([[1, 2, 3, 0], [0, 0, 1, 1], [0, 0, 1, 2]], 4),
    # no singleton column; rows 0 and 2 force x0 = x1 = 0, then row 1 is empty
    "row-singletons": ([[1, 0], [1, 1], [0, 1]], 2),
    # column 0 first forced to 0, leaving column 1 a singleton of row 2
    "forced-then-determined": ([[3, 0, 0], [1, 1, 0], [1, 0, 1], [1, 0, 1]], 3),
    # columns 0 and 3 have no entry: free
    "empty-columns": ([[0, 1, 1, 0], [0, 1, 2, 0]], 4),
    # every row and column has two or more entries: all core
    "no-singletons": ([[1, 1, 1], [1, 2, 3], [1, 4, 2]], 3),
    "all-zero": ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 4),
    "no-rows": ([], 3),
    "no-columns": ([[], []], 0),
    # x0 = -(P-1)(x1 + x2 + x3), each of x1, x2, x3 = -x4 = P-1: three
    # products of about 2^62 overflow int64 unless reduced before summing
    "near-p-chain": ([[1, P - 1, P - 1, P - 1, 0], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1],
                      [0, 0, 0, 1, 1]], 5),
    # determined columns with pivots 2, 3 and 6: over Q an lcm to clear
    "pivots-to-clear": ([[2, 1, 0, 0, 0], [0, 3, 1, 1, 0], [0, 0, 0, 6, 1], [0, 0, 5, 0, 7]], 5),
}


@pytest.mark.parametrize("field", [GF(2), GF(5), MERSENNE, QQ], ids=str)
@pytest.mark.parametrize("case", list(SPARSE_CASES))
def test_sparse_edge_cases_match_dense(field, case):
    _sparse_matches_dense(sparse_of(field, *SPARSE_CASES[case]))


@st.composite
def sparse_systems(draw):
    """Up to 7 x 7 systems over GF(2), GF(5), GF(2^31 - 1) or Q, mostly
    zeros, with entries near p or of varied size over Q."""
    field = draw(st.sampled_from([GF(2), GF(5), MERSENNE, QQ]))
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if field.is_finite:
        p = field.characteristic
        nonzero = st.one_of(st.sampled_from([1, p - 1, p - 2]), st.integers(1, p - 1))
    else:
        nonzero = st.sampled_from([1, -1, 2, -3, 6, 7, 2**40])
    cell = st.one_of(st.just(0), st.just(0), nonzero)
    return sparse_of(field, [[draw(cell) for _ in range(n)] for _ in range(m)], n)


@settings(PROPERTY, max_examples=200)
@given(sparse_systems())
def test_sparse_rank_and_kernel_match_dense(S):
    _sparse_matches_dense(S)


@st.composite
def block_systems(draw):
    """(field, w, blocks): one to four dense blocks w columns wide and up to
    4 rows high (w and the height may be 0), over GF(2), GF(3), GF(2^31 - 1) or Q, each
    random and mostly zeros, all zero (the whole block is kernel) or the
    identity over random rows (no kernel), so kernel sizes differ."""
    field = draw(st.sampled_from([GF(2), GF(3), MERSENNE, QQ]))
    h, w = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if field.is_finite:
        p = field.characteristic
        nonzero = st.one_of(st.sampled_from([1, p - 1]), st.integers(1, p - 1))
    else:
        nonzero = st.sampled_from([1, -1, 2, -3, 6, 7, 2**40])
    cell = st.one_of(st.just(0), st.just(0), nonzero)

    def block():
        kind = draw(st.sampled_from(["random", "random", "zero", "unit"]))
        rows = [[0 if kind == "zero" else draw(cell) for _ in range(w)] for _ in range(h)]
        if kind == "unit":
            rows = [[int(i == j) for j in range(w)] for i in range(w)] + rows
        return rows
    return field, w, [block() for _ in range(draw(st.integers(1, 4)))]


@settings(PROPERTY, max_examples=150)
@given(block_systems(), st.integers(1, 12))
def test_block_kernels_span_each_dense_block_kernel(case, cells):
    """One peel of a block-diagonal system gives, for each block, a basis
    of the kernel of that block written out densely, stacked in block
    order; zero-width blocks, blocks with no kernel and blocks of uneven
    kernel sizes included.  With the back-substitution's gathers bounded
    to ``cells`` cells, so that its batches are split into runs of a row
    or a few, the rows and counts are the same."""
    field, w, blocks = case
    height = max(len(b) for b in blocks)
    rows = []
    for k, b in enumerate(blocks):  # blocks padded with zero rows to one height
        for r in b + [[0] * w] * (height - len(b)):
            rows.append([0] * (k * w) + list(r) + [0] * ((len(blocks) - k - 1) * w))
    S = sparse_of(field, rows, len(blocks) * w) if rows else SparseSystem(
        field, 0, len(blocks) * w, np.zeros(0, np.int64), np.zeros(0, np.int64), field.zeros(0))
    H, counts = sparse_block_kernels(S, len(blocks))
    assert (H.rows, H.cols) == (sum(counts), w)
    start = 0
    for b, k in zip(blocks, counts):
        dense = sparse_of(field, b, w) if b else SparseSystem(
            field, 0, w, np.zeros(0, np.int64), np.zeros(0, np.int64), field.zeros(0))
        rows = H.select_rows(range(start, start + k))
        assert rank(rows) == k and rref(rows) == kernel_basis(written_out(dense))
        start += k
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_GATHER_CELLS", cells)
        assert sparse_block_kernels(S, len(blocks)) == (H, counts)


def two_elimination_kernel(A: Matrix) -> Subspace:
    """The canonical kernel as it was first computed: the free-column rows
    of the RREF of A, brought to RREF by a second elimination."""
    if A.rows == 0 or A.cols == 0:
        return kernel_basis(A)
    return rref(quotient_projection(rref(A)))


@settings(PROPERTY, max_examples=200)
@given(st.data())
def test_kernel_basis_from_one_elimination_matches_two(data):
    """The kernel read off one elimination of the reversed columns equals
    the two-elimination form entry for entry: basis, denominator and
    pivots."""
    field = data.draw(st.sampled_from([GF(2), GF(3), GF(5), MERSENNE, QQ]))
    r, c = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    A = data.draw(matrices(field, r, c))
    K, ref = kernel_basis(A), two_elimination_kernel(A)
    assert K == ref
    assert (K.basis.den, K.pivot_cols) == (ref.basis.den, ref.pivot_cols)


@st.composite
def trace_lists(draw):
    """(M, traces, max_size): up to 7 traces in a module of dimension at most
    (3, 3) over GF(2), GF(3) or GF(5) whose maps are all zero, so that any
    pair of subspaces is a submodule; each trace spans at most two drawn
    vectors per vertex.  The search sweeps stacks of rows, which runs over
    GF(p) only, as the scenarios that search do."""
    field = draw(st.sampled_from([GF(2), GF(3), GF(5)]))
    d1, d2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    M = KroneckerModule((Matrix.zeros(field, d2, d1),) * 2)

    def subspace(d):
        vectors = [[draw(entries(field)) for _ in range(d)]
                   for _ in range(draw(st.integers(0, 2)) if d else 0)]
        return Subspace.from_spanning(field, d, vectors)

    traces = [SubmodulePair(M, subspace(d1), subspace(d2))
              for _ in range(draw(st.integers(0, 7)))]
    return M, traces, draw(st.integers(0, len(traces)))


@settings(PROPERTY, max_examples=200)
@given(trace_lists())
def test_subset_search_matches_brute_force(case):
    """The pruned search counts, size by size, the subsets that ``generates``
    says span M, and decides every subset up to the size bound."""
    M, traces, max_size = case
    spanning, decided = search_traces(M, traces, max_size)
    assert spanning == [sum(generates(M, sub) for sub in combinations(traces, s))
                        for s in range(max_size + 1)]
    assert decided == [comb(len(traces), s) for s in range(max_size + 1)]


@PROPERTY
@given(st.data())
def test_hom_and_ext_invariant_under_change_of_basis(data):
    M, N = data.draw(module_pairs())
    M2, N2 = data.draw(rebased(M)), data.draw(rebased(N))
    assert hom_dim(M2, N2) == hom_dim(M, N)
    assert ext1_dim(M2, N2) == ext1_dim(M, N)


@PROPERTY
@given(module_pairs())
def test_ext_routes_agree(pair):
    M, N = pair
    e = ext1_dim(M, N)
    assert e == ext1_dim_via_resolution(M, N)
    # Auslander-Reiten: Ext^1(M, N) = D Hom(tau^- N, M) = D Hom(N, tau M)
    assert e == hom_dim(tau_minus(N), M) == hom_dim(N, ar_translate(M))


@PROPERTY
@given(st.data())
def test_module_file_round_trips(data):
    field = data.draw(st.sampled_from(FIELDS))
    M = data.draw(modules(field, data.draw(st.integers(1, 3))))
    text = write_module_file(M)
    back = parse_module_file(text)
    assert back == M
    assert write_module_file(back) == text


DOT_FIELDS = [GF(2), GF(5), MERSENNE]
# densities on both sides of the 1/_SPARSE_DENSITY threshold, and the ends
DOT_DENSITIES = [0.0, 1 / 64, 1 / 16, 1 / 9, 1 / 7, 1 / 3, 1.0]


def _sparse_array(rng, field, shape, density):
    p = field.characteristic
    values = rng.integers(1, p, size=shape, dtype=np.int64) if p > 2 else np.ones(shape, np.int64)
    return np.where(rng.random(shape) < density, values, 0)


@st.composite
def dot_operands(draw):
    """(field, a, b): a is m x k and b is k x n; either side may be sparse,
    and shapes reach past _SPARSE_MIN_WORK multiply-adds."""
    field = draw(st.sampled_from(DOT_FIELDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, k = draw(st.integers(0, 70)), draw(st.integers(0, 40))
    a = _sparse_array(rng, field, (m, k), draw(st.sampled_from(DOT_DENSITIES)))
    b = _sparse_array(rng, field, (k, draw(st.integers(0, 70))), draw(st.sampled_from(DOT_DENSITIES)))
    return field, a, b


def _python_int_product(a, b, p):
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


@settings(PROPERTY, max_examples=120)
@given(dot_operands())
def test_nonzero_product_matches_dense(case):
    """The nonzero path of ``_dot``, over either operand, gives the array of
    the dense product, which over GF(2^31 - 1) is the Python-int fallback
    once the inner length passes 1."""
    field, a, b = case
    p = field.characteristic
    expected = _python_int_product(a, b, p)
    got = linalg._dot(field, a, b)
    assert got.dtype == np.int64 and got.shape == expected.shape
    assert np.array_equal(got, expected)
    if a.shape[1] * (p - 1) ** 2 < 2**62:  # where the nonzero path may run
        assert np.array_equal(linalg._sparse_dot(a, b, p), expected)
        assert np.array_equal(linalg._sparse_dot(b.T, a.T, p).T, expected)


# where inner length times m_a m_b falls against 2^62, the bound of ``_dot``:
# "wide" has entries that fit int64 and products of about 2^64 that do not
Q_BOUNDS = ["below", "above", "wide", "past-int64"]
# leading shapes of the two operands: 2-d, a stack, and stacks broadcast
# against each other, as the row-wise side of ``intertwines`` multiplies;
# None is a 2-d product of 73 728 multiply-adds, past _SPARSE_MIN_WORK
Q_LEADS = [None, ((), ()), ((3,), (3,)), ((4, 1), (1, 2))]


def _q_operand(rng, shape, m, density):
    """Python ints in [-m, m], each nonzero with the given probability, and
    one entry of magnitude exactly m, so the operand's bound is m."""
    a = np.zeros(shape, dtype=object)
    for at in np.ndindex(*shape):
        if rng.random() < density:
            a[at] = rng.randint(-m, m)
    if a.size and m:
        a[tuple(rng.randrange(d) for d in shape)] = rng.choice((m, -m))
    return a


@st.composite
def rational_dot_operands(draw):
    """(a, b) over Q as object arrays of Python ints, 2-d or stacks: inner
    length times m_a m_b just below 2^62, at or just above it, far above it
    with every entry within int64, or an entry past int64; either side may
    be sparse."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    leads = draw(st.sampled_from(Q_LEADS))
    if leads is None:
        (lead_a, lead_b), (rows, inner, cols) = ((), ()), (48, 32, 48)
    else:
        lead_a, lead_b = leads
        rows, inner, cols = rng.randint(1, 6), rng.randint(0, 6), rng.randint(1, 6)
    where = draw(st.sampled_from(Q_BOUNDS))
    density_a, density_b = draw(st.sampled_from(DOT_DENSITIES)), draw(st.sampled_from(DOT_DENSITIES))
    if where == "past-int64":
        m_a, m_b = 2**63 + draw(st.integers(0, 2**70)), draw(st.integers(0, 2**40))
    elif where == "wide":
        bits = draw(st.integers(4, 62))
        (m_a, m_b), density_a, density_b = (2**bits, 2**(66 - bits)), 1.0, 1.0
    else:
        m_a = 2 ** draw(st.integers(0, 61))
        limit = (2**62 - 1) // (max(inner, 1) * m_a)  # the largest m_b below the bound
        m_b = limit if where == "below" else limit + 1
    if draw(st.booleans()):
        m_a, m_b = m_b, m_a
    a = _q_operand(rng, lead_a + (rows, inner), m_a, density_a)
    b = _q_operand(rng, lead_b + (inner, cols), m_b, density_b)
    return a, b


@settings(PROPERTY, max_examples=100)
@given(rational_dot_operands())
def test_rational_product_matches_python_ints(case):
    """Over Q ``_dot`` gives the reference product on every side of its
    bound and on either path, dense or over nonzeros, as an object array of
    Python ints, the format of a Matrix over Q."""
    a, b = case
    got, expected = linalg._dot(QQ, a, b), product_by_objects(QQ, a, b)
    assert got.dtype == object and got.shape == expected.shape
    assert all(type(x) is int for x in got.flat)
    assert np.array_equal(got, expected)


@st.composite
def integer_inputs(draw):
    """Rows of integers as an int64 array, a uint64 array (past 2^63 too)
    or nested Python-int lists (past int64 too)."""
    kind = draw(st.sampled_from(["int64", "uint64", "list"]))
    lo, hi = {"int64": (-2**63, 2**63 - 1), "uint64": (0, 2**64 - 1), "list": (-2**80, 2**80)}[kind]
    cols = draw(st.integers(1, 4))
    row = st.lists(st.integers(lo, hi), min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    return rows if kind == "list" else np.array(rows, dtype=kind)


@settings(PROPERTY, max_examples=100)
@given(integer_inputs())
def test_integer_input_over_q_matches_the_fraction_route(values):
    """An input numpy reads with an integer dtype gives over Q the
    (numerators, denominator) of the same entries as Fractions."""
    listed = values.tolist() if isinstance(values, np.ndarray) else values
    num, den = QQ.array(values)
    want_num, want_den = QQ.array([[Fraction(x) for x in row] for row in listed])
    assert num.dtype == want_num.dtype == object and all(type(x) is int for x in num.flat)
    assert (num.tolist(), den) == (want_num.tolist(), want_den) == (listed, 1)


def generic_hom_system(M, N) -> SparseSystem:
    """Hom(M, N) as the nonzeros of ``kron_hom_system``, for any M: the
    oracle of the bristle block system, sharing no code with it."""
    K = kron_hom_system(M, N)
    return SparseSystem.of(M.field, K.cols, [K])


def one_by_one(field, coords) -> KroneckerModule:
    """The (1, 1) module whose i-th map is multiplication by coords[i]."""
    return KroneckerModule(tuple(Matrix.from_rows(field, [[c]], cols=1) for c in coords))


SWEEP_FIELDS = [GF(2), GF(3), MERSENNE, QQ]


@st.composite
def bristle_sweeps(draw):
    """(N, points): a module N with dims in 0..3, n in 1..4, over GF(2),
    GF(3), GF(2^31 - 1) or Q (maps with denominators), and one to four
    nonzero points, not normalized; half the time N has the bristle of the
    first point as a summand."""
    field = draw(st.sampled_from(SWEEP_FIELDS))
    entry = entries(field) if field.is_finite else Q_ENTRIES
    n = draw(st.integers(1, 4))
    d1, d2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    N = KroneckerModule(tuple(
        Matrix.from_rows(field, [[draw(entry) for _ in range(d1)] for _ in range(d2)], cols=d1)
        for _ in range(n)))
    point = st.lists(entry, min_size=n, max_size=n).filter(lambda c: any(x != 0 for x in c))
    points = draw(st.lists(point, min_size=1, max_size=4))
    if draw(st.booleans()):  # a summand B_p makes Hom(B_p, N) nonzero, with y != 0
        N = direct_sum(N, one_by_one(field, points[0]))
    return N, points


@st.composite
def raw_coordinates(draw):
    """(field, coords): up to five raw coordinates over GF(2), GF(2^31 - 1)
    or Q, zeros frequent, integers past int64 and negative ones among them."""
    field = draw(st.sampled_from([GF(2), MERSENNE, QQ]))
    raw = st.integers(-2**70, 2**70) if field.is_finite else \
        st.fractions(max_denominator=10**12)
    return field, draw(st.lists(st.one_of(st.just(0), raw), min_size=1, max_size=5))


@settings(PROPERTY, max_examples=200)
@given(raw_coordinates())
def test_bristle_point_is_the_scalar_normalisation(case):
    """``bristle_point``, the one row of ``rref``, gives the coordinates
    scaled entry by entry by the inverse of the first nonzero, as Python
    ints over GF(p) and Fractions over Q; all zeros are refused."""
    field, coords = case
    raw = [field.normalize(c) for c in coords]
    lead = next((c for c in raw if c != 0), None)
    if lead is None:
        with pytest.raises(ValueError, match="must not all vanish"):
            bristle_point(len(coords), field, coords)
        return
    inv = field.normalize(1 / Fraction(lead))
    expected = tuple(field.normalize(inv * c) for c in raw)
    got = bristle_point(len(coords), field, coords).coords
    assert got == expected
    assert [type(c) for c in got] == [type(c) for c in expected]


@settings(PROPERTY, max_examples=100)
@given(bristle_sweeps())
def test_bristle_block_ranks_match_one_system_each(case):
    """Block b of ``hom_system`` over the points has the rank of Hom(B_p, N)
    written out by the kron formula, the blocks ranked in block order; a
    one-point block has the same kernel, and is what ``hom_system`` builds
    for the bristle."""
    N, coords = case
    f, width = N.field, N.dim1 + N.dim2
    points = Matrix.from_rows(f, coords, cols=N.n)
    expected = [width - sparse_rank(generic_hom_system(one_by_one(f, c), N)) for c in coords]
    S = hom_system(N.alphas, points, (1, 1))
    assert (S.rows, S.cols) == (len(coords) * N.n * N.dim2, len(coords) * width)
    assert [width - r for r in sparse_block_ranks(S, len(coords))] == expected
    assert list(bristle_hom_dims(points, N)) == expected
    for c, dim in zip(coords, expected):
        B = one_by_one(f, c)
        one = hom_system(N.alphas, Matrix.from_rows(f, [c], cols=N.n), (1, 1))
        assert sparse_kernel(one) == sparse_kernel(generic_hom_system(B, N))
        assert sparse_kernel(hom_system(N.alphas, _source(B), B.dims)) == sparse_kernel(one)
        assert hom_dim(B, N) == dim


@settings(PROPERTY, max_examples=60)
@given(bristle_sweeps())
def test_zero_one_by_one_modules_keep_the_generic_system(case):
    """A (1, 1) module whose maps are all zero is no bristle: its Hom system
    into N, from the same builder, is the one the kron formula writes out."""
    N, _ = case
    Z = one_by_one(N.field, [0] * N.n)
    S, ref = hom_system(N.alphas, _source(Z), Z.dims), generic_hom_system(Z, N)
    assert (S.rows, S.cols) == (ref.rows, ref.cols)
    assert written_out(S) == written_out(ref)
    assert hom_dim(Z, N) == N.dim1 + N.dim2 - sparse_rank(ref)


@settings(PROPERTY, max_examples=100)
@given(bristle_sweeps())
def test_bristle_traces_match_one_trace_each(case):
    """The traces from one block system are, bristle by bristle, the ones
    ``trace_submodule`` builds from one Hom system each, and the block
    kernels span the kernel of each one-point system written out."""
    N, coords = case
    f = N.field
    points = Matrix.from_rows(f, coords, cols=N.n)
    H, counts = sparse_block_kernels(hom_system(N.alphas, points, (1, 1)), len(coords))
    start = 0
    for c, k in zip(coords, counts):
        one = hom_system(N.alphas, Matrix.from_rows(f, [c], cols=N.n), (1, 1))
        assert rref(H.select_rows(range(start, start + k))) == \
            kernel_basis(written_out(one))
        start += k
    assert bristle_traces(points, N) == [trace_submodule([one_by_one(f, c)], N) for c in coords]


@st.composite
def generation_cases(draw):
    """(generators, M) over GF(2), GF(3) or Q with n in 1..3: M random with
    dims in 0..3, the zero module or S(2)^k; up to four generators among
    bristles, random modules, zero-map (1, 1) modules, the zero module and
    the simples."""
    field = draw(st.sampled_from([GF(2), GF(3), QQ]))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "random", "zero", "sink-simples"]))
    if kind == "zero":
        M = zero_module(n, field)
    elif kind == "sink-simples":
        M = direct_sum(*[simple_module(n, field, 2)] * draw(st.integers(1, 3)))
    else:
        M = draw(modules(field, n))
    point = st.lists(entries(field), min_size=n, max_size=n)
    generator = st.one_of(
        point.filter(lambda c: any(x != 0 for x in c)).map(lambda c: one_by_one(field, c)),
        point.map(lambda c: one_by_one(field, c)),
        modules(field, n, max_dim=2),
        st.sampled_from([zero_module(n, field), simple_module(n, field, 1),
                         simple_module(n, field, 2)]))
    return draw(st.lists(generator, max_size=4)), M


@settings(PROPERTY, max_examples=150)
@given(generation_cases())
def test_generation_by_rank_matches_the_trace(case):
    gens, M = case
    assert is_generated_by(gens, M) == trace_submodule(gens, M).is_full()


def assert_same_subspace(got: Subspace, ref: Subspace):
    """Entry for entry: integers, denominator, dtype and pivots."""
    assert got.basis.data.dtype == ref.basis.data.dtype
    assert got.basis.den == ref.basis.den and type(got.basis.den) is int
    assert got.basis.data.shape == ref.basis.data.shape
    assert np.array_equal(got.basis.data, ref.basis.data)
    assert got.pivot_cols == ref.pivot_cols
    assert all(type(c) is int for c in got.pivot_cols)


@st.composite
def summand_lists(draw):
    """(field, spaces): one to five subspaces of k^d, d in 0..7, over GF(2),
    GF(5), GF(2^31 - 1) or Q, each zero, full, random, equal to an earlier
    one (the same object or a copy), nested in or around an earlier one, or
    supported on columns no earlier one uses."""
    field = draw(st.sampled_from([GF(2), GF(5), MERSENNE, QQ]))
    d = draw(st.integers(0, 7))

    def spanned(cols, extra=()):
        rows = [[draw(entries(field)) if j in cols else 0 for j in range(d)]
                for _ in range(draw(st.integers(0, 4)))]
        return Subspace.from_spanning(field, d, rows + list(extra))

    spaces = []
    for _ in range(draw(st.integers(1, 5))):
        kinds = ["zero", "full", "random"] + (["equal", "copy", "inside", "around", "disjoint"]
                                              if spaces else [])
        kind = draw(st.sampled_from(kinds))
        W = draw(st.sampled_from(spaces)) if spaces else None
        rows = [W.basis.row(i) for i in range(W.dim)] if W is not None else []
        if kind == "zero":
            V = Subspace.zero(field, d)
        elif kind == "full":
            V = Subspace.full(field, d)
        elif kind == "random":
            V = spanned(range(d))
        elif kind == "equal":
            V = W
        elif kind == "copy":
            V = rref(W.basis)
        elif kind == "inside":
            V = Subspace.from_spanning(field, d, [
                [sum(draw(entries(field)) * r[j] for r in rows) for j in range(d)]
                for _ in range(draw(st.integers(0, 3)))])
        elif kind == "around":
            V = spanned(range(d), rows)
        else:
            used = {j for U in spaces for j in range(d)
                    if any(U.basis.row(i)[j] for i in range(U.dim))}
            V = spanned([j for j in range(d) if j not in used])
        spaces.append(V)
    return field, spaces


# over Q, a base whose RREF basis has a denominator (6) and a residual whose
# RREF has another (7), with the base first and last
FRACTIONAL_BASE = Subspace.from_spanning(QQ, 4, [[2, 1, 0, 1], [0, 3, 1, 0]])
FRACTIONAL_NEW = Subspace.from_spanning(QQ, 4, [[1, 1, 1, Fraction(1, 7)]])


@settings(PROPERTY, max_examples=300)
@given(summand_lists())
@example((QQ, [FRACTIONAL_BASE, FRACTIONAL_NEW]))
@example((QQ, [FRACTIONAL_NEW, Subspace.zero(QQ, 4), FRACTIONAL_BASE]))
def test_subspace_sum_is_the_row_space_of_all_bases(case):
    """A sum extended from its largest summand's basis is, entry for entry,
    the RREF of every summand's basis rows stacked."""
    field, spaces = case
    ref = rref(spaces[0].basis.vstack(*(V.basis for V in spaces[1:])))
    assert_same_subspace(subspace_sum(*spaces), ref)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_subrep_subpair_is_the_row_space_of_its_placed_rows(field, n, monkeypatch):
    """Every subrep that ``verify_cover_equalities`` pushes down is, entry
    for entry, the RREF of each vertex's basis placed in its block."""
    X = build_ball_rep(n, field)
    direct, seen = cover.subrep_subpair, []

    def checked(sub):
        pair = direct(sub)
        for cls, U in ((1, pair.U1), (2, pair.U2)):
            total = X.pushed.dims[cls - 1]
            rows = [_place(X, {v: V.basis}) for v, V in sub.spaces.items()
                    if vertex_class(v) == cls]
            assert_same_subspace(U, rref(Matrix.zeros(field, 0, total).vstack(*rows)))
        seen.append(sub)
        return pair

    monkeypatch.setattr(cover, "subrep_subpair", checked)
    checks, _ = verify_cover_equalities(X)
    assert all(ok for _, ok in checks)
    # per branch its restriction and singleton leaves, then every path rep
    singles = sum(len(cover.covered_singleton_types(n, j)) for j in range(1, n + 1))
    assert len(seen) == n + singles + comb(n, 2)


@st.composite
def bristle_vector_cases(draw):
    """(M, u, p): a module over GF(2), GF(3), GF(5) or Q with n in 1..3 and
    a nonzero u at vertex 1.  Half the time u is drawn at random in a random
    module, so its images may vanish, span a line or span a plane (p is
    None); otherwise M is X + B_p in new bases at both vertices and u the
    image of B_p's basis vector, whose images span the line of g2 e, with
    its pivot anywhere."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        M = draw(modules(field, n).filter(lambda M: M.dim1 > 0))
        u = draw(st.lists(entries(field), min_size=M.dim1, max_size=M.dim1).filter(any))
        return M, u, None
    X = draw(modules(field, n, max_dim=2))
    p = draw(st.lists(entries(field), min_size=n, max_size=n).filter(any))
    M0 = direct_sum(X, one_by_one(field, p))
    g1, g2 = draw(invertible(field, M0.dim1)), draw(invertible(field, M0.dim2))
    return conjugated(M0, g1, g2), g1.transpose().row(X.dim1), p


@settings(PROPERTY, max_examples=120)
@given(bristle_vector_cases())
def test_bristle_type_matches_the_image_by_image_route(case):
    """``bristle_type_of`` gives the point the images read one at a time
    give, None when they do not span one line, and ``is_bristle_vector``
    says whether there is a point; a hidden B_p is found as p."""
    M, u, p = case
    got = bristle_type_of(M, u)
    assert got == bristle_type_by_images(M, u)
    assert is_bristle_vector(M, u) == (got is not None)
    if p is not None:
        assert got == bristle_point(M.n, M.field, p)


@st.composite
def bristle_vector_stacks(draw):
    """(M, rows): M and its vector u from ``bristle_vector_cases``, and up to
    seven vectors at vertex 1 in a random order: u, random ones (zero ones
    among them) and, when u hides a bristle B_p, nonzero multiples of u."""
    M, u, p = draw(bristle_vector_cases())
    vectors = st.lists(entries(M.field), min_size=M.dim1, max_size=M.dim1)
    rows = [list(u)] + draw(st.lists(vectors, max_size=4))
    if p is not None:
        for c in draw(st.lists(entries(M.field).filter(lambda x: x != 0), max_size=2)):
            rows.append([M.field.normalize(c * x) for x in u])
    return M, draw(st.permutations(rows))


@settings(PROPERTY, max_examples=120)
@given(bristle_vector_stacks())
@example((simple_module(3, GF(5), 1), [[1], [0]]))
@example((KroneckerModule((Matrix.zeros(QQ, 0, 2),) * 2), [[1, 0]]))
def test_batched_types_match_the_image_by_image_route(case):
    """``bristle_types`` reads a whole stack of vectors from one product and
    gives, row by row, the point (or None) that the images read one vector
    at a time give, and that ``bristle_type_of`` gives for each row alone."""
    M, rows = case
    got = bristle_types(M, Matrix.from_rows(M.field, rows, cols=M.dim1))
    assert got == [bristle_type_by_images(M, u) for u in rows]
    assert got == [bristle_type_of(M, u) for u in rows]


@pytest.mark.parametrize("target", ["I3", "tauB1"])
@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 5), (4, 2), (4, 3), (4, 5)])
def test_rows_of_the_all_points_images_span_as_the_generators_generate(target, n, q):
    """For B0, B0prime, B1prime, B1prime without B1 and seeded random point
    sets, the rows that one ``bristle_images`` over all points holds for
    the set span M (``images_span``) exactly when ``is_generated_by``, with
    its own system for the set's bristles alone, says they generate M.
    M is the third preinjective or the translate of the unit-1 bristle,
    and both answers occur."""
    f = GF(q)
    M = preinjective(n, 3, f) if target == "I3" else ar_translate(bristle(unit_point(n, f, 1)))
    pts = enumerate_bristles(n, f)
    X, Y, counts = bristle_images(bristle_points(n, f), M)
    rng = random.Random(f"rows-span:{target}:{n}:{q}")
    point_sets = [canonical_set(name, n, f) for name in ("B0", "B0prime", "B1prime")]
    point_sets.append([p for p in point_sets[2] if p != unit_point(n, f, 1)])
    point_sets += [rng.sample(pts, rng.randint(1, n + 3)) for _ in range(12)]
    seen = set()
    for chosen in point_sets:
        X_S, Y_S = scenarios._point_rows((X, Y), counts, pts, chosen)
        spans = images_span(M, [X_S], [Y_S])
        assert spans == is_generated_by([bristle(p) for p in chosen], M)
        seen.add(spans)
    assert seen == {True, False}


@st.composite
def iso_cases(draw):
    """(M, N): M = X + X for a bristle or a small random X, over GF(2),
    GF(3), GF(5) or Q, and N = M in new bases at both vertices.  For a
    bristle X no element of the canonical Hom(M, N) basis is invertible, so
    the random candidates decide."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        X = one_by_one(field, draw(st.lists(entries(field), min_size=n, max_size=n).filter(any)))
    else:
        X = draw(modules(field, n, max_dim=2))
    M = direct_sum(X, X)
    return M, draw(rebased(M))


@settings(PROPERTY, max_examples=60)
@given(iso_cases())
def test_iso_candidates_match_sums_of_scaled_basis_morphisms(case):
    """Status and certificate equal those of the candidates summed entry by
    entry from the same draws, for no attempt, one, and the default 64."""
    M, N = case
    for attempts in (0, 1, 64):
        got, ref = find_isomorphism(M, N, attempts), find_isomorphism_by_sums(M, N, attempts)
        assert got.status == ref.status
        if ref.morphism is None:
            assert got.morphism is None
        else:
            assert (got.morphism.f1, got.morphism.f2) == (ref.morphism.f1, ref.morphism.f2)


MIXING_FIELDS = [GF(2), GF(3), GF(5)]


@st.composite
def mixed_arrows(draw):
    """(M, Mh, h, u): M = X + B_q + B_r in new bases at both vertices, X
    small and random, over GF(2), GF(3) or GF(5) with n in 2..3; h an
    invertible n x n matrix and Mh the module with the mixed arrows
    a'_i = sum_j h_ij a_j; u a nonzero vector at vertex 1 of M.  The
    bristle summands make Hom(B_p, M) depend on p."""
    field = draw(st.sampled_from(MIXING_FIELDS))
    n = draw(st.integers(2, 3))
    point = st.lists(entries(field), min_size=n, max_size=n).filter(any)
    M = direct_sum(draw(modules(field, n, max_dim=2)),
                   *(one_by_one(field, draw(point)) for _ in range(draw(st.integers(0, 2)))))
    M = draw(rebased(M))
    h = draw(invertible(field, n))
    u = draw(st.lists(entries(field), min_size=M.dim1, max_size=M.dim1))
    return M, mix_arrows(M, h), h, u


def mix_arrows(M: KroneckerModule, h: Matrix) -> KroneckerModule:
    """M with the arrows a'_i = sum_j h_ij a_j: h times the maps read as
    rows vec(a_1), ..., vec(a_n)."""
    d1, d2 = M.dims
    mixed = h @ Matrix.vstack(*(a.reshape(1, d2 * d1) for a in M.alphas))
    return KroneckerModule(tuple(mixed.select_rows([i]).reshape(d2, d1) for i in range(M.n)))


def mixed_point(h: Matrix, coords) -> tuple:
    """The normalized coordinates of h p for the point p."""
    hp = h @ Matrix.from_rows(h.field, [list(coords)]).transpose()
    return bristle_point(h.rows, h.field, hp.transpose().row(0)).coords


@settings(PROPERTY, max_examples=40)
@given(mixed_arrows())
def test_mixing_the_arrows_moves_bristles_from_p_to_hp(case):
    """Mixing the arrows by h sends B_p to B_hp, so point by point
    dim Hom(B_p, M) = dim Hom(B_hp, M^h) and the traces have the same
    dimensions; saturation and bristledness do not change; and u has the
    type h p in M^h when it has the type p in M."""
    M, Mh, h, u = case
    f, n = M.field, M.n
    coords = [p.coords for p in enumerate_bristles(n, f)]
    at = {c: b for b, c in enumerate(coords)}
    image = [at[mixed_point(h, c)] for c in coords]  # the index of h p, per point p
    points = bristle_points(n, f)
    dims, dims_h = list(bristle_hom_dims(points, M)), list(bristle_hom_dims(points, Mh))
    assert dims == [dims_h[b] for b in image]
    traces, traces_h = bristle_traces(points, M), bristle_traces(points, Mh)
    assert [tr.dims for tr in traces] == [traces_h[image[b]].dims for b in range(len(coords))]
    assert is_saturated(Mh) == is_saturated(M)
    assert is_bristled(Mh) == is_bristled(M)
    if any(x != 0 for x in u):
        p = bristle_type_of(M, u)
        expected = None if p is None else bristle_point(n, f, mixed_point(h, p.coords))
        assert bristle_type_of(Mh, u) == expected


CHANGE_OF_BASIS_FIELDS = [GF(2), GF(3), GF(5), QQ]


@st.composite
def rebased_pairs(draw):
    """(M, Mg, coords): up to five bristle points at n = 3, drawn from the
    enumeration over GF(2), GF(3) or GF(5) and written out as explicit
    nonzero lists over Q; M the sum of one to three bristles at those
    points, half the time plus a small random X; and Mg = g2 M g1^-1 for
    invertible g1 and g2 drawn at the two vertices.  The bristle summands
    make Hom(B_p, M) depend on p, and M is generated by the points of its
    summands together, often by no fewer."""
    field = draw(st.sampled_from(CHANGE_OF_BASIS_FIELDS))
    if field.is_finite:
        every = [p.coords for p in enumerate_bristles(3, field)]
        coords = draw(st.lists(st.sampled_from(every), min_size=1, max_size=5, unique=True))
    else:
        coords = draw(st.lists(st.lists(Q_ENTRIES, min_size=3, max_size=3).filter(any),
                               min_size=1, max_size=4))
    summands = [one_by_one(field, c) for c in draw(st.lists(st.sampled_from(coords),
                                                            min_size=1, max_size=3))]
    if draw(st.booleans()):
        summands.append(draw(modules(field, 3, max_dim=2)))
    M = direct_sum(*summands)
    return M, draw(rebased(M)), coords


@settings(PROPERTY, max_examples=40)
@given(rebased_pairs())
def test_bristle_predicates_invariant_under_change_of_basis(case):
    """New bases at both vertices change no bristle predicate, point by
    point: dim Hom(B_p, M), the dimensions of the trace of B_p, generation
    by B0, and over GF(p) saturation, bristledness and the subset search's
    (spanning, decided) counts over the drawn points, which also equal the
    brute-force counts of ``generates`` on the traces."""
    M, Mg, coords = case
    f = M.field
    points = Matrix.from_rows(f, coords, cols=3)
    assert list(bristle_hom_dims(points, Mg)) == list(bristle_hom_dims(points, M))
    traces = bristle_traces(points, M)
    assert [tr.dims for tr in bristle_traces(points, Mg)] == [tr.dims for tr in traces]
    b0 = [bristle(p) for p in canonical_set("B0", 3, f)]
    assert is_generated_by(b0, Mg) == is_generated_by(b0, M)
    if not f.is_finite:
        return
    assert is_saturated(Mg) == is_saturated(M)
    assert is_bristled(Mg) == is_bristled(M)
    X, Y, counts = bristle_images(points, M)
    found = spanning_by_size((X, Y), counts, len(coords))
    Xg, Yg, counts_g = bristle_images(points, Mg)
    assert spanning_by_size((Xg, Yg), counts_g, len(coords)) == found
    assert found == ([sum(generates(M, sub) for sub in combinations(traces, s))
                      for s in range(len(coords) + 1)],
                     [comb(len(coords), s) for s in range(len(coords) + 1)])
