"""Property tests: rank agrees over Q, over a large prime field and with
sympy, and the whole RREF over Q (matrix and pivots) equals sympy's; the
rank and kernel of a sparse system, peeled, equal those of the system
written out densely; the Hom systems of modules and of cover
representations have the kernels of the systems written out with np.kron;
Hom and Ext dimensions are invariant under a change of basis at both
vertices; the two Ext routes and both forms of the Auslander-Reiten
formula agree; module files round-trip exactly; the pruned subset search
counts the generating subsets of each size as brute force does; a
product summed over the nonzeros of either operand equals the dense one;
the block system of many bristles gives, block by block, the Hom spaces
the one Hom-system builder gives; generation decided by rank agrees with
the canonical trace.

hypothesis runs derandomized with few examples, so every run checks the
same inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from kronbrist.cover import (  # noqa: E402
    _cover_hom_system,
    build_ball_rep,
    build_mu_bristle_rep,
    build_tau_bristle_rep,
    cover_bristle_at,
    cover_hom_dim,
    neighbor,
    vertex_class,
)
from kronbrist import linalg  # noqa: E402
from kronbrist.linalg import (  # noqa: E402
    GF,
    QQ,
    Matrix,
    SparseSystem,
    Subspace,
    bristle_hom_system,
    intertwining_system,
    kernel_basis,
    rank,
    rref,
    sparse_block_ranks,
    sparse_kernel,
    sparse_kernel_rows,
    sparse_rank,
)
from kronbrist.modfile import parse_module_file, write_module_file  # noqa: E402
from kronbrist.modules import (  # noqa: E402
    KroneckerModule,
    SubmodulePair,
    _hom_system,
    ar_translate,
    bristle_hom_dims,
    direct_sum,
    direct_sum_list,
    ext1_dim,
    ext1_dim_via_resolution,
    hom_basis,
    hom_dim,
    is_generated_by,
    simple_module,
    trace_submodule,
    zero_module,
)
from kronbrist.scenarios import _generates, _generating_by_size  # noqa: E402

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
    return KroneckerModule(n, field, d1, d2, alphas)


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
    return rref(g.hstack(Matrix.identity(g.field, d))).matrix.col_block(d, 2 * d)


@st.composite
def module_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    return draw(modules(field, n)), draw(modules(field, n))


@st.composite
def rebased(draw, M):
    """M in new bases at both vertices: alpha -> g2 alpha g1^-1."""
    g1 = draw(invertible(M.field, M.dim1))
    g2 = draw(invertible(M.field, M.dim2))
    h1 = inverse(g1)
    return KroneckerModule(M.n, M.field, M.dim1, M.dim2, tuple(g2 @ a @ h1 for a in M.alphas))


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
    R, pivots, rk = rref(Matrix.from_rows(QQ, rows))
    S, sympy_pivots = sympy.Matrix(rows).rref()
    assert pivots == tuple(sympy_pivots) and rk == len(pivots)
    assert [list(R.row(i)) for i in range(R.rows)] == \
        [[Fraction(int(x.p), int(x.q)) for x in S.row(i)] for i in range(S.rows)]


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
        return KroneckerModule(n, field, d1, d2, tuple(
            Matrix.from_rows(field, [[draw(entry) for _ in range(d1)] for _ in range(d2)], cols=d1)
            for _ in range(n)))
    return module(), module()


@settings(PROPERTY, max_examples=60)
@given(builder_pairs())
def test_hom_system_matches_kron_formula(pair):
    M, N = pair
    ref = kron_hom_system(M, N)
    if M.field.is_finite:  # over Q each arrow's rows are scaled by its denominators
        assert written_out(_hom_system(M, N)) == ref
    K = kernel_basis(ref)
    assert hom_dim(M, N) == K.dim
    # the canonical basis: row-major f1 then f2 of each element is a kernel row
    basis = hom_basis(M, N)
    assert [b.f1.reshape(1, -1).hstack(b.f2.reshape(1, -1)) for b in basis] == \
        K.basis.split_rows(K.dim)


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
    rows = sparse_kernel_rows(S)
    assert rank(rows) == rows.rows == kernel_basis(A).dim
    assert Subspace.row_space(rows) == kernel_basis(A)


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
def trace_lists(draw):
    """(M, traces, max_size): up to 7 traces in a module of dimension at most
    (3, 3) over GF(2), GF(3) or Q whose maps are all zero, so that any pair
    of subspaces is a submodule; each trace spans at most two drawn vectors
    per vertex."""
    field = draw(st.sampled_from([GF(2), GF(3), QQ]))
    d1, d2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    M = KroneckerModule(2, field, d1, d2, (Matrix.zeros(field, d2, d1),) * 2)

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
    """The pruned search counts, size by size, the subsets that ``_generates``
    says span M, and decides every subset up to the size bound."""
    M, traces, max_size = case
    spanning, decided = _generating_by_size(M, traces, max_size)
    assert spanning == [sum(_generates(M, sub) for sub in combinations(traces, s))
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
    assert e == hom_dim(ar_translate(N, "tau-"), M) == hom_dim(N, ar_translate(M, "tau"))


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
    """(field, a, b): a is m x k; b is k x n or, as a vector, k; either side
    may be sparse, and shapes reach past _SPARSE_MIN_WORK multiply-adds."""
    field = draw(st.sampled_from(DOT_FIELDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, k = draw(st.integers(0, 70)), draw(st.integers(0, 40))
    a = _sparse_array(rng, field, (m, k), draw(st.sampled_from(DOT_DENSITIES)))
    b_shape = (k,) if draw(st.booleans()) else (k, draw(st.integers(0, 70)))
    b = _sparse_array(rng, field, b_shape, draw(st.sampled_from(DOT_DENSITIES)))
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
        if b.ndim == 2:
            assert np.array_equal(linalg._sparse_dot(b.T, a.T, p).T, expected)


def generic_hom_system(M, N) -> SparseSystem:
    """Hom(M, N) through ``intertwining_system``, for any M: the oracle of
    the bristle block system."""
    t1, h = N.dim1 * M.dim1, N.dim2 * M.dim1
    terms = [(i * h, 0, t1, aM, aN) for i, (aM, aN) in enumerate(zip(M.alphas, N.alphas))]
    return intertwining_system(M.field, M.n * h, t1 + N.dim2 * M.dim2, terms)


def one_by_one(field, coords) -> KroneckerModule:
    """The (1, 1) module whose i-th map is multiplication by coords[i]."""
    return KroneckerModule(len(coords), field, 1, 1,
                           tuple(Matrix.from_rows(field, [[c]], cols=1) for c in coords))


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
    N = KroneckerModule(n, field, d1, d2, tuple(
        Matrix.from_rows(field, [[draw(entry) for _ in range(d1)] for _ in range(d2)], cols=d1)
        for _ in range(n)))
    point = st.lists(entry, min_size=n, max_size=n).filter(lambda c: any(x != 0 for x in c))
    points = draw(st.lists(point, min_size=1, max_size=4))
    if draw(st.booleans()):  # a summand B_p makes Hom(B_p, N) nonzero, with y != 0
        N = direct_sum(N, one_by_one(field, points[0]))
    return N, points


@settings(PROPERTY, max_examples=100)
@given(bristle_sweeps())
def test_bristle_block_ranks_match_one_system_each(case):
    """Block b of ``bristle_hom_system`` has the rank of Hom(B_p, N) built by
    ``intertwining_system``, and each block is ranked once, the blocks with
    no core after peeling first; a one-point block has the same kernel, and
    is what ``_hom_system`` builds for the bristle."""
    N, coords = case
    f, width = N.field, N.dim1 + N.dim2
    points = Matrix.from_rows(f, coords, cols=N.n)
    expected = [width - sparse_rank(generic_hom_system(one_by_one(f, c), N)) for c in coords]
    S = bristle_hom_system(N.alphas, points)
    assert (S.rows, S.cols) == (len(coords) * N.n * N.dim2, len(coords) * width)
    ranks = list(sparse_block_ranks(S, len(coords)))
    assert sorted(b for b, _ in ranks) == list(range(len(coords)))
    assert [width - r for _, r in sorted(ranks)] == expected
    assert sorted(bristle_hom_dims(points, N)) == list(enumerate(expected))
    for c, dim in zip(coords, expected):
        B = one_by_one(f, c)
        one = bristle_hom_system(N.alphas, Matrix.from_rows(f, [c], cols=N.n))
        assert sparse_kernel(one) == sparse_kernel(generic_hom_system(B, N))
        assert sparse_kernel(_hom_system(B, N)) == sparse_kernel(one)
        assert hom_dim(B, N) == dim


@settings(PROPERTY, max_examples=60)
@given(bristle_sweeps())
def test_zero_one_by_one_modules_keep_the_generic_system(case):
    """A (1, 1) module whose maps are all zero is no bristle: its Hom system
    into N is the one ``intertwining_system`` builds."""
    N, _ = case
    Z = one_by_one(N.field, [0] * N.n)
    S, ref = _hom_system(Z, N), generic_hom_system(Z, N)
    assert (S.rows, S.cols) == (ref.rows, ref.cols)
    assert written_out(S) == written_out(ref)
    assert hom_dim(Z, N) == N.dim1 + N.dim2 - sparse_rank(ref)


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
        M = direct_sum_list([simple_module(n, field, 2)] * draw(st.integers(1, 3)))
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
