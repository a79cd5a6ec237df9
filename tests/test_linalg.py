"""Exact linear algebra: canonical forms, kernels, solving, subspace lattice.

Expected values are either immediate, worked by hand, or computed against
brute-force oracles (exhaustive vector enumeration over small finite fields)
inside the test.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from kronbrist.linalg import (
    GF,
    QQ,
    DimensionMismatch,
    Matrix,
    Subspace,
    is_prime,
    joint_kernel,
    kernel_basis,
    rank,
    rref,
    solve,
    subspace_sum,
)


def all_vectors(field, dim):
    return list(itertools.product(list(field.elements()), repeat=dim))


def span_set(field, dim, basis_rows):
    """Brute-force span as a set of tuples; only for small finite cases."""
    out = set()
    for coeffs in itertools.product(list(field.elements()), repeat=len(basis_rows)):
        v = [field.zero()] * dim
        for c, row in zip(coeffs, basis_rows):
            for j in range(dim):
                v[j] = field.add(v[j], field.mul(c, row[j]))
        out.add(tuple(v))
    return out


def killed_by_all(field, dim, maps):
    """Brute-force joint kernel: every vector of k^dim that each map sends to 0."""
    return {v for v in all_vectors(field, dim)
            if all(all(x == 0 for x in A.apply(v)) for A in maps)}


def random_matrix(field, rng, rows, cols):
    if field.is_finite:
        data = [[rng.randrange(field.characteristic) for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[Fraction(rng.randrange(-3, 4)) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(field, data, cols=cols)


class TestFieldSpec:
    def test_prime_validation(self):
        GF(2), GF(3), GF(5), GF(2**31 - 1)
        for bad in (0, 1, 4, 6, 9, 2**31 + 11):
            with pytest.raises(ValueError):
                GF(bad)

    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        for k in range(2, 32):
            assert is_prime(k) == (k in primes)

    def test_arithmetic(self):
        f = GF(7)
        assert f.add(5, 4) == 2
        assert f.mul(3, 5) == 1
        assert f.inv(3) == 5
        assert QQ.inv(Fraction(3, 2)) == Fraction(2, 3)

    def test_rationals_not_enumerable(self):
        with pytest.raises(ValueError):
            QQ.elements()

    def test_fractions_map_into_gf_p(self):
        f = GF(5)
        assert f.normalize(Fraction(1, 2)) == 3  # 2 * 3 = 1 mod 5
        assert f.normalize(Fraction(-7, 3)) == 1  # -7 * 2 = -14 = 1 mod 5
        assert Matrix.from_rows(f, [[Fraction(1, 2)]]) == Matrix.from_rows(f, [[3]])
        assert f.array([Fraction(1, 2), 2**70, -1]).tolist() == [3, 2**70 % 5, 4]

    @pytest.mark.parametrize("bad", [Fraction(1, 5), 2.5, 3.0])
    def test_non_elements_of_gf_p_refused(self, bad):
        f = GF(5)
        with pytest.raises(ValueError, match="not an element of GF"):
            f.normalize(bad)
        with pytest.raises(ValueError, match="not an element of GF"):
            Matrix.from_rows(f, [[1, bad]])


class TestRref:
    def test_identity(self):
        f = GF(5)
        A = Matrix.identity(f, 3)
        R, pivots, rk = rref(A)
        assert R == A and pivots == (0, 1, 2) and rk == 3

    def test_zero_rational(self):
        A = Matrix.zeros(QQ, 2, 4)
        R, pivots, rk = rref(A)
        assert R == A and pivots == () and rk == 0

    def test_dependent_rows_gf5(self):
        # second row is twice the first, hand elimination leaves one pivot
        f = GF(5)
        A = Matrix.from_rows(f, [[1, 2], [2, 4]])
        R, pivots, rk = rref(A)
        assert R == Matrix.from_rows(f, [[1, 2], [0, 0]])
        assert rk == 1 and pivots == (0,)

    def test_idempotent(self):
        rng = random.Random(7)
        for field in (GF(2), GF(5), QQ):
            for _ in range(20):
                A = random_matrix(field, rng, rng.randrange(1, 5), rng.randrange(1, 5))
                R1 = rref(A).matrix
                assert rref(R1).matrix == R1

    def test_gf_and_exact_paths_agree(self):
        # the rational path on 0/1 matrices must mirror the GF(p) pivots for
        # matrices whose elimination stays integral
        f = GF(5)
        A = Matrix.from_rows(f, [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        assert rref(A).rank == 3


class TestKernel:
    def test_identity_kernel_zero(self):
        assert kernel_basis(Matrix.identity(GF(5), 3)).dim == 0

    def test_zero_kernel_full(self):
        K = kernel_basis(Matrix.zeros(QQ, 2, 4))
        assert K.dim == 4 and K.is_full()

    def test_gf2_kernel_matches_enumeration(self):
        f = GF(2)
        A = Matrix.from_rows(f, [[1, 1, 0]])
        K = kernel_basis(A)
        brute = {v for v in all_vectors(f, 3) if (v[0] + v[1]) % 2 == 0}
        assert span_set(f, 3, K.basis.data) == brute
        assert K.dim == 2
        assert K.contains_vector((1, 1, 0)) and K.contains_vector((0, 0, 1))

    def test_rank_nullity(self):
        rng = random.Random(11)
        for field in (GF(2), GF(3), GF(5), QQ):
            for _ in range(25):
                A = random_matrix(field, rng, rng.randrange(0, 5), rng.randrange(1, 6))
                assert rank(A) + kernel_basis(A).dim == A.cols


class TestSolve:
    def test_identity(self):
        f = GF(7)
        A = Matrix.identity(f, 3)
        assert solve(A, (2, 5, 6)) == (2, 5, 6)

    def test_inconsistent(self):
        assert solve(Matrix.zeros(GF(5), 2, 2), (1, 0)) is None

    def test_scalar_inverse_gf5(self):
        # 2x = 3 mod 5 has x = 4
        A = Matrix.from_rows(GF(5), [[2]])
        assert solve(A, (3,)) == (4,)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(Matrix.identity(GF(5), 2), (1, 2, 3))

    def test_solution_checks_out(self):
        rng = random.Random(13)
        for field in (GF(3), QQ):
            for _ in range(30):
                A = random_matrix(field, rng, rng.randrange(1, 5), rng.randrange(1, 5))
                x = tuple(field.normalize(rng.randrange(-2, 3)) for _ in range(A.cols))
                b = A.apply(x)
                got = solve(A, b)
                assert got is not None and A.apply(got) == b


class TestSubspaces:
    def test_sum_with_zero_and_self(self):
        f = GF(3)
        U = Subspace.from_spanning(f, 3, [(1, 2, 0), (0, 1, 1)])
        Z = Subspace.zero(f, 3)
        assert subspace_sum(U, Z) == U
        assert subspace_sum(U, U) == U

    def test_sum_spans_plane_gf2(self):
        f = GF(2)
        U = Subspace.from_spanning(f, 2, [(1, 0)])
        V = Subspace.from_spanning(f, 2, [(1, 1)])
        assert subspace_sum(U, V).is_full()

    def test_intersection_with_full_and_complement(self):
        # the joint kernel intersects the kernels: no maps leave everything,
        # complementary coordinate functionals leave nothing
        f = GF(3)
        x, y = Matrix.from_rows(f, [[1, 0]]), Matrix.from_rows(f, [[0, 1]])
        assert joint_kernel(f, 2, []) == Subspace.full(f, 2)
        assert joint_kernel(f, 2, [y]) == Subspace.from_spanning(f, 2, [(1, 0)])
        assert joint_kernel(f, 2, [y, y]) == kernel_basis(y)
        assert joint_kernel(f, 2, [x, y]).is_zero()
        for maps in ([], [y], [x, y]):
            assert span_set(f, 2, joint_kernel(f, 2, maps).basis.data) == \
                killed_by_all(f, 2, maps)
        with pytest.raises(DimensionMismatch):
            joint_kernel(f, 3, [x])

    def test_generic_planes_meet_in_line_gf5(self):
        # the kernels of two independent functionals are planes of a 3-space
        # that meet in a line; the oracle scans all 125 vectors
        f = GF(5)
        A = Matrix.from_rows(f, [[0, 0, 1]])
        B = Matrix.from_rows(f, [[1, 3, 1]])
        W = joint_kernel(f, 3, [A, B])
        assert span_set(f, 3, W.basis.data) == killed_by_all(f, 3, [A, B])
        assert span_set(f, 3, W.basis.data) == \
            span_set(f, 3, kernel_basis(A).basis.data) & span_set(f, 3, kernel_basis(B).basis.data)
        assert W.dim == 1

    def test_modularity_random(self):
        rng = random.Random(17)
        for p in (2, 3, 5):
            f = GF(p)
            for _ in range(25):
                # modularity of the kernels: ker A + ker B and ker A cap ker B
                amb = rng.randrange(1, 6)
                A = random_matrix(f, rng, rng.randrange(0, 4), amb)
                B = random_matrix(f, rng, rng.randrange(0, 4), amb)
                U, V = kernel_basis(A), kernel_basis(B)
                i = joint_kernel(f, amb, [A, B])
                s = subspace_sum(U, V)
                assert s.dim + i.dim == U.dim + V.dim
                if p < 5:
                    assert span_set(f, amb, i.basis.data) == killed_by_all(f, amb, [A, B])

    def test_canonical_basis_independent_of_spanning_set(self):
        rng = random.Random(19)
        f = GF(5)
        base = [(1, 2, 3, 0), (0, 1, 1, 4)]
        U = Subspace.from_spanning(f, 4, base)
        for _ in range(10):
            mixed = []
            for _ in range(4):
                c1, c2 = rng.randrange(5), rng.randrange(5)
                mixed.append(tuple((c1 * a + c2 * b) % 5 for a, b in zip(*base)))
            V = Subspace.from_spanning(f, 4, mixed)
            if V.dim == U.dim:
                assert V == U
            else:
                assert U.contains(V)

    def test_gf2_exhaustive_lattice_oracle(self):
        rng = random.Random(23)
        f = GF(2)
        for _ in range(20):
            amb = rng.randrange(1, 7)
            # sums of two to five subspaces against the span of all their rows
            parts = [Subspace.from_spanning(f, amb, random_matrix(f, rng, rng.randrange(0, 4), amb).data)
                     for _ in range(rng.randrange(2, 6))]
            rows = [r for U in parts for r in U.basis.data]
            assert span_set(f, amb, subspace_sum(*parts).basis.data) == span_set(f, amb, rows)
            maps = [random_matrix(f, rng, rng.randrange(0, 4), amb) for _ in range(rng.randrange(4))]
            assert span_set(f, amb, joint_kernel(f, amb, maps).basis.data) == \
                killed_by_all(f, amb, maps)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_sum(Subspace.full(GF(2), 2), Subspace.full(GF(2), 3))

    def test_coordinates_roundtrip(self):
        f = QQ
        U = Subspace.from_spanning(f, 3, [(1, 2, 0), (0, 0, 1)])
        v = (Fraction(2), Fraction(4), Fraction(5))
        coords = U.coordinates(v)
        assert coords == (Fraction(2), Fraction(5))
        assert U.coordinates((1, 0, 0)) is None

    def test_rational_entries_stay_exact(self):
        A = Matrix.from_rows(QQ, [[Fraction(1, 3), Fraction(1, 2)], [1, 1]])
        R, pivots, rk = rref(A)
        assert rk == 2
        assert all(isinstance(x, Fraction) for row in R.data for x in row)


class TestMatrixValue:
    """Matrices are values: equality and hash go by field, shape and entries."""

    @pytest.mark.parametrize("field, rows", [
        (GF(7), [[1, 2, 3], [4, 5, 6]]),
        (QQ, [[Fraction(1, 2), 0, 3], [4, Fraction(-5, 3), 6]]),
    ])
    def test_equal_entries_compare_and_hash_equal(self, field, rows):
        A = Matrix.from_rows(field, rows)
        B = Matrix.from_rows(field, [tuple(r) for r in rows])
        C = A.transpose().transpose()  # same entries, other strides
        assert A == B == C
        assert hash(A) == hash(B) == hash(C)
        assert len({A, B, C}) == 1
        changed = [list(r) for r in rows]
        changed[1][2] += 1
        assert A != Matrix.from_rows(field, changed)
        assert A != A.transpose() and A != Matrix.zeros(field, 2, 3)

    def test_field_and_empty_shape_are_part_of_the_value(self):
        assert Matrix.identity(GF(5), 2) != Matrix.identity(GF(7), 2)
        assert Matrix.identity(GF(5), 2) != Matrix.identity(QQ, 2)
        shapes = [(0, 0), (0, 3), (3, 0)]
        empties = [Matrix.zeros(QQ, r, c) for r, c in shapes]
        assert [(E.rows, E.cols) for E in empties] == shapes
        assert len(set(empties)) == 3
        assert (empties[1].transpose().rows, empties[1].transpose().cols) == (3, 0)
        assert Matrix.zeros(QQ, 0, 3).vstack(Matrix.zeros(QQ, 0, 3)) == empties[1]
        assert Matrix.zeros(GF(3), 3, 0) @ Matrix.zeros(GF(3), 0, 2) == Matrix.zeros(GF(3), 3, 2)

    @pytest.mark.parametrize("field", [GF(5), QQ])
    def test_entries_are_read_only(self, field):
        A = Matrix.from_rows(field, [[1, 2], [3, 4]])
        for view in (A, A.transpose(), A.col_block(0, 1), rref(A).matrix):
            with pytest.raises(ValueError):
                view.data[0, 0] = 0
        assert A == Matrix.from_rows(field, [[1, 2], [3, 4]])


def _near_p_rows(p, rows, cols, start):
    """Entries p - 1, p - 2, ... in a fixed scrambled order."""
    return [[p - 1 - (start + 7 * i + 3 * j) % 11 for j in range(cols)] for i in range(rows)]


def _rank_mod_p(rows, p):
    """Reference rank by Gaussian elimination on Python integers."""
    R = [[x % p for x in r] for r in rows]
    rk = 0
    for c in range(len(R[0]) if R else 0):
        piv = next((i for i in range(rk, len(R)) if R[i][c]), None)
        if piv is None:
            continue
        R[rk], R[piv] = R[piv], R[rk]
        inv = pow(R[rk][c], p - 2, p)
        R[rk] = [x * inv % p for x in R[rk]]
        for i in range(len(R)):
            if i != rk and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[rk])]
        rk += 1
    return rk


def _hom_dim_reference(M, N, p):
    """dim Hom(M, N) from the intertwining equations written out entry by entry."""
    t1, t2 = N.dim1 * M.dim1, N.dim2 * M.dim2
    rows = []
    for aM, aN in zip(M.alphas, N.alphas):
        am = [aM.row(s) for s in range(M.dim2)]
        an = [aN.row(r) for r in range(N.dim2)]
        for r in range(N.dim2):
            for c in range(M.dim1):
                row = [0] * (t1 + t2)
                for s in range(M.dim2):
                    row[t1 + r * M.dim2 + s] = am[s][c]
                for t in range(N.dim1):
                    row[t * M.dim1 + c] -= an[r][t]
                rows.append(row)
    return t1 + t2 - _rank_mod_p(rows, p)


class TestLargeCharacteristic:
    # products near (2^31)^2 exceed the vectorized matmul guard, exercising
    # the arbitrary-precision fallback; elimination itself stays vectorized
    def test_rref_solve_kernel_mod_mersenne(self):
        p = 2**31 - 1
        f = GF(p)
        A = Matrix.from_rows(f, [[p - 1, 2, 1], [3, p - 5, 0]])
        R, pivots, rk = rref(A)
        assert rk == 2
        x = (123456789, 987654321, 5)
        b = A.apply(x)
        got = solve(A, b)
        assert got is not None and A.apply(got) == b
        K = kernel_basis(A)
        assert K.dim == 1
        assert A.apply(K.basis.data[0]) == (0, 0)

    def test_matmul_fallback_matches_small_field_semantics(self):
        p = 2**31 - 1
        f = GF(p)
        A = Matrix.from_rows(f, [[p - 1, p - 2], [1, 2]])
        B = Matrix.from_rows(f, [[p - 3], [4]])
        C = A @ B
        assert C == Matrix.from_rows(f, [[((p - 1) * (p - 3) + (p - 2) * 4) % p],
                                         [((p - 3) + 2 * 4) % p]])

    # every entry close to p and at least 3 columns: a dot product summed in
    # int64 would overflow, so each result is checked against Python integers
    def test_matmul_near_p_matches_python_ints(self):
        p = 2**31 - 1
        f = GF(p)
        a, b = _near_p_rows(p, 3, 4, 0), _near_p_rows(p, 4, 3, 5)
        expected = [[sum(a[i][k] * b[k][j] for k in range(4)) % p for j in range(3)]
                    for i in range(3)]
        C = Matrix.from_rows(f, a) @ Matrix.from_rows(f, b)
        assert C == Matrix.from_rows(f, expected)
        assert [list(C.row(i)) for i in range(3)] == expected

    def test_apply_near_p_matches_python_ints(self):
        p = 2**31 - 1
        a = _near_p_rows(p, 2, 5, 2)
        x = (p - 1, p - 2, p - 3, p - 4, p - 5)
        expected = tuple(sum(r[k] * x[k] for k in range(5)) % p for r in a)
        assert Matrix.from_rows(GF(p), a).apply(x) == expected

    def test_contains_vector_near_p(self):
        p = 2**31 - 1
        r1, r2, r3 = _near_p_rows(p, 3, 5, 4)
        U = Subspace.from_spanning(GF(p), 5, [r1, r2, r3])
        assert U.dim == 3
        c = (p - 2, p - 3, p - 6)
        v = [(c[0] * x + c[1] * y + c[2] * z) % p for x, y, z in zip(r1, r2, r3)]
        assert U.contains_vector(v)
        assert U.reduce_vector(v) == (0,) * 5
        # U is 3-dimensional in k^5: some unit vector lies outside it
        outside = [e for e in ([int(i == j) for i in range(5)] for j in range(5))
                   if not U.contains_vector(e)]
        assert outside
        for e in outside:
            w = [(x + (p - 1) * y) % p for x, y in zip(v, e)]  # v - e
            assert not U.contains_vector(w)

    def test_hom_dim_near_p_matches_python_ints(self):
        from kronbrist.modules import KroneckerModule, hom_dim

        p = 2**31 - 1
        f = GF(p)

        def module(start):
            alphas = tuple(Matrix.from_rows(f, _near_p_rows(p, 3, 3, start + 5 * i))
                           for i in range(2))
            return KroneckerModule(2, f, 3, 3, alphas)

        M, N = module(0), module(1)
        g = Matrix.from_rows(f, _near_p_rows(p, 3, 3, 9))
        assert rank(g) == 3
        # M twisted by g at vertex 2 (identity at vertex 1) is isomorphic to M
        G = KroneckerModule(2, f, 3, 3, tuple(g @ a for a in M.alphas))
        for X, Y in ((M, M), (M, N), (N, M), (M, G), (G, M)):
            assert hom_dim(X, Y) == _hom_dim_reference(X, Y, p)
        assert hom_dim(M, G) == hom_dim(M, M) >= 1
