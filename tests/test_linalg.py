"""Exact linear algebra: canonical forms, kernels, subspace lattice.

Expected values are either immediate, worked by hand, or computed against
brute-force oracles (exhaustive vector enumeration over small finite fields)
inside the test.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from kronbrist import linalg
from kronbrist.linalg import (
    GF,
    QQ,
    DimensionMismatch,
    Matrix,
    SparseSystem,
    Subspace,
    hom_system,
    is_prime,
    joint_kernel,
    kernel_basis,
    place_blocks,
    projective_points,
    quotient_projection,
    rank,
    rref,
    spanning_by_size,
    subset_ranks,
    subspace_sum,
)
from kronbrist.scenarios import default_config, run_scenario

from oracles import (coordinates, product_by_objects, projective_points_by_product,
                     rational_library_calls)


def all_vectors(field, dim):
    return list(itertools.product(range(field.order), repeat=dim))


def span_set(field, dim, basis_rows):
    """Brute-force span as a set of tuples; only for small finite cases."""
    out = set()
    for coeffs in itertools.product(range(field.order), repeat=len(basis_rows)):
        v = [0] * dim
        for c, row in zip(coeffs, basis_rows):
            for j in range(dim):
                v[j] = field.normalize(v[j] + c * row[j])
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

    def test_gf_zero_is_refused_though_characteristic_zero_is_q(self):
        """A field is its characteristic, 0 meaning Q, but GF(0) is no field."""
        assert linalg.FieldSpec(0) == QQ and not QQ.is_finite
        with pytest.raises(linalg.CharacteristicError,
                           match=r"^characteristic must be a prime in \[2, 2\^31\), got 0$"):
            GF(0)

    def test_is_prime_small(self):
        # every k < 200 against trial division: k < 2, and composites with no
        # factor among the witnesses (121, 143, 169, 187) that a witness rejects
        for k in range(-1, 200):
            assert is_prime(k) == (k >= 2 and all(k % d for d in range(2, k))), k

    @pytest.mark.parametrize("k,prime", [
        (2047, False),       # 23 * 89, a strong pseudoprime to base 2
        (1373653, False),    # 829 * 1657, to bases 2 and 3
        (25326001, False),   # 2251 * 11251, to bases 2, 3 and 5: only the witness 7 rejects it
        (2**31 - 1, True)])
    def test_is_prime_strong_pseudoprimes(self, k, prime):
        assert is_prime(k) == prime

    def test_arithmetic(self):
        """No scalar product or inverse is kept: a product is reduced, and an
        inverse read off a Fraction, by ``normalize``."""
        f = GF(7)
        assert f.normalize(3 * 5) == 1
        assert f.normalize(Fraction(1, 3)) == 5
        assert QQ.normalize(Fraction(3, 2) ** -1) == Fraction(2, 3)

    def test_rationals_not_enumerable(self):
        with pytest.raises(ValueError):
            projective_points(QQ, 2)

    def test_fractions_map_into_gf_p(self):
        f = GF(5)
        assert f.normalize(Fraction(1, 2)) == 3  # 2 * 3 = 1 mod 5
        assert f.normalize(Fraction(-7, 3)) == 1  # -7 * 2 = -14 = 1 mod 5
        assert Matrix.from_rows(f, [[Fraction(1, 2)]]) == Matrix.from_rows(f, [[3]])
        num, den = f.array([Fraction(1, 2), 2**70, -1])
        assert num.tolist() == [3, 2**70 % 5, 4] and den == 1

    @pytest.mark.parametrize("bad", [Fraction(1, 5), 2.5, 3.0])
    def test_non_elements_of_gf_p_refused(self, bad):
        f = GF(5)
        with pytest.raises(ValueError, match="not an element of GF"):
            f.normalize(bad)
        with pytest.raises(ValueError, match="not an element of GF"):
            Matrix.from_rows(f, [[1, bad]])

    def test_rationals_accept_integers_and_fractions(self):
        for x, want in [(3, Fraction(3)), (np.int64(-4), Fraction(-4)), (2**70, Fraction(2**70)),
                        (Fraction(2, 6), Fraction(1, 3))]:
            got = QQ.normalize(x)
            assert type(got) is Fraction and got == want
        A = Matrix.from_rows(QQ, [[np.int64(1), Fraction(1, 3)], [2**70, -2]])
        assert [type(x) for i in range(A.rows) for x in A.row(i)] == [Fraction] * 4

    @pytest.mark.parametrize("bad", [0.1, 2.5, "1/3"])
    def test_non_elements_of_q_refused(self, bad):
        with pytest.raises(ValueError, match="not an element of Q"):
            QQ.normalize(bad)
        with pytest.raises(ValueError, match="not an element of Q"):
            Matrix.from_rows(QQ, [[1, bad]])

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1.0, 2]], np.array([[0.5]]), [["1", 2]],
                                      np.array([["1"]])], ids=["ragged", "float", "float-array",
                                                               "string", "string-array"])
    def test_ragged_float_and_string_rows_over_q_refused(self, rows):
        """Only an integer dtype is read as numerators; whatever else numpy
        makes of the rows is still refused."""
        with pytest.raises(ValueError):
            QQ.array(rows)
        with pytest.raises(ValueError):
            Matrix.from_rows(QQ, rows)


class TestProjectivePoints:
    @pytest.mark.parametrize("q,dim", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
                                       (3, 3), (5, 3), (7, 2)])
    def test_rows_are_the_product_enumeration(self, q, dim):
        """One row per line, row for row the tuples of the product
        enumeration: (q^dim - 1)/(q - 1) distinct rows, each with first
        nonzero 1."""
        P = projective_points(GF(q), dim)
        rows = [P.row(i) for i in range(P.rows)]
        assert (P.rows, P.cols) == ((q**dim - 1) // (q - 1), dim)
        assert rows == projective_points_by_product(GF(q), dim)
        assert len(set(rows)) == P.rows
        assert all(next(c for c in r if c) == 1 for r in rows)
        assert all(type(c) is int for r in rows for c in r)


class TestRref:
    def test_identity(self):
        f = GF(5)
        A = Matrix.identity(f, 3)
        U = rref(A)
        assert U.basis == A and U.pivot_cols == (0, 1, 2) and U.dim == 3

    def test_zero_rational(self):
        A = Matrix.zeros(QQ, 2, 4)
        U = rref(A)
        assert U.basis == Matrix.zeros(QQ, 0, 4) and U.pivot_cols == () and U.dim == 0

    def test_dependent_rows_gf5(self):
        # second row is twice the first, hand elimination leaves one pivot
        f = GF(5)
        A = Matrix.from_rows(f, [[1, 2], [2, 4]])
        U = rref(A)
        assert U.basis == Matrix.from_rows(f, [[1, 2]])
        assert U.dim == 1 and U.pivot_cols == (0,)

    def test_idempotent(self):
        rng = random.Random(7)
        for field in (GF(2), GF(5), QQ):
            for _ in range(20):
                A = random_matrix(field, rng, rng.randrange(1, 5), rng.randrange(1, 5))
                R1 = rref(A).basis
                assert rref(R1).basis == R1

    def test_gf_and_exact_paths_agree(self):
        # the rational path on 0/1 matrices must mirror the GF(p) pivots for
        # matrices whose elimination stays integral
        f = GF(5)
        A = Matrix.from_rows(f, [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        assert rref(A).dim == 3


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
        assert K.contains_rows(Matrix.from_rows(f, [[1, 1, 0], [0, 0, 1]]))

    def test_rank_nullity(self):
        rng = random.Random(11)
        for field in (GF(2), GF(3), GF(5), QQ):
            for _ in range(25):
                A = random_matrix(field, rng, rng.randrange(0, 5), rng.randrange(1, 6))
                assert rank(A) + kernel_basis(A).dim == A.cols


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
        coords = coordinates(U, v)
        assert coords == (Fraction(2), Fraction(5))
        assert coordinates(U, (1, 0, 0)) is None

    def test_rational_entries_stay_exact(self):
        A = Matrix.from_rows(QQ, [[Fraction(1, 3), Fraction(1, 2)], [1, 1]])
        R = rref(A).basis
        assert R.rows == 2
        assert all(isinstance(x, Fraction) for i in range(R.rows) for x in R.row(i))

    @pytest.mark.parametrize("field", [GF(5)], ids=str)
    def test_subset_ranks_in_runs_match_one_sweep(self, field, monkeypatch):
        """A gathered stack too large for one sweep is swept in runs, with
        the same ranks, each that of ``rank`` on the selected rows."""
        A = random_matrix(field, random.Random(7), 9, 4)
        whole = subset_ranks(A, 3)
        assert whole == [rank(A.select_rows(rows)) for rows in itertools.combinations(range(9), 3)]
        monkeypatch.setattr(linalg, "_STACK_CELLS", 20)
        assert subset_ranks(A, 3) == whole

    def test_stacked_sweep_refuses_the_rationals(self):
        """The stacked sweep runs over GF(p) only; over Q its callers are
        refused once there are rows to reduce.  At size 1 the search rules
        out both lines of the plane before it reduces any, so it asks for
        pairs."""
        with pytest.raises(ValueError, match="GF"):
            subset_ranks(Matrix.identity(QQ, 2), 1)
        with pytest.raises(ValueError, match="GF"):
            spanning_by_size([Matrix.identity(QQ, 2)], [1, 1], 2)


def written_out(S: SparseSystem) -> Matrix:
    """The sparse system S as a dense Matrix, its entries stored as they are."""
    a = S.field.zeros((S.rows, S.cols))
    a[S.i, S.j] = S.v
    return Matrix._of(S.field, a)


def _assert_fractions_in_lowest_terms(M: Matrix):
    # the stored integers are Python ints: numpy ints would overflow silently
    assert type(M.den) is int and all(type(x) is int for x in M.data.flat)
    for x in (x for i in range(M.rows) for x in M.row(i)):
        assert type(x) is Fraction
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


class TestWhollyPeeled:
    def test_a_wholly_peeled_system_makes_no_rref_call(self, monkeypatch):
        """Two blocks, an invertible triangle and the line x + y = 0 over
        GF(5), which the peel decides with no core left: the rank, the
        block ranks and the block kernels come from the peel alone, with no
        ``rref`` of an empty core."""
        f = GF(5)
        S = SparseSystem(f, 4, 6, np.array([0, 0, 1, 2, 2]), np.array([0, 1, 1, 3, 4]),
                         np.array([1, 2, 3, 1, 1]))

        def forbidden(*args):
            raise AssertionError("rref called on a wholly peeled system")

        monkeypatch.setattr(linalg, "rref", forbidden)
        assert linalg.sparse_rank(S) == 3
        assert list(linalg.sparse_block_ranks(S, 2)) == [2, 1]
        K, counts = linalg.sparse_block_kernels(S, 2)
        assert counts == [1, 2]
        dense = written_out(S).data
        assert not (dense[:2, :3] @ K.data[:1].T % 5).any() and not (dense[2:, 3:] @ K.data[1:].T % 5).any()
        monkeypatch.undo()
        assert rank(K.select_rows([1, 2])) == 2


class TestBlockRanks:
    def test_first_rank_drawn_is_block_0s_after_one_elimination(self, monkeypatch):
        """Three blocks over GF(5), each a dense 2 x 2 block that the peel
        leaves whole: the first value drawn is block 0's rank, an int, after
        one ``rank`` call; the others follow in block order, one call each."""
        f = GF(5)
        blocks = ([[1, 2], [2, 4]], [[1, 1], [1, 2]], [[3, 1], [1, 2]])
        i, j, v = zip(*[(2 * b + r, 2 * b + c, x) for b, B in enumerate(blocks)
                        for r, row in enumerate(B) for c, x in enumerate(row)])
        S = SparseSystem(f, 6, 6, np.array(i), np.array(j), np.array(v))
        calls, real = [], linalg.rank

        def counting(A):
            calls.append(A.rows)
            return real(A)

        monkeypatch.setattr(linalg, "rank", counting)
        ranks = linalg.sparse_block_ranks(S, 3)
        first = next(ranks)
        assert type(first) is int and first == 1 and calls == [2]
        assert list(ranks) == [2, 1] and calls == [2, 2, 2]


class TestRationalEntryTypes:
    """Over Q every entry leaving linalg is a Fraction in lowest terms.

    The rational path computes on integer numerators over one denominator.
    An int leaving linalg where a Fraction is due would render in a report
    as a JSON number where the equal Fraction is a string.
    """

    A = Matrix.from_rows(QQ, [[Fraction(2, 3), Fraction(-1, 6), 0, 4],
                              [Fraction(4, 3), Fraction(-1, 3), 0, 8],
                              [0, Fraction(5, 7), 1, 2**70],
                              [0, 0, 0, 0]])
    B = Matrix.from_rows(QQ, [[1, 0], [0, 1], [Fraction(3, 2), 0], [0, Fraction(-1, 4)]])
    INTEGER = Matrix.from_rows(QQ, [[2, 4, 6], [1, 2, 3]])

    def test_rref_and_kernel(self):
        for M in (self.A, self.B, self.INTEGER, Matrix.identity(QQ, 3), Matrix.zeros(QQ, 2, 3)):
            _assert_fractions_in_lowest_terms(rref(M).basis)
            K = kernel_basis(M)
            _assert_fractions_in_lowest_terms(K.basis)
            _assert_fractions_in_lowest_terms(quotient_projection(K))
        assert rref(self.INTEGER).basis == Matrix.from_rows(QQ, [[1, 2, 3]])

    def systems(self):
        """F2 A = B F1 for the source maps A = self.A and the target maps
        B = self.B (F1 2 x 4 at column 0, F2 4 x 4 at 8), and for A = self.B^T,
        B = self.INTEGER (F1 3 x 4, F2 2 x 2)."""
        return (written_out(hom_system([self.B], self.A.reshape(1, -1), (4, 4))),
                written_out(hom_system([self.INTEGER], self.B.transpose().reshape(1, -1), (4, 2))))

    def test_products(self):
        for M in (self.A @ self.B, self.INTEGER @ self.INTEGER.transpose(),
                  self.A @ Matrix.zeros(QQ, 4, 2), *self.systems()):
            _assert_fractions_in_lowest_terms(M)
        # -B[0, 0] times A.den * B.den = 42 * 4, over denominator 1
        S = self.systems()[0]
        assert S.den == 1 and S.row(0)[0] == Fraction(-168)

    def test_every_output_stores_python_ints(self):
        A, B = self.A, self.B
        U = rref(A)
        outputs = [A.transpose(), A.reshape(2, 8), A.columns_of_rows(2, 2), *A.split_rows(2),
                   A.col_block(1, 3), A.select_cols([3, 0]), A.hstack(B), A.vstack(B.transpose()),
                   place_blocks(QQ, 5, 6, [(0, 0, A), (1, 4, B.col_block(0, 2))]),
                   Matrix.identity(QQ, 3), Matrix.zeros(QQ, 2, 2), U.basis,
                   joint_kernel(QQ, 4, [A]).basis, subspace_sum(U, U).basis]
        for M in outputs:
            _assert_fractions_in_lowest_terms(M)


class TestIntegerFormat:
    """Over Q a Matrix is Python ints over one positive denominator, in
    lowest terms from construction on; stacking and placement bring their
    parts to the lcm of the denominators."""

    def test_every_matrix_over_q_holds_python_ints(self, monkeypatch):
        """Every Matrix over Q built by the rational scenario, the library
        calls of the benchmark's Q item, products on and past the int64
        bound and every input conversion stores Python ints in an object
        array, over a Python int denominator."""
        seen, real = [], Matrix._set

        def checked(self, a, den, lowest=True):
            real(self, a, den, lowest)
            if not self.field.is_finite:
                seen.append((self.data.dtype, type(self.den), {type(x) for x in self.data.flat}))

        monkeypatch.setattr(Matrix, "_set", checked)
        run_scenario(default_config("annihilated-lemma", field=QQ, n=4))
        assert all(got == expected for _, expected, got in rational_library_calls())
        for rows in (np.arange(12, dtype=np.int64).reshape(3, 4), np.full((4, 1), 2**63 + 1, np.uint64),
                     [[2**70, Fraction(1, 3)], [1, 2]], [[1, -2], [3, 4]]):
            A = Matrix.from_rows(QQ, rows)
            A @ A.transpose()
            A.apply([1] * A.cols)
            kernel_basis(A)
        huge = Matrix.from_rows(QQ, [[2**40] * 8] * 8)
        huge @ huge
        assert len(seen) > 1000
        assert {(dtype, den) for dtype, den, _ in seen} == {(np.dtype(object), int)}
        assert set().union(*(types for _, _, types in seen)) == {int}

    def test_raw_integer_object_array_multiplies(self):
        A = Matrix(QQ, np.array([[1, 2]], dtype=object))
        B = Matrix(QQ, np.array([[3], [1]], dtype=object), 4)
        assert (A @ B).row(0) == (Fraction(5, 4),)
        assert A @ B == Matrix.from_rows(QQ, [[Fraction(5, 4)]])

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, 2.0])
    def test_raw_non_integer_entries_refused(self, bad):
        with pytest.raises(ValueError, match="integers"):
            Matrix(QQ, np.array([[1, bad]], dtype=object))

    @pytest.mark.parametrize("bad", [7, -1])
    def test_raw_entries_outside_gf_p_refused(self, bad):
        assert Matrix(GF(5), np.array([[4, 0]])) == Matrix.from_rows(GF(5), [[4, 0]])
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            Matrix(GF(5), np.array([[bad]]))

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
    def test_raw_array_is_copied(self, field):
        """The caller's array stays writeable, and writing to it leaves the
        matrix as it was."""
        a = np.array([[1, 2], [3, 4]], dtype=field.dtype)
        M = Matrix(field, a)
        a[0, 0] = 0
        assert M == Matrix.from_rows(field, [[1, 2], [3, 4]])
        assert not M.data.flags.writeable

    @pytest.mark.parametrize("den", [0, -2, 0.5])
    def test_bad_denominator_refused(self, den):
        with pytest.raises(ValueError):
            Matrix(QQ, np.array([[1, 2]], dtype=object), den)

    def test_lowest_terms_at_construction(self):
        A = Matrix(QQ, np.array([[2, 4]], dtype=object), 6)
        assert (A.data.tolist(), A.den) == ([[1, 2]], 3)
        B = Matrix.from_rows(QQ, [[Fraction(1, 3), Fraction(2, 3)]])
        assert A == B and hash(A) == hash(B)
        assert Matrix(QQ, np.zeros((2, 2), dtype=object), 7).den == 1

    def test_parts_brought_to_one_denominator(self):
        half = Matrix.from_rows(QQ, [[Fraction(1, 2), 1]])
        third = Matrix.from_rows(QQ, [[Fraction(1, 3), 0]])
        h, t = Fraction(1, 2), Fraction(1, 3)
        assert half.vstack(third) == Matrix.from_rows(QQ, [[h, 1], [t, 0]])
        assert half.hstack(third) == Matrix.from_rows(QQ, [[h, 1, t, 0]])
        placed = place_blocks(QQ, 2, 3, [(0, 0, half), (1, 1, third)])
        assert placed == Matrix.from_rows(QQ, [[h, 1, 0], [0, t, 0]])

    def test_reshape_and_block_transpose(self):
        f = GF(7)
        A = Matrix.from_rows(f, [[1, 2], [3, 4], [5, 6], [0, 1]])  # [A1; A2], 2 x 2 each
        assert A.reshape(2, 4) == Matrix.from_rows(f, [[1, 2, 3, 4], [5, 6, 0, 1]])
        assert A.reshape(2, 4).columns_of_rows(2, 2) == \
            Matrix.from_rows(f, [[1, 3], [2, 4], [5, 0], [6, 1]])
        assert A.reshape(2, 4).columns_of_rows(2, 2).reshape(2, 4).columns_of_rows(2, 2) == A
        assert [B.rows for B in A.split_rows(2)] == [2, 2]
        assert A.split_rows(2)[1] == Matrix.from_rows(f, [[5, 6], [0, 1]])


def test_stacked_products_over_q_match_python_ints():
    """Over Q a stack of products is one product per member on Python
    integers, as the row-wise side of the intertwining guard needs."""
    a = [[[2**70, -3], [1, 5]], [[7, 2**65], [-1, 0]]]
    b = [[[1, 2**64], [3, -4]], [[2**66, 1], [5, 6]]]
    expected = [[[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
                for x, y in zip(a, b)]
    assert linalg._dot(QQ, np.array(a, object), np.array(b, object)).tolist() == expected


class TestColumnsOfRows:
    def test_each_row_read_as_a_matrix_gives_its_columns(self):
        f = GF(7)
        A = Matrix.from_rows(f, [[1, 2, 3, 4, 5, 6], [0, 1, 0, 2, 0, 3]])  # rows as 3 x 2
        assert A.columns_of_rows(3, 2) == Matrix.from_rows(
            f, [[1, 3, 5], [2, 4, 6], [0, 0, 0], [1, 2, 3]])
        assert A.columns_of_rows(6, 1) == A
        assert A.columns_of_rows(1, 6) == A.reshape(12, 1)

    def test_one_column_is_the_rows_themselves(self):
        H = Matrix.from_rows(GF(5), [[1, 2, 3, 4], [4, 3, 2, 1]])
        X = H.col_block(0, 3)
        assert np.shares_memory(X.columns_of_rows(3, 1).data, H.data)

    @pytest.mark.parametrize("d, m", [(0, 2), (3, 0), (0, 0)])
    def test_empty_shapes(self, d, m):
        A = Matrix.zeros(QQ, 2, d * m)
        assert (A.columns_of_rows(d, m).rows, A.columns_of_rows(d, m).cols) == (2 * m, d)


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
        for view in (A, A.transpose(), A.col_block(0, 1), rref(A).basis):
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


class TestNonzeroProduct:
    """Which path a product over GF(p) takes; tests/test_properties.py checks
    that both give the same array."""

    @staticmethod
    def _spy(monkeypatch):
        calls, real = [], linalg._sparse_dot

        def spy(a, b, p):
            calls.append((a.shape, b.shape))
            return real(a, b, p)

        monkeypatch.setattr(linalg, "_sparse_dot", spy)
        return calls

    @staticmethod
    def _diagonal(field, rows, cols):
        a = np.zeros((rows, cols), np.int64)
        np.fill_diagonal(a, 1)
        return Matrix(field, a)

    def test_sparse_left_operand(self, monkeypatch):
        calls = self._spy(monkeypatch)
        f = GF(5)
        dense = Matrix(f, np.full((64, 40), 3, np.int64))
        C = self._diagonal(f, 50, 64) @ dense
        assert calls == [((50, 64), (64, 40))]
        assert C == dense.split_rows(32)[0].vstack(*dense.split_rows(32)[1:25])

    def test_sparse_right_operand_through_the_transposes(self, monkeypatch):
        calls = self._spy(monkeypatch)
        f = GF(5)
        dense = Matrix(f, np.full((40, 64), 3, np.int64))
        C = dense @ self._diagonal(f, 64, 50)
        assert calls == [((50, 64), (64, 40))]
        assert C == dense.col_block(0, 50)

    def test_fewer_products_side_is_chosen(self, monkeypatch):
        calls = self._spy(monkeypatch)
        f = GF(2)
        two = np.zeros((100, 40), np.int64)
        two[[0, 1], [0, 1]] = 1
        # a: 100 nonzeros times 40 columns of b; b: 2 nonzeros times 200 rows of a
        C = self._diagonal(f, 200, 100) @ Matrix(f, two)
        assert calls == [((40, 100), (100, 200))]
        assert C == Matrix(f, np.vstack([two, np.zeros((100, 40), np.int64)]))

    def test_dense_and_small_products_stay_dense(self, monkeypatch):
        calls = self._spy(monkeypatch)
        f = GF(5)
        dense = Matrix(f, np.full((64, 64), 3, np.int64))
        dense @ dense  # density 1
        self._diagonal(f, 30, 30) @ self._diagonal(f, 30, 30)  # 900 cells: tiny
        self._diagonal(f, 64, 64).apply([1] * 64)  # a vector of 64 cells
        assert calls == []

    def test_rational_products_under_the_bound_take_the_same_paths(self, monkeypatch):
        """Over Q a product whose sums stay below 2^62 runs on int64 by the
        same density rule as over GF(p): the identity times itself is summed
        over its nonzeros, and comes back as Python ints, the reference
        product; past the bound the product runs on Python ints."""
        calls = self._spy(monkeypatch)
        eye = Matrix.identity(QQ, 64)
        C = eye @ eye
        assert calls == [((64, 64), (64, 64))]
        assert C == eye and C.data.dtype == object and all(type(x) is int for x in C.data.flat)
        assert np.array_equal(C.data, product_by_objects(QQ, eye.data, eye.data))
        big = Matrix(QQ, np.diag(np.full(64, 2**31, dtype=object)))  # 64 * 2^62 past the bound
        assert np.array_equal((big @ big).data, product_by_objects(QQ, big.data, big.data))
        assert len(calls) == 1

    def test_density_threshold_is_strict(self, monkeypatch):
        calls = self._spy(monkeypatch)
        f = GF(3)
        a = np.zeros((64, 64), np.int64)
        a[:, :8] = 1  # exactly 1/8 nonzeros: dense
        Matrix(f, a) @ Matrix(f, np.ones((64, 64), np.int64))
        a[0, 0] = 0  # one below: nonzeros
        Matrix(f, a) @ Matrix(f, np.ones((64, 64), np.int64))
        assert calls == [((64, 64), (64, 64))]


class TestLargeCharacteristic:
    # products near (2^31)^2 exceed the vectorized matmul guard, exercising
    # the arbitrary-precision fallback; elimination itself stays vectorized
    def test_rref_solve_kernel_mod_mersenne(self):
        p = 2**31 - 1
        f = GF(p)
        A = Matrix.from_rows(f, [[p - 1, 2, 1], [3, p - 5, 0]])
        assert rref(A).dim == 2
        x = (123456789, 987654321, 5)
        b = A.apply(x)
        # (x, 1) spans the solutions of A x' - b t = 0 together with the kernel
        Ab = A.hstack(Matrix.from_rows(f, [[(-c) % p] for c in b]))
        assert coordinates(kernel_basis(Ab), x + (1,)) is not None
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

    # the row-wise side of the intertwining guard: one product per member of
    # a stack, inner length 3, so an unreduced int64 sum would pass 2^63
    def test_stacked_products_near_p_match_python_ints(self):
        p = 2**31 - 1
        a = [_near_p_rows(p, 2, 3, s) for s in range(4)]
        b = [_near_p_rows(p, 3, 2, s + 5) for s in range(4)]
        expected = [[[sum(x[i][k] * y[k][j] for k in range(3)) % p for j in range(2)]
                     for i in range(2)] for x, y in zip(a, b)]
        got = linalg._dot(GF(p), np.array(a, np.int64), np.array(b, np.int64))
        assert got.dtype == np.int64 and got.tolist() == expected
        assert [(Matrix.from_rows(GF(p), x) @ Matrix.from_rows(GF(p), y)).data.tolist()
                for x, y in zip(a, b)] == expected

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
        assert coordinates(U, v) is not None
        assert U.contains_rows(Matrix.from_rows(GF(p), [v]))
        # U is 3-dimensional in k^5: some unit vector lies outside it
        outside = [e for e in ([int(i == j) for i in range(5)] for j in range(5))
                   if coordinates(U, e) is None]
        assert outside
        for e in outside:
            w = [(x + (p - 1) * y) % p for x, y in zip(v, e)]  # v - e
            assert coordinates(U, w) is None
            assert not U.contains_rows(Matrix.from_rows(GF(p), [w]))

    def test_hom_dim_near_p_matches_python_ints(self):
        from kronbrist.modules import KroneckerModule, hom_dim

        p = 2**31 - 1
        f = GF(p)

        def module(start):
            alphas = tuple(Matrix.from_rows(f, _near_p_rows(p, 3, 3, start + 5 * i))
                           for i in range(2))
            return KroneckerModule(alphas)

        M, N = module(0), module(1)
        g = Matrix.from_rows(f, _near_p_rows(p, 3, 3, 9))
        assert rank(g) == 3
        # M twisted by g at vertex 2 (identity at vertex 1) is isomorphic to M
        G = KroneckerModule(tuple(g @ a for a in M.alphas))
        for X, Y in ((M, M), (M, N), (N, M), (M, G), (G, M)):
            assert hom_dim(X, Y) == _hom_dim_reference(X, Y, p)
        assert hom_dim(M, G) == hom_dim(M, M) >= 1
