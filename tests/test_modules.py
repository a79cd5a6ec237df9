"""The module category: Hom/Ext, translation, duality, layers, quotients,
trace submodules, isomorphism search.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from kronbrist import linalg, modules
from kronbrist.bristles import bristle, bristle_point, bristle_points, enumerate_bristles, unit_point
from kronbrist.cover import build_ball_rep, push_down
from kronbrist.families import preinjective
from kronbrist.linalg import (
    GF,
    QQ,
    DimensionMismatch,
    InternalCheckFailed,
    Matrix,
    SparseSystem,
    Subspace,
    hom_system,
    image_subspace,
    rank,
    rref,
    sparse_block_kernels,
    sparse_rank,
)
from kronbrist.modules import (
    ISO,
    NON_ISO,
    UNKNOWN,
    KroneckerModule,
    Morphism,
    NotSubmodule,
    SubmodulePair,
    ar_translate,
    compose,
    coxeter_apply,
    direct_sum,
    dual,
    end_dim,
    euler_form,
    ext1_dim,
    ext1_dim_via_resolution,
    find_isomorphism,
    hom_basis,
    hom_dim,
    identity_morphism,
    injective_module,
    is_faithful,
    is_generated_by,
    layers,
    quotient,
    random_module,
    simple_module,
    submodule_as_module,
    zero_module,
)

from oracles import coordinates, intertwines_row_by_row, projective_module, tau_minus, trace_submodule

F5 = GF(5)
F2 = GF(2)


def B(coords, field=F5, n=3):
    return bristle(bristle_point(n, field, coords))


def sparse_module(n, field, dims, rng):
    """A module of dimension vector ``dims`` with mostly zero entries, so its
    Hom and Ext spaces are often larger than the bilinear form forces; over
    Q the entries are fractions."""
    def entry():
        x = rng.choice((0, 0, 0, 1, -1, 2))
        return x if field.is_finite else Fraction(x, rng.randrange(1, 5))

    d1, d2 = dims
    return KroneckerModule(tuple(
        Matrix.from_rows(field, [[entry() for _ in range(d1)] for _ in range(d2)], cols=d1)
        for _ in range(n)))


def forbidden(*args, **kwargs):
    raise AssertionError("a routine the caller must not reach was called")


class TestDimensionArithmetic:
    def test_euler_values(self):
        assert euler_form((1, 1), (1, 1), 3) == -1
        assert euler_form((1, 1), (8, 3), 3) == 2
        assert euler_form((1, 1), (21, 8), 3) == 5

    def test_coxeter_values(self):
        assert coxeter_apply((1, 0), 3) == (8, 3)
        assert coxeter_apply((1, 1), 3) == (5, 2)

    def test_coxeter_negates_projective_dims(self):
        # the transform sends projective dimension vectors to negated
        # injective ones, so negative intermediate values must survive
        for n in (2, 3, 4):
            assert coxeter_apply((1, n), n) == (-1, 0)
            assert coxeter_apply((0, 1), n) == (-n, -1)

    def test_coxeter_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 6)
            x = (rng.randrange(-9, 10), rng.randrange(-9, 10))
            y = coxeter_apply(x, n, 1)
            assert coxeter_apply(y, n, -1) == x
            assert coxeter_apply(x, n, 3) == coxeter_apply(coxeter_apply(x, n, 2), n, 1)


class TestModuleIsItsMaps:
    """A module stores its maps alone; n, the field and the dimension vector
    are read off them, and the two checks it keeps refuse what has none."""

    def test_arrows_field_and_dims_come_from_the_maps(self):
        M = KroneckerModule((Matrix.zeros(F5, 2, 3),) * 4)
        assert (M.n, M.field, M.dims) == (4, F5, (3, 2))

    def test_no_maps_refused(self):
        with pytest.raises(ValueError, match="need at least one arrow"):
            KroneckerModule(())

    @pytest.mark.parametrize("second", [Matrix.zeros(F5, 3, 2), Matrix.zeros(F5, 2, 2),
                                        Matrix.zeros(F2, 2, 3), Matrix.zeros(QQ, 2, 3)])
    def test_maps_of_another_shape_or_field_refused(self, second):
        with pytest.raises(DimensionMismatch, match="structure matrix shape/field mismatch"):
            KroneckerModule((Matrix.zeros(F5, 2, 3), second))


class TestHom:
    def test_bricks(self):
        assert end_dim(B([1, 0, 0])) == 1
        assert hom_dim(B([1, 0, 0]), B([0, 1, 0])) == 0

    def test_hom_into_preinjectives(self):
        I2 = preinjective(3, 2, F5)
        assert hom_dim(B([1, 0, 0]), I2) == 2

    def test_basis_morphisms_are_independent_and_intertwine(self):
        I2 = preinjective(3, 2, F5)
        basis = hom_basis(B([1, 1, 0]), I2)
        assert len(basis) == 2
        flat = [tuple(x for m in (b.f1, b.f2) for i in range(m.rows) for x in m.row(i))
                for b in basis]
        assert Subspace.from_spanning(F5, len(flat[0]), flat).dim == 2

    def test_hom_additivity_over_direct_sum(self):
        M = direct_sum(B([1, 0, 0]), B([0, 1, 0]))
        I2 = preinjective(3, 2, F5)
        assert hom_dim(M, I2) == hom_dim(B([1, 0, 0]), I2) + hom_dim(B([0, 1, 0]), I2)

    def test_non_intertwining_morphism_rejected(self):
        with pytest.raises(ValueError):
            Morphism(B([1, 0, 0]), B([0, 1, 0]),
                     Matrix.identity(F5, 1), Matrix.identity(F5, 1))

    @pytest.mark.parametrize("field", [F2, F5, GF(2**31 - 1), QQ], ids=str)
    def test_hom_dim_without_equations(self, field, monkeypatch):
        """When M.dim1 * N.dim2 = 0 the Hom system has no rows (or, when
        t = 0, no columns), so hom_dim is its number of unknowns minus a
        zero rank, returned without building the system."""
        rng = random.Random(13)
        cases = []
        for m, d in (((0, 3), (2, 2)), ((2, 3), (3, 0)), ((0, 0), (2, 1)), ((2, 1), (0, 0)),
                     ((0, 2), (0, 3)), ((3, 0), (2, 0)), ((1, 2), (3, 0)), ((2, 0), (0, 3))):
            M, N = sparse_module(3, field, m, rng), sparse_module(3, field, d, rng)
            S = hom_system(N.alphas, modules._source(M), M.dims)
            assert S.rows == 0 or S.cols == 0
            cases.append((M, N, S.cols - sparse_rank(S)))
        assert any(e for *_, e in cases)
        monkeypatch.setattr(modules, "hom_system", forbidden)
        assert [hom_dim(M, N) for M, N, _ in cases] == [e for *_, e in cases]


def _guard_pair(field, wrong_arrow=None):
    """M of dims (2, 3), N of dims (3, 4) at n = 3 and (f1, f2) with
    f2 aM_i = aN_i f1 for every arrow i except ``wrong_arrow``.

    f1 is the inclusion of the first two coordinates, so aN_i f1 is the
    first two columns of aN_i: set them to f2 aM_i, the last one freely.
    """
    rng = random.Random(7)

    def entry():
        x = rng.randrange(-4, 5)
        return x if field.is_finite else Fraction(x, rng.randrange(1, 4))

    def mat(rows, cols):
        return Matrix.from_rows(field, [[entry() for _ in range(cols)] for _ in range(rows)])

    a_m = [mat(3, 2) for _ in range(3)]
    f1 = Matrix.from_rows(field, [[1, 0], [0, 1], [0, 0]])
    f2 = mat(4, 3)
    a_n = []
    for i, a in enumerate(a_m):
        first = [list((f2 @ a).row(r)) for r in range(4)]
        if i == wrong_arrow:
            first[3][1] += 1  # one entry off, in the last row
        a_n.append(Matrix.from_rows(field, first).hstack(mat(4, 1)))
    M = KroneckerModule(tuple(a_m))
    N = KroneckerModule(tuple(a_n))
    return M, N, f1, f2


class TestIntertwiningGuard:
    """The guard compares f2 aM_i with aN_i f1 for every arrow i, block by
    block; non-square dims and n = 3 pin the block layout."""

    @pytest.mark.parametrize("field", [F5, QQ], ids=str)
    def test_genuine_morphisms_pass(self, field):
        M, N, f1, f2 = _guard_pair(field)
        assert Morphism(M, N, f1, f2).f2 == f2
        basis = hom_basis(M, N)
        assert basis
        for b in basis:
            assert Morphism(M, N, b.f1, b.f2) == b

    @pytest.mark.parametrize("field", [F5, QQ], ids=str)
    @pytest.mark.parametrize("arrow", [0, 1, 2])
    def test_one_failing_arrow_raises(self, field, arrow):
        M, N, f1, f2 = _guard_pair(field, wrong_arrow=arrow)
        with pytest.raises(ValueError, match="do not intertwine"):
            Morphism(M, N, f1, f2)

    @pytest.mark.parametrize("corrupt", [0, 4, 8])
    def test_one_corrupt_basis_element_raises(self, monkeypatch, corrupt):
        """hom_basis checks its k basis elements with one guard: one entry
        changed in one of the k = 9 kernel vectors, first, middle or last,
        must trip it."""
        b = B([1, 2, 3])
        M = direct_sum(direct_sum(b, b), b)  # End(M) is all 3 x 3 matrices
        real = modules.sparse_kernel

        def corrupted(A):
            K = real(A)
            data = K.basis.data.copy()
            data[corrupt, 0] = (data[corrupt, 0] + 1) % 5  # f1[0, 0] of one vector
            return Subspace(Matrix(K.field, data), K.pivot_cols)

        assert len(hom_basis(M, M)) == 9
        monkeypatch.setattr(modules, "sparse_kernel", corrupted)
        with pytest.raises(InternalCheckFailed, match="does not intertwine"):
            hom_basis(M, M)

    @pytest.mark.parametrize("corrupt", [0, 4, 8])
    def test_one_corrupt_bristle_row_raises(self, monkeypatch, corrupt):
        """is_generated_by checks the Hom rows of all its bristles with one
        guard: one entry changed in one block of the 9 stacked rows that
        the block kernels give (three bristles, three rows each), first,
        middle or last, must trip it."""
        b = B([1, 2, 3])
        M = direct_sum(direct_sum(b, b), b)  # Hom(b, M) = k^3
        real, calls = modules.sparse_block_kernels, []

        def corrupted(S, blocks):
            K, counts = real(S, blocks)
            calls.append(counts)
            data = K.data.copy()
            data[corrupt, 0] = (data[corrupt, 0] + 1) % 5  # x[0] of one row of one block
            return Matrix(K.field, data), counts

        assert is_generated_by([b, b, b], M)
        monkeypatch.setattr(modules, "sparse_block_kernels", corrupted)
        with pytest.raises(InternalCheckFailed, match="does not intertwine"):
            is_generated_by([b, b, b], M)
        assert calls == [[3, 3, 3]]


def _sources(mods):
    return Matrix.vstack(*(modules._source(G) for G in mods))


def _other_31():
    """A brick of dimension vector (3, 1) at n = 3 over GF(5), not I(2)."""
    return KroneckerModule(tuple(Matrix.from_rows(F5, [r]) for r in ([1, 2, 0], [0, 1, 0], [4, 0, 1])))


class TestOneGuard:
    """Every Hom basis and every morphism passes one guard, ``intertwines``,
    for rows from any list of sources of one dimension vector."""

    @pytest.mark.parametrize("field", [F2, F5, GF(2**31 - 1), QQ], ids=str)
    @pytest.mark.parametrize("m, d", [
        ((1, 1), (3, 2)),  # bristle-shaped sources
        ((3, 2), (2, 3)),  # inner length 2 on the row-wise side
        ((0, 2), (2, 3)),  # m1 = 0: no equations
        ((2, 0), (3, 2)),  # m2 = 0: the row-wise side is 0
        ((2, 2), (0, 3)),  # d1 = 0
        ((2, 2), (3, 0)),  # d2 = 0: no equations
    ])
    def test_guard_matches_a_row_by_row_check(self, field, m, d):
        """Block kernels of one to three sources pass, as they must; the
        same rows with one entry changed, random rows and no rows at all get
        the answer of the row-by-row check.  At p = 2^31 - 1 the entries lie
        near p, so a row-wise sum of two products left unreduced passes 2^63."""
        rng = random.Random(f"{field} {m} {d}")
        p = field.characteristic
        for _ in range(4):
            sources = _sources([sparse_module(3, field, m, rng) for _ in range(rng.randrange(1, 4))])
            N = sparse_module(3, field, d, rng)
            H, counts = sparse_block_kernels(hom_system(N.alphas, sources, m), sources.rows)
            assert linalg.intertwines(N.alphas, sources, m, H, counts)
            width = N.dim1 * m[0] + N.dim2 * m[1]
            entries = [list(H.row(r)) for r in range(H.rows)]
            if entries and width:
                r, c = rng.randrange(len(entries)), rng.randrange(width)
                entries[r][c] = (entries[r][c] + 1) % p if p else entries[r][c] + 1
            noise = [[rng.choice((0, 1, -1, Fraction(1, 2) if not p else 2)) for _ in range(width)]
                     for _ in range(sources.rows)]
            for rows, row_counts in ((H.select_rows([]), [0] * sources.rows),
                                     (Matrix.from_rows(field, entries, cols=width), counts),
                                     (Matrix.from_rows(field, noise, cols=width), [1] * sources.rows)):
                assert linalg.intertwines(N.alphas, sources, m, rows, row_counts) == \
                    intertwines_row_by_row(N.alphas, sources, m, rows, row_counts)

    def test_a_check_too_large_to_group_goes_arrow_by_arrow(self):
        """Hom(B, B^100) as 100 rows into a module of dimension vector
        (100, 100): too many cells to stack N's maps, so each arrow is
        checked alone, and a change in the last map alone is caught."""
        b = B([1, 2, 3])
        N, sources = direct_sum(*[b] * 100), modules._source(b)
        H, counts = sparse_block_kernels(hom_system(N.alphas, sources, (1, 1)), 1)
        assert counts == [100] and linalg.intertwines(N.alphas, sources, (1, 1), H, counts)
        last = N.alphas[-1].data.copy()
        last[0, 0] = (last[0, 0] + 1) % 5
        assert not linalg.intertwines(N.alphas[:-1] + (Matrix(F5, last),), sources, (1, 1), H, counts)

    def test_peak_is_one_run_of_rows(self, monkeypatch):
        """Hom(B, B^200) as 200 rows into a module of dimension vector
        (200, 200), checked in runs of 20 rows (2^12 cells per side): all
        200 rows peak no higher than the first 50 do, and far below one
        side over all rows; a change in the last row is still caught.  With
        all rows in one run, all 200 peak about four times as high."""
        b = B([1, 2, 3])
        N, sources = direct_sum(*[b] * 200), modules._source(b)
        H, counts = sparse_block_kernels(hom_system(N.alphas, sources, (1, 1)), 1)
        monkeypatch.setattr(linalg, "_GUARD_CELLS", 2**12)
        first = H.select_rows(range(50))
        assert counts == [200] and linalg.intertwines(N.alphas, sources, (1, 1), first, [50])
        peak_first = traced_peak(linalg.intertwines, N.alphas, sources, (1, 1), first, [50])
        peak_all = traced_peak(linalg.intertwines, N.alphas, sources, (1, 1), H, counts)
        assert peak_all < 1.25 * peak_first and peak_all < 0.5 * 200 * 200 * 8  # int64 entries
        last = H.data.copy()
        last[-1, 0] = (last[-1, 0] + 1) % 5
        assert not linalg.intertwines(N.alphas, sources, (1, 1), Matrix(F5, last), counts)

    @pytest.mark.parametrize("corrupt", ["first", "middle", "last"])
    def test_one_corrupt_row_of_a_group_raises(self, monkeypatch, corrupt):
        """Two generators of dimension vector (3, 1), neither a bristle, get
        their Hom rows from one block system and one guard: one entry
        changed in one of those rows must trip it through is_generated_by."""
        G1, G2 = injective_module(3, F5), _other_31()
        M = direct_sum(G1, G2)
        real, calls = modules.sparse_block_kernels, []

        def corrupted(S, blocks):
            K, counts = real(S, blocks)
            calls.append(counts)
            r = {"first": 0, "middle": K.rows // 2, "last": K.rows - 1}[corrupt]
            data = K.data.copy()
            data[r, 0] = (data[r, 0] + 1) % 5  # F1[0, 0] of one basis element
            return Matrix(K.field, data), counts

        assert is_generated_by([G1, G2], M)
        monkeypatch.setattr(modules, "sparse_block_kernels", corrupted)
        with pytest.raises(InternalCheckFailed, match="does not intertwine"):
            is_generated_by([G1, G2], M)
        assert len(calls) == 1 and len(calls[0]) == 2 and sum(calls[0]) >= 3

    def test_mixed_generators_build_one_system_per_dimension_vector(self, monkeypatch):
        """B0' and two (3, 1) modules, interleaved: one Hom system for the
        bristles and one for the others, and the answer of the oracle that
        builds one system per generator."""
        from kronbrist.bristles import canonical_set
        b0prime = [bristle(p) for p in canonical_set("B0prime", 3, F5)]
        M = direct_sum(preinjective(3, 2, F5), _other_31())
        gens = [b0prime[0], injective_module(3, F5), *b0prime[1:3], _other_31(), *b0prime[3:]]
        assert trace_submodule(gens, M).is_full()
        built, real = [], modules.hom_system
        monkeypatch.setattr(modules, "hom_system",
                            lambda maps, sources, dims: built.append(dims) or real(maps, sources, dims))
        assert is_generated_by(gens, M)
        assert sorted(built) == [(1, 1), (3, 1)]


class TestExt:
    def test_bristle_self_extensions(self):
        b = B([1, 0, 0])
        assert ext1_dim(b, b) == 2
        assert ext1_dim_via_resolution(b, b) == 2

    def test_ext_vanishes_into_preinjective(self):
        I3 = preinjective(3, 3, F5)
        assert ext1_dim(B([1, 0, 0]), I3) == 0

    def test_ext_onto_translate(self):
        b = B([1, 0, 0])
        assert ext1_dim(b, ar_translate(b)) == 1

    def test_projective_source_acyclic(self):
        P1 = projective_module(3, F5, 1)
        rng = random.Random(5)
        for _ in range(10):
            N = random_module(3, F5, rng, 3, 3)
            assert ext1_dim_via_resolution(P1, N) == 0
            assert ext1_dim(P1, N) == 0

    def test_simple_to_simple(self):
        S1 = simple_module(3, F5, 1)
        S2 = simple_module(3, F5, 2)
        assert ext1_dim_via_resolution(S1, S2) == 3
        assert ext1_dim(S1, S2) == 3

    def test_oracle_agreement_random(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.choice((2, 3))
            M = random_module(n, F5, rng, 3, 3)
            N = random_module(n, F5, rng, 3, 3)
            h = hom_dim(M, N)
            e = ext1_dim(M, N)
            assert e == ext1_dim_via_resolution(M, N)
            assert h - e == euler_form(M.dims, N.dims, n)

    @pytest.mark.parametrize("field", [F2, GF(2**31 - 1), QQ], ids=str)
    @pytest.mark.parametrize("n, m, d", [
        (3, (0, 0), (2, 2)),  # M zero
        (3, (2, 1), (0, 0)),  # N zero
        (3, (0, 2), (2, 3)),  # m1 = 0: M projective, no kernel
        (3, (2, 0), (1, 2)),  # m2 = 0: eps2 has no rows
        (3, (2, 2), (3, 0)),  # d2 = 0
        (3, (2, 1), (0, 2)),  # d1 = 0: no x blocks
        (1, (3, 2), (2, 3)),
        (4, (2, 3), (3, 2)),
    ])
    def test_resolution_route_explicit_cases(self, field, n, m, d):
        rng = random.Random(f"{field} {n} {m} {d}")
        for _ in range(6):
            M, N = sparse_module(n, field, m, rng), sparse_module(n, field, d, rng)
            assert ext1_dim_via_resolution(M, N) == ext1_dim(M, N)

    def test_resolution_route_builds_no_hom_system(self, monkeypatch):
        """The resolution route shares nothing with ext1_dim above the dense
        elimination: with every Hom-system routine made to raise, it still
        returns the values ext1_dim gave."""
        rng = random.Random(11)
        pairs = [tuple(sparse_module(n, f, (rng.randrange(5), rng.randrange(5)), rng)
                       for _ in range(2))
                 for f in (F2, F5, QQ) for n in (2, 3) for _ in range(8)]
        expected = [ext1_dim(M, N) for M, N in pairs]
        assert sum(e > 0 for e in expected) >= 10
        for name in ("hom_system", "hom_dim", "_hom_rows", "sparse_rank", "sparse_kernel",
                     "sparse_block_kernels", "sparse_block_ranks",
                     "Morphism", "SubmodulePair", "submodule_as_module"):
            monkeypatch.setattr(modules, name, forbidden)
        monkeypatch.setattr(linalg, "_peel", forbidden)
        assert [ext1_dim_via_resolution(M, N) for M, N in pairs] == expected

    def test_resolution_guard_catches_a_wrong_kernel_row(self, monkeypatch):
        """One entry changed in the last row of the presentation's kernel
        basis must trip the guard eps2 K^T = 0."""
        b = B([1, 2, 3])
        real = modules.kernel_basis

        def corrupted(A):
            data = real(A).basis.data.copy()
            data[-1, 0] = (data[-1, 0] + 1) % 5
            return rref(Matrix(F5, data))

        assert ext1_dim_via_resolution(b, b) == 2
        monkeypatch.setattr(modules, "kernel_basis", corrupted)
        with pytest.raises(InternalCheckFailed, match="not in the kernel"):
            ext1_dim_via_resolution(b, b)

    def test_annihilated_map_lower_bound(self):
        rng = random.Random(9)
        b1 = B([1, 0, 0])
        for _ in range(25):
            M = random_module(3, F5, rng, 4, 4, zero_map_index=2)
            assert ext1_dim(b1, M) >= M.dim2


class TestTrace:
    def test_self_trace_full(self):
        b = B([1, 0, 0])
        assert is_generated_by([b], b)

    def test_bristles_generate_s1(self):
        S1 = simple_module(3, F5, 1)
        for coords in ([1, 0, 0], [1, 2, 3], [0, 0, 1]):
            assert is_generated_by([B(coords)], S1)

    def test_bristle_does_not_generate_p1(self):
        P1 = projective_module(3, F5, 1)
        assert hom_dim(B([1, 0, 0]), P1) == 0
        assert not is_generated_by([B([1, 0, 0])], P1)

    def test_smaller_canonical_set_generates_second_preinjective(self):
        from kronbrist.bristles import canonical_set
        I2 = preinjective(3, 2, F5)
        b0prime = [bristle(p) for p in canonical_set("B0prime", 3, F5)]
        assert is_generated_by(b0prime, I2)

    def test_trace_monotone(self):
        I2 = preinjective(3, 2, F5)
        small = trace_submodule([B([1, 0, 0])], I2)
        big = trace_submodule([B([1, 0, 0]), B([0, 1, 0])], I2)
        assert big.U1.contains(small.U1) and big.U2.contains(small.U2)

    def test_trace_is_submodule(self):
        rng = random.Random(11)
        for _ in range(10):
            M = random_module(3, F2, rng, 3, 3)
            pair = trace_submodule([B([1, 1, 0], F2), B([0, 1, 1], F2)], M)
            assert isinstance(pair, SubmodulePair)  # constructor validates closure

    def test_zero_module_generated(self):
        assert is_generated_by([B([1, 0, 0])], zero_module(3, F5))


class TestTranslation:
    def test_translate_of_simple_is_second_preinjective(self):
        T = ar_translate(simple_module(3, F5, 1))
        assert T.dims == (8, 3)
        assert find_isomorphism(T, preinjective(3, 2, F5)).status == ISO

    def test_translate_kills_projectives(self):
        assert ar_translate(projective_module(3, F5, 1)).is_zero()
        assert ar_translate(projective_module(3, F5, 2)).is_zero()

    def test_inverse_translate_kills_injectives(self):
        assert tau_minus(simple_module(3, F5, 1)).is_zero()
        assert tau_minus(injective_module(3, F5)).is_zero()

    def test_translate_of_bristle(self):
        T = ar_translate(B([1, 0, 0]))
        assert T.dims == (5, 2)

    def test_round_trip_on_non_projectives(self):
        tau_b1 = ar_translate(B([1, 0, 0]))
        tau2_b1 = ar_translate(tau_b1)
        assert (tau_b1.dims, tau2_b1.dims) == ((5, 2), (34, 13))
        for M in (B([1, 0, 0]), tau_b1, tau2_b1, B([1, 2, 3]),
                  direct_sum(B([1, 0, 0]), B([0, 1, 0])),
                  preinjective(3, 1, F5), preinjective(3, 2, F5)):
            back = tau_minus(ar_translate(M))
            assert back.dims == M.dims
            assert find_isomorphism(M, back).status == ISO

    @pytest.mark.parametrize("field", [F2, GF(3), QQ], ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_on_random_modules_drops_projectives(self, n, field):
        """tau kills the projective summands, P(1) of dims (1, n) and S(2) of
        dims (0, 1), and tau- tau gives back the rest: dims(M) minus
        dims(tau- tau M) is a (1, n) + b (0, 1) with a, b >= 0."""
        rng = random.Random(100 * n + field.characteristic)
        for _ in range(6):
            M = random_module(n, field, rng, 3, 4)
            back = tau_minus(ar_translate(M))
            a = M.dim1 - back.dim1
            assert a >= 0 and M.dim2 - back.dim2 - n * a >= 0, (M.dims, back.dims)

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
    def test_round_trip_strips_projective_summands(self, field):
        X = direct_sum(ar_translate(B([1, 0, 0], field)), preinjective(3, 2, field))
        M = direct_sum(direct_sum(X, projective_module(3, field, 1)), simple_module(3, field, 2))
        back = tau_minus(ar_translate(M))
        assert back.dims == X.dims
        assert find_isomorphism(X, back).status == ISO

    def test_dims_follow_lattice_transform(self):
        for t in range(4):
            It = preinjective(3, t, F5)
            assert ar_translate(It).dims == coxeter_apply(It.dims, 3)
        b = B([1, 2, 1])
        T = ar_translate(b)
        assert T.dims == coxeter_apply((1, 1), 3)
        assert ar_translate(T).dims == coxeter_apply((1, 1), 3, 2)

    def test_translate_additive(self):
        M = direct_sum(B([1, 0, 0]), B([0, 1, 0]))
        T = ar_translate(M)
        expected = direct_sum(ar_translate(B([1, 0, 0])),
                              ar_translate(B([0, 1, 0])))
        assert find_isomorphism(T, expected).status == ISO

    def test_translates_have_no_maps_to_bristles(self):
        # small-field version; the full sweep runs in the acceptance suite
        pts = enumerate_bristles(3, F2)
        for p in pts:
            M = bristle(p)
            for t in (1, 2):
                M = ar_translate(M)
                assert all(hom_dim(M, bristle(q)) == 0 for q in pts)


class TestDualityLayersFaithful:
    def test_dual_swaps_simples(self):
        assert dual(simple_module(3, F5, 1)) == simple_module(3, F5, 2)

    def test_dual_of_bristle_equal(self):
        b = B([1, 2, 3])
        assert dual(b) == b  # 1x1 transposes are identical

    def test_dual_dims(self):
        assert dual(preinjective(3, 2, F5)).dims == (3, 8)

    def test_double_dual_identical(self):
        rng = random.Random(13)
        for field in (F5, QQ):
            for _ in range(10):
                M = random_module(3, field, rng, 3, 3)
                assert dual(dual(M)) == M and hash(dual(dual(M))) == hash(M)

    @pytest.mark.parametrize("field", [F5, QQ])
    def test_modules_built_separately_are_equal_values(self, field):
        rows = [[1, 2, 0], [0, 3, 4]]
        M = KroneckerModule((Matrix.from_rows(field, rows),))
        N = KroneckerModule((Matrix.from_rows(field, [list(r) for r in rows]),))
        assert M == N and hash(M) == hash(N) and {M: 1}[N] == 1
        rows[1][1] = 1
        assert M != KroneckerModule((Matrix.from_rows(field, rows),))

    def test_layers_of_simples(self):
        S1 = simple_module(3, F5, 1)
        lay = layers(S1)
        assert lay.soc_dims == (1, 0) and lay.top_dims == (1, 0)

    def test_layers_of_first_preinjective(self):
        I1 = preinjective(3, 1, F5)
        lay = layers(I1)
        assert lay.soc_dims == (0, 1)
        assert lay.socle.U1.is_zero()

    def test_top_of_third_preinjective(self):
        I3 = preinjective(3, 3, F5)
        lay = layers(I3)
        assert lay.top_dims[0] + lay.top_dims[1] == 21  # n^3 - 2n at n = 3

    def test_faithful(self):
        assert not is_faithful(simple_module(3, F5, 1))
        assert not is_faithful(B([1, 0, 0]))
        assert not is_faithful(B([1, 2, 3]))
        assert is_faithful(preinjective(3, 2, F5))

    def test_end_dims(self):
        assert end_dim(simple_module(3, F5, 1)) == 1
        assert end_dim(direct_sum(B([1, 0, 0]), B([1, 0, 0]))) == 4
        assert end_dim(preinjective(3, 2, F5)) == 1


class TestSubsAndQuotients:
    def test_quotient_by_zero_is_isomorphic(self):
        M = preinjective(3, 2, F5)
        zero = SubmodulePair(M, Subspace.zero(F5, M.dim1), Subspace.zero(F5, M.dim2))
        Q, proj = quotient(zero)
        assert Q.dims == M.dims
        assert find_isomorphism(M, Q).status == ISO

    def test_bristle_mod_socle(self):
        b = B([1, 0, 0])
        socle = SubmodulePair(b, Subspace.zero(F5, 1), Subspace.full(F5, 1))
        Q, proj = quotient(socle)
        assert Q == simple_module(3, F5, 1)
        assert proj.f1 == Matrix.identity(F5, 1)

    def test_first_preinjective_mod_socle(self):
        I1 = preinjective(3, 1, F5)
        lay = layers(I1)
        Q, _ = quotient(lay.socle)  # socle is (0, all of M2) here
        assert Q.dims == (3, 0)
        assert all(a.is_zero() for a in Q.alphas)

    def test_non_closed_pair_rejected(self):
        I1 = preinjective(3, 1, F5)
        with pytest.raises(NotSubmodule):
            SubmodulePair(I1, Subspace.full(F5, 3), Subspace.zero(F5, 1))

    def test_submodule_as_module_inclusion(self):
        M = preinjective(3, 2, F5)
        tr = trace_submodule([B([1, 0, 0])], M)
        sub, incl = submodule_as_module(tr)
        assert sub.dims == tr.dims
        assert incl.source == sub and incl.target == M
        assert image_subspace(incl.f1) == tr.U1 and image_subspace(incl.f2) == tr.U2

    def test_quotient_projection_kernel(self):
        M = preinjective(3, 1, F5)
        lay = layers(M)
        _, proj = quotient(lay.socle)
        from kronbrist.linalg import kernel_basis
        assert kernel_basis(proj.f1) == lay.socle.U1
        assert kernel_basis(proj.f2) == lay.socle.U2


class TestIsoSearch:
    def test_self_iso(self):
        M = preinjective(3, 2, F5)
        res = find_isomorphism(M, M)
        assert res.status == ISO and res.morphism is not None

    def test_distinct_bristles_non_iso(self):
        assert find_isomorphism(B([1, 0, 0]), B([0, 1, 0])).status == NON_ISO

    def test_scaled_bristles_iso(self):
        b1 = B([1, 2, 3])
        b2 = bristle(bristle_point(3, F5, [2, 4, 6]))
        assert b1 == b2  # normalization already identifies scalar multiples

    def test_dimension_mismatch_non_iso(self):
        assert find_isomorphism(B([1, 0, 0]), preinjective(3, 1, F5)).status == NON_ISO

    def test_iso_morphism_invertible(self):
        M = preinjective(3, 2, F5)
        N = ar_translate(simple_module(3, F5, 1))
        res = find_isomorphism(M, N)
        assert res.status == ISO
        from kronbrist.linalg import rank
        assert rank(res.morphism.f1) == M.dim1 and rank(res.morphism.f2) == M.dim2

    def test_iso_from_a_basis_element_builds_one_system(self, monkeypatch):
        """An invertible element of the Hom(M, N) basis proves ISO before
        Hom(N, M) is built."""
        M, N = push_down(build_ball_rep(4, F5)), preinjective(4, 2, F5)
        built, real = [], modules.hom_system
        monkeypatch.setattr(modules, "hom_system", lambda *args: built.append(args) or real(*args))
        assert find_isomorphism(M, N).status == ISO
        assert len(built) == 1

    def test_unequal_hom_dims_non_iso(self):
        """Equal dims (2, 1), no invertible Hom(M, N) element, and
        dim Hom(M, N) = 3 against dim Hom(N, M) = 4."""
        zero = Matrix.zeros(F2, 1, 2)
        M = KroneckerModule((zero, zero))
        N = KroneckerModule((zero, Matrix.from_rows(F2, [[1, 0]])))
        assert (hom_dim(M, N), hom_dim(N, M)) == (3, 4)
        assert find_isomorphism(M, N).status == NON_ISO

    @pytest.mark.parametrize("field", [F5, QQ], ids=str)
    def test_one_dimensional_hom_with_no_invertible_element_non_iso(self, field):
        """M = S(1) + S(2) and N = B(1:2:3): equal dims, dim Hom(M, N) =
        dim Hom(N, M) = 1, and the basis element is not invertible.  An
        isomorphism g would give Hom(M, N) = g End(M) with g in it, so g
        would be a multiple of that element: no random draw is needed."""
        M = direct_sum(simple_module(3, field, 1), simple_module(3, field, 2))
        N = B([1, 2, 3], field)
        assert M.dims == N.dims and hom_dim(M, N) == hom_dim(N, M) == 1
        assert find_isomorphism(M, N).status == NON_ISO

    def test_random_combinations_decide_when_no_basis_element_is_invertible(self):
        """M = B + B and N, M conjugated by an invertible (g1, g2): every
        element of the canonical Hom(M, N) basis has rank-one f1, so only the
        random combinations can prove the isomorphism."""
        b = B([1, 2, 0])
        M = direct_sum(b, b)
        g1 = Matrix.from_rows(F5, [[1, 1], [0, 1]])
        g1_inv = Matrix.from_rows(F5, [[1, 4], [0, 1]])
        g2 = Matrix.from_rows(F5, [[2, 0], [1, 1]])
        assert g1 @ g1_inv == Matrix.identity(F5, 2) and rank(g2) == 2
        N = KroneckerModule(tuple(g2 @ a @ g1_inv for a in M.alphas))
        assert N != M
        basis = hom_basis(M, N)
        assert basis and not any(rank(fm.f1) == 2 and rank(fm.f2) == 2 for fm in basis)
        assert find_isomorphism(M, N, attempts=0).status == UNKNOWN
        res = find_isomorphism(M, N, attempts=64)
        assert res.status == ISO
        assert rank(res.morphism.f1) == 2 and rank(res.morphism.f2) == 2


class TestHomSystem:
    def test_build_peak_memory_is_one_system(self):
        """The n = 6 Hom system is built as its nonzeros and peeled down to
        its core: building it and computing its canonical basis peaks far
        below the bytes of the dense 1260 x 1261 system."""
        M, N = push_down(build_ball_rep(6, F5)), preinjective(6, 2, F5)
        tracemalloc.start()
        try:
            S = hom_system(N.alphas, modules._source(M), M.dims)
            basis = hom_basis(M, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (S.rows, S.cols) == (1260, 1261) and basis
        assert peak < 0.25 * 1260 * 1261 * 8  # int64 entries


class TestBristleHomRuns:
    def test_first_dimension_builds_one_run(self, monkeypatch):
        """Taking only the first dimension of the sweep over the 1 019 131
        points of P^2(GF(1009)) builds one block system, over at most one
        run of points."""
        f = GF(1009)
        M = preinjective(3, 1, f)
        points = bristle_points(3, f)
        built, real = [], modules.hom_system

        def counting(maps, sources, dims):
            built.append(sources.rows)
            return real(maps, sources, dims)

        monkeypatch.setattr(modules, "hom_system", counting)
        d = next(modules.bristle_hom_dims(points, M))
        assert len(built) == 1 and built[0] <= modules._POINT_RUN < points.rows
        assert d == M.dim1 - 2 * M.dim2

    @pytest.mark.parametrize("run", [1, 3, 5, 13])
    def test_runs_give_the_dimensions_of_one_system(self, monkeypatch, run):
        """Sweeping the 13 points of P^2(GF(3)) in runs of any length gives
        every point its dimension from one system over all points."""
        f = GF(3)
        points = bristle_points(3, f)
        for M in (preinjective(3, 2, f), random_module(3, f, random.Random(7), 3, 2),
                  direct_sum(bristle(unit_point(3, f, 2)), simple_module(3, f, 2))):
            whole = list(modules.bristle_hom_dims(points, M))
            monkeypatch.setattr(modules, "_POINT_RUN", run)
            assert list(modules.bristle_hom_dims(points, M)) == whole
            assert len(whole) == points.rows
            monkeypatch.undo()

    def test_peak_is_set_by_the_run(self):
        """The sweep of the first 2^14 points of P^2(GF(1009)) into I_2,
        16 runs, peaks as high as that of the first 2^12, and below twice
        that of one run: the runs are built one after another, each only
        when the caller asks, and none is kept."""
        f = GF(1009)
        M, points = preinjective(3, 2, f), bristle_points(3, f)

        def sweep(points):
            deque(modules.bristle_hom_dims(points, M), maxlen=0)

        one, four, sixteen = (traced_peak(sweep, points.select_rows(range(k * modules._POINT_RUN)))
                              for k in (1, 4, 16))
        assert sixteen <= 1.05 * four and sixteen < 2 * one


def per_block_images(points, M):
    """``bristle_images`` as it was first computed, the oracle of its
    memory: the block system split into one system per block, one kernel
    each, stacked, behind the guard it had, one arrow at a time: X a_i^T
    against Y with each row scaled by p_i of its point."""
    S = hom_system(M.alphas, points, (1, 1))
    height, width = S.rows // points.rows, S.cols // points.rows
    owner = S.j // width
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(1, points.rows))
    kernels = [sparse_block_kernels(SparseSystem(S.field, height, width, S.i[e] - b * height,
                                                 S.j[e] - b * width, S.v[e]), 1)[0]
               for b, e in enumerate(np.split(order, bounds))]
    H = kernels[0].vstack(*kernels[1:])
    X, Y = H.col_block(0, M.dim1), H.col_block(M.dim1, H.cols)
    rows_of = [b for b, K in enumerate(kernels) for _ in range(K.rows)]
    for i, a in enumerate(M.alphas):
        scaled = points.data[rows_of, i:i + 1] * Y.data
        np.remainder(scaled, M.field.characteristic, out=scaled)
        assert X @ a.transpose() == Matrix._of(M.field, scaled)
    return X, Y


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBristleImages:
    def test_block_kernels_peak_no_higher_than_one_kernel_per_block(self):
        """The images of all 40 bristles at n = 4 over GF(3) in tau^2 B,
        from one peel, peak at most 1.1 times as high as with one kernel per
        block: the back-substitution gathers a run of rows at a time, of at
        most ``linalg._GATHER_CELLS`` cells.  Gathering each batch's rows at
        once peaks at about 1.5 times as high."""
        f = GF(3)
        M = ar_translate(ar_translate(bristle(unit_point(4, f, 1))))
        points = bristle_points(4, f)
        X, Y, counts = modules.bristle_images(points, M)
        assert (X, Y) == per_block_images(points, M)
        assert M.dims == (153, 41) and counts == [30] * 40
        assert traced_peak(modules.bristle_images, points, M) <= \
            1.1 * traced_peak(per_block_images, points, M)

    @pytest.mark.parametrize("run", [1, 5, 13])
    def test_runs_give_the_images_of_one_system(self, monkeypatch, run):
        """The images of the 13 bristles at n = 3 over GF(3) in I_2, formed
        in runs of any length, are those of one system over all points."""
        f = GF(3)
        points, M = bristle_points(3, f), preinjective(3, 2, f)
        whole = modules.bristle_images(points, M)
        monkeypatch.setattr(modules, "_POINT_RUN", run)
        assert modules.bristle_images(points, M) == whole

    def test_peak_is_the_images_and_one_run(self):
        """The images of the first 2^14 points of P^2(GF(1009)) in I_2, 16
        runs, peak below twice their own bytes (the runs' rows and their
        stack) plus 1.25 times the peak of one run.  One block system over
        all those points peaks about four times as high."""
        f = GF(1009)
        M, points = preinjective(3, 2, f), bristle_points(3, f)
        first = points.select_rows(range(modules._POINT_RUN))
        many = points.select_rows(range(16 * modules._POINT_RUN))
        X, Y, counts = modules.bristle_images(many, M)
        assert len(counts) == many.rows and X.rows == Y.rows == sum(counts)
        images = X.data.nbytes + Y.data.nbytes
        assert traced_peak(modules.bristle_images, many, M) < \
            2 * images + 1.25 * traced_peak(modules.bristle_images, first, M)

    def test_one_gather_per_peel_batch(self, monkeypatch):
        """The sweep of all 13 bristles at n = 3 over GF(3) into I_3, the
        one of optimality-I3, back-substitutes each of its 4 peel batches
        with one gather and one sum (``np.add.reduceat``): no batch there
        has more than ``linalg._GATHER_CELLS`` cells."""
        sums, peels, real_peel = [], [], linalg._peel

        class Add:  # np.add, its reduceat calls counted
            def __getattr__(self, name):
                return getattr(np.add, name)

            def reduceat(self, *args, **kwargs):
                sums.append(args[0].shape)
                return np.add.reduceat(*args, **kwargs)

        class Numpy:  # numpy as linalg sees it
            add = Add()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(linalg, "np", Numpy())
        monkeypatch.setattr(linalg, "_peel", lambda S: peels.append(real_peel(S)) or peels[-1])
        f = GF(3)
        modules.bristle_images(bristle_points(3, f), preinjective(3, 3, f))
        assert [len(P.batches) for P in peels] == [4]
        assert len(sums) == 4, sums


class TestCompose:
    def test_identity_neutral(self):
        M = preinjective(3, 1, F5)
        basis = hom_basis(B([1, 0, 0]), M)
        for fm in basis:
            assert compose(identity_morphism(M), fm).f1 == fm.f1

    def test_rational_field_supported(self):
        bq = bristle(bristle_point(3, QQ, [1, 2, 3]))
        assert end_dim(bq) == 1
        assert ext1_dim(bq, bq) == 2
        T = ar_translate(bq)
        assert T.dims == (5, 2)


class TestPythonScalars:
    """Results leave the library as Python int / Fraction, never numpy scalars:
    reports and callers serialize them (json.dumps rejects numpy integers)."""

    @pytest.mark.parametrize("field", [F5, QQ])
    def test_results_are_python_scalars(self, field):
        scalar = int if field.is_finite else Fraction
        A = Matrix.from_rows(field, [[1, 2, 0], [0, 1, 1]])
        image = A.apply((1, 1, 1))
        U = Subspace.from_spanning(field, 3, [(1, 2, 0), (0, 1, 1)])
        coords = coordinates(U, (1, 3, 1))
        for values in (image, coords, A.row(1)):
            assert all(type(v) is scalar for v in values), values
        assert all(type(c) is int for c in U.pivot_cols)
        M = preinjective(3, 2, field)
        T = ar_translate(M)
        sub = trace_submodule([B([1, 0, 0], field)], M)
        ints = [rank(A), hom_dim(M, M), ext1_dim(B([1, 0, 0], field), M),
                ext1_dim_via_resolution(B([1, 0, 0], field), M),
                *M.dims, *T.dims, *sub.dims, *quotient(sub)[0].dims]
        assert all(type(v) is int for v in ints), ints
        json.dumps(ints)
        if field.is_finite:
            json.dumps([image, coords])

