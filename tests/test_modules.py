"""The module category: Hom/Ext, translation, duality, layers, quotients,
trace submodules, isomorphism search.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from kronbrist import modules
from kronbrist.bristles import bristle, bristle_point, enumerate_bristles
from kronbrist.cover import build_ball_rep, push_down
from kronbrist.families import preinjective
from kronbrist.linalg import (
    GF,
    QQ,
    InternalCheckFailed,
    Matrix,
    Subspace,
    image_subspace,
    rank,
)
from kronbrist.modules import (
    ISO,
    NON_ISO,
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
    projective_module,
    quotient,
    random_module,
    simple_module,
    submodule_as_module,
    trace_submodule,
    zero_module,
)

F5 = GF(5)
F2 = GF(2)


def B(coords, field=F5, n=3):
    return bristle(bristle_point(n, field, coords))


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
    M = KroneckerModule(3, field, 2, 3, tuple(a_m))
    N = KroneckerModule(3, field, 3, 4, tuple(a_n))
    return M, N, f1, f2


class TestIntertwiningGuard:
    """The guard compares f2 [aM_1 | ... | aM_n] with [aN_1; ...; aN_n] f1
    block by block; non-square dims and n = 3 pin the block layout."""

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
            return Subspace(K.field, K.ambient_dim, Matrix(K.field, data), K.pivot_cols)

        assert len(hom_basis(M, M)) == 9
        monkeypatch.setattr(modules, "sparse_kernel", corrupted)
        with pytest.raises(InternalCheckFailed, match="does not intertwine"):
            hom_basis(M, M)

    @pytest.mark.parametrize("corrupt", [0, 4, 8])
    def test_one_corrupt_bristle_row_raises(self, monkeypatch, corrupt):
        """is_generated_by checks the Hom rows of all its bristles with one
        guard: one entry changed in one of the 9 stacked rows (three
        bristles, three rows each), first, middle or last, must trip it."""
        b = B([1, 2, 3])
        M = direct_sum(direct_sum(b, b), b)  # Hom(b, M) = k^3
        real, calls = modules.sparse_kernel_rows, []

        def corrupted(S):
            K = real(S)
            calls.append(K)
            if len(calls) - 1 != corrupt // 3:
                return K
            data = K.data.copy()
            data[corrupt % 3, 0] = (data[corrupt % 3, 0] + 1) % 5  # x[0] of one row
            return Matrix(K.field, data)

        assert is_generated_by([b, b, b], M)
        monkeypatch.setattr(modules, "sparse_kernel_rows", corrupted)
        with pytest.raises(InternalCheckFailed, match="does not intertwine"):
            is_generated_by([b, b, b], M)
        assert [K.rows for K in calls] == [3, 3, 3]


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
        assert ext1_dim(b, ar_translate(b, "tau")) == 1

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
        T = ar_translate(simple_module(3, F5, 1), "tau")
        assert T.dims == (8, 3)
        assert find_isomorphism(T, preinjective(3, 2, F5)).status == ISO

    def test_translate_kills_projectives(self):
        assert ar_translate(projective_module(3, F5, 1), "tau").is_zero()
        assert ar_translate(projective_module(3, F5, 2), "tau").is_zero()

    def test_inverse_translate_kills_injectives(self):
        assert ar_translate(simple_module(3, F5, 1), "tau-").is_zero()
        assert ar_translate(injective_module(3, F5, 2), "tau-").is_zero()

    def test_translate_of_bristle(self):
        T = ar_translate(B([1, 0, 0]), "tau")
        assert T.dims == (5, 2)

    def test_round_trip_on_non_projectives(self):
        tau_b1 = ar_translate(B([1, 0, 0]), "tau")
        tau2_b1 = ar_translate(tau_b1, "tau")
        assert (tau_b1.dims, tau2_b1.dims) == ((5, 2), (34, 13))
        for M in (B([1, 0, 0]), tau_b1, tau2_b1, B([1, 2, 3]),
                  direct_sum(B([1, 0, 0]), B([0, 1, 0])),
                  preinjective(3, 1, F5), preinjective(3, 2, F5)):
            back = ar_translate(ar_translate(M, "tau"), "tau-")
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
            back = ar_translate(ar_translate(M, "tau"), "tau-")
            a = M.dim1 - back.dim1
            assert a >= 0 and M.dim2 - back.dim2 - n * a >= 0, (M.dims, back.dims)

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
    def test_round_trip_strips_projective_summands(self, field):
        X = direct_sum(ar_translate(B([1, 0, 0], field), "tau"), preinjective(3, 2, field))
        M = direct_sum(direct_sum(X, projective_module(3, field, 1)), simple_module(3, field, 2))
        back = ar_translate(ar_translate(M, "tau"), "tau-")
        assert back.dims == X.dims
        assert find_isomorphism(X, back).status == ISO

    def test_dims_follow_lattice_transform(self):
        for t in range(4):
            It = preinjective(3, t, F5)
            assert ar_translate(It, "tau").dims == coxeter_apply(It.dims, 3)
        b = B([1, 2, 1])
        T = ar_translate(b, "tau")
        assert T.dims == coxeter_apply((1, 1), 3)
        assert ar_translate(T, "tau").dims == coxeter_apply((1, 1), 3, 2)

    def test_translate_additive(self):
        M = direct_sum(B([1, 0, 0]), B([0, 1, 0]))
        T = ar_translate(M, "tau")
        expected = direct_sum(ar_translate(B([1, 0, 0]), "tau"),
                              ar_translate(B([0, 1, 0]), "tau"))
        assert find_isomorphism(T, expected).status == ISO

    def test_translates_have_no_maps_to_bristles(self):
        # small-field version; the full sweep runs in the acceptance suite
        pts = enumerate_bristles(3, F2)
        for p in pts:
            M = bristle(p)
            for t in (1, 2):
                M = ar_translate(M, "tau")
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
        M = KroneckerModule(1, field, 3, 2, (Matrix.from_rows(field, rows),))
        N = KroneckerModule(1, field, 3, 2, (Matrix.from_rows(field, [list(r) for r in rows]),))
        assert M == N and hash(M) == hash(N) and {M: 1}[N] == 1
        rows[1][1] = 1
        assert M != KroneckerModule(1, field, 3, 2, (Matrix.from_rows(field, rows),))

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
        Q, proj = quotient(M, zero)
        assert Q.dims == M.dims
        assert find_isomorphism(M, Q).status == ISO

    def test_bristle_mod_socle(self):
        b = B([1, 0, 0])
        socle = SubmodulePair(b, Subspace.zero(F5, 1), Subspace.full(F5, 1))
        Q, proj = quotient(b, socle)
        assert Q == simple_module(3, F5, 1)
        assert proj.f1 == Matrix.identity(F5, 1)

    def test_first_preinjective_mod_socle(self):
        I1 = preinjective(3, 1, F5)
        lay = layers(I1)
        Q, _ = quotient(I1, lay.socle)  # socle is (0, all of M2) here
        assert Q.dims == (3, 0)
        assert all(a.is_zero() for a in Q.alphas)

    def test_non_closed_pair_rejected(self):
        I1 = preinjective(3, 1, F5)
        with pytest.raises(NotSubmodule):
            SubmodulePair(I1, Subspace.full(F5, 3), Subspace.zero(F5, 1))

    def test_submodule_as_module_inclusion(self):
        M = preinjective(3, 2, F5)
        tr = trace_submodule([B([1, 0, 0])], M)
        sub, incl = submodule_as_module(M, tr)
        assert sub.dims == tr.dims
        assert incl.source == sub and incl.target == M
        assert image_subspace(incl.f1) == tr.U1 and image_subspace(incl.f2) == tr.U2

    def test_quotient_projection_kernel(self):
        M = preinjective(3, 1, F5)
        lay = layers(M)
        _, proj = quotient(M, lay.socle)
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
        N = ar_translate(simple_module(3, F5, 1), "tau")
        res = find_isomorphism(M, N)
        assert res.status == ISO
        from kronbrist.linalg import rank
        assert rank(res.morphism.f1) == M.dim1 and rank(res.morphism.f2) == M.dim2

    def test_iso_from_a_basis_element_builds_one_system(self, monkeypatch):
        """An invertible element of the Hom(M, N) basis proves ISO before
        Hom(N, M) is built."""
        M, N = push_down(build_ball_rep(4, F5)), preinjective(4, 2, F5)
        built, real = [], modules._hom_system
        monkeypatch.setattr(modules, "_hom_system", lambda A, B: built.append(A) or real(A, B))
        assert find_isomorphism(M, N).status == ISO
        assert len(built) == 1

    def test_unequal_hom_dims_non_iso(self):
        """Equal dims (2, 1), no invertible Hom(M, N) element, and
        dim Hom(M, N) = 3 against dim Hom(N, M) = 4."""
        zero = Matrix.zeros(F2, 1, 2)
        M = KroneckerModule(2, F2, 2, 1, (zero, zero))
        N = KroneckerModule(2, F2, 2, 1, (zero, Matrix.from_rows(F2, [[1, 0]])))
        assert (hom_dim(M, N), hom_dim(N, M)) == (3, 4)
        assert find_isomorphism(M, N).status == NON_ISO


class TestHomSystem:
    def test_build_peak_memory_is_one_system(self):
        """The n = 6 Hom system is built as its nonzeros and peeled down to
        its core: building it and computing its canonical basis peaks far
        below the bytes of the dense 1260 x 1261 system."""
        M, N = push_down(build_ball_rep(6, F5)), preinjective(6, 2, F5)
        tracemalloc.start()
        try:
            S = modules._hom_system(M, N)
            basis = hom_basis(M, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (S.rows, S.cols) == (1260, 1261) and basis
        assert peak < 0.25 * 1260 * 1261 * 8  # int64 entries


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
        T = ar_translate(bq, "tau")
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
        coords = U.coordinates((1, 3, 1))
        for values in (image, coords, A.row(1)):
            assert all(type(v) is scalar for v in values), values
        assert all(type(c) is int for c in U.pivot_cols)
        M = preinjective(3, 2, field)
        T = ar_translate(M, "tau")
        sub = trace_submodule([B([1, 0, 0], field)], M)
        ints = [rank(A), hom_dim(M, M), ext1_dim(B([1, 0, 0], field), M),
                ext1_dim_via_resolution(B([1, 0, 0], field), M),
                *M.dims, *T.dims, *sub.dims, *quotient(M, sub)[0].dims]
        assert all(type(v) is int for v in ints), ints
        json.dumps(ints)
        if field.is_finite:
            json.dumps([image, coords])

