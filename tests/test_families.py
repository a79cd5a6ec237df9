"""Family constructors: the preinjective/preprojective series and the
explicit two-arrow family with one generator per projective point.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from kronbrist import families
from kronbrist.bristles import bristle, bristle_point, bristle_type_of, enumerate_bristles
from kronbrist.families import (
    n2_bristle_generator,
    n2_preinjective,
    preinjective,
    preprojective,
)
from kronbrist.linalg import GF, QQ, Matrix, rank
from kronbrist.modules import (
    ISO,
    Morphism,
    ar_translate,
    coxeter_apply,
    dual,
    end_dim,
    find_isomorphism,
    hom_dim,
    injective_module,
    is_generated_by,
    simple_module,
)

from oracles import n2_generator_by_slope

F2, F3, F5, F7 = GF(2), GF(3), GF(5), GF(7)


class TestPreinjectives:
    def test_base_cases(self):
        assert preinjective(3, 0, F5) == simple_module(3, F5, 1)
        I1 = preinjective(3, 1, F5)
        assert I1.dims == (3, 1)
        assert preinjective(3, 2, F5).dims == (8, 3)
        assert preinjective(3, 3, F5).dims == (21, 8)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dims_follow_lattice_recursion(self, n):
        field = F5
        start = {0: (1, 0), 1: (n, 1)}
        for t in range(7):
            expected = coxeter_apply(start[t % 2], n, t // 2)
            assert preinjective(n, t, field).dims == expected

    def test_end_dims_are_one(self):
        for n, tmax in ((2, 4), (3, 3), (4, 2)):
            for t in range(tmax + 1):
                assert end_dim(preinjective(n, t, F5)) == 1

    def test_hom_vanishing_order(self):
        # maps go only towards smaller indices: hom is zero exactly when t < t'
        mods = {t: preinjective(3, t, F5) for t in range(5)}
        for t in range(5):
            for tp in range(5):
                if t < tp:
                    assert hom_dim(mods[t], mods[tp]) == 0
                elif t > tp:
                    assert hom_dim(mods[t], mods[tp]) > 0
        for t in range(4):
            assert end_dim(mods[t]) >= 1
        # identity is an explicit nonzero endomorphism of the largest fixture
        I4 = mods[4]
        Morphism(I4, I4, Matrix.identity(F5, I4.dim1), Matrix.identity(F5, I4.dim2))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            preinjective(3, -1, F5)

    def test_four_arrow_hom_count_into_third(self):
        # n = 4: maps from a unit bristle into the third preinjective span
        # n^2 - n - 1 = 11 dimensions
        from kronbrist.bristles import bristle, unit_point
        I3 = preinjective(4, 3, F2)
        assert I3.dims == (4 ** 3 - 2 * 4, 4 ** 2 - 1)
        assert hom_dim(bristle(unit_point(4, F2, 1)), I3) == 11


def preinjective_from_scratch(n, t, field):
    """I_t by its definition, t // 2 translates of S(1) or I(2), sharing
    nothing between calls: the oracle for the shared chain."""
    M = simple_module(n, field, 1) if t % 2 == 0 else injective_module(n, field)
    for _ in range(t // 2):
        M = ar_translate(M)
    return M


class TestPreinjectiveChain:
    # I_7 at n = 4 is 10864 x 2911 with four dense maps, too large for a unit
    # test; n = 4 stops at I_5 (780 x 209)
    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=str)
    @pytest.mark.parametrize("n,tmax", [(2, 7), (3, 7), (4, 5)])
    def test_equals_translates_from_scratch(self, n, tmax, field):
        for t in range(tmax + 1):
            assert preinjective(n, t, field) == preinjective_from_scratch(n, t, field)

    def test_second_call_returns_the_same_module(self):
        M = preinjective(3, 4, F5)
        assert preinjective(3, 4, F5) is M
        assert preinjective(3, 4, GF(5)) is M  # an equal field object shares it
        assert preinjective(3, 4, F2) is not M

    @pytest.mark.parametrize("order", [range(9), reversed(range(9)), [8, 7, 0, 1, 5, 6]],
                             ids=["ascending", "descending", "mixed"])
    def test_each_module_translated_once(self, monkeypatch, order):
        # I_0..I_8 take 4 translates on the even side and 3 on the odd side;
        # asking again, in any order, translates nothing
        calls = []

        def counting(M):
            calls.append(M.dims)
            return ar_translate(M)

        monkeypatch.setattr(families, "_PREINJECTIVES", {})
        monkeypatch.setattr(families, "ar_translate", counting)
        for t in order:
            preinjective(3, t, F2)
        preinjective(3, 2, F2)
        preinjective(3, 3, F2)
        assert len(calls) == 7
        assert len(set(calls)) == 7


class TestPreprojectives:
    def test_base_cases(self):
        assert preprojective(3, 0, F5) == simple_module(3, F5, 2)
        assert preprojective(3, 1, F5).dims == (1, 3)

    def test_dual_round_trip_identical(self):
        for t in range(4):
            assert dual(preprojective(3, t, F5)) == preinjective(3, t, F5)

    def test_dims_reverse(self):
        for n, t in ((2, 3), (3, 2), (4, 2)):
            a, b = preinjective(n, t, F5).dims
            assert preprojective(n, t, F5).dims == (b, a)


class TestTwoArrowFamily:
    def test_index_zero_is_source_simple(self):
        assert n2_preinjective(0, F5) == simple_module(2, F5, 1)

    def test_explicit_matrices_t2(self):
        M = n2_preinjective(2, F5)
        assert M.dims == (3, 2)
        assert M.alphas[0] == Matrix.from_rows(F5, [[1, 0, 0], [0, 1, 0]])  # shift down
        assert M.alphas[1] == Matrix.from_rows(F5, [[0, 1, 0], [0, 0, 1]])  # truncate

    def test_t3_dims_gf3(self):
        assert n2_preinjective(3, F3).dims == (4, 3)

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    def test_isomorphic_to_translate_construction(self, t):
        assert find_isomorphism(n2_preinjective(t, F5), preinjective(2, t, F5)).status == ISO

    def test_generator_endpoints(self):
        f = F5
        assert n2_bristle_generator(2, bristle_point(2, f, [1, 0])) == (1, 0, 0)
        assert n2_bristle_generator(2, bristle_point(2, f, [0, 1])) == (0, 0, 1)
        assert n2_bristle_generator(3, bristle_point(2, f, [1, 2])) == (1, 2, 4, 3)
        assert n2_bristle_generator(3, bristle_point(2, f, [3, 1])) == (1, 2, 4, 3)  # (3:1) = (1:2)

    def test_vandermonde_independence(self):
        # any t + 1 of the four points of P^1(GF(3)) give independent generators
        f = F3
        t = 2
        vecs = [n2_bristle_generator(t, p) for p in enumerate_bristles(2, f)]
        for triple in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            M = Matrix.from_rows(f, [list(vecs[i]) for i in triple], cols=t + 1)
            assert rank(M) == t + 1

    @pytest.mark.parametrize("field,points", [
        (F2, None), (F3, None), (F5, None), (F7, None),
        (QQ, [[0, 1], [1, 0], [1, 1], [1, -1], [2, 3], [-3, 1], [1, Fraction(-2, 5)]]),
    ], ids=["gf(2)", "gf(3)", "gf(5)", "gf(7)", "q"])
    def test_generator_is_the_slope_oracle_and_spans_its_point(self, field, points):
        """At every point the generator is the slope route's vector, the
        geometric series at (1:c) and e_t at (0:1), and for t >= 1 it spans
        the bristle of that very point."""
        pts = enumerate_bristles(2, field) if points is None else \
            [bristle_point(2, field, c) for c in points]
        for p in pts:
            slope = p.coords[1] if p.coords[0] else None
            for t in range(7):
                gen = n2_bristle_generator(t, p)
                assert gen == n2_generator_by_slope(t, slope, field)
                assert all(type(x) is type(field.normalize(1)) for x in gen)  # exact, no numpy scalars
                if t >= 1:
                    assert bristle_type_of(n2_preinjective(t, field), gen) == p

    def test_generation_cutoff_gf2(self):
        f = F2
        pts = enumerate_bristles(2, f)
        mods = [bristle(p) for p in pts]  # all three bristles over GF(2)
        assert is_generated_by(mods, n2_preinjective(2, f))
        assert not is_generated_by(mods, n2_preinjective(3, f))
