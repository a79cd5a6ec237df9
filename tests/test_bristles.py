"""Bristle machinery: canonical sets, enumeration, bristle vectors, the
variety of bristle lines (the tests' oracle), maximal bristled submodules,
saturation.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

import pytest

from kronbrist import bristles
from kronbrist.bristles import (
    BristlePoint,
    bristle,
    bristle_point,
    bristle_type_of,
    canonical_set,
    enumerate_bristles,
    form_forces_extensions,
    is_bristle_vector,
    is_bristled,
    is_saturated,
    maximal_bristled_submodule,
    pair_point,
    unit_point,
)
from kronbrist.families import n2_preinjective, preinjective
from kronbrist.linalg import GF, QQ, InternalCheckFailed, Matrix
from kronbrist.modules import (
    ar_translate,
    direct_sum,
    euler_form,
    ext1_dim,
    ext1_dim_via_resolution,
    hom_dim,
    random_module,
    simple_module,
)

from oracles import (
    bristle_variety,
    kron_fixture,
    projective_module,
    s1_generated_submodule,
    saturated_by_translate,
    trace_submodule,
)

F2, F3, F5 = GF(2), GF(3), GF(5)


class TestPointsAndModules:
    def test_unit_point_module(self):
        b = bristle(unit_point(3, F5, 1))
        assert b.alphas[0] == Matrix.identity(F5, 1)
        assert b.alphas[1].is_zero() and b.alphas[2].is_zero()

    def test_pair_point_module(self):
        b = bristle(pair_point(3, F5, 2, 3))
        assert b.alphas[0].is_zero()
        assert b.alphas[1] == b.alphas[2] == Matrix.identity(F5, 1)

    def test_scalar_multiples_normalize(self):
        assert bristle_point(3, F5, [2, 4, 0]) == bristle_point(3, F5, [1, 2, 0])
        assert bristle_point(3, F5, [0, 3, 3]) == bristle_point(3, F5, [0, 1, 1])
        # 1/2 = 3 in GF(5), and (3:1:0) = (1:2:0)
        assert bristle_point(3, F5, [Fraction(1, 2), 1, 0]).coords == (1, 2, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bristle_point(3, F5, [0, 0, 0])

    def test_unnormalized_constructor_rejected(self):
        with pytest.raises(ValueError):
            BristlePoint(F5, (2, 0, 0))


class TestCanonicalSets:
    def test_b0_n3(self):
        pts = canonical_set("B0", 3, F5)
        expected = [unit_point(3, F5, 2), unit_point(3, F5, 3),
                    pair_point(3, F5, 1, 2), pair_point(3, F5, 2, 3),
                    pair_point(3, F5, 3, 1)]
        assert pts == expected and len(pts) == 5

    def test_b0prime_n3(self):
        pts = canonical_set("B0prime", 3, F5)
        assert len(pts) == 4
        assert pair_point(3, F5, 2, 3) not in pts

    def test_b1prime_n3(self):
        pts = canonical_set("B1prime", 3, F5)
        assert pts == [unit_point(3, F5, 1), pair_point(3, F5, 1, 2),
                       pair_point(3, F5, 2, 3), pair_point(3, F5, 3, 1)]

    def test_cardinalities_general(self):
        for n in (3, 4, 5, 6):
            assert len(canonical_set("B0", n, F2)) == n + 2
            assert len(canonical_set("B0prime", n, F2)) == n + 1
            assert len(canonical_set("B1prime", n, F2)) == n + 1

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            canonical_set("B0", 2, F5)


class TestEnumeration:
    @pytest.mark.parametrize("n,q,count", [(2, 2, 3), (3, 2, 7), (2, 3, 4), (3, 5, 31)])
    def test_counts(self, n, q, count):
        assert len(enumerate_bristles(n, GF(q))) == count == (q ** n - 1) // (q - 1)

    def test_matches_brute_force_gf2_cubed(self):
        # oracle: all nonzero vectors of GF(2)^3 modulo scaling (trivial for q=2)
        brute = {v for v in itertools.product((0, 1), repeat=3) if any(v)}
        pts = enumerate_bristles(3, F2)
        assert {p.coords for p in pts} == brute

    def test_lexicographic_order(self):
        pts = enumerate_bristles(3, F3)
        coords = [p.coords for p in pts]
        assert coords == sorted(coords)

    def test_rationals_rejected(self):
        with pytest.raises(ValueError):
            enumerate_bristles(3, QQ)


class TestBristleVectors:
    def test_any_vector_of_a_bristle(self):
        b = bristle(bristle_point(3, F5, [1, 2, 0]))
        assert is_bristle_vector(b, (1,))
        assert is_bristle_vector(b, (3,))

    def test_geometric_series_vector(self):
        It = n2_preinjective(2, F5)
        m_c = (1, 2, 4)  # powers of 2
        assert is_bristle_vector(It, m_c)
        assert bristle_type_of(It, m_c) == bristle_point(2, F5, [1, 2])

    def test_generic_vector_of_projective_fails(self):
        P1 = projective_module(3, F5, 1)
        assert not is_bristle_vector(P1, (1,))

    def test_no_line_of_images_has_no_type(self):
        """Images that vanish (the simple at vertex 1) or span a plane (the
        projective at vertex 1) give no point."""
        assert bristle_type_of(simple_module(3, F5, 1), (1,)) is None
        assert not is_bristle_vector(simple_module(3, F5, 1), (1,))
        assert bristle_type_of(projective_module(3, F5, 1), (1,)) is None

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            is_bristle_vector(bristle(unit_point(3, F5, 1)), (0,))


class TestVariety:
    def test_single_bristle(self):
        p = bristle_point(3, F5, [1, 2, 3])
        var = bristle_variety(bristle(p))
        assert var == [((1,), p)]

    def test_sink_simple_empty(self):
        assert bristle_variety(simple_module(3, F5, 2)) == []

    def test_source_simple_reduces_away(self):
        # the vertex-1 socle is split off before enumerating lines
        assert bristle_variety(simple_module(3, F5, 1)) == []

    def test_direct_sum_coordinate_lines(self):
        M = direct_sum(bristle(unit_point(3, F5, 1)), bristle(unit_point(3, F5, 2)))
        var = bristle_variety(M)
        assert [(u, p.coords) for u, p in var] == [
            ((0, 1), (0, 1, 0)), ((1, 0), (1, 0, 0))]

    def test_disjoint_union_against_oracle_gf2(self):
        rng = random.Random(31)
        for _ in range(10):
            p1 = rng.choice(enumerate_bristles(3, F2))
            p2 = rng.choice([p for p in enumerate_bristles(3, F2) if p != p1])
            M = direct_sum(bristle(p1), bristle(p2))
            types = sorted(pt.coords for _, pt in bristle_variety(M))
            assert types == sorted([p1.coords, p2.coords])

    def test_direct_sum_variety_of_random_modules_gf2(self):
        # whenever the two summands share no bristle type, the variety of the
        # sum is exactly the two coordinatewise-embedded varieties
        from kronbrist.modules import random_module
        rng = random.Random(37)
        checked = 0
        while checked < 8:
            M = random_module(3, F2, rng, 2, 2)
            N = random_module(3, F2, rng, 2, 2)
            if M.dim1 == 0 or N.dim1 == 0:
                continue
            var_m = bristle_variety(M)
            var_n = bristle_variety(N)
            types_m = {p.coords for _, p in var_m}
            types_n = {p.coords for _, p in var_n}
            if types_m & types_n:
                continue
            S = direct_sum(M, N)
            expected = set()
            # the reduced sum is the sum of the reduced parts, coordinatewise
            dm = M.dim1 - s1_generated_submodule(M).U1.dim
            dn = N.dim1 - s1_generated_submodule(N).U1.dim
            for u, p in var_m:
                expected.add((u + (0,) * dn, p.coords))
            for u, p in var_n:
                expected.add(((0,) * dm + u, p.coords))
            got = {(u, p.coords) for u, p in bristle_variety(S)}
            assert got == expected
            checked += 1

    def test_rationals_rejected(self):
        with pytest.raises(ValueError):
            bristle_variety(bristle(bristle_point(3, QQ, [1, 0, 0])))


class TestBristledAndSaturated:
    def test_source_simple_bristled(self):
        S1 = simple_module(3, F2, 1)
        assert maximal_bristled_submodule(S1).is_full()

    def test_projective_not_bristled(self):
        P1 = projective_module(3, F2, 1)
        pair = maximal_bristled_submodule(P1)
        assert pair.U1.is_zero() and pair.U2.is_full()
        assert not is_bristled(P1)

    def test_two_arrow_family_cutoff(self):
        # over GF(2): bristled up to index 2, not from 3 on
        from kronbrist.families import preinjective
        assert is_bristled(preinjective(2, 2, F2))
        assert not is_bristled(preinjective(2, 3, F2))

    def test_saturation_basics(self):
        from kronbrist.families import preinjective
        assert is_saturated(preinjective(3, 2, F2))
        assert not is_saturated(simple_module(3, F2, 2))
        b = bristle(unit_point(3, F2, 1))
        T = ar_translate(b)
        assert not is_saturated(T)
        assert is_saturated(ar_translate(T))

    def test_saturation_rationals_rejected(self):
        with pytest.raises(ValueError):
            is_saturated(bristle(bristle_point(3, QQ, [1, 0, 0])))


class TestMaximalBristledSubmodule:
    @pytest.mark.parametrize("field", [F2, F3], ids=str)
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_the_trace_of_all_bristles(self, field, n):
        """The vertex-1 space built from one block system for all bristles
        is the canonical trace of the bristles, one Hom system each."""
        rng = random.Random(7 * n + field.characteristic)
        fixtures = [random_module(n, field, rng, 4, 3) for _ in range(12)]
        fixtures += [n2_preinjective(t, field) for t in range(4)] if n == 2 else \
            [kron_fixture("dim32_bristled", field), kron_fixture("dim32_not_bristled", field)]
        for M in fixtures:
            trace = trace_submodule([bristle(p) for p in enumerate_bristles(n, field)], M)
            assert maximal_bristled_submodule(M).U1 == trace.U1
            assert is_bristled(M) == trace.U1.is_full()


class TestSaturationRoute:
    """is_saturated refuses by the bilinear form or compares every bristle's
    Hom into M with it; both must agree with the definition, Ext^1(B, M) = 0
    for every bristle."""

    @staticmethod
    def _refused(M) -> bool:
        return (M.n - 1) * M.dim2 > M.dim1

    def test_matches_the_definition_on_random_modules(self):
        rng = random.Random(31)
        refused = translated = saturated = 0
        for i in range(60):
            n, f = 2 + i % 3, (F2, F3)[i // 3 % 2]
            M = random_module(n, f, rng, 5, 2)
            if i % 4 == 0:
                M = direct_sum(M, random_module(n, f, rng, 3, 1))
            expected = all(ext1_dim(bristle(p), M) == 0 for p in enumerate_bristles(n, f))
            assert is_saturated(M) == expected, (n, f, M.dims)
            assert form_forces_extensions(M) == self._refused(M)
            refused += self._refused(M)
            translated += not self._refused(M)
            saturated += expected
        assert refused and translated and saturated, (refused, translated, saturated)

    @pytest.mark.parametrize("field", [F2, F3], ids=str)
    def test_the_one_bristle_with_extensions_is_found(self, field):
        """Ext^1(B, tau B_p) = D Hom(B_p, B) is nonzero for B = B_p alone, so
        the sweep over all bristles must reach whichever block holds B_p."""
        points = enumerate_bristles(3, field)
        for p in points:
            M = ar_translate(bristle(p))
            assert not form_forces_extensions(M)
            assert [ext1_dim(bristle(q), M) for q in points] == [int(q == p) for q in points]
            assert not is_saturated(M)

    def test_refusal_needs_no_translate(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the bilinear form alone decides this module")

        monkeypatch.setattr(bristles, "bristle_hom_dims", unreachable)
        for M in (simple_module(3, F2, 2), projective_module(3, F3, 1),
                  bristle(unit_point(3, F2, 1)),
                  direct_sum(bristle(unit_point(4, F3, 2)), simple_module(4, F3, 1))):
            assert self._refused(M)
            assert not is_saturated(M)


def _bristle_orbit(n, f, t_max):
    """tau^t B(1) for t = 0..t_max."""
    orbit = [bristle(unit_point(n, f, 1))]
    for _ in range(t_max):
        orbit.append(ar_translate(orbit[-1]))
    return orbit


class TestSaturationByForm:
    """is_saturated compares every bristle's Hom into M itself with the
    bilinear form <(1, 1), dim M>; it must agree with the Auslander-Reiten
    route through tau D M (``saturated_by_translate``) and with the
    definition read by the resolution route, which builds no Hom system."""

    @staticmethod
    def _by_resolution(M) -> bool:
        return all(ext1_dim_via_resolution(bristle(p), M) == 0
                   for p in enumerate_bristles(M.n, M.field))

    def _assert_three_routes(self, M) -> bool:
        got = is_saturated(M)
        assert got == saturated_by_translate(M) == self._by_resolution(M), (M.n, M.field, M.dims)
        return got

    def test_random_modules_and_direct_sums(self):
        rng = random.Random(2027)
        answers = []
        for i in range(72):
            n, f = 2 + i % 3, (F2, F3)[i // 3 % 2]
            M = random_module(n, f, rng, 6, 2)
            if i % 4 == 0:
                M = direct_sum(M, random_module(n, f, rng, 3, 1))
            answers.append((form_forces_extensions(M), self._assert_three_routes(M)))
        # refused by the form, swept and unsaturated, swept and saturated
        assert {(True, False), (False, False), (False, True)} <= set(answers)

    @pytest.mark.parametrize("field", [F2, F3], ids=str)
    def test_preinjectives_and_bristle_orbits(self, field):
        assert all(self._assert_three_routes(preinjective(3, t, field)) for t in range(7))
        orbit = _bristle_orbit(3, field, 3)
        assert [self._assert_three_routes(M) for M in orbit] == [False, False, True, True]

    def test_no_translate_duality_or_kernel_basis(self, monkeypatch):
        """With the modules built first, ar_translate, dual and kernel_basis
        raise wherever a kronbrist module binds them, and saturation is
        still decided, correctly."""
        assert not hasattr(bristles, "ar_translate") and not hasattr(bristles, "dual")
        mods = [preinjective(3, t, F2) for t in range(7)] + _bristle_orbit(3, F2, 3)
        expected = [True] * 7 + [False, False, True, True]

        def unreachable(*args):
            raise AssertionError("saturation reads the bilinear form and Hom into M only")

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "kronbrist":
                for name in ("ar_translate", "dual", "kernel_basis"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, unreachable)
        assert [is_saturated(M) for M in mods] == expected

    def test_hom_below_the_form_raises(self, monkeypatch):
        """A Hom dimension below <(1, 1), dim M> is a negative Ext: a bug,
        never an answer False."""
        real = bristles.bristle_hom_dims

        def one_below(points, M):
            return list(real(points, M))[:-1] + [euler_form((1, 1), M.dims, M.n) - 1]

        monkeypatch.setattr(bristles, "bristle_hom_dims", one_below)
        for M in (preinjective(3, 2, F2), _bristle_orbit(3, F3, 2)[-1]):
            with pytest.raises(InternalCheckFailed):
                is_saturated(M)


class TestOrthogonality:
    @pytest.mark.parametrize("field", [F2, F3])
    def test_pairwise_hom_orthogonal(self, field):
        pts = enumerate_bristles(3, field)
        mods = [bristle(p) for p in pts]
        for i, Mi in enumerate(mods):
            for j, Mj in enumerate(mods):
                assert hom_dim(Mi, Mj) == (1 if i == j else 0)

    @pytest.mark.parametrize("field", [F2, F3])
    def test_self_extension_dimension(self, field):
        for p in enumerate_bristles(3, field):
            assert ext1_dim(bristle(p), bristle(p)) == 2


class TestDim32Fixtures:
    @pytest.mark.parametrize("field", [F2, F5])
    def test_left_is_bristled_right_is_not(self, field):
        left = kron_fixture("dim32_bristled", field)
        right = kron_fixture("dim32_not_bristled", field)
        assert left.dims == right.dims == (3, 2)
        assert is_bristled(left)
        assert not is_bristled(right)

    @pytest.mark.parametrize("field", [F2, F5])
    def test_both_faithful(self, field):
        from kronbrist.modules import is_faithful
        assert is_faithful(kron_fixture("dim32_bristled", field))
        assert is_faithful(kron_fixture("dim32_not_bristled", field))

    def test_left_variety_is_three_coordinate_lines(self):
        var = bristle_variety(kron_fixture("dim32_bristled", F2))
        assert [u for u, _ in var] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
