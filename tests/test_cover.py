"""Tree-cover representations: push-down, named constructions, component
submodules, the generation equalities, cover Hom spaces, bristled parts.
"""

from __future__ import annotations

import pytest

from kronbrist.bristles import bristle, pair_point, unit_point
from kronbrist.cover import (
    BASE,
    CoverRep,
    CoverSubrep,
    build_ball_rep,
    build_mu_bristle_rep,
    build_tau_bristle_rep,
    center_line,
    cover_bristle_at,
    cover_hom_dim,
    cover_is_bristled,
    cover_max_bristled,
    covered_pair_starts,
    covered_singleton_types,
    extract_mij,
    injective_star,
    leaf_projective,
    leaves_of,
    neighbor,
    push_down,
    subrep_subpair,
    v_component,
    verify_cover_equalities,
    vertex_class,
    w_component,
    y_component,
)
from kronbrist.families import preinjective
from kronbrist.linalg import GF, DimensionMismatch, Subspace
from kronbrist.modules import (
    ISO,
    NotSubmodule,
    ar_translate,
    coxeter_apply,
    ext1_dim,
    find_isomorphism,
    simple_module,
    submodule_as_module,
)
from kronbrist.bristles import is_bristled

F2, F5 = GF(2), GF(5)


class TestTreeBasics:
    def test_vertex_classes(self):
        assert vertex_class(BASE) == 1
        assert vertex_class((2,)) == 2
        assert vertex_class((2, 3)) == 1

    def test_neighbor_parent_child(self):
        assert neighbor((2, 3), 3) == (2,)
        assert neighbor((2, 3), 1) == (2, 3, 1)
        assert neighbor(BASE, 4) == (4,)

    def test_unreduced_vertex_rejected(self):
        with pytest.raises(ValueError):
            CoverRep(3, F5, {(1, 1): 1}, {})


class TestPushDown:
    def test_single_source_vertex(self):
        X = CoverRep(3, F5, {BASE: 1}, {})
        M = push_down(X)
        assert M == simple_module(3, F5, 1)

    def test_single_arrow_gives_unit_bristle(self):
        for r in (1, 2, 3):
            X = cover_bristle_at(3, F5, BASE, r)
            M = push_down(X)
            assert M == bristle(unit_point(3, F5, r))

    def test_ball_vertex_count_and_dims(self):
        X = build_ball_rep(3, F5)
        assert len(X.spaces) == 10  # center + 3 sinks + 6 leaves
        M = push_down(X)
        assert M.dims == (8, 3)
        M4 = push_down(build_ball_rep(4, F5))
        assert M4.dims == (15, 4)

    def test_dimension_totals_preserved(self):
        X = build_ball_rep(4, F2)
        M = push_down(X)
        assert M.dims == tuple(sum(d for v, d in X.spaces.items() if vertex_class(v) == cls)
                               for cls in (1, 2))


class TestNamedConstructions:
    @pytest.mark.parametrize("n,field", [(3, F5), (3, F2), (4, F5)])
    def test_ball_pushes_to_second_preinjective(self, n, field):
        M = push_down(build_ball_rep(n, field))
        assert find_isomorphism(M, preinjective(n, 2, field)).status == ISO

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pruned_ball_dims(self, n):
        M = push_down(build_tau_bristle_rep(n, F5))
        assert M.dims == coxeter_apply((1, 1), n)

    def test_pruned_ball_is_translate(self):
        M = push_down(build_tau_bristle_rep(3, F5))
        T = ar_translate(bristle(unit_point(3, F5, 1)), "tau")
        assert find_isomorphism(M, T).status == ISO

    def test_ball_leaf_counts(self):
        for n in (3, 4):
            X = build_ball_rep(n, F5)
            counts = {tp: 0 for tp in range(1, n + 1)}
            for _, tp in leaves_of(X):
                counts[tp] += 1
            assert counts[n - 1] == n - 1 and counts[n] == n - 1

    def test_pruned_leaf_counts(self):
        for n in (3, 4):
            X = build_tau_bristle_rep(n, F5)
            counts = {tp: 0 for tp in range(1, n + 1)}
            for _, tp in leaves_of(X):
                counts[tp] += 1
            assert counts[n - 1] == n - 2 and counts[n] == n - 2

    def test_intermediate_rep_center_and_dims(self):
        X = build_mu_bristle_rep(4, F5)
        assert X.spaces[BASE] == 3
        M = push_down(X)
        assert M.dims == (12, 4)

    def test_intermediate_rep_quotient_and_ext(self):
        n = 3
        X = build_mu_bristle_rep(n, F5)
        M = push_down(X)
        assert M.dims == (6, 3)
        b1 = bristle(unit_point(n, F5, 1))
        assert ext1_dim(b1, M) == n - 1
        assert not is_bristled(M)

    def test_small_n_rejected(self):
        for builder in (build_ball_rep, build_tau_bristle_rep, build_mu_bristle_rep):
            with pytest.raises(ValueError):
                builder(2, F5)


class TestComponents:
    def test_branch_restrictions_disjoint(self):
        X = build_ball_rep(3, F5)
        supports = [set(y_component(X, j).spaces) for j in (1, 2, 3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (supports[i] & supports[j])

    def test_wedge_defined_exactly_on_allowed_starts(self):
        n = 4
        X = build_ball_rep(n, F5)
        for j in range(1, n + 1):
            allowed = set(covered_pair_starts(n, j))
            for i in range(1, n + 1):
                ip1 = i % n + 1
                can = i != j and ip1 != j
                if i in allowed:
                    v_component(X, j, i)
                elif not can:
                    with pytest.raises(ValueError):
                        v_component(X, j, i)

    def test_singleton_types(self):
        assert covered_singleton_types(4, 2) == [3, 4]
        assert covered_singleton_types(4, 4) == [3]
        assert covered_singleton_types(4, 3) == [4]

    def test_center_line_one_dimensional(self):
        X = build_ball_rep(4, F5)
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    assert center_line(X, i, j).dim == 1

    def test_path_component_shape(self):
        X = build_ball_rep(3, F5)
        sub = w_component(X, 1, 2)
        assert set(sub.spaces) == {(2, 1), (2,), BASE, (1,), (1, 2)}
        assert sub.dim(BASE) == 1

    def test_leaf_projective_pushes_to_unit_bristle(self):
        X = build_ball_rep(3, F5)
        pushed = push_down(X)
        for leaf, tp in leaves_of(X):
            pair = subrep_subpair(leaf_projective(X, leaf), pushed)
            sub, _ = submodule_as_module(pushed, pair)
            assert sub == bristle(unit_point(3, F5, tp))

    def test_component_inclusions_push_to_valid_morphisms(self):
        # the submodule constructor rejects subspace pairs that the structure
        # maps do not preserve, so merely building these certifies that each
        # component pushes down to a submodule
        X = build_ball_rep(3, F5)
        pushed = push_down(X)
        subs = [y_component(X, j) for j in (1, 2, 3)]
        subs += [leaf_projective(X, leaf) for leaf, _ in leaves_of(X)]
        subs += [v_component(X, j, i) for j in (1, 2, 3)
                 for i in covered_pair_starts(3, j)]
        subs += [w_component(X, 1, 2), w_component(X, 2, 3)]
        subs.append(cover_max_bristled(X))
        for sub in subs:
            pair = subrep_subpair(sub, pushed)
            assert pair.parent == pushed
            # the vertex blocks are disjoint, so pushing down loses no dimension
            assert pair.dims == tuple(sum(sub.dim(v) for v in sub.spaces if vertex_class(v) == cls)
                                      for cls in (1, 2))


class TestSubrepClosure:
    def test_arrow_into_a_missing_vertex_is_refused(self):
        # the center alone, and the center with only the sink (1,): the
        # arrows to the other sinks leave both
        X = build_ball_rep(3, F5)
        with pytest.raises(NotSubmodule):
            CoverSubrep(X, {BASE: Subspace.full(F5, 2)})
        with pytest.raises(NotSubmodule):
            CoverSubrep(X, {BASE: Subspace.full(F5, 2), (1,): Subspace.full(F5, 1)})
        # the center line killed by the arrow 3 needs only the sinks (1,), (2,)
        line = CoverSubrep(X, {BASE: center_line(X, 1, 2),
                               (1,): Subspace.full(F5, 1), (2,): Subspace.full(F5, 1)})
        assert line.dim(BASE) == 1 and line.dim((3,)) == 0

    def test_subspace_outside_the_host_space_is_refused(self):
        X = build_ball_rep(3, F5)
        with pytest.raises(DimensionMismatch):
            CoverSubrep(X, {(1,): Subspace.full(F5, 2)})

    @pytest.mark.parametrize("n,field", [(3, F2), (3, F5), (4, F2), (4, F5)])
    def test_named_components_are_subreps(self, n, field):
        X = build_ball_rep(n, field)
        subs = [y_component(X, j) for j in range(1, n + 1)]
        subs += [leaf_projective(X, leaf) for leaf, _ in leaves_of(X)]
        subs += [v_component(X, j, i) for j in range(1, n + 1) for i in covered_pair_starts(n, j)]
        subs += [w_component(X, i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        subs.append(cover_max_bristled(X))
        T = build_tau_bristle_rep(n, field)
        subs += [y_component(T, j) for j in range(2, n + 1)]
        subs += [leaf_projective(T, leaf) for leaf, _ in leaves_of(T)]
        subs += [w_component(T, i, i + 1) for i in range(2, n)]
        for sub in subs:
            assert all(U.dim > 0 for v, U in sub.spaces.items() if v != BASE)


class TestPathBristles:
    def test_images_agree_under_both_maps(self):
        X = build_ball_rep(3, F5)
        pushed = push_down(X)
        for (i, j) in ((1, 2), (2, 3), (3, 1), (1, 3)):
            pair, gen = extract_mij(X, i, j, pushed)
            img_i = pushed.alphas[i - 1].apply(gen)
            img_j = pushed.alphas[j - 1].apply(gen)
            assert img_i == img_j and any(x != 0 for x in img_i)
            other = [k for k in (1, 2, 3) if k not in (i, j)][0]
            assert all(x == 0 for x in pushed.alphas[other - 1].apply(gen))

    def test_extracted_bristle_has_pair_type(self):
        X = build_ball_rep(4, F2)
        pushed = push_down(X)
        for i in (1, 2, 3, 4):
            j = i % 4 + 1
            pair, _ = extract_mij(X, i, j, pushed)
            sub, _ = submodule_as_module(pushed, pair)
            assert find_isomorphism(sub, bristle(pair_point(4, F2, i, j))).status == ISO

    def test_undefined_path_rejected(self):
        X = build_tau_bristle_rep(3, F5)
        with pytest.raises(ValueError):
            w_component(X, 1, 2)  # label-1 branch was pruned away


class TestEqualities:
    @pytest.mark.parametrize("n,field", [(3, F5), (3, F2), (4, F5), (4, F2)])
    def test_all_pass(self, n, field):
        for key, ok in verify_cover_equalities(n, field):
            assert ok, (n, str(field), key)


class TestCoverHom:
    def test_single_vertex_endomorphisms(self):
        X = CoverRep(3, F5, {BASE: 1}, {})
        assert cover_hom_dim(X, X) == 1

    def test_center_bristles_have_no_maps_into_ball(self):
        for n in (3, 4):
            X = build_ball_rep(n, F5)
            for i in range(1, n + 1):
                assert cover_hom_dim(cover_bristle_at(n, F5, BASE, i), X) == 0

    def test_leaf_projective_maps_into_ball(self):
        X = build_ball_rep(3, F5)
        for leaf, tp in leaves_of(X):
            P = cover_bristle_at(3, F5, leaf, tp)  # the projective at the leaf
            assert cover_hom_dim(P, X) >= 1


class TestBristledPart:
    def test_injective_star_is_bristled(self):
        for n in (3, 4):
            for j in range(1, n + 1):
                assert cover_is_bristled(injective_star(n, F5, j))

    @pytest.mark.parametrize("n", [3, 4])
    def test_ball_is_not_bristled(self, n):
        X = build_ball_rep(n, F5)
        sub = cover_max_bristled(X)
        assert sub.dim(BASE) == 0
        assert not cover_is_bristled(X)
        # sinks and leaves are fully covered
        for v, d in X.spaces.items():
            if v != BASE:
                assert sub.dim(v) == d

    def test_isolated_source_has_empty_trace(self):
        X = CoverRep(3, F5, {BASE: 2}, {})
        sub = cover_max_bristled(X)
        assert sub.dim(BASE) == 0
        assert not cover_is_bristled(X)


class TestLeafHomCorrespondence:
    @pytest.mark.parametrize("n", [3, 4])
    def test_type_i_leaf_count_matches_hom_dim(self, n):
        # the ball displays, per type, exactly as many leaves as there are
        # independent maps from that unit bristle into the push-down
        from kronbrist.modules import hom_dim
        X = build_ball_rep(n, F5)
        pushed = push_down(X)
        counts = {tp: 0 for tp in range(1, n + 1)}
        for _, tp in leaves_of(X):
            counts[tp] += 1
        for i in range(1, n + 1):
            assert counts[i] == n - 1
            assert hom_dim(bristle(unit_point(n, F5, i)), pushed) == n - 1

    def test_all_ones_bristle_misses_the_branches(self):
        # the bristle with every map the identity maps into the push-down in
        # n-1 independent ways, none of which land inside a branch part
        from kronbrist.bristles import bristle_point
        from kronbrist.modules import hom_dim, submodule_as_module
        n = 3
        X = build_ball_rep(n, F5)
        pushed = push_down(X)
        ones = bristle(bristle_point(n, F5, [1] * n))
        assert hom_dim(ones, pushed) == n - 1
        for j in range(1, n + 1):
            pair = subrep_subpair(y_component(X, j), pushed)
            assert pair.dims == (n - 1, 1)
            nj, _ = submodule_as_module(pushed, pair)
            assert hom_dim(ones, nj) == 0
