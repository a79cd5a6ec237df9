"""Acceptance suite: every criterion runs at its stated tolerance (all exact)
and prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the lines while running).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import combinations

from kronbrist.bristles import (
    bristle,
    canonical_set,
    enumerate_bristles,
    is_bristled,
    is_saturated,
    unit_point,
)
from kronbrist.cover import (
    BASE,
    build_ball_rep,
    build_mu_bristle_rep,
    build_tau_bristle_rep,
    cover_bristle_at,
    cover_hom_dim,
    cover_is_bristled,
    cover_max_bristled,
    covered_pair_starts,
    leaves_of,
    push_down,
    verify_cover_equalities,
)
from kronbrist.families import dim32_bristled, dim32_not_bristled, n2_preinjective, preinjective
from kronbrist.linalg import GF, Subspace, subspace_sum
from kronbrist.modules import (
    ISO,
    ar_translate,
    coxeter_apply,
    end_dim,
    euler_form,
    ext1_dim,
    ext1_dim_via_resolution,
    find_isomorphism,
    hom_dim,
    is_faithful,
    is_generated_by,
    layers,
    random_module,
    trace_submodule,
)
from kronbrist.scenarios import _derived_rng

F2, F3, F5 = GF(2), GF(3), GF(5)


@contextmanager
def criterion(k: int, desc: str, limit: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if limit is not None and dt >= limit:
            raise AssertionError(f"exceeded the {limit:.0f}s budget ({dt:.1f}s)")
    except BaseException:
        print(f"ACCEPTANCE {k:02d}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {k:02d}: PASS - {desc} ({dt:.1f}s)")


def subset_generates(traces, idxs, M):
    U1 = Subspace.zero(M.field, M.dim1)
    U2 = Subspace.zero(M.field, M.dim2)
    for i in idxs:
        U1 = subspace_sum(U1, traces[i].U1)
        U2 = subspace_sum(U2, traces[i].U2)
    return U1.is_full() and U2.is_full()


def test_criterion_1_generation_and_saturation():
    with criterion(1, "n=3/GF(5): I_0..I_4 generated by B0 and saturated; "
                      "hom dims into I2, I3 uniform", limit=30.0):
        n, f = 3, F5
        b0 = [bristle(p) for p in canonical_set("B0", n, f)]
        pts = enumerate_bristles(n, f)
        assert len(pts) == 31
        allb = [bristle(p) for p in pts]
        for t in range(5):
            It = preinjective(n, t, f)
            assert is_generated_by(b0, It), f"I_{t} not generated"
            assert all(ext1_dim(B, It) == 0 for B in allb), f"I_{t} not saturated"
        I2 = preinjective(n, 2, f)
        I3 = preinjective(n, 3, f)
        assert all(hom_dim(B, I2) == 2 for B in allb)
        assert all(hom_dim(B, I3) == 5 for B in allb)


def test_criterion_2_optimality_for_third_preinjective():
    with criterion(2, "n=3/GF(2): every 4-subset of the 7 bristles fails on I_3; "
                      "B0 succeeds", limit=10.0):
        n, f = 3, F2
        pts = enumerate_bristles(n, f)
        assert len(pts) == 7
        I3 = preinjective(n, 3, f)
        traces = [trace_submodule([bristle(p)], I3) for p in pts]
        tested = 0
        for idxs in combinations(range(7), 4):
            tested += 1
            assert not subset_generates(traces, idxs, I3)
        assert tested == 35
        b0 = [bristle(p) for p in canonical_set("B0", n, f)]
        assert is_generated_by(b0, I3)


def test_criterion_3_translate_optimality():
    with criterion(3, "n=3: B1' generates tau B(1); 4-subsets avoiding B(1) fail "
                      "over GF(2); hom dims n-1 / n-2"):
        n = 3
        for f in (F2, F5):
            b1pt = unit_point(n, f, 1)
            T = ar_translate(bristle(b1pt), "tau")
            assert T.dims == (5, 2)
            b1prime = [bristle(p) for p in canonical_set("B1prime", n, f)]
            assert is_generated_by(b1prime, T)
            assert hom_dim(bristle(b1pt), T) == 2
            others = [p for p in enumerate_bristles(n, f) if p != b1pt]
            assert all(hom_dim(bristle(p), T) == 1 for p in others)
        f = F2
        T = ar_translate(bristle(unit_point(n, f, 1)), "tau")
        others = [p for p in enumerate_bristles(n, f) if p != unit_point(n, f, 1)]
        traces = [trace_submodule([bristle(p)], T) for p in others]
        for idxs in combinations(range(len(others)), 4):
            assert not subset_generates(traces, idxs, T)


def test_criterion_4_two_arrow_family():
    with criterion(4, "n=2/GF(2),GF(3): generation law over all subsets for t<=3; "
                      "bristled iff t<=q; sink simple and bristles unsaturated",
                   limit=10.0):
        from kronbrist.modules import simple_module
        for q in (2, 3):
            f = GF(q)
            pts = enumerate_bristles(2, f)
            assert len(pts) == q + 1
            mods = [bristle(p) for p in pts]
            for t in range(4):
                It = n2_preinjective(t, f)
                traces = [trace_submodule([m], It) for m in mods]
                for size in range(len(pts) + 1):
                    for idxs in combinations(range(len(pts)), size):
                        assert subset_generates(traces, idxs, It) == (size >= t + 1)
            for t in range(q + 3):
                assert is_bristled(preinjective(2, t, f)) == (t <= q)
            assert not is_saturated(simple_module(2, f, 2))
            assert all(not is_saturated(m) for m in mods)


def test_criterion_5_cover_equalities():
    with criterion(5, "cover identities pass for n=3,4 over GF(5),GF(2); "
                      "push-downs certified; census (n+1)(n-1) with n-1 per type"):
        for n in (3, 4):
            for f in (F5, F2):
                for key, ok in verify_cover_equalities(n, f):
                    assert ok, (n, str(f), key)
                ball = push_down(build_ball_rep(n, f))
                assert find_isomorphism(ball, preinjective(n, 2, f)).status == ISO
                pruned = push_down(build_tau_bristle_rep(n, f))
                T = ar_translate(bristle(unit_point(n, f, 1)), "tau")
                assert find_isomorphism(pruned, T).status == ISO
                # census over the actual construction
                census = {}
                for _, tp in leaves_of(build_ball_rep(n, f)):
                    if tp in (n - 1, n):
                        census[f"unit-{tp}"] = census.get(f"unit-{tp}", 0) + 1
                for i in list(range(1, n - 1)) + [n]:
                    wedges = sum(1 for j in range(1, n + 1)
                                 if i in covered_pair_starts(n, j))
                    census[f"pair-{i}"] = wedges + 1
                assert set(census.values()) == {n - 1}
                assert sum(census.values()) == (n + 1) * (n - 1)


def test_criterion_6_translate_orbit_suite():
    with criterion(6, "n=3/GF(5): translate dims follow the lattice transform; "
                      "generation/saturation pattern; no maps from translates "
                      "to bristles"):
        n, f = 3, F5
        b0 = [bristle(p) for p in canonical_set("B0", n, f)]
        pts = enumerate_bristles(n, f)
        allb = [bristle(p) for p in pts]
        b1 = bristle(unit_point(n, f, 1))
        M = b1
        for t in range(1, 4):
            M = ar_translate(M, "tau")
            assert M.dims == coxeter_apply((1, 1), n, t)
        T = ar_translate(b1, "tau")
        assert is_generated_by(b0, T)
        assert ext1_dim(b1, T) == 1  # so not saturated
        assert not all(ext1_dim(B, T) == 0 for B in allb)
        T2 = ar_translate(T, "tau")
        assert is_generated_by(b0, T2)
        assert all(ext1_dim(B, T2) == 0 for B in allb)
        for p in pts:
            M = bristle(p)
            for t in (1, 2):
                M = ar_translate(M, "tau")
                assert all(hom_dim(M, B) == 0 for B in allb)


def test_criterion_7_homological_oracle_equivalence():
    with criterion(7, "200 seeded random pairs: Ext via the bilinear form equals "
                      "Ext via the projective presentation; hom - ext = form",
                   limit=60.0):
        rng = _derived_rng(1729, "acceptance-oracle")
        f = F5
        for k in range(200):
            n = 2 if k % 2 == 0 else 3
            M = random_module(n, f, rng, 4, 4)
            N = random_module(n, f, rng, 4, 4)
            h = hom_dim(M, N)
            e1 = ext1_dim(M, N)
            e2 = ext1_dim_via_resolution(M, N)
            assert e1 == e2, (M.dims, N.dims)
            assert h - e1 == euler_form(M.dims, N.dims, n)


def test_criterion_8_related_results_suite():
    with criterion(8, "self-extensions n-1 on all bristles over GF(2/3/5); middle "
                      "term: ext n-1 and not bristled; annihilator bound; saturated "
                      "bricks faithful"):
        n = 3
        for f in (F2, F3, F5):
            for p in enumerate_bristles(n, f):
                assert ext1_dim(bristle(p), bristle(p)) == 2
        f = F5
        mu = push_down(build_mu_bristle_rep(n, f))
        b1 = bristle(unit_point(n, f, 1))
        assert ext1_dim(b1, mu) == 2
        assert not is_bristled(mu)
        rng = _derived_rng(1729, "acceptance-annihilated")
        for _ in range(100):
            M = random_module(n, f, rng, 4, 4, zero_map_index=n - 1)
            assert ext1_dim(b1, M) >= M.dim2
        rng = _derived_rng(1729, "acceptance-bricks")
        allb = [bristle(p) for p in enumerate_bristles(n, f)]
        found = 0
        for _ in range(200):
            M = random_module(n, f, rng, 6, 4)
            if M.is_zero() or M.dims in ((1, 0), (0, 1)):
                continue
            if end_dim(M) != 1:
                continue
            if not all(ext1_dim(B, M) == 0 for B in allb):
                continue
            found += 1
            assert is_faithful(M), M.dims
        print(f"  (criterion 8: {found} saturated non-simple bricks found)")


def test_criterion_9_cover_and_layer_suite():
    with criterion(9, "ball reps have no center-bristle maps and a proper bristled "
                      "part (n=3,4); layer inequality and socle homogeneity on the "
                      "bristled fixtures"):
        for n in (3, 4):
            f = F5
            X = build_ball_rep(n, f)
            for i in range(1, n + 1):
                assert cover_hom_dim(cover_bristle_at(n, f, BASE, i), X) == 0
            assert not cover_is_bristled(X)
            assert cover_max_bristled(X).dim(BASE) == 0
        fixtures = []
        n, f = 3, F5
        for t in range(4):
            fixtures.append(preinjective(n, t, f))
        b1 = bristle(unit_point(n, f, 1))
        fixtures.append(ar_translate(b1, "tau"))
        fixtures.append(ar_translate(ar_translate(b1, "tau"), "tau"))
        fixtures.extend(bristle(p) for p in canonical_set("B0", n, f))
        for t in range(3):
            fixtures.append(preinjective(2, t, F2))
        for M in fixtures:
            lay = layers(M)
            assert lay.top_dims[0] + lay.top_dims[1] >= lay.soc_dims[0] + lay.soc_dims[1]
            assert lay.soc_dims[0] == 0 or lay.soc_dims[1] == 0


def test_criterion_10_dimension_vector_fixtures():
    with criterion(10, "the (3,2) fixture pair: one bristled, one not, over "
                       "GF(2) and GF(5)"):
        for f in (F2, F5):
            assert is_bristled(dim32_bristled(f))
            assert not is_bristled(dim32_not_bristled(f))
