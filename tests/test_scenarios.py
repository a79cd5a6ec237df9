"""Scenario harness: every catalog entry passes on its default config and
reproduces its golden report byte for byte, also when each preinjective it
asks for comes in new bases; reports are byte-stable, and the CLI honors
the documented exit codes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from kronbrist import bristles, linalg, scenarios
from kronbrist.bristles import (bristle, bristle_points, canonical_set, enumerate_bristles,
                                is_saturated, unit_point)
from kronbrist.cli import main as cli_main
from kronbrist.families import preinjective
from kronbrist.linalg import GF, QQ, InternalCheckFailed, Matrix, Subspace, rank
from kronbrist.modules import (
    KroneckerModule,
    SubmodulePair,
    ar_translate,
    bristle_hom_dims,
    end_dim,
    is_faithful,
    is_generated_by,
    random_module,
)
from kronbrist.scenarios import SCENARIOS, ScenarioConfigError, default_config, run_scenario

from oracles import generates, search_traces, trace_submodule, write_module_file

QUICK_OVERRIDES = {
    # keep the orbit scenario off the largest translate in the smoke run
    "main-theorem-b-bristle-orbits": {"t_max": 2},
    "main-theorem-a": {"t_max": 3},
}


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_MODULE = "tests/data/dim32_bristled.kron"
# the subset searches at the configs of the ``subsets`` benchmark, two
# larger n = 2 searches, the last (98 304 subsets) the largest the cap
# admits, and two more optimality searches (3003 and 27 405 subsets); each
# was rendered before a rewrite of the search or of how the scenario reads
# its bristle images
SEARCH_GOLDENS = {
    "opt-taub1-n4-q2": ("opt-taub1", {"n": 4, "field": GF(2)}),
    "opt-taub1-n3-q5": ("opt-taub1", {"n": 3, "field": GF(5)}),
    "optimality-I3-n3-q3": ("optimality-I3", {"n": 3, "field": GF(3)}),
    "optimality-I3-n4-q2": ("optimality-I3", {"n": 4, "field": GF(2)}),
    "n2-generation-q7-tmax3": ("n2-generation", {"field": GF(7), "t_max": 3}),
    "n2-generation-q11-tmax3": ("n2-generation", {"field": GF(11), "t_max": 3}),
    "n2-generation-q13-tmax5": ("n2-generation", {"field": GF(13), "t_max": 5}),
}
GOLDEN_VARIANTS = ["main-theorem-b-bristle-orbits-module", "annihilated-lemma-rational",
                   "main-theorem-a-n4-q3-tmax4", "main-theorem-a-n3-q2-tmax7",
                   "cover-equalities-n7-q5", "tau-b1-cover-n5", "bristled-layers-n2",
                   "main-theorem-b-bristle-orbits-n3-q2-tmax4"] + sorted(SEARCH_GOLDENS)


def _golden_config(name: str):
    """Default config of a golden entry; the ``-module`` entry adds GOLDEN_MODULE,
    the ``-rational`` entry runs over Q at n = 4, ``main-theorem-a-n4-q3-tmax4``
    checks saturation on preinjectives larger than any default reaches,
    ``main-theorem-a-n3-q2-tmax7`` sweeps the bristles over I_0..I_7, up to
    dimension (987, 377), ``cover-equalities-n7-q5`` is the cover run of the
    ``big-hom`` benchmark, ``tau-b1-cover-n5`` pushes down a larger tree,
    ``bristled-layers-n2`` builds the two-arrow fixtures,
    ``main-theorem-b-bristle-orbits-n3-q2-tmax4`` tests saturation on the
    regular translates tau^t B(1) up to t = 4, and the SEARCH_GOLDENS entries
    run their subset searches at larger configs."""
    if name in SEARCH_GOLDENS:
        scenario, overrides = SEARCH_GOLDENS[name]
        return default_config(scenario, **overrides)
    if name == "main-theorem-b-bristle-orbits-module":
        return default_config("main-theorem-b-bristle-orbits", module_path=GOLDEN_MODULE,
                              module_text=(ROOT / GOLDEN_MODULE).read_text(encoding="utf-8"))
    if name == "annihilated-lemma-rational":
        return default_config("annihilated-lemma", field=QQ, n=4)
    if name == "main-theorem-a-n4-q3-tmax4":
        return default_config("main-theorem-a", n=4, field=GF(3), t_max=4)
    if name == "main-theorem-a-n3-q2-tmax7":
        return default_config("main-theorem-a", n=3, field=GF(2), t_max=7)
    if name == "cover-equalities-n7-q5":
        return default_config("cover-equalities", n=7, field=GF(5))
    if name == "tau-b1-cover-n5":
        return default_config("tau-b1-cover", n=5)
    if name == "bristled-layers-n2":
        return default_config("bristled-layers", n=2)
    if name == "main-theorem-b-bristle-orbits-n3-q2-tmax4":
        return default_config("main-theorem-b-bristle-orbits", n=3, field=GF(2), t_max=4)
    return default_config(name)


@pytest.mark.parametrize("name", sorted(SCENARIOS) + GOLDEN_VARIANTS)
def test_scenario_passes_on_defaults(name):
    """Each default run passes and renders exactly its checked-in golden report.

    The goldens in tests/golden were rendered once by the CLI
    (``kronbrist <scenario> --format json|table``) and are never regenerated
    to make a change pass: a byte difference is a change in meaning.
    """
    report = run_scenario(_golden_config(name))
    failed = [c for c in report.checks if not c.passed]
    assert not failed, [(c.name, c.expected, c.computed) for c in failed]
    assert report.to_json() == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report.to_table() == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_rational_api_reproduces_benchmark_digests():
    """The ``@rational-api`` benchmark item (preinjective dims, generation by
    B0 and both Ext routes over Q) gives its expected values and reproduces
    the SHA-256 digest of every result recorded in perfbench/digests.json."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), "@rational-api"],
                          capture_output=True, text=True, check=True, cwd=ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    assert result["wrong"] == []
    assert result["outputs"] == recorded["digests"]["@rational-api"]


def test_reports_byte_identical_across_runs():
    for name in ("main-theorem-a", "cover-equalities", "saturated-faithful",
                 "indecomposable-generator"):
        cfg = default_config(name, **QUICK_OVERRIDES.get(name, {}))
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg)
        assert r1.to_json() == r2.to_json()
        assert r1.to_table() == r2.to_table()


def test_report_json_shape():
    report = run_scenario(default_config("n2-classification", t_max=2))
    doc = json.loads(report.to_json())
    assert doc["schema"].startswith("kronbrist-report/")
    assert doc["passed"] is True
    assert doc["counts"]["failed"] == 0
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    for c in doc["checks"]:
        assert {"name", "claim", "expected", "computed", "pass"} <= set(c)


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioConfigError):
        default_config("no-such-scenario")


def test_finite_field_required():
    cfg = default_config("main-theorem-a", field=QQ, t_max=1)
    with pytest.raises(ScenarioConfigError):
        run_scenario(cfg)


def test_subset_cap_refuses():
    # the n + 1 = 4-element subsets of the (7^3 - 1)/6 = 57 bristles over
    # GF(7) number C(57, 4) = 395 010, past the cap
    cfg = default_config("optimality-I3", field=GF(7))
    with pytest.raises(ScenarioConfigError):
        run_scenario(cfg)


@pytest.mark.parametrize("argv,count", [
    (["n2-generation", "--q", "14293"], "over 2^14296 subsets"),
    (["optimality-I3", "--n", "3", "--q", "1009"], "over 2^75 subsets"),
    (["opt-taub1", "--n", "3", "--q", "1009"], "over 2^75 subsets"),
    (["opt-taub1", "--n", "3", "--q", "7"], "367290 subsets")])
def test_subset_cap_refuses_before_building_any_point(capsys, argv, count):
    """The three searches count their subsets from (q^n - 1)/(q - 1) and
    refuse with exit 2 within a second, before any point is enumerated; a
    count past 64 bits is named by its power of two, as printing 2^14294
    whole would raise (str() of an int refuses more than 4300 digits)."""
    start = time.perf_counter()
    assert cli_main(argv) == 2
    assert time.perf_counter() - start < 1
    assert f"error: {count} exceed the exhaustive-search cap" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["optimality-I3", "opt-taub1"])
@pytest.mark.parametrize("n,count", [(3000, "over 2^8966988 subsets"),
                                     (100_000, "over 2^9998399983 subsets")])
def test_subset_cap_refuses_any_n_within_a_second(capsys, scenario, n, count):
    """C(2^n - 1, n + 1) has about n^2 bits, so it is not formed: the
    refusal names a power of two it exceeds, within a second at any n."""
    start = time.perf_counter()
    assert cli_main([scenario, "--n", str(n), "--q", "2"]) == 2
    assert time.perf_counter() - start < 1
    assert f"error: {count} exceed the exhaustive-search cap" in capsys.readouterr().err


@pytest.mark.parametrize("points,size", [(2 ** 600, 120), (2 ** 600, 2 ** 600 - 120),
                                         (20_000, 10_000), (2 ** 5000, 14)])
def test_subset_count_named_by_a_power_it_exceeds(points, size):
    """A binomial too costly to form is refused by a power of two that the
    count, formed here, does exceed, and that is past the cap."""
    with pytest.raises(ScenarioConfigError, match=r"over 2\^(\d+) subsets") as refused:
        scenarios._subsets(points, size)
    bits = int(refused.value.args[0].split("^")[1].split()[0])
    assert scenarios.SUBSET_LIMIT < 2 ** bits < comb(points, size)


@pytest.mark.parametrize("argv,count", [
    (["n2-generation", "--q", "2147483647"], "over 2^2147483650 subsets"),
    (["optimality-I3", "--n", "3000000", "--q", "2147483647"], "over 2^89999970 subsets")])
def test_subset_prechecks_form_no_power_of_q(capsys, argv, count):
    """2^(q+1) (t+1) is sized from its bit length, and (q^n - 1)/(q - 1)
    from the power of two below q^(n-1) once that has more than 2^20 bits:
    neither is formed, so the refusal takes neither time nor memory in q or
    n (2^(2^31) alone would take 256 MiB)."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert cli_main(argv) == 2
        assert time.perf_counter() - start < 1
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert f"error: {count} exceed the exhaustive-search cap" in capsys.readouterr().err


class TestGenerates:
    """Positive and negative controls for ``generates``, the oracle the
    subset search is tested against: the optimality scenarios expect zero
    generating subsets, which a check that never answers "generates" would
    also report."""

    def test_b0_traces_generate_third_preinjective(self):
        f = GF(2)
        I3 = preinjective(3, 3, f)
        traces = [trace_submodule([bristle(p)], I3) for p in canonical_set("B0", 3, f)]
        assert generates(I3, traces)
        assert not generates(I3, traces[:-1])
        assert not generates(I3, [])

    def test_b1prime_traces_generate_translate(self):
        f = GF(2)
        T = ar_translate(bristle(unit_point(3, f, 1)))
        traces = [trace_submodule([bristle(p)], T) for p in canonical_set("B1prime", 3, f)]
        assert generates(T, traces)
        assert not generates(T, traces[1:])  # the unit-1 bristle is needed

    def test_agrees_with_trace_of_all_generators(self):
        # the dimension shortcut never changes the answer of the full sum
        f = GF(2)
        I2 = preinjective(3, 2, f)
        pts = enumerate_bristles(3, f)
        traces = [trace_submodule([bristle(p)], I2) for p in pts]
        seen = set()
        for size in (2, 3, 4):
            for idxs in combinations(range(len(pts)), size):
                got = generates(I2, [traces[i] for i in idxs])
                assert got == is_generated_by([bristle(pts[i]) for i in idxs], I2)
                seen.add(got)
        assert seen == {True, False}


def _zero_map_traces(field, dims, spans):
    """A module of the given dimensions whose maps are zero, and one trace
    per (rows at vertex 1, rows at vertex 2) in ``spans``: with zero maps
    any pair of subspaces is a submodule."""
    d1, d2 = dims
    M = KroneckerModule((Matrix.zeros(field, d2, d1),) * 2)
    return M, [SubmodulePair(M, Subspace.from_spanning(field, d1, r1),
                             Subspace.from_spanning(field, d2, r2)) for r1, r2 in spans]


E1, E2, E3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
# name: (dims, spans, max_size, spanning subsets by size)
SEARCH_CASES = {
    "no-traces": ((3, 1), [], 0, [0]),
    "no-traces-zero-module": ((0, 0), [], 0, [1]),
    "zero-module": ((0, 0), [([], [])] * 3, 3, [1, 3, 3, 1]),
    "trace-is-all-of-M": ((3, 1), [([E1], []), ([E1, E2, E3], [[1]]), ([E2], [[1]]), ([E3], [])],
                          4, [0, 1, 3, 4, 1]),
    "duplicate-traces": ((3, 1), [([E1], [[1]]), ([E2, E3], []), ([E1], [[1]]), ([E2, E3], [])],
                         4, [0, 0, 4, 4, 1]),
    "exact-dimension-sum": ((3, 0), [([E1], []), ([E2], []), ([E3], []), ([E1, E2], [])],
                            3, [0, 0, 1, 3]),
    "max-size-0": ((3, 1), [([E1, E2, E3], [[1]]), ([E1], [])], 0, [0]),
    "max-size-below-N": ((3, 1), [([E1], [[1]]), ([E2], []), ([E3], []), ([E1, E2, E3], []),
                                  ([[1, 1, 1]], [[1]])], 2, [0, 0, 2]),
}
# the cases whose search reduces no rows run over Q as well; the others need
# the stacked sweep, which runs over GF(p) only
SUMLESS_CASES = ("no-traces", "no-traces-zero-module", "zero-module", "max-size-0")


class TestGeneratingBySize:
    """Fixed edge cases of the pruned subset search, each checked against
    brute force over combinations with ``generates``; tests/test_properties.py
    checks random trace lists."""

    @pytest.mark.parametrize("case,field", [(case, field) for case in SEARCH_CASES
                                            for field in (GF(2), GF(3), QQ)
                                            if field.is_finite or case in SUMLESS_CASES], ids=str)
    def test_matches_brute_force(self, field, case):
        dims, spans, max_size, expected = SEARCH_CASES[case]
        M, traces = _zero_map_traces(field, dims, spans)
        spanning, decided = search_traces(M, traces, max_size)
        assert spanning == expected
        assert spanning == [sum(generates(M, sub) for sub in combinations(traces, s))
                            for s in range(max_size + 1)]
        assert decided == [comb(len(traces), s) for s in range(max_size + 1)]

    def test_subsets_tested_is_what_the_search_decided(self, monkeypatch):
        """``subsets-tested`` is the search's own tally: a search that skips
        the branch of the first trace fails the check."""
        cfg = default_config("optimality-I3")
        assert run_scenario(cfg).passed
        real, skipped = scenarios.spanning_by_size, []

        def skipping(stacks, counts, max_size):
            skipped.append(counts[0])  # drop the first trace's rows and its branch
            rest = [S.select_rows(range(counts[0], S.rows)) for S in stacks]
            return real(rest, counts[1:], max_size)

        monkeypatch.setattr(scenarios, "spanning_by_size", skipping)
        checks = {c.name: c for c in run_scenario(cfg).checks}
        assert skipped
        assert not checks["subsets-tested"].passed
        assert checks["subsets-tested"].computed < checks["subsets-tested"].expected

    def test_n2_generation_stacks_each_level(self, monkeypatch):
        """``n2-generation --q 7 --tmax 3`` sweeps each level of a search
        once per vertex: at most one ``_rref_stack`` per level and vertex,
        plus one per vertex for the traces, and the generator ranks one per
        t.  The searches build no ``Subspace``, and the scenario forms no
        sum with ``subspace_sum``.  With ``_STACK_CELLS`` capped small the
        sweeps run in more batches and give the same report."""
        cfg = default_config("n2-generation", field=GF(7), t_max=3)
        whole = run_scenario(cfg).to_json()
        sweeps, searches, inside = [0], [], [False]
        real_sweep, real_search = linalg._rref_stack, scenarios.spanning_by_size
        real_post_init = Subspace.__post_init__

        def counting(*args):
            sweeps[0] += 1
            return real_sweep(*args)

        def searching(stacks, counts, max_size):
            before, inside[0] = sweeps[0], True
            try:
                result = real_search(stacks, counts, max_size)
            finally:
                inside[0] = False
            searches.append((sweeps[0] - before, max_size))
            return result

        def post_init(self):
            assert not inside[0], "a Subspace built inside the search"
            real_post_init(self)

        def refused(*args):
            raise AssertionError("subspace_sum called")

        monkeypatch.setattr(linalg, "_rref_stack", counting)
        monkeypatch.setattr(scenarios, "spanning_by_size", searching)
        monkeypatch.setattr(Subspace, "__post_init__", post_init)
        monkeypatch.setattr(scenarios, "subspace_sum", refused)
        assert run_scenario(cfg).to_json() == whole
        assert [levels for _, levels in searches] == [8] * 4
        assert all(used <= 2 * levels + 2 for used, levels in searches)
        assert sweeps[0] == sum(used for used, _ in searches) + 4
        one_sweep = sweeps[0]
        monkeypatch.setattr(linalg, "_STACK_CELLS", 64)
        assert run_scenario(cfg).to_json() == whole
        assert sweeps[0] - one_sweep > one_sweep


@pytest.mark.parametrize("name,images", [("opt-taub1-n4-q2", 1), ("optimality-I3-n3-q3", 1),
                                         ("n2-generation-q7-tmax3", 4)])
def test_searches_read_every_check_from_one_bristle_images(monkeypatch, name, images):
    """The items of the ``subsets`` benchmark render their golden reports
    with ``is_generated_by``, ``hom_dim`` and the one-vector
    ``bristle_type_of`` made to raise: each check reads the one
    ``bristle_images`` over all points that the run makes (one per t in
    ``n2-generation``, t = 0..3)."""
    cfg = _golden_config(name)
    calls, real = [], scenarios.bristle_images

    def counting(points, M):
        calls.append(points.rows)
        return real(points, M)

    def refused(*args):
        raise AssertionError("a check built its own Hom system or image product")

    monkeypatch.setattr(scenarios, "bristle_images", counting)
    monkeypatch.setattr(scenarios, "is_generated_by", refused)
    monkeypatch.setattr(scenarios, "hom_dim", refused, raising=False)
    monkeypatch.setattr(scenarios, "bristle_type_of", refused, raising=False)
    monkeypatch.setattr(bristles, "bristle_type_of", refused)
    assert run_scenario(cfg).to_json() == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert calls == [len(enumerate_bristles(cfg.n, cfg.field))] * images


@pytest.mark.parametrize("seed,n,q", [(0, 3, 5), (1, 3, 5), (23, 3, 5), (1729, 3, 5),
                                      (1, 2, 3), (5, 2, 2)])
def test_saturated_faithful_counts_do_not_depend_on_test_order(seed, n, q):
    """``saturated-faithful`` refuses by the bilinear form before the brick
    test and the saturation test; all are pure predicates, so it counts the
    same modules as the brick test first would."""
    cfg = default_config("saturated-faithful", n=n, field=GF(q), seed=seed)
    check, = run_scenario(cfg).checks
    rng = scenarios._derived_rng(cfg.seed, f"saturated-faithful:{n}:{cfg.field}")
    found = bad = 0
    for _ in range(check.details["samples"]):
        M = random_module(n, cfg.field, rng, 6, 4)
        if M.is_zero() or M.dims in ((1, 0), (0, 1)):
            continue
        if end_dim(M) == 1 and is_saturated(M):
            found += 1
            bad += not is_faithful(M)
    assert (check.details["saturated_bricks_found"], check.computed) == (found, bad)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_opt_taub1_homs_match_the_sweep_over_all_points(monkeypatch, n, q):
    """``hom-b1-into-taub1`` and ``hom-others-into-taub1``, both read from
    the counts of the scenario's one ``bristle_images`` over all points,
    equal the dimensions ``bristle_hom_dims`` gives over all points.  The
    search is stubbed and the cap lifted, since n = 4 over GF(3) has
    575 757 subsets and only the Hom checks are compared."""
    f = GF(q)
    monkeypatch.setattr(scenarios, "_subset_cap", lambda count: count)
    monkeypatch.setattr(scenarios, "spanning_by_size",
                        lambda stacks, counts, max_size: ([0] * (max_size + 1),) * 2)
    checks = {c.name: c for c in run_scenario(default_config("opt-taub1", n=n, field=f)).checks}
    T = ar_translate(bristle(unit_point(n, f, 1)))
    homs = dict(bristle_hom_dims(bristle_points(n, f), T))
    hom_self = homs.pop(enumerate_bristles(n, f).index(unit_point(n, f, 1)))
    assert checks["hom-b1-into-taub1"].computed == hom_self == n - 1
    assert checks["hom-others-into-taub1"].computed == sorted(set(homs.values())) == [n - 2]


def _random_invertible(field, d, rng):
    """A d x d matrix with entries drawn from rng, drawn again until invertible."""
    while True:
        g = Matrix.from_rows(field, [[rng.randrange(field.order) for _ in range(d)]
                                     for _ in range(d)], cols=d)
        if rank(g) == d:
            return g


@pytest.mark.parametrize("name", ["main-theorem-a", "optimality-I3", "n2-classification",
                                  "bristled-layers", "cover-equalities",
                                  "indecomposable-generator", "n2-generation"])
def test_reports_do_not_depend_on_the_basis_of_each_preinjective(monkeypatch, name):
    """Every I_t a scenario asks for comes in new bases at both vertices,
    alpha -> g2 alpha h1 with seeded random invertible g2 and h1, drawn
    anew at each call: the report is the golden one byte for byte, so no
    scenario reads an entry of I_t's canonical basis."""
    rng = random.Random(f"rebased:{name}")
    pairs = []

    def rebased_preinjective(n, t, field):
        M = preinjective(n, t, field)
        g2, h1 = _random_invertible(field, M.dim2, rng), _random_invertible(field, M.dim1, rng)
        rebased = KroneckerModule(tuple(g2 @ a @ h1 for a in M.alphas))
        pairs.append((M, rebased))
        return rebased

    monkeypatch.setattr(scenarios, "preinjective", rebased_preinjective)
    assert run_scenario(default_config(name)).to_json() == \
        (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert any(M != rebased for M, rebased in pairs)


class TestCli:
    def test_python_m_kronbrist_renders_the_cli_bytes(self, capsys):
        """``python -m kronbrist`` is the CLI: same report bytes, same exit."""
        for fmt in ("json", "table"):
            assert cli_main(["tau-b1-cover", "--format", fmt]) == 0
            expected = capsys.readouterr().out
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-m", "kronbrist", "tau-b1-cover",
                                   "--format", fmt], capture_output=True, text=True, env=env)
            assert done.returncode == 0, done.stderr
            assert done.stdout == expected
            assert done.stderr.startswith("elapsed: ")

    def test_pass_run_table(self, capsys, tmp_path):
        rc = cli_main(["n2-classification", "--q", "2", "--tmax", "2"])
        out = capsys.readouterr()
        assert rc == 0
        assert "PASS" in out.out
        assert "elapsed" in out.err

    def test_json_output_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc = cli_main(["n2-classification", "--q", "2", "--tmax", "2",
                       "--format", "json", "--out", str(target)])
        assert rc == 0
        doc = json.loads(target.read_text())
        assert doc["scenario"] == "n2-classification"
        # a second run writes the identical bytes
        target2 = tmp_path / "report2.json"
        cli_main(["n2-classification", "--q", "2", "--tmax", "2",
                  "--format", "json", "--out", str(target2)])
        assert target.read_text() == target2.read_text()

    def test_unknown_scenario_exit_2(self, capsys):
        assert cli_main(["definitely-not-a-scenario"]) == 2

    def test_bad_field_exit_2(self, capsys, tmp_path):
        module = tmp_path / "gf4.kron"
        module.write_text("kron n=3 field=gf(4) dims=0,0\nalpha 1\nalpha 2\nalpha 3\n")
        for argv in (["main-theorem-a", "--q", "6"], ["main-theorem-a", "--q", "4"],
                     ["main-theorem-b-bristle-orbits", "--module", str(module)]):
            assert cli_main(argv) == 2
            assert "characteristic must be a prime" in capsys.readouterr().err

    def test_rational_for_enumeration_exit_2(self, capsys):
        assert cli_main(["main-theorem-a", "--rational", "--tmax", "1"]) == 2

    def test_conflicting_field_flags_exit_2(self, capsys):
        assert cli_main(["main-theorem-a", "--q", "5", "--rational"]) == 2

    def test_failing_check_exit_1(self, capsys, tmp_path):
        # a bristle's first translate is generated but not saturated, so a
        # search bounded at t_max=1 honestly fails to find a good translate
        module = tmp_path / "b1.kron"
        module.write_text(
            "kron n=3 field=gf(2) dims=1,1\nalpha 1\n1\nalpha 2\n0\nalpha 3\n0\n")
        rc = cli_main(["main-theorem-b-bristle-orbits", "--q", "2", "--tmax", "1",
                       "--module", str(module)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_no_translate_found_renders_minimal_t_null(self, capsys, tmp_path):
        """B(1:0:0) over GF(5) is unsaturated at t = 0 and 1, so the search
        finds no translate and its ``minimal_t`` renders as JSON null."""
        module = tmp_path / "b1.kron"
        module.write_text(write_module_file(bristle(unit_point(3, GF(5), 1))))
        assert cli_main(["main-theorem-b-bristle-orbits", "--module", str(module),
                         "--tmax", "1", "--format", "json"]) == 1
        check, = [c for c in json.loads(capsys.readouterr().out)["checks"]
                  if c["name"] == "user-module-orbit-bound"]
        assert check["details"] == {"minimal_t": None, "t_max": 1}

    def test_hom_below_the_form_exit_3(self, monkeypatch, capsys, tmp_path):
        """A bristle's Hom dimension below <(1, 1), dim I_t> is a negative
        Ext: main-theorem-a stops with exit 3 and writes no report."""
        real = bristles.bristle_hom_dims

        def one_below(points, M):
            dims = list(real(points, M))
            return dims[:-1] + [(dims[-1][0], M.dim1 - (M.n - 1) * M.dim2 - 1)]

        monkeypatch.setattr(bristles, "bristle_hom_dims", one_below)
        out = tmp_path / "report.txt"
        assert cli_main(["main-theorem-a", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "InternalCheckFailed" in captured.err and captured.out == ""
        assert not out.exists()

    def test_missing_module_file_exit_2(self, capsys):
        assert cli_main(["main-theorem-b-bristle-orbits", "--module",
                         "/nonexistent/file.kron"]) == 2

    def test_unreadable_module_and_unwritable_out_exit_2(self, capsys, tmp_path):
        """A module file that is not UTF-8, and an --out path in no
        directory, are usage errors."""
        module = tmp_path / "latin1.kron"
        module.write_bytes(b"kron n=1 field=gf(2) dims=1,1\nalpha 1\n\xff\n")
        assert cli_main(["main-theorem-b-bristle-orbits", "--module", str(module)]) == 2
        assert "can't decode byte 0xff" in capsys.readouterr().err
        out = tmp_path / "missing" / "report.txt"
        assert cli_main(["n2-classification", "--q", "2", "--tmax", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("kronbrist: error: [Errno 2]")

    @pytest.mark.parametrize("exc", [OSError("device went away"),
                                     UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")])
    def test_file_error_inside_a_scenario_exit_3(self, monkeypatch, capsys, tmp_path, exc):
        """Only reading --module and writing --out make an OSError or a
        UnicodeDecodeError a usage error: raised inside a scenario, it is a bug."""
        def broken(M):
            raise exc
        monkeypatch.setattr(scenarios, "is_saturated", broken)
        out = tmp_path / "report.txt"
        assert cli_main(["main-theorem-a", "--tmax", "0", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "internal error" in err and "Traceback" in err and not out.exists()

    def test_module_field_conflict_exit_2(self, capsys, tmp_path):
        module = tmp_path / "b1.kron"
        module.write_text(
            "kron n=3 field=gf(2) dims=1,1\nalpha 1\n1\nalpha 2\n0\nalpha 3\n0\n")
        rc = cli_main(["main-theorem-b-bristle-orbits", "--q", "5",
                       "--module", str(module)])
        assert rc == 2

    def test_module_sets_field_and_echo(self, tmp_path):
        module = tmp_path / "b1.kron"
        module.write_text(
            "kron n=3 field=gf(2) dims=1,1\nalpha 1\n1\nalpha 2\n0\nalpha 3\n0\n")
        cfg = default_config("main-theorem-b-bristle-orbits", t_max=2,
                             module_path=str(module),
                             module_text=module.read_text())
        report = run_scenario(cfg)
        assert report.config["field"] == "gf(2)"
        assert report.passed  # minimal t is 2 for a bristle

    def test_module_file_parsed_once(self, monkeypatch):
        """The config carries the module that fixed n and the field, so a run
        with a module file parses it once."""
        parsed, real = [], scenarios.parse_module_file
        monkeypatch.setattr(scenarios, "parse_module_file",
                            lambda text: parsed.append(text) or real(text))
        cfg = _golden_config("main-theorem-b-bristle-orbits-module")
        run_scenario(dataclasses.replace(cfg, t_max=1))
        assert len(parsed) == 1 and cfg.module.dims == (3, 2)

    def test_hand_built_config_with_disagreeing_module_refused(self):
        """A config built by hand whose module lives over another field is
        refused by the scenario itself."""
        cfg = _golden_config("main-theorem-b-bristle-orbits-module")
        with pytest.raises(ScenarioConfigError):
            run_scenario(dataclasses.replace(cfg, field=GF(3)))

    def test_rational_scenario_allowed_where_meaningful(self, capsys):
        # the annihilator bound needs no bristle enumeration, so it runs
        # over the rationals too
        rc = cli_main(["annihilated-lemma", "--rational"])
        assert rc == 0

    def test_negative_attempts_exit_2(self, capsys):
        # a budget below zero is a usage error, not a failed search
        assert cli_main(["indecomposable-generator", "--attempts", "-1"]) == 2
        assert "attempts must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["main-theorem-a", "--n", "2"], "scenario main-theorem-a needs n >= 3"),
        (["n2-generation", "--n", "3"], "scenario n2-generation is specific to n = 2"),
        (["annihilated-lemma", "--n", "1"], "the annihilator bound needs n >= 2"),
        (["main-theorem-b-bristle-orbits", "--n", "4", "--module", GOLDEN_MODULE],
         "--n 4 disagrees with the module file (n=3)"),
        (["main-theorem-a", "--tmax", "-1"], "t_max must be nonnegative"),
        (["main-theorem-a", "--q", "0"], "characteristic must be a prime in [2, 2^31), got 0"),
        (["main-theorem-a", "--q", "25326001"],
         "characteristic must be a prime in [2, 2^31), got 25326001")])
    def test_bad_config_exit_2(self, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(ROOT)
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"kronbrist: error: {message}\n"

    @pytest.mark.parametrize("text,message", [
        ("kron n=0 field=gf(2) dims=1,1\n", "line 1, column 1: need n >= 1"),
        ("kron n=1 field=gf(0) dims=0,0\nalpha 1\n",
         "line 1, column 1: characteristic must be a prime in [2, 2^31), got 0"),
        ("kron n=1 field=gf(2) dims=1,1\nalpha 1\nx\n",
         "line 3, column 1: expected an integer entry, got 'x'"),
        ("kron n=1 field=q dims=2,1\nalpha 1\n1 1/x\n",
         "line 3, column 3: expected num or num/den, got '1/x'"),
        ("kron n=1 field=q dims=1,1\nalpha 1\n1/0\n", "line 3, column 1: zero denominator")])
    def test_bad_module_file_exit_2(self, capsys, tmp_path, text, message):
        module = tmp_path / "bad.kron"
        module.write_text(text)
        assert cli_main(["main-theorem-b-bristle-orbits", "--module", str(module)]) == 2
        assert capsys.readouterr().err == f"kronbrist: error: {message}\n"

    def test_non_ascii_digit_in_module_file_exit_2(self, capsys, tmp_path):
        """A superscript entry passes ``str.isdigit`` but not ``int``: a usage
        error at its line and column, not an internal one."""
        module = tmp_path / "superscript.kron"
        module.write_bytes("kron n=1 field=gf(2) dims=1,1\nalpha 1\n\u00b2\n".encode("utf-8"))
        assert cli_main(["main-theorem-b-bristle-orbits", "--module", str(module)]) == 2
        assert capsys.readouterr().err == \
            "kronbrist: error: line 3, column 1: expected an integer entry, got '\u00b2'\n"

    def test_zero_arrows_exit_2(self, capsys):
        for name in ("bristled-layers", "saturated-faithful"):
            assert cli_main([name, "--n", "0"]) == 2
            assert "n must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [InternalCheckFailed("guard tripped"),
                                     ValueError("matrices do not intertwine")])
    def test_internal_error_exit_3(self, monkeypatch, capsys, exc):
        # a bug is neither a failed claim (1) nor a usage error (2)
        def broken(cfg):
            raise exc
        spec = SCENARIOS["n2-classification"]
        monkeypatch.setitem(SCENARIOS, "n2-classification", dataclasses.replace(spec, func=broken))
        assert cli_main(["n2-classification"]) == 3
        err = capsys.readouterr().err
        assert "internal error" in err and "Traceback" in err

    def test_internal_value_error_under_field_input_exit_3(self, monkeypatch, capsys, tmp_path):
        """A ValueError from inside the field check is a bug, under --q and
        under --module alike: only a bad characteristic is a usage error."""
        def broken(p):
            raise ValueError("primality test broke")
        monkeypatch.setattr(linalg, "is_prime", broken)
        out = tmp_path / "report.txt"
        for argv in (["main-theorem-a", "--q", "5"],
                     ["main-theorem-b-bristle-orbits", "--module", str(ROOT / GOLDEN_MODULE)]):
            assert cli_main(argv + ["--out", str(out)]) == 3
            captured = capsys.readouterr()
            assert "internal error" in captured.err and captured.out == ""
            assert not out.exists()

    def test_help_lists_scenarios(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
