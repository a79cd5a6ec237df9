"""Scenario harness: every catalog entry passes on its default config and
reproduces its golden report byte for byte, reports are byte-stable, and the
CLI honors the documented exit codes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from kronbrist import scenarios
from kronbrist.bristles import bristle, canonical_set, enumerate_bristles, is_saturated, unit_point
from kronbrist.cli import main as cli_main
from kronbrist.families import preinjective
from kronbrist.linalg import GF, QQ, InternalCheckFailed, Matrix, Subspace
from kronbrist.modules import (
    KroneckerModule,
    SubmodulePair,
    ar_translate,
    end_dim,
    is_faithful,
    is_generated_by,
    random_module,
    trace_submodule,
)
from kronbrist.scenarios import (
    SCENARIOS,
    ScenarioConfigError,
    _generates,
    _generating_by_size,
    default_config,
    run_scenario,
)

QUICK_OVERRIDES = {
    # keep the orbit scenario off the largest translate in the smoke run
    "main-theorem-b-bristle-orbits": {"t_max": 2},
    "main-theorem-a": {"t_max": 3},
}


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_MODULE = "tests/data/dim32_bristled.kron"
# the subset searches at the configs of the ``subsets`` benchmark, and one
# larger n = 2 search; rendered before the searches were made incremental
SEARCH_GOLDENS = {
    "opt-taub1-n4-q2": ("opt-taub1", {"n": 4, "field": GF(2)}),
    "optimality-I3-n3-q3": ("optimality-I3", {"n": 3, "field": GF(3)}),
    "n2-generation-q7-tmax3": ("n2-generation", {"field": GF(7), "t_max": 3}),
    "n2-generation-q11-tmax3": ("n2-generation", {"field": GF(11), "t_max": 3}),
}
GOLDEN_VARIANTS = ["main-theorem-b-bristle-orbits-module", "annihilated-lemma-rational",
                   "main-theorem-a-n4-q3-tmax4", "main-theorem-a-n3-q2-tmax7"] + sorted(SEARCH_GOLDENS)


def _golden_config(name: str):
    """Default config of a golden entry; the ``-module`` entry adds GOLDEN_MODULE,
    the ``-rational`` entry runs over Q at n = 4, ``main-theorem-a-n4-q3-tmax4``
    checks saturation on preinjectives larger than any default reaches,
    ``main-theorem-a-n3-q2-tmax7`` sweeps the bristles over I_0..I_7, up to
    dimension (987, 377), and the SEARCH_GOLDENS entries run their subset
    searches at larger configs."""
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
    # 3 + 1 = 4-element subsets of the 31 GF(31)-...: use a big field so the
    # count blows past the cap: (7^3-1)/6 = 57 bristles -> C(57,4) = 395010
    cfg = default_config("optimality-I3", field=GF(7))
    with pytest.raises(ScenarioConfigError):
        run_scenario(cfg)


class TestGenerates:
    """Positive and negative controls for ``_generates``, the one-set check
    and the oracle the subset search is tested against: the optimality
    scenarios expect zero generating subsets, which a check that never
    answers "generates" would also report."""

    def test_b0_traces_generate_third_preinjective(self):
        f = GF(2)
        I3 = preinjective(3, 3, f)
        traces = [trace_submodule([bristle(p)], I3) for p in canonical_set("B0", 3, f)]
        assert _generates(I3, traces)
        assert not _generates(I3, traces[:-1])
        assert not _generates(I3, [])

    def test_b1prime_traces_generate_translate(self):
        f = GF(2)
        T = ar_translate(bristle(unit_point(3, f, 1)), "tau")
        traces = [trace_submodule([bristle(p)], T) for p in canonical_set("B1prime", 3, f)]
        assert _generates(T, traces)
        assert not _generates(T, traces[1:])  # the unit-1 bristle is needed

    def test_agrees_with_trace_of_all_generators(self):
        # the dimension shortcut never changes the answer of the full sum
        f = GF(2)
        I2 = preinjective(3, 2, f)
        pts = enumerate_bristles(3, f)
        traces = [trace_submodule([bristle(p)], I2) for p in pts]
        seen = set()
        for size in (2, 3, 4):
            for idxs in combinations(range(len(pts)), size):
                got = _generates(I2, [traces[i] for i in idxs])
                assert got == is_generated_by([bristle(pts[i]) for i in idxs], I2)
                seen.add(got)
        assert seen == {True, False}


def _zero_map_traces(field, dims, spans):
    """A module of the given dimensions whose maps are zero, and one trace
    per (rows at vertex 1, rows at vertex 2) in ``spans``: with zero maps
    any pair of subspaces is a submodule."""
    d1, d2 = dims
    M = KroneckerModule(2, field, d1, d2, (Matrix.zeros(field, d2, d1),) * 2)
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


class TestGeneratingBySize:
    """Fixed edge cases of the pruned subset search, each checked against
    brute force over combinations with ``_generates``; tests/test_properties.py
    checks random trace lists."""

    @pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
    @pytest.mark.parametrize("case", list(SEARCH_CASES))
    def test_matches_brute_force(self, field, case):
        dims, spans, max_size, expected = SEARCH_CASES[case]
        M, traces = _zero_map_traces(field, dims, spans)
        spanning, decided = _generating_by_size(M, traces, max_size)
        assert spanning == expected
        assert spanning == [sum(_generates(M, sub) for sub in combinations(traces, s))
                            for s in range(max_size + 1)]
        assert decided == [comb(len(traces), s) for s in range(max_size + 1)]

    def test_subsets_tested_is_what_the_search_decided(self, monkeypatch):
        """``subsets-tested`` is the search's own tally: a search that skips
        the branch of the first trace fails the check."""
        cfg = default_config("optimality-I3")
        assert run_scenario(cfg).passed
        real, skipped = scenarios._grow, []

        def skipping(search, k, i, U1, U2):
            if k == 1 and not skipped:
                skipped.append(i)
                return
            real(search, k, i, U1, U2)

        monkeypatch.setattr(scenarios, "_grow", skipping)
        checks = {c.name: c for c in run_scenario(cfg).checks}
        assert skipped
        assert not checks["subsets-tested"].passed
        assert checks["subsets-tested"].computed < checks["subsets-tested"].expected


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

    def test_bad_field_exit_2(self, capsys):
        assert cli_main(["main-theorem-a", "--q", "6"]) == 2

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

    def test_missing_module_file_exit_2(self, capsys):
        assert cli_main(["main-theorem-b-bristle-orbits", "--module",
                         "/nonexistent/file.kron"]) == 2

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

    def test_rational_scenario_allowed_where_meaningful(self, capsys):
        # the annihilator bound needs no bristle enumeration, so it runs
        # over the rationals too
        rc = cli_main(["annihilated-lemma", "--rational"])
        assert rc == 0

    def test_negative_attempts_exit_2(self, capsys):
        # a budget below zero is a usage error, not a failed search
        assert cli_main(["indecomposable-generator", "--attempts", "-1"]) == 2
        assert "attempts must be nonnegative" in capsys.readouterr().err

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

    def test_help_lists_scenarios(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
