"""Command-line behavior: outputs, exit codes, provenance, reproducibility."""

from __future__ import annotations

import hashlib
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from replicator_ctl import (ControlPolicy, IntegrationConfig, Scenario,
                            aggregate_output, interior_grid, phase_portrait,
                            scenario_digest)
from replicator_ctl import cli, game, integrate
from replicator_ctl.cli import main
from replicator_ctl.stability import unique_target_equilibrium
from conftest import (RECIPE_REFUSED, THREEPOP_PAYOFFS, THREEPOP_SHARES,
                      imitation_gaps, random_scenario, recipe_game,
                      tied_everywhere_game, tied_once_game, z_state)

REPO = Path(__file__).resolve().parent.parent
# the benchmark's workloads, imported from perfbench/ as its own tests do
sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402

SCENARIO = str(REPO / "examples" / "threepop.json")
POLICY_BOUNDARY = str(REPO / "examples" / "policy_boundary.json")
POLICY_INTERIOR = str(REPO / "examples" / "policy_interior.json")
# canonical digest of the three-population game, as perfbench also asserts it
THREEPOP_DIGEST = (
    "e5bac24b13bb61772cfae1be453afb172deb219ae347c9faaba1ad1bd36ff011"
)


def read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestBundledExamples:
    """The committed examples/ files hold the game the other tests freeze."""

    def test_scenario_matches_fixture(self):
        scenario = Scenario.from_file(SCENARIO)
        np.testing.assert_array_equal(scenario.payoffs, THREEPOP_PAYOFFS)
        np.testing.assert_array_equal(scenario.shares, THREEPOP_SHARES)
        assert scenario_digest(scenario) == THREEPOP_DIGEST

    @pytest.mark.parametrize("path, fixture", [
        (POLICY_BOUNDARY, "policy_boundary"),
        (POLICY_INTERIOR, "policy_interior"),
    ])
    def test_policy_matches_fixture(self, path, fixture, request):
        expected = request.getfixturevalue(fixture)
        raw = read_json(Path(path))
        assert set(raw) == {"d", "y_star"}
        assert raw["d"] == expected.d
        np.testing.assert_array_equal(raw["y_star"], expected.y_star)


class TestSimulate:
    def test_boundary_target_reaches_unanimity(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY,
                     "--x0", "0.5,0.5,0.5", "--out", str(out)])
        assert code == 0
        summary = read_json(out / "summary.json")
        limit = np.array(summary["limit_state"])
        np.testing.assert_allclose(limit[:, 0], [1, 1, 1], atol=1e-3)
        assert summary["converged"]
        assert summary["final_V"] < 1e-6
        header = (out / "trajectory.csv").read_text().splitlines()[:3]
        assert header[0].startswith("# artifact: replicator-ctl")
        assert header[1].startswith("# seed:")
        assert header[2].startswith("# scenario_sha256:")

    def test_vertex_target_on_a_large_game_gets_an_observer(self, tmp_path):
        # its target equilibrium is found at once, so the run has V columns
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            random_scenario(np.random.default_rng(40), m=10, n=10).to_dict()))
        out = tmp_path / "run"
        code = main(["simulate", "--scenario", str(scenario),
                     "--y-star", ",".join(["1"] + ["0"] * 9), "--d", "1.5",
                     "--x0", ";".join([",".join(["0.1"] * 10)] * 10),
                     "--dt", "0.05", "--t-max", "1", "--out", str(out)])
        assert code == 0
        table = (out / "trajectory.csv").read_text().splitlines()
        assert table[3].endswith(",V,Vdot,F1,F2")
        assert len(table) == 4 + 21
        assert np.isfinite(read_json(out / "summary.json")["final_V"])

    @pytest.mark.parametrize("command", ["simulate", "portrait"])
    def test_dropped_certificate_is_said(self, tmp_path, capsys, command):
        # populations 2 and 3 flat: a segment of target equilibria, so the
        # run has no certificate and writes no V columns
        flat = [[1.0, 1.0], [1.0, 1.0]]
        scen = Scenario(payoffs=np.array([THREEPOP_PAYOFFS[0], flat, flat]),
                        shares=THREEPOP_SHARES)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scen.to_dict()))
        out = tmp_path / "run"
        assert main([command, "--scenario", str(scenario),
                     "--y-star", "0.55,0.45", "--d", "1",
                     "--x0", "0.5,0.5,0.5", "--t-max", "5",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "certificate dropped (multiple_target_equilibria): no V columns "
            "are written\n")
        if command == "simulate":
            table = out / "trajectory.csv"
            assert "final_V" not in read_json(out / "summary.json")
        else:
            table = out / "trajectories" / "traj_000.csv"
        assert table.read_text().splitlines()[3].endswith(",y_1,y_2")

    @pytest.mark.parametrize("field", ["renorm_tol", "convergence_tol",
                                       "interior_floor", "max_halvings"])
    def test_removed_integration_field_is_refused(self, tmp_path, capsys,
                                                  field):
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
                     "--t-max", "1", "--out", str(first)]) == 0
        manifest = read_json(first / "manifest.json")
        manifest["integration"][field] = 1e-6
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["simulate", "--manifest", str(path),
                     "--out", str(tmp_path / "second")]) == 1
        assert capsys.readouterr().err == (
            f"input error: integration: unknown key {field!r}\n")
        assert not (tmp_path / "second").exists()

    def test_malformed_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"populations": [ {"share": 0.2, }visible')
        code = main(["simulate", "--scenario", str(bad),
                     "--x0", "0.5,0.5,0.5", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err

    def test_schema_violation_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"populations": [{"share": 0.5}]}))
        code = main(["simulate", "--scenario", str(bad),
                     "--x0", "0.5,0.5", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "payoff" in capsys.readouterr().err

    @staticmethod
    def _simulate_json(tmp_path, policy, integration, population=None):
        """Exit code of simulate with a policy file and a manifest, on the
        bundled game with its first population replaced by ``population``."""
        scenario = read_json(Path(SCENARIO))
        if population is not None:
            scenario["populations"][0] = population
        paths = {name: tmp_path / f"{name}.json"
                 for name in ("scenario", "policy", "manifest")}
        paths["scenario"].write_text(json.dumps(scenario))
        paths["policy"].write_text(json.dumps(policy))
        paths["manifest"].write_text(json.dumps({
            "command": "simulate", "scenario": str(paths["scenario"]),
            "integration": integration, "x0": ["0.5,0.5,0.5"]}))
        return main(["simulate", "--manifest", str(paths["manifest"]),
                     "--policy", str(paths["policy"]),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("policy, integration, population, message", [
        ({"d": "1.5", "y_star": ["1", "0"]}, {}, None,
         "policy: d must be a real number, got '1.5'"),
        ({"d": True, "y_star": [1, 0]}, {}, None,
         "policy: d must be a real number, got True"),
        ({"d": 1.5, "y_star": ["1", "0"]}, {}, None,
         "policy: y_star entry must be a real number, got '1'"),
        ({"y_star": [1, 0]}, {"dt": True, "t_max": 3}, None,
         "integration config: dt must be a real number, got True"),
        ({"y_star": [1, 0]}, {"t_max": "3"}, None,
         "integration config: t_max must be a real number, got '3'"),
        ({"y_star": [1, 0]}, {}, {"share": "0.2", "payoff": [[2, 1], [3, 4]]},
         "populations[0].share must be a real number, got '0.2'"),
        ({"y_star": [1, 0]}, {}, {"share": 0.2, "payoff": [[2, 1], [True, 4]]},
         "populations[0].payoff entry must be a real number, got True"),
    ])
    def test_string_or_bool_number_exits_1(self, tmp_path, capsys, policy,
                                           integration, population, message):
        assert self._simulate_json(tmp_path, policy, integration,
                                   population) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_json_integers_are_numbers(self, tmp_path):
        assert self._simulate_json(tmp_path, {"d": 1, "y_star": [1, 0]},
                                   {"dt": 1, "t_max": 3},
                                   {"share": 0.2,
                                    "payoff": [[2, 1], [3, 4]]}) == 0

    def test_zero_gain_equals_no_policy(self, tmp_path):
        out_zero = tmp_path / "zero"
        out_none = tmp_path / "none"
        assert main(["simulate", "--scenario", SCENARIO,
                     "--d", "0", "--y-star", "1,0",
                     "--x0", "0.3,0.4,0.5", "--out", str(out_zero),
                     "--t-max", "50"]) == 0
        assert main(["simulate", "--scenario", SCENARIO,
                     "--x0", "0.3,0.4,0.5", "--out", str(out_none),
                     "--t-max", "50"]) == 0
        assert ((out_zero / "trajectory.csv").read_bytes()
                == (out_none / "trajectory.csv").read_bytes())

    def test_target_without_gain_is_control_off(self, tmp_path):
        outputs = []
        for name, gain in (("none", []), ("zero", ["--d", "0"])):
            out = tmp_path / name
            assert main(["simulate", "--scenario", SCENARIO,
                         "--y-star", "1,0", *gain, "--x0", "0.3,0.4,0.5",
                         "--t-max", "20", "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes()
                            for f in ("trajectory.csv", "summary.json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag, value", [
        ("--t-max", "inf"), ("--t-max", "nan"), ("--dt", "nan"),
        ("--dt", "inf")])
    def test_non_finite_step_or_horizon_exits_1(self, tmp_path, capsys,
                                                flag, value):
        for command in ("portrait", "simulate"):
            out = tmp_path / command
            assert main([command, "--scenario", SCENARIO,
                         "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
                         flag, value, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("input error: integration config: ")
            assert "finite" in err
            assert not out.exists()

    def test_non_finite_target_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", SCENARIO, "--y-star", "nan,1",
                     "--d", "1", "--x0", "0.5,0.5,0.5",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("input error: policy: target y_star: non-finite share "
                       "in [nan, 1.0]\n")
        assert not out.exists()

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.json")
        code = main(["simulate", "--scenario", missing,
                     "--x0", "0.5,0.5,0.5", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert missing in err

    def test_usage_error_exits_1(self, capsys):
        assert main(["simulate", "--bogus-flag"]) == 1
        assert main(["simulate", "--x0", "0.5,0.5,0.5"]) == 1


class TestPortrait:
    def test_five_reference_starts(self, tmp_path):
        out = tmp_path / "portrait"
        code = main(["portrait", "--scenario", SCENARIO,
                     "--x0", "0.01,0.01,0.01", "--x0", "0.01,0.99,0.01",
                     "--x0", "0.99,0.01,0.01", "--x0", "0.99,0.99,0.01",
                     "--x0", "0.5,0.5,0.01",
                     "--out", str(out), "--record-stride", "20"])
        assert code == 0
        index = read_json(out / "index.json")
        entries = index["trajectories"]
        assert len(entries) == 5
        attractors = {(0.0, 0.0, 1.0), (0.0, 1.0, 1.0)}
        reached = set()
        for entry in entries:
            assert (out / entry["file"]).exists()
            endpoint = tuple(round(row[0], 3) for row in entry["endpoint"])
            assert endpoint in attractors
            reached.add(endpoint)
        assert reached == attractors

    def test_duplicate_starts_duplicate_outputs(self, tmp_path):
        out = tmp_path / "dup"
        code = main(["portrait", "--scenario", SCENARIO,
                     "--x0", "0.2,0.4,0.6", "--x0", "0.2,0.4,0.6",
                     "--out", str(out), "--record-stride", "25",
                     "--t-max", "50"])
        assert code == 0
        paths = sorted((out / "trajectories").iterdir())
        assert len(paths) == 2
        first = paths[0].read_bytes()
        assert first == paths[1].read_bytes()


    def test_memory_follows_the_running_starts(self, tmp_path, monkeypatch):
        # uncontrolled starts on a 4-point grid leave from step 330 to 1602;
        # each is written as it leaves, and the rows of the starts that left
        # are dropped, so the traced peak stays below the bytes of all the
        # recorded states.  On the batch kernel: its steps make no Python
        # floats for tracemalloc to trace one by one
        monkeypatch.setattr(integrate, "FLOAT_WORK", 0)
        args = ["portrait", "--scenario", SCENARIO, "--dt", "0.05"]
        assert main([*args, "--grid", "2", "--t-max", "1",
                     "--out", str(tmp_path / "warm-up")]) == 0
        out = tmp_path / "portrait"
        tracemalloc.start()
        try:
            assert main([*args, "--grid", "4", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # stride 1: a row at each step from 0 to the last
        rows = [round(entry["t_end"] / 0.05) + 1
                for entry in read_json(out / "index.json")["trajectories"]]
        assert len(rows) == 64 and len(set(rows)) > 40
        assert peak < sum(rows) * 3 * 2 * 8

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_start_exits_1(self, tmp_path, capsys, bad):
        out = tmp_path / "portrait"
        code = main(["portrait", "--scenario", SCENARIO,
                     "--x0", "0.2,0.4,0.6", "--x0", f"0.5,{bad},0.5",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"input error: --x0 '0.5,{bad},0.5': non-finite share in ")
        assert not out.exists()
        code = main(["simulate", "--scenario", SCENARIO,
                     "--x0", f"{bad},0.5,0.5", "--out", str(tmp_path / "s")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"input error: --x0 '{bad},0.5,0.5': non-finite share in ")


class TestVerify:
    def test_boundary_target(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--out", str(out),
                     "--grid-per-dim", "9", "--samples", "5000"])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["applicable"] and report["unique"]
        assert report["subsidy_bound"] < 1.2
        state = np.array(report["equilibria"][0]["state"])
        np.testing.assert_allclose(state[:, 0], [1, 1, 1])

    def test_near_vertex_target_gets_the_vertex_bound(self, tmp_path):
        # 0.9999999990011 + 0 passes the sum rule (within 1e-9 of 1), and
        # stored divided by its sum it is the vertex, whose matching set is
        # not empty: the same report as --y-star 1,0
        reports = []
        for name, y_star in (("near", "0.9999999990011,0"), ("vertex", "1,0")):
            out = tmp_path / name
            assert main(["verify", "--scenario", SCENARIO, "--y-star", y_star,
                         "--out", str(out)]) == 0
            report = read_json(out / "report.json")
            del report["provenance"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert repr(reports[0]["subsidy_bound"]) == "1.1200000000000003"

    def test_zero_ascent_iterations_evaluate_nothing(self, tmp_path):
        # the kept pool rows climb from their pool values: no iteration, no
        # evaluation
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--grid-per-dim", "2",
                     "--ascent-iters", "0", "--samples", "0",
                     "--out", str(out)]) == 0
        assert read_json(out / "report.json")["sample_counts"] == {
            "ascent_evals": 0, "grid": 8, "random": 0}

    def test_interior_target(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_INTERIOR, "--out", str(out),
                     "--grid-per-dim", "9", "--samples", "5000"])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["subsidy_bound"] < 1.5
        state = np.array(report["equilibria"][0]["state"])
        np.testing.assert_allclose(state[:, 0], [0, 1, 1])

    def test_target_without_gain_same_report(self, tmp_path):
        reports = []
        for name, target in (("policy", ["--policy", POLICY_BOUNDARY]),
                             ("target", ["--y-star", "1,0"])):
            out = tmp_path / name
            assert main(["verify", "--scenario", SCENARIO, *target,
                         "--grid-per-dim", "5", "--samples", "500",
                         "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("edit, flags, message", [
        # the run's seed is the only seed: the pool takes no seed of its own
        ({"sampling": {"seed": 7}}, [], "sampling: unknown key 'seed'"),
        ({"sampling": {"ascent_candidates": -3}}, [],
         "sampling config: ascent_candidates must be an integer >= 0, "
         "got -3"),
        ({}, ["--ascent-iters", "-5"],
         "sampling config: ascent_iters must be an integer >= 0, got -5"),
        ({}, ["--samples", "-5"],
         "sampling config: random_samples must be an integer >= 0, got -5"),
        # checked for every command, which all echo it as provenance
        ({"seed": 1.5}, [], "seed must be an integer >= 0, got 1.5"),
    ])
    def test_bad_sampling_setting_exits_1(self, tmp_path, capsys,
                                          monkeypatch, edit, flags, message):
        first = tmp_path / "first"
        assert main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--out", str(first),
                     "--grid-per-dim", "5", "--samples", "500"]) == 0
        manifest = read_json(first / "manifest.json")
        for key, value in edit.items():
            if isinstance(value, dict):
                manifest[key].update(value)
            else:
                manifest[key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        # refused before the equilibrium search
        searched = []
        monkeypatch.setattr(cli, "recommend_subsidy",
                            lambda *args: searched.append(args))
        capsys.readouterr()
        assert main(["verify", "--manifest", str(path), *flags,
                     "--out", str(tmp_path / "second")]) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert searched == []
        assert not (tmp_path / "second").exists()

    def test_report_seed_is_the_run_seed(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--out", str(out),
                     "--grid-per-dim", "5", "--samples", "500",
                     "--seed", "7"]) == 0
        report = read_json(out / "report.json")
        assert report["seed"] == 7
        assert report["provenance"]["seed"] == "7"
        # the seed draws the pool: another seed, another bound
        other = tmp_path / "other"
        assert main(["verify", "--manifest", str(out / "manifest.json"),
                     "--seed", "8", "--out", str(other)]) == 0
        assert (read_json(other / "report.json")["subsidy_bound"]
                != report["subsidy_bound"])

    @pytest.mark.parametrize("flags, message", [
        (["--grid-per-dim", "1"], "per_dim must be >= 2, got 1"),
        (["--grid-per-dim", "400"],
         "400 points per simplex edge give 64,000,000 states (3,072,000,000 "
         "bytes) for 3 populations of 2 actions, over the budget of "
         "300,000,000 bytes"),
        # one sample over the budget: 6,250,001 · 3 · 2 · 8 bytes
        (["--samples", "6250001"],
         "6,250,001 random samples give 6,250,001 states (300,000,048 "
         "bytes) for 3 populations of 2 actions, over the budget of "
         "300,000,000 bytes"),
    ], ids=["grid-1", "grid-400", "samples-over-budget"])
    def test_refused_resolution_exits_1_unwritten(self, tmp_path, capsys,
                                                  flags, message):
        out = tmp_path / "verify"
        tracemalloc.start()
        try:
            assert main(["verify", "--scenario", SCENARIO,
                         "--policy", POLICY_BOUNDARY, *flags,
                         "--out", str(out)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert peak < 20_000_000  # refused before the pool is drawn
        assert not out.exists()

    def test_report_keys(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--grid-per-dim", "5",
                     "--samples", "500", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert sorted(report) == [
            "applicable", "bound_argmax", "equilibria", "min_advantage",
            "min_advantage_witness", "provenance", "reason",
            "recommended_subsidy", "sample_counts", "seed", "subsidy_bound",
            "target_output", "unique"]
        assert sorted(report["equilibria"][0]) == [
            "carriers", "continuum_vertex", "state"]
        assert report["equilibria"][0]["carriers"] == [[0], [0], [0]]
        assert sorted(report["sample_counts"]) == [
            "ascent_evals", "grid", "random"]

    def test_unreachable_target_exits_3(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", SCENARIO,
                     "--y-star", "0.6,0.4", "--out", str(out)])
        assert code == 3
        report = read_json(out / "report.json")
        assert not report["applicable"]
        assert report["reason"] == "no_target_equilibrium"

    def test_two_action_continuum_exits_3(self, tmp_path, capsys):
        # populations 2 and 3 flat: a segment of target equilibria
        flat = [[1.0, 1.0], [1.0, 1.0]]
        scen = Scenario(payoffs=np.array([THREEPOP_PAYOFFS[0], flat, flat]),
                        shares=THREEPOP_SHARES)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scen.to_dict()))
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", str(scenario),
                     "--y-star", "0.55,0.45", "--out", str(out)])
        assert code == 3
        report = read_json(out / "report.json")
        assert report["reason"] == "multiple_target_equilibria"
        assert not report["applicable"] and not report["unique"]
        assert report["equilibria"]
        assert all(eq["continuum_vertex"] for eq in report["equilibria"])

    def test_negative_advantage_on_matching_set_exits_3(self, tmp_path,
                                                         capsys):
        scen, y_star = recipe_game(42)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scen.to_dict()))
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", str(scenario),
                     "--y-star", ",".join(map(repr, y_star.tolist())),
                     "--grid-per-dim", "2", "--samples", "500",
                     "--out", str(out)])
        assert code == 3
        assert "advantage_negative_on_matching_set" in capsys.readouterr().err
        report = read_json(out / "report.json")
        assert not report["applicable"] and report["unique"]
        assert report["reason"] == "advantage_negative_on_matching_set"
        assert report["min_advantage"] == pytest.approx(RECIPE_REFUSED[42],
                                                        abs=1e-5)
        assert report["recommended_subsidy"] is None
        # refused before any bound is estimated
        assert report["sample_counts"] == {}
        assert report["subsidy_bound"] is None

    def test_no_admissible_sample_exits_3(self, tmp_path, capsys):
        # every vertex pair leaves an action unused: no lattice state is
        # admissible, and no random sample is drawn
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"populations": [
            {"share": 0.5, "payoff": [[1, 1, 1], [1, 1, 1], [0, 0, 0]]},
            {"share": 0.5,
             "payoff": [[0, 0, 0], [0.5, 0.5, 0.5], [1, 1, 1]]}]}))
        out = tmp_path / "out"
        assert main(["verify", "--scenario", str(scenario), "--y-star",
                     "0.25,0.25,0.5", "--grid-per-dim", "2", "--samples",
                     "0", "--out", str(out)]) == cli.EXIT_INAPPLICABLE
        report = read_json(out / "report.json")
        assert (report["applicable"], report["reason"]) == (
            False, "sampling_exhausted")
        assert "no admissible states found" in capsys.readouterr().err

    def test_refusal_needs_no_lattice(self, tmp_path, capsys):
        # five populations at the default 15 points per edge would ask for
        # 120**5 lattice states; the matching-set LP refuses the game first
        scen, y_star = recipe_game(42)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scen.to_dict()))
        code = main(["verify", "--scenario", str(scenario),
                     "--y-star", ",".join(map(repr, y_star.tolist())),
                     "--out", str(tmp_path / "verify")])
        assert code == 3
        assert "advantage_negative_on_matching_set" in capsys.readouterr().err

    def test_matching_samples_setting_is_refused(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--out", str(first),
                     "--grid-per-dim", "5", "--samples", "500"]) == 0
        manifest = read_json(first / "manifest.json")
        manifest["sampling"]["matching_samples"] = 2000
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["verify", "--manifest", str(path),
                     "--out", str(tmp_path / "second")]) == 1
        assert capsys.readouterr().err == (
            "input error: sampling: unknown key 'matching_samples'\n")
        assert not (tmp_path / "second").exists()
        assert main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--out", str(first),
                     "--matching-samples", "2000"]) == 1

    @pytest.mark.parametrize("field", ["tube_radius", "boundary_margin"])
    def test_removed_sampling_field_is_refused(self, tmp_path, capsys,
                                               field):
        first = tmp_path / "first"
        assert main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--out", str(first),
                     "--grid-per-dim", "5", "--samples", "500"]) == 0
        manifest = read_json(first / "manifest.json")
        manifest["sampling"][field] = 1e-6
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["verify", "--manifest", str(path),
                     "--out", str(tmp_path / "second")]) == 1
        assert capsys.readouterr().err == (
            f"input error: sampling: unknown key {field!r}\n")
        assert not (tmp_path / "second").exists()

    def test_oversized_lattice_exits_1(self, tmp_path):
        # a random (4,3) game at the default 15 points per edge asks for
        # 120**4 states; the run is capped at 2 GB of address space so that
        # a missing refusal fails here instead of exhausting the machine
        rng = np.random.default_rng(43)
        payoffs = rng.uniform(-5.0, 5.0, size=(4, 3, 3))
        shares = (rng.dirichlet(np.ones(4)) + 0.05) / 1.2
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            Scenario(payoffs=payoffs, shares=shares).to_dict()))
        # one BLAS thread, so the cap is not spent on per-thread buffers
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", ADDRESS_SPACE_CAP, "verify",
             "--scenario", str(scenario), "--y-star", "1,0,0",
             "--out", str(tmp_path / "verify")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("input error: ")
        assert "207,360,000 states" in proc.stderr
        assert "budget of 300,000,000 bytes" in proc.stderr

    def test_one_point_per_edge_exits_1(self, tmp_path, capsys):
        code = main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--out", str(tmp_path / "v"),
                     "--grid-per-dim", "1"])
        assert code == 1
        assert "per_dim must be >= 2, got 1" in capsys.readouterr().err


class TestSweep:
    def test_gain_contrast(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY,
                     "--d-values", "0,1.2", "--grid", "3",
                     "--record-stride", "50", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in
                (out / "sweep.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        table = {float(d): (float(frac), float(dist)) for d, frac, dist in rows}
        assert table[0.0][0] < 1.0
        assert table[1.2][0] == 1.0
        assert table[1.2][1] <= 1e-3

    def test_target_without_gain_same_table(self, tmp_path):
        tables = []
        for name, target in (("policy", ["--policy", POLICY_BOUNDARY]),
                             ("target", ["--y-star", "1,0"])):
            out = tmp_path / name
            assert main(["sweep", "--scenario", SCENARIO, *target,
                         "--d-values", "0.6,1.2", "--grid", "2",
                         "--x0", "0.2,0.4,0.6", "--dt", "0.05",
                         "--t-max", "40", "--out", str(out)]) == 0
            tables.append((out / "sweep.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_oversized_grid_exits_1(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--d-values", "1.2",
                     "--grid", "200", "--out", str(tmp_path / "sweep")])
        assert code == 1
        err = capsys.readouterr().err
        assert "8,000,000 states" in err
        assert "budget of 300,000,000 bytes" in err

    def test_empty_d_list_exits_1_unwritten(self, tmp_path, capsys):
        # an empty list is no gains, refused as a missing --d-values is
        argv = ["sweep", "--scenario", SCENARIO, "--policy", POLICY_BOUNDARY,
                "--grid", "3"]
        first = tmp_path / "first"
        assert main([*argv, "--d-values", "1.2", "--out", str(first)]) == 0
        manifest = read_json(first / "manifest.json")
        manifest["d_values"] = []
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        for rerun in ([*argv, "--d-values", ""], ["sweep", "--manifest",
                                                   str(path)]):
            out = tmp_path / "sweep"
            assert main([*rerun, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                "input error: sweep needs --d-values\n")
            assert not out.exists()

    def test_gain_just_above_recommendation_wins_everywhere(self, tmp_path):
        ver = tmp_path / "verify"
        assert main(["verify", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--out", str(ver),
                     "--grid-per-dim", "9", "--samples", "5000"]) == 0
        recommended = read_json(ver / "report.json")["recommended_subsidy"]
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY,
                     "--d-values", f"{recommended + 0.01}",
                     "--grid", "5", "--record-stride", "50",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "sweep.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        assert float(rows[0][1]) == 1.0


    SWEEP_STARTS = ["0.2,0.4,0.6", "0.9,0.1,0.5"]

    def _sweep(self, out, d_values, *extra):
        argv = ["sweep", "--scenario", SCENARIO, "--policy", POLICY_BOUNDARY,
                "--d-values", d_values, "--dt", "0.05",
                "--record-stride", "1000", "--out", str(out), *extra]
        for start in self.SWEEP_STARTS:
            argv += ["--x0", start]
        return main(argv)

    def test_rows_equal_one_library_portrait_per_gain(self, tmp_path,
                                                      policy_boundary):
        out = tmp_path / "sweep"
        assert self._sweep(out, "0,0.6,1.2", "--grid", "3") == 0
        rows = [line.split(",") for line in
                (out / "sweep.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        scenario = Scenario.from_file(SCENARIO)
        eq = unique_target_equilibrium(scenario, policy_boundary.y_star)
        cfg = IntegrationConfig(dt=0.05, record_stride=1000)
        states = [np.stack([z, 1.0 - z], axis=1) for z in
                  (np.array([float(v) for v in s.split(",")])
                   for s in self.SWEEP_STARTS)]
        states += list(interior_grid(scenario, 3))
        assert len(rows) == 3
        for row, d in zip(rows, (0.0, 0.6, 1.2)):
            # the d = 0 members are a run with control off, bit for bit
            policy = (ControlPolicy.off(2) if d == 0.0 else
                      ControlPolicy(y_star=policy_boundary.y_star, d=d))
            distances = np.array([
                np.max(np.abs(outcome.final_state - eq.state))
                for outcome in phase_portrait(scenario, policy, states, cfg)])
            assert float(row[0]) == d
            assert float(row[1]) == np.mean(distances <= cli.ENDPOINT_TOL)
            assert row[2] == repr(float(distances.max()))

    def test_small_budget_splits_the_gains_same_bytes(self, tmp_path,
                                                      monkeypatch):
        calls = []
        real = cli.phase_portrait

        def counted(*args, **kwargs):
            calls.append(len(kwargs["gains"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "phase_portrait", counted)
        assert self._sweep(tmp_path / "one", "0.6,1.2,1.5") == 0
        assert calls == [3]
        # room for the two starts (3 x 2 shares each) of two gains
        monkeypatch.setattr(game, "LATTICE_BYTE_BUDGET", 2 * 2 * 3 * 2 * 8)
        assert self._sweep(tmp_path / "two", "0.6,1.2,1.5") == 0
        assert calls == [3, 2, 1]
        assert ((tmp_path / "one" / "sweep.csv").read_bytes()
                == (tmp_path / "two" / "sweep.csv").read_bytes())

    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
    def test_bad_gain_exits_1(self, tmp_path, capsys, value):
        assert self._sweep(tmp_path / "sweep", f"1.2,{value}") == 1
        assert "gains must be finite values >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_many_gains_at_stride_1_keep_only_final_states(self, tmp_path):
        # the default stride records every step, but sweep reads only each
        # final state: merging 24 gains must not hold 24 gains' steps
        argv = ["sweep", "--scenario", SCENARIO, "--policy", POLICY_BOUNDARY,
                "--d-values", ",".join(["0.05"] * 24), "--dt", "0.05",
                "--t-max", "100", "--grid", "3", "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestAgents:
    def test_repeat_seed_identical_bytes(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["agents", "--scenario", SCENARIO,
                         "--policy", POLICY_BOUNDARY,
                         "--x0", "0.5,0.5,0.5", "--n-agents", "1000",
                         "--rounds", "400", "--seed", "21",
                         "--out", str(out)])
            assert code == 0
            outputs.append((out / "rounds.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_empty_targeted_group_exits_4(self, tmp_path, capsys):
        # an interior start has agents on every action; here a strictly
        # dominated targeted action, barely subsidized, dies out mid-run
        dominated = [[0.0, 0.0], [1.0, 1.0]]
        scenario = tmp_path / "dominated.json"
        scenario.write_text(json.dumps(Scenario(
            payoffs=np.array([dominated, dominated]),
            shares=np.array([0.5, 0.5])).to_dict()))
        code = main(["agents", "--scenario", str(scenario),
                     "--y-star", "0.5,0.5", "--d", "0.001",
                     "--x0", "0.02,0.02", "--n-agents", "500",
                     "--rounds", "1000", "--out", str(tmp_path / "o")])
        assert code == 4
        assert "no agents" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, names", [
        (["--x0", "1,0.5,0.5"], "x0"),
        (["--x0", "1.5,0.5,0.5"], "x0"),
        (["--x0", "nan,0.5,0.5"], "x0"),
        (["--x0", "0.6,0.6;0.5,0.5;0.5,0.5"], "x0"),
        (["--x0", "0.5,0.5,0.5", "--revision-prob", "0"], "revision_prob"),
        (["--x0", "0.5,0.5,0.5", "--revision-prob", "-0.1"],
         "revision_prob"),
        (["--x0", "0.5,0.5,0.5", "--revision-prob", "1.5"],
         "revision_prob"),
    ])
    def test_bad_start_or_revision_prob_runs_no_round(self, tmp_path, capsys,
                                                      extra, names):
        out = tmp_path / "o"
        code = main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, *extra, "--n-agents", "500",
                     "--rounds", "10", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert names in err
        assert not (out / "rounds.csv").exists()

    @pytest.mark.parametrize("prob", ["1e-300", "1e-320"])
    def test_tiny_revision_prob_steps_once_a_round(self, tmp_path,
                                                   monkeypatch, prob):
        # the mean-field reference takes one step a round, however small
        # the probability makes its dt
        steps, real = [], cli.simulate

        def counted(scenario, policy, x0, cfg):
            steps.append(cfg.n_steps)
            return real(scenario, policy, x0, cfg)

        monkeypatch.setattr(cli, "simulate", counted)
        assert main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
                     "--n-agents", "1000", "--rounds", "5",
                     "--revision-prob", prob, "--out", str(tmp_path)]) == 0
        assert steps == [5]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["revision_prob"] == float(prob)

    def test_population_without_agents_exits_1(self, tmp_path, capsys):
        # 0.5 % of 100 agents rounds to no agent in the first population
        payoff = [[1.0, 0.0], [0.0, 1.0]]
        scenario = tmp_path / "tiny.json"
        scenario.write_text(json.dumps(Scenario(
            payoffs=np.array([payoff, payoff]),
            shares=np.array([0.005, 0.995])).to_dict()))
        out = tmp_path / "o"
        code = main(["agents", "--scenario", str(scenario),
                     "--x0", "0.5,0.5", "--n-agents", "100",
                     "--rounds", "10", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "input error: population sizes [0, 100] cannot host agents\n")
        assert not out.exists()

    def test_game_without_payoff_spread_exits_1(self, tmp_path, capsys):
        # every payoff 1 and no subsidy: a_max - a_min + d is 0, so no
        # imitation probability is defined and nothing is written
        flat = [[1.0, 1.0], [1.0, 1.0]]
        scenario = tmp_path / "flat.json"
        scenario.write_text(json.dumps(Scenario(
            payoffs=np.array([flat, flat]),
            shares=np.array([0.5, 0.5])).to_dict()))
        command = ["agents", "--scenario", str(scenario), "--x0", "0.5,0.5",
                   "--n-agents", "1000", "--rounds", "10"]
        out = tmp_path / "o"
        assert main([*command, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "input error: imitation normalizer a_max - a_min + d is 0.0; "
            "it must be positive and finite\n")
        assert not out.exists()
        # a subsidy makes the normalizer positive, and the same game runs
        assert main([*command, "--y-star", "1,0", "--d", "1",
                     "--out", str(tmp_path / "subsidized")]) == 0

    def test_too_few_agents_exits_1(self, tmp_path, capsys):
        code = main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY,
                     "--x0", "0.5,0.5,0.5", "--n-agents", "10",
                     "--rounds", "10", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "need at least 100 agents" in capsys.readouterr().err

    def test_max_imitation_gap_and_rerun(self, tmp_path, threepop,
                                         policy_boundary):
        first = tmp_path / "first"
        assert main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
                     "--n-agents", "1000", "--rounds", "50", "--seed", "3",
                     "--out", str(first)]) == 0
        summary = read_json(first / "summary.json")
        # the gap is largest at the start, where it is the state's
        # mean-field scale (4.4 / 4.2): the clip binds there
        assert summary["max_imitation_gap"] == pytest.approx(22 / 21,
                                                             rel=1e-12)
        start = aggregate_output(z_state((0.5, 0.5, 0.5)), threepop)
        assert summary["max_imitation_gap"] == pytest.approx(
            imitation_gaps(threepop, policy_boundary, start).max(),
            rel=1e-12)
        second = tmp_path / "second"
        assert main(["agents", "--manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        for name in ("rounds.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_ten_million_agents_in_bounded_memory(self, tmp_path):
        # the state is the (m, n) count table: nothing grows with N
        argv = ["agents", "--scenario", SCENARIO, "--policy", POLICY_BOUNDARY,
                "--x0", "0.5,0.5,0.5", "--rounds", "50"]
        # a small run first, so the modules the first run imports (about
        # 0.8 MB, numpy.random among them) are not counted
        assert main([*argv, "--n-agents", "1000",
                     "--out", str(tmp_path / "small")]) == 0
        argv += ["--n-agents", "10000000", "--out", str(tmp_path / "big")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_large_run_nearly_reaches_target(self, tmp_path):
        out = tmp_path / "big"
        code = main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY,
                     "--x0", "0.5,0.5,0.5", "--n-agents", "10000",
                     "--rounds", "1000", "--out", str(out)])
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["final_empirical_output"][0] > 0.95


class TestManifestRoundTrip:
    @pytest.mark.parametrize("command, section, key, value", [
        ("simulate", "integration", "record_stride", 2.5),
        ("agents", "agents", "rounds", 10.7),
        ("agents", "agents", "n_agents", 1000.5),
    ])
    def test_fractional_count_exits_1(self, tmp_path, capsys, command,
                                      section, key, value):
        first = tmp_path / "first"
        extra = (["--t-max", "1"] if command == "simulate"
                 else ["--n-agents", "200", "--rounds", "5"])
        assert main([command, "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
                     *extra, "--out", str(first)]) == 0
        manifest = read_json(first / "manifest.json")
        manifest[section][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "second"
        assert main([command, "--manifest", str(path),
                     "--out", str(second)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert f"{key} must be an integer >= 0, got {value!r}" in err
        assert not second.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("sampled_matches", "false", "must be true or false"),
        ("sampled_matches", 1, "must be true or false"),
        ("revision_prob", "0.1", "must be a real number"),
        ("revision_prob", True, "must be a real number"),
    ])
    def test_mistyped_agent_setting_exits_1(self, tmp_path, capsys, key,
                                            value, message):
        first = tmp_path / "first"
        assert main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
                     "--n-agents", "200", "--rounds", "5",
                     "--out", str(first)]) == 0
        manifest = read_json(first / "manifest.json")
        manifest["agents"][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "second"
        assert main(["agents", "--manifest", str(path),
                     "--out", str(second)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert f"{key} {message}, got {value!r}" in err
        assert not second.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("grid", 2.7, "grid must be an integer >= 0, got 2.7"),
        ("grid", "2", "grid must be an integer >= 0, got '2'"),
        ("d_values", ["0", "1.2"],
         "d_values entry must be a real number, got '0'"),
        ("d_values", "0,1.2", "d_values must be a list, got '0,1.2'"),
    ])
    def test_mistyped_sweep_setting_exits_1(self, tmp_path, capsys, key,
                                            value, message):
        first = tmp_path / "first"
        assert main(["sweep", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--d-values", "0,1.2",
                     "--grid", "2", "--t-max", "1",
                     "--out", str(first)]) == 0
        manifest = read_json(first / "manifest.json")
        manifest[key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "second"
        assert main(["sweep", "--manifest", str(path),
                     "--out", str(second)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert message in err
        assert not second.exists()

    # a command takes only what its own flags and config types set: a
    # setting of another command is as unknown as a typo
    @pytest.mark.parametrize("command, section, key, value", [
        pytest.param("portrait", "", "grdi", 3, id="top-level"),
        pytest.param("agents", "agents", "revison_prob", 0.5, id="agents"),
        pytest.param("verify", "", "grid", 2, id="verify-grid"),
        pytest.param("verify", "", "x0", ["0.5,0.5,0.5"], id="verify-x0"),
        pytest.param("verify", "", "d_values", [0.0, 1.2],
                     id="verify-d_values"),
        pytest.param("verify", "integration", "dt", 0.05,
                     id="verify-integration.dt"),
        pytest.param("verify", "agents", "rounds", 5,
                     id="verify-agents.rounds"),
        pytest.param("simulate", "", "grid", 2, id="simulate-grid"),
        pytest.param("simulate", "sampling", "grid_per_dim", 5,
                     id="simulate-sampling.grid_per_dim"),
        pytest.param("simulate", "sampling", "foo", 1,
                     id="simulate-sampling.foo"),
        pytest.param("agents", "integration", "dt", 0.05,
                     id="agents-integration.dt"),
        pytest.param("agents", "sampling", "ascent_iters", 5,
                     id="agents-sampling.ascent_iters"),
        pytest.param("sweep", "agents", "rounds", 5,
                     id="sweep-agents.rounds"),
        pytest.param("portrait", "", "d_values", [0.0, 1.2],
                     id="portrait-d_values"),
        pytest.param("simulate", "integration", "dtt", 0.05,
                     id="simulate-integration.dtt"),
        pytest.param("verify", "sampling", "samplez", 500,
                     id="verify-sampling.samplez"),
    ])
    def test_unknown_manifest_key_exits_1(self, tmp_path, capsys, command,
                                          section, key, value):
        extra = {"simulate": ["--x0", "0.5,0.5,0.5", "--t-max", "1"],
                 "portrait": ["--grid", "2", "--t-max", "1"],
                 "verify": ["--grid-per-dim", "5", "--samples", "500"],
                 "sweep": ["--d-values", "0,1.2", "--grid", "2",
                           "--t-max", "1"],
                 "agents": ["--x0", "0.5,0.5,0.5", "--n-agents", "200",
                            "--rounds", "5"]}[command]
        first = tmp_path / "first"
        assert main([command, "--scenario", SCENARIO, "--policy",
                     POLICY_BOUNDARY, *extra, "--out", str(first)]) == 0
        manifest = read_json(first / "manifest.json")
        (manifest[section] if section else manifest)[key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "second"
        assert main([command, "--manifest", str(path),
                     "--out", str(second)]) == 1
        assert capsys.readouterr().err == (
            f"input error: {section or 'manifest'}: unknown key {key!r}\n")
        assert not second.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("verify", "--grid", "3"),  # for --grid-per-dim
        ("simulate", "--t", "5"),  # for --t-max
        ("agents", "--n", "1000"),  # for --n-agents
        ("sweep", "--d", "1"),  # for --dt or --d-values
    ])
    def test_abbreviated_flag_exits_1(self, tmp_path, capsys, command, flag,
                                      value):
        out = tmp_path / "run"
        assert main([command, "--scenario", SCENARIO, "--policy",
                     POLICY_BOUNDARY, *COMMAND_ARGS[command], flag, value,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"replicator-ctl: error: unrecognized arguments: {flag} {value}")
        assert not out.exists()

    def test_non_string_start_exits_1(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
                     "--t-max", "1", "--out", str(first)]) == 0
        manifest = read_json(first / "manifest.json")
        manifest["x0"] = [0.5]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "second"
        assert main(["simulate", "--manifest", str(path),
                     "--out", str(second)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: --x0 0.5: expected a string")
        assert not second.exists()

    @pytest.mark.parametrize("command", ["simulate", "portrait"])
    def test_start_string_instead_of_list_exits_1(self, tmp_path, capsys,
                                                  command):
        # a string is refused whole, not read one character at a time
        first = tmp_path / "first"
        assert main([command, "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
                     "--t-max", "1", "--out", str(first)]) == 0
        manifest = read_json(first / "manifest.json")
        manifest["x0"] = "0.2,0.4,0.6"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "second"
        assert main([command, "--manifest", str(path),
                     "--out", str(second)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: x0 must be a list of strings, "
                              "got '0.2,0.4,0.6'")
        assert not second.exists()

    @pytest.mark.parametrize("key, value", [
        # an integer would be opened as a file descriptor
        ("scenario", 10 ** 6), ("scenario", [SCENARIO]),
        ("out", 5), ("out", None)])
    def test_non_string_path_exits_1(self, tmp_path, capsys, monkeypatch,
                                     key, value):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "simulate",
                                    "scenario": SCENARIO,
                                    "out": str(tmp_path / "out"),
                                    "x0": ["0.5,0.5,0.5"], key: value}))
        # refused before the scenario is opened
        opened = []
        monkeypatch.setattr(Scenario, "from_file", opened.append)
        assert main(["simulate", "--manifest", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"input error: {key} must be a path string, got {value!r}\n")
        assert opened == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, shape, flags, message", [
        ("simulate", "list", [],
         "--manifest {tmp}/manifest.json: expected a JSON object, got list"),
        ("verify", {"sampling": [1]}, [],
         "sampling must be a JSON object, got [1]"),
        ("agents", {"agents": 5}, [], "agents must be a JSON object, got 5"),
        ("simulate", {"policy": [1]}, ["--d", "1"],
         "policy must be a JSON object, got [1]"),
        ("simulate", {"integration": "x"}, [],
         "integration must be a JSON object, got 'x'"),
        ("simulate", {}, ["--policy", "{tmp}/list.json", "--d", "1"],
         "--policy {tmp}/list.json must be a JSON object, got [1]"),
    ])
    def test_wrong_shape_exits_1(self, tmp_path, capsys, monkeypatch,
                                 command, shape, flags, message):
        base = {"command": command, "scenario": SCENARIO,
                "out": str(tmp_path / "out"), "x0": ["0.5,0.5,0.5"]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([base] if shape == "list"
                                   else {**base, **shape}))
        (tmp_path / "list.json").write_text("[1]")
        # refused before the scenario is opened
        opened = []
        monkeypatch.setattr(Scenario, "from_file", opened.append)
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        assert main([command, "--manifest", str(path), *flags]) == 1
        assert capsys.readouterr().err == (
            f"input error: {message.format(tmp=tmp_path)}\n")
        assert opened == []
        assert not (tmp_path / "out").exists()

    def test_agents_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        assert main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
                     "--n-agents", "300", "--rounds", "20",
                     "--revision-prob", "0.1", "--sampled-matches",
                     "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["agents", "--manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        for name in ("rounds.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", SCENARIO,
                     "--policy", POLICY_INTERIOR,
                     "--x0", "0.3,0.6,0.2", "--out", str(first),
                     "--t-max", "80", "--seed", "5"]) == 0
        second = tmp_path / "second"
        assert main(["simulate", "--manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_manifest_echo_contains_inputs(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--scenario", SCENARIO,
              "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
              "--out", str(out), "--t-max", "30"])
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "simulate"
        assert manifest["scenario"] == SCENARIO
        assert manifest["policy"]["d"] == 1.2
        assert manifest["x0"] == ["0.5,0.5,0.5"]


# what each command needs besides a target to run on the bundled game
# the commands that take --d; verify and sweep read no gain
GAIN_COMMANDS = ("simulate", "portrait", "agents")

COMMAND_ARGS = {
    "simulate": ["--x0", "0.5,0.5,0.5"],
    "portrait": ["--x0", "0.5,0.5,0.5"],
    "verify": [],
    "sweep": ["--x0", "0.5,0.5,0.5", "--d-values", "1"],
    "agents": ["--x0", "0.5,0.5,0.5", "--n-agents", "1000", "--rounds", "5"],
}


class TestGainFlag:
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_commands_that_read_no_gain_refuse_d(self, tmp_path, capsys,
                                                 command):
        out = tmp_path / "run"
        assert main([command, "--scenario", SCENARIO, "--y-star", "1,0",
                     "--d", "1", *COMMAND_ARGS[command],
                     "--out", str(out)]) == 1
        # neither has a flag named --d, and none is taken abbreviated
        assert capsys.readouterr().err.splitlines()[-1] == (
            "replicator-ctl: error: unrecognized arguments: --d 1")
        assert not out.exists()
        # a policy file's d is read and not used
        assert main([command, "--scenario", SCENARIO, "--policy",
                     POLICY_BOUNDARY, *COMMAND_ARGS[command],
                     "--out", str(out)]) in (0, 3)
        assert (out / "manifest.json").exists()


class TestTargetLength:
    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    @pytest.mark.parametrize("y_star", ["1", "0.5,0.3,0.2"])
    @pytest.mark.parametrize("d", ["0", "1"])
    def test_wrong_length_target_exits_1_unwritten(self, tmp_path, capsys,
                                                   command, y_star, d):
        out = tmp_path / "run"
        gain = ["--d", d] if command in GAIN_COMMANDS else []
        assert main([command, "--scenario", SCENARIO, "--y-star", y_star,
                     *gain, *COMMAND_ARGS[command],
                     "--out", str(out)]) == 1
        entries = len(y_star.split(","))
        assert capsys.readouterr().err == (
            f"input error: policy: y_star has {entries} entries, the "
            "scenario has 2 actions\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_empty_target_exits_1_unwritten(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        gain = ["--d", "1"] if command in GAIN_COMMANDS else []
        assert main([command, "--scenario", SCENARIO, "--y-star", "",
                     *gain, *COMMAND_ARGS[command],
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "input error: policy: target y_star is empty\n")
        assert not out.exists()


# a NaN, a negative share, a row summing to 1.1, a share below the
# interior floor and a share that is not a number
BAD_STARTS = ["0.5,nan,0.5", "1.5,0.5,0.5", "0.6,0.5;0.5,0.5;0.5,0.5",
              "0.5,0.0000001,0.5", "0.5,x,0.5"]


class TestRefusedStart:
    """A refused start leaves no file, not even manifest.json."""

    @pytest.mark.parametrize("command", ["simulate", "portrait", "sweep"])
    @pytest.mark.parametrize("x0", BAD_STARTS)
    def test_bad_start_exits_1_unwritten(self, tmp_path, capsys, command,
                                         x0):
        out = tmp_path / "run"
        gains = ["--d-values", "1"] if command == "sweep" else []
        assert main([command, "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--x0", x0, *gains,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: --x0 {x0!r}: ")
        assert "np." not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, code", [
        *((["--x0", x0], 1) for x0 in BAD_STARTS),
        (["--x0", "0.5,0.5,0.5", "--n-agents", "50"], 1),
        (["--x0", "0.5,0.5,0.5", "--revision-prob", "2"], 1),
        (["--x0", "0,0,0"], 1),  # would empty the targeted group
    ])
    def test_refused_agents_run_is_unwritten(self, tmp_path, capsys, extra,
                                             code):
        out = tmp_path / "run"
        assert main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, "--n-agents", "500",
                     "--rounds", "10", *extra, "--out", str(out)]) == code
        assert "np." not in capsys.readouterr().err
        assert not out.exists()


class TestOneStartText:
    """A start that ``simulate`` or ``agents`` cannot use is refused with
    exit 1 before anything is written, by a message that names the --x0
    text and no numpy internals."""

    AGENTS = ["--n-agents", "500", "--rounds", "5"]

    @pytest.mark.parametrize("command, starts, message", [
        *((command, ["0.5,0.5,0.5", "nan,0.5,0.5"],
           f"{command} needs exactly one --x0, got 2: --x0 '0.5,0.5,0.5', "
           "--x0 'nan,0.5,0.5'") for command in ("simulate", "agents")),
        # simulate has always parsed its start at the interior floor
        ("agents", ["1,0.5,0.5"],
         "--x0 '1,0.5,0.5': share 0.0 is below 1e-06"),
        *((command, ["0.5,0.5;0.5"],
           "--x0 '0.5,0.5;0.5': rows differ in length (2, 1)")
          for command in ("simulate", "agents")),
        ("simulate", ["0.5,0.5;0.4,0.6,0.0;0.5,0.5"],
         "--x0 '0.5,0.5;0.4,0.6,0.0;0.5,0.5': rows differ in length "
         "(2, 3, 2)"),
    ], ids=["simulate-two", "agents-two", "agents-boundary", "simulate-ragged",
            "agents-ragged", "simulate-ragged-middle"])
    def test_refused_with_its_text(self, tmp_path, capsys, command, starts,
                                   message):
        out = tmp_path / "run"
        extra = self.AGENTS if command == "agents" else ["--t-max", "1"]
        x0 = [arg for text in starts for arg in ("--x0", text)]
        assert main([command, "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, *x0, *extra,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"input error: {message}\n"
        assert "np." not in err
        assert not out.exists()


# payoffs of +-1e300 overflow the first step from any start off the
# symmetric one
HUGE_PAYOFF = [[1e300, -1e300], [-1e300, 1e300]]
START = ["--x0", "0.5,0.5,0.5"]

# Exits that the other tests do not reach: the command line (with "{tmp}"
# for the test's directory, "{huge}" for a scenario with HUGE_PAYOFF), the
# exit code, and the text that stderr starts with, or else that a file of
# the run holds.
REFUSALS = {
    "simulate-step-fails": (
        ["simulate", "--scenario", "{huge}", "--x0", "0.3,0.5,0.6"], 2, None,
        "integration failure: trajectory 0: step failed at t=0.01"),
    "portrait-step-fails": (
        ["portrait", "--scenario", "{huge}", "--x0", "0.3,0.5,0.6"], 2,
        "index.json",
        '"error": "trajectory 0: step failed at t=0.01 after 20 halvings'),
    "sweep-unreachable-target": (
        ["sweep", "--scenario", SCENARIO, "--y-star", "0.6,0.4",
         "--d-values", "1", *START], 3, None,
        "stabilization condition inapplicable: no uncontrolled rest point"),
    "policy-unreadable": (
        ["simulate", "--scenario", SCENARIO, "--policy", "{tmp}/none.json",
         *START], 1, None, "input error: --policy {tmp}/none.json: "),
    "policy-without-target": (
        ["simulate", "--scenario", SCENARIO, "--policy",
         "{tmp}/no_target.json", *START], 1, None,
        'input error: policy: policy must be an object with "y_star"\n'),
    "policy-unknown-key": (
        ["simulate", "--scenario", SCENARIO, "--policy", "{tmp}/gain.json",
         *START], 1, None, "input error: policy: unknown key 'gain'\n"),
    "manifest-unreadable": (
        ["simulate", "--manifest", "{tmp}/none.json"], 1, None,
        "input error: --manifest {tmp}/none.json: "),
    "manifest-of-verify": (
        ["simulate", "--manifest", "{tmp}/verify.json"], 1, None,
        "input error: manifest was written for 'verify', not 'simulate'\n"),
    "portrait-without-start": (
        ["portrait", "--scenario", SCENARIO], 1, None,
        "input error: no initial states: pass --x0 and/or --grid\n"),
    "simulate-without-start": (
        ["simulate", "--scenario", SCENARIO], 1, None,
        "input error: simulate needs exactly one --x0\n"),
    "sweep-without-gains": (
        ["sweep", "--scenario", SCENARIO, "--policy", POLICY_BOUNDARY,
         *START], 1, None, "input error: sweep needs --d-values\n"),
    "sweep-without-target": (
        ["sweep", "--scenario", SCENARIO, "--d-values", "1", *START], 1,
        None, "input error: sweep needs a target output "
              "(--policy/--y-star)\n"),
    "verify-without-target": (
        ["verify", "--scenario", SCENARIO], 1, None,
        "input error: verify needs a target output (--policy/--y-star)\n"),
    "simulate-too-many-steps": (
        ["simulate", "--scenario", SCENARIO, *START, "--dt", "1e-320"], 1,
        None, "input error: integration config: t_max / dt must be finite, "
              "got 200.0 / 1e-320\n"),
    "agents-without-count": (
        ["agents", "--scenario", SCENARIO, "--policy", POLICY_BOUNDARY,
         *START, "--rounds", "5"], 1, None,
        "input error: agents needs --n-agents and --rounds\n"),
    "agents-without-rounds": (
        ["agents", "--scenario", SCENARIO, "--policy", POLICY_BOUNDARY,
         *START, "--n-agents", "500"], 1, None,
        "input error: agents needs --n-agents and --rounds\n"),
}


class TestUnusableOut:
    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_file_as_out_exits_1(self, tmp_path, capsys, monkeypatch,
                                 command, below):
        # --out is an existing file, or a directory beneath one; either is
        # refused before any work
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x" if below else blocker

        def no_work(*args, **kwargs):
            raise AssertionError("work done before --out was checked")

        for name in ("simulate", "phase_portrait", "recommend_subsidy"):
            monkeypatch.setattr(cli, name, no_work)
        assert main([command, "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY, *COMMAND_ARGS[command],
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert str(out) in err
        assert err.count("\n") == 1
        assert blocker.read_text() == ""
        assert [path.name for path in tmp_path.iterdir()] == ["file"]


class TestRefusals:
    @pytest.mark.parametrize("name", list(REFUSALS))
    def test_exit_code_and_message(self, tmp_path, capsys, name):
        argv, code, written, text = REFUSALS[name]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"populations": [
            {"share": share, "payoff": HUGE_PAYOFF}
            for share in THREEPOP_SHARES.tolist()]}))
        (tmp_path / "verify.json").write_text(json.dumps(
            {"command": "verify", "scenario": SCENARIO}))
        (tmp_path / "no_target.json").write_text(json.dumps({"d": 1}))
        (tmp_path / "gain.json").write_text(json.dumps(
            {"y_star": [1, 0], "gain": 1.2}))
        out = tmp_path / "out"
        fill = {"tmp": tmp_path, "huge": huge}
        assert main([token.format(**fill) for token in argv]
                    + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        text = text.format(**fill)
        if written is None:
            assert err.startswith(text)
        else:
            assert err == ""
            assert text in (out / written).read_text()
        # only a run that failed while stepping has written anything
        assert out.exists() == (code == cli.EXIT_NUMERIC)


def output_digest(out: Path) -> str:
    """sha256 over the sorted (path, sha256) of every file a run wrote but
    manifest.json, which holds the paths it was given."""
    lines = sorted(
        f"{path.relative_to(out).as_posix()} "
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}\n"
        for path in out.rglob("*")
        if path.is_file() and path.name != "manifest.json")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# Every command on the bundled game, with the digest of its output files.
# A change that alters an output updates its digest and says why.
PINNED_RUNS = {
    "simulate-boundary": (
        ["simulate", "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5"],
        "580762f10e330f6bba3d5431d940f59e"
        "c286c77b0a2fbc19fd64fdb7290da9e7"),
    "simulate-interior": (
        ["simulate", "--policy", POLICY_INTERIOR, "--x0", "0.5,0.5,0.5"],
        "d47129dd70a75ed7ff00e8c1bbf4ef5c"
        "e80fb03f7c8d189989131b61ca0734b4"),
    "portrait": (
        ["portrait", "--policy", POLICY_BOUNDARY, "--grid", "3",
         "--dt", "0.05"],
        "49014425024602f5ece67baaacb8eb8c"
        "14d49109b53adccf26c207bee5e4221b"),
    "sweep": (
        ["sweep", "--policy", POLICY_BOUNDARY, "--grid", "3",
         "--d-values", "0,0.5,1.2", "--dt", "0.05"],
        "f4f0de044b4ebe20cdf388f9e5333d91"
        "0ce4b90a5583b9175972211c47faa8be"),
    "verify-boundary": (
        ["verify", "--policy", POLICY_BOUNDARY, "--grid-per-dim", "10"],
        "6639abff69daf13b5f3823856c4de59f"
        "bb531fffe85c98652c41ce36668cd6bc"),
    "verify-interior": (
        ["verify", "--policy", POLICY_INTERIOR, "--grid-per-dim", "10"],
        "489beae24ff4f5de711f97f7af38e686"
        "0849597d017fdcdd0e73fc442d265cc6"),
    "agents-expected": (
        ["agents", "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
         "--n-agents", "20000", "--rounds", "300"],
        "5ccd5b0a2ab35009f2755ecf93dc2f9a"
        "0dd92a4ed1e97013b235265741168fff"),
    "agents-sampled": (
        ["agents", "--policy", POLICY_BOUNDARY, "--x0", "0.5,0.5,0.5",
         "--n-agents", "20000", "--rounds", "300", "--sampled-matches"],
        "a2b175b7a8242dc4ee23188a55cbc222"
        "05db751fb43a4fe31c20ccab87177af8"),
}


class TestOutputBytes:
    @pytest.mark.parametrize("name", list(PINNED_RUNS))
    def test_outputs_match_their_pinned_digest(self, tmp_path, name):
        argv, digest = PINNED_RUNS[name]
        out = tmp_path / name
        assert main([*argv, "--scenario", SCENARIO, "--out", str(out)]) == 0
        assert output_digest(out) == digest

    def test_verify_three_action_report_matches_its_pinned_digest(
            self, tmp_path):
        # the bound on a seeded (3, 3) game and a vertex target: 7.58200...
        # from 166,375 lattice states, 20,000 samples and 2,653 ascent
        # evaluations
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            random_scenario(np.random.default_rng(1), 3, 3).to_dict()))
        out = tmp_path / "verify"
        assert main(["verify", "--scenario", str(scenario), "--y-star",
                     "1,0,0", "--grid-per-dim", "10", "--seed", "1",
                     "--out", str(out)]) == 0
        report = (out / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "68ba0dbcd26abf0d7035a27a4f01635b"
            "6a336f70f15840689e249cc547b27c42")


class TestBenchmarkCommandLines:
    """Every command line of the benchmark parses into its manifest."""

    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    def test_workload_argv_builds_its_manifest(self, tmp_path, name):
        case = workloads.WORKLOADS[name].prepare(1, tmp_path)
        args = cli.build_parser().parse_args(
            [*case.argv, "--out", str(tmp_path / "out")])
        manifest = cli._build_manifest(args, args.command)
        assert manifest["command"] == case.argv[0]
        passed = [token for token in case.argv if token.startswith("--")]
        for flag, _, section, options in cli.FLAGS:
            key = options.get("dest", flag[2:].replace("-", "_"))
            if flag in passed and section not in (None, "policy"):
                held = manifest[section] if section else manifest
                assert held[key] == getattr(args, key), flag
        policy = case.argv[case.argv.index("--policy") + 1]
        assert manifest["policy"] == read_json(Path(policy))


# Runs main(argv[1:]) in a fresh interpreter limited to 2 GB of address space.
ADDRESS_SPACE_CAP = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from replicator_ctl.cli import main
sys.exit(main(sys.argv[1:]))
"""


# Runs in a fresh interpreter: argv[1] is a JSON list of (label, argv,
# exit code) runs, none of which may load SciPy.
IMPORT_GUARD = """
import json, sys
from replicator_ctl.cli import main
assert "scipy" not in sys.modules, "import replicator_ctl.cli"
for label, argv, code in json.loads(sys.argv[1]):
    assert main(argv) == code, label
    assert "scipy" not in sys.modules, label
"""


class TestEntry:
    def test_version_exits_0(self, monkeypatch, capsys):
        # the installed script's entry point exits with main's code
        monkeypatch.setattr(sys, "argv", ["replicator-ctl", "--version"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0
        assert capsys.readouterr().out == \
            f"replicator-ctl {cli.__version__}\n"

    def test_main_guard_exits_0(self, monkeypatch, capsys):
        # python -m replicator_ctl.cli runs the module again as __main__;
        # runpy warns that it is already imported, as it is here
        monkeypatch.setattr(sys, "argv", ["replicator-ctl", "--version"])
        with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
                pytest.raises(SystemExit) as exc:
            runpy.run_module("replicator_ctl.cli", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out == \
            f"replicator-ctl {cli.__version__}\n"

    def test_json_refuses_an_unknown_type(self):
        # an array is written as its list; anything else json cannot write
        # is a TypeError, never a silent str()
        assert json.dumps(np.arange(2.0), default=cli._json_default) \
            == "[0.0, 1.0]"
        with pytest.raises(TypeError,
                           match="not JSON serializable: <class 'set'>"):
            json.dumps({"a": {1}}, default=cli._json_default)


class TestImportGuard:
    def test_no_command_loads_scipy(self, tmp_path):
        common = ["--scenario", SCENARIO, "--policy", POLICY_BOUNDARY]
        sampling = ["--grid-per-dim", "5", "--samples", "200"]
        runs = [
            ("simulate", ["simulate", *common, "--x0", "0.5,0.5,0.5",
                          "--t-max", "2", "--out", str(tmp_path / "sim")], 0),
            ("portrait", ["portrait", *common, "--x0", "0.2,0.4,0.6",
                          "--x0", "0.8,0.6,0.4", "--t-max", "2",
                          "--out", str(tmp_path / "por")], 0),
            ("sweep", ["sweep", *common, "--d-values", "0,1.2",
                       "--grid", "2", "--t-max", "2",
                       "--out", str(tmp_path / "swp")], 0),
            ("agents", ["agents", *common, "--x0", "0.5,0.5,0.5",
                        "--n-agents", "200", "--rounds", "5",
                        "--out", str(tmp_path / "agt")], 0),
            ("verify", ["verify", *common, *sampling,
                        "--out", str(tmp_path / "ver")], 0),
        ]
        # three-action games with tied payoffs at the target: verify's
        # equilibrium enumeration solves restricted systems for them
        for name, (scen, y_star, *_), code in [
                ("tied-once", tied_once_game(), 0),
                ("tied", tied_everywhere_game(), cli.EXIT_INAPPLICABLE)]:
            scenario = tmp_path / f"{name}.json"
            scenario.write_text(json.dumps(scen.to_dict()))
            runs.append((f"verify {name}", [
                "verify", "--scenario", str(scenario), "--y-star",
                ",".join(map(repr, y_star.tolist())), *sampling,
                "--out", str(tmp_path / name)], code))
        src = str(REPO / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, json.dumps(runs)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert read_json(tmp_path / "tied-once" / "report.json")["applicable"]
        assert read_json(tmp_path / "tied" / "report.json")["reason"] == \
            "multiple_target_equilibria"
