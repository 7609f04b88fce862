"""Command-line behavior: outputs, exit codes, provenance, reproducibility."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from replicator_ctl import Scenario, scenario_digest
from replicator_ctl.cli import main
from conftest import THREEPOP_PAYOFFS, THREEPOP_SHARES

REPO = Path(__file__).resolve().parent.parent
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

    def test_unreachable_target_exits_3(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", "--scenario", SCENARIO,
                     "--y-star", "0.6,0.4", "--d", "1",
                     "--out", str(out)])
        assert code == 3
        report = read_json(out / "report.json")
        assert not report["applicable"]
        assert report["reason"] == "no_target_equilibrium"


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

    def test_empty_d_list_gives_empty_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY,
                     "--d-values", "", "--grid", "3", "--out", str(out)])
        assert code == 0
        lines = [line for line in (out / "sweep.csv").read_text().splitlines()
                 if line and not line.startswith("#")]
        assert lines == ["d,fraction_converged,max_final_distance"]

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
        code = main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY,
                     "--x0", "0,0,0", "--n-agents", "500",
                     "--rounds", "10", "--out", str(tmp_path / "o")])
        assert code == 4
        assert "no agents" in capsys.readouterr().err

    def test_too_few_agents_exits_1(self, tmp_path, capsys):
        code = main(["agents", "--scenario", SCENARIO,
                     "--policy", POLICY_BOUNDARY,
                     "--x0", "0.5,0.5,0.5", "--n-agents", "10",
                     "--rounds", "10", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "need at least 100 agents" in capsys.readouterr().err

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


# Runs in a fresh interpreter: argv[1] is a JSON list of (label, argv) runs
# that must leave SciPy unloaded, argv[2] the argv of a verify run that
# must load it.
IMPORT_GUARD = """
import json, sys
from replicator_ctl.cli import main
assert "scipy" not in sys.modules, "import replicator_ctl.cli"
for label, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, label
    assert "scipy" not in sys.modules, label
assert main(json.loads(sys.argv[2])) == 0, "verify"
assert "scipy" in sys.modules, "verify"
"""


class TestImportGuard:
    def test_scipy_is_loaded_only_by_verify(self, tmp_path):
        common = ["--scenario", SCENARIO, "--policy", POLICY_BOUNDARY]
        runs = [
            ("simulate", ["simulate", *common, "--x0", "0.5,0.5,0.5",
                          "--t-max", "2", "--out", str(tmp_path / "sim")]),
            ("portrait", ["portrait", *common, "--x0", "0.2,0.4,0.6",
                          "--x0", "0.8,0.6,0.4", "--t-max", "2",
                          "--out", str(tmp_path / "por")]),
            ("sweep", ["sweep", *common, "--d-values", "0,1.2",
                       "--grid", "2", "--t-max", "2",
                       "--out", str(tmp_path / "swp")]),
            ("agents", ["agents", *common, "--x0", "0.5,0.5,0.5",
                        "--n-agents", "200", "--rounds", "5",
                        "--out", str(tmp_path / "agt")]),
        ]
        verify = ["verify", *common, "--grid-per-dim", "5",
                  "--samples", "200", "--out", str(tmp_path / "ver")]
        src = str(REPO / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, json.dumps(runs),
             json.dumps(verify)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "ver" / "report.json").exists()
