"""Tests of the benchmark's own code: span arithmetic, speed scaling, names,
seeded inputs."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import spans
import speed
from workloads import (THREEPOP_DIGEST, THREEPOP_PAYOFFS, THREEPOP_SHARES,
                       WORKLOADS, canonical_digest, critical_subsidy,
                       scenario_dict)

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent, attr=None):
    return (name, start, end, parent, attr)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        span("cli.main", 0, 100, -1),
        span("integrate.phase_portrait", 10, 60, 0),
        span("dynamics.batch_field", 20, 30, 1),
        span("dynamics.batch_field", 25, 40, 1),   # overlaps its sibling
        span("integrate.write_trajectory_csv", 70, 90, 0),
    ]
    assert spans.self_times(recorded) == [30, 30, 10, 15, 20]


def test_self_times_add_up_to_the_command():
    tracer = spans.Tracer()
    root = tracer.open("cli.main")
    for _ in range(3):
        outer = tracer.open("integrate.simulate")
        tracer.mark(spans.TRAJECTORY_MARK)
        tracer.close(outer)
    tracer.close(root)
    recorded = tracer.spans()
    assert sum(spans.self_times(recorded)) == recorded[0][2] - recorded[0][1]


def test_stepping_ends_at_the_first_trajectory():
    recorded = [
        span("cli.main", 0, 200, -1),
        span("integrate.phase_portrait", 0, 100, 0, (7, 5)),
        span("dynamics.batch_field", 10, 20, 1, 4),
        span("stability.observer_values", 20, 25, 1),
        span(spans.TRAJECTORY_MARK, 60, 60, 1),
        span("stability.observer_series", 70, 80, 1),
        span("stability.observer_values", 72, 75, 5),
        span(spans.TRAJECTORY_MARK, 90, 90, 1),
    ]
    metrics = spans.layer_metrics(recorded)
    assert metrics["stepping_s"] == 60e-9
    assert metrics["reassembly_s"] == 40e-9
    assert metrics["step_self_s"] == 45e-9
    assert metrics["observer_values_s"] == 5e-9
    assert metrics["observer_series_s"] == 10e-9
    assert metrics["field_ns_per_member"] == 2.5
    assert (metrics["recorded_rows"], metrics["member_steps"]) == (7, 5)
    layer_sum = sum(metrics[f"{layer}_self_s"] for layer in spans.LAYERS)
    assert abs(layer_sum - metrics["command_s"]) < 1e-15


def test_reference_time_drops_the_bursts_and_divides_by_slowness():
    # bursts take twice their reference time: half speed; the third was
    # preempted and runs long, so the median sets the slowness
    ref = speed.BURST_REF_S
    bursts = [(10.0, 10.0 + 2 * ref), (10.1, 10.1 + 2 * ref),
              (10.2, 10.2 + 9 * ref)]
    assert speed.reference_time(1.0 + 6 * ref, bursts) == pytest.approx(0.5)
    assert speed.reference_time(1.0, []) == 1.0


def test_names_are_well_formed_and_match_the_code():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    empty = spans.layer_metrics([span("cli.main", 0, 1, -1)])
    empty.update(bound_sampling_s=0.0, bound_ascent_s=0.0, untraced_s=0.0,
                 trace_overhead_s=0.0)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(empty)


def test_canonical_scenario_digest():
    raw = scenario_dict(THREEPOP_PAYOFFS, THREEPOP_SHARES)
    assert canonical_digest(raw) == THREEPOP_DIGEST


def _generated(workload, seed, workdir):
    workdir.mkdir()
    case = WORKLOADS[workload].prepare(seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argv = [a.replace(str(workdir), "<dir>") for a in case.argv]
    return argv, files


def test_one_seed_reproduces_identical_inputs(tmp_path):
    for name in WORKLOADS:
        first = _generated(name, 7, tmp_path / f"{name}-a")
        assert first == _generated(name, 7, tmp_path / f"{name}-b")
        assert first != _generated(name, 8, tmp_path / f"{name}-c")


def test_critical_subsidy_matches_the_library():
    from replicator_ctl import Scenario
    from replicator_ctl import stability

    rng = np.random.default_rng(3)
    payoffs = rng.uniform(-5.0, 5.0, size=(3, 3, 3))
    shares = np.array([0.2, 0.3, 0.5])
    states = rng.dirichlet(np.ones(3), size=(50, 3))
    scenario = Scenario(payoffs=payoffs, shares=shares)
    eq = stability.unique_target_equilibrium(scenario,
                                             np.array([1.0, 0.0, 0.0]))
    want = [stability.critical_subsidy(x, eq, scenario) for x in states]
    got = critical_subsidy(payoffs, shares, states)
    np.testing.assert_allclose(got, want, rtol=1e-12)
