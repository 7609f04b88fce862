"""Acceptance suite: the eight exit criteria, each printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; the heavy runs (the two controlled portraits) are
shared across criteria via module-scoped fixtures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from replicator_ctl import (
    ControlPolicy,
    IntegrationConfig,
    Scenario,
    aggregate_output,
    field_controlled,
    field_uncontrolled,
    interior_grid,
    phase_portrait,
    simulate,
)
from replicator_ctl.agents import init_agents, round_time_step, run
from replicator_ctl.stability import (
    LyapunovObserver,
    SamplingConfig,
    estimate_subsidy_bound,
    find_target_equilibria,
    min_advantage_on_matching_set,
    _mismatch_batch,
)
from conftest import (
    FIVE_STARTS,
    certificate_terms,
    five_start_states,
    local_shift,
    lyapunov_value,
    random_policy,
    random_scenario,
    random_state,
    region_floors,
    z_state,
)

ENDPOINT_TOL = 1e-3


def report(criterion: int, description: str, ok: bool) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {description}")
    assert ok, f"criterion {criterion} failed: {description}"


@dataclass
class PortraitRun:
    trajectories: list
    elapsed: float
    policy: ControlPolicy
    dt: float


def _controlled_run(scenario: Scenario, policy: ControlPolicy) -> PortraitRun:
    eqs = find_target_equilibria(scenario, policy.y_star)
    observer = LyapunovObserver(eqs[0], scenario)
    starts = five_start_states() + list(interior_grid(scenario, 9))
    cfg = IntegrationConfig(record_stride=25)
    begin = time.perf_counter()
    results = phase_portrait(scenario, policy, starts, cfg,
                             observer=observer)
    elapsed = time.perf_counter() - begin
    return PortraitRun(trajectories=results, elapsed=elapsed, policy=policy,
                       dt=cfg.dt)


@pytest.fixture(scope="module")
def run_boundary(threepop, policy_boundary) -> PortraitRun:
    return _controlled_run(threepop, policy_boundary)


@pytest.fixture(scope="module")
def run_interior(threepop, policy_interior) -> PortraitRun:
    return _controlled_run(threepop, policy_interior)


def test_criterion_1_bistability_without_control(threepop):
    begin = time.perf_counter()
    results = phase_portrait(threepop, ControlPolicy.off(2),
                             five_start_states(), IntegrationConfig())
    elapsed = time.perf_counter() - begin
    attractors = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])]
    reached = set()
    within = True
    for outcome in results:
        endpoint = outcome.final_state[:, 0]
        distances = [np.max(np.abs(endpoint - att)) for att in attractors]
        if min(distances) > ENDPOINT_TOL:
            within = False
        reached.add(int(np.argmin(distances)))
    report(1, f"five uncontrolled starts split over both rest points "
              f"(elapsed {elapsed:.2f}s)",
           within and reached == {0, 1} and elapsed < 5.0)


def test_criterion_2_boundary_target_global_convergence(run_boundary):
    endpoints = np.array([t.final_state[:, 0] for t in run_boundary.trajectories])
    max_dist = np.max(np.abs(endpoints - 1.0))
    by_horizon = all(t.times[-1] <= 200.0 + 1e-9
                     for t in run_boundary.trajectories)
    report(2, f"d=1.2 drives 5 starts + 9^3 grid to unanimity "
              f"(max dist {max_dist:.2e}, elapsed {run_boundary.elapsed:.1f}s)",
           max_dist <= ENDPOINT_TOL and by_horizon
           and run_boundary.elapsed < 60.0)


def test_criterion_3_interior_target_global_convergence(run_interior):
    target_state = np.array([0.0, 1.0, 1.0])
    endpoints = np.array([t.final_state[:, 0] for t in run_interior.trajectories])
    max_dist = np.max(np.abs(endpoints - target_state))
    outputs = np.array([t.final_output for t in run_interior.trajectories])
    out_dist = np.max(np.abs(outputs - np.array([0.8, 0.2])))
    report(3, f"d=1.5 drives the grid to the mixed-share rest point and the "
              f"output to (0.8, 0.2) (state {max_dist:.2e}, output "
              f"{out_dist:.2e}, elapsed {run_interior.elapsed:.1f}s)",
           max_dist <= ENDPOINT_TOL and out_dist <= ENDPOINT_TOL
           and run_interior.elapsed < 60.0)


def test_criterion_4_gain_bound_reproduction(threepop):
    begin = time.perf_counter()
    sampling = SamplingConfig(grid_per_dim=21, random_samples=100_000,
                              ascent_iters=80)
    outcomes = {}
    for label, target, threshold in (("boundary", [1.0, 0.0], 1.2),
                                     ("interior", [0.8, 0.2], 1.5)):
        y_star = np.array(target)
        eq = find_target_equilibria(threepop, y_star)[0]
        estimate = estimate_subsidy_bound(eq, threepop, sampling)
        min_adv, _ = min_advantage_on_matching_set(eq, threepop)
        outcomes[label] = (estimate.value, threshold, min_adv)
    elapsed = time.perf_counter() - begin
    ok = all(value < threshold and f1_min >= -1e-9
             for value, threshold, f1_min in outcomes.values())
    detail = ", ".join(f"{label}: sup~{value:.4f}<{threshold}, "
                       f"min advantage {f1_min:.1e}"
                       for label, (value, threshold, f1_min)
                       in outcomes.items())
    report(4, f"gain bounds below the published levels ({detail}, "
              f"elapsed {elapsed:.1f}s)", ok and elapsed < 120.0)


def test_criterion_5_target_equilibria_reproduction(threepop):
    found_boundary = find_target_equilibria(threepop, np.array([1.0, 0.0]))
    found_interior = find_target_equilibria(threepop, np.array([0.8, 0.2]))
    ok = (len(found_boundary) == 1
          and np.allclose(found_boundary[0].state[:, 0], [1, 1, 1])
          and len(found_interior) == 1
          and np.allclose(found_interior[0].state[:, 0], [0, 1, 1]))
    report(5, "target equilibria are exactly {(1,1,1)} and {(0,1,1)}", ok)


def test_criterion_6_property_suite(threepop, policy_boundary,
                                    policy_interior):
    begin = time.perf_counter()
    rng = np.random.default_rng(2024)

    # local-shift invariance of both fields, 10^3 cases at 1e-10
    shift_ok = True
    for _ in range(1000):
        scen = random_scenario(rng)
        policy = random_policy(rng, scen)
        x = random_state(rng, scen, interior=0.01)
        shifted = local_shift(scen, int(rng.integers(scen.n_populations)),
                              int(rng.integers(scen.n_actions)),
                              float(rng.uniform(-10, 10)))
        if (np.max(np.abs(field_uncontrolled(shifted, x)
                          - field_uncontrolled(scen, x))) > 1e-10
                or np.max(np.abs(field_controlled(shifted, x, policy)
                                 - field_controlled(scen, x, policy))) > 1e-10):
            shift_ok = False
            break

    # growth floors: targeted aggregate shares below the floor rise, 10^3
    floor_ok = True
    checked = 0
    while checked < 1000:
        scen = random_scenario(rng)
        policy = random_policy(rng, scen)
        floors, _ = region_floors(scen, policy)
        carried = np.flatnonzero(policy.y_star > 0)
        i = int(rng.choice(carried))
        x = random_state(rng, scen, interior=0.001)
        squeeze = rng.uniform(0.05, 0.99) * floors[i]
        for k in range(scen.n_populations):
            others = x[k].sum() - x[k, i]
            x[k] *= (1.0 - squeeze) / others
            x[k, i] = squeeze
        y = aggregate_output(x, scen)
        if np.any((policy.y_star > 0) & (y <= 1e-9)):
            continue
        rate = float(scen.shares @ field_controlled(scen, x, policy)[:, i])
        if rate <= 0.0:
            floor_ok = False
            break
        checked += 1

    # invariant-region confinement for trajectories started inside it
    confinement_ok = True
    for policy in (policy_boundary, policy_interior):
        _, epsilon = region_floors(threepop, policy)
        carried = policy.y_star > 0
        accepted = 0
        while accepted < 5:
            x0 = random_state(rng, threepop, interior=0.01)
            if np.any(aggregate_output(x0, threepop)[carried] < epsilon):
                continue
            accepted += 1
            traj = simulate(threepop, policy, x0,
                            IntegrationConfig(t_max=50.0))
            if traj.outputs[:, carried].min() < epsilon - 1e-12:
                confinement_ok = False

    # rest points of the base dynamics stay at rest for d in {0.5, 1, 10}
    rest_ok = True
    for _ in range(1000):
        scen = random_scenario(rng)
        combo = rng.integers(0, scen.n_actions, size=scen.n_populations)
        x = np.zeros((scen.n_populations, scen.n_actions))
        x[np.arange(scen.n_populations), combo] = 1.0
        y_star = aggregate_output(x, scen)
        for d in (0.5, 1.0, 10.0):
            policy = ControlPolicy(y_star=y_star, d=d)
            if np.max(np.abs(field_controlled(scen, x, policy))) > 1e-9:
                rest_ok = False

    # output-mismatch positivity with equality only at the target, 10^4
    y_star = np.array([0.8, 0.2])
    states = rng.dirichlet(np.ones(2), size=(10_000, 3))
    outputs = np.einsum("k,bki->bi", threepop.shares, states)
    keep = outputs[:, y_star > 0].min(axis=1) > 1e-12
    mismatch = _mismatch_batch(outputs[keep].T, y_star)
    deviations = np.max(np.abs(outputs[keep] - y_star), axis=1)
    jensen_ok = (np.all(mismatch >= -1e-12)
                 and np.all(deviations[mismatch < 1e-12] < 1e-6))

    # analytic certificate rate vs central finite differences, 10^3 at 1e-4
    fd_ok = True
    eq = find_target_equilibria(threepop, np.array([1.0, 0.0]))[0]
    h = 1e-6
    for _ in range(1000):
        x = random_state(rng, threepop, interior=0.01)
        flow = field_controlled(threepop, x, policy_boundary)
        fd = (lyapunov_value(x + h * flow, eq, threepop)
              - lyapunov_value(x - h * flow, eq, threepop)) / (2.0 * h)
        analytic = certificate_terms(x, eq, threepop,
                                     policy_boundary.d)["Vdot"]
        if abs(fd - analytic) > 1e-4 * max(1.0, abs(analytic)):
            fd_ok = False
            break

    elapsed = time.perf_counter() - begin
    checks = {
        "shift invariance": shift_ok,
        "growth floors": floor_ok,
        "confinement": confinement_ok,
        "rest retention": rest_ok,
        "mismatch positivity": jensen_ok,
        "rate consistency": fd_ok,
    }
    detail = ", ".join(f"{name}: {'ok' if ok else 'FAIL'}"
                       for name, ok in checks.items())
    report(6, f"property suite ({detail}, elapsed {elapsed:.1f}s)",
           all(checks.values()) and elapsed < 120.0)


def test_criterion_7_certificate_monotonicity(run_boundary, run_interior):
    worst_increase = -np.inf
    worst_final = -np.inf
    for bundle in (run_boundary, run_interior):
        tol = 1e-6 * bundle.dt
        for traj in bundle.trajectories:
            worst_increase = max(worst_increase, traj.max_V_step_increase)
            worst_final = max(worst_final, traj.observables["V"][-1])
    report(7, f"certificate never rises per step (worst increase "
              f"{worst_increase:.1e} < {1e-6 * run_boundary.dt:.0e}) and ends "
              f"below 1e-6 (worst final {worst_final:.1e})",
           worst_increase < 1e-6 * run_boundary.dt and worst_final < 1e-6)


def test_criterion_8_mean_field_agreement(threepop, policy_boundary):
    begin = time.perf_counter()
    n_agents = 10_000
    x0 = z_state((0.5, 0.5, 0.5))
    dt = round_time_step(threepop, policy_boundary)
    rounds = int(np.ceil(50.0 / dt))
    reference = simulate(threepop, policy_boundary, x0,
                         IntegrationConfig(dt=dt, t_max=rounds * dt + 1e-12,
                                           convergence_window=10 ** 9))
    deviations = []
    budget_ok = True
    for seed in range(10):
        pop = init_agents(threepop, x0, n_agents, seed=seed)
        series = run(pop, threepop, policy_boundary, rounds)
        empirical = np.array([s.empirical_output[0] for s in series])
        length = min(empirical.shape[0], reference.outputs.shape[0])
        deviations.append(
            np.max(np.abs(empirical[:length] - reference.outputs[:length, 0])))
        for stats in series:
            paid = float(stats.action_counts @ stats.per_agent_subsidy)
            if abs(paid - stats.total_subsidy) > 1e-9:
                budget_ok = False
    mean_dev = float(np.mean(deviations))
    elapsed = time.perf_counter() - begin
    report(8, f"10-seed finite runs track the continuum output "
              f"(mean sup deviation {mean_dev:.4f} < 0.05, budget exact, "
              f"elapsed {elapsed:.1f}s)",
           mean_dev < 0.05 and budget_ok and elapsed < 120.0)
