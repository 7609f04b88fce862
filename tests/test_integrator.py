"""Stepping accuracy, simplex preservation, invariant-region confinement,
convergence detection, batch portraits, determinism, and CSV export."""

from __future__ import annotations

import numpy as np
import pytest

from replicator_ctl import (
    ControlPolicy,
    IntegrationConfig,
    IntegrationError,
    Scenario,
    aggregate_output,
    detect_convergence,
    field_controlled,
    interior_grid,
    make_state,
    phase_portrait,
    region_bounds,
    rk4_step,
    simulate,
    write_trajectory_csv,
)
from replicator_ctl.integrate import (StepError, Trajectory, _BatchRun,
                                      _check_interior)
from conftest import (
    FIVE_STARTS,
    UNCONTROLLED_ATTRACTORS,
    five_start_states,
    random_policy,
    random_scenario,
    random_state,
    z_state,
)


class TestStep:
    def test_zero_field_is_fixed_point(self, threepop):
        x = z_state((0.3, 0.6, 0.9))
        out = rk4_step(lambda s: np.zeros_like(s), x, 0.01)
        np.testing.assert_array_equal(out, x)

    def test_vertices_unchanged(self, threepop):
        field = lambda s: field_controlled(threepop, s, ControlPolicy.off(2))
        for i in (0, 1):
            x = np.zeros((3, 2))
            x[:, i] = 1.0
            np.testing.assert_array_equal(rk4_step(field, x, 0.01), x)

    def test_fourth_order_error_decay(self, threepop, policy_boundary):
        # interval error against a dt/100 reference shrinks ~16x per halving
        field = lambda s: field_controlled(threepop, s, policy_boundary)

        def advance(x, dt, horizon):
            for _ in range(int(round(horizon / dt))):
                x = rk4_step(field, x, dt)
            return x

        x0 = make_state([[0.5, 0.5]] * 3)
        horizon, dt = 1.0, 0.05
        reference = advance(x0, dt / 100, horizon)
        err = np.max(np.abs(advance(x0, dt, horizon) - reference))
        err_half = np.max(np.abs(advance(x0, dt / 2, horizon) - reference))
        ratio = err / err_half
        assert 12.0 < ratio < 24.0

    def test_inadmissible_step_raises(self):
        # a field pushing hard negative must fail the step
        x = np.array([[0.5, 0.5]])
        field = lambda s: np.array([[-1e6, 1e6]])
        with pytest.raises(StepError):
            rk4_step(field, x, 0.01)

    def test_step_error_names_the_raw_minimum(self):
        # the failed step drifts off sum 1; the message quotes the coordinate
        # that failed, not its renormalized value
        field = lambda s: np.array([[-1e6, 0.0]])
        with pytest.raises(StepError, match=r"min coordinate \S*-9999\.5"):
            rk4_step(field, np.array([[0.5, 0.5]]), 0.01)


class TestSimulate:
    def test_boundary_target_run(self, threepop, policy_boundary):
        traj = simulate(threepop, policy_boundary, z_state((0.01, 0.01, 0.01)))
        assert traj.converged
        np.testing.assert_allclose(traj.final_state[:, 0], [1, 1, 1],
                                   atol=1e-3)

    def test_uncontrolled_endpoint_matches_reference(self, threepop):
        # frozen from the independent adaptive-integrator reference
        traj = simulate(threepop, ControlPolicy.off(2),
                        z_state((0.99, 0.99, 0.01)))
        np.testing.assert_allclose(traj.final_state[:, 0], [0, 1, 1],
                                   atol=1e-3)

    def test_interior_rest_point_stays_put(self):
        # identical populations indifferent at the target: starting exactly
        # on the rest point, the controlled flow must hold it to 1e-9
        payoff = np.array([[0.0, 2.0], [1.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff] * 3),
                        shares=np.array([0.2, 0.3, 0.5]))
        y_star = np.array([2.0 / 3.0, 1.0 / 3.0])
        x0 = np.tile(y_star, (3, 1))
        policy = ControlPolicy(y_star=y_star, d=2.0)
        traj = simulate(scen, policy, x0,
                        IntegrationConfig(t_max=50.0, record_stride=10))
        assert np.max(np.abs(traj.states - x0[None])) < 1e-9

    def test_rejects_non_interior_start(self, threepop, policy_boundary):
        x0 = make_state([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="interior"):
            simulate(threepop, policy_boundary, x0)

    def test_simplex_preserved_along_trajectory(self, threepop,
                                                policy_interior):
        traj = simulate(threepop, policy_interior, z_state((0.2, 0.7, 0.4)))
        sums = traj.states.sum(axis=2)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert traj.states.min() >= 0.0
        np.testing.assert_allclose(
            traj.outputs,
            np.einsum("k,tki->ti", threepop.shares, traj.states),
            atol=1e-14)

    def test_times_strictly_increasing(self, threepop):
        traj = simulate(threepop, ControlPolicy.off(2),
                        z_state((0.3, 0.3, 0.3)),
                        IntegrationConfig(t_max=5.0, record_stride=7))
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0

    def test_determinism_is_bitwise(self, threepop, policy_boundary):
        a = simulate(threepop, policy_boundary, z_state((0.37, 0.21, 0.55)))
        b = simulate(threepop, policy_boundary, z_state((0.37, 0.21, 0.55)))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_unrecoverable_step_failure(self):
        # payoff spread so extreme that even 20 halvings cannot take a step
        payoff = np.array([[0.0, 1e12], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        with pytest.raises(IntegrationError):
            simulate(scen, ControlPolicy.off(2),
                     make_state([[0.5, 0.5], [0.5, 0.5]]),
                     IntegrationConfig(dt=0.1, t_max=1.0))


class TestInvariantRegion:
    def test_targeted_outputs_keep_their_margin(self, threepop,
                                                policy_boundary,
                                                policy_interior):
        # trajectories started with every targeted aggregate share above
        # epsilon never drop below it
        rng = np.random.default_rng(61)
        for policy in (policy_boundary, policy_interior):
            bounds = region_bounds(threepop, policy)
            carried = policy.y_star > 0
            accepted = 0
            while accepted < 4:
                x0 = random_state(rng, threepop, interior=0.01)
                y0 = aggregate_output(x0, threepop)
                if np.any(y0[carried] < bounds.epsilon):
                    continue
                accepted += 1
                traj = simulate(threepop, policy, x0,
                                IntegrationConfig(t_max=50.0))
                margins = traj.outputs[:, carried]
                assert margins.min() >= bounds.epsilon - 1e-12

    def test_random_scenarios_margin(self):
        rng = np.random.default_rng(67)
        done = 0
        while done < 3:
            scen = random_scenario(rng, m=2, n=2)
            policy = random_policy(rng, scen, d_range=(0.5, 3.0))
            bounds = region_bounds(scen, policy)
            carried = policy.y_star > 0
            x0 = random_state(rng, scen, interior=0.01)
            if np.any(aggregate_output(x0, scen)[carried] < bounds.epsilon):
                continue
            traj = simulate(scen, policy, x0, IntegrationConfig(t_max=30.0))
            assert traj.outputs[:, carried].min() >= bounds.epsilon - 1e-12
            done += 1


class TestConvergenceDetection:
    def test_constant_trajectory(self, threepop):
        states = np.tile(z_state((0.4, 0.4, 0.4))[None], (5, 1, 1))
        traj = Trajectory(times=np.arange(5.0), states=states,
                          outputs=np.einsum("k,tki->ti", threepop.shares,
                                            states))
        verdict = detect_convergence(traj, IntegrationConfig())
        assert verdict.converged
        np.testing.assert_array_equal(verdict.limit_state, states[-1])

    def test_interior_target_runs_converge(self, threepop, policy_interior):
        cfg = IntegrationConfig()
        for start in five_start_states():
            traj = simulate(threepop, policy_interior, start, cfg)
            verdict = detect_convergence(traj, cfg)
            assert verdict.converged
            np.testing.assert_allclose(verdict.limit_state[:, 0], [0, 1, 1],
                                       atol=1e-3)

    def test_drifting_trajectory_is_not_converged(self, threepop):
        z = np.linspace(0.2, 0.8, 400)
        states = np.stack([np.stack([z, 1 - z], axis=1)] * 3, axis=1)
        traj = Trajectory(times=np.arange(400.0), states=states,
                          outputs=np.einsum("k,tki->ti", threepop.shares,
                                            states))
        assert not detect_convergence(traj, IntegrationConfig()).converged


class TestPortrait:
    def test_five_starts_reach_frozen_attractors(self, threepop):
        results = phase_portrait(threepop, ControlPolicy.off(2),
                                 five_start_states(), IntegrationConfig())
        assert len(results) == len(FIVE_STARTS)
        for start, outcome in zip(FIVE_STARTS, results):
            assert isinstance(outcome, Trajectory)
            expected = UNCONTROLLED_ATTRACTORS[start]
            np.testing.assert_allclose(outcome.final_state[:, 0], expected,
                                       atol=1e-3)

    def test_first_non_interior_start_is_named(self, threepop):
        starts = five_start_states()
        starts[3] = z_state((0.5, 0.0, 0.5))
        starts[4] = 2.0 * starts[4]  # also bad; the first bad start is named
        with pytest.raises(ValueError) as alone:
            _check_interior(starts[3], threepop, 1e-6, "grid[3]")
        with pytest.raises(ValueError) as info:
            phase_portrait(threepop, ControlPolicy.off(2), starts,
                           IntegrationConfig(dt=0.1, t_max=1.0))
        assert str(info.value) == str(alone.value)
        assert str(info.value).startswith(
            "grid[3]: initial states must be interior (every share >= 1e-06)")

    def test_empty_grid(self, threepop):
        assert phase_portrait(threepop, ControlPolicy.off(2), [],
                              IntegrationConfig()) == []

    def test_duplicate_starts_give_duplicate_results(self, threepop,
                                                     policy_boundary):
        start = z_state((0.25, 0.5, 0.75))
        results = phase_portrait(threepop, policy_boundary, [start, start],
                                 IntegrationConfig(record_stride=10))
        assert np.array_equal(results[0].states, results[1].states)

    def test_batch_matches_single(self, threepop, policy_boundary):
        starts = [z_state((0.1, 0.2, 0.3)), z_state((0.8, 0.6, 0.4))]
        batch = phase_portrait(threepop, policy_boundary, starts,
                               IntegrationConfig())
        for start, outcome in zip(starts, batch):
            single = simulate(threepop, policy_boundary, start,
                              IntegrationConfig())
            assert np.array_equal(single.times, outcome.times)
            assert np.array_equal(single.states, outcome.states)

    def test_trajectory_does_not_depend_on_its_batch(self, threepop,
                                                     policy_boundary):
        rng = np.random.default_rng(73)
        start = z_state((0.15, 0.45, 0.8))
        others = [random_state(rng, threepop, interior=0.01)
                  for _ in range(200)]
        cfg = IntegrationConfig(dt=0.05, record_stride=9)
        alone = simulate(threepop, policy_boundary, start, cfg)
        for batch, pos in (([start, others[0]], 0),
                           (others[:100] + [start] + others[100:], 100)):
            outcome = phase_portrait(threepop, policy_boundary, batch,
                                     cfg)[pos]
            assert np.array_equal(outcome.times, alone.times)
            assert np.array_equal(outcome.states, alone.states)
            assert outcome.converged == alone.converged

    def test_gains_match_one_run_per_gain(self, threepop, policy_boundary):
        starts = five_start_states()
        cfg = IntegrationConfig(dt=0.05, record_stride=13)
        gains = [0.0, 0.6, 1.2]
        merged = phase_portrait(threepop, policy_boundary, starts, cfg,
                                gains=gains)
        assert len(merged) == len(gains) * len(starts)
        for g, d in enumerate(gains):
            policy = (ControlPolicy.off(2) if d == 0.0 else
                      ControlPolicy(y_star=policy_boundary.y_star, d=d))
            for idx, single in enumerate(phase_portrait(threepop, policy,
                                                        starts, cfg)):
                outcome = merged[g * len(starts) + idx]
                assert np.array_equal(outcome.times, single.times)
                assert np.array_equal(outcome.states, single.states)

    @pytest.mark.parametrize("gains", [[1.2, -0.1], [1.2, np.nan],
                                       [1.2, np.inf], [[1.2]]])
    def test_bad_gains_are_refused(self, threepop, policy_boundary, gains):
        with pytest.raises(ValueError, match="gains must be finite values"):
            phase_portrait(threepop, policy_boundary, five_start_states()[:2],
                           IntegrationConfig(), gains=gains)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_first_non_finite_start_is_named(self, threepop, bad):
        starts = five_start_states()
        starts[2] = z_state((0.5, bad, 0.5))
        starts[4] = z_state((bad, 0.5, 0.5))
        with pytest.raises(ValueError, match=r"^grid\[2\]: rows must be "
                                             "finite and sum to 1"):
            phase_portrait(threepop, ControlPolicy.off(2), starts,
                           IntegrationConfig(dt=0.1, t_max=1.0))
        with pytest.raises(ValueError, match=r"^x0: rows must be finite"):
            simulate(threepop, ControlPolicy.off(2), starts[4])

    def test_reassembly_matches_per_member_scan(self, threepop,
                                                policy_boundary):
        # members converge at different steps, some of them off the stride
        cfg = IntegrationConfig(dt=0.05, record_stride=7)
        states0 = np.array(five_start_states()
                           + [z_state((0.3, 0.6, 0.2)),
                              z_state((0.9, 0.1, 0.7))])
        run = _BatchRun(threepop, policy_boundary, states0, cfg)
        records = list(run.records)
        results = run.results()
        final_steps = []
        for member, outcome in enumerate(results):
            steps, rows = [], []
            for step, ids, block in records:
                pos = np.flatnonzero(ids == member)
                if pos.size:
                    steps.append(step)
                    rows.append(block[pos[0]])
            final_steps.append(steps[-1])
            states = np.array(rows)
            assert outcome.converged
            np.testing.assert_array_equal(
                outcome.times, cfg.dt * np.array(steps, dtype=float))
            np.testing.assert_array_equal(outcome.states, states)
            np.testing.assert_array_equal(
                outcome.outputs,
                np.einsum("k,tki->ti", threepop.shares, states))
        assert len(set(final_steps)) == len(states0)
        assert any(step % cfg.record_stride for step in final_steps)

    def test_failures_do_not_abort_batch(self):
        payoff = np.array([[0.0, 1e12], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        starts = [make_state([[0.5, 0.5], [0.5, 0.5]]),
                  make_state([[0.4, 0.6], [0.6, 0.4]])]
        results = phase_portrait(scen, ControlPolicy.off(2), starts,
                                 IntegrationConfig(dt=0.1, t_max=1.0))
        assert len(results) == 2
        assert all(isinstance(r, IntegrationError) for r in results)


class TestGrid:
    def test_two_action_grid_shape_and_floor(self, threepop):
        grid = interior_grid(threepop, 9)
        assert grid.shape == (9 ** 3, 3, 2)
        np.testing.assert_allclose(grid.sum(axis=2), 1.0, atol=1e-12)
        assert grid.min() == pytest.approx(0.01)
        assert grid.max() == pytest.approx(0.99)

    def test_three_action_grid(self):
        rng = np.random.default_rng(71)
        scen = random_scenario(rng, m=2, n=3)
        grid = interior_grid(scen, 4, floor=0.02)
        lattice_size = 10  # compositions of 3 into 3 parts
        assert grid.shape == (lattice_size ** 2, 2, 3)
        assert grid.min() >= 0.02 - 1e-12


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IntegrationConfig(dt=-0.1)
        with pytest.raises(ValueError):
            IntegrationConfig(dt=1.0, t_max=0.5)
        with pytest.raises(ValueError):
            IntegrationConfig(convergence_window=0)


class TestCsvExport:
    def test_layout_and_provenance(self, tmp_path, threepop, policy_boundary):
        traj = simulate(threepop, policy_boundary, z_state((0.5, 0.5, 0.5)),
                        IntegrationConfig(t_max=1.0, record_stride=10))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path), {"artifact": "test", "seed": "0"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# artifact: test"
        assert lines[1] == "# seed: 0"
        assert lines[2] == "t,x1_1,x1_2,x2_1,x2_2,x3_1,x3_2,y_1,y_2"
        data = np.genfromtxt(str(path), delimiter=",", comments="#",
                             skip_header=3)
        assert data.shape == (traj.times.shape[0], 9)
        np.testing.assert_allclose(data[:, 0], traj.times)
        np.testing.assert_allclose(data[:, 1], traj.states[:, 0, 0])

    def test_cells_are_shortest_round_trip_repr(self, tmp_path):
        values = np.array([0.1, -0.0, 5e-324, 1e-20])
        states = np.stack([values, values[::-1]], axis=1)[:, None, :]
        observables = {key: values for key in ("V", "Vdot", "F1", "F2")}
        traj = Trajectory(times=values, states=states, outputs=states[:, 0],
                          observables=observables)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1_1,x1_2,y_1,y_2,V,Vdot,F1,F2"
        expected = np.column_stack([values, values, values[::-1], values,
                                    values[::-1]] + [values] * 4)
        for row, line in zip(expected, lines[1:]):
            cells = line.split(",")
            assert cells == [repr(float(v)) for v in row]
            parsed = np.array([float(cell) for cell in cells])
            assert np.array_equal(parsed.view(np.uint64), row.view(np.uint64))
        assert lines[2].split(",")[:2] == ["-0.0", "-0.0"]
