"""Stepping accuracy, simplex preservation, invariant-region confinement,
convergence detection, batch portraits, determinism, and CSV export."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from replicator_ctl import (
    ControlPolicy,
    IntegrationConfig,
    IntegrationError,
    Scenario,
    aggregate_output,
    field_controlled,
    interior_grid,
    phase_portrait,
    region_bounds,
    simulate,
    write_trajectory_csv,
)
from replicator_ctl import dynamics, integrate
from replicator_ctl.agents import round_time_step
from replicator_ctl.dynamics import BatchKernel, batch_field, scalar_field
from replicator_ctl.integrate import Trajectory, _BatchRun, _check_interior
from replicator_ctl.stability import LyapunovObserver, unique_target_equilibrium
from conftest import (
    FIVE_STARTS,
    UNCONTROLLED_ATTRACTORS,
    assert_same_bits,
    five_start_states,
    make_state,
    random_policy,
    random_scenario,
    random_state,
    z_state,
)


def rk4_step(field, x, dt):
    """One RK4 step of a single state by the integrator's batch step;
    returns the new state and whether it is admissible."""
    fixed, ok = integrate._rk4_step(lambda x: field(x[..., 0])[..., None],
                                    np.asarray(x, dtype=float)[..., None], dt)
    return fixed[..., 0], bool(ok[0])


def kernel_step(scenario, y_star, states, gains, dt):
    """One RK4 step of a (B, m, n) stack on the batch kernel, as a batch
    run takes it; returns the new (B, m, n) states and the mask."""
    kernel = BatchKernel(scenario, y_star, gains)
    fixed, ok = integrate._rk4_step(
        lambda x: batch_field(kernel, x.transpose(2, 0, 1))[0]
        .transpose(1, 2, 0),
        np.ascontiguousarray(np.transpose(states, (1, 2, 0))), dt)
    return fixed.transpose(2, 0, 1), ok


class TestStep:
    def test_zero_field_is_fixed_point(self, threepop):
        x = z_state((0.3, 0.6, 0.9))
        out, ok = rk4_step(lambda s: np.zeros_like(s), x, 0.01)
        assert ok
        np.testing.assert_array_equal(out, x)

    def test_vertices_unchanged(self, threepop):
        field = lambda s: field_controlled(threepop, s, ControlPolicy.off(2))
        for i in (0, 1):
            x = np.zeros((3, 2))
            x[:, i] = 1.0
            out, ok = rk4_step(field, x, 0.01)
            assert ok
            np.testing.assert_array_equal(out, x)

    def test_fourth_order_error_decay(self, threepop, policy_boundary):
        # interval error against a dt/100 reference shrinks ~16x per halving
        field = lambda s: field_controlled(threepop, s, policy_boundary)

        def advance(x, dt, horizon):
            for _ in range(int(round(horizon / dt))):
                x, ok = rk4_step(field, x, dt)
                assert ok
            return x

        x0 = make_state([[0.5, 0.5]] * 3)
        horizon, dt = 1.0, 0.05
        reference = advance(x0, dt / 100, horizon)
        err = np.max(np.abs(advance(x0, dt, horizon) - reference))
        err_half = np.max(np.abs(advance(x0, dt / 2, horizon) - reference))
        ratio = err / err_half
        assert 12.0 < ratio < 24.0

    def test_inadmissible_step_fails_its_mask(self):
        # a field pushing hard negative must fail the step
        x = np.array([[0.5, 0.5]])
        field = lambda s: np.array([[-1e6, 1e6]])
        assert not rk4_step(field, x, 0.01)[1]

    def test_failed_member_keeps_its_raw_minimum(self):
        # the failed step drifts off sum 1; the member keeps the coordinate
        # that failed, not its renormalized value
        field = lambda s: np.array([[-1e6, 0.0]])
        out, ok = rk4_step(field, np.array([[0.5, 0.5]]), 0.01)
        assert not ok
        assert out.min() == -9999.5


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

    def test_agents_reference_final_state_is_pinned(self, threepop,
                                                    policy_boundary):
        # the mean-field reference of the agents-mc benchmark workload: one
        # member, 1,000 steps, no convergence stop
        dt = round_time_step(threepop, policy_boundary)
        cfg = IntegrationConfig(dt=dt, t_max=1000 * dt + 1e-12,
                                convergence_window=10 ** 9, record_stride=1)
        traj = simulate(threepop, policy_boundary, z_state((0.5, 0.5, 0.5)),
                        cfg)
        assert traj.times.size == 1001
        assert [[v.hex() for v in row] for row in traj.states[500].tolist()] \
            == [["0x1.66b94e899eab9p-1", "0x1.328d62ecc2a8dp-2"],
                ["0x1.fffe7cbe3bb4ap-1", "0x1.8341c44b7542dp-17"],
                ["0x1.ffffffefddc75p-1", "0x1.02238ac46f08fp-29"]]
        assert [[v.hex() for v in row] for row in traj.final_state.tolist()] \
            == [["0x1.baa516dd3ff19p-1", "0x1.156ba48b0039bp-3"],
                ["0x1.ffffffff97f51p-1", "0x1.a02bd95149de2p-35"],
                ["0x1.ffffffffffff6p-1", "0x1.0dde4b07c475ep-57"]]

    def test_retry_starts_at_half_step(self, monkeypatch):
        # one step fails and is re-taken as two half steps: 15 steps of 4
        # stages, then 2 x 4 stages, and not the failed full step again;
        # evaluations are counted in whichever field kernel runs
        payoff = np.array([[0.0, 60.0], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        policy = ControlPolicy.off(2)
        real = integrate.batch_field
        real_scalar = integrate.scalar_field
        members = []

        def counted(kernel, states):
            members.append(states.shape[0])
            return real(kernel, states)

        def counted_scalar(scenario, y_star):
            field = real_scalar(scenario, y_star)

            def one(x, d):
                members.append(1)
                return field(x, d)
            return one

        monkeypatch.setattr(integrate, "batch_field", counted)
        monkeypatch.setattr(integrate, "scalar_field", counted_scalar)
        traj = simulate(scen, policy, make_state([[0.99, 0.01], [0.5, 0.5]]),
                        IntegrationConfig(dt=0.2, t_max=3.0))
        assert sum(members) == 15 * 4 + 2 * 4

        def step(x, dt):
            return kernel_step(scen, policy.y_star, x[None], np.zeros(1), dt)

        failed = [k for k in range(15) if not step(traj.states[k], 0.2)[1][0]]
        assert len(failed) == 1
        half, _ = step(traj.states[failed[0]], 0.1)
        assert np.array_equal(step(half[0], 0.1)[0][0],
                              traj.states[failed[0] + 1])

    def test_unrecoverable_step_failure(self):
        # payoff spread so extreme that even 20 halvings cannot take a step
        payoff = np.array([[0.0, 1e12], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        with pytest.raises(IntegrationError):
            simulate(scen, ControlPolicy.off(2),
                     make_state([[0.5, 0.5], [0.5, 0.5]]),
                     IntegrationConfig(dt=0.1, t_max=1.0))


class TestOneMemberPath:
    """A one-member batch steps on Python floats with the batch kernel's
    bits: the scalar RK4 step against _rk4_step, and a trajectory alone
    against the same start inside a batch."""

    @staticmethod
    def batch_step(scen, policy, x, d, dt):
        fixed, ok = kernel_step(scen, policy.y_star, x[None], np.array([d]),
                                dt)
        return fixed[0], bool(ok[0])

    # two larger shapes too, where the generated field is long
    @pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3, 4)
                                     for n in (2, 3, 4)]
                             + [(9, 12), (12, 12)])
    def test_scalar_step_is_the_batch_step(self, m, n):
        rng = np.random.default_rng(200 + 10 * m + n)
        failed = 0
        for trial in range(6):
            scen = random_scenario(rng, m=m, n=n)
            policy = random_policy(rng, scen, boundary_target=trial % 2 == 0)
            field = scalar_field(scen, policy.y_star)
            for d in (0.0, policy.d):
                for dt in (0.01, 0.5, 5.0):
                    x = random_state(rng, scen, interior=0.001)
                    expected, ok = self.batch_step(scen, policy, x, d, dt)
                    got, got_ok = integrate._rk4_scalar(
                        field, x.ravel().tolist(), d, dt, n)
                    assert got_ok == ok
                    assert_same_bits(np.reshape(got, (m, n)), expected)
                    failed += not ok
        assert failed > 0

    def test_drifted_rows_renormalize_as_the_batch_does(self):
        # constant rates that do not sum to zero move every row off sum 1
        rng = np.random.default_rng(83)
        for _ in range(50):
            x = 0.5 * rng.dirichlet(np.ones(4), size=3) + 0.125
            rates = rng.uniform(-1.0, 1.0, size=(3, 4))
            expected, ok = rk4_step(lambda s: rates, x, 0.01)
            got, got_ok = integrate._rk4_scalar(
                lambda s, d: (rates.ravel().tolist(), True),
                x.ravel().tolist(), 0.0, 0.01, 4)
            assert ok and got_ok
            assert_same_bits(np.reshape(got, (3, 4)), expected)

    def test_row_clamped_to_zero_gives_numpy_nan(self):
        # every entry of the first row lands in [-NEG_TOL, 0): the step is
        # admissible, and the row's renormalization is 0/0 in numpy
        x = make_state([[0.5, 0.5], [0.5, 0.5]])
        rates = [[-0.5 - 4e-13, -0.5 - 4e-13], [0.0, 0.0]]
        expected, ok = rk4_step(lambda s: np.array(rates), x, 1.0)
        assert ok and np.all(np.isnan(expected[0]))
        got, got_ok = integrate._rk4_scalar(
            lambda s, d: (sum(rates, []), True), x.ravel().tolist(), 0.0,
            1.0, 2)
        assert got_ok
        assert_same_bits(np.reshape(got, (2, 2)), expected)

    def test_simulate_equals_its_place_in_a_batch(self):
        rng = np.random.default_rng(79)
        cfg = IntegrationConfig(dt=0.05, t_max=4.0, convergence_window=20,
                                record_stride=3)
        for m, n in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 4), (9, 12),
                     (12, 12)):
            scen = random_scenario(rng, m=m, n=n)
            for policy in (ControlPolicy.off(n),
                           random_policy(rng, scen, d_range=(0.5, 3.0)),
                           random_policy(rng, scen, d_range=(0.5, 3.0),
                                         boundary_target=True)):
                starts = [random_state(rng, scen, interior=0.01)
                          for _ in range(4)]
                alone = simulate(scen, policy, starts[2], cfg)
                inside = phase_portrait(scen, policy, starts, cfg)[2]
                assert np.array_equal(inside.times, alone.times)
                assert np.array_equal(inside.states, alone.states)
                assert inside.converged == alone.converged

    def test_observer_sees_the_same_trajectory(self, threepop,
                                               policy_boundary):
        observer = LyapunovObserver(
            unique_target_equilibrium(threepop, policy_boundary.y_star),
            threepop)
        cfg = IntegrationConfig(dt=0.05, t_max=20.0, record_stride=4)
        starts = [z_state((0.2, 0.3, 0.4)), z_state((0.7, 0.1, 0.5))]
        alone = simulate(threepop, policy_boundary, starts[1], cfg,
                         observer=observer)
        inside = phase_portrait(threepop, policy_boundary, starts, cfg,
                                observer=observer)[1]
        assert np.array_equal(inside.states, alone.states)
        assert inside.lyapunov == alone.lyapunov
        for key, column in alone.observables.items():
            assert np.array_equal(inside.observables[key], column)

    def test_final_value_is_the_last_recorded_value(self, threepop,
                                                    policy_boundary):
        observer = LyapunovObserver(
            unique_target_equilibrium(threepop, policy_boundary.y_star),
            threepop)
        seen = set()
        # under gain 1.2 no start converges by t = 20; under 3.0 the starts
        # converge one by one, and the last steps alone from t = 14.5: it
        # reaches the horizon t = 15 alone, or converges alone by t = 20
        for gains, t_max in (([1.2, 3.0], 20.0), ([3.0], 15.0), ([3.0], 20.0)):
            cfg = IntegrationConfig(dt=0.05, t_max=t_max, record_stride=7)
            results = phase_portrait(threepop, policy_boundary,
                                     five_start_states(), cfg,
                                     observer=observer, gains=gains)
            ends = [float(traj.times[-1]) for traj in results]
            for idx, traj in enumerate(results):
                assert_same_bits([traj.lyapunov.final_value],
                                 traj.observables["V"][-1:])
                lone = ends[idx] > max(ends[:idx] + ends[idx + 1:])
                seen.add((lone, traj.converged))
        assert seen == {(False, True), (False, False), (True, True),
                        (True, False)}

    def test_field_is_generated_once_and_only_for_a_lone_member(
            self, monkeypatch, threepop, policy_boundary):
        generated = []
        real = integrate.scalar_field

        def counted(scenario, y_star):
            generated.append(scenario.n_populations * scenario.n_actions ** 2)
            return real(scenario, y_star)

        monkeypatch.setattr(integrate, "scalar_field", counted)
        monkeypatch.setattr(dynamics, "scalar_field", counted)
        # a sweep-style batch never has a lone member, and field_controlled
        # evaluates on the batch kernel
        cfg = IntegrationConfig(dt=0.05, t_max=5.0)
        phase_portrait(threepop, policy_boundary, five_start_states(), cfg,
                       gains=[0.6, 1.2])
        field_controlled(threepop, z_state((0.2, 0.5, 0.7)), policy_boundary)
        assert generated == []
        # members that converge one after another leave one stepping alone
        cfg = IntegrationConfig(dt=0.05, convergence_window=20)
        outcomes = phase_portrait(threepop, policy_boundary,
                                  five_start_states(), cfg)
        assert len({traj.times.size for traj in outcomes}) == 5
        assert generated == [12]
        # halving retries inside a batch, then a lone run that retries
        payoff = np.array([[0.0, 60.0], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        start = make_state([[0.99, 0.01], [0.5, 0.5]])
        cfg = IntegrationConfig(dt=0.2, t_max=3.0)
        phase_portrait(scen, ControlPolicy.off(2),
                       [make_state([[0.3, 0.7], [0.6, 0.4]]), start], cfg)
        simulate(scen, ControlPolicy.off(2), start, cfg)
        assert generated == [12, 8, 8]

    def test_halvings_match_in_a_batch(self):
        # the start of test_retry_starts_at_half_step fails one full step,
        # which is re-taken in halves on its own in both runs
        payoff = np.array([[0.0, 60.0], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        policy = ControlPolicy.off(2)
        cfg = IntegrationConfig(dt=0.2, t_max=3.0)
        start = make_state([[0.99, 0.01], [0.5, 0.5]])
        alone = simulate(scen, policy, start, cfg)
        assert not all(rk4_step(lambda s: field_controlled(scen, s, policy),
                                alone.states[k], 0.2)[1] for k in range(15))
        batch = [make_state([[0.3, 0.7], [0.6, 0.4]]), start,
                 make_state([[0.5, 0.5], [0.2, 0.8]])]
        inside = phase_portrait(scen, policy, batch, cfg)[1]
        assert np.array_equal(inside.times, alone.times)
        assert np.array_equal(inside.states, alone.states)

    def test_domain_failure_is_the_same_error(self):
        # action 1 loses 1e12 against everything and is the target: every
        # first stage, down to dt / 2^20, leaves the controlled field's
        # domain, so the step fails with NaN and cannot be recovered
        payoff = np.array([[-1e12, -1e12], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        policy = ControlPolicy(y_star=np.array([1.0, 0.0]), d=1.0)
        cfg = IntegrationConfig(dt=0.1, t_max=1.0)
        start = make_state([[0.5, 0.5], [0.5, 0.5]])
        field = scalar_field(scen, policy.y_star)
        rates, ok = field(start.ravel().tolist(), policy.d)
        half = cfg.dt / 2 ** (integrate.MAX_HALVINGS + 1)
        stage = start.ravel() + half * np.array(rates)
        assert ok and not field(stage.tolist(), policy.d)[1]
        with pytest.raises(IntegrationError) as alone:
            simulate(scen, policy, start, cfg)
        batch = [make_state([[0.4, 0.6], [0.6, 0.4]]), start]
        inside = phase_portrait(scen, policy, batch, cfg)
        assert all(isinstance(r, IntegrationError) for r in inside)
        # the same step fails; the messages differ only in the member
        assert str(inside[1]).replace("trajectory 1", "trajectory 0") \
            == str(alone.value)


class TestBatchBits:
    """A start has the same bits alone, on the scalar path, as inside
    batches of 2, 3, 17 and 133 on the batch kernel, whatever the gains,
    halvings, domain failures and compactions of the rest of its batch."""

    SIZES = (2, 3, 17, 133)

    @staticmethod
    def same_outcome(got, expected):
        if isinstance(expected, IntegrationError):
            assert isinstance(got, IntegrationError)
            # the messages differ only in the member index
            assert str(got).split(":", 1)[1] == str(expected).split(":", 1)[1]
            return
        assert np.array_equal(got.times.view(np.uint64),
                              expected.times.view(np.uint64))
        assert_same_bits(got.states, expected.states)
        assert got.converged == expected.converged

    def test_alone_equals_inside_batches(self, monkeypatch):
        seen = {"domain": 0, "halved": 0, "converged": 0, "failed": 0}
        real_field = integrate.scalar_field
        real_step = integrate._rk4_scalar
        cfg = IntegrationConfig(dt=0.2, t_max=1.2, convergence_window=3)

        def counted_field(scenario, y_star):
            field = real_field(scenario, y_star)

            def one(x, d):
                rates, ok = field(x, d)
                seen["domain"] += not ok
                return rates, ok
            return one

        def counted_step(field, x, d, dt, n):
            seen["halved"] += dt < cfg.dt
            return real_step(field, x, d, dt, n)

        monkeypatch.setattr(integrate, "scalar_field", counted_field)
        monkeypatch.setattr(integrate, "_rk4_scalar", counted_step)
        for case in range(6):
            rng = np.random.default_rng(500 + case)
            m, n = ((2, 2), (9, 9))[case] if case < 2 else \
                rng.integers(2, 10, size=2).tolist()
            scen = random_scenario(rng, m=m, n=n,
                                   payoff_scale=(5.0, 40.0, 150.0)[case % 3])
            y_star = (np.eye(n)[int(rng.integers(n))] if case % 2
                      else rng.dirichlet(np.ones(n)))
            policy = ControlPolicy(y_star=y_star, d=rng.uniform(0.5, 3.0))
            gains = [0.0, policy.d, 4.0 * policy.d]
            # near-boundary starts under every gain, and a vertex that is a
            # rest point at gain 0 and outside the domain at a positive gain
            probes = [(random_state(rng, scen, interior=0.0005), gains[i % 3])
                      for i in range(6)]
            vertex = np.zeros((m, n))
            vertex[:, int(np.argmin(y_star))] = 1.0
            probes += [(vertex, 0.0), (vertex, policy.d)]
            alone = [_BatchRun(scen, policy, x[None], cfg,
                               gains=np.array([d])).results()[0]
                     for x, d in probes]
            seen["converged"] += sum(getattr(a, "converged", False)
                                     for a in alone)
            seen["failed"] += sum(isinstance(a, IntegrationError)
                                  for a in alone)
            for size, chosen in zip(self.SIZES,
                                    ([6, 0], [7, 1, 2], range(8), range(8))):
                states = [random_state(rng, scen, interior=0.01)
                          for _ in range(size)]
                member_gains = rng.choice(gains, size=size)
                places = rng.permutation(size)[:len(chosen)]
                for place, probe in zip(places, chosen):
                    states[place], member_gains[place] = probes[probe]
                inside = _BatchRun(scen, policy, np.array(states), cfg,
                                   gains=member_gains).results()
                for place, probe in zip(places, chosen):
                    self.same_outcome(inside[place], alone[probe])
        assert min(seen.values()) > 0, seen

    def test_batched_step_raises_no_warning(self, threepop, policy_boundary):
        # one step of six members: in range; outside the domain (NaN);
        # a clamped entry and a drifted row; a row clamped to zeros, which
        # renormalizes to 0/0; below -NEG_TOL; overflowing to inf
        good = z_state((0.4, 0.5, 0.6))
        states = np.array([good, z_state((0.0, 0.0, 0.0))] + [good] * 4)
        kernel = BatchKernel(threepop, policy_boundary.y_star,
                             np.full(6, 1.2))
        rates = np.array([
            [[-0.4 - 4e-13, 0.3], [0.01, -0.01], [0.0, 0.0]],
            [[-0.4 - 4e-13, -0.6 - 4e-13], [0.0, 0.0], [0.0, 0.0]],
            [[-1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            [[1e308, -1e308], [0.0, 0.0], [0.0, 0.0]],
        ]).transpose(1, 2, 0)

        def rhs(x):
            deriv = batch_field(kernel, x.transpose(2, 0, 1))[0]
            deriv = deriv.transpose(1, 2, 0).copy()
            deriv[..., 2:] = rates
            return deriv

        x = np.ascontiguousarray(states.transpose(1, 2, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed, ok = integrate._rk4_step(rhs, x, 1.0)
            # the game of test_domain_failure_is_the_same_error, whose
            # controlled steps leave the domain down to dt / 2^20
            payoff = np.array([[-1e12, -1e12], [0.0, 0.0]])
            outcomes = phase_portrait(
                Scenario(payoffs=np.stack([payoff, payoff]),
                         shares=np.array([0.5, 0.5])),
                ControlPolicy(y_star=np.array([1.0, 0.0]), d=1.0),
                [make_state([[0.5, 0.5], [0.5, 0.5]]),
                 make_state([[0.4, 0.6], [0.6, 0.4]])],
                IntegrationConfig(dt=0.1, t_max=1.0), gains=[0.0, 1.0])
        fixed = fixed.transpose(2, 0, 1)
        assert ok.tolist() == [True, False, True, True, False, False]
        assert np.all(np.isnan(fixed[1]))
        assert fixed[2, 0, 0] == 0.0 and fixed[2, 0].sum() == 1.0
        assert np.all(np.isnan(fixed[3, 0]))
        assert not np.isfinite(fixed[5]).all()
        assert all(isinstance(r, IntegrationError) for r in outcomes)


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
    def test_interior_target_runs_converge(self, threepop, policy_interior):
        cfg = IntegrationConfig()
        for start in five_start_states():
            traj = simulate(threepop, policy_interior, start, cfg)
            assert traj.converged
            assert traj.times[-1] < cfg.t_max
            np.testing.assert_allclose(traj.final_state[:, 0], [0, 1, 1],
                                       atol=1e-3)

    def test_unsettled_run_is_not_converged(self, threepop, policy_interior):
        # a settled run converges when its window fills, and does not when
        # the horizon ends the window one step short
        cfg = IntegrationConfig()
        start = z_state((0.5, 0.5, 0.5))
        settled = simulate(threepop, policy_interior, start, cfg)
        assert settled.converged
        steps = round(settled.times[-1] / cfg.dt)
        short = simulate(threepop, policy_interior, start,
                         IntegrationConfig(t_max=(steps - 1) * cfg.dt))
        assert not short.converged


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
            _check_interior(starts[3], threepop, "grid[3]")
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
                    # blocks are (m, n, k), or flat (m·n,) for a lone member
                    rows.append(block.reshape(3, 2, -1)[..., pos[0]])
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
