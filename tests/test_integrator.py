"""Stepping accuracy, simplex preservation, invariant-region confinement,
convergence detection, batch portraits, determinism, and CSV export."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from replicator_ctl import (
    ControlPolicy,
    IntegrationConfig,
    IntegrationError,
    Scenario,
    SimplexDomainError,
    aggregate_output,
    field_controlled,
    interior_grid,
    phase_portrait,
    simulate,
)
from replicator_ctl import dynamics, integrate
from replicator_ctl.cli import write_trajectory_csv
from replicator_ctl.dynamics import BatchKernel, batch_field
from replicator_ctl.integrate import (CONVERGENCE_TOL, Trajectory, _BatchRun,
                                      _check_interior)
from replicator_ctl.stability import LyapunovObserver, unique_target_equilibrium
from conftest import (
    FIVE_STARTS,
    UNCONTROLLED_ATTRACTORS,
    agents_reference,
    assert_same_bits,
    five_start_states,
    make_state,
    random_policy,
    random_scenario,
    random_state,
    region_floors,
    z_state,
)


# what a batch run holds while it steps: the step functions run under it
RUN_ERRSTATE = {"invalid": "ignore", "divide": "ignore", "over": "ignore"}


def placeholder_kernel(m, n, gains):
    """A batch kernel of the shape (m, n) and ``gains``, on a game of zero
    payoffs: its gains, for a step that does not read its field."""
    scenario = Scenario(payoffs=np.zeros((m, n, n)),
                        shares=np.full(m, 1.0 / m))
    return BatchKernel(scenario, np.full(n, 1.0 / n), gains)


def rk4_step(field, x, dt):
    """One RK4 step of a single state by the integrator's batch step, with
    ``field`` in place of the kernel's; returns the new state and whether
    it is admissible."""
    x = np.asarray(x, dtype=float)

    def one(kernel, states):
        return field(states[0])[None], kernel.all_ok

    with pytest.MonkeyPatch.context() as patch, np.errstate(**RUN_ERRSTATE):
        patch.setattr(integrate, "batch_field", one)
        fixed, ok, _ = integrate._rk4_step(placeholder_kernel(*x.shape, [0.0]),
                                           x[..., None], dt)
    return fixed[..., 0], bool(ok[0])


def kernel_step(scenario, y_star, states, gains, dt):
    """One RK4 step of a (B, m, n) stack on the batch kernel, as a batch
    run takes it; returns the new (B, m, n) states and the mask."""
    kernel = BatchKernel(scenario, y_star, gains)
    with np.errstate(**RUN_ERRSTATE):
        fixed, ok, _ = integrate._rk4_step(
            kernel, np.ascontiguousarray(np.transpose(states, (1, 2, 0))), dt)
    return fixed.transpose(2, 0, 1), ok


def assert_arrays_read_only(traj: Trajectory) -> None:
    """A write into any array of ``traj`` raises."""
    arrays = {"times": traj.times, "states": traj.states,
              "outputs": traj.outputs, **traj.observables}
    assert sorted(arrays) == ["F1", "F2", "V", "Vdot", "outputs", "states",
                              "times"]
    for array in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


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
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        field = lambda s: np.array([[-1e6, 1e6], [0.0, 0.0]])
        assert not rk4_step(field, x, 0.01)[1]

    def test_failed_member_keeps_its_raw_minimum(self):
        # the failed step drifts off sum 1; the member keeps the coordinate
        # that failed, not its renormalized value
        field = lambda s: np.array([[-1e6, 0.0], [0.0, 0.0]])
        out, ok = rk4_step(field, np.array([[0.5, 0.5], [0.5, 0.5]]), 0.01)
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
        with pytest.raises(ValueError,
                           match=r"^x0: share 0\.0 is below 1e-06$"):
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

    def test_arrays_are_read_only(self, threepop, policy_boundary):
        observer = LyapunovObserver(
            unique_target_equilibrium(threepop, policy_boundary.y_star),
            threepop)
        traj = simulate(threepop, policy_boundary, z_state((0.3, 0.6, 0.2)),
                        IntegrationConfig(t_max=5.0), observer=observer)
        assert_arrays_read_only(traj)

    def test_determinism_is_bitwise(self, threepop, policy_boundary):
        a = simulate(threepop, policy_boundary, z_state((0.37, 0.21, 0.55)))
        b = simulate(threepop, policy_boundary, z_state((0.37, 0.21, 0.55)))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_agents_reference_final_state_is_pinned(self, threepop,
                                                    policy_boundary):
        # the mean-field reference of the agents-mc benchmark workload: one
        # member, 1,000 steps, no convergence stop
        traj = agents_reference(threepop, policy_boundary,
                                z_state((0.5, 0.5, 0.5)), 1000)
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
        # the retry takes the route of the full steps, and evaluations are
        # counted on the batch kernel, and on the float route as four to a
        # step, and both routes give the same bits
        payoff = np.array([[0.0, 60.0], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        policy = ControlPolicy.off(2)
        real = integrate.batch_field
        real_step = integrate.float_step
        members = []

        def counted(kernel, states):
            members.append(states.shape[0])
            return real(kernel, states)

        def counted_step(scenario, y_star):
            step = real_step(scenario, y_star)

            def one(x, d, dt):
                members.append(4)
                return step(x, d, dt)
            return one

        monkeypatch.setattr(integrate, "batch_field", counted)
        monkeypatch.setattr(integrate, "float_step", counted_step)
        routes = []
        for work, route in ((0, "kernel"), (10 ** 9, "float")):
            monkeypatch.setattr(integrate, "FLOAT_WORK", work)
            members.clear()
            traj = simulate(scen, policy,
                            make_state([[0.99, 0.01], [0.5, 0.5]]),
                            IntegrationConfig(dt=0.2, t_max=3.0))
            assert sum(members) == 15 * 4 + 2 * 4, route
            routes.append(traj)
        assert_same_bits(routes[0].states, routes[1].states)
        monkeypatch.undo()

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
    """A member stepping on floats has the batch kernel's bits: the float
    RK4 step against _rk4_step, and a trajectory on floats against the
    same start inside a batch on the kernel."""

    @staticmethod
    def batch_step(scen, policy, x, d, dt):
        fixed, ok = kernel_step(scen, policy.y_star, x[None], np.array([d]),
                                dt)
        return fixed[0], bool(ok[0])

    @staticmethod
    def float_route(step, x, d, dt):
        """One member's step on _float_rk4: the new state, whether it is
        admissible, and its stillness."""
        x = np.asarray(x, dtype=float)
        with np.errstate(**RUN_ERRSTATE):
            fixed, ok, still = integrate._float_rk4(
                step, x[..., None], placeholder_kernel(*x.shape, [d]), dt)
        return fixed[..., 0], bool(ok[0]), bool(still[0])

    # two larger shapes too, where the generated step is long
    @pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3, 4)
                                     for n in (2, 3, 4)]
                             + [(9, 12), (12, 12)])
    def test_scalar_step_is_the_batch_step(self, m, n):
        rng = np.random.default_rng(200 + 10 * m + n)
        failed = still = 0
        for trial in range(6):
            scen = random_scenario(rng, m=m, n=n)
            policy = random_policy(rng, scen, boundary_target=trial % 2 == 0)
            step = integrate.float_step(scen, policy.y_star)
            for d in (0.0, policy.d):
                for dt in (1e-9, 0.01, 0.5, 5.0):
                    x = random_state(rng, scen, interior=0.001)
                    expected, ok = self.batch_step(scen, policy, x, d, dt)
                    got, got_ok, got_still = self.float_route(step, x, d, dt)
                    assert got_ok == ok
                    assert_same_bits(np.reshape(got, (m, n)), expected)
                    # the batch loop's max-norm test, on the step's fast
                    # path and off it
                    assert got_still == (ok and np.max(
                        np.abs(expected - x)) < CONVERGENCE_TOL)
                    failed += not ok
                    still += bool(got_still)
        assert failed > 0 and still > 0

    @staticmethod
    def constant_step(rates):
        """The float step around a field of constant rates."""
        rates = np.asarray(rates, dtype=float)
        return integrate._compile_step(
            [f"k{i} = {rate!r}"
             for i, rate in enumerate(rates.ravel().tolist())],
            rates.size, rates.shape[1])

    def test_drifted_rows_renormalize_as_the_batch_does(self):
        # constant rates that do not sum to zero move every row off sum 1
        rng = np.random.default_rng(83)
        for _ in range(50):
            x = 0.5 * rng.dirichlet(np.ones(4), size=3) + 0.125
            rates = rng.uniform(-1.0, 1.0, size=(3, 4))
            expected, ok = rk4_step(lambda s: rates, x, 0.01)
            got, got_ok, _ = self.float_route(self.constant_step(rates), x,
                                              0.0, 0.01)
            assert ok and got_ok
            assert_same_bits(np.reshape(got, (3, 4)), expected)

    def test_row_clamped_to_zero_gives_numpy_nan(self):
        # every entry of the first row lands in [-NEG_TOL, 0): the step is
        # admissible, and the row's renormalization is 0/0 in numpy
        x = make_state([[0.5, 0.5], [0.5, 0.5]])
        rates = [[-0.5 - 4e-13, -0.5 - 4e-13], [0.0, 0.0]]
        expected, ok = rk4_step(lambda s: np.array(rates), x, 1.0)
        assert ok and np.all(np.isnan(expected[0]))
        got, got_ok, still = self.float_route(self.constant_step(rates), x,
                                              0.0, 1.0)
        assert got_ok and not still
        assert_same_bits(np.reshape(got, (2, 2)), expected)

    def test_mixed_batch_settles_as_each_member_alone(self, threepop,
                                                      policy_boundary):
        # a share of round-off below 0 stays in [-NEG_TOL, 0) and is
        # clamped, a row off sum 1 by 1e-9 is renormalized, and the rest
        # take the float step's fast path
        starts = [z_state((0.3, 0.6, 0.2)),
                  make_state([[0.4, 0.6], [-5e-13, 1.0 + 5e-13],
                              [0.5, 0.5]]),
                  make_state([[0.7, 0.3 + 1e-9], [0.2, 0.8], [0.6, 0.4]]),
                  z_state((0.8, 0.1, 0.5))]
        gains, dt = np.full(len(starts), policy_boundary.d), 0.05
        step = integrate.float_step(threepop, policy_boundary.y_star)
        raw = [step(x.ravel().tolist(), policy_boundary.d, dt)
               for x in starts]
        assert [ok for _, ok, _ in raw] == [True, None, None, True]
        assert min(raw[1][0]) < 0.0 <= min(raw[2][0])
        x = np.ascontiguousarray(np.transpose(starts, (1, 2, 0)))
        with np.errstate(**RUN_ERRSTATE):
            fixed, ok, still = integrate._float_rk4(
                step, x, BatchKernel(threepop, policy_boundary.y_star, gains),
                dt)
        assert ok.all()
        assert np.array_equal(still, np.max(np.abs(fixed - x), axis=(0, 1))
                              < CONVERGENCE_TOL)
        assert fixed[1, 0, 1] == 0.0
        assert abs(sum(raw[2][0][:2]) - 1.0) > 1e-12
        assert abs(fixed[0, :, 2].sum() - 1.0) < 1e-15
        expected, expected_ok = kernel_step(threepop, policy_boundary.y_star,
                                            np.array(starts), gains, dt)
        assert np.array_equal(ok, expected_ok)
        assert_same_bits(fixed.transpose(2, 0, 1), expected)
        for member, start in enumerate(starts):
            alone, alone_ok, _ = self.float_route(step, start, gains[member],
                                                  dt)
            assert alone_ok == ok[member]
            assert_same_bits(alone, fixed[..., member])

    def test_simulate_equals_its_place_in_a_batch(self, monkeypatch):
        # alone on floats, inside a batch of four on the kernel
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
                with monkeypatch.context() as patch:
                    patch.setattr(integrate, "FLOAT_WORK", 10 ** 9)
                    alone = simulate(scen, policy, starts[2], cfg)
                with monkeypatch.context() as patch:
                    patch.setattr(integrate, "FLOAT_WORK", 0)
                    inside = phase_portrait(scen, policy, starts, cfg)[2]
                assert np.array_equal(inside.times, alone.times)
                assert np.array_equal(inside.states, alone.states)
                assert inside.converged == alone.converged

    def test_observer_sees_the_same_trajectory(self, threepop,
                                               policy_boundary, monkeypatch):
        observer = LyapunovObserver(
            unique_target_equilibrium(threepop, policy_boundary.y_star),
            threepop)
        cfg = IntegrationConfig(dt=0.05, t_max=20.0, record_stride=4)
        starts = [z_state((0.2, 0.3, 0.4)), z_state((0.7, 0.1, 0.5))]
        alone = simulate(threepop, policy_boundary, starts[1], cfg,
                         observer=observer)
        monkeypatch.setattr(integrate, "FLOAT_WORK", 0)  # on the kernel
        inside = phase_portrait(threepop, policy_boundary, starts, cfg,
                                observer=observer)[1]
        assert np.array_equal(inside.states, alone.states)
        assert inside.max_V_step_increase == alone.max_V_step_increase
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
                assert_same_bits(observer.values(traj.final_state[..., None]),
                                 traj.observables["V"][-1:])
                lone = ends[idx] > max(ends[:idx] + ends[idx + 1:])
                seen.add((lone, traj.converged))
        assert seen == {(False, True), (False, False), (True, True),
                        (True, False)}

    def test_recorded_v_gives_the_largest_rise(self, threepop,
                                               policy_boundary, monkeypatch):
        # stride 3 observes V at every step, stride 1 reads the rises from
        # the recorded V column: both see every step, so the bits agree
        calls = {"values": 0, "series": 0}
        values, series = LyapunovObserver.values, LyapunovObserver.series

        def counted_values(self, states):
            calls["values"] += 1
            return values(self, states)

        def counted_series(self, states, d):
            calls["series"] += 1
            return series(self, states, d)

        monkeypatch.setattr(LyapunovObserver, "values", counted_values)
        monkeypatch.setattr(LyapunovObserver, "series", counted_series)
        rng = np.random.default_rng(4)
        stiff = random_scenario(rng, m=3, n=3, payoff_scale=40.0)
        vertex = np.array([1.0, 0.0, 0.0])
        cases = [(threepop, policy_boundary, five_start_states()),
                 (stiff, ControlPolicy(y_star=vertex, d=8.0),
                  [random_state(rng, stiff, interior=0.01)
                   for _ in range(5)])]
        rises = []
        for scen, policy, starts in cases:
            observer = LyapunovObserver(
                unique_target_equilibrium(scen, policy.y_star), scen)
            by_stride = {}
            for stride in (1, 3):
                cfg = IntegrationConfig(dt=0.05, t_max=10.0,
                                        record_stride=stride)
                calls.update(values=0, series=0)
                runs = phase_portrait(scen, policy, starts, cfg,
                                      observer=observer)
                runs.append(simulate(scen, policy, starts[0], cfg,
                                     observer=observer))
                if stride == 1:  # V comes only from the recorded columns
                    assert calls == {"values": 6, "series": 6}
                by_stride[stride] = [traj.max_V_step_increase
                                     for traj in runs]
            assert by_stride[1] == by_stride[3]
            rises += by_stride[1]
        assert max(rises) > 0.3

    def test_field_is_generated_once_and_only_for_a_lone_member(
            self, monkeypatch, threepop, policy_boundary):
        generated = []
        real = integrate.float_step

        def counted(scenario, y_star):
            generated.append(scenario.n_populations * scenario.n_actions ** 2)
            return real(scenario, y_star)

        monkeypatch.setattr(integrate, "float_step", counted)
        payoff = np.array([[0.0, 60.0], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        start = make_state([[0.99, 0.01], [0.5, 0.5]])

        def sweep_style():
            # never a lone member; field_controlled is on the batch kernel
            cfg = IntegrationConfig(dt=0.05, t_max=5.0)
            phase_portrait(threepop, policy_boundary, five_start_states(),
                           cfg, gains=[0.6, 1.2])
            field_controlled(threepop, z_state((0.2, 0.5, 0.7)),
                             policy_boundary)

        def converging():
            # members that converge one after another leave one alone
            cfg = IntegrationConfig(dt=0.05, convergence_window=20)
            outcomes = phase_portrait(threepop, policy_boundary,
                                      five_start_states(), cfg)
            assert len({traj.times.size for traj in outcomes}) == 5

        def retrying():
            # halving retries inside a batch, then a lone run that retries
            cfg = IntegrationConfig(dt=0.2, t_max=3.0)
            phase_portrait(scen, ControlPolicy.off(2),
                           [make_state([[0.3, 0.7], [0.6, 0.4]]), start], cfg)
            simulate(scen, ControlPolicy.off(2), start, cfg)

        # FLOAT_WORK 2 admits one member at (3, 2) (12 <= 2·7) and at
        # (2, 2) (8 <= 2·6), never two: only a lone member steps on floats,
        # and a run generates its step once (the list gathers all three
        # runs), so the pair's lone retried member generates one, and the
        # lone run another; at 0 everything stays on the kernel; a huge
        # FLOAT_WORK puts every run, its retries too, on floats from its
        # first step
        for work, expected in ((2, ([], [12], [12, 8, 8])),
                               (0, ([], [], [])),
                               (10 ** 9, ([12], [12, 12], [12, 12, 8, 8]))):
            monkeypatch.setattr(integrate, "FLOAT_WORK", work)
            generated.clear()
            for run, want in zip((sweep_style, converging, retrying),
                                 expected):
                run()
                assert generated == want, work

    def test_halvings_match_in_a_batch(self, monkeypatch):
        # the start of test_retry_starts_at_half_step fails one full step,
        # which is re-taken in halves with the same bits, alone and inside
        # a batch stepping on the kernel
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
        monkeypatch.setattr(integrate, "FLOAT_WORK", 0)
        inside = phase_portrait(scen, policy, batch, cfg)[1]
        assert np.array_equal(inside.times, alone.times)
        assert np.array_equal(inside.states, alone.states)

    def test_domain_failure_is_the_same_error(self, monkeypatch):
        # action 1 loses 1e12 against everything and is the target: every
        # first stage, down to dt / 2^20, leaves the controlled field's
        # domain, so the step fails with NaN and cannot be recovered
        payoff = np.array([[-1e12, -1e12], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        policy = ControlPolicy(y_star=np.array([1.0, 0.0]), d=1.0)
        cfg = IntegrationConfig(dt=0.1, t_max=1.0)
        start = make_state([[0.5, 0.5], [0.5, 0.5]])
        half = cfg.dt / 2 ** (integrate.MAX_HALVINGS + 1)
        stage = start + half * field_controlled(scen, start, policy)
        with pytest.raises(SimplexDomainError):
            field_controlled(scen, stage, policy)
        fixed, ok, still = integrate.float_step(scen, policy.y_star)(
            start.ravel().tolist(), policy.d, 2 * half)
        assert not ok and not still and np.all(np.isnan(fixed))
        with pytest.raises(IntegrationError) as alone:
            simulate(scen, policy, start, cfg)
        batch = [make_state([[0.4, 0.6], [0.6, 0.4]]), start]
        monkeypatch.setattr(integrate, "FLOAT_WORK", 0)
        inside = phase_portrait(scen, policy, batch, cfg)
        assert all(isinstance(r, IntegrationError) for r in inside)
        # the same step fails; the messages differ only in the member
        assert str(inside[1]).replace("trajectory 1", "trajectory 0") \
            == str(alone.value)

    def test_failed_members_are_retaken_together(self, monkeypatch):
        # the game of test_domain_failure_is_the_same_error: under gain
        # 1e12 the subsidy nearly balances action 0's loss near the target
        # vertex, and the first step of three such starts fails and
        # recovers at two, three and three halvings; the centre, and every
        # start under gain 1, never recovers
        payoff = np.array([[-1e12, -1e12], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        policy = ControlPolicy(y_star=np.array([1.0, 0.0]), d=1.0)
        dt = 0.1 / 2 ** 14
        cfg = IntegrationConfig(dt=dt, t_max=2 * dt)
        starts = [make_state([[1.0 - a, a], [1.0 - b, b]])
                  for a, b in ((1e-6, 1e-6), (1e-6, 2e-6), (2e-6, 2e-6))]
        starts.append(make_state([[0.5, 0.5], [0.5, 0.5]]))
        real, calls = integrate._BatchRun._retry, []

        def recorded(run, x, gains):
            calls.append((x.copy(), gains.copy()))
            retaken, done = real(run, x, gains)
            calls[-1] += (retaken.copy(), done.copy())
            return retaken, done

        monkeypatch.setattr(integrate._BatchRun, "_retry", recorded)
        outcomes = phase_portrait(scen, policy, starts, cfg,
                                  gains=[1.0, 1e12])
        # one call takes all eight members: the whole first step failed
        x, gains, retaken, done = calls[0]
        assert np.array_equal(x, np.stack(starts * 2, axis=-1))
        assert np.array_equal(gains, [1.0] * 4 + [1e12] * 4)
        step = integrate.float_step(scen, policy.y_star)

        def alone(member):
            # the member's own re-take: level by level, on one member
            for level in range(1, integrate.MAX_HALVINGS + 1):
                current = x[..., member:member + 1]
                kernel = BatchKernel(scen, policy.y_star,
                                     gains[member:member + 1])
                for _ in range(1 << level):
                    with np.errstate(**RUN_ERRSTATE):
                        current, ok, _ = integrate._float_rk4(
                            step, current, kernel, dt / (1 << level))
                    if not ok[0]:
                        break
                else:
                    return level, current[..., 0]
            return None, None

        levels = [alone(member) for member in range(8)]
        assert [level for level, _ in levels] == [None] * 4 + [2, 3, 3, None]
        assert done.tolist() == [False] * 4 + [True, True, True, False]
        for member in (4, 5, 6):
            assert_same_bits(retaken[..., member], levels[member][1])
        for member in (0, 1, 2, 3, 7):
            assert str(outcomes[member]) == (
                f"trajectory {member}: step failed at t=6.10352e-06 after 20 "
                "halvings of dt=6.103515625e-06")

    @pytest.mark.parametrize("work", [0, 10 ** 9], ids=["kernel", "float"])
    def test_no_kernel_changes_after_it_is_built(self, monkeypatch, work):
        # the run of test_failed_members_are_retaken_together on either
        # route: its retries drop the members that fail a substep, and
        # five members leave at the first step; every kernel built for it
        # keeps the arrays it was built with to the end of the run
        payoff = np.array([[-1e12, -1e12], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff, payoff]),
                        shares=np.array([0.5, 0.5]))
        policy = ControlPolicy(y_star=np.array([1.0, 0.0]), d=1.0)
        dt = 0.1 / 2 ** 14
        starts = [make_state([[1.0 - a, a], [1.0 - b, b]])
                  for a, b in ((1e-6, 1e-6), (1e-6, 2e-6), (2e-6, 2e-6))]
        starts.append(make_state([[0.5, 0.5], [0.5, 0.5]]))
        built = []

        def arrays(kernel):
            return [(value.shape, value.tobytes()) for value in (
                kernel.gains, kernel.shares, kernel.columns, kernel.y_star,
                kernel.push, kernel.all_ok)]

        class Recorded(BatchKernel):
            def __init__(self, *args):
                super().__init__(*args)
                built.append((self, arrays(self)))

        monkeypatch.setattr(integrate, "BatchKernel", Recorded)
        monkeypatch.setattr(integrate, "FLOAT_WORK", work)
        outcomes = phase_portrait(scen, policy, starts,
                                  IntegrationConfig(dt=dt, t_max=2 * dt),
                                  gains=[1.0, 1e12])
        assert [isinstance(outcome, Trajectory) for outcome in outcomes] \
            == [False] * 4 + [True] * 3 + [False]
        for kernel, at_build in built:
            assert arrays(kernel) == at_build
        # the run's kernel, a retry's, one for a single member left in a
        # retry, and one for the three members left after the first step
        widths = [kernel.gains.size for kernel, _ in built]
        assert widths[:2] == [8, 8] and 1 in widths and widths[-1] == 3

    def test_large_lone_member_steps_on_the_kernel(self, monkeypatch):
        # at (20, 20) one member's m·n² work is over FLOAT_WORK·(m + 2n):
        # simulate steps on the batch kernel, generates no float step, and
        # has the float route's bits
        rng = np.random.default_rng(88)
        scen = random_scenario(rng, m=20, n=20)
        policy = random_policy(rng, scen, d_range=(0.5, 3.0))
        start = random_state(rng, scen, interior=0.01)
        cfg = IntegrationConfig(dt=0.05, t_max=0.5)
        assert 20 * 20 ** 2 > integrate.FLOAT_WORK * (20 + 2 * 20)
        real, generated = integrate.float_step, []

        def counted(scenario, y_star):
            generated.append(scenario.n_actions)
            return real(scenario, y_star)

        monkeypatch.setattr(integrate, "float_step", counted)
        on_kernel = simulate(scen, policy, start, cfg)
        assert generated == []
        monkeypatch.setattr(integrate, "FLOAT_WORK", 10 ** 9)
        on_floats = simulate(scen, policy, start, cfg)
        assert generated == [20]
        assert on_kernel.times.size == on_floats.times.size == 11
        assert_same_bits(on_kernel.states, on_floats.states)

    def test_large_retries_step_on_the_kernel(self, monkeypatch):
        # at (20, 20) a stiff batch fails steps, and its halving retries
        # take the route that the full steps take: on the kernel, with no
        # float step generated, and with the float route's bits
        rng = np.random.default_rng(8)
        scen = random_scenario(rng, m=20, n=20, payoff_scale=150)
        policy = random_policy(rng, scen)
        starts = [random_state(rng, scen, interior=0.01) for _ in range(3)]
        cfg = IntegrationConfig(dt=0.2, t_max=0.4)
        real_retry, retries = integrate._BatchRun._retry, []
        real_step, generated = integrate.float_step, []

        def recorded(run, x, gains):
            retries.append(gains.size)
            return real_retry(run, x, gains)

        def counted(scenario, y_star):
            generated.append(scenario.n_actions)
            return real_step(scenario, y_star)

        monkeypatch.setattr(integrate._BatchRun, "_retry", recorded)
        monkeypatch.setattr(integrate, "float_step", counted)
        on_kernel = phase_portrait(scen, policy, starts, cfg)
        assert retries and generated == []
        monkeypatch.setattr(integrate, "FLOAT_WORK", 10 ** 9)
        on_floats = phase_portrait(scen, policy, starts, cfg)
        assert generated == [20]
        for got, expected in zip(on_kernel, on_floats):
            assert_same_bits(got.states, expected.states)

    def test_small_batches_step_on_floats_however_few_steps_are_left(
            self, monkeypatch, policy_boundary):
        # the route rule reads only the batch: a lone (8, 8) member of a
        # 100-step run (8·8² = 512 <= 23·24) and the last step of a (3, 2)
        # batch that falls from 26 members to 13 (13·3·2² = 156 <= 23·7)
        # step on floats, with the bits of the kernel route
        assert integrate.FLOAT_WORK == 23
        rng = np.random.default_rng(21)
        scen = random_scenario(rng, m=8, n=8)
        policy = random_policy(rng, scen)
        start = random_state(rng, scen, interior=0.01)
        # on zero payoffs, the 13 starts under gain 0 are still from the
        # first step and converge after 7; under gain 1 they move
        still = Scenario(payoffs=np.zeros((3, 2, 2)),
                         shares=np.array([0.2, 0.3, 0.5]))
        starts = [z_state(rng.uniform(0.1, 0.9, size=3)) for _ in range(13)]
        real_float, sizes = integrate._float_rk4, []

        def recorded(step, x, kernel, dt):
            sizes.append(x.shape[2])
            return real_float(step, x, kernel, dt)

        def lone():
            return [simulate(scen, policy, start,
                             IntegrationConfig(dt=0.05, t_max=5.0))]

        def shrinking():
            cfg = IntegrationConfig(dt=0.25, t_max=2.0, convergence_window=7)
            return phase_portrait(still, policy_boundary, starts, cfg,
                                  gains=[0.0, 1.0])

        monkeypatch.setattr(integrate, "_float_rk4", recorded)
        for run, on_floats in ((lone, [1] * 100), (shrinking, [13])):
            sizes.clear()
            got = run()
            assert sizes == on_floats
            with monkeypatch.context() as patch:
                patch.setattr(integrate, "FLOAT_WORK", 0)
                expected = run()
            assert sizes == on_floats
            assert [traj.times.size for traj in got] == [
                traj.times.size for traj in expected]
            for traj, reference in zip(got, expected):
                assert_same_bits(traj.states, reference.states)


class TestBatchBits:
    """A start has the same bits alone as inside batches of 2, 3, 17 and
    133, whatever the gains, halvings, domain failures and compactions of
    the rest of its batch, on the batch kernel, on floats, and moving from
    the one to the other as its batch shrinks."""

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
        cfg = IntegrationConfig(dt=0.2, t_max=1.2, convergence_window=3)
        routes = {"kernel": 0, "float": 10 ** 9}
        # per forced route; and the runs of the default FLOAT_WORK that
        # step on both, the kernel first
        seen = {route: {"domain": 0, "halved": 0, "converged": 0,
                        "failed": 0} for route in routes}
        seen["default"] = {"handover": 0}
        route, used = [None], set()  # the forced route; what a run used
        real_field = integrate.batch_field
        real_step = integrate.float_step
        real_rk4 = integrate._rk4_step

        def count(key, value):
            if route[0] is not None:
                seen[route[0]][key] += value

        def counted_field(kernel, states):
            rates, ok = real_field(kernel, states)
            used.add("kernel")
            count("domain", int(np.count_nonzero(~ok)))
            return rates, ok

        def counted_rk4(kernel, x, dt):
            # a halving retry's substep on the kernel
            count("halved", dt < cfg.dt)
            return real_rk4(kernel, x, dt)

        def counted_step(scenario, y_star):
            step = real_step(scenario, y_star)
            # what a step that leaves the field's domain returns
            failed = step.__globals__["FAILED"]

            def one(x, d, dt):
                result = step(x, d, dt)
                # a halving retry's substep on floats
                count("halved", dt < cfg.dt)
                if dt == cfg.dt:
                    used.add("float")
                    count("domain", result is failed)
                return result
            return one

        monkeypatch.setattr(integrate, "batch_field", counted_field)
        monkeypatch.setattr(integrate, "float_step", counted_step)
        monkeypatch.setattr(integrate, "_rk4_step", counted_rk4)
        default_work = integrate.FLOAT_WORK
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
            alone = {}
            for route[0], work in routes.items():
                monkeypatch.setattr(integrate, "FLOAT_WORK", work)
                alone[route[0]] = [_BatchRun(scen, policy, x[None], cfg,
                                             gains=np.array([d])).outcomes[0]
                                   for x, d in probes]
                count("converged", sum(getattr(a, "converged", False)
                                       for a in alone[route[0]]))
                count("failed", sum(isinstance(a, IntegrationError)
                                    for a in alone[route[0]]))
            for on_kernel, on_floats in zip(alone["kernel"], alone["float"]):
                self.same_outcome(on_floats, on_kernel)
            for size, chosen in zip(self.SIZES,
                                    ([6, 0], [7, 1, 2], range(8), range(8))):
                states = [random_state(rng, scen, interior=0.01)
                          for _ in range(size)]
                member_gains = rng.choice(gains, size=size)
                places = rng.permutation(size)[:len(chosen)]
                for place, probe in zip(places, chosen):
                    states[place], member_gains[place] = probes[probe]
                # and the default FLOAT_WORK, which hands some batches from
                # the kernel to floats; at 133 it repeats the kernel's pass
                forced = list(routes.items())
                for route[0], work in forced + [(None, default_work)] * (
                        size < 133):
                    monkeypatch.setattr(integrate, "FLOAT_WORK", work)
                    used.clear()
                    inside = _BatchRun(scen, policy, np.array(states), cfg,
                                       gains=member_gains).outcomes
                    for place, probe in zip(places, chosen):
                        self.same_outcome(inside[place],
                                          alone["kernel"][probe])
                    if route[0] is None:
                        seen["default"]["handover"] += used == {"kernel",
                                                                "float"}
        assert min(min(counts.values()) for counts in seen.values()) > 0, seen

    def test_batched_step_raises_no_warning(self, threepop, policy_boundary,
                                            monkeypatch):
        # one step of six members: in range; outside the domain (NaN);
        # a clamped entry and a drifted row; a row clamped to zeros, which
        # renormalizes to 0/0; below -NEG_TOL; overflowing to inf.  The step
        # runs under the np.errstate of a batch run, which the portrait
        # below enters itself
        good = z_state((0.4, 0.5, 0.6))
        states = np.array([good, z_state((0.0, 0.0, 0.0))] + [good] * 4)
        kernel = BatchKernel(threepop, policy_boundary.y_star,
                             np.full(6, 1.2))
        rates = np.array([
            [[-0.4 - 4e-13, 0.3], [0.01, -0.01], [0.0, 0.0]],
            [[-0.4 - 4e-13, -0.6 - 4e-13], [0.0, 0.0], [0.0, 0.0]],
            [[-1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            [[1e308, -1e308], [0.0, 0.0], [0.0, 0.0]],
        ])

        def overridden(kernel, states):
            deriv, ok = batch_field(kernel, states)
            deriv[2:] = rates
            return deriv, ok

        x = np.ascontiguousarray(states.transpose(1, 2, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with monkeypatch.context() as patch, np.errstate(**RUN_ERRSTATE):
                patch.setattr(integrate, "batch_field", overridden)
                fixed, ok, _ = integrate._rk4_step(kernel, x, 1.0)
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


class TestStepEnd:
    """The end of a kernel step: its fast path and the full end agree, and
    a large batch that shrinks as it runs keeps every member's bits."""

    def test_fast_end_is_the_full_end(self, threepop, policy_boundary):
        # one member of each kind: admissible; a round-off negative share,
        # clamped; rows off sum 1 by +1e-9 and -1e-9, renormalized; NaN;
        # inf; and a share below -NEG_TOL, out of the domain
        good = z_state((0.3, 0.6, 0.2))
        kinds = [good.copy() for _ in range(7)]
        kinds[1][1] = [-5e-13, 1.0 + 5e-13]
        kinds[2][0] = [0.7, 0.3 + 1e-9]
        kinds[3][2] = [0.6, 0.4 - 1e-9]
        kinds[4][2, 0] = np.nan
        kinds[5][0, 1] = np.inf
        kinds[6][1] = [-1e-6, 1.0 + 1e-6]
        batch = np.stack(kinds, axis=-1)
        for members in [slice(None)] + [slice(b, b + 1) for b in range(7)]:
            raw = np.ascontiguousarray(batch[..., members])
            kernel = BatchKernel(threepop, policy_boundary.y_star,
                                 np.ones(raw.shape[2]))
            fast, full = raw.copy(), raw.copy()
            with np.errstate(**RUN_ERRSTATE):
                fast_ok = integrate._settle_rows(fast, kernel)
                full_ok = integrate._settle_rows(full)
            assert_same_bits(fast, full)
            assert fast_ok.tolist() == full_ok.tolist()
            # only the admissible member alone takes the fast path
            assert (fast_ok is kernel.all_ok) == (members == slice(0, 1))
        assert full_ok.tolist() == [False]
        with np.errstate(**RUN_ERRSTATE):
            ok = integrate._settle_rows(batch)
        assert ok.tolist() == [True] * 4 + [False] * 3
        assert_same_bits(batch[..., 0], good)
        assert batch[1, 0, 1] == 0.0 and batch[1, 1, 1] == 1.0 + 5e-13
        assert abs(batch[0, :, 2].sum() - 1.0) < 1e-15
        assert abs(batch[2, :, 3].sum() - 1.0) < 1e-15
        assert batch[1, 0, 6] == -1e-6

    def test_large_batch_keeps_each_members_bits(self, threepop,
                                                 policy_boundary,
                                                 monkeypatch):
        # 2,000 members on the kernel to the last: they leave from t = 7
        # to t = 30, and each leave builds a kernel of the new width;
        # sampled members equal their runs alone, on floats
        cfg = IntegrationConfig(dt=0.1, t_max=30.0, convergence_window=10,
                                record_stride=25)
        grid = interior_grid(threepop, 10)
        gains = [0.0, 3.0]
        widths = []

        class Recorded(BatchKernel):
            def __init__(self, *args):
                super().__init__(*args)
                widths.append(self.gains.shape[-1])

        monkeypatch.setattr(integrate, "BatchKernel", Recorded)
        monkeypatch.setattr(integrate, "FLOAT_WORK", 0)
        results = phase_portrait(threepop, policy_boundary, grid, cfg,
                                 gains=gains)
        monkeypatch.undo()
        assert widths[0] == 2 * len(grid) == 2000
        assert len(set(widths)) > 100 and widths[-1] <= 200
        assert len({traj.times[-1] for traj in results}) > 100
        rng = np.random.default_rng(34)
        for member in rng.choice(len(results), size=12, replace=False):
            gain, start = divmod(int(member), len(grid))
            alone = simulate(threepop,
                             ControlPolicy(policy_boundary.y_star,
                                           gains[gain]),
                             grid[start], cfg)
            assert np.array_equal(results[member].times, alone.times)
            assert_same_bits(results[member].states, alone.states)
            assert results[member].converged == alone.converged


class TestInvariantRegion:
    def test_targeted_outputs_keep_their_margin(self, threepop,
                                                policy_boundary,
                                                policy_interior):
        # trajectories started with every targeted aggregate share above
        # epsilon never drop below it
        rng = np.random.default_rng(61)
        for policy in (policy_boundary, policy_interior):
            _, epsilon = region_floors(threepop, policy)
            carried = policy.y_star > 0
            accepted = 0
            while accepted < 4:
                x0 = random_state(rng, threepop, interior=0.01)
                y0 = aggregate_output(x0, threepop)
                if np.any(y0[carried] < epsilon):
                    continue
                accepted += 1
                traj = simulate(threepop, policy, x0,
                                IntegrationConfig(t_max=50.0))
                margins = traj.outputs[:, carried]
                assert margins.min() >= epsilon - 1e-12

    def test_random_scenarios_margin(self):
        rng = np.random.default_rng(67)
        done = 0
        while done < 3:
            scen = random_scenario(rng, m=2, n=2)
            policy = random_policy(rng, scen, d_range=(0.5, 3.0))
            _, epsilon = region_floors(scen, policy)
            carried = policy.y_star > 0
            x0 = random_state(rng, scen, interior=0.01)
            if np.any(aggregate_output(x0, scen)[carried] < epsilon):
                continue
            traj = simulate(scen, policy, x0, IntegrationConfig(t_max=30.0))
            assert traj.outputs[:, carried].min() >= epsilon - 1e-12
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
        assert str(info.value) == "grid[3]: share 0.0 is below 1e-06"

    def test_batch_field_calling_convention(self, threepop, policy_boundary,
                                            monkeypatch):
        # what perfbench's trace reads: each call's states are (B, m, n),
        # and the leading sizes add up to four stages per member-step of a
        # batch kept on the kernel to its last member
        real, members = integrate.batch_field, []

        def recorded(kernel, states):
            assert states.ndim == 3 and states.shape[1:] == (3, 2)
            members.append(states.shape[0])
            return real(kernel, states)

        monkeypatch.setattr(integrate, "batch_field", recorded)
        monkeypatch.setattr(integrate, "FLOAT_WORK", 0)  # never on floats
        grid = interior_grid(threepop, 3)
        results = phase_portrait(threepop, policy_boundary,
                                 np.concatenate([grid, grid]),
                                 IntegrationConfig(dt=0.1, t_max=200.0))
        member_steps = sum(len(traj.times) - 1 for traj in results)
        assert len({len(traj.times) for traj in results}) > 1
        assert sum(members) == 4 * member_steps

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
        with pytest.raises(ValueError,
                           match=r"^grid\[2\]: non-finite share in "):
            phase_portrait(threepop, ControlPolicy.off(2), starts,
                           IntegrationConfig(dt=0.1, t_max=1.0))
        with pytest.raises(ValueError, match=r"^x0: non-finite share in "):
            simulate(threepop, ControlPolicy.off(2), starts[4])

    def test_reassembly_matches_per_member_scan(self, threepop,
                                                policy_boundary):
        # members converge at different steps, some of them off the stride;
        # the oracle runs each start alone, recording every step, and keeps
        # the steps on the stride and the last
        cfg = IntegrationConfig(dt=0.05, record_stride=7)
        states0 = np.array(five_start_states()
                           + [z_state((0.3, 0.6, 0.2)),
                              z_state((0.9, 0.1, 0.7))])
        results = _BatchRun(threepop, policy_boundary, states0, cfg).outcomes
        every_step = dataclasses.replace(cfg, record_stride=1)
        final_steps = []
        for member, outcome in enumerate(results):
            alone = simulate(threepop, policy_boundary, states0[member],
                             every_step)
            last = alone.times.size - 1
            steps = [*range(0, last, cfg.record_stride), last]
            final_steps.append(steps[-1])
            states = alone.states[steps]
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


class TestSink:
    """A batch run hands each member to its sink at the step it leaves."""

    @staticmethod
    def same_outcome(got, expected):
        if isinstance(expected, IntegrationError):
            assert isinstance(got, IntegrationError)
            assert str(got) == str(expected)
            return
        for key in ("times", "states", "outputs"):
            assert_same_bits(getattr(got, key), getattr(expected, key))
        assert sorted(got.observables) == sorted(expected.observables)
        for key, values in expected.observables.items():
            assert_same_bits(got.observables[key], values)
        assert got.max_V_step_increase == expected.max_V_step_increase
        assert got.converged == expected.converged

    @pytest.mark.parametrize("stride", [1, 7])
    def test_each_member_once_in_leave_order(self, threepop, policy_boundary,
                                             stride):
        # a vertex outside the field's domain fails at step 1; five starts
        # converge at distinct steps, 1144 to 1884; two stop at t_max
        # (step 2000, off the stride 7) before converging
        cfg = IntegrationConfig(dt=0.05, t_max=100.0, record_stride=stride)
        observer = LyapunovObserver(
            unique_target_equilibrium(threepop, policy_boundary.y_star),
            threepop)
        states0 = np.array(five_start_states()[:3] + [z_state((0.0,) * 3)]
                           + five_start_states()[3:]
                           + [z_state((0.3, 0.6, 0.2)),
                              z_state((0.9, 0.1, 0.7))])
        expected = _BatchRun(threepop, policy_boundary, states0, cfg,
                             observer).outcomes
        handed = []

        def sink(member, outcome):
            handed.append((member, outcome))
            return f"entry {member}"

        returned = _BatchRun(threepop, policy_boundary, states0, cfg,
                             observer, sink=sink).outcomes
        assert returned == [f"entry {i}" for i in range(len(states0))]
        members = [member for member, _ in handed]
        assert sorted(members) == list(range(len(states0)))
        left_at = [1 if isinstance(outcome, IntegrationError)
                   else round(outcome.times[-1] / cfg.dt)
                   for _, outcome in handed]
        assert list(zip(left_at, members)) == sorted(zip(left_at, members))
        assert str(handed[0][1]).startswith("trajectory 3: step failed at ")
        assert [outcome.converged for _, outcome in handed[1:]] == \
            [True] * 5 + [False] * 2
        assert len(set(left_at[1:6])) == 5
        assert left_at[6:] == [cfg.n_steps] * 2
        for member, outcome in handed:
            self.same_outcome(outcome, expected[member])

    def test_sink_gets_read_only_arrays(self, threepop, policy_boundary):
        observer = LyapunovObserver(
            unique_target_equilibrium(threepop, policy_boundary.y_star),
            threepop)
        cfg = IntegrationConfig(dt=0.05, t_max=5.0, record_stride=3)
        handed = phase_portrait(threepop, policy_boundary,
                                five_start_states(), cfg, observer,
                                sink=lambda idx, outcome: outcome)
        assert len(handed) == 5
        for outcome in handed:
            assert_arrays_read_only(outcome)

    def test_portrait_returns_what_the_sink_returned(self, threepop,
                                                     policy_boundary):
        starts = five_start_states()
        cfg = IntegrationConfig(dt=0.05, record_stride=13)
        gains = [0.6, 1.2]
        expected = phase_portrait(threepop, policy_boundary, starts, cfg,
                                  gains=gains)
        returned = phase_portrait(threepop, policy_boundary, starts, cfg,
                                  gains=gains,
                                  sink=lambda idx, outcome: (idx, outcome))
        assert [idx for idx, _ in returned] == list(range(len(expected)))
        for (_, got), want in zip(returned, expected):
            TestBatchBits.same_outcome(got, want)


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
        grid = interior_grid(scen, 4)
        lattice_size = 10  # compositions of 3 into 3 parts
        assert grid.shape == (lattice_size ** 2, 2, 3)
        assert grid.min() == pytest.approx(integrate.INTERIOR_GRID_FLOOR)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IntegrationConfig(dt=-0.1)
        with pytest.raises(ValueError):
            IntegrationConfig(dt=1.0, t_max=0.5)
        with pytest.raises(ValueError):
            IntegrationConfig(convergence_window=0)

    def test_last_step_may_pass_t_max(self, threepop, policy_boundary):
        # ceil(0.5 / 0.3) = 2 steps: the run ends at 0.6, past t_max by
        # less than dt
        cfg = IntegrationConfig(dt=0.3, t_max=0.5)
        traj = simulate(threepop, policy_boundary, z_state((0.5, 0.5, 0.5)),
                        cfg)
        assert cfg.n_steps == 2
        assert traj.times.tolist() == [0.0, 0.3, 0.6]


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
        write_trajectory_csv(traj, str(path), {})
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

    @pytest.mark.parametrize("n_rows", [1, 255, 256, 257])
    def test_blocks_give_the_one_table_bytes(self, tmp_path, n_rows):
        # the writer formats 256 rows at a time; the bytes are those of one
        # list of the whole table
        rng = np.random.default_rng(n_rows)
        states = rng.dirichlet(np.ones(2), size=(n_rows, 3))
        states[0, 0] = [-0.0, 5e-324]
        observables = {key: rng.normal(size=n_rows) * 10.0 ** power
                       for key, power in zip(("V", "Vdot", "F1", "F2"),
                                             (0, -9, 3, 300))}
        traj = Trajectory(times=0.05 * np.arange(n_rows), states=states,
                          outputs=states.mean(axis=1), observables=observables)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path), {"artifact": "test"})
        table = np.hstack([traj.times[:, None], states.reshape(n_rows, -1),
                           traj.outputs] + [observables[key][:, None] for key
                                            in ("V", "Vdot", "F1", "F2")])
        expected = "".join(
            ["# artifact: test\n",
             "t,x1_1,x1_2,x2_1,x2_2,x3_1,x3_2,y_1,y_2,V,Vdot,F1,F2\n"]
            + [",".join(map(repr, row)) + "\n" for row in table.tolist()])
        assert path.read_bytes() == expected.encode()
