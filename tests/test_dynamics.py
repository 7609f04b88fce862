"""Vector fields, subsidy weights and their one definition across the
package, the invariant-region floors, and the field-level properties:
tangency, shift invariance, growth floors, rest-point retention."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from replicator_ctl import (
    ControlPolicy,
    IntegrationConfig,
    Scenario,
    SimplexDomainError,
    aggregate_output,
    field_controlled,
    field_uncontrolled,
    phase_portrait,
    simulate,
)
from replicator_ctl import integrate
from replicator_ctl.dynamics import (BatchKernel, batch_field,
                                     controlled_payoffs, field_lines,
                                     action_payoffs, subsidy_weights)
from replicator_ctl.stability import _mismatch_batch
from conftest import (assert_same_bits, average_payoff, batch_field_of,
                      expected_payoff, local_shift, make_state, random_policy,
                      random_scenario, random_state, region_floors,
                      round_constants, z_state)


class TestSubsidyWeights:
    def test_ratio(self, policy_boundary):
        f, ok = subsidy_weights(np.array([0.5, 0.5]), policy_boundary.y_star)
        assert f[0] == pytest.approx(2.0)
        assert ok is None  # no share is low

    def test_untargeted_action_gets_zero(self, policy_boundary):
        # an untargeted share of 0 is divided by 1, and does not flag
        y = np.array([[0.1, 0.5, 1.0], [0.9, 0.5, 0.0]])
        f, ok = subsidy_weights(y, policy_boundary.y_star[:, None])
        np.testing.assert_array_equal(f[1], 0.0)
        assert ok.all()

    def test_on_target_weight_is_one(self, policy_interior):
        y = policy_interior.y_star
        f, _ = subsidy_weights(y, y)
        np.testing.assert_allclose(f, [1.0, 1.0])

    def test_domain_violation_raises(self, threepop, policy_boundary):
        # f flags a targeted share of 0 and divides it by 1 ...
        y = np.array([[0.0, 0.5], [1.0, 0.5]])
        f, ok = subsidy_weights(y, policy_boundary.y_star[:, None])
        np.testing.assert_array_equal(ok, [False, True])
        np.testing.assert_array_equal(f[:, 0], [1.0, 0.0])
        # ... and the field raises at the state whose aggregate output is it
        with pytest.raises(SimplexDomainError, match="targeted action 0"):
            field_controlled(threepop, make_state([[0.0, 1.0]] * 3),
                             policy_boundary)

    def test_domain_violation_names_the_first_targeted_action(self):
        # two targeted actions at or below the threshold: the first is named,
        # though the second has the smaller share
        scenario = Scenario(payoffs=np.stack([np.eye(3)] * 2),
                            shares=np.array([0.5, 0.5]))
        policy = ControlPolicy(y_star=np.array([0.5, 0.5, 0.0]), d=1.0)
        with pytest.raises(SimplexDomainError, match="targeted action 0"):
            field_controlled(scenario, make_state([[1e-13, 0.0, 1 - 1e-13]]
                                                  * 2), policy)

    def test_per_agent_amount(self, policy_boundary):
        # the continuum subsidy per agent on action i is d * f_i(y)
        f, _ = subsidy_weights(np.array([0.5, 0.5]), policy_boundary.y_star)
        assert policy_boundary.d * f[0] == pytest.approx(2.4)
        assert policy_boundary.d * f[1] == 0.0

    def test_per_agent_on_target_equals_d(self, policy_interior):
        f, _ = subsidy_weights(policy_interior.y_star, policy_interior.y_star)
        np.testing.assert_allclose(policy_interior.d * f, policy_interior.d)


class TestOneDefinition:
    """The field, the certificate and the agents share y, A^k y and f."""

    @staticmethod
    def batch(m: int, n: int):
        rng = np.random.default_rng(10 * m + n)
        scen = random_scenario(rng, m=m, n=n)
        policy = random_policy(rng, scen, boundary_target=True)
        states = np.array([random_state(rng, scen, interior=0.01)
                           for _ in range(200)])
        x = states.transpose(1, 2, 0)
        y = aggregate_output(x, scen)
        F = action_payoffs(scen, y)
        return scen, policy, states, x, y, F

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (5, 2)])
    def test_field_certificate_and_agents_use_one_weight(self, m, n):
        scen, policy, states, x, y, F = self.batch(m, n)
        f, ok = subsidy_weights(y, policy.y_star[:, None])
        assert ok is None
        # the kernel: replicator field on F + d·f, folded as it folds it
        G = F - (0.0 - policy.d) * f
        avg = x[:, 0] * G[:, 0]
        for i in range(1, n):
            avg += x[:, i] * G[:, i]
        expected = ((G - avg[:, None]) * x).transpose(2, 0, 1)
        assert np.array_equal(batch_field_of(scen, states, policy)[0],
                              expected)
        # the certificate's mismatch, summed over targeted actions in order
        mismatch = np.zeros(states.shape[0])
        for i in np.flatnonzero(policy.y_star > 0.0):
            mismatch += (policy.y_star[i] - y[i]) * f[i]
        assert np.array_equal(_mismatch_batch(y, policy.y_star), mismatch)
        # the agents' weights, from the kernel their rounds read, one
        # output at a time; their sampled-match subsidy row is d·f
        constants = round_constants(scen, policy)
        for b in range(states.shape[0]):
            _, weights, _ = controlled_payoffs(constants.kernel, y[:, b, None])
            assert np.array_equal(weights[:, 0], f[:, b])
            row = scen.payoffs + (policy.d * f[:, b])[:, None]
            stats, gaps = constants.snapshot(y[:, b], sampled_matches=True)
            assert np.array_equal(
                gaps, (row[:, None] - row[:, :, None]) / constants.normalizer)
            # and they pay d·f per head
            assert np.array_equal(stats.per_agent_subsidy,
                                  policy.d * f[:, b])

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (5, 2)])
    def test_agents_table_is_the_controlled_payoff(self, m, n):
        scen, policy, states, x, y, F = self.batch(m, n)
        f, _ = subsidy_weights(y, policy.y_star[:, None])
        constants = round_constants(scen, policy)
        off = round_constants(scen, ControlPolicy.off(n))
        for b in range(states.shape[0]):
            table, _, _ = controlled_payoffs(constants.kernel, y[:, b, None])
            assert np.array_equal(table[..., 0],
                                  F[..., b] + policy.d * f[:, b])
            # the gaps the agents imitate by are the table's differences
            table = table[..., 0]
            assert np.array_equal(
                constants.snapshot(y[:, b])[1],
                (table[:, None] - table[:, :, None]) / constants.normalizer)
            # d = 0: exactly A^k y, and no subsidy row
            table, weights, _ = controlled_payoffs(off.kernel, y[:, b, None])
            assert np.array_equal(table[..., 0], F[..., b])
            assert weights is None
            stats, gaps = off.snapshot(y[:, b], sampled_matches=True)
            assert np.array_equal(
                gaps, (scen.payoffs[:, None] - scen.payoffs[:, :, None])
                / off.normalizer)
            # and they pay nothing
            assert np.array_equal(stats.per_agent_subsidy, np.zeros(n))

    def test_trajectory_outputs_are_the_aggregate_of_each_row(
            self, threepop, policy_boundary):
        starts = [z_state(z) for z in ((0.5, 0.5, 0.5), (0.1, 0.9, 0.3),
                                       (0.7, 0.2, 0.05))]
        for traj in phase_portrait(threepop, policy_boundary, starts,
                                   IntegrationConfig(t_max=20.0)):
            for state, y in zip(traj.states, traj.outputs):
                assert np.array_equal(aggregate_output(state, threepop), y)


class TestPolicy:
    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            ControlPolicy(y_star=np.array([0.5, 0.5]), d=-1.0)

    def test_rejects_non_simplex_target(self):
        with pytest.raises(ValueError):
            ControlPolicy(y_star=np.array([0.5, 0.6]), d=1.0)

    def test_zero_d_encodes_control_off(self):
        policy = ControlPolicy.off(3)
        assert policy.d == 0.0

    def test_tiny_negative_target_entry_targets_nothing(self, threepop,
                                                        monkeypatch):
        # an entry in [-COORD_TOLERANCE, 0) is stored as +0.0, so the batch
        # kernel pays it no subsidy, as the float step does: the field, and
        # a start alone on floats or inside a batch on the kernel, agree
        policy = ControlPolicy(y_star=np.array([1.0 + 1e-13, -1e-13]), d=1.2)
        assert policy.y_star.tolist() == [1.0 + 1e-13, 0.0]
        assert math.copysign(1.0, policy.y_star[1]) == 1.0
        assert math.copysign(1.0, ControlPolicy(
            y_star=np.array([1.0, -0.0]), d=1.2).y_star[1]) == 1.0
        plain = ControlPolicy(y_star=np.array([1.0 + 1e-13, 0.0]), d=1.2)
        x = z_state((0.3, 0.6, 0.2))
        assert_same_bits(field_controlled(threepop, x, policy),
                         field_controlled(threepop, x, plain))
        cfg = IntegrationConfig(dt=0.05, t_max=5.0)
        start = z_state((0.2, 0.5, 0.7))
        alone = simulate(threepop, policy, start, cfg)
        monkeypatch.setattr(integrate, "FLOAT_WORK", 0)
        inside = phase_portrait(threepop, policy,
                                [z_state((0.6, 0.4, 0.3)), start], cfg)[1]
        assert_same_bits(inside.states, alone.states)


class TestUncontrolledField:
    def test_worked_example_rates(self, threepop):
        x = make_state([[0.5, 0.5]] * 3)
        deriv = field_uncontrolled(threepop, x)
        assert deriv[0, 0] == pytest.approx(-0.5)
        assert deriv[2, 0] == pytest.approx(0.5)

    def test_vertices_are_rest_points(self, threepop):
        for i in (0, 1):
            x = np.zeros((3, 2))
            x[:, i] = 1.0
            np.testing.assert_array_equal(field_uncontrolled(threepop, x),
                                          np.zeros((3, 2)))

    def test_tangency(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            scen = random_scenario(rng)
            for _ in range(5):
                x = random_state(rng, scen)
                deriv = field_uncontrolled(scen, x)
                assert np.max(np.abs(deriv.sum(axis=1))) < 1e-10


class TestControlledField:
    def test_worked_example_rate(self, threepop, policy_boundary):
        x = make_state([[0.5, 0.5]] * 3)
        deriv = field_controlled(threepop, x, policy_boundary)
        assert deriv[0, 0] == pytest.approx(0.1)

    def test_on_target_feedback_vanishes(self, threepop, policy_interior):
        # all rows at the target output make y = y_star exactly
        x = make_state([policy_interior.y_star] * 3)
        controlled = field_controlled(threepop, x, policy_interior)
        base = field_uncontrolled(threepop, x)
        np.testing.assert_allclose(controlled, base, atol=1e-14)

    def test_zero_gain_is_exactly_uncontrolled(self, threepop):
        rng = np.random.default_rng(5)
        policy = ControlPolicy(y_star=np.array([0.7, 0.3]), d=0.0)
        for _ in range(50):
            x = random_state(rng, threepop)
            np.testing.assert_array_equal(
                field_controlled(threepop, x, policy),
                field_uncontrolled(threepop, x))

    def test_domain_violation(self, threepop, policy_boundary):
        x = make_state([[0.0, 1.0]] * 3)
        with pytest.raises(SimplexDomainError):
            field_controlled(threepop, x, policy_boundary)

    @pytest.mark.parametrize("shape", [(4, 2), (3, 3), (2, 2), (6,)])
    def test_wrong_shape_is_refused(self, threepop, policy_boundary, shape):
        message = re.escape(f"expected shape (3, 2), got {shape}")
        for field in (lambda x: field_controlled(threepop, x, policy_boundary),
                      lambda x: field_uncontrolled(threepop, x)):
            with pytest.raises(ValueError, match=message):
                field(np.full(shape, 0.5))

    def test_tangency(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            scen = random_scenario(rng)
            policy = random_policy(rng, scen)
            for _ in range(5):
                x = random_state(rng, scen, interior=0.01)
                deriv = field_controlled(scen, x, policy)
                assert np.max(np.abs(deriv.sum(axis=1))) < 1e-10

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(31)
        scen = random_scenario(rng, m=3, n=3)
        policy = random_policy(rng, scen)
        states = np.array([random_state(rng, scen, interior=0.01)
                           for _ in range(40)])
        batch, ok = batch_field_of(scen, states, policy)
        assert ok.all()
        for idx in range(states.shape[0]):
            np.testing.assert_allclose(
                batch[idx], field_controlled(scen, states[idx], policy),
                atol=1e-12)

    def test_batch_rows_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(37)
        scen = random_scenario(rng, m=3, n=3)
        policy = random_policy(rng, scen)
        states = np.array([random_state(rng, scen, interior=0.01)
                           for _ in range(201)])
        batch, _ = batch_field_of(scen, states, policy)
        for size in (1, 2, 7, 64):
            part, _ = batch_field_of(scen, states[-size:], policy)
            assert np.array_equal(part, batch[-size:])
        for idx in range(states.shape[0]):
            assert np.array_equal(batch_field_of(scen, states[idx:idx + 1],
                                                 policy)[0][0], batch[idx])

    @pytest.mark.filterwarnings("error")
    def test_gain_per_member(self, threepop, policy_boundary):
        good = z_state((0.4, 0.5, 0.6))
        bad = z_state((0.0, 0.0, 0.0))
        states = np.array([good, good, bad, bad])
        gains = np.array([0.0, 0.6, 0.0, 0.6])
        batch, ok = batch_field_of(threepop, states, policy_boundary, gains)
        # gain 0: the uncontrolled field, bit for bit, and no domain check
        assert ok.tolist() == [True, True, True, False]
        assert np.array_equal(batch[0], field_uncontrolled(threepop, good))
        assert np.array_equal(batch[2], field_uncontrolled(threepop, bad))
        alone = ControlPolicy(y_star=policy_boundary.y_star, d=0.6)
        assert np.array_equal(batch[1], field_controlled(threepop, good,
                                                         alone))
        assert np.all(np.isnan(batch[3]))

    def test_zero_gain_keeps_the_sign_of_zero(self, policy_boundary):
        # population 0 earns -0.0 on action 1 and +0.0 on action 2, so its
        # uncontrolled field has a -0.0 that adding a +0.0 term would flip
        payoffs = np.array([[[-0.0, -0.0], [0.0, 0.0]],
                            [[1.0, 0.0], [0.0, 2.0]]])
        scen = Scenario(payoffs=payoffs, shares=np.array([0.4, 0.6]))
        x = make_state([[0.3, 0.7], [0.6, 0.4]])
        batch, _ = batch_field_of(scen, np.array([x, x]), policy_boundary,
                                  np.array([0.0, 1.2]))
        base = field_uncontrolled(scen, x)
        assert np.signbit(base[0, 0])
        assert np.array_equal(np.signbit(batch[0]), np.signbit(base))
        assert np.array_equal(batch[0], base)

    @pytest.mark.filterwarnings("error")
    def test_batch_flags_domain_violations(self, threepop, policy_boundary):
        good = z_state((0.4, 0.5, 0.6))
        bad = z_state((0.0, 0.0, 0.0))
        batch, ok = batch_field_of(threepop, np.array([good, bad]),
                                   policy_boundary)
        assert ok.tolist() == [True, False]
        assert np.all(np.isfinite(batch[0]))
        assert np.all(np.isnan(batch[1]))


class TestFreshResults:
    """Every result of the kernel is the caller's: no later call changes
    it."""

    def test_fresh_results_are_not_aliased(self, threepop, policy_boundary):
        # a result is unchanged by a second call on the same kernel, and by
        # the calls on a kernel built for some of its members
        rng = np.random.default_rng(72)
        states = np.array([random_state(rng, threepop, interior=0.01)
                           for _ in range(6)])
        others = np.array([random_state(rng, threepop, interior=0.01)
                           for _ in range(6)])
        kernel = BatchKernel(threepop, policy_boundary.y_star,
                             np.full(6, policy_boundary.d))
        deriv, ok = batch_field(kernel, states)
        y = aggregate_output(states.transpose(1, 2, 0), threepop)
        F, f, _ = controlled_payoffs(kernel, y)
        kept = [array.tobytes() for array in (deriv, ok, F, f)]

        def unchanged():
            assert [array.tobytes() for array in (deriv, ok, F, f)] == kept

        batch_field(kernel, others)
        controlled_payoffs(kernel, y[:, ::-1].copy())
        unchanged()
        members = np.array([True, False, True, False, False, True])
        kernel = BatchKernel(threepop, policy_boundary.y_star,
                             kernel.gains[members])
        batch_field(kernel, others[:3])
        controlled_payoffs(kernel, y[:, :3].copy())
        unchanged()


def generated_field(scenario: Scenario, y_star: np.ndarray):
    """``field(x, d) -> (rates, ok)`` on a flat list of shares, made of the
    statements of :func:`field_lines` as the float step inlines them."""
    size = scenario.n_populations * scenario.n_actions
    body = [", ".join(f"s{i}" for i in range(size)) + ", = x",
            *field_lines(scenario, y_star),
            "return [" + ", ".join(f"k{i}" for i in range(size)) + "], True"]
    namespace = {"FAILED": ([math.nan] * size, False)}
    exec("def field(x, d):\n" + "\n".join("    " + line for line in body),
         namespace)
    return namespace["field"]


class TestScalarCarrier:
    # two larger shapes too, where the generated field is long
    @pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3, 4)
                                     for n in (2, 3, 4)]
                             + [(9, 12), (12, 12)])
    def test_scalar_field_is_the_batch_row(self, m, n):
        # same bits, signs of zero and NaN positions included, as the one
        # member of a batch_field call, at d = 0 and d > 0, for vertex and
        # interior targets, on interior, boundary and out-of-domain states
        rng = np.random.default_rng(100 + 10 * m + n)
        domain_failures = 0
        for trial in range(12):
            scen = random_scenario(rng, m=m, n=n)
            policy = random_policy(rng, scen, boundary_target=trial % 2 == 0)
            if trial % 4 == 0:
                y_star = np.zeros(n)
                y_star[int(rng.integers(n))] = 1.0
                policy = ControlPolicy(y_star=y_star, d=policy.d)
            field = generated_field(scen, policy.y_star)
            for kind in range(4):
                x = random_state(rng, scen, interior=0.01 * (kind == 0))
                if kind == 2:  # every population off the first action
                    x[:, 0] = 0.0
                    x /= x.sum(axis=1, keepdims=True)
                if kind == 3:  # signed zeros must come out signed alike
                    x[0] = -0.0
                for d in (0.0, policy.d):
                    expected, ok = batch_field_of(scen, x[None], policy,
                                                  np.array([d]))
                    got, got_ok = field(x.ravel().tolist(), d)
                    assert got_ok == ok[0]
                    assert_same_bits(np.reshape(got, (m, n)), expected[0])
                    domain_failures += not ok[0]
        assert domain_failures > 0


class TestShiftInvariance:
    def test_both_fields_invariant(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            scen = random_scenario(rng)
            policy = random_policy(rng, scen)
            x = random_state(rng, scen, interior=0.01)
            k = int(rng.integers(scen.n_populations))
            j = int(rng.integers(scen.n_actions))
            b = float(rng.uniform(-10, 10))
            shifted = local_shift(scen, k, j, b)
            np.testing.assert_allclose(
                field_uncontrolled(shifted, x),
                field_uncontrolled(scen, x), atol=1e-10)
            np.testing.assert_allclose(
                field_controlled(shifted, x, policy),
                field_controlled(scen, x, policy), atol=1e-10)


class TestRegionBounds:
    """The floors oracle that the growth-floor and confinement tests use,
    pinned to the paper's worked example and limits."""

    def test_worked_example_floor(self, threepop, policy_boundary):
        assert threepop.payoff_max == 4.0
        assert threepop.payoff_min == 1.0
        floors, _ = region_floors(threepop, policy_boundary)
        assert floors[0] == pytest.approx(1.2 / 4.2)
        assert floors[1] == 0.0

    def test_untargeted_floor_is_zero(self, threepop):
        policy = ControlPolicy(y_star=np.array([0.0, 1.0]), d=2.0)
        floors, _ = region_floors(threepop, policy)
        assert floors[0] == 0.0

    def test_large_gain_limit(self, threepop):
        policy = ControlPolicy(y_star=np.array([0.8, 0.2]), d=1e9)
        floors, _ = region_floors(threepop, policy)
        np.testing.assert_allclose(floors, [0.8, 0.2], rtol=1e-8)

    def test_floor_never_exceeds_target(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            scen = random_scenario(rng)
            policy = random_policy(rng, scen)
            floors, epsilon = region_floors(scen, policy)
            assert scen.payoff_min <= scen.payoff_max
            assert np.all(floors <= policy.y_star + 1e-15)
            carried = policy.y_star > 0
            assert 0.0 < epsilon < floors[carried].min()

    def test_requires_positive_gain(self, threepop):
        with pytest.raises(ValueError):
            region_floors(threepop, ControlPolicy.off(2))


class TestPayoffBounds:
    def test_mixed_profiles_stay_inside_extremes(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            scen = random_scenario(rng)
            lo, hi = scen.payoff_min, scen.payoff_max
            for _ in range(4):
                k = int(rng.integers(scen.n_populations))
                xk = rng.dirichlet(np.ones(scen.n_actions))
                y = rng.dirichlet(np.ones(scen.n_actions))
                value = average_payoff(scen, k, xk, y)
                assert lo - 1e-10 <= value <= hi + 1e-10
                i = int(rng.integers(scen.n_actions))
                value = expected_payoff(scen, k, i, y)
                assert lo - 1e-10 <= value <= hi + 1e-10


class TestGrowthFloors:
    def test_targeted_share_below_floor_rises(self):
        # aggregate share of a targeted action grows whenever it sits under
        # its floor; sampled with the share forced below the floor
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 1000:
            scen = random_scenario(rng)
            policy = random_policy(rng, scen)
            floors, _ = region_floors(scen, policy)
            carried = np.flatnonzero(policy.y_star > 0)
            i = int(rng.choice(carried))
            floor = floors[i]
            x = random_state(rng, scen, interior=0.001)
            # squeeze coordinate i of every row below the floor
            targets = rng.uniform(0.05 * floor, 0.99 * floor,
                                  size=scen.n_populations)
            for k in range(scen.n_populations):
                others = x[k].sum() - x[k, i]
                x[k] *= (1.0 - targets[k]) / others
                x[k, i] = targets[k]
            y = aggregate_output(x, scen)
            if np.any((policy.y_star > 0) & (y <= 1e-9)):
                continue
            deriv = field_controlled(scen, x, policy)
            aggregate_rate = float(scen.shares @ deriv[:, i])
            assert aggregate_rate > 0.0
            checked += 1


class TestRestPointRetention:
    def test_uncontrolled_rest_points_survive_any_gain(self):
        # vertex combinations rest under the base dynamics; aiming the
        # target at their aggregate keeps them at rest for every gain
        rng = np.random.default_rng(53)
        for _ in range(1000):
            scen = random_scenario(rng)
            combo = rng.integers(0, scen.n_actions, size=scen.n_populations)
            x = np.zeros((scen.n_populations, scen.n_actions))
            x[np.arange(scen.n_populations), combo] = 1.0
            y_star = aggregate_output(x, scen)
            assert np.max(np.abs(field_uncontrolled(scen, x))) == 0.0
            for d in (0.5, 1.0, 10.0):
                policy = ControlPolicy(y_star=y_star, d=d)
                deriv = field_controlled(scen, x, policy)
                assert np.max(np.abs(deriv)) < 1e-9

    def test_interior_rest_point_survives(self):
        # identical payoffs per population with an indifferent target output:
        # every row at the target is a rest point, for any gain
        rng = np.random.default_rng(59)
        for _ in range(200):
            y_star = rng.dirichlet(np.ones(2)) * 0.8 + 0.1
            # row difference orthogonal to y_star makes both actions tie
            row = rng.uniform(-2, 2, size=2)
            delta = np.array([y_star[1], -y_star[0]]) * rng.uniform(0.5, 2.0)
            payoff = np.stack([row, row - delta])
            m = int(rng.integers(2, 4))
            scen = Scenario(payoffs=np.stack([payoff] * m),
                            shares=(rng.dirichlet(np.ones(m)) + 0.1) / (1 + 0.1 * m))
            x = np.tile(y_star, (m, 1))
            assert np.max(np.abs(field_uncontrolled(scen, x))) < 1e-12
            for d in (0.5, 1.0, 10.0):
                policy = ControlPolicy(y_star=y_star, d=d)
                assert np.max(np.abs(field_controlled(scen, x, policy))) < 1e-9
