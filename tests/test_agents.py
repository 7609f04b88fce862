"""Finite-population discretization, subsidy accounting, imitation protocol,
and its agreement with the continuum field."""

from __future__ import annotations

import re

import numpy as np
import pytest

from replicator_ctl import (ControlPolicy, Scenario, agents, aggregate_output,
                            field_controlled)
from replicator_ctl.agents import (
    AgentPopulation,
    EmptyActionGroupError,
    init_agents,
    population_sizes,
    round_time_step,
    run,
    run_round,
)
from replicator_ctl.dynamics import BatchKernel, controlled_payoffs
from conftest import (agents_reference, expected_drift, imitation_gaps,
                      make_state, random_policy, random_scenario,
                      random_state, z_state)


class TestInitialization:
    def test_population_head_counts(self, threepop):
        np.testing.assert_array_equal(population_sizes(threepop, 1000),
                                      [200, 300, 500])

    def test_remainder_goes_to_largest(self, threepop):
        sizes = population_sizes(threepop, 999)
        assert sizes.sum() == 999
        assert sizes[2] >= sizes[0] and sizes[2] >= sizes[1]

    def test_vertex_start_all_play_it(self, threepop):
        pop = init_agents(threepop, make_state([[1, 0]] * 3), 500, seed=0)
        assert np.all(pop.counts[:, 1] == 0)

    def test_empirical_shares_within_rounding(self, threepop):
        rng = np.random.default_rng(107)
        for _ in range(20):
            x0 = random_state(rng, threepop, interior=0.02)
            n_agents = int(rng.integers(300, 5000))
            pop = init_agents(threepop, x0, n_agents, seed=1)
            state = pop.counts / pop.pop_sizes[:, None]
            assert np.max(np.abs(state - x0)) <= 1.0 / pop.pop_sizes.min()
            y_hat = pop.action_counts() / pop.n_agents
            assert abs(y_hat.sum() - 1.0) < 1e-12

    def test_too_few_agents_rejected(self, threepop):
        with pytest.raises(ValueError, match="at least"):
            init_agents(threepop, z_state((0.5, 0.5, 0.5)), 10)

    def test_unrepresentable_carrier_rejected(self, threepop):
        # 0.1% of the 20-agent population rounds to zero agents
        x0 = make_state([[0.001, 0.999], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="too few"):
            init_agents(threepop, x0, 100, seed=0)


class TestSubsidyAccounting:
    def test_per_agent_split_matches_continuum(self, threepop,
                                               policy_boundary):
        pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)), 4000, seed=2)
        stats = run_round(pop, threepop, policy_boundary)
        y_hat = stats.empirical_output
        d = policy_boundary.d
        for i, target in enumerate(policy_boundary.y_star):
            if target > 0 and stats.action_counts[i] > 0:
                assert stats.per_agent_subsidy[i] == pytest.approx(
                    d * target / y_hat[i], abs=1e-12)
            else:
                assert stats.per_agent_subsidy[i] == 0.0

    def test_budget_is_conserved_every_round(self, threepop,
                                             policy_interior):
        pop = init_agents(threepop, z_state((0.4, 0.6, 0.5)), 2000, seed=3)
        series = run(pop, threepop, policy_interior, rounds=200)
        for stats in series:
            paid = float(stats.action_counts @ stats.per_agent_subsidy)
            assert paid == pytest.approx(stats.total_subsidy, abs=1e-9)
            assert stats.total_subsidy == policy_interior.d * 2000
            assert stats.action_counts.sum() == 2000

    def test_empty_targeted_group_aborts(self, threepop, policy_boundary):
        pop = init_agents(threepop, make_state([[0, 1]] * 3), 500, seed=0)
        with pytest.raises(EmptyActionGroupError, match=re.escape(
                "targeted action 0 has no agents, share 0.0; its subsidy "
                "weight is undefined")):
            run_round(pop, threepop, policy_boundary)

    @pytest.mark.parametrize("sampled_matches", [False, True])
    def test_payment_is_d_times_the_fields_weight(self, threepop,
                                                  policy_boundary,
                                                  sampled_matches):
        # per head, d·f of controlled_payoffs at the snapshot's output, to
        # the bit: the subsidy the agents' imitation sees
        d = policy_boundary.d
        kernel = BatchKernel(threepop, policy_boundary.y_star, [d])
        pop = init_agents(threepop, z_state((0.3, 0.6, 0.4)), 3000, seed=8)
        series = run(pop, threepop, policy_boundary, rounds=50,
                     sampled_matches=sampled_matches)
        for stats in series:
            _, f, _ = controlled_payoffs(kernel,
                                         stats.empirical_output[:, None])
            assert np.array_equal(stats.per_agent_subsidy, d * f[:, 0])

    @pytest.mark.parametrize("sampled_matches", [False, True])
    def test_one_controlled_payoffs_call_per_snapshot(self, threepop,
                                                      policy_boundary,
                                                      monkeypatch,
                                                      sampled_matches):
        calls, real = [], agents.controlled_payoffs
        monkeypatch.setattr(agents, "controlled_payoffs",
                            lambda *args: calls.append(args) or real(*args))
        pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)), 1000, seed=4)
        series = run(pop, threepop, policy_boundary, rounds=20,
                     sampled_matches=sampled_matches)
        assert len(calls) == len(series) == 21

    def test_one_agent_of_ten_trillion_is_refused(self, threepop,
                                                  policy_boundary):
        # one agent of 10^13 on the targeted action: its share 1e-13 is at
        # or below DOMAIN_THRESHOLD, where f is undefined
        sizes = population_sizes(threepop, 10 ** 13)
        counts = np.stack([np.zeros(3, dtype=np.int64), sizes], axis=1)
        counts[0] = [1, sizes[0] - 1]
        pop = AgentPopulation(counts=counts.copy(), pop_sizes=sizes,
                              rng=np.random.default_rng(0))
        message = re.escape("targeted action 0 has 1 of 10000000000000 "
                            "agents, share 1e-13; its subsidy weight is "
                            "undefined")
        with pytest.raises(EmptyActionGroupError, match=message):
            run_round(pop, threepop, policy_boundary)
        with pytest.raises(EmptyActionGroupError, match=message):
            run(pop, threepop, policy_boundary, 0)
        np.testing.assert_array_equal(pop.counts, counts)

    def test_near_simplex_target_pays_the_pot(self, threepop):
        # the target sums to 1 - 0.999e-9, so it is stored divided by its
        # sum and every round pays d·N
        policy = ControlPolicy(y_star=np.array([0.8, 0.2 - 0.999e-9]),
                               d=1.5)
        pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)), 10 ** 5, seed=1)
        for stats in run(pop, threepop, policy, rounds=20):
            paid = float(stats.action_counts @ stats.per_agent_subsidy)
            assert paid == pytest.approx(1.5 * 10 ** 5, rel=1e-12, abs=0.0)


class TestProtocol:
    @pytest.mark.parametrize("prob", [0.0, -0.5, 2.0])
    def test_round_refuses_a_revision_prob_outside_0_1(self, threepop,
                                                       policy_boundary,
                                                       prob):
        # one check for run_round and run, with run's message, and no
        # round drawn
        pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)), 1000, seed=0)
        start = pop.counts.copy()
        message = re.escape(f"revision_prob must be in (0, 1], got {prob!r}")
        with pytest.raises(ValueError, match=message):
            run_round(pop, threepop, policy_boundary, revision_prob=prob)
        with pytest.raises(ValueError, match=message):
            run(pop, threepop, policy_boundary, 0, revision_prob=prob)
        np.testing.assert_array_equal(pop.counts, start)

    def test_zero_rounds_yield_initial_snapshot(self, threepop):
        pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)), 1000, seed=4)
        series = run(pop, threepop, ControlPolicy.off(2), rounds=0)
        assert len(series) == 1
        np.testing.assert_allclose(series[0].empirical_output, [0.5, 0.5])

    def test_equal_seeds_equal_series(self, threepop, policy_boundary):
        outcomes = []
        for _ in range(2):
            pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)), 2000, seed=9)
            series = run(pop, threepop, policy_boundary, rounds=300)
            outcomes.append(np.array([s.empirical_output for s in series]))
        assert np.array_equal(outcomes[0], outcomes[1])

    def test_monomorphic_state_is_absorbing(self, threepop):
        # without subsidies and with everyone aligned there are no payoff
        # gaps, hence no imitation ever
        pop = init_agents(threepop, make_state([[0, 1]] * 3), 400, seed=5)
        series = run(pop, threepop, ControlPolicy.off(2), rounds=200)
        for stats in series:
            np.testing.assert_array_equal(stats.action_counts, [0, 400])

    def test_membership_is_fixed(self, threepop, policy_boundary):
        pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)), 1000, seed=6)
        run(pop, threepop, policy_boundary, rounds=100)
        np.testing.assert_array_equal(pop.counts.sum(axis=1), pop.pop_sizes)
        np.testing.assert_array_equal(pop.pop_sizes, [200, 300, 500])

    @pytest.mark.parametrize("sampled_matches", [False, True])
    def test_kept_counts_equal_a_recount(self, threepop, policy_boundary,
                                         sampled_matches):
        pop = init_agents(threepop, z_state((0.3, 0.6, 0.4)), 3000, seed=8)
        initial = pop.counts.sum(axis=0)
        series = []
        for _ in range(200):
            series.append(run_round(pop, threepop, policy_boundary,
                                    revision_prob=0.2,
                                    sampled_matches=sampled_matches))
            np.testing.assert_array_equal(pop.counts.sum(axis=1),
                                          pop.pop_sizes)
            np.testing.assert_array_equal(pop.action_counts(),
                                          pop.counts.sum(axis=0))
        # a snapshot holds its own counts, not a view of the live ones
        np.testing.assert_array_equal(series[0].action_counts, initial)
        assert not np.array_equal(pop.action_counts(), initial)

    # head counts after rounds 1, 10, 100 and 1,000 from the start, policy,
    # seed and 10^5 agents of the agents-mc benchmark workload
    PINNED_COUNTS = {
        False: {1: [[10024, 9976], [15158, 14842], [25562, 24438]],
                10: [[10204, 9796], [16297, 13703], [31042, 18958]],
                100: [[10814, 9186], [26190, 3810], [49397, 603]],
                1000: [[17271, 2729], [30000, 0], [50000, 0]]},
        True: {1: [[10038, 9962], [15136, 14864], [25662, 24338]],
               10: [[10172, 9828], [16244, 13756], [31044, 18956]],
               100: [[10825, 9175], [26274, 3726], [49428, 572]],
               1000: [[17286, 2714], [30000, 0], [50000, 0]]},
    }

    @pytest.mark.parametrize("sampled_matches", [False, True])
    def test_counts_are_pinned(self, threepop, policy_boundary,
                               sampled_matches):
        pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)), 10 ** 5, seed=1)
        done = 0
        for rounds, expected in self.PINNED_COUNTS[sampled_matches].items():
            run(pop, threepop, policy_boundary, rounds - done,
                sampled_matches=sampled_matches)
            done = rounds
            assert pop.counts.tolist() == expected

    def test_sampled_match_variant_runs_and_tracks(self, threepop,
                                                   policy_boundary):
        pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)), 4000, seed=7)
        series = run(pop, threepop, policy_boundary, rounds=2000,
                     sampled_matches=True)
        assert series[-1].empirical_output[0] > 0.9


def _switch_probs(scenario, policy, counts, revision_prob, sampled_matches):
    """pi[k, i, j], the chance that one agent of population k moves i -> j
    in a round, from the protocol written out term by term."""
    m, n = counts.shape
    y = counts.sum(axis=0) / counts.sum()
    subsidy = [policy.d * policy.y_star[i] / y[i] if policy.y_star[i] > 0
               else 0.0 for i in range(n)]
    norm = scenario.payoff_max - scenario.payoff_min + policy.d
    pay = scenario.payoffs
    pi = np.zeros((m, n, n))
    for k in range(m):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue  # imitating one's own action changes nothing
                if sampled_matches:
                    q = sum(y[l] * min(max((pay[k, j, l] + subsidy[j]
                                            - pay[k, i, l] - subsidy[i])
                                           / norm, 0.0), 1.0)
                            for l in range(n))
                else:
                    gap = (pay[k, j] @ y + subsidy[j]
                           - pay[k, i] @ y - subsidy[i]) / norm
                    q = min(max(gap, 0.0), 1.0)
                pi[k, i, j] = (revision_prob * counts[k, j] / counts[k].sum()
                               * min(q, 1.0))
    return pi


class TestCountChainLaw:
    """One round of the count chain has the per-agent protocol's law: each
    agent of (k, i) moves to j with chance pi[k, i, j], independently."""

    REPLICAS = 4000

    def _cases(self, threepop, policy_boundary):
        rng = np.random.default_rng(113)
        # shares that split N exactly, so the chain's output is the
        # continuum output expected_drift reads
        three = Scenario(payoffs=random_scenario(rng, m=2, n=3).payoffs,
                         shares=[0.4, 0.6])
        return {
            "interior": (threepop, policy_boundary,
                         z_state((0.7, 0.4, 0.8)), 300, 0.3),
            "clipped": (threepop, policy_boundary,
                        z_state((0.3, 0.3, 0.3)), 300, 0.3),
            # every agent revises, so the moves out of one action are
            # visibly a multinomial, not independent binomials
            "three_actions": (three, random_policy(rng, three, (0.5, 2.0)),
                              make_state([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]),
                              200, 1.0),
        }

    @pytest.mark.parametrize("sampled_matches", [False, True])
    @pytest.mark.parametrize("case", ["interior", "clipped", "three_actions"])
    def test_one_round_mean_and_variance(self, threepop, policy_boundary,
                                         case, sampled_matches):
        scen, policy, x0, n_agents, revision_prob = self._cases(
            threepop, policy_boundary)[case]
        pop = init_agents(scen, x0, n_agents, seed=17)
        start, x = pop.counts.copy(), pop.counts / pop.pop_sizes[:, None]
        scale = imitation_gaps(scen, policy, aggregate_output(x, scen)).max()
        if case != "three_actions":
            assert (scale > 1.0) == (case == "clipped")
        changes = np.empty((self.REPLICAS,) + start.shape)
        for r in range(self.REPLICAS):
            pop.counts = start.copy()
            run_round(pop, scen, policy, revision_prob,
                      sampled_matches=sampled_matches)
            changes[r] = pop.counts - start
        pi = _switch_probs(scen, policy, start, revision_prob,
                           sampled_matches)
        # the moves into j from each i != j are independent binomials, and
        # the moves out of j one binomial of their summed chance
        out_prob = pi.sum(axis=2)
        mean = np.einsum("ki,kij->kj", start, pi) - start * out_prob
        var = (np.einsum("ki,kij->kj", start, pi * (1.0 - pi))
               + start * out_prob * (1.0 - out_prob))
        if not sampled_matches:
            drift = (expected_drift(scen, policy, x, revision_prob)
                     * pop.pop_sizes[:, None])
            np.testing.assert_allclose(mean, drift, rtol=1e-9, atol=1e-9)
            mean = drift
        root = np.sqrt(self.REPLICAS)
        sample_mean = changes.mean(axis=0)
        assert np.all(np.abs(sample_mean - mean)
                      <= 5.0 * changes.std(axis=0) / root)
        spread = (changes - sample_mean) ** 2
        assert np.all(np.abs(changes.var(axis=0, ddof=1) - var)
                      <= 5.0 * spread.std(axis=0) / root)
        assert np.all(var > 0.0)


class TestMeanField:
    def test_expected_drift_proportional_to_field(self):
        # at states where no imitation probability clips, the expected
        # one-round drift is exactly the controlled field times the
        # per-round time step
        rng = np.random.default_rng(109)
        checked = 0
        while checked < 10:
            scen = random_scenario(rng)
            policy = random_policy(rng, scen, d_range=(0.2, 2.0))
            x = random_state(rng, scen, interior=0.02)
            if imitation_gaps(scen, policy,
                              aggregate_output(x, scen)).max() > 1.0:
                continue
            drift = expected_drift(scen, policy, x, revision_prob=0.05)
            dt = round_time_step(scen, policy, revision_prob=0.05)
            reference = dt * field_controlled(scen, x, policy)
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(drift - reference)) <= 1e-6 * max(scale, 1e-9)
            checked += 1

    def test_tracking_error_shrinks_with_population(self, threepop,
                                                    policy_boundary):
        # Monte Carlo deviation from the continuum trajectory decays roughly
        # like 1/sqrt(N); qualitative check at two sizes
        deviations = {}
        for n_agents in (1000, 25_000):
            dt = round_time_step(threepop, policy_boundary)
            rounds = int(np.ceil(20.0 / dt))
            devs = []
            for seed in (11, 12, 13):
                pop = init_agents(threepop, z_state((0.5, 0.5, 0.5)),
                                  n_agents, seed=seed)
                series = run(pop, threepop, policy_boundary, rounds)
                devs.append(np.array([s.empirical_output[0] for s in series]))
            reference = agents_reference(threepop, policy_boundary,
                                         z_state((0.5, 0.5, 0.5)), rounds)
            length = min(len(devs[0]), reference.outputs.shape[0])
            deviations[n_agents] = np.mean([
                np.max(np.abs(dev[:length] - reference.outputs[:length, 0]))
                for dev in devs])
        assert deviations[25_000] < deviations[1000]
