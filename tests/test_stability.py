"""Certificate values and rates, gain-bound estimation, matching-set scans,
equilibrium enumeration, and report assembly."""

from __future__ import annotations

import dataclasses
import time
import tracemalloc
import warnings
from itertools import combinations, product

import numpy as np
import pytest

from replicator_ctl import (
    ControlPolicy,
    Scenario,
    aggregate_output,
    field_controlled,
    field_uncontrolled,
)
from replicator_ctl.stability import (
    InapplicableError,
    LyapunovObserver,
    SamplingConfig,
    TargetEquilibrium,
    critical_subsidy,
    estimate_subsidy_bound,
    find_target_equilibria,
    min_advantage_on_matching_set,
    recommend_subsidy,
    unique_target_equilibrium,
)
from replicator_ctl import stability
from replicator_ctl.dynamics import action_payoffs
from replicator_ctl.stability import (_combo_solutions, _dbar_batch,
                                     _lp_min, _matching_system,
                                     _mismatch_batch, _payoff_classes)
from replicator_ctl.game import lattice_product, simplex_lattice
from conftest import (RECIPE_REFUSED, assert_same_bits, average_payoff,
                      certificate_terms, equilibrium_jacobian,
                      expected_payoff, lyapunov_value,
                      make_state, random_scenario, random_state, recipe_game,
                      tied_everywhere_game, tied_once_game,
                      two_action_verdict, z_state)


@pytest.fixture(scope="module")
def eq_boundary(threepop):
    return unique_target_equilibrium(threepop, np.array([1.0, 0.0]))


@pytest.fixture(scope="module")
def eq_interior(threepop):
    return unique_target_equilibrium(threepop, np.array([0.8, 0.2]))


def two_action_oracle(scen: Scenario, eq: TargetEquilibrium) -> float:
    """Advantage minimum on a two-action matching set by its vertices.

    The matching set is the section sum_k v^k w_k = y_star_1 of the box of
    first-action shares w in [0, 1]^m; each vertex fixes all but one share
    at a bound.
    """
    m = scen.n_populations
    payoffs_at_target = scen.payoffs @ eq.target_output
    best = np.inf
    for free in range(m):
        for bits in product((0.0, 1.0), repeat=m - 1):
            w = np.insert(np.array(bits), free, 0.0)
            w[free] = (eq.target_output[0] - scen.shares @ w) / scen.shares[free]
            if not -1e-12 <= w[free] <= 1.0 + 1e-12:
                continue
            x = np.stack([w, 1.0 - w], axis=1)
            advantage = np.sum(scen.shares[:, None] * (eq.state - x)
                               * payoffs_at_target)
            best = min(best, advantage)
    return best


def assert_on_matching_set(x: np.ndarray, scen: Scenario,
                           y_star: np.ndarray) -> None:
    np.testing.assert_allclose(aggregate_output(x, scen), y_star, atol=1e-9,
                               rtol=0.0)
    np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12, rtol=0.0)
    assert x.min() >= 0.0


def sequential_bound(eq: TargetEquilibrium, scen: Scenario,
                     sampling: SamplingConfig, seed: int):
    """Reference bound: the whole pool in one batch, then the coordinate
    ascent one seed and one candidate state at a time.  Returns the value,
    argmax, ascent evaluations (the seeds' own not counted) and the sampled
    maximum."""
    def evaluate(state):
        return float(_dbar_batch(state[..., None], eq, scen)[0])

    rng = np.random.default_rng(seed)
    pool = np.concatenate([
        lattice_product(simplex_lattice(scen.n_actions, sampling.grid_per_dim),
                        scen.n_populations),
        rng.dirichlet(np.ones(scen.n_actions),
                      size=(sampling.random_samples, scen.n_populations))])
    dbar = _dbar_batch(pool.transpose(1, 2, 0), eq, scen)
    # highest value first, equal values by pool row
    order = np.lexsort((np.arange(dbar.size), -dbar))
    best_value, best_state = float(dbar[order[0]]), pool[order[0]].copy()
    sampled = best_value
    n_evals = 0
    m, n = scen.n_populations, scen.n_actions
    for row in order[:sampling.ascent_candidates]:
        # a seed climbs from its pool value, not evaluated again
        current, current_value = pool[row].copy(), float(dbar[row])
        step = 0.25
        for _ in range(sampling.ascent_iters):
            improved = False
            for k in range(m):
                for i in range(n):
                    for j in range(n):
                        if i == j or current[k, j] <= 0.0:
                            continue
                        moved = min(step, current[k, j])
                        candidate = current.copy()
                        candidate[k, j] -= moved
                        candidate[k, i] += moved
                        value = evaluate(candidate)
                        n_evals += 1
                        if value > current_value:
                            current, current_value = candidate, value
                            improved = True
            if not improved:
                step *= 0.5
                if step < 1e-7:
                    break
        if current_value > best_value:
            best_value, best_state = current_value, current
    return best_value, best_state, n_evals, sampled


def ess_scenario():
    """Identical populations with an interior indifference point: the payoff
    advantage of the matching profile is non-negative everywhere."""
    payoff = np.array([[0.0, 2.0], [1.0, 0.0]])
    scen = Scenario(payoffs=np.stack([payoff] * 3),
                    shares=np.array([0.2, 0.3, 0.5]))
    y_star = np.array([2.0 / 3.0, 1.0 / 3.0])
    eq = TargetEquilibrium.from_state(scen, np.tile(y_star, (3, 1)), y_star)
    return scen, eq


def observer_value(x: np.ndarray, eq: TargetEquilibrium,
                   scen: Scenario) -> float:
    return certificate_terms(x, eq, scen, 0.0)["V"]


class TestCertificateValue:
    def test_zero_at_target(self, threepop, eq_boundary):
        assert observer_value(eq_boundary.state, eq_boundary, threepop) == 0.0

    def test_worked_example(self, threepop, eq_boundary):
        x = make_state([[0.5, 0.5]] * 3)
        assert observer_value(x, eq_boundary, threepop) == pytest.approx(
            np.log(2.0))

    def test_positive_away_from_target(self, threepop, eq_interior):
        rng = np.random.default_rng(73)
        for _ in range(500):
            x = random_state(rng, threepop, interior=0.001)
            if np.max(np.abs(x - eq_interior.state)) < 1e-9:
                continue
            assert observer_value(x, eq_interior, threepop) > 0.0

    def test_infinite_sentinel_on_dead_carried_share(self, threepop,
                                                     eq_boundary):
        x = make_state([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        assert observer_value(x, eq_boundary, threepop) == np.inf
        # an uncarried share may be zero: population 1 sits on action 0
        x = make_state([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        assert observer_value(x, eq_boundary, threepop) < np.inf

    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (4, 4), (6, 5)])
    def test_batch_matches_the_formula(self, m, n):
        rng = np.random.default_rng(7 * m + n)
        scen = random_scenario(rng, m=m, n=n)
        # a target state with one dead action per population, so the sum
        # runs over the carried entries only
        star = random_state(rng, scen)
        star[np.arange(m), rng.integers(0, n, size=m)] = 0.0
        star /= star.sum(axis=1, keepdims=True)
        eq = TargetEquilibrium(state=star,
                               target_output=aggregate_output(star, scen),
                               carriers=tuple(tuple(np.flatnonzero(row))
                                              for row in star))
        states = np.array([random_state(rng, scen) for _ in range(400)])
        states[:20, 0, 0] = 0.0     # dead carried or uncarried shares
        got = LyapunovObserver(eq, scen).values(states.transpose(1, 2, 0))
        want = [lyapunov_value(x, eq, scen) for x in states]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestRateDecomposition:
    def test_worked_example(self, threepop, eq_boundary):
        x = make_state([[0.5, 0.5]] * 3)
        terms = certificate_terms(x, eq_boundary, threepop, d=1.2)
        assert terms["F1"] == pytest.approx(0.15)
        assert terms["F2"] == pytest.approx(1.0)
        assert terms["Vdot"] == pytest.approx(-1.35)

    def test_mismatch_vanishes_on_target_output(self, threepop, eq_interior):
        # any profile aggregating to the target zeroes the mismatch exactly
        x = make_state([eq_interior.target_output] * 3)
        terms = certificate_terms(x, eq_interior, threepop, d=2.0)
        assert terms["F2"] == 0.0

    def test_zero_at_target_state(self, threepop, eq_boundary):
        terms = certificate_terms(eq_boundary.state, eq_boundary, threepop,
                                  d=1.2)
        assert terms["F1"] == pytest.approx(0.0, abs=1e-12)
        assert terms["F2"] == pytest.approx(0.0, abs=1e-12)
        assert terms["Vdot"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("target,d", [([1.0, 0.0], 1.2),
                                          ([0.8, 0.2], 1.5)])
    def test_analytic_rate_matches_finite_differences(self, threepop,
                                                      target, d):
        eq = unique_target_equilibrium(threepop, np.array(target))
        policy = ControlPolicy(y_star=np.array(target), d=d)
        rng = np.random.default_rng(79)
        h = 1e-6
        for _ in range(500):
            x = random_state(rng, threepop, interior=0.01)
            flow = field_controlled(threepop, x, policy)
            forward = lyapunov_value(x + h * flow, eq, threepop)
            backward = lyapunov_value(x - h * flow, eq, threepop)
            fd = (forward - backward) / (2.0 * h)
            analytic = certificate_terms(x, eq, threepop, d)["Vdot"]
            assert fd == pytest.approx(analytic,
                                       rel=1e-4, abs=1e-4 * max(1.0, abs(analytic)))


class TestMismatchPositivity:
    def test_non_negative_and_zero_only_at_target(self, threepop,
                                                  eq_interior):
        rng = np.random.default_rng(83)
        states = rng.dirichlet(np.ones(2), size=(10_000, 3))
        # blend a slice of them tightly toward the target state
        states[:500] = (eq_interior.state[None] * 0.999999
                        + states[:500] * 0.000001)
        outputs = np.einsum("k,bki->bi", threepop.shares, states)
        keep = outputs[:, eq_interior.target_output > 0].min(axis=1) > 1e-12
        outputs = outputs[keep]
        mismatch = _mismatch_batch(outputs.T, eq_interior.target_output)
        assert np.all(mismatch >= -1e-12)
        tiny = mismatch < 1e-12
        deviation = np.max(np.abs(outputs - eq_interior.target_output), axis=1)
        assert np.all(deviation[tiny] < 1e-6)

    def test_two_mismatch_forms_agree(self, threepop):
        rng = np.random.default_rng(89)
        for target in (np.array([1.0, 0.0]), np.array([0.8, 0.2]),
                       np.array([0.4, 0.35, 0.25])):
            outputs = rng.dirichlet(np.ones(target.shape[0]), size=2000)
            outputs = np.clip(outputs, 1e-3, None)
            outputs /= outputs.sum(axis=1, keepdims=True)
            carried = target > 0
            direct = _mismatch_batch(outputs.T, target)
            alt = (target[carried] ** 2 / outputs[:, carried]).sum(axis=1) - 1.0
            np.testing.assert_allclose(direct, alt, atol=1e-12)


class TestCriticalSubsidy:
    def test_worked_example(self, threepop, eq_boundary):
        x = make_state([[0.5, 0.5]] * 3)
        assert critical_subsidy(x, eq_boundary, threepop) == pytest.approx(-0.15)

    def test_sign_flips_with_advantage(self, threepop, eq_boundary):
        rng = np.random.default_rng(97)
        for _ in range(200):
            x = random_state(rng, threepop, interior=0.01)
            terms = certificate_terms(x, eq_boundary, threepop, 0.0)
            value = critical_subsidy(x, eq_boundary, threepop)
            if value == -np.inf:
                continue
            if terms["F1"] > 0:
                assert value < 0
            elif terms["F1"] < 0:
                assert value > 0

    def test_at_target_output_is_minus_inf(self, threepop, eq_interior):
        x = make_state([eq_interior.target_output] * 3)
        assert critical_subsidy(x, eq_interior, threepop) == -np.inf

    def test_one_rule_for_a_state_and_a_batch(self, threepop, eq_interior):
        # five interior states, then one for each exclusion of the bound:
        # the target state, a state whose output lies in the tube around
        # y_star but off it, and a state with a targeted share under the
        # boundary margin
        rng = np.random.default_rng(101)
        tube = eq_interior.state.copy()
        tube[1] += (np.array([-0.8, 0.8]) * stability.TUBE_RADIUS
                    / threepop.shares[1])
        low = 0.1 * stability.BOUNDARY_MARGIN
        margin = make_state([[1.0 - low, low]] * 3)
        states = np.array([*(random_state(rng, threepop, interior=0.1)
                             for _ in range(5)),
                           eq_interior.state, tube, margin])
        batch = states.transpose(1, 2, 0)
        dbar = _dbar_batch(batch, eq_interior, threepop)
        assert_same_bits([critical_subsidy(x, eq_interior, threepop)
                          for x in states], dbar)
        assert np.all(dbar[-3:] == -np.inf)
        series = LyapunovObserver(eq_interior, threepop).series(batch, d=0.0)
        assert np.all(np.isfinite(dbar[:5]))
        assert_same_bits(dbar[:5], -series["F1"][:5] / series["F2"][:5])
        # the tube and the margin alone exclude their states: both
        # mismatches are finite and above the floor
        miss = np.abs(aggregate_output(tube, threepop)
                      - eq_interior.target_output).max()
        assert 0.0 < miss < stability.TUBE_RADIUS
        assert np.all(series["F2"][-2:] > stability.MISMATCH_FLOOR)
        assert np.all(np.isfinite(series["F2"][-2:]))


class TestBoundEstimate:
    def test_boundary_target_under_published_threshold(self, threepop,
                                                       eq_boundary):
        estimate = estimate_subsidy_bound(eq_boundary, threepop,
                                          SamplingConfig(), seed=3)
        # the all-second-action state for population 1 alone scores 1.12,
        # and the supremum is known to sit below 1.2
        assert 1.0 < estimate.value < 1.2
        value = _dbar_batch(estimate.argmax[..., None], eq_boundary,
                            threepop)
        assert value[0] > -np.inf

    def test_interior_target_under_published_threshold(self, threepop,
                                                       eq_interior):
        estimate = estimate_subsidy_bound(eq_interior, threepop,
                                          SamplingConfig(), seed=3)
        witness = z_state((0.0, 0.0, 1.0))
        witness_value = _dbar_batch(witness[..., None], eq_interior,
                                    threepop)
        assert witness_value[0] > -np.inf
        assert estimate.value >= witness_value[0] - 1e-9
        assert estimate.value < 1.5

    def test_never_positive_when_advantage_everywhere(self):
        scen, eq = ess_scenario()
        # brute-force reference over a dense lattice
        grid = lattice_product(simplex_lattice(scen.n_actions, 31),
                               scen.n_populations)
        values = _dbar_batch(grid.transpose(1, 2, 0), eq, scen)
        assert values[values > -np.inf].max() <= 0.0
        estimate = estimate_subsidy_bound(
            eq, scen, SamplingConfig(grid_per_dim=15, random_samples=20_000),
            seed=5)
        assert estimate.value <= 0.0

    def test_random_3x3_vertex_bound_is_pinned(self):
        # value and argmax bit for bit, with every contraction summed in a
        # fixed order (the einsum contraction gave 2.954995396511278, and
        # the mismatch as (y*_i - y_i) y*_i / y_i gave 2.9549953965112774)
        scen = random_scenario(np.random.default_rng(2024), m=3, n=3)
        eq = unique_target_equilibrium(scen, np.array([1.0, 0.0, 0.0]))
        estimate = estimate_subsidy_bound(
            eq, scen, SamplingConfig(grid_per_dim=10, random_samples=2_000),
            seed=7)
        assert repr(estimate.value) == "2.954995396511277"
        assert estimate.argmax.tolist() == [
            [1.0, 0.0, 0.0],
            [0.9999975893232558, 0.0, 2.4106767442244603e-06],
            [1.0, 0.0, 0.0],
        ]
        # the 10 seeds' values come from the pool and are not counted
        assert (estimate.n_grid, estimate.n_ascent_evals) == (166_375, 2_681)

    @pytest.mark.parametrize("case", ["random_3x3", "boundary", "interior",
                                      "flat"])
    @pytest.mark.parametrize("candidates", [10, 0])
    def test_lockstep_ascent_equals_one_seed_at_a_time(self, threepop, case,
                                                       candidates):
        if case == "random_3x3":
            scen = random_scenario(np.random.default_rng(2024), m=3, n=3)
            eq = unique_target_equilibrium(scen, np.array([1.0, 0.0, 0.0]))
            cfg, seed = SamplingConfig(grid_per_dim=10, random_samples=2_000,
                                       ascent_candidates=candidates), 7
        elif case == "flat":
            # zero payoffs: every state ties, so only a strict > keeps a
            # seed from accepting every move
            scen = Scenario(payoffs=np.zeros((3, 2, 2)),
                            shares=threepop.shares)
            eq = TargetEquilibrium(state=z_state((0.5, 0.5, 0.5)),
                                   target_output=np.array([0.5, 0.5]),
                                   carriers=((0, 1),) * 3)
            cfg, seed = SamplingConfig(grid_per_dim=5, random_samples=100,
                                       ascent_candidates=candidates), 0
        else:
            scen = threepop
            target = [1.0, 0.0] if case == "boundary" else [0.8, 0.2]
            eq = unique_target_equilibrium(scen, np.array(target))
            cfg, seed = SamplingConfig(ascent_candidates=candidates), 3
        estimate = estimate_subsidy_bound(eq, scen, cfg, seed)
        value, argmax, n_evals, sampled = sequential_bound(eq, scen, cfg,
                                                           seed)
        assert repr(estimate.value) == repr(value)
        assert np.array_equal(estimate.argmax, argmax)
        assert estimate.n_ascent_evals == n_evals
        if candidates == 0:
            assert n_evals == 0 and estimate.value == sampled
        else:
            assert n_evals > 0 and estimate.value >= sampled

    def test_estimate_is_deterministic(self, threepop, eq_boundary):
        cfg = SamplingConfig(grid_per_dim=7, random_samples=2_000)
        first = estimate_subsidy_bound(eq_boundary, threepop, cfg, seed=11)
        second = estimate_subsidy_bound(eq_boundary, threepop, cfg, seed=11)
        assert first.value == second.value
        assert np.array_equal(first.argmax, second.argmax)

    def test_chunking_changes_no_bit(self, monkeypatch):
        # 166,375 lattice states and 2,000 samples: chunks of 1,000 split
        # both, of 8,192 the lattice, and one larger than the lattice neither
        scen = random_scenario(np.random.default_rng(2024), m=3, n=3)
        eq = unique_target_equilibrium(scen, np.array([1.0, 0.0, 0.0]))
        cfg = SamplingConfig(grid_per_dim=10, random_samples=2_000)
        estimates = []
        for rows in (1_000, 8_192, 200_000):
            monkeypatch.setattr(stability, "CHUNK_ROWS", rows)
            estimates.append(estimate_subsidy_bound(eq, scen, cfg, seed=7))
        keys = [(repr(e.value), e.argmax.tobytes(), e.n_grid, e.n_random,
                 e.n_ascent_evals) for e in estimates]
        assert keys == [keys[0]] * 3

    @pytest.mark.parametrize("grid, candidates", [(5, 10), (2, 6)])
    def test_tied_seeds_are_taken_in_pool_row_order(self, threepop,
                                                    monkeypatch, grid,
                                                    candidates):
        # zero payoffs: every admissible state's value is -0.0.  On the
        # 8 vertex states only 4 are admissible, so 2 of the 6 seeds are
        # -inf rows, the lowest two
        scen = Scenario(payoffs=np.zeros((3, 2, 2)), shares=threepop.shares)
        eq = TargetEquilibrium(state=z_state((0.5, 0.5, 0.5)),
                               target_output=np.array([0.5, 0.5]),
                               carriers=((0, 1),) * 3)
        cfg = SamplingConfig(grid_per_dim=grid, random_samples=0,
                             ascent_candidates=candidates)
        seeds, ascent = [], stability._lockstep_ascent
        monkeypatch.setattr(stability, "_lockstep_ascent", lambda s, *rest:
                            seeds.append(s) or ascent(s, *rest))
        estimate = estimate_subsidy_bound(eq, scen, cfg)
        pool = lattice_product(simplex_lattice(2, grid), 3)
        dbar = _dbar_batch(pool.transpose(1, 2, 0), eq, scen)
        ranked = [row for value in sorted(set(dbar), reverse=True)
                  for row in np.flatnonzero(dbar == value)]
        admissible = np.count_nonzero(dbar > -np.inf)
        assert set(dbar[dbar > -np.inf]) == {0.0}  # all tied
        assert admissible > candidates if grid > 2 else admissible == 4
        assert np.array_equal(seeds[0], pool[ranked[:candidates]])
        assert np.array_equal(estimate.argmax, pool[ranked[0]])

    @pytest.mark.parametrize("candidates", [0, 1, 10])
    @pytest.mark.parametrize("game", ["sampled_best", "tied"])
    def test_streaming_equals_the_whole_pool(self, threepop, monkeypatch,
                                             game, candidates):
        # sampled_best: 36 lattice rows, and the best pool row is sample
        # 41, with 7 of the 10 best rows sampled, so draws made chunk by
        # chunk must be the one call's.  tied: zero payoffs, every
        # admissible value is -0.0, and ties cross chunk boundaries, so
        # the seeds must keep pool row order
        if game == "sampled_best":
            scen = random_scenario(np.random.default_rng(6), m=2, n=3)
            eq = unique_target_equilibrium(scen, np.array([1.0, 0.0, 0.0]))
            grid, samples = 3, 300
        else:
            scen = Scenario(payoffs=np.zeros((3, 2, 2)),
                            shares=threepop.shares)
            eq = TargetEquilibrium(state=z_state((0.5, 0.5, 0.5)),
                                   target_output=np.array([0.5, 0.5]),
                                   carriers=((0, 1),) * 3)
            grid, samples = 5, 40
        cfg = SamplingConfig(grid_per_dim=grid, random_samples=samples,
                             ascent_candidates=candidates)
        value, argmax, n_evals, _ = sequential_bound(eq, scen, cfg, seed=0)
        n_grid = (simplex_lattice(scen.n_actions, grid).shape[0]
                  ** scen.n_populations)
        want = (repr(value), argmax.tobytes(), n_grid, samples, n_evals)
        if game == "sampled_best" and candidates == 0:  # off the lattice
            assert not np.array_equal(argmax * 2, np.round(argmax * 2))
        for rows in (1, 3, 7, 4_096, 10_000):
            monkeypatch.setattr(stability, "CHUNK_ROWS", rows)
            e = estimate_subsidy_bound(eq, scen, cfg, seed=0)
            assert (repr(e.value), e.argmax.tobytes(), e.n_grid, e.n_random,
                    e.n_ascent_evals) == want, rows

    @pytest.mark.parametrize("samples", [20_000, 200_000])
    def test_memory_does_not_grow_with_the_pool(self, samples):
        # 1,728,000 lattice states at the default 15 points per edge, and
        # the samples: whole-pool values and samples peaked at 29 and 45 MB
        scen = random_scenario(np.random.default_rng(1), m=3, n=3)
        eq = unique_target_equilibrium(scen, np.array([1.0, 0.0, 0.0]))
        tracemalloc.start()
        try:
            estimate = estimate_subsidy_bound(
                eq, scen, SamplingConfig(random_samples=samples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (estimate.n_grid, estimate.n_random) == (1_728_000, samples)
        assert peak < 4_000_000

    def test_lattice_is_never_built_whole(self):
        # the default 15 points per edge at (3, 3): 1,728,000 lattice
        # states, 124 MB built whole
        scen = random_scenario(np.random.default_rng(1), m=3, n=3)
        eq = unique_target_equilibrium(scen, np.array([1.0, 0.0, 0.0]))
        tracemalloc.start()
        try:
            estimate = estimate_subsidy_bound(eq, scen, SamplingConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate.n_grid == 1_728_000
        assert peak < 40_000_000


class TestBatchIndependence:
    @staticmethod
    def game(m: int, n: int):
        rng = np.random.default_rng(1000 * m + n)
        scen = random_scenario(rng, m=m, n=n)
        target_state = random_state(rng, scen)
        eq = TargetEquilibrium(
            state=target_state,
            target_output=aggregate_output(target_state, scen),
            carriers=(tuple(range(n)),) * m)
        states = np.array([random_state(rng, scen) for _ in range(300)])
        return scen, eq, states

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (3, 4)])
    def test_critical_subsidy_rows_equal_alone_and_in_a_batch(self, m, n):
        scen, eq, states = self.game(m, n)
        batch = _dbar_batch(states.transpose(1, 2, 0), eq, scen)
        alone = np.concatenate([_dbar_batch(state[..., None], eq, scen)
                                for state in states])
        assert np.array_equal(alone, batch)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (3, 4)])
    def test_observer_rows_equal_alone_and_in_a_batch(self, m, n):
        scen, eq, states = self.game(m, n)
        observer = LyapunovObserver(eq, scen)
        batch = observer.series(states.transpose(1, 2, 0), d=1.3)
        for idx in range(states.shape[0]):
            alone = observer.series(states[idx][..., None], d=1.3)
            for key in ("V", "F1", "F2", "Vdot"):
                assert np.array_equal(alone[key], batch[key][idx:idx + 1])
            value = critical_subsidy(states[idx], eq, scen)
            assert value == _dbar_batch(states[idx][..., None], eq, scen)[0]
            if value > -np.inf:
                assert value == -batch["F1"][idx] / batch["F2"][idx]


class TestMatchingSet:
    def test_boundary_target_is_single_point(self, threepop, eq_boundary):
        min_adv, witness = min_advantage_on_matching_set(eq_boundary, threepop)
        assert min_adv == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(witness, eq_boundary.state,
                                   atol=1e-9)

    def test_interior_target_advantage_non_negative(self, threepop,
                                                    eq_interior):
        min_adv, witness = min_advantage_on_matching_set(eq_interior, threepop)
        assert min_adv >= -1e-9
        assert min_adv == pytest.approx(
            two_action_oracle(threepop, eq_interior), abs=1e-12)

    def test_witness_lies_on_matching_set(self, threepop, eq_interior):
        min_adv, witness = min_advantage_on_matching_set(eq_interior, threepop)
        assert_on_matching_set(witness, threepop,
                               eq_interior.target_output)

    def test_lopsided_target_scans_without_error(self, threepop):
        eq_states = find_target_equilibria(threepop, np.array([1.0, 0.0]))
        lopsided = TargetEquilibrium(
            state=eq_states[0].state,
            target_output=np.array([0.99, 0.01]),
            carriers=eq_states[0].carriers,
        )
        min_adv, witness = min_advantage_on_matching_set(lopsided, threepop)
        assert np.isfinite(min_adv)
        assert_on_matching_set(witness, threepop,
                               lopsided.target_output)
        assert min_adv == pytest.approx(
            two_action_oracle(threepop, lopsided), abs=1e-12)

    def test_unreachable_target_is_refused(self, threepop, eq_boundary):
        # no ControlPolicy target is off the simplex: this one is set
        # directly, and no state of the populations produces it
        eq = dataclasses.replace(eq_boundary,
                                 target_output=np.array([0.6, 0.6]))
        with pytest.raises(InapplicableError) as info:
            min_advantage_on_matching_set(eq, threepop)
        assert info.value.reason == "matching_set_empty"

    def test_two_action_minimum_equals_the_vertex_oracle(self):
        rng = np.random.default_rng(211)
        for m in (2, 3, 4, 5, 6) * 4:
            scen = random_scenario(rng, m=m, n=2)
            state = random_state(rng, scen)
            y_star = aggregate_output(state, scen)
            eq = TargetEquilibrium(state=state, target_output=y_star,
                                   carriers=((0, 1),) * m)
            min_adv, witness = min_advantage_on_matching_set(eq, scen)
            assert_on_matching_set(witness, scen, y_star)
            assert min_adv == pytest.approx(
                two_action_oracle(scen, eq), abs=1e-12)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (3, 4)])
    def test_vertex_target_witness_is_exact(self, m, n):
        # the matching set of a vertex target is one pure state; the LP
        # must return it bit for bit, as report.json records it
        rng = np.random.default_rng(700 + 10 * m + n)
        for _ in range(20):
            scen = random_scenario(rng, m=m, n=n)
            target = int(rng.integers(n))
            state = np.zeros((m, n))
            state[:, target] = 1.0
            eq = TargetEquilibrium(state=state, target_output=np.eye(n)[target],
                                   carriers=((target,),) * m)
            min_adv, witness = min_advantage_on_matching_set(eq, scen)
            assert witness.tolist() == state.tolist()
            assert min_adv == 0.0

    @pytest.mark.parametrize("trial", RECIPE_REFUSED)
    def test_negative_advantage_games_are_refused(self, trial):
        scen, y_star = recipe_game(trial)
        found = find_target_equilibria(scen, y_star)
        assert len(found) == 1 and not found[0].continuum_vertex
        min_adv, witness = min_advantage_on_matching_set(found[0], scen)
        assert min_adv == pytest.approx(
            RECIPE_REFUSED[trial], abs=1e-5)
        assert_on_matching_set(witness, scen, y_star)
        report = recommend_subsidy(
            scen, y_star, SamplingConfig(grid_per_dim=2, random_samples=500))
        assert not report.applicable
        assert report.reason == "advantage_negative_on_matching_set"
        assert report.recommended_subsidy is None


def brute_force_lp_min(cost: np.ndarray, a_eq: np.ndarray,
                       b_eq: np.ndarray, rank: int) -> float:
    """Least cost over every basic feasible solution: each set of ``rank``
    columns whose square system, on the first ``rank`` rows, solves all
    rows with a non-negative solution."""
    best = np.inf
    for basis in combinations(range(a_eq.shape[1]), rank):
        square = a_eq[:rank, basis]
        if abs(np.linalg.det(square)) < 1e-12:
            continue
        z = np.zeros(a_eq.shape[1])
        z[list(basis)] = np.linalg.solve(square, b_eq[:rank])
        if z.min() >= -1e-12 and np.allclose(a_eq @ z, b_eq, rtol=0.0,
                                             atol=1e-12):
            best = min(best, float(cost @ z))
    return best


def random_matching_lp(rng: np.random.Generator, m: int, n: int):
    """A matching system for a random game and a random reachable target,
    with some state entries zeroed so that degenerate vertices occur, and
    a random cost."""
    scen = random_scenario(rng, m=m, n=n)
    state = random_state(rng, scen) * (rng.uniform(size=(m, n)) < 0.7)
    state[state.sum(axis=1) == 0.0, 0] = 1.0
    state /= state.sum(axis=1, keepdims=True)
    a_eq, b_eq = _matching_system(scen, aggregate_output(state, scen))
    return rng.normal(size=m * n), a_eq, b_eq


class TestSimplex:
    SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4)]

    @pytest.mark.parametrize("m,n", SIZES)
    def test_minimum_equals_the_basis_enumeration(self, m, n):
        rng = np.random.default_rng(500 + 10 * m + n)
        for _ in range(34):
            cost, a_eq, b_eq = random_matching_lp(rng, m, n)
            z = _lp_min(cost, a_eq, b_eq)
            assert z.min() >= 0.0
            np.testing.assert_allclose(a_eq @ z, b_eq, rtol=0.0, atol=1e-12)
            # the matching system has rank m + n - 1: the aggregate rows
            # sum to the shares times the row-sum rows
            oracle = brute_force_lp_min(cost, a_eq, b_eq, m + n - 1)
            assert cost @ z == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("m,n", SIZES)
    def test_duplicated_row_solves_the_same(self, m, n):
        rng = np.random.default_rng(600 + 10 * m + n)
        for _ in range(10):
            cost, a_eq, b_eq = random_matching_lp(rng, m, n)
            row = int(rng.integers(a_eq.shape[0]))
            z = _lp_min(cost, a_eq, b_eq)
            twice = _lp_min(cost, np.vstack([a_eq, a_eq[row]]),
                            np.append(b_eq, b_eq[row]))
            np.testing.assert_allclose(a_eq @ twice, b_eq, rtol=0.0,
                                       atol=1e-12)
            assert cost @ twice == pytest.approx(cost @ z, abs=1e-12)

    def test_infeasible_system_returns_none(self, threepop):
        a_eq, b_eq = _matching_system(threepop, np.array([0.5, 0.5]))
        cost = np.arange(6.0)
        # every population on action 0 cannot give y = (0.5, 0.5)
        assert _lp_min(cost[::2], a_eq[:, ::2], b_eq) is None
        # nor can any state give an output summing to 1.4
        assert _lp_min(cost, a_eq, _matching_system(
            threepop, np.array([0.7, 0.7]))[1]) is None
        # z = 0 solves a zero right-hand side, the only solution here
        assert _lp_min(cost[::2], a_eq[:, ::2], 0.0 * b_eq).tolist() == \
            [0.0, 0.0, 0.0]

    def test_unbounded_program_is_refused(self):
        # z = (t, t) solves z0 - z1 = 0 for every t >= 0, and the cost -t
        # has no minimum
        with pytest.raises(ValueError, match="linear program is unbounded"):
            _lp_min([-1, 0], [[1, -1]], [0])


class TestEquilibriumEnumeration:
    def test_boundary_target_single_point(self, threepop):
        found = find_target_equilibria(threepop, np.array([1.0, 0.0]))
        assert len(found) == 1
        np.testing.assert_allclose(found[0].state[:, 0], [1, 1, 1])
        assert not found[0].continuum_vertex

    def test_interior_target_single_point(self, threepop):
        found = find_target_equilibria(threepop, np.array([0.8, 0.2]))
        assert len(found) == 1
        np.testing.assert_allclose(found[0].state[:, 0], [0, 1, 1])

    def test_unreachable_target_raises(self, threepop):
        with pytest.raises(InapplicableError, match="no uncontrolled"):
            find_target_equilibria(threepop, np.array([0.6, 0.4]))

    def test_vertex_target_on_a_large_game_is_one_combination(self):
        # a generic (10,10) game has ten payoff groups per population, and
        # their 10^10 combinations never finish; no population can use an
        # untargeted action, so only action 0's groups are combined
        scen = random_scenario(np.random.default_rng(40), m=10, n=10)
        y_star = np.eye(10)[0]
        begin = time.perf_counter()
        eq = unique_target_equilibrium(scen, y_star)
        assert time.perf_counter() - begin < 1.0
        assert np.array_equal(eq.state, np.tile(y_star, (10, 1)))
        assert eq.carriers == ((0,),) * 10

    def test_every_action_pure_target_is_pruned(self):
        # every population plays one action of its own payoff group, so the
        # full product has 5^8 = 390,625 group combinations (4 s to try
        # them all); a group of one action loads its population's share
        m, n = 8, 5
        scen = random_scenario(np.random.default_rng(5), m=m, n=n)
        pure = np.eye(n)[np.arange(m) % n]
        begin = time.perf_counter()
        found = find_target_equilibria(scen, aggregate_output(pure, scen))
        assert time.perf_counter() - begin < 1.0
        assert [eq.state.tobytes() for eq in found] == [pure.tobytes()]

    def test_vertex_target_on_many_populations(self):
        # one level of the search per population: 2,000 levels need no
        # recursion
        m = 2000
        scen = Scenario(payoffs=np.tile([[1.0, 0.0], [0.0, 1.0]], (m, 1, 1)),
                        shares=np.full(m, 1.0 / m))
        y_star = np.array([1.0, 0.0])
        found = find_target_equilibria(scen, y_star)
        assert len(found) == 1
        assert np.array_equal(found[0].state, np.tile(y_star, (m, 1)))

    def test_pruned_search_equals_every_combination(self):
        # the reference: every combination of payoff groups, in
        # itertools.product order, each solved by _combo_solutions
        rng = np.random.default_rng(77)
        for trial in range(120):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            scen = random_scenario(rng, m=m, n=n)
            if trial % 2:  # integer payoffs: ties and continua
                scen = Scenario(payoffs=np.round(scen.payoffs / 2.5),
                                shares=scen.shares)
            y_star = aggregate_output(np.eye(n)[rng.integers(0, n, m)], scen)
            at_target = action_payoffs(scen, y_star)
            groups = [_payoff_classes(values, y_star > 0.0)
                      for values in at_target]
            expected = [
                (point.tobytes(), continuum) for point, continuum in
                (_combo_solutions(scen, y_star, combo)
                 for combo in product(*groups)) if point is not None]
            found = find_target_equilibria(scen, y_star)
            assert [(eq.state.tobytes(), eq.continuum_vertex)
                    for eq in found] == expected

    def test_two_isolated_solutions(self, threepop):
        flat = np.array([[1.0, 1.0], [1.0, 1.0]])
        scen = Scenario(
            payoffs=np.stack([threepop.payoffs[0], flat, threepop.payoffs[2]]),
            shares=threepop.shares)
        found = find_target_equilibria(scen, np.array([0.5, 0.5]))
        shares1 = sorted(tuple(np.round(eq.state[:, 0], 6)) for eq in found)
        assert shares1 == [(0.0, 0.0, 1.0), (1.0, 1.0, 0.0)]
        assert not any(eq.continuum_vertex for eq in found)
        with pytest.raises(InapplicableError, match="exactly one"):
            unique_target_equilibrium(scen, np.array([0.5, 0.5]))

    def test_continuum_reported_by_flagged_points(self, threepop):
        # one representative per payoff-class combination, every one flagged
        flat = np.array([[1.0, 1.0], [1.0, 1.0]])
        scen = Scenario(payoffs=np.stack([threepop.payoffs[0], flat, flat]),
                        shares=threepop.shares)
        y_star = np.array([0.55, 0.45])
        found = find_target_equilibria(scen, y_star)
        assert found and all(eq.continuum_vertex for eq in found)
        for eq in found:
            assert_on_matching_set(eq.state, scen, y_star)
        with pytest.raises(InapplicableError, match="exactly one"):
            unique_target_equilibrium(scen, y_star)

    def test_two_action_verdicts_match_the_vertex_oracle(self):
        # seeded two-action games: integer or real payoffs, one or two flat
        # populations in a third of them, pure or mixed reachable targets
        rng = np.random.default_rng(2024)
        seen = {"unique": 0, "mixed_unique": 0, "continuum": 0,
                "multiple_target_equilibria": 0, "no_target_equilibrium": 0}
        for trial in range(300):
            m = int(rng.integers(2, 6))
            if trial % 3 == 2:
                payoffs = rng.uniform(-1.0, 1.0, (m, 2, 2))
            else:
                payoffs = rng.integers(-2, 3, (m, 2, 2)).astype(float)
            flat = int(rng.integers(m))
            if trial % 3 == 0:
                for k in {flat, (flat + 1) % m} if trial % 6 == 0 else {flat}:
                    payoffs[k] = payoffs[k, 0, 0]
            shares = (rng.dirichlet(np.ones(m)) + 0.05) / (1.0 + 0.05 * m)
            first = rng.integers(0, 2, m).astype(float)
            if trial % 2:
                first[flat] = rng.choice([0.25, 0.5, rng.uniform()])
            scen = Scenario(payoffs=payoffs, shares=shares)
            y_star = aggregate_output(np.stack([first, 1.0 - first], axis=1),
                                      scen)
            expected, state = two_action_verdict(scen, y_star)
            try:
                found = find_target_equilibria(scen, y_star)
            except InapplicableError as exc:
                assert exc.reason == expected
                seen[expected] += 1
                continue
            if len(found) > 1 or found[0].continuum_vertex:
                assert expected == "multiple_target_equilibria"
                seen[expected] += 1
                seen["continuum"] += any(eq.continuum_vertex for eq in found)
                continue
            assert expected == "unique"
            np.testing.assert_allclose(found[0].state, state, atol=1e-12,
                                       rtol=0.0)
            seen["unique"] += 1
            seen["mixed_unique"] += bool(np.any((state > 0.0) & (state < 1.0)))
        assert min(seen.values()) >= 20, seen

    def test_three_action_ties_everywhere_are_a_continuum(self):
        scen, y_star = tied_everywhere_game()
        found = find_target_equilibria(scen, y_star)
        assert len(found) == 1 and found[0].continuum_vertex
        assert_on_matching_set(found[0].state, scen, y_star)
        assert np.all(found[0].state[:, 2] == 0.0)
        assert np.max(np.abs(field_uncontrolled(scen, found[0].state))) < 1e-9
        with pytest.raises(InapplicableError, match="exactly one"):
            unique_target_equilibrium(scen, y_star)

    def test_three_action_tie_in_one_population_pins_a_point(self):
        scen, y_star, state = tied_once_game()
        found = find_target_equilibria(scen, y_star)
        assert len(found) == 1 and not found[0].continuum_vertex
        np.testing.assert_allclose(found[0].state, state, atol=1e-12,
                                   rtol=0.0)
        assert found[0].carriers == ((0, 1), (0,), (2,))
        assert unique_target_equilibrium(scen, y_star).carriers == \
            found[0].carriers

    def test_returned_points_rest_under_any_gain(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            scen = random_scenario(rng, n=2)
            combo = rng.integers(0, 2, size=scen.n_populations)
            vertex = np.zeros((scen.n_populations, 2))
            vertex[np.arange(scen.n_populations), combo] = 1.0
            y_star = aggregate_output(vertex, scen)
            found = find_target_equilibria(scen, y_star)
            assert found
            for eq in found:
                assert np.max(np.abs(
                    field_uncontrolled(scen, eq.state))) < 1e-9
                for d in (0.5, 1.0, 10.0):
                    policy = ControlPolicy(y_star=y_star, d=d)
                    assert np.max(np.abs(
                        field_controlled(scen, eq.state, policy))) < 1e-9

    def test_carried_actions_tie_with_target_payoff(self, threepop):
        for target in ([1.0, 0.0], [0.8, 0.2], [0.5, 0.5]):
            y_star = np.array(target)
            try:
                found = find_target_equilibria(threepop, y_star)
            except InapplicableError:
                continue
            for eq in found:
                for k, carried in enumerate(eq.carriers):
                    avg = average_payoff(threepop, k, eq.state[k], y_star)
                    for i in carried:
                        assert abs(expected_payoff(threepop, k, i, y_star)
                                   - avg) < 1e-9


class TestRecommendation:
    def test_boundary_target_report(self, threepop):
        report = recommend_subsidy(threepop, np.array([1.0, 0.0]),
                                   SamplingConfig(), seed=7)
        assert report.seed == 7
        assert report.applicable and report.unique
        assert report.subsidy_bound < 1.2
        assert report.min_advantage >= -1e-9
        assert report.recommended_subsidy > max(0.0, report.subsidy_bound)

    def test_interior_target_report(self, threepop):
        report = recommend_subsidy(threepop, np.array([0.8, 0.2]),
                                   SamplingConfig(), seed=7)
        assert report.applicable
        assert report.subsidy_bound < 1.5
        assert report.min_advantage >= -1e-9

    def test_floor_recommendation_when_bound_negative(self):
        payoff = np.array([[2.0, 2.0], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff] * 3),
                        shares=np.array([0.2, 0.3, 0.5]))
        report = recommend_subsidy(
            scen, np.array([1.0, 0.0]),
            SamplingConfig(grid_per_dim=9, random_samples=5_000), seed=1)
        assert report.subsidy_bound <= 0.0
        assert report.recommended_subsidy == pytest.approx(1e-3, abs=0.0)

    def test_refuses_on_multiple_equilibria(self):
        scen, eq = ess_scenario()
        report = recommend_subsidy(scen, eq.target_output,
                                   SamplingConfig(grid_per_dim=7,
                                                  random_samples=1_000))
        assert not report.applicable
        assert report.reason == "multiple_target_equilibria"
        assert report.recommended_subsidy is None


class TestJacobianDiagnostics:
    def test_uncontrolled_attractors_and_saddle(self, threepop):
        off = ControlPolicy.off(2)
        for z, stable in [((0.0, 0.0, 1.0), True),
                          ((0.0, 1.0, 1.0), True),
                          ((1.0, 1.0, 1.0), False)]:
            jac = equilibrium_jacobian(threepop, off, z_state(z))
            real_parts = np.real(np.linalg.eigvals(jac))
            if stable:
                assert real_parts.max() < 0.0
            else:
                assert real_parts.max() > 0.0


class TestObserver:
    def test_series_keys_and_consistency(self, threepop, eq_boundary):
        observer = LyapunovObserver(eq_boundary, threepop)
        rng = np.random.default_rng(103)
        states = np.array([random_state(rng, threepop, interior=0.01)
                           for _ in range(20)])
        series = observer.series(states.transpose(1, 2, 0), d=1.2)
        assert set(series) == {"V", "Vdot", "F1", "F2"}
        star, target = eq_boundary.state, eq_boundary.target_output
        for idx in range(20):
            # F1 = sum_k v^k (x*^k - x^k) . A^k y and F2 = sum_i
            # (y*_i - y_i) y*_i / y_i over the targeted actions
            x = states[idx]
            y = threepop.shares @ x
            advantage = sum(v * (s - r) @ (a @ y) for v, s, r, a in
                            zip(threepop.shares, star, x, threepop.payoffs))
            mismatch = sum((target[i] - y[i]) * target[i] / y[i]
                           for i in np.flatnonzero(target > 0.0))
            assert series["F1"][idx] == pytest.approx(advantage)
            assert series["F2"][idx] == pytest.approx(mismatch)
            assert series["Vdot"][idx] == pytest.approx(
                -advantage - 1.2 * mismatch)
            assert series["V"][idx] == pytest.approx(
                lyapunov_value(x, eq_boundary, threepop))

    def test_zero_gain_rate_where_mismatch_is_infinite(self, threepop,
                                                       eq_boundary):
        # a targeted output share of 0 makes F2 infinite; at d = 0 there is
        # no subsidy term, so Vdot is -F1 there, and -F1 - 0·F2 elsewhere
        rng = np.random.default_rng(104)
        states = np.array([random_state(rng, threepop, interior=0.01)
                           for _ in range(6)])
        states[::2] = [[0.0, 1.0]] * 3
        observer = LyapunovObserver(eq_boundary, threepop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = observer.series(states.transpose(1, 2, 0), 0.0)
        infinite = np.isinf(series["F2"])
        assert infinite.tolist() == [True, False] * 3
        assert_same_bits(series["Vdot"][infinite], -series["F1"][infinite])
        finite = ~infinite
        assert_same_bits(series["Vdot"][finite],
                         -series["F1"][finite] - 0.0 * series["F2"][finite])

    @pytest.mark.parametrize("target,pinned", [
        ([1.0, 0.0], ["0x1.a7194115a0a46p-1", "0x1.b543f16723acfp-2",
                      "0x1.3abf7b3da9880p+0", "0x1.22aea23ba5edcp+0",
                      "0x1.770184f606a34p-1", "0x1.03df897607e36p-1"]),
        ([0.8, 0.2], ["0x1.72cd1b5cb43a4p-1", "0x1.fb7cfbc5cff53p-2",
                      "0x1.33a0e3ab2d986p+0", "0x1.fcabf6adb5006p-1",
                      "0x1.54a0cb110dd88p-1", "0x1.98193a9815104p-2"]),
    ])
    def test_values_are_pinned(self, threepop, target, pinned):
        # V sums its carried entries in row order, one population at a
        # time; another order changes these bits
        rng = np.random.default_rng(2)
        states = np.array([random_state(rng, threepop, interior=0.01)
                           for _ in range(6)])
        observer = LyapunovObserver(
            unique_target_equilibrium(threepop, np.array(target)), threepop)
        values = observer.values(states.transpose(1, 2, 0))
        assert [value.hex() for value in values.tolist()] == pinned
