"""Certificate values and rates, gain-bound estimation, matching-set scans,
equilibrium enumeration, and report assembly."""

from __future__ import annotations

import json

import numpy as np
import pytest

from replicator_ctl import (
    ControlPolicy,
    Scenario,
    aggregate_output,
    average_payoff,
    expected_payoff,
    field_controlled,
    field_uncontrolled,
    make_state,
)
from replicator_ctl.stability import (
    AtTargetOutputError,
    InapplicableError,
    LyapunovObserver,
    SamplingConfig,
    TargetEquilibrium,
    critical_subsidy,
    equilibrium_jacobian,
    estimate_subsidy_bound,
    find_target_equilibria,
    lyapunov_rate,
    lyapunov_value,
    min_advantage_on_matching_set,
    recommend_subsidy,
    unique_target_equilibrium,
)
from replicator_ctl.stability import _dbar_batch, _grid_states, _mismatch_batch
from conftest import random_scenario, random_state, z_state


@pytest.fixture(scope="module")
def eq_boundary(threepop):
    return unique_target_equilibrium(threepop, np.array([1.0, 0.0]))


@pytest.fixture(scope="module")
def eq_interior(threepop):
    return unique_target_equilibrium(threepop, np.array([0.8, 0.2]))


def ess_scenario():
    """Identical populations with an interior indifference point: the payoff
    advantage of the matching profile is non-negative everywhere."""
    payoff = np.array([[0.0, 2.0], [1.0, 0.0]])
    scen = Scenario(payoffs=np.stack([payoff] * 3),
                    shares=np.array([0.2, 0.3, 0.5]))
    y_star = np.array([2.0 / 3.0, 1.0 / 3.0])
    eq = TargetEquilibrium.from_state(scen, np.tile(y_star, (3, 1)), y_star)
    return scen, eq


class TestCertificateValue:
    def test_zero_at_target(self, threepop, eq_boundary):
        assert lyapunov_value(eq_boundary.state, eq_boundary, threepop) == 0.0

    def test_worked_example(self, threepop, eq_boundary):
        x = make_state([[0.5, 0.5]] * 3)
        assert lyapunov_value(x, eq_boundary, threepop) == pytest.approx(
            np.log(2.0))

    def test_positive_away_from_target(self, threepop, eq_interior):
        rng = np.random.default_rng(73)
        for _ in range(500):
            x = random_state(rng, threepop, interior=0.001)
            if np.max(np.abs(x - eq_interior.state)) < 1e-9:
                continue
            assert lyapunov_value(x, eq_interior, threepop) > 0.0

    def test_infinite_sentinel_on_dead_carried_share(self, threepop,
                                                     eq_boundary):
        x = make_state([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        assert lyapunov_value(x, eq_boundary, threepop) == np.inf


class TestRateDecomposition:
    def test_worked_example(self, threepop, eq_boundary):
        x = make_state([[0.5, 0.5]] * 3)
        terms = lyapunov_rate(x, eq_boundary, threepop, d=1.2)
        assert terms.advantage == pytest.approx(0.15)
        assert terms.mismatch == pytest.approx(1.0)
        assert terms.rate == pytest.approx(-1.35)

    def test_mismatch_vanishes_on_target_output(self, threepop, eq_interior):
        # any profile aggregating to the target zeroes the mismatch exactly
        x = make_state([eq_interior.target_output] * 3)
        terms = lyapunov_rate(x, eq_interior, threepop, d=2.0)
        assert terms.mismatch == 0.0

    def test_zero_at_target_state(self, threepop, eq_boundary):
        terms = lyapunov_rate(eq_boundary.state, eq_boundary, threepop, d=1.2)
        assert terms.advantage == pytest.approx(0.0, abs=1e-12)
        assert terms.mismatch == pytest.approx(0.0, abs=1e-12)
        assert terms.rate == pytest.approx(0.0, abs=1e-12)

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
            analytic = lyapunov_rate(x, eq, threepop, d).rate
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
        mismatch = _mismatch_batch(outputs, eq_interior.target_output)
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
            direct = _mismatch_batch(outputs, target)
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
            terms = lyapunov_rate(x, eq_boundary, threepop, 0.0)
            if terms.mismatch < 1e-9:
                continue
            value = critical_subsidy(x, eq_boundary, threepop)
            if terms.advantage > 0:
                assert value < 0
            elif terms.advantage < 0:
                assert value > 0

    def test_at_target_output_raises(self, threepop, eq_interior):
        x = make_state([eq_interior.target_output] * 3)
        with pytest.raises(AtTargetOutputError):
            critical_subsidy(x, eq_interior, threepop)


class TestBoundEstimate:
    def test_boundary_target_under_published_threshold(self, threepop,
                                                       eq_boundary):
        estimate = estimate_subsidy_bound(eq_boundary, threepop,
                                          SamplingConfig(seed=3))
        # the all-second-action state for population 1 alone scores 1.12,
        # and the supremum is known to sit below 1.2
        assert 1.0 < estimate.value < 1.2
        _, ok = _dbar_batch(estimate.argmax[None], eq_boundary, threepop,
                            1e-6, 1e-6)
        assert ok[0]

    def test_interior_target_under_published_threshold(self, threepop,
                                                       eq_interior):
        estimate = estimate_subsidy_bound(eq_interior, threepop,
                                          SamplingConfig(seed=3))
        witness = z_state((0.0, 0.0, 1.0))
        witness_value, valid = _dbar_batch(witness[None], eq_interior,
                                           threepop, 1e-6, 1e-6)
        assert valid[0]
        assert estimate.value >= witness_value[0] - 1e-9
        assert estimate.value < 1.5

    def test_never_positive_when_advantage_everywhere(self):
        scen, eq = ess_scenario()
        # brute-force reference over a dense lattice
        grid = _grid_states(scen, 31)
        values, valid = _dbar_batch(grid, eq, scen, 1e-6, 1e-6)
        assert values[valid].max() <= 0.0
        estimate = estimate_subsidy_bound(
            eq, scen, SamplingConfig(grid_per_dim=15, random_samples=20_000,
                                     seed=5))
        assert estimate.value <= 0.0

    def test_random_3x3_vertex_bound_is_pinned(self):
        # value and argmax as the lattice built from per-state Python lists
        # gave them, bit for bit
        scen = random_scenario(np.random.default_rng(2024), m=3, n=3)
        eq = unique_target_equilibrium(scen, np.array([1.0, 0.0, 0.0]))
        estimate = estimate_subsidy_bound(
            eq, scen, SamplingConfig(grid_per_dim=10, random_samples=2_000,
                                     seed=7))
        assert repr(estimate.value) == "2.954995396511278"
        assert estimate.argmax.tolist() == [
            [1.0, 0.0, 0.0],
            [0.9999975893232558, 0.0, 2.4106767442244603e-06],
            [1.0, 0.0, 0.0],
        ]
        assert (estimate.n_grid, estimate.n_ascent_evals) == (166_375, 2_691)

    def test_estimate_is_deterministic(self, threepop, eq_boundary):
        cfg = SamplingConfig(grid_per_dim=7, random_samples=2_000, seed=11)
        first = estimate_subsidy_bound(eq_boundary, threepop, cfg)
        second = estimate_subsidy_bound(eq_boundary, threepop, cfg)
        assert first.value == second.value
        assert np.array_equal(first.argmax, second.argmax)


class TestMatchingSet:
    def test_boundary_target_is_single_point(self, threepop, eq_boundary):
        summary = min_advantage_on_matching_set(eq_boundary, threepop)
        assert summary.min_advantage == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(summary.witness, eq_boundary.state,
                                   atol=1e-9)

    def test_interior_target_advantage_non_negative(self, threepop,
                                                    eq_interior):
        summary = min_advantage_on_matching_set(eq_interior, threepop,
                                                samples=3000, seed=1)
        assert summary.min_advantage >= -1e-9
        assert summary.n_vertices >= 2

    def test_witness_lies_on_matching_set(self, threepop, eq_interior):
        summary = min_advantage_on_matching_set(eq_interior, threepop, seed=2)
        y = aggregate_output(summary.witness, threepop)
        np.testing.assert_allclose(y, eq_interior.target_output, atol=1e-9)
        assert summary.witness.min() >= -1e-12

    def test_lopsided_target_scans_without_error(self, threepop):
        eq_states = find_target_equilibria(threepop, np.array([1.0, 0.0]))
        lopsided = TargetEquilibrium(
            state=eq_states[0].state,
            target_output=np.array([0.99, 0.01]),
            carriers=eq_states[0].carriers,
        )
        summary = min_advantage_on_matching_set(lopsided, threepop,
                                                samples=500)
        assert np.isfinite(summary.min_advantage)
        assert summary.n_samples >= 1


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

    def test_continuum_reported_via_vertices(self, threepop):
        flat = np.array([[1.0, 1.0], [1.0, 1.0]])
        scen = Scenario(payoffs=np.stack([threepop.payoffs[0], flat, flat]),
                        shares=threepop.shares)
        found = find_target_equilibria(scen, np.array([0.55, 0.45]))
        assert any(eq.continuum_vertex for eq in found)
        assert len(found) >= 3

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
                                   SamplingConfig(seed=7))
        assert report.applicable and report.unique
        assert report.subsidy_bound < 1.2
        assert report.min_advantage >= -1e-9
        assert report.recommended_subsidy > max(0.0, report.subsidy_bound)
        payload = json.dumps(report.to_dict())
        assert "recommended_subsidy" in payload

    def test_interior_target_report(self, threepop):
        report = recommend_subsidy(threepop, np.array([0.8, 0.2]),
                                   SamplingConfig(seed=7))
        assert report.applicable
        assert report.subsidy_bound < 1.5
        assert report.min_advantage >= -1e-9

    def test_floor_recommendation_when_bound_negative(self):
        payoff = np.array([[2.0, 2.0], [0.0, 0.0]])
        scen = Scenario(payoffs=np.stack([payoff] * 3),
                        shares=np.array([0.2, 0.3, 0.5]))
        report = recommend_subsidy(
            scen, np.array([1.0, 0.0]),
            SamplingConfig(grid_per_dim=9, random_samples=5_000, seed=1))
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
        series = observer.series(states, d=1.2)
        assert set(series) == {"V", "Vdot", "F1", "F2"}
        for idx in range(20):
            terms = lyapunov_rate(states[idx], eq_boundary, threepop, 1.2)
            assert series["F1"][idx] == pytest.approx(terms.advantage)
            assert series["F2"][idx] == pytest.approx(terms.mismatch)
            assert series["Vdot"][idx] == pytest.approx(terms.rate)
            assert series["V"][idx] == pytest.approx(
                lyapunov_value(states[idx], eq_boundary, threepop))
