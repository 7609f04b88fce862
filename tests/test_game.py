"""Scenario validation, payoff evaluation, aggregation, and their invariants."""

from __future__ import annotations

import tracemalloc
from itertools import product

import numpy as np
import pytest

from replicator_ctl import (
    Scenario,
    ScenarioError,
    aggregate_output,
    carrier,
    scenario_digest,
)
from replicator_ctl.game import LATTICE_BYTE_BUDGET, check_lattice_budget
from replicator_ctl.integrate import interior_grid
from replicator_ctl.stability import _grid_states
from conftest import (THREEPOP_PAYOFFS, THREEPOP_SHARES, average_payoff,
                      expected_payoff, local_shift, make_state,
                      random_scenario, random_state)


def threepop_dict():
    return {
        "populations": [
            {"share": 0.2, "payoff": [[2, 1], [3, 4]]},
            {"share": 0.3, "payoff": [[3, 1], [2, 4]]},
            {"share": 0.5, "payoff": [[3, 4], [1, 2]]},
        ]
    }


class TestValidation:
    def test_worked_example_is_valid(self):
        scen = Scenario.from_dict(threepop_dict())
        assert scen.n_populations == 3
        assert scen.n_actions == 2
        np.testing.assert_allclose(scen.shares, [0.2, 0.3, 0.5])
        np.testing.assert_array_equal(scen.payoffs[0], [[2, 1], [3, 4]])

    def test_shares_must_sum_to_one(self):
        raw = threepop_dict()
        raw["populations"][0]["share"] = 0.5
        raw["populations"][1]["share"] = 0.5
        raw["populations"][2]["share"] = 0.1
        with pytest.raises(ScenarioError, match="sum to 1"):
            Scenario.from_dict(raw)

    def test_single_population_rejected(self):
        raw = {"populations": [{"share": 1.0, "payoff": [[1, 2], [3, 4]]}]}
        with pytest.raises(ScenarioError):
            Scenario.from_dict(raw)

    def test_share_outside_open_interval(self):
        with pytest.raises(ScenarioError, match="strictly"):
            Scenario(payoffs=THREEPOP_PAYOFFS,
                     shares=np.array([0.0, 0.5, 0.5]))

    def test_non_finite_payoff(self):
        payoffs = THREEPOP_PAYOFFS.copy()
        payoffs[1, 0, 1] = np.nan
        with pytest.raises(ScenarioError, match="non-finite"):
            Scenario(payoffs=payoffs, shares=THREEPOP_SHARES)

    def test_dimension_mismatch(self):
        raw = threepop_dict()
        raw["populations"][2]["payoff"] = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        with pytest.raises(ScenarioError, match="expected"):
            Scenario.from_dict(raw)

    def test_single_action_rejected(self):
        with pytest.raises(ScenarioError, match="2 actions"):
            Scenario(payoffs=np.ones((2, 1, 1)),
                     shares=np.array([0.5, 0.5]))

    def test_payoffs_are_immutable(self, threepop):
        with pytest.raises(ValueError):
            threepop.payoffs[0, 0, 0] = 99.0

    def test_digest_is_stable(self, threepop):
        again = Scenario.from_dict(threepop_dict())
        assert scenario_digest(threepop) == scenario_digest(again)


class TestAggregation:
    def test_symmetric_rows(self, threepop):
        x = make_state([[0.5, 0.5]] * 3)
        np.testing.assert_allclose(aggregate_output(x, threepop), [0.5, 0.5])

    def test_hand_sum(self, threepop):
        x = make_state([[0, 1], [1, 0], [1, 0]])
        np.testing.assert_allclose(aggregate_output(x, threepop), [0.8, 0.2])

    def test_unanimous_action(self, threepop):
        x = make_state([[1, 0]] * 3)
        np.testing.assert_allclose(aggregate_output(x, threepop), [1.0, 0.0])

    def test_output_stays_on_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            scen = random_scenario(rng)
            x = random_state(rng, scen)
            y = aggregate_output(x, scen)
            assert abs(y.sum() - 1.0) < 1e-12
            assert np.all(y >= 0.0) and np.all(y <= 1.0)


class TestPayoffs:
    def test_expected_payoff_examples(self, threepop):
        y = np.array([0.5, 0.5])
        assert expected_payoff(threepop, 0, 0, y) == pytest.approx(1.5)
        assert expected_payoff(threepop, 2, 1, y) == pytest.approx(1.5)

    def test_unit_output_picks_one_entry(self, threepop):
        y = np.array([1.0, 0.0])
        for k in range(3):
            assert expected_payoff(threepop, k, 0, y) == threepop.payoffs[k, 0, 0]

    def test_average_payoff_examples(self, threepop):
        y = np.array([0.5, 0.5])
        xk = np.array([0.5, 0.5])
        assert average_payoff(threepop, 0, xk, y) == pytest.approx(2.5)
        assert average_payoff(threepop, 1, xk, y) == pytest.approx(2.5)

    def test_degenerate_mixture_equals_expected(self, threepop):
        y = np.array([0.3, 0.7])
        for k in range(3):
            for i in range(2):
                e = np.zeros(2)
                e[i] = 1.0
                assert average_payoff(threepop, k, e, y) == pytest.approx(
                    expected_payoff(threepop, k, i, y), abs=1e-12)

    def test_bilinearity(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            scen = random_scenario(rng)
            k = int(rng.integers(scen.n_populations))
            xa = rng.dirichlet(np.ones(scen.n_actions))
            xb = rng.dirichlet(np.ones(scen.n_actions))
            ya = rng.dirichlet(np.ones(scen.n_actions))
            yb = rng.dirichlet(np.ones(scen.n_actions))
            lam = float(rng.uniform())
            mixed_x = lam * xa + (1 - lam) * xb
            assert average_payoff(scen, k, mixed_x, ya) == pytest.approx(
                lam * average_payoff(scen, k, xa, ya)
                + (1 - lam) * average_payoff(scen, k, xb, ya), abs=1e-10)
            mixed_y = lam * ya + (1 - lam) * yb
            i = int(rng.integers(scen.n_actions))
            assert expected_payoff(scen, k, i, mixed_y) == pytest.approx(
                lam * expected_payoff(scen, k, i, ya)
                + (1 - lam) * expected_payoff(scen, k, i, yb), abs=1e-10)


class TestLocalShift:
    def test_column_shift_example(self, threepop):
        shifted = local_shift(threepop, 0, 0, 5.0)
        np.testing.assert_array_equal(shifted.payoffs[0], [[7, 1], [8, 4]])
        np.testing.assert_array_equal(shifted.payoffs[1], threepop.payoffs[1])

    def test_zero_shift_is_identity(self, threepop):
        shifted = local_shift(threepop, 1, 1, 0.0)
        np.testing.assert_array_equal(shifted.payoffs, threepop.payoffs)

    def test_shift_then_unshift(self, threepop):
        roundtrip = local_shift(local_shift(threepop, 2, 0, 3.25), 2, 0, -3.25)
        np.testing.assert_allclose(roundtrip.payoffs, threepop.payoffs,
                                   atol=1e-12)

    def test_payoff_difference_invariant(self):
        # the action-vs-average payoff gap picks up b*y_j twice and cancels
        rng = np.random.default_rng(13)
        for _ in range(1000):
            scen = random_scenario(rng)
            k = int(rng.integers(scen.n_populations))
            i = int(rng.integers(scen.n_actions))
            j = int(rng.integers(scen.n_actions))
            b = float(rng.uniform(-10, 10))
            xk = rng.dirichlet(np.ones(scen.n_actions))
            y = rng.dirichlet(np.ones(scen.n_actions))
            gap = (expected_payoff(scen, k, i, y)
                   - average_payoff(scen, k, xk, y))
            shifted = local_shift(scen, k, j, b)
            gap_shifted = (expected_payoff(shifted, k, i, y)
                           - average_payoff(shifted, k, xk, y))
            assert gap_shifted == pytest.approx(gap, abs=1e-10)


class TestCarrier:
    def test_vertex(self):
        assert carrier(np.array([1.0, 0.0])).tolist() == [0]

    def test_mixed(self):
        assert carrier(np.array([0.8, 0.2])).tolist() == [0, 1]

    def test_interior_is_full(self):
        z = np.array([0.2, 0.3, 0.5])
        assert carrier(z).tolist() == [0, 1, 2]

    def test_round_off_is_not_carried(self):
        assert carrier(np.array([1.0 - 1e-13, 1e-13])).tolist() == [0]


def reference_lattice(n_actions, per_dim):
    total = per_dim - 1
    points = [list(c) + [total - sum(c)]
              for c in product(range(per_dim), repeat=n_actions - 1)
              if sum(c) <= total]
    return np.array(points, dtype=float) / float(total)


def reference_product(lattice, n_populations):
    return np.array([[lattice[idx] for idx in combo] for combo in
                     product(range(lattice.shape[0]), repeat=n_populations)])


LATTICE_CASES = [(3, 2, 9), (2, 3, 4), (3, 3, 10), (2, 4, 5), (5, 2, 3)]


class TestLattice:
    @pytest.mark.parametrize("m,n,per_dim", LATTICE_CASES)
    def test_grid_states_equal_reference(self, m, n, per_dim):
        scen = random_scenario(np.random.default_rng(per_dim), m=m, n=n)
        expected = reference_product(reference_lattice(n, per_dim), m)
        np.testing.assert_array_equal(_grid_states(scen, per_dim), expected)

    @pytest.mark.parametrize("floor", [0.01, 0.02])
    @pytest.mark.parametrize("m,n,per_dim", LATTICE_CASES)
    def test_interior_grid_equals_reference(self, m, n, per_dim, floor):
        scen = random_scenario(np.random.default_rng(per_dim), m=m, n=n)
        blend = floor * n
        lattice = (1.0 - blend) * reference_lattice(n, per_dim) + blend / n
        expected = reference_product(lattice, m)
        np.testing.assert_array_equal(interior_grid(scen, per_dim, floor),
                                      expected)

    @pytest.mark.parametrize("build", [_grid_states, interior_grid])
    def test_oversized_grid_is_refused_unallocated(self, build):
        # (2, 8) at 15 points: 116,280 lattice points; the full cube of
        # 15**7 candidate compositions alone would take 9.6 GB
        scen = random_scenario(np.random.default_rng(8), m=2, n=8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match="13,521,038,400 states") as info:
                build(scen, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"budget of {LATTICE_BYTE_BUDGET:,} bytes" in str(info.value)
        assert peak < 1_000_000

    def test_lattice_memory_follows_its_size(self):
        # (2, 30) at 2 points: 30 vertices and 900 states, from a cube of
        # 2**29 candidate compositions that must never be built
        scen = random_scenario(np.random.default_rng(30), m=2, n=30)
        tracemalloc.start()
        try:
            grid = _grid_states(scen, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # product order puts the last vertex first
        expected = reference_product(np.eye(30)[::-1], 2)
        np.testing.assert_array_equal(grid, expected)
        assert peak < 2_000_000

    @pytest.mark.parametrize("m,n,per_dim", [(2, 2, 2100), (4, 2, 46),
                                             (3, 3, 15)])
    def test_budget_counts_bytes(self, m, n, per_dim):
        check_lattice_budget(m, n, per_dim)  # 141, 287 and 124 MB

    def test_budget_refuses_just_over(self):
        # 3,061**2 states of 2 x 2 doubles take 299,831,072 bytes
        check_lattice_budget(2, 2, 3_061)
        with pytest.raises(ValueError, match="300,027,008 bytes"):
            check_lattice_budget(2, 2, 3_062)

    @pytest.mark.parametrize("per_dim", [1, 0, -3])
    def test_fewer_than_two_points_are_refused(self, per_dim):
        with pytest.raises(ValueError, match="per_dim must be >= 2"):
            check_lattice_budget(3, 3, per_dim)
