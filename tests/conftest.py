"""Shared fixtures: the three-population worked example and random generators."""

from __future__ import annotations

import numpy as np
import pytest

from replicator_ctl import ControlPolicy, Scenario, make_state

# the bundled three-population, two-action example used throughout
THREEPOP_PAYOFFS = np.array(
    [[[2.0, 1.0], [3.0, 4.0]],
     [[3.0, 1.0], [2.0, 4.0]],
     [[3.0, 4.0], [1.0, 2.0]]]
)
THREEPOP_SHARES = np.array([0.2, 0.3, 0.5])

# its five reference initial states, as first-action shares per population
FIVE_STARTS = [
    (0.01, 0.01, 0.01),
    (0.01, 0.99, 0.01),
    (0.99, 0.01, 0.01),
    (0.99, 0.99, 0.01),
    (0.5, 0.5, 0.01),
]

# attractors of the uncontrolled dynamics, and which start reaches which
# (frozen from an independent adaptive-integrator reference run at
# rtol=1e-10; only the fourth start lands on the second attractor)
UNCONTROLLED_ATTRACTORS = {
    (0.01, 0.01, 0.01): (0.0, 0.0, 1.0),
    (0.01, 0.99, 0.01): (0.0, 0.0, 1.0),
    (0.99, 0.01, 0.01): (0.0, 0.0, 1.0),
    (0.99, 0.99, 0.01): (0.0, 1.0, 1.0),
    (0.5, 0.5, 0.01): (0.0, 0.0, 1.0),
}


@pytest.fixture(scope="session")
def threepop() -> Scenario:
    return Scenario(payoffs=THREEPOP_PAYOFFS, shares=THREEPOP_SHARES)


@pytest.fixture(scope="session")
def policy_boundary() -> ControlPolicy:
    return ControlPolicy(y_star=np.array([1.0, 0.0]), d=1.2)


@pytest.fixture(scope="session")
def policy_interior() -> ControlPolicy:
    return ControlPolicy(y_star=np.array([0.8, 0.2]), d=1.5)


def z_state(z: tuple[float, ...] | np.ndarray) -> np.ndarray:
    """Two-action state from per-population first-action shares."""
    z = np.asarray(z, dtype=float)
    return make_state(np.stack([z, 1.0 - z], axis=1))


def five_start_states() -> list[np.ndarray]:
    return [z_state(z) for z in FIVE_STARTS]


def random_scenario(rng: np.random.Generator, m: int | None = None,
                    n: int | None = None, payoff_scale: float = 5.0) -> Scenario:
    """A valid random scenario; shares kept away from 0 and 1."""
    m = m or int(rng.integers(2, 5))
    n = n or int(rng.integers(2, 5))
    payoffs = rng.uniform(-payoff_scale, payoff_scale, size=(m, n, n))
    raw = rng.dirichlet(np.ones(m))
    shares = (raw + 0.05) / (1.0 + 0.05 * m)
    return Scenario(payoffs=payoffs, shares=shares)


def random_state(rng: np.random.Generator, scenario: Scenario,
                 interior: float = 0.0) -> np.ndarray:
    """Random state combination; optionally pulled toward the barycenter."""
    x = rng.dirichlet(np.ones(scenario.n_actions),
                      size=scenario.n_populations)
    if interior > 0.0:
        blend = interior * scenario.n_actions
        x = (1.0 - blend) * x + blend / scenario.n_actions
    return x


def random_policy(rng: np.random.Generator, scenario: Scenario,
                  d_range: tuple[float, float] = (0.1, 5.0),
                  boundary_target: bool = False) -> ControlPolicy:
    """Random control policy; boundary_target zeroes one target share."""
    y_star = rng.dirichlet(np.ones(scenario.n_actions))
    if boundary_target:
        drop = int(rng.integers(scenario.n_actions))
        y_star[drop] = 0.0
        y_star /= y_star.sum()
    d = float(rng.uniform(*d_range))
    return ControlPolicy(y_star=y_star, d=d)


# 1-based trials of recipe_game whose advantage is negative on the matching
# set, with its exact minimum; a 3,000-step hit-and-run chain over the set
# found only positive values there (+0.147, +0.043, +0.023)
RECIPE_REFUSED = {30: -0.10274, 38: -0.01435, 42: -0.07320}


def recipe_game(trial: int) -> tuple[Scenario, np.ndarray]:
    """Trial ``trial`` of a seeded stream of random games and targets.

    Each trial draws m in [3, 7), n in [2, 4), payoffs U(-1, 1), Dirichlet
    shares and a pure profile whose aggregate is the target; a trial whose
    target has a share above 0.999 counts but is not used.
    """
    rng = np.random.default_rng(7)
    for _ in range(trial):
        m = rng.integers(3, 7)
        n = rng.integers(2, 4)
        payoffs = rng.uniform(-1.0, 1.0, (m, n, n))
        shares = rng.dirichlet(np.ones(m))
        profile = rng.integers(0, n, m)
    y_star = np.zeros(n)
    np.add.at(y_star, profile, shares)
    assert y_star.max() <= 0.999
    return Scenario(payoffs=payoffs, shares=shares), y_star


# (3, 3) games whose payoffs tie at the target output, so that equilibrium
# enumeration solves restricted systems with three actions
TIED_SHARES = np.array([0.2, 0.3, 0.5])


def tied_everywhere_game() -> tuple[Scenario, np.ndarray]:
    """Actions 0 and 1 earn the same at y* = (0.5, 0.5, 0) in every
    population, so every mix of them that aggregates to y* is a target
    equilibrium: a continuum."""
    payoffs = np.array([
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
        [[2.0, 0.0, 1.0], [1.0, 1.0, 3.0], [0.0, 0.0, 2.0]],
        [[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [3.0, 3.0, 0.0]],
    ])
    return (Scenario(payoffs=payoffs, shares=TIED_SHARES),
            np.array([0.5, 0.5, 0.0]))


def tied_once_game() -> tuple[Scenario, np.ndarray, np.ndarray]:
    """Only population 0 ties (actions 0 and 1) at y* = (0.38, 0.12, 0.5);
    the others have distinct payoffs, and the restricted system pins the
    single target equilibrium x* returned third."""
    payoffs = np.array([
        [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
    ])
    state = np.array([[0.4, 0.6, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return (Scenario(payoffs=payoffs, shares=TIED_SHARES),
            TIED_SHARES @ state, state)
