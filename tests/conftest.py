"""Shared fixtures: the three-population worked example, random generators,
and reference helpers that the tests check the package against."""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np
import pytest

from replicator_ctl import (ControlPolicy, IntegrationConfig, Scenario,
                            Trajectory, field_controlled, simulate)
from replicator_ctl.agents import (_RoundConstants, population_sizes,
                                   round_time_step)
from replicator_ctl.dynamics import BatchKernel, batch_field
from replicator_ctl.game import aggregate_output, carrier
from replicator_ctl.stability import LyapunovObserver, TargetEquilibrium

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


def make_state(rows: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Stack per-population share rows into an (m, n) state array."""
    return np.array(rows, dtype=float)


def expected_payoff(scenario: Scenario, k: int, i: int, y: np.ndarray) -> float:
    """Expected payoff of action i in population k against output y: e_i^T A^k y."""
    return float(scenario.payoffs[k, i] @ y)


def average_payoff(scenario: Scenario, k: int, xk: np.ndarray, y: np.ndarray) -> float:
    """Mean payoff in population k at mixture xk against output y: xk^T A^k y."""
    return float(xk @ scenario.payoffs[k] @ y)


def assert_same_bits(got, expected: np.ndarray) -> None:
    """Same NaN positions, and every other entry bit for bit (so a -0.0
    must match a -0.0)."""
    got = np.array(got, dtype=float)
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    finite = ~np.isnan(expected)
    assert np.array_equal(got[finite].view(np.uint64),
                          expected[finite].view(np.uint64))


def batch_field_of(scenario: Scenario, states: np.ndarray,
                   policy: ControlPolicy, gains: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``batch_field`` of a (B, m, n) stack under ``policy``, or under a
    gain per member in place of ``policy.d``."""
    states = np.asarray(states, dtype=float)
    gains = np.full(len(states), policy.d) if gains is None else gains
    return batch_field(BatchKernel(scenario, policy.y_star, gains), states)


def lyapunov_value(x: np.ndarray, eq: TargetEquilibrium,
                   scenario: Scenario) -> float:
    """Certificate value at one state, from the formula
    V(x) = -sum_k v^k sum_{i: x*[k, i] > 0} x*[k, i] log(x[k, i] / x*[k, i]);
    +inf if a carried share is not positive.

    Non-negative everywhere it is finite, and zero exactly at the target
    state.
    """
    x = np.asarray(x, dtype=float)
    carried = eq.state > 1e-12
    if not np.all(x[carried] > 0.0):
        return np.inf
    star = eq.state[carried]
    weights = np.broadcast_to(scenario.shares[:, None], x.shape)[carried]
    return float(-np.sum(weights * star * np.log(x[carried] / star)))


def region_floors(scenario: Scenario,
                  policy: ControlPolicy) -> tuple[np.ndarray, float]:
    """The invariant-region floors M_i = d * y_star_i / (a_max - a_min + d)
    per action, zero for untargeted ones, and the margin epsilon, half the
    smallest targeted floor.

    Whenever a targeted aggregate share sits below its floor its net growth
    rate is strictly positive, which makes the epsilon-floored state set
    forward-invariant.  Needs d > 0.
    """
    if policy.d <= 0.0:
        raise ValueError("region floors require a positive subsidy d")
    floors = policy.d * policy.y_star / (
        scenario.payoff_max - scenario.payoff_min + policy.d)
    return floors, 0.5 * float(floors[carrier(policy.y_star)].min())


def certificate_terms(x: np.ndarray, eq: TargetEquilibrium,
                      scenario: Scenario, d: float) -> dict[str, float]:
    """The observer's V, Vdot, F1 and F2 at one (m, n) state, as a batch of
    one laid out (m, n, 1)."""
    series = LyapunovObserver(eq, scenario).series(
        np.asarray(x, dtype=float)[..., None], d)
    return {key: float(column[0]) for key, column in series.items()}


def round_constants(scenario: Scenario,
                    policy: ControlPolicy) -> _RoundConstants:
    """The agents' round constants of a run of 1,000 agents; the payoffs
    and gaps they give do not depend on the head counts."""
    return _RoundConstants(scenario, policy, population_sizes(scenario, 1000))


def agents_reference(scenario: Scenario, policy: ControlPolicy,
                     x0: np.ndarray, rounds: int) -> Trajectory:
    """The agents command's mean-field reference at the default revision
    probability: ``rounds`` steps of the round time step, the horizon
    padded by 1e-10 of a step as the command pads it, every step recorded
    and no convergence stop."""
    dt = round_time_step(scenario, policy)
    return simulate(scenario, policy, x0, IntegrationConfig(
        dt=dt, t_max=rounds * dt + 1e-10 * dt, convergence_window=10 ** 9,
        record_stride=1))


def expected_drift(scenario: Scenario, policy: ControlPolicy, x: np.ndarray,
                   revision_prob: float = 0.05) -> np.ndarray:
    """Analytic expected one-round change of the per-population shares.

    Computed from the imitation protocol itself (including the probability
    clip), at the continuum state x.  Where no clip binds this equals
    ``round_time_step(...) * field_controlled(...)`` exactly.
    """
    x = np.asarray(x, dtype=float)
    switch = np.clip(
        round_constants(scenario, policy).gaps(aggregate_output(x, scenario)),
        0.0, 1.0)
    # inflow j -> i minus outflow i -> j, per unit of x_i x_j
    net = switch.swapaxes(1, 2) - switch
    return revision_prob * x * (net @ x[:, :, None])[:, :, 0]


def local_shift(scenario: Scenario, k: int, j: int, b: float) -> Scenario:
    """Return a copy with constant b added to column j of population k's matrix.

    Payoff differences within a population are unchanged by such a shift
    (both the action payoff and the population average pick up b * y_j), so
    the induced dynamics are identical.
    """
    if not np.isfinite(b):
        raise ValueError(f"shift must be finite, got {b!r}")
    payoffs = scenario.payoffs.copy()
    payoffs[k, :, j] += b
    return Scenario(payoffs=payoffs, shares=scenario.shares)


def equilibrium_jacobian(scenario: Scenario, policy: ControlPolicy,
                         state: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Numerical Jacobian of the reduced two-action dynamics at a state.

    Two-action games are coordinatized by the per-population first-action
    shares; central differences on that reduced field give an (m, m)
    matrix whose eigenvalues classify local stability.
    """
    if scenario.n_actions != 2:
        raise ValueError("reduced Jacobian implemented for n = 2 only")
    m = scenario.n_populations

    def reduced(z: np.ndarray) -> np.ndarray:
        x = np.stack([z, 1.0 - z], axis=1)
        return field_controlled(scenario, x, policy)[:, 0]

    z0 = np.asarray(state, dtype=float)[:, 0]
    jac = np.zeros((m, m))
    for col in range(m):
        bump = np.zeros(m)
        bump[col] = h
        jac[:, col] = (reduced(z0 + bump) - reduced(z0 - bump)) / (2.0 * h)
    return jac


def two_action_vertices(scenario: Scenario, y_star: np.ndarray,
                        supports: Sequence[tuple[int, ...]],
                        tol: float = 1e-9) -> tuple[list[np.ndarray], bool]:
    """Vertices of a two-action matching set restricted to per-population
    supports, and whether they are distinct (a continuum).

    In first-action shares w the restricted set is the section
    sum_k v^k w_k = y_star_0 of a box; each vertex fixes all free shares
    but one, the anchor, at a bound and solves for the anchor.
    """
    m = scenario.n_populations
    shares = scenario.shares
    free = [k for k in range(m) if len(supports[k]) == 2]
    pinned = {k: supports[k][0] for k in range(m) if len(supports[k]) == 1}
    if y_star[0] > tol and all(pinned.get(k) == 1 for k in range(m)):
        return [], False
    if y_star[1] > tol and all(pinned.get(k) == 0 for k in range(m)):
        return [], False
    residual = y_star[0] - sum(shares[k] for k, a in pinned.items() if a == 0)
    if not free:
        return ([np.array([[1.0 - a, float(a)] for a in pinned.values()])]
                if abs(residual) <= tol else []), False
    vertices: list[np.ndarray] = []
    seen = set()
    for anchor in free:
        others = [k for k in free if k != anchor]
        for bits in product((0.0, 1.0), repeat=len(others)):
            w_anchor = (residual - sum(shares[k] * w for k, w
                                       in zip(others, bits))) / shares[anchor]
            if not -1e-12 <= w_anchor <= 1.0 + 1e-12:
                continue
            w = dict(zip(others, bits))
            w[anchor] = min(1.0, max(0.0, w_anchor))
            first = np.array([1.0 if pinned.get(k) == 0 else
                              0.0 if k in pinned else w[k] for k in range(m)])
            key = tuple(np.round(first, 12))
            if key not in seen:
                seen.add(key)
                vertices.append(np.stack([first, 1.0 - first], axis=1))
    distinct = any(np.max(np.abs(v - vertices[0])) > tol
                   for v in vertices[1:])
    return vertices, distinct


def two_action_verdict(scenario: Scenario, y_star: np.ndarray,
                       tol: float = 1e-9) -> tuple[str, np.ndarray | None]:
    """The target-equilibrium verdict of a two-action game by vertex
    enumeration: ("unique", state), ("multiple_target_equilibria", None)
    or ("no_target_equilibrium", None).

    Each population's candidate supports are its actions taken singly,
    or both together when they earn the same at y_star.
    """
    gaps = scenario.payoffs[:, 0] @ y_star - scenario.payoffs[:, 1] @ y_star
    per_pop = [[(0, 1)] if abs(gap) <= tol else [(0,), (1,)] for gap in gaps]
    points: dict[tuple, np.ndarray] = {}
    continuum = False
    for supports in product(*per_pop):
        vertices, distinct = two_action_vertices(scenario, y_star, supports,
                                                 tol)
        continuum |= distinct
        for state in vertices:
            points.setdefault(tuple(np.round(state.reshape(-1), 10)), state)
    if not points:
        return "no_target_equilibrium", None
    if continuum or len(points) > 1:
        return "multiple_target_equilibria", None
    return "unique", next(iter(points.values()))


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
