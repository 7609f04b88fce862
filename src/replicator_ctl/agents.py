"""Finite-population Monte Carlo realization of the controlled dynamics.

Discrete agents hold fixed population memberships (head counts proportional
to the population shares) and a current action each.  Per round:

* the controller observes the empirical action counts p_i, funds the pot
  D = d * N, and pays every agent on a targeted action i the equal split
  D * y_star_i / p_i — identical to the continuum per-agent subsidy
  d * y_star_i / y_hat_i;
* each agent independently, with probability ``revision_prob``, samples a
  uniformly random member of its own population and imitates that member's
  action with probability proportional to the positive gap in subsidy-
  augmented expected payoffs, normalized by (a_max - a_min + d).  Those
  payoffs are A^k y_hat + d * f(y_hat), from
  :func:`~replicator_ctl.dynamics.output_payoffs` and
  :func:`~replicator_ctl.dynamics.subsidy_weights`, the same definitions
  the continuum field uses.

Proportional imitation with expected payoffs is the standard protocol whose
mean field is the replicator equation; the expected one-round drift equals
``revision_prob / (a_max - a_min + d)`` times the controlled vector field
wherever the imitation probabilities stay interior (the normalizer bounds
them by 1 only while subsidy weights stay moderate; near the output
boundary the probability is clipped at 1).  One round therefore advances
mean-field time by :func:`round_time_step`.

A ``sampled_matches`` variant replaces each reviser's expected game payoff
with the payoff against one sampled opponent action (same opponent for the
agent/peer comparison); it adds variance but keeps the drift.

Rounds are strictly sequential (each mutates the population); independent
replicas with different seeds can run concurrently.  Revisions within a
round read the start-of-round snapshot.

Round-series CSV layout: ``round, y_1..y_n, p_1..p_n, total_subsidy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import ControlPolicy, output_payoffs, subsidy_weights
from .game import (CARRIER_THRESHOLD, SUM_TOLERANCE, Scenario,
                   aggregate_output)

__all__ = [
    "AgentPopulation",
    "EmptyActionGroupError",
    "RoundStats",
    "expected_drift",
    "init_agents",
    "population_sizes",
    "round_time_step",
    "run",
    "run_round",
    "write_rounds_csv",
]

MIN_AGENTS = 100


class EmptyActionGroupError(RuntimeError):
    """A targeted action has no agents, so its equal split is undefined."""


@dataclass(eq=False)
class AgentPopulation:
    """Mutable agent roster: memberships never change, actions do.

    Agents are stored population-contiguously; ``block_starts[k]`` indexes
    the first agent of population k.  The per-action head counts are kept
    alongside ``actions`` and updated exactly by :func:`run_round`.
    """

    membership: np.ndarray
    actions: np.ndarray
    pop_sizes: np.ndarray
    block_starts: np.ndarray
    n_actions: int
    seed: int
    rng: np.random.Generator = field(repr=False, default=None)
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.counts = np.bincount(self.actions, minlength=self.n_actions)

    @property
    def n_agents(self) -> int:
        return self.membership.shape[0]

    def action_counts(self) -> np.ndarray:
        return self.counts.copy()

    def empirical_output(self) -> np.ndarray:
        return self.action_counts() / self.n_agents

    def empirical_state(self) -> np.ndarray:
        """Per-population action shares, shape (m, n)."""
        m = self.pop_sizes.shape[0]
        state = np.zeros((m, self.n_actions))
        for k in range(m):
            block = self.actions[self.block_starts[k]:
                                 self.block_starts[k] + self.pop_sizes[k]]
            state[k] = np.bincount(block, minlength=self.n_actions)
        return state / self.pop_sizes[:, None]


@dataclass(frozen=True)
class RoundStats:
    """Snapshot of one round boundary: counts, output, and the payments
    the controller makes at that state."""

    empirical_output: np.ndarray
    action_counts: np.ndarray
    total_subsidy: float
    per_agent_subsidy: np.ndarray


def population_sizes(scenario: Scenario, n_agents: int) -> np.ndarray:
    """Head counts per population: floor(v^k N), remainder to the largest."""
    sizes = np.floor(scenario.shares * n_agents).astype(int)
    sizes[int(np.argmax(scenario.shares))] += n_agents - sizes.sum()
    return sizes


def _largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    scaled = shares * total
    counts = np.floor(scaled).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(scaled - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def init_agents(scenario: Scenario, x0: np.ndarray, n_agents: int,
                seed: int = 0) -> AgentPopulation:
    """Discretize an initial state into agents.

    Per-population action counts are the largest-remainder rounding of
    x0[k] times the population head count, so empirical shares start within
    1/N of x0.  Raises ValueError when N < 100 or when some positive share
    would round to zero agents (the carrier cannot be represented).
    """
    x0 = np.asarray(x0, dtype=float)
    if n_agents < MIN_AGENTS:
        raise ValueError(
            f"need at least {MIN_AGENTS} agents to represent shares, "
            f"got {n_agents}"
        )
    m, n = scenario.n_populations, scenario.n_actions
    if x0.shape != (m, n):
        raise ValueError(f"x0 must have shape ({m}, {n}), got {x0.shape}")
    if not (np.all(x0 >= 0.0)
            and np.all(np.abs(x0.sum(axis=1) - 1.0) <= SUM_TOLERANCE)):
        raise ValueError(f"x0 rows must be non-negative and sum to 1, got "
                         f"{x0.tolist()}")
    sizes = population_sizes(scenario, n_agents)
    if np.any(sizes < 1):
        raise ValueError(f"population sizes {sizes} cannot host agents")
    membership = np.repeat(np.arange(m), sizes)
    actions = np.empty(n_agents, dtype=int)
    block_starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for k in range(m):
        counts = _largest_remainder(x0[k], int(sizes[k]))
        unrepresented = (x0[k] > CARRIER_THRESHOLD) & (counts == 0)
        if np.any(unrepresented):
            raise ValueError(
                f"{n_agents} agents are too few to represent the initial "
                f"shares of population {k} (action "
                f"{int(np.flatnonzero(unrepresented)[0])} rounds to zero)"
            )
        block = np.repeat(np.arange(n), counts)
        actions[block_starts[k]: block_starts[k] + sizes[k]] = block
    return AgentPopulation(
        membership=membership, actions=actions, pop_sizes=sizes,
        block_starts=block_starts, n_actions=n, seed=seed,
        rng=np.random.default_rng(seed),
    )


def _stats(pop: AgentPopulation, policy: ControlPolicy) -> RoundStats:
    counts = pop.action_counts()
    n = pop.n_agents
    targeted = policy.y_star > 0.0
    empty = targeted & (counts == 0)
    if np.any(empty) and policy.d > 0.0:
        raise EmptyActionGroupError(
            f"targeted action {int(np.flatnonzero(empty)[0])} has no agents; "
            "the equal split is undefined"
        )
    total = policy.d * n
    per_agent = np.zeros(pop.n_actions)
    payable = targeted & (counts > 0)
    per_agent[payable] = total * policy.y_star[payable] / counts[payable]
    return RoundStats(
        empirical_output=counts / n,
        action_counts=counts,
        total_subsidy=total,
        per_agent_subsidy=per_agent,
    )


def round_time_step(scenario: Scenario, policy: ControlPolicy,
                    revision_prob: float = 0.05) -> float:
    """Mean-field time advanced per round by the imitation protocol."""
    return revision_prob / (scenario.payoff_max - scenario.payoff_min + policy.d)


def _controlled_payoffs(scenario: Scenario, policy: ControlPolicy,
                        y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The controlled payoff A^k y + d·f(y) per (population, action), folded
    as :func:`~replicator_ctl.dynamics.batch_field` folds it, and the
    subsidy row d·f(y) alone."""
    _, table = output_payoffs(scenario, None, y)
    f, _ = subsidy_weights(y, policy.y_star)
    table -= (0.0 - policy.d) * f
    return table, policy.d * f


def run_round(pop: AgentPopulation, scenario: Scenario, policy: ControlPolicy,
              revision_prob: float = 0.05,
              sampled_matches: bool = False) -> RoundStats:
    """Pay subsidies at the current state, then apply one revision sweep.

    Returns the pre-revision snapshot (the payments actually made).  Raises
    :class:`EmptyActionGroupError` when a targeted action group is empty.
    """
    stats = _stats(pop, policy)
    y_hat = stats.empirical_output
    table, subsidy = _controlled_payoffs(scenario, policy, y_hat)
    normalizer = scenario.payoff_max - scenario.payoff_min + policy.d

    rng = pop.rng
    n = pop.n_agents
    revising = np.flatnonzero(rng.random(n) < revision_prob)
    if revising.size == 0:
        return stats
    # fancy indexing copies, so both reads see the start-of-round actions
    members = pop.membership[revising]
    own_actions = pop.actions[revising]
    peer_offsets = rng.integers(0, pop.pop_sizes[members])
    peers = pop.block_starts[members] + peer_offsets
    peer_actions = pop.actions[peers]
    if sampled_matches:
        opponents = rng.choice(pop.n_actions, size=revising.size, p=y_hat)
        own_pay = (scenario.payoffs[members, own_actions, opponents]
                   + subsidy[own_actions])
        peer_pay = (scenario.payoffs[members, peer_actions, opponents]
                    + subsidy[peer_actions])
    else:
        own_pay = table[members, own_actions]
        peer_pay = table[members, peer_actions]
    prob = np.clip((peer_pay - own_pay) / normalizer, 0.0, 1.0)
    switching = rng.random(revising.size) < prob
    new_actions = peer_actions[switching]
    pop.actions[revising[switching]] = new_actions
    pop.counts += (np.bincount(new_actions, minlength=pop.n_actions)
                   - np.bincount(own_actions[switching],
                                 minlength=pop.n_actions))
    return stats


def run(pop: AgentPopulation, scenario: Scenario, policy: ControlPolicy,
        rounds: int, revision_prob: float = 0.05,
        sampled_matches: bool = False) -> list[RoundStats]:
    """Run a number of rounds; returns rounds + 1 snapshots (initial state
    included).  Deterministic for a given population seed.  Raises
    ValueError unless 0 < revision_prob <= 1."""
    if not 0.0 < revision_prob <= 1.0:
        raise ValueError(f"revision_prob must be in (0, 1], got "
                         f"{revision_prob!r}")
    series = []
    for _ in range(rounds):
        series.append(run_round(pop, scenario, policy, revision_prob,
                                sampled_matches))
    series.append(_stats(pop, policy))
    return series


def expected_drift(scenario: Scenario, policy: ControlPolicy, x: np.ndarray,
                   revision_prob: float = 0.05) -> np.ndarray:
    """Analytic expected one-round change of the per-population shares.

    Computed from the imitation protocol itself (including the probability
    clip), at the continuum state x.  Where no clip binds this equals
    ``round_time_step(...) * field_controlled(...)`` exactly.
    """
    x = np.asarray(x, dtype=float)
    table, _ = _controlled_payoffs(scenario, policy,
                                   aggregate_output(x, scenario))
    normalizer = scenario.payoff_max - scenario.payoff_min + policy.d
    drift = np.zeros_like(x)
    for k in range(scenario.n_populations):
        gaps = (table[k][:, None] - table[k][None, :]) / normalizer
        switch = np.clip(gaps, 0.0, 1.0)
        net = switch - switch.T
        drift[k] = revision_prob * x[k] * (net @ x[k])
    return drift


def mean_field_scale(scenario: Scenario, policy: ControlPolicy,
                     x: np.ndarray) -> float:
    """Largest normalized payoff gap at a state; clipping binds iff > 1."""
    x = np.asarray(x, dtype=float)
    table, _ = _controlled_payoffs(scenario, policy,
                                   aggregate_output(x, scenario))
    normalizer = scenario.payoff_max - scenario.payoff_min + policy.d
    return float((table.max(axis=1) - table.min(axis=1)).max() / normalizer)


def write_rounds_csv(series: list[RoundStats], path: str,
                     provenance: dict[str, str] | None = None) -> None:
    """Write a round series as CSV: round, y_1..y_n, p_1..p_n, total_subsidy."""
    n = series[0].empirical_output.shape[0]
    columns = (["round"] + [f"y_{i + 1}" for i in range(n)]
               + [f"p_{i + 1}" for i in range(n)] + ["total_subsidy"])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for key, value in (provenance or {}).items():
            handle.write(f"# {key}: {value}\n")
        handle.write(",".join(columns) + "\n")
        for idx, stats in enumerate(series):
            cells = [str(idx)]
            cells += [repr(float(v)) for v in stats.empirical_output]
            cells += [str(int(c)) for c in stats.action_counts]
            cells.append(repr(float(stats.total_subsidy)))
            handle.write(",".join(cells) + "\n")
