"""Finite-population Monte Carlo realization of the controlled dynamics.

N agents hold fixed population memberships (head counts proportional to
the population shares) and a current action each.  The controller sees
only the action profile, and agents of one population who play the same
action are interchangeable, so the chain's whole state is ``counts``, the
(m, n) head count of each action in each population.  Per round:

* the controller observes the action counts p_i = Σ_k counts[k, i], funds
  the pot D = d * N, and pays every agent on a targeted action i the equal
  split D * y_star_i / p_i — identical to the continuum per-agent subsidy
  d * y_star_i / y_hat_i;
* each agent independently, with probability ``revision_prob``, samples a
  uniformly random member of its own population (itself included) and,
  when that peer plays j and it plays i, imitates with probability
  q[k, i, j] = clip((F[k, j] - F[k, i]) / (a_max - a_min + d), 0, 1).  The
  payoffs F = A^k y_hat + d * f(y_hat) are
  :func:`~replicator_ctl.dynamics.controlled_payoffs` of a one-member
  :class:`~replicator_ctl.dynamics.BatchKernel`, the function that gives
  the continuum field its payoffs.

Every revision reads the start-of-round snapshot, so an agent of
population k on action i moves to j with probability
pi[k, i, j] = revision_prob * (counts[k, j] / N_k) * q[k, i, j], or stays,
independently of every other agent.  The counts[k, i] agents that share
(k, i) therefore split multinomially over the n moves and staying, and one
``rng.multinomial(counts, [pi, 1 - Σ_j pi])`` draw samples the whole round
with the same law as revising agent by agent.  A round takes O(m n^2) time
and memory (n times that with sampled matches), whatever N is.  :func:`run`
builds what every round reads once: N, the pot, the targeted actions, the
field's kernel, the normalizer and the population sizes.

Proportional imitation with expected payoffs is the standard protocol whose
mean field is the replicator equation; the expected one-round drift equals
``revision_prob / (a_max - a_min + d)`` times the controlled vector field
wherever the imitation probabilities stay interior (the normalizer bounds
them by 1 only while subsidy weights stay moderate; near the output
boundary the probability is clipped at 1).  One round therefore advances
mean-field time by :func:`round_time_step`.  Each snapshot records the
round's largest unclipped normalized gap; above 1 the clip bound.

A ``sampled_matches`` variant replaces each reviser's expected game payoff
with the payoff against one opponent action l drawn from y_hat (the same
opponent for the agent/peer comparison), so q becomes the mixture
Σ_l y_hat_l * clip((A^k[j, l] + s_j - A^k[i, l] - s_i) / norm, 0, 1) with
s = d * f(y_hat); it adds variance but keeps the drift.

Rounds are strictly sequential (each mutates the counts); independent
replicas with different seeds can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import BatchKernel, ControlPolicy, controlled_payoffs
from .game import CARRIER_THRESHOLD, Scenario, check_simplex

__all__ = [
    "AgentPopulation",
    "EmptyActionGroupError",
    "RoundStats",
    "init_agents",
    "population_sizes",
    "round_time_step",
    "run",
    "run_round",
]

MIN_AGENTS = 100
REVISION_PROB = 0.05  # default chance that an agent revises in a round


class EmptyActionGroupError(RuntimeError):
    """A targeted action has no agents, so its equal split is undefined."""


@dataclass(eq=False)
class AgentPopulation:
    """Mutable head counts: ``counts[k, i]`` agents of population k play i.

    Memberships never change, so every row of ``counts`` sums to its
    ``pop_sizes`` entry; :func:`run_round` updates ``counts`` in place.
    """

    counts: np.ndarray
    pop_sizes: np.ndarray
    rng: np.random.Generator = field(repr=False, default=None)

    @property
    def n_agents(self) -> int:
        return int(self.pop_sizes.sum())

    def action_counts(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass(frozen=True)
class RoundStats:
    """Snapshot of one round boundary: counts, output, and the payments
    the controller makes at that state.

    ``imitation_gap`` is the largest unclipped normalized payoff gap of the
    revision made from this snapshot (0 where none follows); above 1 the
    imitation-probability clip binds.
    """

    empirical_output: np.ndarray
    action_counts: np.ndarray
    total_subsidy: float
    per_agent_subsidy: np.ndarray
    imitation_gap: float = 0.0


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
    """Discretize an initial state into per-population head counts.

    Per-population action counts are the largest-remainder rounding of
    x0[k] times the population head count, so empirical shares start within
    1/N of x0.  Raises ValueError when N < 100, when x0 is not a state
    (floor 0), or when some positive share would round to zero agents (the
    carrier cannot be represented).
    """
    if n_agents < MIN_AGENTS:
        raise ValueError(
            f"need at least {MIN_AGENTS} agents to represent shares, "
            f"got {n_agents}"
        )
    m, n = scenario.n_populations, scenario.n_actions
    x0 = check_simplex(x0, "x0", (m, n), 0.0)
    sizes = population_sizes(scenario, n_agents)
    if np.any(sizes < 1):
        raise ValueError(
            f"population sizes {sizes.tolist()} cannot host agents")
    counts = np.empty((m, n), dtype=np.int64)
    for k in range(m):
        counts[k] = _largest_remainder(x0[k], int(sizes[k]))
        unrepresented = (x0[k] > CARRIER_THRESHOLD) & (counts[k] == 0)
        if np.any(unrepresented):
            raise ValueError(
                f"{n_agents} agents are too few to represent the initial "
                f"shares of population {k} (action "
                f"{int(np.flatnonzero(unrepresented)[0])} rounds to zero)"
            )
    return AgentPopulation(counts=counts, pop_sizes=sizes,
                           rng=np.random.default_rng(seed))


class _RoundConstants:
    """What every round of a run reads, built once by :func:`run`."""

    def __init__(self, scenario: Scenario, policy: ControlPolicy,
                 pop_sizes: np.ndarray):
        self.policy, self.payoffs = policy, scenario.payoffs
        self.n_agents = int(pop_sizes.sum())
        self.sizes = pop_sizes[:, None]
        self.total = policy.d * self.n_agents
        self.targeted = np.flatnonzero(policy.y_star > 0.0)
        self.pots = self.total * policy.y_star[self.targeted]
        self.kernel = BatchKernel(scenario, policy.y_star, [policy.d])
        self.normalizer = scenario.payoff_max - scenario.payoff_min + policy.d

    def stats(self, counts: np.ndarray, y: np.ndarray,
              gap: float = 0.0) -> RoundStats:
        """The snapshot at action counts ``counts`` and output ``y``; raises
        :class:`EmptyActionGroupError` where a targeted group is empty."""
        per_agent = np.zeros(counts.shape)
        if self.policy.d > 0.0:
            held = counts[self.targeted]
            if not held.all():
                raise EmptyActionGroupError(
                    f"targeted action {int(self.targeted[held == 0][0])} "
                    "has no agents; the equal split is undefined")
            per_agent[self.targeted] = self.pots / held
        return RoundStats(empirical_output=y, action_counts=counts,
                          total_subsidy=self.total,
                          per_agent_subsidy=per_agent, imitation_gap=gap)

    def gaps(self, y: np.ndarray, sampled_matches: bool = False) -> np.ndarray:
        """Normalized controlled-payoff gaps (F[k, j] - F[k, i]) / norm at
        the output y, indexed [k, i, j]: what an i-player sees a j-player
        gain.  With sampled matches, the gaps against each opponent action
        l, indexed [k, i, j, l]."""
        table, f, _ = controlled_payoffs(self.kernel, y[:, None])
        table = table[..., 0]
        if sampled_matches:
            # table[k, i, l]: action i against opponent l, plus d·f_i
            table = self.payoffs + (0.0 if f is None else self.policy.d * f)
        return (table[:, None] - table[:, :, None]) / self.normalizer


def round_time_step(scenario: Scenario, policy: ControlPolicy,
                    revision_prob: float = REVISION_PROB) -> float:
    """Mean-field time advanced per round by the imitation protocol."""
    return revision_prob / (scenario.payoff_max - scenario.payoff_min + policy.d)


def run_round(pop: AgentPopulation, scenario: Scenario, policy: ControlPolicy,
              revision_prob: float = REVISION_PROB,
              sampled_matches: bool = False,
              *, _constants: _RoundConstants | None = None) -> RoundStats:
    """Pay subsidies at the current state, then draw every revision at once.

    Returns the pre-revision snapshot (the payments actually made), with
    the round's largest unclipped normalized gap.  Raises
    :class:`EmptyActionGroupError` when a targeted action group is empty.
    ``_constants`` are what :func:`run` built once for these arguments.
    """
    constants = _constants or _RoundConstants(scenario, policy, pop.pop_sizes)
    counts = pop.counts.sum(axis=0)
    y_hat = counts / constants.n_agents
    gaps = constants.gaps(y_hat, sampled_matches)
    stats = constants.stats(counts, y_hat, float(gaps.max()))
    switch = np.clip(gaps, 0.0, 1.0)
    if sampled_matches:
        # the weights y_hat can sum to 1 + 1 ulp
        switch = np.minimum(switch @ y_hat, 1.0)
    # the peer is a uniform member of the reviser's own population
    moves = revision_prob * (pop.counts / constants.sizes)[:, None, :] * switch
    stay = np.maximum(1.0 - moves.sum(axis=2, keepdims=True), 0.0)
    drawn = pop.rng.multinomial(
        pop.counts, np.concatenate([moves, stay], axis=2))[..., :-1]
    pop.counts += drawn.sum(axis=1) - drawn.sum(axis=2)
    return stats


def run(pop: AgentPopulation, scenario: Scenario, policy: ControlPolicy,
        rounds: int, revision_prob: float = REVISION_PROB,
        sampled_matches: bool = False) -> list[RoundStats]:
    """Run a number of rounds; returns rounds + 1 snapshots (initial state
    included).  Deterministic for a given population seed.  Raises
    ValueError unless 0 < revision_prob <= 1."""
    if not 0.0 < revision_prob <= 1.0:
        raise ValueError(f"revision_prob must be in (0, 1], got "
                         f"{revision_prob!r}")
    constants = _RoundConstants(scenario, policy, pop.pop_sizes)
    series = []
    for _ in range(rounds):
        series.append(run_round(pop, scenario, policy, revision_prob,
                                sampled_matches, _constants=constants))
    counts = pop.action_counts()
    series.append(constants.stats(counts, counts / constants.n_agents))
    return series
