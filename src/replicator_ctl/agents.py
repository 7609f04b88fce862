"""Finite-population Monte Carlo realization of the controlled dynamics.

N agents hold fixed population memberships (head counts proportional to
the population shares) and a current action each.  The controller sees
only the action profile, and agents of one population who play the same
action are interchangeable, so the chain's whole state is ``counts``, the
(m, n) head count of each action in each population.  Per round:

* the controller observes the action counts p_i = Σ_k counts[k, i] and
  pays every agent on action i the continuum per-agent subsidy
  d * f_i(y_hat), the weights f of the payoffs below: d * y_star_i / y_hat_i
  on a targeted action, so the round pays d * N in all;
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
builds what every round reads once: N, d * N, the field's kernel, the
normalizer and the population sizes.  A snapshot's payments, gaps and
refusal (f is undefined at a targeted share <= DOMAIN_THRESHOLD) come from
one ``controlled_payoffs`` call.

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

from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (DOMAIN_THRESHOLD, BatchKernel, ControlPolicy,
                       controlled_payoffs)
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
    """A targeted share is at or below DOMAIN_THRESHOLD (an empty group, in
    a run of under 10^12 agents), so its subsidy weight is undefined."""


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
    """What every round of a run reads, built once by :func:`run`; raises
    ValueError unless 0 < revision_prob <= 1."""

    def __init__(self, scenario: Scenario, policy: ControlPolicy,
                 pop_sizes: np.ndarray, revision_prob: float):
        if not 0.0 < revision_prob <= 1.0:
            raise ValueError(f"revision_prob must be in (0, 1], got "
                             f"{revision_prob!r}")
        self.policy, self.payoffs = policy, scenario.payoffs
        self.n_agents = int(pop_sizes.sum())
        self.sizes = pop_sizes[:, None]
        self.total = policy.d * self.n_agents
        self.kernel = BatchKernel(scenario, policy.y_star, [policy.d])
        self.normalizer = scenario.payoff_max - scenario.payoff_min + policy.d

    def snapshot(self, counts: np.ndarray, sampled_matches: bool = False
                 ) -> tuple[RoundStats, np.ndarray]:
        """The snapshot at action counts ``counts`` (imitation gap 0) and the
        gaps (F[k, j] - F[k, i]) / norm of a revision from it, [k, i, j]: what
        an i-player sees a j-player gain ([k, i, j, l] against each opponent
        action l with sampled matches).  Payments d·f, gaps and refusal come
        from one :func:`controlled_payoffs` call at counts / N; raises
        :class:`EmptyActionGroupError` where f is undefined there."""
        y = counts / self.n_agents
        table, f, ok = controlled_payoffs(self.kernel, y[:, None])
        if not ok[0]:
            i = int(np.flatnonzero((self.policy.y_star > 0.0)
                                   & (y <= DOMAIN_THRESHOLD))[0])
            count = f"{counts[i]} of {self.n_agents}" if counts[i] else "no"
            raise EmptyActionGroupError(
                f"targeted action {i} has {count} agents, share {float(y[i])}"
                "; its subsidy weight is undefined")
        paid = np.zeros((y.size, 1)) if f is None else self.policy.d * f
        # with sampled matches, table[k, i, l] is i against l, plus d·f_i
        table = self.payoffs + paid if sampled_matches else table[..., 0]
        stats = RoundStats(y, counts, self.total, paid[:, 0])
        return stats, (table[:, None] - table[:, :, None]) / self.normalizer


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
    the round's largest unclipped normalized gap.  Raises ValueError unless
    0 < revision_prob <= 1, and :class:`EmptyActionGroupError` as it pays.
    ``_constants`` are what :func:`run` built once for these arguments.
    """
    constants = _constants or _RoundConstants(scenario, policy, pop.pop_sizes,
                                              revision_prob)
    stats, gaps = constants.snapshot(pop.action_counts(), sampled_matches)
    switch = np.clip(gaps, 0.0, 1.0)
    if sampled_matches:
        # the weights y_hat can sum to 1 + 1 ulp
        switch = np.minimum(switch @ stats.empirical_output, 1.0)
    # the peer is a uniform member of the reviser's own population
    moves = revision_prob * (pop.counts / constants.sizes)[:, None] * switch
    stay = np.maximum(1.0 - moves.sum(axis=2, keepdims=True), 0.0)
    drawn = pop.rng.multinomial(
        pop.counts, np.concatenate([moves, stay], axis=2))[..., :-1]
    pop.counts += drawn.sum(axis=1) - drawn.sum(axis=2)
    return replace(stats, imitation_gap=float(gaps.max()))


def run(pop: AgentPopulation, scenario: Scenario, policy: ControlPolicy,
        rounds: int, revision_prob: float = REVISION_PROB,
        sampled_matches: bool = False) -> list[RoundStats]:
    """Run a number of rounds; returns rounds + 1 snapshots (initial state
    included).  Deterministic for a given population seed.  Raises
    ValueError unless 0 < revision_prob <= 1, also for 0 rounds."""
    constants = _RoundConstants(scenario, policy, pop.pop_sizes, revision_prob)
    series = [run_round(pop, scenario, policy, revision_prob, sampled_matches,
                        _constants=constants) for _ in range(rounds)]
    series.append(constants.snapshot(pop.action_counts())[0])
    return series
