"""Replicator vector fields, with and without the subsidy feedback term.

Uncontrolled motion: the share of action i in population k grows at a rate
proportional to how much the action out-earns the population average,

    dx[k, i] = (u^k(e_i, y) - u^k(x^k, y)) * x[k, i],

with all payoffs evaluated against the aggregate output y.

The controller ("government") never sees populations, only y.  It picks a
target output y_star and an average per-agent subsidy d > 0, and pays the
group currently playing action i a pot proportional to y_star_i, split
equally inside the group.  Per agent that is d * f_i(y) where the subsidy
weight is f_i(y) = y_star_i / y_i if y_star_i > 0, else 0.  Adding the
subsidy to every payoff and re-deriving the replicator equation appends a
payoff-independent feedback term:

    dx[k, i] += d * x[k, i] * (f_i(y) - sum_j f_j(y) x[k, j]).

f is only defined on states whose output keeps every targeted action alive
(y_i > 0 wherever y_star_i > 0); leaving that set mid-integration is a step
failure, not a model state, and raises :class:`SimplexDomainError`.

`region_bounds` packages the payoff extremes and the per-action floors
M_i = d * y_star_i / (a_max - a_min + d): whenever a targeted aggregate
share sits below its floor, its net growth rate is strictly positive, which
is what makes the epsilon-floored state set forward-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import Scenario, aggregate_output, carrier, check_simplex

__all__ = [
    "DOMAIN_THRESHOLD",
    "ControlPolicy",
    "RegionBounds",
    "SimplexDomainError",
    "batch_field",
    "field_controlled",
    "field_uncontrolled",
    "per_agent_subsidy",
    "region_bounds",
    "subsidy_weight",
]

# A targeted aggregate share at or below this is treated as outside the
# controlled field's domain.  Trajectories started in the interior never
# reach it (the M_i floors repel), so hitting it means the step size failed.
DOMAIN_THRESHOLD = 1e-12

# Fraction of the smallest M_i floor used for the invariant-region margin;
# any value in (0, 1) works, the midpoint leaves slack for discretization.
EPSILON_FACTOR = 0.5


class SimplexDomainError(ValueError):
    """Controlled field evaluated where a targeted aggregate share is ~0."""


@dataclass(frozen=True)
class ControlPolicy:
    """Feedback parameters: target output and average subsidy per agent.

    d > 0 switches the subsidy term on; d = 0 encodes "control off" and
    reproduces the uncontrolled field exactly (one code path serves both).
    """

    y_star: np.ndarray
    d: float

    def __post_init__(self) -> None:
        y_star = np.asarray(self.y_star, dtype=float)
        check_simplex(y_star)
        if not np.isfinite(self.d) or self.d < 0.0:
            raise ValueError(f"average subsidy d must be >= 0, got {self.d!r}")
        y_star = y_star.copy()
        y_star.setflags(write=False)
        object.__setattr__(self, "y_star", y_star)
        object.__setattr__(self, "d", float(self.d))

    @classmethod
    def off(cls, n_actions: int) -> "ControlPolicy":
        """The d = 0 policy (target irrelevant, kept uniform)."""
        return cls(y_star=np.full(n_actions, 1.0 / n_actions), d=0.0)

    @classmethod
    def from_dict(cls, raw: dict) -> "ControlPolicy":
        if not isinstance(raw, dict) or "d" not in raw or "y_star" not in raw:
            raise ValueError('policy must be an object with "d" and "y_star"')
        return cls(y_star=np.asarray(raw["y_star"], dtype=float), d=float(raw["d"]))

    def to_dict(self) -> dict:
        return {"d": self.d, "y_star": self.y_star.tolist()}


@dataclass(frozen=True)
class RegionBounds:
    """Payoff extremes and invariant-region floors for one (scenario, policy).

    floors[i] is the aggregate-share level below which action i's aggregate
    share is strictly increasing (zero for untargeted actions); epsilon is
    the invariant-region margin, strictly below every targeted floor.
    """

    a_max: float
    a_min: float
    floors: np.ndarray
    epsilon: float


def region_bounds(scenario: Scenario, policy: ControlPolicy) -> RegionBounds:
    """Compute a_max, a_min, the per-action floors M_i, and the margin epsilon."""
    if policy.d <= 0.0:
        raise ValueError("region bounds require a positive subsidy d")
    a_max = scenario.payoff_max
    a_min = scenario.payoff_min
    floors = policy.d * policy.y_star / (a_max - a_min + policy.d)
    carried = carrier(policy.y_star)
    epsilon = EPSILON_FACTOR * float(floors[carried].min())
    floors = floors.copy()
    floors.setflags(write=False)
    return RegionBounds(a_max=a_max, a_min=a_min, floors=floors, epsilon=epsilon)


def subsidy_weight(y: np.ndarray, y_star: np.ndarray, i: int) -> float:
    """Subsidy weight f_i(y): y_star_i / y_i for targeted actions, else 0."""
    if y_star[i] <= 0.0:
        return 0.0
    if y[i] <= DOMAIN_THRESHOLD:
        raise SimplexDomainError(
            f"targeted action {i} has aggregate share {y[i]!r}; "
            "subsidy weight undefined"
        )
    return float(y_star[i] / y[i])


def per_agent_subsidy(policy: ControlPolicy, y: np.ndarray, i: int) -> float:
    """Continuous-limit subsidy paid to each agent playing action i: d * f_i(y).

    The finite-population simulator realizes the same amount as
    (total pot * y_star_i) / (head count on action i).
    """
    return policy.d * subsidy_weight(y, policy.y_star, i)


def field_uncontrolled(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """Replicator derivative without control; rows sum to zero."""
    off = ControlPolicy.off(scenario.n_actions)
    return batch_field(scenario, np.asarray(x, dtype=float)[None], off)[0][0]


def field_controlled(scenario: Scenario, x: np.ndarray,
                     policy: ControlPolicy) -> np.ndarray:
    """Replicator derivative with the subsidy feedback term.

    With d = 0 this returns exactly the uncontrolled field (the feedback
    term is skipped, so no domain restriction applies either).
    """
    x = np.asarray(x, dtype=float)
    deriv, ok = batch_field(scenario, x[None], policy)
    if not ok[0]:
        y = aggregate_output(x, scenario)
        i = int(np.flatnonzero((policy.y_star > 0.0)
                               & (y <= DOMAIN_THRESHOLD))[0])
        raise SimplexDomainError(f"targeted action {i} has aggregate share "
                                 f"{y[i]!r}; subsidy weight undefined")
    return deriv[0]


def batch_field(scenario: Scenario, states: np.ndarray,
                policy: ControlPolicy, gains: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The replicator field x ∘ (F − ⟨x, F⟩) over states of shape (B, m, n).

    F = A^k y + d·f(y) folds the subsidy into the payoffs.  Every sum runs
    over the small m and n axes in a fixed order, as elementwise operations
    along the batch (no einsum, tensordot or BLAS), so a member's bits do
    not depend on the rest of its batch.  ``gains``, shape (B,), gives
    each member its own gain in place of ``policy.d``.  A member with gain
    0 gets exactly the uncontrolled field and is not domain-checked.

    Returns the derivatives, shape (B, m, n), and ``ok``, shape (B,):
    False, with the member's derivative NaN instead of an exception, where
    a member with a positive gain has a targeted aggregate share at or
    below DOMAIN_THRESHOLD.
    """
    states = np.asarray(states, dtype=float)
    m, n = states.shape[1:]
    # member axis last: every operation below runs along the batch
    x = np.ascontiguousarray(states.transpose(1, 2, 0))      # (m, n, B)
    shares, payoffs = scenario.shares, scenario.payoffs
    y = shares[0] * x[0]                                     # (n, B)
    for k in range(1, m):
        y += shares[k] * x[k]
    F = payoffs[:, :, 0, None] * y[0]                        # (m, n, B)
    for j in range(1, n):
        F += payoffs[:, :, j, None] * y[j]
    gains = policy.d if gains is None else gains
    controlled = np.asarray(gains) > 0.0
    ok = np.ones(states.shape[0], dtype=bool)
    if controlled.any():
        y_star = policy.y_star[:, None]
        low = y <= DOMAIN_THRESHOLD
        if low.any():
            # such a share divides by 1 instead and its member is flagged,
            # so no warning is raised for it
            ok = ~(controlled & np.any(low & (y_star > 0.0), axis=0))
            y = np.where(low, 1.0, y)
        # F - (0 - d)·f is F + d·f, and F to the bit (a -0.0 too) at d = 0
        F -= (0.0 - gains) * (y_star / y)
    avg = x[:, 0] * F[:, 0]                                  # (m, B)
    for i in range(1, n):
        avg += x[:, i] * F[:, i]
    F -= avg[:, None]
    F *= x
    deriv = F.transpose(2, 0, 1)
    if not ok.all():
        deriv[~ok] = np.nan
    return deriv, ok
