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
failure, not a model state: `batch_field` flags the member and
`field_controlled` raises :class:`SimplexDomainError`.

The payoffs A^k y (`output_payoffs`, on the output of
`game.aggregate_output`, both sums by `game.weighted_sum`) and the weights
f (`subsidy_weights`) are defined here once; the field, the certificate in
`stability` and the finite agents all use these.  `batch_field` takes
its constants from a `BatchKernel` built once per run, and states laid
out (m, n, B), member last.  `scalar_field` carries the same field for
one state on Python floats, with `batch_field`'s operations in the same
order, so the same bits.

`region_bounds` packages the payoff extremes and the per-action floors
M_i = d * y_star_i / (a_max - a_min + d): whenever a targeted aggregate
share sits below its floor, its net growth rate is strictly positive, which
is what makes the epsilon-floored state set forward-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .game import (Scenario, aggregate_output, carrier, check_real,
                   check_simplex, weighted_sum)

__all__ = [
    "DOMAIN_THRESHOLD",
    "BatchKernel",
    "ControlPolicy",
    "RegionBounds",
    "SimplexDomainError",
    "batch_field",
    "field_controlled",
    "field_uncontrolled",
    "output_payoffs",
    "region_bounds",
    "scalar_field",
    "subsidy_weights",
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
        """A policy from ``{"y_star": [...], "d": gain}``; no "d" means 0."""
        if not isinstance(raw, dict) or "y_star" not in raw:
            raise ValueError('policy must be an object with "y_star"')
        d = raw.get("d", 0.0)
        check_real("d", d)
        for entry in np.asarray(raw["y_star"], dtype=object).flat:
            check_real("y_star entry", entry)
        return cls(y_star=np.asarray(raw["y_star"], dtype=float), d=float(d))

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


def subsidy_weights(y: np.ndarray, y_star: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Subsidy weights f_i(y) = y_star_i / y_i over outputs of shape (n, *batch).

    f is 0 for untargeted actions.  A share at or below DOMAIN_THRESHOLD
    is divided by 1 instead, so no warning is raised, and ``ok``, shape
    (*batch), is False for a member where such a share is targeted: f is
    undefined there.  Per agent on action i the subsidy is d * f_i(y).
    """
    y_star = y_star.reshape(y_star.shape + (1,) * (y.ndim - 1))
    f, ok = _weights(y, y_star)
    return f, np.ones(y.shape[1:], dtype=bool) if ok is None else ok


def _weights(y: np.ndarray, y_star: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`subsidy_weights` for a ``y_star`` shaped to broadcast against
    ``y``; ``ok`` is None where no share is low, so none is out of domain."""
    low = y <= DOMAIN_THRESHOLD
    if not low.any():
        return y_star / y, None
    return (y_star / np.where(low, 1.0, y),
            ~np.any(low & (y_star > 0.0), axis=0))


def field_uncontrolled(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """Replicator derivative without control; rows sum to zero."""
    return field_controlled(scenario, x, ControlPolicy.off(scenario.n_actions))


def field_controlled(scenario: Scenario, x: np.ndarray,
                     policy: ControlPolicy) -> np.ndarray:
    """Replicator derivative with the subsidy feedback term.

    With d = 0 this returns exactly the uncontrolled field (the feedback
    term is skipped, so no domain restriction applies either).  The value
    is that of :func:`scalar_field`, so the same bits as a row of
    :func:`batch_field`.
    """
    x = np.asarray(x, dtype=float)
    deriv, ok = scalar_field(scenario, policy.y_star)(x.tolist(), policy.d)
    if not ok:
        y = aggregate_output(x, scenario)
        i = int(np.flatnonzero((policy.y_star > 0.0)
                               & (y <= DOMAIN_THRESHOLD))[0])
        raise SimplexDomainError(f"targeted action {i} has aggregate share "
                                 f"{y[i]!r}; subsidy weight undefined")
    return np.array(deriv)


def scalar_field(scenario: Scenario, y_star: np.ndarray
                 ) -> Callable[[list[list[float]], float],
                               tuple[list[list[float]], bool]]:
    """The field of :func:`batch_field` for one member, on Python floats.

    Returns ``field(x, d)``: ``x`` is one state as an (m, n) nested list of
    floats and ``d`` its gain.  It gives the derivative as a nested list,
    and ``ok``, False (with every entry NaN) where d > 0 and a targeted
    aggregate share is at or below DOMAIN_THRESHOLD.  Every sum runs in
    batch_field's order, and Python floats are IEEE doubles while numpy
    fuses no multiply-add, so the result has batch_field's bits.  It skips
    numpy's per-call overhead, which dominates a call on one state.
    """
    payoffs = scenario.payoffs.tolist()
    shares = scenario.shares.tolist()
    targets = np.asarray(y_star, dtype=float).tolist()
    m, n = len(shares), len(targets)
    later = list(zip(shares[1:], range(1, m)))
    rest = range(1, n)
    zeros = [0.0] * n

    def field(x: list[list[float]], d: float
              ) -> tuple[list[list[float]], bool]:
        y = [shares[0] * v for v in x[0]]
        for share, k in later:
            y = [total + share * v for total, v in zip(y, x[k])]
        push = zeros  # F - 0.0 keeps F's bits, as batch_field's skip does
        if d > 0.0:
            gain = 0.0 - d
            push = []
            for target, level in zip(targets, y):
                if level <= DOMAIN_THRESHOLD:
                    if target > 0.0:
                        return [[math.nan] * n for _ in range(m)], False
                    level = 1.0
                push.append(gain * (target / level))
        deriv = []
        for matrix, row in zip(payoffs, x):
            F = []
            for entries, p in zip(matrix, push):
                total = entries[0] * y[0]
                for j in rest:
                    total += entries[j] * y[j]
                F.append(total - p)
            avg = row[0] * F[0]
            for i in rest:
                avg += row[i] * F[i]
            deriv.append([(f - avg) * v for f, v in zip(F, row)])
        return deriv, True

    return field


def output_payoffs(scenario: Scenario, x: np.ndarray | None,
                   y: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate output y = Σ_k v^k x^k and action payoffs F = A^k y.

    ``x`` holds states batch axes last, shape (m, n, *batch); y has shape
    (n, *batch) and F shape (m, n, *batch).  A given ``y`` is used in
    place of the aggregate of ``x``, which may then be None.  Both sums
    are :func:`~replicator_ctl.game.weighted_sum`: over the small axes in
    a fixed order, elementwise along the batch (no einsum, tensordot or
    BLAS), so a member's bits do not depend on the rest of its batch.
    """
    if y is None:
        y = aggregate_output(x, scenario)
    # entry j of the columns is A^k[:, j] for every k, batch axes appended
    columns = scenario.payoffs.transpose(2, 0, 1)
    return y, weighted_sum(columns[(...,) + (None,) * (y.ndim - 1)], y)


class BatchKernel:
    """What :func:`batch_field` needs of one run: the payoff columns,
    shares and target column, built once, and each member's gain, of
    shape (B,), with what depends on it, rebuilt by :meth:`take`."""

    def __init__(self, scenario: Scenario, y_star: np.ndarray,
                 gains: np.ndarray):
        self.shares = scenario.shares.tolist()
        self.columns = list(scenario.payoffs.transpose(2, 0, 1)[..., None])
        self.y_star = np.asarray(y_star, dtype=float)[:, None]
        self.gains = np.asarray(gains, dtype=float)
        self.take(slice(None))

    def take(self, members: np.ndarray | slice) -> None:
        """Keep only ``members`` (an index or mask along the batch)."""
        self.gains = gains = self.gains[members]
        # F - (0 - d)·f is F + d·f, and F to the bit (a -0.0 too) at d = 0
        self.push = 0.0 - gains
        self.controlled = gains > 0.0
        self.any_controlled = bool(self.controlled.any())
        self.all_ok = np.ones(gains.shape, dtype=bool)
        self.all_ok.setflags(write=False)


def batch_field(kernel: BatchKernel, states: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The replicator field x ∘ (F − ⟨x, F⟩) over states of shape (B, m, n).

    F = A^k y + d·f(y) folds the subsidy into the payoffs, with y and A^k y
    summed as in :func:`output_payoffs` and f as in :func:`subsidy_weights`.
    Every sum runs over the small m and n axes in a fixed order,
    elementwise along the batch, so a member's bits depend neither on the
    rest of its batch nor on the memory layout; ``states`` is best a view of
    a C-contiguous (m, n, B) array.  A member with gain 0 gets exactly the
    uncontrolled field and is not domain-checked.

    Returns the derivatives, a (B, m, n) view of an (m, n, B) array, and
    ``ok``, shape (B,): False, with the member's derivative NaN, where a
    member with a positive gain has a targeted aggregate share at or below
    DOMAIN_THRESHOLD.

    :func:`scalar_field` is the second carrier of this one field: it runs
    the same operations in the same order on Python floats for a single
    state, and gives the same bits.
    """
    x = states.transpose(1, 2, 0)                             # (m, n, B)
    y = weighted_sum(kernel.shares, x)
    F = weighted_sum(kernel.columns, y)
    ok = kernel.all_ok
    if kernel.any_controlled:
        f, in_domain = _weights(y, kernel.y_star)
        F -= kernel.push * f
        if in_domain is not None:
            ok = ~kernel.controlled | in_domain
    F -= weighted_sum(x.swapaxes(0, 1), F.swapaxes(0, 1))[:, None]
    F *= x
    if ok is not kernel.all_ok:
        F[..., ~ok] = np.nan
    return F.transpose(2, 0, 1), ok
