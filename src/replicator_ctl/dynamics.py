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

The payoffs A^k y (`output_payoffs`: `game.weighted_sum` of
`game.aggregate_output` and of the columns of `payoff_columns`), the
weights f (`subsidy_weights`) and the controlled payoffs F = A^k y + d·f(y)
(`controlled_payoffs`, over a `BatchKernel` built once per run) are defined
here once; the field `batch_field` (states laid out (m, n, B), member last),
the certificate in `stability` and the finite agents all use these.
`field_lines` writes the same field for one state as straight-line Python
statements, in the same order, so the same bits; the integrator inlines
them in its generated float step, at most once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (COORD_TOLERANCE, SHARE_SUM_TOLERANCE, Scenario,
                   aggregate_output, check_real, check_simplex, weighted_sum)

__all__ = [
    "DOMAIN_THRESHOLD",
    "BatchKernel",
    "ControlPolicy",
    "SimplexDomainError",
    "batch_field",
    "controlled_payoffs",
    "field_controlled",
    "field_lines",
    "field_uncontrolled",
    "output_payoffs",
    "subsidy_weights",
]

# A targeted aggregate share at or below this is treated as outside the
# controlled field's domain.  Trajectories started in the interior never
# reach it (the M_i floors repel), so hitting it means the step size failed.
DOMAIN_THRESHOLD = 1e-12


class SimplexDomainError(ValueError):
    """Controlled field evaluated where a targeted aggregate share is ~0."""


@dataclass(frozen=True)
class ControlPolicy:
    """Feedback parameters: target output and average subsidy per agent.

    d > 0 switches the subsidy term on; d = 0 encodes "control off" and
    reproduces the uncontrolled field exactly (one code path serves both).
    A target's sum, if off 1 by more than SHARE_SUM_TOLERANCE, is divided
    out, once (a stored target is kept): the agents' payments then add to
    d·N, and the matching set is not empty.
    """

    y_star: np.ndarray
    d: float

    def __post_init__(self) -> None:
        # an entry in [-COORD_TOLERANCE, 0] targets nothing: it is stored
        # as +0.0, so that every field sees f_i = 0 there
        y_star = check_simplex(self.y_star, "target y_star",
                               (np.size(self.y_star),), -COORD_TOLERANCE)
        y_star = np.where(y_star > 0.0, y_star, 0.0)
        if abs(y_star.sum() - 1.0) > SHARE_SUM_TOLERANCE:
            y_star /= y_star.sum()
        if not np.isfinite(self.d) or self.d < 0.0:
            raise ValueError(f"average subsidy d must be >= 0, got {self.d!r}")
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
        for key in sorted(set(raw) - {"y_star", "d"}):
            raise ValueError(f"unknown key {key!r}")
        d = raw.get("d", 0.0)
        check_real("d", d)
        for entry in np.asarray(raw["y_star"], dtype=object).flat:
            check_real("y_star entry", entry)
        return cls(y_star=np.asarray(raw["y_star"], dtype=float), d=float(d))


def subsidy_weights(y: np.ndarray, y_star: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Subsidy weights f_i(y) = y_star_i / y_i over outputs of shape (n, *batch).

    ``y_star`` broadcasts against ``y``: (n,) for one output, (n, 1) for
    columns.  f is 0 for untargeted actions.  A share at or below
    DOMAIN_THRESHOLD is divided by 1 instead, so no warning is raised;
    ``ok``, shape (*batch), is then False for a member where such a share
    is targeted (f is undefined there), and None when every share is above
    it.  Per agent on action i the subsidy is d * f_i(y).
    """
    if np.minimum.reduce(y, axis=None, initial=np.inf) > DOMAIN_THRESHOLD:
        return y_star / y, None
    low = y <= DOMAIN_THRESHOLD
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
    is that of a one-member :func:`batch_field`.  Raises ValueError unless
    ``x`` has the scenario's shape (m, n).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != scenario.payoffs.shape[:2]:
        raise ValueError(f"state: expected shape {scenario.payoffs.shape[:2]}"
                         f", got {x.shape}")
    kernel = BatchKernel(scenario, policy.y_star, np.array([policy.d]))
    deriv, ok = batch_field(kernel, x[None])
    if not ok[0]:
        y = aggregate_output(x, scenario)
        i = int(np.flatnonzero((policy.y_star > 0.0)
                               & (y <= DOMAIN_THRESHOLD))[0])
        raise SimplexDomainError(f"targeted action {i} has aggregate share "
                                 f"{float(y[i])}; subsidy weight undefined")
    return deriv[0]


def field_lines(scenario: Scenario, y_star: np.ndarray) -> list[str]:
    """The field of :func:`batch_field` for one member, as straight-line
    Python statements on floats.

    The statements read the member's m·n shares, row by row, from the
    locals ``s0``, ``s1``, ... and its gain from ``d``, and assign the
    derivative to ``k0``, ``k1``, ...; where d > 0 and a targeted
    aggregate share is at or below DOMAIN_THRESHOLD they ``return
    FAILED`` instead.  They keep y_i, the subsidy term and avg_k
    in locals of their own (``y``, ``g``, ``p`` and ``a`` names), and F[k][i]
    in the rate it becomes; constants are literals, and every sum an
    explicit ``+`` chain in batch_field's order (never ``sum``, which may
    compensate), the subsidy folded into F as :func:`controlled_payoffs`
    folds it.  As numpy fuses no multiply-add, they give batch_field's bits.
    """
    m, n = scenario.n_populations, scenario.n_actions
    shares = scenario.shares.tolist()
    payoffs = scenario.payoffs.tolist()
    targets = np.asarray(y_star, dtype=float).tolist()
    xs = [[f"s{k * n + i}" for i in range(n)] for k in range(m)]
    lines = [f"y{i} = " + " + ".join(f"{shares[k]!r} * {xs[k][i]}"
                                     for k in range(m))
             for i in range(n)]
    lines += ["if d > 0.0:", "    g = 0.0 - d"]
    for i, target in enumerate(targets):
        # F - (0 - d)·f is F + d·f; an untargeted f_i is 0, so (0 - d)·f_i
        # is -0.0 (a NaN y_i makes every F NaN through A^k y anyway)
        if target > 0.0:
            lines += [f"    if y{i} <= {DOMAIN_THRESHOLD!r}:",
                      "        return FAILED",
                      f"    p{i} = g * ({target!r} / y{i})"]
        else:
            lines.append(f"    p{i} = -0.0")
    # F - 0.0 keeps F's bits, a -0.0 included, as batch_field's skip does
    lines += ["else:", "    " + " = ".join(f"p{i}" for i in range(n))
              + " = 0.0"]
    # F[k][i] is held in the local that its rate then replaces
    fs = [[f"k{k * n + i}" for i in range(n)] for k in range(m)]
    for k in range(m):
        lines += [f"{fs[k][i]} = " + " + ".join(
            f"{payoffs[k][i][j]!r} * y{j}" for j in range(n)) + f" - p{i}"
            for i in range(n)]
        lines.append(f"a{k} = " + " + ".join(
            f"{xs[k][i]} * {fs[k][i]}" for i in range(n)))
    lines += [f"{fs[k][i]} = ({fs[k][i]} - a{k}) * {xs[k][i]}"
              for k in range(m) for i in range(n)]
    return lines


def output_payoffs(scenario: Scenario, x: np.ndarray | None,
                   y: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate output y = Σ_k v^k x^k and action payoffs F = A^k y.

    ``x`` holds states batch axes last, shape (m, n, *batch); y has shape
    (n, *batch) and F shape (m, n, *batch).  A given ``y`` is used in
    place of the aggregate of ``x``, which may then be None.  Both sums
    are :func:`~replicator_ctl.game.weighted_sum`, so a member's bits do
    not depend on the rest of its batch.
    """
    if y is None:
        y = aggregate_output(x, scenario)
    return y, weighted_sum(payoff_columns(scenario, y.ndim - 1),
                           y[:, None, None])


def payoff_columns(scenario: Scenario, batch_axes: int) -> np.ndarray:
    """The terms that, weighted by y, sum to A^k y, stacked C-contiguous:
    entry j is A^k[:, j] for every k, shape (n, m, n) with ``batch_axes``
    unit axes appended, so it broadcasts against ``y[:, None, None]``."""
    columns = np.ascontiguousarray(scenario.payoffs.transpose(2, 0, 1))
    return columns[(...,) + (None,) * batch_axes]


class BatchKernel:
    """What :func:`controlled_payoffs` needs of one run: the shares, payoff
    columns and target spread over the batch, (m, n, B), (n, m, n, B) and
    (n, B), so that numpy runs each product as one loop, and each member's
    gain, (B,), with what depends on it; :meth:`take` cuts them down."""

    def __init__(self, scenario: Scenario, y_star: np.ndarray,
                 gains: np.ndarray):
        m, n = scenario.n_populations, scenario.n_actions
        self.gains = np.asarray(gains, dtype=float)
        self.shares, self.columns, self.y_star, self.push = (
            np.broadcast_to(c, shape + self.gains.shape) for c, shape in (
                (scenario.shares[:, None, None], (m, n)),
                (payoff_columns(scenario, 1), (n, m, n)),
                (np.asarray(y_star, dtype=float)[:, None], (n,)),
                (0.0 - self.gains, (n,))))
        self.take(np.ones(self.gains.shape, dtype=bool))

    def take(self, members: np.ndarray) -> None:
        """Keep only ``members`` (a mask along the batch), C-contiguous."""
        self.gains = gains = self.gains[members]
        self.shares, self.columns, self.y_star, self.push = (
            np.compress(members, c, axis=-1) for c in (
                self.shares, self.columns, self.y_star, self.push))
        self.controlled = gains > 0.0
        self.any_controlled = bool(self.controlled.any())
        self.all_ok = np.ones(gains.shape, dtype=bool)
        self.all_ok.setflags(write=False)


def controlled_payoffs(kernel: BatchKernel, y: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """F = A^k y + d·f(y) at outputs y of shape (n, B), folded as
    F − (0 − d)·f: F + d·f, and F to the bit (a −0.0 too) at d = 0.  Returns
    F, (m, n, B); f, (n, B), or None where no gain is positive and the fold
    is skipped; and ``ok``, (B,), False for a member with a positive gain
    and a targeted share at or below DOMAIN_THRESHOLD."""
    F = weighted_sum(kernel.columns, y[:, None, None])
    f, ok = None, kernel.all_ok
    if kernel.any_controlled:
        f, in_domain = subsidy_weights(y, kernel.y_star)
        F -= kernel.push * f
        if in_domain is not None:
            ok = ~kernel.controlled | in_domain
    return F, f, ok


def batch_field(kernel: BatchKernel, states: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The replicator field x ∘ (F − ⟨x, F⟩) over states of shape (B, m, n).

    F is :func:`controlled_payoffs` at the outputs y.  Each of the three
    sums (y, A^k y, ⟨x, F⟩) is one product and then adds over the small m
    or n axis in a fixed order, elementwise along the batch (m + 2n ufunc
    calls in all), so a member's bits depend neither on the rest of its
    batch nor on the memory layout; ``states`` is best a view of a
    C-contiguous (m, n, B) array.  A member with gain 0 gets exactly the
    uncontrolled field and is not domain-checked.

    Returns the derivatives, a (B, m, n) view of an (m, n, B) array, and
    ``ok``, shape (B,): False, with the member's derivative NaN, where a
    member with a positive gain has a targeted aggregate share at or below
    DOMAIN_THRESHOLD.
    """
    x = states.transpose(1, 2, 0)                             # (m, n, B)
    F, _, ok = controlled_payoffs(kernel, weighted_sum(kernel.shares, x))
    F -= weighted_sum(x.swapaxes(0, 1), F.swapaxes(0, 1))[:, None]
    F *= x
    if ok is not kernel.all_ok:
        F[..., ~ok] = np.nan
    return F.transpose(2, 0, 1), ok
