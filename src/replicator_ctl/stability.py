"""Stabilization analysis: when does a subsidy level make the target win?

The controller wants the society to settle on a target output y_star.  A
*target equilibrium* is a rest point of the uncontrolled dynamics whose
aggregate output equals y_star; the subsidy term leaves every such point at
rest for any gain d, so the design question is purely about the basin.

The certificate is a weighted relative entropy to the target state,

    V(x) = sum_k sum_{i in C(x_star^k)} -v^k x_star[k, i] log(x[k, i] / x_star[k, i]),

whose rate along the controlled flow splits into two parts:

    dV/dt = -(advantage) - d * (mismatch)

* advantage  = sum_k v^k (u^k(x_star^k, y) - u^k(x^k, y)) — how much better
  the target profile earns than the current one, at the current output;
* mismatch   = sum_{i in C(y_star)} (y_star_i - y_i) * y_star_i / y_i — a
  Jensen-positive penalty, zero exactly when y = y_star.

Off the matching set (states already producing y_star) the rate is negative
iff d exceeds the state's critical subsidy -advantage / mismatch.  The
sufficient condition for global stabilization is therefore: a unique target
equilibrium, non-negative advantage on the matching set, and d above the
supremum of the critical subsidy.  That supremum has no closed form, so it
is *estimated* (grid + Dirichlet sampling + coordinate ascent, with the
argmax reported so users can escalate resolution), never certified; the
recommendation inflates the estimate by a safety margin.

Terminology used throughout: the *matching set* is the polytope of state
combinations whose aggregate output equals y_star exactly.

SciPy is imported inside the three functions that solve an LP or take a null
space, so commands that never reach them do not pay for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Sequence

import numpy as np

from .dynamics import ControlPolicy, field_controlled, field_uncontrolled
from .game import (CARRIER_THRESHOLD, Scenario, aggregate_output, carrier,
                   check_lattice_budget, lattice_product, simplex_lattice)

__all__ = [
    "AtTargetOutputError",
    "BoundEstimate",
    "InapplicableError",
    "LyapunovObserver",
    "LyapunovRate",
    "MatchingSetSummary",
    "SamplingConfig",
    "StabilityReport",
    "TargetEquilibrium",
    "critical_subsidy",
    "equilibrium_jacobian",
    "estimate_subsidy_bound",
    "find_target_equilibria",
    "lyapunov_rate",
    "lyapunov_value",
    "min_advantage_on_matching_set",
    "recommend_subsidy",
    "unique_target_equilibrium",
]

# Mismatch below this means the output is indistinguishable from the target;
# the critical subsidy is undefined there.
MISMATCH_FLOOR = 1e-12

# Equality tolerances for equilibrium enumeration and verification.
EQUILIBRIUM_TOL = 1e-9

# Safety inflation applied to the estimated supremum before recommending.
RECOMMEND_MARGIN = 0.1
RECOMMEND_FLOOR = 1e-3


class InapplicableError(RuntimeError):
    """The stabilization condition cannot be applied to this target."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class AtTargetOutputError(ValueError):
    """Critical subsidy requested at a state whose output is ~y_star."""


@dataclass(frozen=True)
class TargetEquilibrium:
    """A rest point of the uncontrolled dynamics aggregating to the target.

    ``carriers[k]`` lists the actions population k actually uses; the
    certificate only sums over those.  ``continuum_vertex`` marks points
    returned as the vertex description of a positive-dimensional solution
    set.
    """

    state: np.ndarray
    target_output: np.ndarray
    carriers: tuple[tuple[int, ...], ...]
    continuum_vertex: bool = False

    def __post_init__(self) -> None:
        state = np.asarray(self.state, dtype=float).copy()
        target = np.asarray(self.target_output, dtype=float).copy()
        state.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "target_output", target)

    @classmethod
    def from_state(cls, scenario: Scenario, state: np.ndarray,
                   y_star: np.ndarray | None = None, *,
                   continuum_vertex: bool = False,
                   tol: float = EQUILIBRIUM_TOL) -> "TargetEquilibrium":
        """Validate and wrap a candidate state.

        Checks both defining properties: the state is a rest point of the
        uncontrolled field, and its aggregate output matches y_star.
        """
        state = np.asarray(state, dtype=float)
        y = aggregate_output(state, scenario)
        if y_star is None:
            y_star = y
        residual = np.max(np.abs(y - y_star))
        if residual > tol:
            raise ValueError(
                f"aggregate output {y} differs from target {y_star} "
                f"by {residual!r}"
            )
        drift = np.max(np.abs(field_uncontrolled(scenario, state)))
        if drift > tol:
            raise ValueError(
                f"state is not a rest point (max drift {drift!r})"
            )
        carriers = tuple(tuple(int(i) for i in carrier(state[k]))
                         for k in range(scenario.n_populations))
        return cls(state=state, target_output=np.asarray(y_star, dtype=float),
                   carriers=carriers, continuum_vertex=continuum_vertex)


@dataclass(frozen=True)
class LyapunovRate:
    """The two rate components and their total: rate = -advantage - d*mismatch."""

    advantage: float
    mismatch: float
    rate: float


def _carrier_weights(eq: TargetEquilibrium,
                     scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry certificate weights v^k * x_star[k, i] and masked log x_star."""
    weights = scenario.shares[:, None] * eq.state
    mask = eq.state > CARRIER_THRESHOLD
    weights = np.where(mask, weights, 0.0)
    with np.errstate(divide="ignore"):
        log_star = np.where(mask, np.log(np.where(mask, eq.state, 1.0)), 0.0)
    return weights, log_star


def _values_batch(states: np.ndarray, weights: np.ndarray,
                  log_star: np.ndarray) -> np.ndarray:
    """Certificate values over a (..., m, n) stack; +inf where undefined."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(states)
        terms = np.where(weights > 0.0, weights * (logs - log_star), 0.0)
    values = -terms.sum(axis=(-2, -1)) + 0.0
    return np.where(np.isnan(values), np.inf, values)


def lyapunov_value(x: np.ndarray, eq: TargetEquilibrium,
                   scenario: Scenario) -> float:
    """Certificate value at one state; +inf if a carried share has hit zero.

    Non-negative everywhere it is finite, and zero exactly at the target
    state.
    """
    weights, log_star = _carrier_weights(eq, scenario)
    return float(_values_batch(np.asarray(x, dtype=float), weights, log_star))


def _advantage_batch(states: np.ndarray, eq: TargetEquilibrium,
                     scenario: Scenario,
                     outputs: np.ndarray | None = None) -> np.ndarray:
    """Payoff advantage of the target profile at each state of a (B, m, n) batch."""
    if outputs is None:
        outputs = np.einsum("k,bki->bi", scenario.shares, states)
    action_payoffs = np.tensordot(outputs, scenario.payoffs, axes=([1], [2]))
    diff = eq.state[None, :, :] - states
    return np.einsum("k,bki,bki->b", scenario.shares, diff, action_payoffs)


def _mismatch_batch(outputs: np.ndarray, y_star: np.ndarray) -> np.ndarray:
    """Jensen-positive output penalty for each output row of a (B, n) batch."""
    carried = y_star > 0.0
    ys = y_star[carried]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (ys[None, :] - outputs[:, carried]) * ys[None, :] / outputs[:, carried]
    return terms.sum(axis=1)


def lyapunov_rate(x: np.ndarray, eq: TargetEquilibrium, scenario: Scenario,
                  d: float) -> LyapunovRate:
    """Analytic certificate rate split into its advantage and mismatch parts."""
    x = np.asarray(x, dtype=float)[None]
    y = np.einsum("k,bki->bi", scenario.shares, x)
    advantage = float(_advantage_batch(x, eq, scenario, y)[0])
    mismatch = float(_mismatch_batch(y, eq.target_output)[0])
    return LyapunovRate(advantage=advantage, mismatch=mismatch,
                        rate=-advantage - d * mismatch)


def critical_subsidy(x: np.ndarray, eq: TargetEquilibrium,
                     scenario: Scenario) -> float:
    """The gain level above which the certificate decreases at this state.

    Defined as -advantage / mismatch; requires the state's output to differ
    from the target (mismatch bounded away from zero), otherwise raises
    :class:`AtTargetOutputError` and the state must be treated as part of
    the matching set.
    """
    terms = lyapunov_rate(x, eq, scenario, 0.0)
    if terms.mismatch < MISMATCH_FLOOR:
        raise AtTargetOutputError(
            f"output mismatch {terms.mismatch!r} below {MISMATCH_FLOOR}; "
            "state is effectively on the matching set"
        )
    return -terms.advantage / terms.mismatch


class LyapunovObserver:
    """Attachable observer computing V, Vdot, F1 (advantage), F2 (mismatch).

    Instances are consumed by the integrator: ``values`` is called once per
    step for online monotonicity tracking, ``series`` once per trajectory
    for the recorded observable columns.
    """

    def __init__(self, eq: TargetEquilibrium, scenario: Scenario):
        self.eq = eq
        self.scenario = scenario
        self._weights, self._log_star = _carrier_weights(eq, scenario)

    def values(self, states: np.ndarray) -> np.ndarray:
        return _values_batch(states, self._weights, self._log_star)

    def series(self, states: np.ndarray, d: float) -> dict[str, np.ndarray]:
        outputs = np.einsum("k,tki->ti", self.scenario.shares, states)
        advantage = _advantage_batch(states, self.eq, self.scenario, outputs)
        mismatch = _mismatch_batch(outputs, self.eq.target_output)
        return {
            "V": self.values(states),
            "Vdot": -advantage - d * mismatch,
            "F1": advantage,
            "F2": mismatch,
        }


@dataclass(frozen=True)
class SamplingConfig:
    """Resolution knobs for the supremum estimate and matching-set scan."""

    grid_per_dim: int = 15
    random_samples: int = 20_000
    ascent_iters: int = 60
    seed: int = 0
    tube_radius: float = 1e-6
    boundary_margin: float = 1e-6
    ascent_candidates: int = 10
    matching_samples: int = 2_000
    matching_burn_in: int = 1_000


@dataclass(frozen=True)
class BoundEstimate:
    """Estimated supremum of the critical subsidy, with its arg and counts."""

    value: float
    argmax: np.ndarray
    n_grid: int
    n_random: int
    n_ascent_evals: int


def _dbar_batch(states: np.ndarray, eq: TargetEquilibrium, scenario: Scenario,
                tube_radius: float, boundary_margin: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Critical subsidy over a batch, with a validity mask.

    Invalid members: outputs inside the exclusion tube around the target,
    outputs with a targeted share below the boundary margin, or mismatch
    numerically zero.
    """
    outputs = np.einsum("k,bki->bi", scenario.shares, states)
    y_star = eq.target_output
    carried = y_star > 0.0
    off_tube = np.max(np.abs(outputs - y_star[None, :]), axis=1) >= tube_radius
    in_domain = np.all(outputs[:, carried] >= boundary_margin, axis=1)
    mismatch = _mismatch_batch(outputs, y_star)
    valid = off_tube & in_domain & (mismatch > MISMATCH_FLOOR)
    advantage = _advantage_batch(states, eq, scenario, outputs)
    with np.errstate(divide="ignore", invalid="ignore"):
        dbar = -advantage / mismatch
    dbar = np.where(valid, dbar, -np.inf)
    return dbar, valid


def _grid_states(scenario: Scenario, per_dim: int) -> np.ndarray:
    # its own name, so that perfbench's trace times the lattice build
    check_lattice_budget(scenario.n_populations, scenario.n_actions, per_dim)
    return lattice_product(simplex_lattice(scenario.n_actions, per_dim),
                           scenario.n_populations)


def estimate_subsidy_bound(eq: TargetEquilibrium, scenario: Scenario,
                           sampling: SamplingConfig = SamplingConfig()
                           ) -> BoundEstimate:
    """Estimate sup of the critical subsidy over the admissible states.

    Three phases: a uniform lattice on the product of simplices, uniform
    Dirichlet samples, and deterministic coordinate ascent from the best
    candidates (pairwise mass transfers within a population, shrinking step).
    States within ``tube_radius`` of the target output or within
    ``boundary_margin`` of a targeted-share zero are excluded; ascent may
    approach the tube from outside, probing the limit.

    This is an estimate from below of the true supremum, never an
    overestimate; escalate the resolution via ``sampling`` if in doubt.
    """
    rng = np.random.default_rng(sampling.seed)
    grid = _grid_states(scenario, sampling.grid_per_dim)
    random_states = rng.dirichlet(
        np.ones(scenario.n_actions),
        size=(sampling.random_samples, scenario.n_populations),
    )
    pool = np.concatenate([grid, random_states])
    dbar, valid = _dbar_batch(pool, eq, scenario,
                              sampling.tube_radius, sampling.boundary_margin)
    if not np.any(valid):
        raise InapplicableError(
            "no admissible states found outside the matching set; "
            "increase sampling resolution", reason="sampling_exhausted",
        )
    order = np.argsort(dbar)[::-1]
    seeds = pool[order[:sampling.ascent_candidates]]

    def evaluate(state: np.ndarray) -> float:
        value, ok = _dbar_batch(state[None], eq, scenario,
                                sampling.tube_radius, sampling.boundary_margin)
        return float(value[0]) if ok[0] else -np.inf

    n_evals = 0
    best_value = float(dbar[order[0]])
    best_state = pool[order[0]].copy()
    m, n = scenario.n_populations, scenario.n_actions
    for seed_state in seeds:
        current = seed_state.copy()
        current_value = evaluate(current)
        n_evals += 1
        step = 0.25
        for _ in range(sampling.ascent_iters):
            improved = False
            for k in range(m):
                for i in range(n):
                    for j in range(n):
                        if i == j or current[k, j] <= 0.0:
                            continue
                        moved = min(step, current[k, j])
                        candidate = current.copy()
                        candidate[k, j] -= moved
                        candidate[k, i] += moved
                        value = evaluate(candidate)
                        n_evals += 1
                        if value > current_value:
                            current = candidate
                            current_value = value
                            improved = True
            if not improved:
                step *= 0.5
                if step < 1e-7:
                    break
        if current_value > best_value:
            best_value = current_value
            best_state = current
    return BoundEstimate(value=best_value, argmax=best_state,
                         n_grid=grid.shape[0],
                         n_random=random_states.shape[0],
                         n_ascent_evals=n_evals)


# ---------------------------------------------------------------------------
# matching-set (polytope of states aggregating to the target) machinery
# ---------------------------------------------------------------------------

def _matching_system(scenario: Scenario,
                     y_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equality system E z = b over flattened states: aggregates + row sums."""
    m, n = scenario.n_populations, scenario.n_actions
    rows = []
    rhs = []
    for i in range(n):
        row = np.zeros(m * n)
        for k in range(m):
            row[k * n + i] = scenario.shares[k]
        rows.append(row)
        rhs.append(y_star[i])
    for k in range(m):
        row = np.zeros(m * n)
        row[k * n: (k + 1) * n] = 1.0
        rows.append(row)
        rhs.append(1.0)
    return np.array(rows), np.array(rhs)


def _matching_feasible_point(scenario: Scenario,
                             y_star: np.ndarray) -> np.ndarray:
    """A maximally interior point of the matching set, via a Chebyshev-style LP."""
    from scipy.optimize import linprog
    m, n = scenario.n_populations, scenario.n_actions
    eq_mat, eq_rhs = _matching_system(scenario, y_star)
    n_vars = m * n
    # variables: z (n_vars) then slack t; maximize t s.t. z_ki >= t
    c = np.zeros(n_vars + 1)
    c[-1] = -1.0
    a_eq = np.hstack([eq_mat, np.zeros((eq_mat.shape[0], 1))])
    a_ub = np.hstack([-np.eye(n_vars), np.ones((n_vars, 1))])
    b_ub = np.zeros(n_vars)
    bounds = [(0.0, 1.0)] * n_vars + [(0.0, 1.0)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=eq_rhs,
                     bounds=bounds, method="highs")
    if not result.success:
        raise InapplicableError(
            f"target output {y_star} is unreachable for these population "
            "shares (matching set empty)", reason="matching_set_empty",
        )
    return result.x[:-1].reshape(m, n)


def _matching_vertices(scenario: Scenario, y_star: np.ndarray) -> np.ndarray:
    """Exact vertex enumeration of the matching set for two-action games.

    With n = 2 the polytope is a hyperplane section of the unit box in the
    per-population first-action shares w: sum_k v^k w_k = y_star_1.  Its
    vertices fix all but one coordinate at a bound.
    """
    if scenario.n_actions != 2:
        raise ValueError("vertex enumeration implemented for n = 2 only")
    m = scenario.n_populations
    shares = scenario.shares
    target = y_star[0]
    vertices: list[tuple[float, ...]] = []
    seen = set()
    for free in range(m):
        others = [k for k in range(m) if k != free]
        for bits in product((0.0, 1.0), repeat=m - 1):
            partial = sum(shares[k] * w for k, w in zip(others, bits))
            w_free = (target - partial) / shares[free]
            if -1e-12 <= w_free <= 1.0 + 1e-12:
                w = np.zeros(m)
                for k, val in zip(others, bits):
                    w[k] = val
                w[free] = min(1.0, max(0.0, w_free))
                key = tuple(np.round(w, 12))
                if key not in seen:
                    seen.add(key)
                    vertices.append(w)
    if not vertices:
        return np.zeros((0, m, 2))
    w_arr = np.array(vertices)
    return np.stack([w_arr, 1.0 - w_arr], axis=2)


@dataclass(frozen=True)
class MatchingSetSummary:
    """Result of scanning the matching set for the advantage minimum."""

    min_advantage: float
    witness: np.ndarray
    n_samples: int
    n_vertices: int


def min_advantage_on_matching_set(eq: TargetEquilibrium, scenario: Scenario,
                                  samples: int = 2_000, seed: int = 0,
                                  burn_in: int = 1_000) -> MatchingSetSummary:
    """Minimum payoff advantage over states that already produce the target.

    On the matching set the output is pinned to y_star, so the advantage is
    linear in the state and its minimum sits at a vertex; for two-action
    games with up to four populations the vertices are enumerated exactly,
    and a hit-and-run chain from a maximally interior point covers the rest
    (and higher-dimensional cases).  Raises :class:`InapplicableError` when
    the target output is unreachable.
    """
    from scipy.linalg import null_space
    y_star = eq.target_output
    start = _matching_feasible_point(scenario, y_star)
    m, n = scenario.n_populations, scenario.n_actions
    eq_mat, _ = _matching_system(scenario, y_star)
    basis = null_space(eq_mat)
    rng = np.random.default_rng(seed)
    chain_points = [start.reshape(-1)]
    if basis.shape[1] > 0:
        z = start.reshape(-1).copy()
        total = burn_in + samples
        for it in range(total):
            direction = basis @ rng.standard_normal(basis.shape[1])
            norm = np.linalg.norm(direction)
            if norm < 1e-14:
                continue
            direction /= norm
            positive = direction > 1e-14
            negative = direction < -1e-14
            upper = np.min(-z[negative] / direction[negative]) if np.any(negative) else 0.0
            lower = np.max(-z[positive] / direction[positive]) if np.any(positive) else 0.0
            if upper - lower < 1e-14:
                continue
            z = z + rng.uniform(lower, upper) * direction
            z = np.clip(z, 0.0, None)
            if it >= burn_in:
                chain_points.append(z.copy())
    states = np.array(chain_points).reshape(-1, m, n)
    if n == 2 and m <= 4:
        vertices = _matching_vertices(scenario, y_star)
    else:
        vertices = np.zeros((0, m, n))
    candidates = np.concatenate([states, vertices]) if vertices.size else states
    outputs = np.tile(y_star, (candidates.shape[0], 1))
    advantage = _advantage_batch(candidates, eq, scenario, outputs)
    best = int(np.argmin(advantage))
    return MatchingSetSummary(
        min_advantage=float(advantage[best]),
        witness=candidates[best],
        n_samples=states.shape[0],
        n_vertices=vertices.shape[0],
    )


# ---------------------------------------------------------------------------
# target equilibrium enumeration
# ---------------------------------------------------------------------------

def _payoff_classes(scenario: Scenario, k: int, y_star: np.ndarray,
                    tol: float) -> list[tuple[int, ...]]:
    """Partition population k's actions into equal-payoff groups at y_star.

    Any mixture supported inside one group is a rest point of that
    population's dynamics when the output is held at y_star.
    """
    values = scenario.payoffs[k] @ y_star
    order = np.argsort(values, kind="stable")
    classes: list[list[int]] = []
    for idx in order:
        if classes and abs(values[idx] - values[classes[-1][-1]]) <= tol:
            classes[-1].append(int(idx))
        else:
            classes.append([int(idx)])
    return [tuple(sorted(cls)) for cls in classes]


def _combo_solutions(scenario: Scenario, y_star: np.ndarray,
                     supports: Sequence[tuple[int, ...]],
                     tol: float) -> tuple[list[np.ndarray], bool]:
    """Solve for matching-set states restricted to the given per-population
    supports; returns (solution points, is_continuum)."""
    m, n = scenario.n_populations, scenario.n_actions
    # infeasible outright if a targeted action is supported by nobody
    supported = set()
    for sup in supports:
        supported.update(sup)
    for i in range(n):
        if y_star[i] > tol and i not in supported:
            return [], False
    if all(len(sup) == 1 for sup in supports):
        state = np.zeros((m, n))
        for k, sup in enumerate(supports):
            state[k, sup[0]] = 1.0
        y = aggregate_output(state, scenario)
        if np.max(np.abs(y - y_star)) <= tol:
            return [state], False
        return [], False
    if n == 2:
        free = [k for k in range(m) if len(supports[k]) == 2]
        pinned = {k: supports[k][0] for k in range(m) if len(supports[k]) == 1}
        base = sum(scenario.shares[k] for k, act in pinned.items() if act == 0)
        residual = y_star[0] - base
        shares = scenario.shares
        vertices: list[np.ndarray] = []
        seen = set()
        for anchor in free:
            others = [k for k in free if k != anchor]
            for bits in product((0.0, 1.0), repeat=len(others)):
                partial = sum(shares[k] * w for k, w in zip(others, bits))
                w_anchor = (residual - partial) / shares[anchor]
                if -1e-12 <= w_anchor <= 1.0 + 1e-12:
                    w = {k: val for k, val in zip(others, bits)}
                    w[anchor] = min(1.0, max(0.0, w_anchor))
                    state = np.zeros((m, 2))
                    for k in range(m):
                        share1 = (1.0 if pinned.get(k) == 0 else
                                  0.0 if k in pinned else w[k])
                        state[k, 0] = share1
                        state[k, 1] = 1.0 - share1
                    key = tuple(np.round(state[:, 0], 12))
                    if key not in seen:
                        seen.add(key)
                        vertices.append(state)
        if not vertices:
            return [], False
        if len(vertices) == 1:
            return vertices, False
        distinct = any(np.max(np.abs(v - vertices[0])) > tol for v in vertices[1:])
        return vertices, distinct
    return _combo_solutions_lp(scenario, y_star, supports, tol)


def _combo_solutions_lp(scenario: Scenario, y_star: np.ndarray,
                        supports: Sequence[tuple[int, ...]],
                        tol: float) -> tuple[list[np.ndarray], bool]:
    """General-n fallback: linear-programming feasibility plus extent probing."""
    from scipy.optimize import linprog
    m, n = scenario.n_populations, scenario.n_actions
    var_index: dict[tuple[int, int], int] = {}
    for k, sup in enumerate(supports):
        for i in sup:
            var_index[(k, i)] = len(var_index)
    n_vars = len(var_index)
    rows, rhs = [], []
    for i in range(n):
        row = np.zeros(n_vars)
        for k in range(m):
            if (k, i) in var_index:
                row[var_index[(k, i)]] = scenario.shares[k]
        rows.append(row)
        rhs.append(y_star[i])
    for k in range(m):
        row = np.zeros(n_vars)
        for i in supports[k]:
            row[var_index[(k, i)]] = 1.0
        rows.append(row)
        rhs.append(1.0)
    a_eq, b_eq = np.array(rows), np.array(rhs)
    bounds = [(0.0, 1.0)] * n_vars
    base = linprog(np.zeros(n_vars), A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                   method="highs")
    if not base.success:
        return [], False

    def to_state(z: np.ndarray) -> np.ndarray:
        state = np.zeros((m, n))
        for (k, i), idx in var_index.items():
            state[k, i] = z[idx]
        return state

    is_point = True
    for idx in range(n_vars):
        c = np.zeros(n_vars)
        c[idx] = 1.0
        lo = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        hi = linprog(-c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if lo.success and hi.success and (hi.x[idx] - lo.x[idx]) > tol:
            is_point = False
            break
    return [to_state(base.x)], not is_point


def find_target_equilibria(scenario: Scenario, y_star: np.ndarray,
                           tol: float = EQUILIBRIUM_TOL
                           ) -> list[TargetEquilibrium]:
    """All rest points of the uncontrolled dynamics aggregating to y_star.

    Holding the output at y_star, each population's rest condition forces
    equal payoffs across its used actions, so candidates are mixtures inside
    equal-payoff action groups; combinations are kept when their aggregate
    hits y_star.  Positive-dimensional solution sets are returned through
    their vertices (two-action games) or a representative point, each marked
    ``continuum_vertex``.  Raises :class:`InapplicableError` when there are
    no solutions at all.
    """
    y_star = np.asarray(y_star, dtype=float)
    per_pop = [_payoff_classes(scenario, k, y_star, tol)
               for k in range(scenario.n_populations)]
    results: list[TargetEquilibrium] = []
    seen: set[tuple] = set()
    for combo in product(*per_pop):
        points, continuum = _combo_solutions(scenario, y_star, combo, tol)
        for point in points:
            key = tuple(np.round(point.reshape(-1), 10))
            if key in seen:
                continue
            seen.add(key)
            results.append(TargetEquilibrium.from_state(
                scenario, point, y_star, continuum_vertex=continuum, tol=1e-7))
    if not results:
        raise InapplicableError(
            f"no uncontrolled rest point aggregates to {y_star}; "
            "the stabilization condition does not apply",
            reason="no_target_equilibrium",
        )
    return results


def unique_target_equilibrium(scenario: Scenario,
                              y_star: np.ndarray) -> TargetEquilibrium:
    """The unique target equilibrium; raises if there is none or many."""
    found = find_target_equilibria(scenario, y_star)
    if len(found) > 1 or found[0].continuum_vertex:
        raise InapplicableError(
            f"{len(found)} target equilibria found for {y_star}; "
            "the stabilization condition needs exactly one",
            reason="multiple_target_equilibria",
        )
    return found[0]


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    """Everything the controller designer needs to pick a gain, or the
    reason no recommendation can be made."""

    target_output: np.ndarray
    equilibria: list[TargetEquilibrium]
    unique: bool
    applicable: bool
    reason: str | None
    subsidy_bound: float | None
    bound_argmax: np.ndarray | None
    min_advantage: float | None
    min_advantage_witness: np.ndarray | None
    recommended_subsidy: float | None
    sample_counts: dict[str, int] = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> dict[str, Any]:
        def arr(value):
            return None if value is None else np.asarray(value).tolist()

        return {
            "target_output": arr(self.target_output),
            "equilibria": [
                {
                    "state": eq.state.tolist(),
                    "carriers": [list(c) for c in eq.carriers],
                    "continuum_vertex": eq.continuum_vertex,
                }
                for eq in self.equilibria
            ],
            "unique": self.unique,
            "applicable": self.applicable,
            "reason": self.reason,
            "subsidy_bound": self.subsidy_bound,
            "bound_argmax": arr(self.bound_argmax),
            "min_advantage": self.min_advantage,
            "min_advantage_witness": arr(self.min_advantage_witness),
            "recommended_subsidy": self.recommended_subsidy,
            "sample_counts": dict(self.sample_counts),
            "seed": self.seed,
        }


def recommend_subsidy(scenario: Scenario, y_star: np.ndarray,
                      sampling: SamplingConfig = SamplingConfig()
                      ) -> StabilityReport:
    """Full stabilization check for a target output.

    Produces a recommendation ``max(0, bound) * (1 + margin) + floor`` only
    when the target equilibrium is unique and the advantage is non-negative
    on the matching set; otherwise the report carries a refusal reason.
    Raises :class:`InapplicableError` if the target admits no equilibrium
    at all or is unreachable.
    """
    y_star = np.asarray(y_star, dtype=float)
    equilibria = find_target_equilibria(scenario, y_star)
    unique = len(equilibria) == 1 and not equilibria[0].continuum_vertex
    report = StabilityReport(
        target_output=y_star, equilibria=equilibria, unique=unique,
        applicable=False, reason=None, subsidy_bound=None, bound_argmax=None,
        min_advantage=None, min_advantage_witness=None,
        recommended_subsidy=None,
        sample_counts={}, seed=sampling.seed,
    )
    if not unique:
        report.reason = "multiple_target_equilibria"
        return report
    eq = equilibria[0]
    matching = min_advantage_on_matching_set(
        eq, scenario, samples=sampling.matching_samples,
        seed=sampling.seed, burn_in=sampling.matching_burn_in)
    bound = estimate_subsidy_bound(eq, scenario, sampling)
    report.min_advantage = matching.min_advantage
    report.min_advantage_witness = matching.witness
    report.subsidy_bound = bound.value
    report.bound_argmax = bound.argmax
    report.sample_counts = {
        "grid": bound.n_grid,
        "random": bound.n_random,
        "ascent_evals": bound.n_ascent_evals,
        "matching_samples": matching.n_samples,
        "matching_vertices": matching.n_vertices,
    }
    if matching.min_advantage < -EQUILIBRIUM_TOL:
        report.reason = "advantage_negative_on_matching_set"
        return report
    report.applicable = True
    report.recommended_subsidy = (
        max(0.0, bound.value) * (1.0 + RECOMMEND_MARGIN) + RECOMMEND_FLOOR
    )
    return report


def equilibrium_jacobian(scenario: Scenario, policy: ControlPolicy,
                         state: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Numerical Jacobian of the reduced two-action dynamics at a state.

    Two-action games are coordinatized by the per-population first-action
    shares; central differences on that reduced field give an (m, m)
    matrix whose eigenvalues classify local stability.  Diagnostic helper
    only (used to confirm which uncontrolled rest points attract).
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
