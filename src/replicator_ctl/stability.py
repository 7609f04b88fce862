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
supremum of the critical subsidy.  The first is exact enumeration; on the
matching set the advantage is linear, so its minimum is one exact LP.  The
supremum has no closed form, so it is *estimated* (grid + Dirichlet
sampling + coordinate ascent, with the argmax reported so users can
escalate resolution), never certified; the recommendation inflates the
estimate by a safety margin.  One rule, ``_dbar_batch``, gives the
critical subsidy of a batch and :func:`critical_subsidy` of one state: -inf
where the supremum excludes the state, near the target output or the zero
of a targeted share.

Terminology used throughout: the *matching set* is the polytope of state
combinations whose aggregate output equals y_star exactly.

The certificate terms take batches laid out (m, n, B), member last, as
the integrator steps them, and sum in a fixed order along the batch, so a
state's values are the same alone and in any batch.

Both linear programs, the matching-set minimum
(:func:`min_advantage_on_matching_set`) and the feasibility and extent
probes of target-equilibrium enumeration (``_combo_solutions``), are
solved by ``_lp_min``, a dense two-phase simplex with Bland's rule; the
programs have at most m*n variables and m+n rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .dynamics import action_payoffs, field_uncontrolled, subsidy_weights
from .game import (CARRIER_THRESHOLD, Scenario, aggregate_output, carrier,
                   check_count, check_lattice_budget, check_state_budget,
                   lattice_product, simplex_lattice, weighted_sum)

__all__ = [
    "BoundEstimate",
    "InapplicableError",
    "LyapunovObserver",
    "SamplingConfig",
    "StabilityReport",
    "TargetEquilibrium",
    "critical_subsidy",
    "estimate_subsidy_bound",
    "find_target_equilibria",
    "min_advantage_on_matching_set",
    "recommend_subsidy",
    "unique_target_equilibrium",
]

# Mismatch below this means the output is indistinguishable from the target;
# the critical subsidy is undefined there.
MISMATCH_FLOOR = 1e-12

# Equality tolerances for equilibrium enumeration and verification; a
# target equilibrium's output miss and drift are checked to REST_POINT_TOL.
EQUILIBRIUM_TOL = 1e-9
REST_POINT_TOL = 1e-7

# Safety inflation applied to the estimated supremum before recommending.
RECOMMEND_MARGIN = 0.1
RECOMMEND_FLOOR = 1e-3

# Pool rows, lattice or sampled, made and evaluated per chunk; a chunk holds
# an (n, m, n, CHUNK_ROWS) product.  4,096 rows cost 1 % more bound time
# than 8,192 at (3, 3), and 2,048 rows 11-15 %.
CHUNK_ROWS = 4_096

# The bound excludes states whose output lies within TUBE_RADIUS of the
# target (max norm) or has a targeted share below BOUNDARY_MARGIN.
TUBE_RADIUS = 1e-6
BOUNDARY_MARGIN = 1e-6


class InapplicableError(RuntimeError):
    """The stabilization condition cannot be applied to this target."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class TargetEquilibrium:
    """A rest point of the uncontrolled dynamics aggregating to the target.

    ``carriers[k]`` lists the actions population k actually uses; the
    certificate only sums over those.  ``continuum_vertex`` marks a point
    returned as the representative of a positive-dimensional solution set.
    """

    state: np.ndarray
    target_output: np.ndarray
    carriers: tuple[tuple[int, ...], ...]
    continuum_vertex: bool = False

    def __post_init__(self) -> None:
        for name in ("state", "target_output"):
            value = np.asarray(getattr(self, name), dtype=float).copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def from_state(cls, scenario: Scenario, state: np.ndarray,
                   y_star: np.ndarray, *, continuum_vertex: bool = False
                   ) -> "TargetEquilibrium":
        """Validate and wrap a candidate state.

        Checks both defining properties, each to REST_POINT_TOL: the state
        is a rest point of the uncontrolled field, and its aggregate output
        matches y_star.
        """
        state = np.asarray(state, dtype=float)
        y = aggregate_output(state, scenario)
        residual = np.max(np.abs(y - y_star))
        if residual > REST_POINT_TOL:
            raise ValueError(
                f"aggregate output {y} differs from target {y_star} "
                f"by {float(residual)}"
            )
        drift = np.max(np.abs(field_uncontrolled(scenario, state)))
        if drift > REST_POINT_TOL:
            raise ValueError(
                f"state is not a rest point (max drift {float(drift)})"
            )
        carriers = tuple(tuple(int(i) for i in carrier(state[k]))
                         for k in range(scenario.n_populations))
        return cls(state=state, target_output=np.asarray(y_star, dtype=float),
                   carriers=carriers, continuum_vertex=continuum_vertex)


def _advantage_batch(states: np.ndarray, eq: TargetEquilibrium,
                     scenario: Scenario, F: np.ndarray) -> np.ndarray:
    """Payoff advantage of the target profile at each state of an (m, n, B)
    batch under the payoffs ``F``, (m, n, B): A^k y at each state's own
    output, or at y_star on the matching set.  The sums run in a fixed
    order along the batch, so a state's bits do not depend on its batch."""
    diff = eq.state[:, :, None] - states
    per_pop = weighted_sum(diff.swapaxes(0, 1), F.swapaxes(0, 1))
    return weighted_sum(scenario.shares[:, None], per_pop)


def _mismatch_batch(outputs: np.ndarray, y_star: np.ndarray) -> np.ndarray:
    """Jensen-positive output penalty sum_i (y_star_i - y_i) f_i(y) over the
    targeted actions, in order, for each output column of an (n, B) batch;
    +inf where f is undefined."""
    f, ok = subsidy_weights(outputs, y_star[:, None])
    targeted = np.flatnonzero(y_star > 0.0)
    mismatch = weighted_sum(y_star[targeted, None] - outputs[targeted],
                            f[targeted])
    return mismatch if ok is None else np.where(ok, mismatch, np.inf)


class LyapunovObserver:
    """Attachable observer computing V, Vdot, F1 (advantage), F2 (mismatch).

    Instances are consumed by the integrator, on its (m, n, B) arrays:
    ``values`` once per step at stride > 1, for online monotonicity tracking,
    ``series`` once per trajectory for the recorded observable columns.
    """

    def __init__(self, eq: TargetEquilibrium, scenario: Scenario):
        self.eq = eq
        self.scenario = scenario
        # the carried entries (k, i) in row order, their weights v^k x*[k, i]
        self._carried = np.nonzero(eq.state > CARRIER_THRESHOLD)
        self._weights = (scenario.shares[:, None] * eq.state)[
            self._carried + (None,)]
        self._log_star = np.log(eq.state[self._carried])[:, None]

    def values(self, states: np.ndarray) -> np.ndarray:
        """V per member; +inf where a carried share is not positive."""
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(states[self._carried]) - self._log_star
            values = -weighted_sum(self._weights, logs) + 0.0
        return np.where(np.isnan(values), np.inf, values)

    def series(self, states: np.ndarray, d: float) -> dict[str, np.ndarray]:
        outputs = aggregate_output(states, self.scenario)
        advantage = _advantage_batch(states, self.eq, self.scenario,
                                     action_payoffs(self.scenario, outputs))
        mismatch = _mismatch_batch(outputs, self.eq.target_output)
        # at d = 0 the subsidy term vanishes, also where F2 is infinite
        subsidized = (d != 0.0) | np.isfinite(mismatch)
        return {
            "V": self.values(states),
            "Vdot": -advantage - d * np.where(subsidized, mismatch, 0.0),
            "F1": advantage,
            "F2": mismatch,
        }


@dataclass(frozen=True)
class SamplingConfig:
    """Resolution knobs for the supremum estimate, each an integer >= 0."""

    grid_per_dim: int = 15
    random_samples: int = 20_000
    ascent_iters: int = 60
    ascent_candidates: int = 10

    def __post_init__(self) -> None:
        for item in fields(self):
            check_count(item.name, getattr(self, item.name))


@dataclass(frozen=True)
class BoundEstimate:
    """Estimated supremum of the critical subsidy, with its arg and counts."""

    value: float
    argmax: np.ndarray
    n_grid: int
    n_random: int
    n_ascent_evals: int


def _dbar_batch(states: np.ndarray, eq: TargetEquilibrium, scenario: Scenario
                ) -> np.ndarray:
    """Critical subsidy -F1/F2 of each member of an (m, n, B) batch, shape
    (B,), and -inf for a member the bound excludes: output within
    TUBE_RADIUS of the target, a targeted share below BOUNDARY_MARGIN, or
    mismatch numerically zero.
    """
    outputs = aggregate_output(states, scenario)
    advantage = _advantage_batch(states, eq, scenario,
                                 action_payoffs(scenario, outputs))
    y_star = eq.target_output
    carried = y_star > 0.0
    off_tube = np.max(np.abs(outputs - y_star[:, None]), axis=0) >= TUBE_RADIUS
    in_domain = np.all(outputs[carried] >= BOUNDARY_MARGIN, axis=0)
    mismatch = _mismatch_batch(outputs, y_star)
    valid = off_tube & in_domain & (mismatch > MISMATCH_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(valid, -advantage / mismatch, -np.inf)


def critical_subsidy(x: np.ndarray, eq: TargetEquilibrium,
                     scenario: Scenario) -> float:
    """The gain level above which the certificate decreases at state ``x``:
    the value the bound uses, and -inf where the bound excludes the state
    (see :func:`_dbar_batch`)."""
    return float(_dbar_batch(np.asarray(x, dtype=float)[..., None], eq,
                             scenario)[0])


# its own name, so that perfbench's trace times the lattice build
_grid_states = lattice_product


def estimate_subsidy_bound(eq: TargetEquilibrium, scenario: Scenario,
                           sampling: SamplingConfig = SamplingConfig(),
                           seed: int = 0) -> BoundEstimate:
    """Estimate sup of the critical subsidy over the admissible states.

    Three phases: a uniform lattice on the product of simplices, uniform
    Dirichlet samples drawn with ``seed``, and deterministic coordinate
    ascent from the best candidates (pairwise mass transfers within a
    population, shrinking step).
    States within TUBE_RADIUS of the target output or within
    BOUNDARY_MARGIN of a targeted-share zero are excluded; ascent may
    approach the tube from outside, probing the limit.

    This is an estimate from below of the true supremum, never an
    overestimate; escalate the resolution via ``sampling`` if in doubt.
    A sample pool or lattice over LATTICE_BYTE_BUDGET raises ValueError.
    The pool, lattice rows and then samples, is made and evaluated
    CHUNK_ROWS rows at a time, and only its best max(1, ascent_candidates)
    rows are kept, so memory does not grow with the pool.
    """
    m, n = scenario.n_populations, scenario.n_actions
    check_state_budget(sampling.random_samples, m, n,
                       f"{sampling.random_samples:,} random samples")
    check_lattice_budget(m, n, sampling.grid_per_dim)
    lattice = simplex_lattice(n, sampling.grid_per_dim)
    n_grid, samples = lattice.shape[0] ** m, sampling.random_samples
    rng = np.random.default_rng(seed)

    def pool():  # lattice rows, then the samples one draw would give
        for start in range(0, n_grid, CHUNK_ROWS):
            yield _grid_states(lattice, m, start, start + CHUNK_ROWS)
        for start in range(0, samples, CHUNK_ROWS):
            yield rng.dirichlet(np.ones(n), (min(CHUNK_ROWS, samples - start), m))

    keep = max(1, sampling.ascent_candidates)
    values, states = np.empty(0), np.empty((0, m, n))
    for chunk in pool():
        dbar = _dbar_batch(np.ascontiguousarray(chunk.transpose(1, 2, 0)),
                           eq, scenario)
        # a full list takes only rows above its worst: later rows lose ties
        new = dbar > values[-1] if values.size == keep else slice(None)
        values = np.concatenate([values, dbar[new]])
        states = np.concatenate([states, chunk[new]])
        # highest value first; the stable sort keeps ties in pool row order
        order = np.argsort(-values, kind="stable")[:keep]
        values, states = values[order], states[order]
    # a valid state's dbar is finite: its mismatch exceeds MISMATCH_FLOOR
    if values[0] == -np.inf:
        raise InapplicableError(
            "no admissible states found outside the matching set; "
            "increase sampling resolution", reason="sampling_exhausted",
        )
    # with no ascent candidates the one kept row, the pool's best, stands
    value, state, n_evals = _lockstep_ascent(
        states, values, eq, scenario,
        sampling.ascent_iters if sampling.ascent_candidates else 0)
    # seed 0 is the pool's best and keeps only strictly better moves, so
    # the first maximum over the seeds is also the best over the pool
    best = int(np.argmax(value))
    return BoundEstimate(value=float(value[best]), argmax=state[best],
                         n_grid=n_grid, n_random=samples,
                         n_ascent_evals=n_evals)


def _lockstep_ascent(seeds: np.ndarray, values: np.ndarray,
                     eq: TargetEquilibrium, scenario: Scenario,
                     iterations: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Coordinate ascent of the critical subsidy from each seed state.

    Each seed climbs from its pool value ``values``, for ``iterations``
    sweeps, on its own: at every (iteration, k, i, j) move
    position it tries moving ``min(step, x[k, j])`` of population k's mass
    from action j to action i and keeps the move if it strictly raises its
    value; a sweep without a kept move halves its step, and a step below
    1e-7 stops it.  All seeds pass the move positions together, one
    :func:`_dbar_batch` call per position over the seeds that try it;
    since a state's value does not depend on its batch, every seed ends
    exactly where it would climbing alone.  Returns the final values and
    states and the number of states evaluated, the seeds not among them.
    """
    current = np.ascontiguousarray(seeds.transpose(1, 2, 0))
    current_value, n_evals = values.copy(), 0
    step = np.full(values.size, 0.25)
    active = np.ones(values.size, dtype=bool)
    m, n = scenario.n_populations, scenario.n_actions
    moves = [(k, i, j) for k in range(m) for i in range(n) for j in range(n)
             if i != j]
    for _ in range(iterations):
        if not active.any():
            break
        improved = np.zeros(active.size, dtype=bool)
        for k, i, j in moves:
            tried = np.flatnonzero(active & (current[k, j] > 0.0))
            if tried.size == 0:
                continue
            candidate = current[..., tried]
            moved = np.minimum(step[tried], candidate[k, j])
            candidate[k, j] -= moved
            candidate[k, i] += moved
            value = _dbar_batch(candidate, eq, scenario)
            n_evals += tried.size
            better = value > current_value[tried]
            kept = tried[better]
            current[..., kept] = candidate[..., better]
            current_value[kept] = value[better]
            improved[kept] = True
        stalled = active & ~improved
        step[stalled] *= 0.5
        active &= ~(stalled & (step < 1e-7))
    return current_value, current.transpose(2, 0, 1), n_evals


# ---------------------------------------------------------------------------
# matching-set (polytope of states aggregating to the target) machinery
# ---------------------------------------------------------------------------

# Simplex tolerances: tableau entries within LP_TOL of zero count as zero
# and ratios within LP_TOL of the least as tied, and a phase-1 residual
# above LP_FEASIBILITY_TOL means the system has no non-negative solution.
LP_TOL = 1e-12
LP_FEASIBILITY_TOL = 1e-9


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Make column ``col`` basic in ``row`` by Gauss-Jordan elimination.

    Basic values within LP_TOL of zero are set to zero, so that rounding
    noise on a degenerate row does not spread through later pivots.
    """
    tab[row] /= tab[row, col]
    others = np.arange(tab.shape[0]) != row
    tab[others] -= np.outer(tab[others, col], tab[row])
    values = tab[:-1, -1]
    values[np.abs(values) <= LP_TOL] = 0.0
    basis[row] = col


def _simplex(tab: np.ndarray, basis: list[int], n_cols: int) -> None:
    """Pivot the tableau ``tab`` (constraint rows, then the reduced-cost
    row; last column the right-hand side) to optimality with Bland's rule:
    the lowest-index improving column among the first ``n_cols`` enters,
    and the lowest basis index leaves among the rows tied in the ratio
    test.  Bland's rule cannot cycle, so no iteration cap is needed."""
    while True:
        improving = np.flatnonzero(tab[-1, :n_cols] < -LP_TOL)
        if improving.size == 0:
            return
        col = improving[0]
        rows = np.flatnonzero(tab[:-1, col] > LP_TOL)
        if rows.size == 0:
            raise ValueError("linear program is unbounded")
        ratios = np.maximum(tab[rows, -1], 0.0) / tab[rows, col]
        tied = rows[ratios <= ratios.min() + LP_TOL]
        _pivot(tab, basis, min(tied, key=lambda r: basis[r]), col)


def _lp_min(cost: np.ndarray, a_eq: np.ndarray,
            b_eq: np.ndarray) -> np.ndarray | None:
    """A minimizer of ``cost . z`` subject to ``a_eq z = b_eq``, ``z >= 0``,
    or None when that system has no solution.  The program must be
    bounded, as the matching system is: every share lies in [0, 1].

    Dense two-phase tableau simplex.  Phase 1 minimizes the sum of one
    artificial variable per row; a row whose artificial cannot be pivoted
    out afterwards is a combination of the others and is dropped.
    """
    a_eq = np.asarray(a_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    sign = np.where(b_eq < 0.0, -1.0, 1.0)
    n_rows, n_cols = a_eq.shape
    tab = np.zeros((n_rows + 1, n_cols + n_rows + 1))
    tab[:-1, :n_cols] = sign[:, None] * a_eq
    tab[:-1, n_cols:-1] = np.eye(n_rows)
    tab[:-1, -1] = sign * b_eq
    # phase-1 reduced costs: the artificials' sum less every row
    tab[-1] = -tab[:-1].sum(axis=0)
    tab[-1, n_cols:-1] = 0.0
    basis = list(range(n_cols, n_cols + n_rows))
    _simplex(tab, basis, n_cols)
    if -tab[-1, -1] > LP_FEASIBILITY_TOL:
        return None
    keep = []
    for row in range(n_rows):
        if basis[row] >= n_cols:
            pivots = np.flatnonzero(np.abs(tab[row, :n_cols]) > LP_TOL)
            if pivots.size == 0:
                continue
            _pivot(tab, basis, row, pivots[0])
        keep.append(row)
    basis = [basis[row] for row in keep]
    tab = np.vstack([tab[keep][:, list(range(n_cols)) + [-1]],
                     np.append(cost, 0.0)])
    for row, col in enumerate(basis):
        tab[-1] -= tab[-1, col] * tab[row]
    _simplex(tab, basis, n_cols)
    z = np.zeros(n_cols)
    z[basis] = np.maximum(tab[:-1, -1], 0.0)
    return z


def _matching_system(scenario: Scenario,
                     y_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equality system E z = b over flattened states: row sums, then
    aggregates.

    The row sums come first, so their artificials have the lower basis
    indices: the simplex breaks ratio ties toward those, and so reads a
    pure population's share 1 off its row sum, not off a rounded
    aggregate.
    """
    m, n = scenario.n_populations, scenario.n_actions
    aggregates = np.kron(scenario.shares[None, :], np.eye(n))
    row_sums = np.kron(np.eye(m), np.ones((1, n)))
    return (np.vstack([row_sums, aggregates]),
            np.concatenate([np.ones(m), y_star]))


def min_advantage_on_matching_set(eq: TargetEquilibrium, scenario: Scenario
                                  ) -> tuple[float, np.ndarray]:
    """Minimum payoff advantage over states that already produce the target,
    and a state of the matching set where it is attained (the witness).

    On the matching set the output is pinned to y_star, so the advantage
    F1 = sum_k v^k (x_star^k - x^k) . A^k y_star is linear in the state, and
    its minimum is one exact LP over the matching system.  The advantage is
    then evaluated at the LP's vertex (the witness), so the verdict rests on
    this package's arithmetic, not on the solver's objective.  Raises
    :class:`InapplicableError` when the target output is unreachable: only
    a target that is not a simplex point is, never a ControlPolicy's.
    """
    y_star = eq.target_output
    eq_mat, eq_rhs = _matching_system(scenario, y_star)
    payoffs_at_target = action_payoffs(scenario, y_star)
    cost = -(scenario.shares[:, None] * payoffs_at_target)
    vertex = _lp_min(cost.reshape(-1), eq_mat, eq_rhs)
    if vertex is None:
        raise InapplicableError(
            f"target output {y_star} is unreachable for these population "
            "shares (matching set empty)", reason="matching_set_empty",
        )
    m, n = scenario.n_populations, scenario.n_actions
    # + 0.0 turns the solver's -0.0 entries into 0.0 for report.json
    witness = vertex.reshape(m, n) + 0.0
    advantage = _advantage_batch(witness[..., None], eq, scenario,
                                 payoffs_at_target[..., None])
    return float(advantage[0]), witness


# ---------------------------------------------------------------------------
# target equilibrium enumeration
# ---------------------------------------------------------------------------

def _payoff_classes(values: np.ndarray, targeted: np.ndarray
                    ) -> list[tuple[int, ...]]:
    """Partition a population's actions into groups of payoffs equal within
    EQUILIBRIUM_TOL, given its payoffs ``values`` at y_star, and keep the
    targeted actions of each group that has any.

    Any mixture supported inside one group is a rest point of that
    population's dynamics when the output is held at y_star.
    """
    order = np.argsort(values, kind="stable")
    classes: list[list[int]] = []
    for idx in order:
        if classes and (abs(values[idx] - values[classes[-1][-1]])
                        <= EQUILIBRIUM_TOL):
            classes[-1].append(int(idx))
        else:
            classes.append([int(idx)])
    groups = (tuple(i for i in sorted(cls) if targeted[i]) for cls in classes)
    return [group for group in groups if group]


def _combo_solutions(scenario: Scenario, y_star: np.ndarray,
                     supports: Sequence[tuple[int, ...]]
                     ) -> tuple[np.ndarray | None, bool]:
    """A matching-set state restricted to the given per-population supports,
    or None, and whether the restricted set is a continuum.

    Linear-programming feasibility plus extent probing.  Each used share is
    at most 1 because its population's row sums to 1, so the restricted
    matching system needs no upper bounds.
    """
    m, n = scenario.n_populations, scenario.n_actions
    if all(len(sup) == 1 for sup in supports):
        state = np.zeros((m, n))
        for k, sup in enumerate(supports):
            state[k, sup[0]] = 1.0
        y = aggregate_output(state, scenario)
        if np.max(np.abs(y - y_star)) <= EQUILIBRIUM_TOL:
            return state, False
        return None, False
    columns = [k * n + i for k, sup in enumerate(supports) for i in sup]
    eq_mat, b_eq = _matching_system(scenario, y_star)
    a_eq = eq_mat[:, columns]
    n_vars = len(columns)
    base = _lp_min(np.zeros(n_vars), a_eq, b_eq)
    if base is None:
        return None, False
    state = np.zeros(m * n)
    state[columns] = base
    # a continuum when some used share has a range wider than the
    # tolerance; phase 1 does not see the cost, so every probe is feasible
    # as the base was
    continuum = any(_lp_min(-c, a_eq, b_eq) @ c - _lp_min(c, a_eq, b_eq) @ c
                    > EQUILIBRIUM_TOL for c in np.eye(n_vars))
    return state.reshape(m, n), continuum


def find_target_equilibria(scenario: Scenario,
                           y_star: np.ndarray) -> list[TargetEquilibrium]:
    """All rest points of the uncontrolled dynamics aggregating to y_star.

    Holding the output at y_star, each population's rest condition forces
    equal payoffs across its used actions, so candidates are mixtures inside
    equal-payoff action groups; combinations are kept when their aggregate
    hits y_star.  Every v^k > 0, so no population uses an action with
    y_star_i = 0: the groups keep only targeted actions, and a vertex
    target has one combination.  A positive-dimensional solution set is
    returned as one representative point per combination of groups, marked
    ``continuum_vertex``.  The groups partition each population's actions
    and every row sums to 1, so no two combinations give the same point.
    Raises :class:`InapplicableError` when there are no solutions at all.
    """
    y_star = np.asarray(y_star, dtype=float)
    payoffs_at_target = action_payoffs(scenario, y_star)
    per_pop = [_payoff_classes(values, y_star > 0.0)
               for values in payoffs_at_target]
    limit = (y_star + EQUILIBRIUM_TOL).tolist()
    shares = scenario.shares.tolist()
    results: list[TargetEquilibrium] = []
    # depth first in itertools.product order: (groups so far, load)
    stack = [((), [0.0] * len(limit))]
    while stack:
        combo, load = stack.pop()
        k = len(combo)
        if k == len(per_pop):
            point, continuum = _combo_solutions(scenario, y_star, combo)
            if point is not None:
                results.append(TargetEquilibrium.from_state(
                    scenario, point, y_star, continuum_vertex=continuum))
            continue
        for group in reversed(per_pop[k]):  # the first group pops first
            child = load.copy()
            if len(group) == 1:  # all of population k plays group[0]
                child[group[0]] += shares[k]
                if child[group[0]] > limit[group[0]]:
                    continue
            stack.append((combo + (group,), child))
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

@dataclass(frozen=True)
class StabilityReport:
    """Everything the controller designer needs to pick a gain, or the
    reason no recommendation can be made; a check that stops early leaves
    the later fields at their defaults."""

    target_output: np.ndarray
    equilibria: list[TargetEquilibrium]
    unique: bool
    applicable: bool = False
    reason: str | None = None
    subsidy_bound: float | None = None
    bound_argmax: np.ndarray | None = None
    min_advantage: float | None = None
    min_advantage_witness: np.ndarray | None = None
    recommended_subsidy: float | None = None
    sample_counts: dict[str, int] = field(default_factory=dict)
    seed: int = 0


def recommend_subsidy(scenario: Scenario, y_star: np.ndarray,
                      sampling: SamplingConfig = SamplingConfig(),
                      seed: int = 0) -> StabilityReport:
    """Full stabilization check for a target output.

    Produces a recommendation ``max(0, bound) * (1 + margin) + floor`` only
    when the target equilibrium is unique and the advantage is non-negative
    on the matching set; otherwise the report carries a refusal reason.
    Raises :class:`InapplicableError` if the target admits no equilibrium
    or, off the simplex, is unreachable.  ``seed`` draws the bound's samples.
    """
    y_star = np.asarray(y_star, dtype=float)
    equilibria = find_target_equilibria(scenario, y_star)
    unique = len(equilibria) == 1 and not equilibria[0].continuum_vertex
    found = dict(target_output=y_star, equilibria=equilibria, unique=unique,
                 seed=seed)
    if not unique:
        return StabilityReport(**found, reason="multiple_target_equilibria")
    eq = equilibria[0]
    min_advantage, witness = min_advantage_on_matching_set(eq, scenario)
    checked = dict(found, min_advantage=min_advantage,
                   min_advantage_witness=witness)
    if min_advantage < -EQUILIBRIUM_TOL:
        # refused without a bound, so no lattice is built for it
        return StabilityReport(**checked,
                               reason="advantage_negative_on_matching_set")
    bound = estimate_subsidy_bound(eq, scenario, sampling, seed)
    return StabilityReport(
        **checked, applicable=True, subsidy_bound=bound.value,
        bound_argmax=bound.argmax,
        recommended_subsidy=(max(0.0, bound.value) * (1.0 + RECOMMEND_MARGIN)
                             + RECOMMEND_FLOOR),
        sample_counts={"grid": bound.n_grid, "random": bound.n_random,
                       "ascent_evals": bound.n_ascent_evals})
