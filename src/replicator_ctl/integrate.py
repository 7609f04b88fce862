"""Deterministic fixed-step integration of the replicator fields.

Classical 4th-order Runge-Kutta on a uniform time grid.  Fixed stepping is
deliberate: the fields are smooth on the invariant region and bitwise
reproducibility of trajectories outranks speed at this scale.  The one
adaptive element is recovery from a domain violation (a Runge-Kutta stage
or step leaving the admissible set): the offending step is re-taken as
2^j substeps of dt / 2^j, halving up to 20 times before giving up, so the
time grid itself never changes.

Rows are renormalized to sum 1 only when drift exceeds ``renorm_tol``;
coordinates in [-1e-12, 0) are clamped to 0 first, anything more negative
fails the step.

`simulate` integrates one initial state; `phase_portrait` integrates a
whole batch simultaneously (vectorized across trajectories, which share
only immutable inputs) and returns results in input order.  Convergence is
declared online when the max-norm state change per step stays below
``convergence_tol`` for ``convergence_window`` consecutive steps.

Trajectory CSV layout (one row per recorded step)::

    t, x1_1, ..., x{m}_{n}, y_1, ..., y_n [, V, Vdot, F1, F2]

where ``x{k}_{i}`` is the share of action i in population k, the y columns
are the aggregate output, and the optional block appears when a Lyapunov
observer was attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .dynamics import ControlPolicy, batch_field
from .game import Scenario

__all__ = [
    "ConvergenceVerdict",
    "IntegrationConfig",
    "IntegrationError",
    "LyapunovStats",
    "StepError",
    "Trajectory",
    "detect_convergence",
    "interior_grid",
    "phase_portrait",
    "rk4_step",
    "simulate",
    "write_trajectory_csv",
]


class StepError(RuntimeError):
    """A single integration step produced an inadmissible state."""


class IntegrationError(RuntimeError):
    """A trajectory could not be continued (repeated step failure)."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Step size, horizon, and the tolerances of the stepping loop."""

    dt: float = 0.01
    t_max: float = 200.0
    renorm_tol: float = 1e-12
    convergence_tol: float = 1e-9
    convergence_window: int = 100
    record_stride: int = 1
    interior_floor: float = 1e-6
    max_halvings: int = 20

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.t_max <= self.dt:
            raise ValueError("t_max must exceed dt")
        if min(self.renorm_tol, self.convergence_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.convergence_window < 1 or self.record_stride < 1:
            raise ValueError("window and stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(np.ceil(self.t_max / self.dt - 1e-9)))


@dataclass(frozen=True)
class LyapunovStats:
    """Online per-trajectory summary from an attached Lyapunov observer."""

    max_step_increase: float
    final_value: float


@dataclass
class Trajectory:
    """Recorded integration output on the uniform time grid.

    ``observables`` holds per-row arrays keyed "V", "Vdot", "F1", "F2" when
    an observer was attached; ``lyapunov`` is the online summary computed at
    full step resolution regardless of the recording stride.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    converged: bool = False
    observables: dict[str, np.ndarray] | None = None
    lyapunov: LyapunovStats | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_output(self) -> np.ndarray:
        return self.outputs[-1]


@dataclass(frozen=True)
class ConvergenceVerdict:
    converged: bool
    time: float | None
    limit_state: np.ndarray | None


def _rk4_raw(rhs: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             dt: float) -> np.ndarray:
    k1 = rhs(x)
    k2 = rhs(x + (0.5 * dt) * k1)
    k3 = rhs(x + (0.5 * dt) * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _finalize_step(x_new: np.ndarray, renorm_tol: float,
                   neg_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Clamp round-off negatives, renormalize drifted rows, flag bad members.

    Works on any (..., m, n) stack; the returned mask collapses the
    trailing (m, n) axes, True where the member is admissible.
    """
    lead_axes = tuple(range(x_new.ndim - 2, x_new.ndim))
    with np.errstate(invalid="ignore", divide="ignore"):
        finite = np.all(np.isfinite(x_new), axis=lead_axes)
        nonneg = np.all(x_new >= -neg_tol, axis=lead_axes)
        ok = finite & nonneg
        clamped = np.where((x_new < 0.0) & (x_new >= -neg_tol), 0.0, x_new)
        sums = clamped.sum(axis=-1, keepdims=True)
        fixed = np.where(np.abs(sums - 1.0) > renorm_tol, clamped / sums,
                         clamped)
    return fixed, ok


def rk4_step(field: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             dt: float, renorm_tol: float = 1e-12) -> np.ndarray:
    """One RK4 step of an arbitrary state -> derivative callable.

    Raises :class:`StepError` if the step lands outside the admissible set
    (coordinates below -1e-12 or non-finite values); domain errors raised
    by the field itself propagate unchanged.  Callers recover by halving dt.
    """
    x = np.asarray(x, dtype=float)
    x_new = _rk4_raw(field, x, dt)
    fixed, ok = _finalize_step(x_new[None], renorm_tol)
    if not bool(ok[0]):
        raise StepError(
            f"step of size {dt!r} produced an inadmissible state "
            f"(min coordinate {np.nanmin(x_new)!r})"
        )
    return fixed[0]


def _advance_member(scenario: Scenario, policy: ControlPolicy, x: np.ndarray,
                    dt: float, renorm_tol: float,
                    max_halvings: int) -> np.ndarray | None:
    """Advance one state by dt, substepping at dt / 2^j on failure.

    Returns the new state, or None if every halving level failed.
    """

    def rhs(state: np.ndarray) -> np.ndarray:
        deriv, _ = batch_field(scenario, state[None], policy)
        return deriv[0]

    for level in range(max_halvings + 1):
        n_sub = 1 << level
        sub_dt = dt / n_sub
        current = x
        failed = False
        for _ in range(n_sub):
            with np.errstate(invalid="ignore", divide="ignore",
                             over="ignore"):
                candidate = _rk4_raw(rhs, current, sub_dt)
            fixed, ok = _finalize_step(candidate[None], renorm_tol)
            if not bool(ok[0]):
                failed = True
                break
            current = fixed[0]
        if not failed:
            return current
    return None


def _check_interior(x0: np.ndarray, scenario: Scenario, floor: float,
                    label: str) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    m, n = scenario.n_populations, scenario.n_actions
    if x0.shape != (m, n):
        raise ValueError(f"{label}: expected shape ({m}, {n}), got {x0.shape}")
    sums = x0.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError(f"{label}: rows must sum to 1, got sums {sums}")
    if x0.min() < floor:
        raise ValueError(
            f"{label}: initial states must be interior "
            f"(every share >= {floor}), got minimum {x0.min()!r}"
        )
    return x0


class _BatchRun:
    """Shared stepping loop for simulate and phase_portrait."""

    def __init__(self, scenario: Scenario, policy: ControlPolicy,
                 states0: np.ndarray, cfg: IntegrationConfig, observer=None):
        self.scenario = scenario
        self.policy = policy
        self.cfg = cfg
        self.observer = observer
        self.n_members = states0.shape[0]
        self.records: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.converged = np.zeros(self.n_members, dtype=bool)
        self.failures: dict[int, IntegrationError] = {}
        self.lyap_max_inc = np.full(self.n_members, -np.inf)
        self.lyap_final = np.full(self.n_members, np.nan)
        self._run(states0)

    def _observe(self, states: np.ndarray) -> np.ndarray:
        return self.observer.values(states)

    def _run(self, states0: np.ndarray) -> None:
        cfg = self.cfg
        ids = np.arange(self.n_members)
        x = states0.copy()
        counters = np.zeros(self.n_members, dtype=int)
        if self.observer is not None:
            v_prev = self._observe(x)
        self.records.append((0, ids.copy(), x.copy()))
        n_steps = cfg.n_steps

        def rhs(batch: np.ndarray) -> np.ndarray:
            deriv, _ = batch_field(self.scenario, batch, self.policy)
            return deriv

        for step in range(1, n_steps + 1):
            # NaN/inf act as in-band step-failure markers in the batch path
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                candidate = _rk4_raw(rhs, x, cfg.dt)
            fixed, ok = _finalize_step(candidate, cfg.renorm_tol)
            if not np.all(ok):
                for local in np.flatnonzero(~ok):
                    retried = _advance_member(
                        self.scenario, self.policy, x[local], cfg.dt,
                        cfg.renorm_tol, cfg.max_halvings,
                    )
                    if retried is None:
                        member = int(ids[local])
                        self.failures[member] = IntegrationError(
                            f"trajectory {member}: step failed at "
                            f"t={step * cfg.dt:.6g} after "
                            f"{cfg.max_halvings} halvings of dt={cfg.dt}"
                        )
                    else:
                        fixed[local] = retried
                        ok[local] = True

            with np.errstate(invalid="ignore"):
                delta = np.max(np.abs(fixed - x), axis=(1, 2))
                below = delta < cfg.convergence_tol
            counters = np.where(below & ok, counters + 1, 0)
            just_converged = ok & (counters >= cfg.convergence_window)

            if self.observer is not None:
                v_new = np.where(ok, self._observe(fixed), np.nan)
                both = np.isfinite(v_new) & np.isfinite(v_prev)
                inc = np.where(both, v_new - v_prev, -np.inf)
                local_ids = ids
                self.lyap_max_inc[local_ids] = np.maximum(
                    self.lyap_max_inc[local_ids], inc)
                v_prev = v_new

            record_now = (step % cfg.record_stride == 0) or (step == n_steps)
            ending = just_converged | ~ok
            if record_now and np.any(ok):
                keep = ok
                self.records.append((step, ids[keep].copy(), fixed[keep].copy()))
            elif np.any(just_converged):
                sel = just_converged
                self.records.append((step, ids[sel].copy(), fixed[sel].copy()))

            self.converged[ids[just_converged]] = True

            if self.observer is not None:
                done = np.flatnonzero(ending)
                for local in done:
                    member = int(ids[local])
                    self.lyap_final[member] = (
                        v_prev[local] if ok[local] else self.lyap_final[member]
                    )

            active = ~ending
            if not np.all(active):
                ids = ids[active]
                fixed = fixed[active]
                counters = counters[active]
                if self.observer is not None:
                    v_prev = v_prev[active]
                if ids.size == 0:
                    break
            x = fixed

        # members that ran to the horizon
        if self.observer is not None:
            self.lyap_final[ids] = v_prev

    def results(self) -> list["Trajectory | IntegrationError"]:
        """Every member's outcome, in member order.

        One pass groups the recorded rows by member: a stable sort on the
        member id keeps each member's rows in step order.  A member that did
        not fail is recorded at step 0 and at its final step, so its rows
        are the whole trajectory.  The records are released once merged,
        and each trajectory's states are a slice of the grouped array.
        """
        steps = np.repeat([step for step, _, _ in self.records],
                          [ids.size for _, ids, _ in self.records])
        ids = np.concatenate([ids for _, ids, _ in self.records])
        order = np.argsort(ids, kind="stable")
        grouped = np.concatenate([block for *_, block in self.records])
        self.records = []
        grouped = grouped[order]
        steps = steps[order]
        bounds = np.searchsorted(ids[order], np.arange(self.n_members + 1))
        return [self._trajectory(member, steps[lo:hi], grouped[lo:hi])
                for member, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]

    def _trajectory(self, member: int, steps: np.ndarray,
                    states: np.ndarray) -> "Trajectory | IntegrationError":
        if member in self.failures:
            return self.failures[member]
        times = self.cfg.dt * steps.astype(float)
        outputs = np.einsum("k,tki->ti", self.scenario.shares, states)
        observables = None
        lyap = None
        if self.observer is not None:
            observables = self.observer.series(states, self.policy.d)
            max_inc = self.lyap_max_inc[member]
            lyap = LyapunovStats(
                max_step_increase=float(max_inc) if np.isfinite(max_inc) else 0.0,
                final_value=float(self.lyap_final[member]),
            )
        return Trajectory(
            times=times, states=states, outputs=outputs,
            converged=bool(self.converged[member]),
            observables=observables, lyapunov=lyap,
        )


def simulate(scenario: Scenario, policy: ControlPolicy, x0: np.ndarray,
             cfg: IntegrationConfig = IntegrationConfig(),
             observer=None) -> Trajectory:
    """Integrate one trajectory from an interior initial state.

    Stops at t_max or as soon as convergence is detected.  Raises
    :class:`IntegrationError` if stepping fails repeatedly, ValueError if
    the initial state is not interior.
    """
    x0 = _check_interior(x0, scenario, cfg.interior_floor, "x0")
    outcome = _BatchRun(scenario, policy, x0[None], cfg, observer).results()[0]
    if isinstance(outcome, IntegrationError):
        raise outcome
    return outcome


def phase_portrait(scenario: Scenario, policy: ControlPolicy,
                   grid: Sequence[np.ndarray] | np.ndarray,
                   cfg: IntegrationConfig = IntegrationConfig(),
                   observer=None) -> list["Trajectory | IntegrationError"]:
    """Integrate a batch of initial states; results in input order.

    Per-trajectory failures are returned in place (as IntegrationError
    objects) without aborting the rest of the batch.
    """
    states0 = np.array([np.asarray(g, dtype=float) for g in grid])
    if states0.size == 0:
        return []
    for idx in range(states0.shape[0]):
        _check_interior(states0[idx], scenario, cfg.interior_floor,
                        f"grid[{idx}]")
    return _BatchRun(scenario, policy, states0, cfg, observer).results()


def detect_convergence(traj: Trajectory,
                       cfg: IntegrationConfig) -> ConvergenceVerdict:
    """Scan a recorded trajectory for a settled tail.

    Converged when the max-norm change between consecutive recorded rows
    stays below ``convergence_tol`` for ``convergence_window`` consecutive
    rows (or for the whole trajectory if it is shorter than the window).
    Exact for trajectories recorded at stride 1.
    """
    states = traj.states
    if states.shape[0] < 2:
        return ConvergenceVerdict(False, None, None)
    deltas = np.max(np.abs(np.diff(states, axis=0)), axis=(1, 2))
    below = deltas < cfg.convergence_tol
    window = cfg.convergence_window
    if below.size < window:
        if np.all(below):
            return ConvergenceVerdict(True, float(traj.times[-1]),
                                      states[-1].copy())
        return ConvergenceVerdict(False, None, None)
    run_length = 0
    for idx, flag in enumerate(below):
        run_length = run_length + 1 if flag else 0
        if run_length >= window:
            return ConvergenceVerdict(True, float(traj.times[idx + 1]),
                                      states[idx + 1].copy())
    return ConvergenceVerdict(False, None, None)


def _simplex_lattice(n_actions: int, per_dim: int) -> np.ndarray:
    """All compositions of per_dim - 1 into n parts, scaled to the simplex."""
    total = per_dim - 1
    points = []
    for combo in product(range(total + 1), repeat=n_actions - 1):
        if sum(combo) <= total:
            points.append(list(combo) + [total - sum(combo)])
    return np.array(points, dtype=float) / float(total)


def interior_grid(scenario: Scenario, per_dim: int,
                  floor: float = 0.01) -> np.ndarray:
    """Uniform interior grid of initial states, per_dim points per simplex edge.

    Lattice points are blended toward the barycenter just enough to push
    every share up to ``floor`` (for two actions this is exactly
    linspace(floor, 1 - floor, per_dim) on the first action's share).
    Returns an array of shape (per_dim-lattice-size ** m, m, n).
    """
    if per_dim < 2:
        raise ValueError("per_dim must be >= 2")
    n = scenario.n_actions
    lattice = _simplex_lattice(n, per_dim)
    blend = floor * n
    lattice = (1.0 - blend) * lattice + blend / n
    combos = product(range(lattice.shape[0]), repeat=scenario.n_populations)
    return np.array([[lattice[idx] for idx in combo] for combo in combos])


def write_trajectory_csv(traj: Trajectory, path: str,
                         provenance: dict[str, str] | None = None) -> None:
    """Write one recorded trajectory as CSV (see module docstring for layout).

    Each value is written as the shortest string that parses back to the
    same float (``repr``).
    """
    n_rows, n_pops, n_actions = traj.states.shape
    columns = ["t"]
    columns += [f"x{k + 1}_{i + 1}" for k in range(n_pops)
                for i in range(n_actions)]
    columns += [f"y_{i + 1}" for i in range(n_actions)]
    blocks = [traj.times[:, None], traj.states.reshape(n_rows, -1),
              traj.outputs]
    if traj.observables is not None:
        observable_keys = ["V", "Vdot", "F1", "F2"]
        columns += observable_keys
        blocks += [traj.observables[key][:, None] for key in observable_keys]
    table = np.hstack(blocks).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for key, value in (provenance or {}).items():
            handle.write(f"# {key}: {value}\n")
        handle.write(",".join(columns) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in table)
