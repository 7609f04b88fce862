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
whole batch at once, optionally with a gain per start, and returns results
in input order.  Every operation runs elementwise along the batch, so a
trajectory's bits depend only on (scenario, policy, x0, config), never on
the rest of its batch.  Convergence is declared online when the max-norm
state change per step stays below ``convergence_tol`` for
``convergence_window`` consecutive steps.

Trajectory CSV layout (one row per recorded step)::

    t, x1_1, ..., x{m}_{n}, y_1, ..., y_n [, V, Vdot, F1, F2]

where ``x{k}_{i}`` is the share of action i in population k, the y columns
are the aggregate output, and the optional block appears when a Lyapunov
observer was attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import ControlPolicy, batch_field
from .game import (Scenario, check_lattice_budget, lattice_product,
                   simplex_lattice)

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


def _rk4_step(rhs: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
              dt: float, renorm_tol: float,
              neg_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of a (B, m, n) stack, in any memory layout.

    Round-off negatives are clamped and drifted rows renormalized (row sums
    add the actions in order).  The mask is True where the member is
    admissible: finite, no coordinate below -neg_tol.  NaN and inf act as
    in-band failure markers, so no floating-point warning is raised.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        k1 = rhs(x)
        k2 = rhs(x + (0.5 * dt) * k1)
        k3 = rhs(x + (0.5 * dt) * k2)
        k4 = rhs(x + dt * k3)
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        above = x_new >= -neg_tol
        ok = (above & (x_new < np.inf)).reshape(len(x_new), -1).all(1)
        fixed = np.where((x_new < 0.0) & above, 0.0, x_new)
        sums = fixed[..., 0]
        for i in range(1, x_new.shape[-1]):
            sums = sums + fixed[..., i]
        drift = np.abs(sums - 1.0) > renorm_tol
        if drift.any():
            fixed = np.where(drift[..., None], fixed / sums[..., None], fixed)
        if not ok.all():  # a failed member keeps its raw RK4 result
            fixed[~ok] = x_new[~ok]
    return fixed, ok


def rk4_step(field: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             dt: float, renorm_tol: float = 1e-12) -> np.ndarray:
    """One RK4 step of an arbitrary state -> derivative callable.

    Raises :class:`StepError` if the step lands outside the admissible set
    (coordinates below -1e-12 or non-finite values); domain errors raised
    by the field itself propagate unchanged.  Callers recover by halving dt.
    """
    x = np.asarray(x, dtype=float)
    fixed, ok = _rk4_step(lambda batch: field(batch[0])[None], x[None], dt,
                          renorm_tol)
    if not ok[0]:
        raise StepError(f"step of size {dt!r} produced an inadmissible state "
                        f"(min coordinate {np.nanmin(fixed)!r})")
    return fixed[0]


def _check_interior(x0: np.ndarray, scenario: Scenario, floor: float,
                    label: str) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    m, n = scenario.n_populations, scenario.n_actions
    if x0.shape != (m, n):
        raise ValueError(f"{label}: expected shape ({m}, {n}), got {x0.shape}")
    if not (np.all(np.isfinite(x0))
            and np.all(np.abs(x0.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError(f"{label}: rows must be finite and sum to 1, got "
                         f"{x0.tolist()}")
    if x0.min() < floor:
        raise ValueError(
            f"{label}: initial states must be interior "
            f"(every share >= {floor}), got minimum {x0.min()!r}"
        )
    return x0


def _member_last(states: np.ndarray) -> np.ndarray:
    """A (B, m, n) view of a copy laid out (m, n, B) in memory."""
    return np.ascontiguousarray(states.transpose(1, 2, 0)).transpose(2, 0, 1)


class _BatchRun:
    """Shared stepping loop for simulate and phase_portrait.

    ``gains`` holds one gain per member; by default each is ``policy.d``.
    The states are kept member-last, so that each step's elementwise
    operations and per-member reductions run along the batch.
    """

    def __init__(self, scenario: Scenario, policy: ControlPolicy,
                 states0: np.ndarray, cfg: IntegrationConfig, observer=None,
                 gains: np.ndarray | None = None):
        self.scenario = scenario
        self.policy = policy
        self.cfg = cfg
        self.observer = observer
        self.gains = (np.full(states0.shape[0], policy.d) if gains is None
                      else gains)
        self.n_members = states0.shape[0]
        self.records: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.converged = np.zeros(self.n_members, dtype=bool)
        self.failures: dict[int, IntegrationError] = {}
        self.lyap_max_inc = np.full(self.n_members, -np.inf)
        self.lyap_final = np.full(self.n_members, np.nan)
        self._run(states0)

    def _step(self, x: np.ndarray, gains: np.ndarray,
              dt: float) -> tuple[np.ndarray, np.ndarray]:
        return _rk4_step(
            lambda batch: batch_field(self.scenario, batch, self.policy,
                                      gains)[0],
            x, dt, self.cfg.renorm_tol)

    def _retry(self, x: np.ndarray, gains: np.ndarray) -> np.ndarray | None:
        """Re-take a (1, m, n) step as 2^j substeps of dt / 2^j, else None."""
        for level in range(self.cfg.max_halvings + 1):
            current = x
            for _ in range(1 << level):
                current, ok = self._step(current, gains,
                                         self.cfg.dt / (1 << level))
                if not ok[0]:
                    break
            else:
                return current[0]
        return None

    def _run(self, states0: np.ndarray) -> None:
        cfg = self.cfg
        ids = np.arange(self.n_members)
        gains = self.gains
        x = _member_last(states0)
        counters = np.zeros(self.n_members, dtype=int)
        if self.observer is not None:
            v_prev = self.observer.values(states0)
        self.records.append((0, ids, states0.copy()))
        n_steps = cfg.n_steps
        for step in range(1, n_steps + 1):
            fixed, ok = self._step(x, gains, cfg.dt)
            all_ok = ok.all()
            for local in [] if all_ok else np.flatnonzero(~ok):
                retried = self._retry(x[local:local + 1],
                                      gains[local:local + 1])
                if retried is None:
                    member = int(ids[local])
                    self.failures[member] = IntegrationError(
                        f"trajectory {member}: step failed at t="
                        f"{step * cfg.dt:.6g} after {cfg.max_halvings} "
                        f"halvings of dt={cfg.dt}")
                else:
                    fixed[local] = retried
                    ok[local] = True
            all_ok = all_ok or ok.all()
            with np.errstate(invalid="ignore"):
                delta = np.abs(fixed - x).reshape(ids.size, -1).max(axis=1)
            # a failed member's counter resets, so a full window implies ok
            counters = np.where((delta < cfg.convergence_tol) & ok,
                                counters + 1, 0)
            just_converged = counters >= cfg.convergence_window

            if self.observer is not None:
                v_new = self.observer.values(np.ascontiguousarray(fixed))
                if not all_ok:
                    v_new = np.where(ok, v_new, np.nan)
                both = np.isfinite(v_new) & np.isfinite(v_prev)
                inc = np.where(both, v_new - v_prev, -np.inf)
                self.lyap_max_inc[ids] = np.maximum(self.lyap_max_inc[ids],
                                                    inc)
                v_prev = v_new

            record_now = (step % cfg.record_stride == 0) or (step == n_steps)
            keep = ok if record_now else just_converged
            if record_now and all_ok:
                self.records.append((step, ids, fixed))
            elif keep.any():
                self.records.append((step, ids[keep], fixed[keep]))

            ending = just_converged if all_ok else just_converged | ~ok
            if ending.any():
                self.converged[ids[just_converged]] = True
                if self.observer is not None:
                    done = ending & ok
                    self.lyap_final[ids[done]] = v_prev[done]
                active = ~ending
                ids = ids[active]
                fixed = _member_last(fixed[active])
                counters = counters[active]
                gains = gains[active]
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
            observables = self.observer.series(states, self.gains[member])
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
                   observer=None, gains: Sequence[float] | None = None
                   ) -> list["Trajectory | IntegrationError"]:
    """Integrate a batch of initial states; results in input order.

    Per-trajectory failures are returned in place (as IntegrationError
    objects) without aborting the rest of the batch.

    ``gains``, if given, lists subsidy gains (finite, >= 0) that replace
    ``policy.d``, the policy then supplying only the target: every start
    runs once under each gain, and result ``g * len(grid) + i`` is start i
    under ``gains[g]``.  It has the same bits as a run of
    ``ControlPolicy(policy.y_star, gains[g])``: no trajectory depends on
    which other starts or gains share its batch.
    """
    states0 = np.array(grid, dtype=float)
    for idx in range(len(states0)):
        _check_interior(states0[idx], scenario, cfg.interior_floor,
                        f"grid[{idx}]")
    if gains is not None:
        gains = np.array(gains, dtype=float)
        if gains.ndim != 1 or not np.all((gains >= 0.0) & (gains < np.inf)):
            raise ValueError(f"gains must be finite values >= 0, got {gains}")
        gains, states0 = (np.repeat(gains, len(states0)),
                          np.tile(states0, (gains.size, 1, 1)))
    if states0.size == 0:
        return []
    return _BatchRun(scenario, policy, states0, cfg, observer,
                     gains).results()


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


def interior_grid(scenario: Scenario, per_dim: int,
                  floor: float = 0.01) -> np.ndarray:
    """Uniform interior grid of initial states, per_dim points per simplex edge.

    Lattice points are blended toward the barycenter just enough to push
    every share up to ``floor`` (for two actions this is exactly
    linspace(floor, 1 - floor, per_dim) on the first action's share).
    Returns an array of shape (L ** m, m, n), L the lattice size, built by
    indexing the blended lattice in ``itertools.product`` order; a grid over
    LATTICE_BYTE_BUDGET raises ValueError before anything is allocated.
    """
    n = scenario.n_actions
    check_lattice_budget(scenario.n_populations, n, per_dim)
    blend = floor * n
    lattice = (1.0 - blend) * simplex_lattice(n, per_dim) + blend / n
    return lattice_product(lattice, scenario.n_populations)


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
