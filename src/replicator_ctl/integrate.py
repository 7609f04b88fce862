"""Deterministic fixed-step integration of the replicator fields.

Classical 4th-order Runge-Kutta on a uniform time grid.  Fixed stepping is
deliberate: the fields are smooth on the invariant region and bitwise
reproducibility of trajectories outranks speed at this scale.  The one
adaptive element is recovery from a domain violation (a Runge-Kutta stage
or step leaving the admissible set): the offending step is re-taken as
2^j substeps of dt / 2^j, halving up to 20 times before giving up, so the
time grid itself never changes.

Rows are renormalized to sum 1 only when drift exceeds ``RENORM_TOL``;
coordinates in [-NEG_TOL, 0) are clamped to 0 first, anything more negative
fails the step.

`simulate` integrates one initial state; `phase_portrait` integrates a
whole batch at once, optionally with a gain per start, and returns results
in input order.  Every operation runs elementwise along the batch, so a
trajectory's bits depend only on (scenario, policy, x0, config), never on
the rest of its batch, which steps as one C-contiguous (m, n, B) array on
a :class:`~replicator_ctl.dynamics.BatchKernel` built once per run.  A
lone member (`simulate`, the last of a shrinking portrait, a halving
retry) steps on a flat list of Python floats instead, on a
:func:`~replicator_ctl.dynamics.scalar_field` generated at most once per
run: the same operations in the same order, so the same bits.  An
attached Lyapunov observer reads each step's array as it is.
Convergence is declared online when the max-norm state change per step
stays below ``CONVERGENCE_TOL`` for ``convergence_window`` consecutive
steps.

Trajectory CSV layout (one row per recorded step)::

    t, x1_1, ..., x{m}_{n}, y_1, ..., y_n [, V, Vdot, F1, F2]

where ``x{k}_{i}`` is the share of action i in population k, the y columns
are the aggregate output, and the optional block appears when a Lyapunov
observer was attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

from .dynamics import (BatchKernel, ControlPolicy, batch_field,
                       scalar_field)
from .game import (Scenario, aggregate_output, check_count,
                   check_lattice_budget, check_real, lattice_product,
                   simplex_lattice)

__all__ = [
    "IntegrationConfig",
    "IntegrationError",
    "LyapunovStats",
    "Trajectory",
    "interior_grid",
    "phase_portrait",
    "simulate",
    "write_trajectory_csv",
]

# Row-sum drift above this is renormalized away after a step.
RENORM_TOL = 1e-12

# A coordinate below -NEG_TOL after a step fails it; one in [-NEG_TOL, 0)
# is round-off and is clamped to 0.
NEG_TOL = 1e-12

# Max-norm change per step below which a step counts towards convergence.
CONVERGENCE_TOL = 1e-9

# Smallest share an initial state may have.
INTERIOR_FLOOR = 1e-6

# A failed step is re-taken as 2^j substeps for j up to this.
MAX_HALVINGS = 20


class IntegrationError(RuntimeError):
    """A trajectory could not be continued (repeated step failure)."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Step size, horizon, convergence window and recording stride."""

    dt: float = 0.01
    t_max: float = 200.0
    convergence_window: int = 100
    record_stride: int = 1

    def __post_init__(self) -> None:
        check_real("dt", self.dt)
        check_real("t_max", self.t_max)
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not self.dt < self.t_max < np.inf:
            raise ValueError(f"t_max must be finite and exceed dt, got "
                             f"{self.t_max!r}")
        check_count("convergence_window", self.convergence_window)
        check_count("record_stride", self.record_stride)
        if self.convergence_window < 1 or self.record_stride < 1:
            raise ValueError("window and stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(np.ceil(self.t_max / self.dt - 1e-9)))


@dataclass(frozen=True)
class LyapunovStats:
    """Per-trajectory summary from an attached Lyapunov observer."""

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


def _rk4_step(rhs: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
              dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of states laid out (m, n, B), member last, by ``rhs``.

    ((k1 + 2·k2) + 2·k3) + k4 builds up in one buffer.  Round-off negatives
    are clamped and drifted rows renormalized (row sums add the actions in
    order), each only when some member needs it.  The mask, shape (B,), is
    True where the member is admissible: finite, no coordinate below
    -NEG_TOL; a failed member keeps its raw RK4 result.  NaN and inf act as
    in-band failure markers, so no floating-point warning is raised.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        k1 = rhs(x)
        k2 = rhs(x + (0.5 * dt) * k1)
        k3 = rhs(x + (0.5 * dt) * k2)
        k4 = rhs(x + dt * k3)
        x_new = k1 + 2.0 * k2
        x_new += 2.0 * k3
        x_new += k4
        x_new *= dt / 6.0
        x_new += x
        flat = x_new.reshape(-1, x_new.shape[2])
        lowest = flat.min(axis=0)
        ok = (lowest >= -NEG_TOL) & (flat.max(axis=0) < np.inf)
        if (lowest < 0.0).any():
            np.copyto(x_new, 0.0, where=(x_new < 0.0) & ok)
        sums = x_new[:, 0] + x_new[:, 1]
        for i in range(2, x_new.shape[1]):
            sums += x_new[:, i]
        drift = np.abs(sums - 1.0) > RENORM_TOL
        if drift.any():
            np.divide(x_new, sums[:, None], out=x_new,
                      where=(drift & ok)[:, None])
    return x_new, ok


def _rk4_scalar(field: Callable, x: list[float], d: float, dt: float,
                n: int) -> tuple[list[float], bool]:
    """:func:`_rk4_step` of one member on a flat list of its m·n floats,
    ``n`` to a population.

    ``field(x, d)`` is a :func:`~replicator_ctl.dynamics.scalar_field`.
    Every operation runs in _rk4_step's order, so the bits are the same.
    Where numpy would divide by zero (a row that clamps to all zeros) the
    entries are the NaN that 0/0 gives, and no exception is raised.
    """
    half = 0.5 * dt
    k1 = field(x, d)[0]
    k2 = field([a + half * b for a, b in zip(x, k1)], d)[0]
    k3 = field([a + half * b for a, b in zip(x, k2)], d)[0]
    k4 = field([a + dt * b for a, b in zip(x, k3)], d)[0]
    sixth = dt / 6.0
    x_new = [a + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
             for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    if not all(-NEG_TOL <= v < math.inf for v in x_new):
        return x_new, False  # a failed member keeps its raw RK4 result
    fixed = [0.0 if v < 0.0 else v for v in x_new]
    for lo in range(0, len(fixed), n):
        row = fixed[lo:lo + n]
        total = reduce(add, row)  # left to right, as numpy adds columns
        if abs(total - 1.0) > RENORM_TOL:
            # a row of zeros: numpy's 0/0 gives NaN, and so does 0 * inf
            fixed[lo:lo + n] = ([v / total for v in row] if total
                                else [v * math.inf for v in row])
    return fixed, True


def _check_interior(x0: np.ndarray, scenario: Scenario,
                    label: str) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    m, n = scenario.n_populations, scenario.n_actions
    if x0.shape != (m, n):
        raise ValueError(f"{label}: expected shape ({m}, {n}), got {x0.shape}")
    if not (np.all(np.isfinite(x0))
            and np.all(np.abs(x0.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError(f"{label}: rows must be finite and sum to 1, got "
                         f"{x0.tolist()}")
    if x0.min() < INTERIOR_FLOOR:
        raise ValueError(
            f"{label}: initial states must be interior "
            f"(every share >= {INTERIOR_FLOOR}), got minimum {x0.min()!r}"
        )
    return x0


class _BatchRun:
    """Shared stepping loop for simulate and phase_portrait.

    ``gains`` holds one gain per member; by default each is ``policy.d``.
    The states are one C-contiguous (m, n, B) array, member last, so that
    every operation of a step runs along the batch on contiguous memory.
    An attached observer reads each step's array (a lone member's as
    (m, n, 1)); the final V is the last entry of the recorded V column.
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
        self.shape = (scenario.n_populations, scenario.n_actions)
        self.field = None
        self.n_members = states0.shape[0]
        self.records: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.converged = np.zeros(self.n_members, dtype=bool)
        self.failures: dict[int, IntegrationError] = {}
        self.lyap_max_inc = np.full(self.n_members, -np.inf)
        self._run(states0)

    def _scalar_step(self, x: list[float], d: float,
                     dt: float) -> tuple[list[float], bool]:
        """:func:`_rk4_scalar` of a lone member with gain d; the field is
        generated at the run's first such step."""
        if self.field is None:
            self.field = scalar_field(self.scenario, self.policy.y_star)
        return _rk4_scalar(self.field, x, d, dt, self.shape[1])

    def _retry(self, x: list[float], d: float, member: int,
               step: int) -> list[float] | None:
        """Re-take member's failed step from x as 2^j substeps of dt / 2^j
        for j = 1..MAX_HALVINGS (j = 0 is the step that failed); if none
        succeeds, record the member's failure and return None."""
        for level in range(1, MAX_HALVINGS + 1):
            current = x
            for _ in range(1 << level):
                current, ok = self._scalar_step(current, d,
                                                self.cfg.dt / (1 << level))
                if not ok:
                    break
            else:
                return current
        self.failures[member] = IntegrationError(
            f"trajectory {member}: step failed at t={step * self.cfg.dt:.6g} "
            f"after {MAX_HALVINGS} halvings of dt={self.cfg.dt}")
        return None

    def _observe(self, states: np.ndarray, ids: np.ndarray, ok: np.ndarray,
                 v_prev: np.ndarray) -> np.ndarray:
        """V at ``states`` (m, n, B), NaN where not ok; folds the step's
        increase into each member's largest."""
        v_new = np.where(ok, self.observer.values(states), np.nan)
        both = np.isfinite(v_new) & np.isfinite(v_prev)
        inc = np.where(both, v_new - v_prev, -np.inf)
        self.lyap_max_inc[ids] = np.maximum(self.lyap_max_inc[ids], inc)
        return v_new

    def _run(self, states0: np.ndarray) -> None:
        cfg = self.cfg
        ids = np.arange(self.n_members)
        kernel = BatchKernel(self.scenario, self.policy.y_star, self.gains)
        x = np.ascontiguousarray(states0.transpose(1, 2, 0))
        counters = np.zeros(self.n_members, dtype=int)
        if self.observer is not None:
            v_prev = self.observer.values(x)
        self.records.append((0, ids, x))
        n_steps = cfg.n_steps
        lone = None  # the last member's id; its state is then a flat list
        for step in range(1, n_steps + 1):
            if lone is None and ids.size == 1:
                lone, d = int(ids[0]), float(kernel.gains[0])
                x, count = x.ravel().tolist(), int(counters[0])
            if lone is not None:
                fixed, ok = self._scalar_step(x, d, cfg.dt)
                if not ok:
                    fixed = self._retry(x, d, lone, step)
                    if fixed is None:
                        break
                # a NaN fails the comparison, as it fails numpy's max-norm
                count = (count + 1 if all(abs(a - b) < CONVERGENCE_TOL
                                          for a, b in zip(fixed, x)) else 0)
                x, block = fixed, np.array(fixed)  # a record is one array
                if self.observer is not None:
                    v_prev = self._observe(block.reshape(self.shape + (1,)),
                                           ids, True, v_prev)
                done = count >= cfg.convergence_window
                if done or step % cfg.record_stride == 0 or step == n_steps:
                    self.records.append((step, ids, block))
                if done:
                    self.converged[ids] = True
                    break
                continue
            fixed, ok = _rk4_step(lambda x: batch_field(
                kernel, x.transpose(2, 0, 1))[0].transpose(1, 2, 0), x, cfg.dt)
            all_ok = ok.all()
            for local in [] if all_ok else np.flatnonzero(~ok):
                retried = self._retry(x[..., local].ravel().tolist(),
                                      float(kernel.gains[local]),
                                      int(ids[local]), step)
                if retried is not None:
                    fixed[..., local] = np.reshape(retried, self.shape)
                    ok[local] = True
            all_ok = all_ok or ok.all()
            with np.errstate(invalid="ignore"):
                delta = np.abs(fixed - x).reshape(-1, ids.size).max(axis=0)
            # a failed member's counter resets, so a full window implies ok
            counters = np.where((delta < CONVERGENCE_TOL) & ok,
                                counters + 1, 0)
            just_converged = counters >= cfg.convergence_window

            if self.observer is not None:
                v_prev = self._observe(fixed, ids, ok, v_prev)

            record_now = (step % cfg.record_stride == 0) or (step == n_steps)
            keep = ok if record_now else just_converged
            if record_now and all_ok:
                self.records.append((step, ids, fixed))
            elif keep.any():
                self.records.append((step, ids[keep], fixed[..., keep]))

            ending = just_converged if all_ok else just_converged | ~ok
            if ending.any():
                self.converged[ids[just_converged]] = True
                active = ~ending
                ids = ids[active]
                fixed = np.ascontiguousarray(fixed[..., active])
                counters = counters[active]
                kernel.take(active)
                if self.observer is not None:
                    v_prev = v_prev[active]
                if ids.size == 0:
                    break
            x = fixed

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
        # a lone member's blocks are flat (m·n,), the batch's (m, n, k)
        grouped = np.concatenate([block.reshape(math.prod(self.shape), -1)
                                  for *_, block in self.records], axis=1)
        self.records = []
        grouped = grouped.T.reshape((-1,) + self.shape)[order]
        steps = steps[order]
        bounds = np.searchsorted(ids[order], np.arange(self.n_members + 1))
        return [self._trajectory(member, steps[lo:hi], grouped[lo:hi])
                for member, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]

    def _trajectory(self, member: int, steps: np.ndarray,
                    states: np.ndarray) -> "Trajectory | IntegrationError":
        if member in self.failures:
            return self.failures[member]
        times = self.cfg.dt * steps.astype(float)
        x = states.transpose(1, 2, 0)
        outputs = aggregate_output(x, self.scenario).T
        observables = None
        lyap = None
        if self.observer is not None:
            observables = self.observer.series(x, self.gains[member])
            max_inc = self.lyap_max_inc[member]
            lyap = LyapunovStats(
                max_step_increase=float(max_inc) if np.isfinite(max_inc) else 0.0,
                final_value=float(observables["V"][-1]),
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
    x0 = _check_interior(x0, scenario, "x0")
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
        _check_interior(states0[idx], scenario, f"grid[{idx}]")
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
