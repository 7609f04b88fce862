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
in input order.  Each member's outcome is built at the step where it
leaves the batch (converged, failed or at t_max), and can be handed to a
sink there, so that a run holds the recorded rows of its running members
only.  Every operation runs elementwise along the batch, so a
trajectory's bits depend only on (scenario, policy, x0, config), never on
the rest of its batch, which steps as one C-contiguous (m, n, B) array on
a :class:`~replicator_ctl.dynamics.BatchKernel` built for each membership,
each step on fresh arrays.  Once the batch is small enough, B·m·n² <=
FLOAT_WORK·(m + 2n), each member steps as a flat list of Python floats
on :func:`float_step`, generated at most once per run, at its first use,
with the same operations in the same order, so the same bits; the step's
(m, n, B) array is made from those lists.
Either route returns each member's stillness with its step, and one
loop, under one np.errstate, counts, observes, records and compacts on
either route.  A failed step's halving substeps take their route by the
same rule.  At a recording stride above 1, an attached Lyapunov observer
reads each step's (m, n, B) array.  Convergence is declared online when
the max-norm state change per step stays below ``CONVERGENCE_TOL`` for
``convergence_window`` consecutive steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import BatchKernel, ControlPolicy, batch_field, field_lines
from .game import (Scenario, aggregate_output, check_count,
                   check_lattice_budget, check_real, check_simplex,
                   lattice_product, simplex_lattice)

__all__ = [
    "IntegrationConfig",
    "IntegrationError",
    "Trajectory",
    "interior_grid",
    "phase_portrait",
    "simulate",
]

# Row-sum drift above this is renormalized away after a step.
RENORM_TOL = 1e-12

# A coordinate below -NEG_TOL after a step fails it; one in [-NEG_TOL, 0)
# is round-off and is clamped to 0.
NEG_TOL = 1e-12

# Max-norm change per step below which a step counts towards convergence.
CONVERGENCE_TOL = 1e-9

# Smallest share an initial state may have, and an interior_grid state has.
INTERIOR_FLOOR = 1e-6
INTERIOR_GRID_FLOOR = 0.01

# A failed step is re-taken as 2^j substeps for j up to this.
MAX_HALVINGS = 20

# A batch of B members steps on floats once B·m·n² <= FLOAT_WORK·(m + 2n):
# the float step's work grows with m·n² per member, the batch kernel's
# with its m + 2n ufunc loops per step, whatever B.  Floats were measured
# faster up to 13 members at (3, 2), for a lone member at (8, 8), and
# never at (10, 10) or (20, 20); every constant in [22.3, 24) gives those
# four crossovers.
FLOAT_WORK = 23


class IntegrationError(RuntimeError):
    """A trajectory could not be continued (repeated step failure)."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Step size, horizon, convergence window and recording stride.  A run
    takes up to ``n_steps`` = ceil(t_max/dt − 1e-9) steps, so it may end
    past t_max by less than dt (dt 0.3, t_max 0.5: times 0, 0.3, 0.6)."""

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
        if not self.t_max / self.dt < np.inf:
            raise ValueError(f"t_max / dt must be finite, got "
                             f"{self.t_max!r} / {self.dt!r}")
        check_count("convergence_window", self.convergence_window)
        check_count("record_stride", self.record_stride)
        if self.convergence_window < 1 or self.record_stride < 1:
            raise ValueError("window and stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.t_max / self.dt - 1e-9))


@dataclass(frozen=True)
class Trajectory:
    """Recorded integration output on the uniform time grid, read-only.

    ``observables`` holds per-row arrays keyed "V", "Vdot", "F1", "F2" when
    an observer was attached; ``max_V_step_increase`` is then the largest
    rise of V over one step at full step resolution, whatever the recording
    stride (0.0 if no step has V finite at both ends), else None.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    converged: bool = False
    observables: dict[str, np.ndarray] | None = None
    max_V_step_increase: float | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_output(self) -> np.ndarray:
        return self.outputs[-1]


def _rk4_step(kernel: BatchKernel, x: np.ndarray, dt: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One RK4 step of states laid out (m, n, B), member last, on the field
    :func:`batch_field` of ``kernel``, under the caller's np.errstate: x_new,
    ok, still, with each stage input x + h·k and each rate a fresh array.
    :func:`_settle_rows` and :func:`_stillness` end the step.  NaN and inf
    are in-band failure markers."""
    def rates(s: np.ndarray) -> np.ndarray:
        return batch_field(kernel, s.transpose(2, 0, 1))[0].transpose(1, 2, 0)

    k1 = rates(x)
    k2 = rates(k1 * (0.5 * dt) + x)
    k3 = rates(k2 * (0.5 * dt) + x)
    k4 = rates(k3 * dt + x)
    x_new = k1 + 2.0 * k2
    x_new += 2.0 * k3
    x_new += k4
    x_new *= dt / 6.0
    x_new += x
    ok = _settle_rows(x_new, kernel)
    return x_new, ok, _stillness(x, x_new, ok, kernel)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Row sums of x, (m, n, B), adding the actions in order: (m, B)."""
    sums = x[:, 0] + x[:, 1]
    for i in range(2, x.shape[1]):
        sums += x[:, i]
    return sums


def _settle_rows(x_new: np.ndarray, kernel: BatchKernel | None = None
                 ) -> np.ndarray:
    """The end of an RK4 step on its raw result ``x_new``, (m, n, B), in
    place, under the caller's np.errstate: round-off negatives are clamped
    and drifted rows renormalized (a zero row gives numpy's 0/0, NaN), each
    only when some member needs it.  Returns the mask, shape (B,), True
    where the member is admissible: finite, no coordinate below -NEG_TOL; a
    failed member is left as is.  Given a ``kernel``, a step with no share
    below 0 and every row sum within RENORM_TOL of 1, as most are, needs
    neither, and gets ``kernel.all_ok`` after n + 2 ufunc calls."""
    flat = x_new.reshape(-1, x_new.shape[2])
    # ufunc reductions, not ndarray methods; a NaN fails every test below
    if kernel is not None and np.minimum.reduce(flat, axis=None) >= 0.0:
        sums = _row_sums(x_new)
        # x - 1.0 is monotone in x: the extreme sums bound every deviation
        if (-RENORM_TOL <= np.minimum.reduce(sums, axis=None) - 1.0
                and np.maximum.reduce(sums, axis=None) - 1.0 <= RENORM_TOL):
            return kernel.all_ok
    # fmin/fmax skip a failed NaN
    lowest = np.minimum.reduce(flat, axis=0)
    ok = (lowest >= -NEG_TOL) & (np.maximum.reduce(flat, axis=0) < np.inf)
    if np.fmin.reduce(lowest) < 0.0:
        np.copyto(x_new, 0.0, where=(x_new < 0.0) & ok)
    sums = _row_sums(x_new)
    deviation = np.abs(sums - 1.0)
    if np.fmax.reduce(deviation, axis=None) > RENORM_TOL:
        np.divide(x_new, sums[:, None], out=x_new,
                  where=((deviation > RENORM_TOL) & ok)[:, None])
    return ok


def _stillness(x: np.ndarray, x_new: np.ndarray, ok: np.ndarray,
               kernel: BatchKernel) -> np.ndarray:
    """Whether each member of a step from x to x_new, (m, n, B), is ok and
    moved no share by CONVERGENCE_TOL or more."""
    moved = np.abs(x_new - x).reshape(-1, x.shape[2])
    still = np.maximum.reduce(moved, axis=0) < CONVERGENCE_TOL
    if ok is not kernel.all_ok:
        still &= ok
    return still


def float_step(scenario: Scenario, y_star: np.ndarray
               ) -> Callable[[list[float], float, float],
                             tuple[list[float], bool | None, bool | None]]:
    """:func:`_rk4_step` of one member on Python floats, generated for the
    scenario and target as straight-line code.

    Returns ``step(x, d, dt) -> (x_new, ok, still)``: ``x`` is one state
    as a flat list of its m·n shares, row by row, and ``d`` its gain.
    The four stages inline :func:`~replicator_ctl.dynamics.field_lines`
    and the combination runs in the batch step's order, so the bits are
    the same.  A result with every share >= 0 and every row summing to 1
    within RENORM_TOL is returned as it is, with ``ok`` True and ``still``
    whether every share moved by less than CONVERGENCE_TOL.  Any other
    raw RK4 result comes with ``ok`` and ``still`` None, for
    :func:`_float_rk4` to end by the batch step's own :func:`_settle_rows`;
    a step that leaves the field's domain returns NaN for every share,
    ``ok`` and ``still`` False.
    """
    size = scenario.n_populations * scenario.n_actions
    return _compile_step(field_lines(scenario, y_star), size,
                         scenario.n_actions)


def _compile_step(field: list[str], size: int, n: int) -> Callable:
    """The step of :func:`float_step` around ``field``: statements that
    set the rates k0, k1, ... at the stage input s0, s1, ... (``size``
    shares, ``n`` to a row) and gain d, or ``return FAILED``.  FAILED is
    the only name the step reads: it calls nothing back."""
    def each(template: str, sep: str = ", ") -> str:
        return sep.join(template.format(i=i) for i in range(size))

    # the field's statements once, in a loop over the four stages;
    # ((k1 + 2·k2) + 2·k3) + k4 builds up from -0.0, which keeps k1's bits
    body = [f"{each('x{i}')}, = {each('s{i}')}, = x",
            each("c{i}", " = ") + " = -0.0", "h = 0.5 * dt",
            "for b, a in ((1.0, h), (2.0, h), (2.0, dt), (1.0, None)):"]
    body += ["    " + line for line in field]
    body += ["    " + each("c{i} = c{i} + b * k{i}", "; "),
             "    if a is None:", "        break",
             "    " + each("s{i} = x{i} + a * k{i}", "; "),
             "w = dt / 6.0",
             each("c{i} = x{i} + w * c{i}", "; "),
             f"z = [{each('c{i}')}]"]
    # shares all >= 0 (a NaN or inf fails its row's sum) and every row
    # summing to 1 within RENORM_TOL: nothing to clamp or renormalize
    # (|v| < tol as -tol < v < tol: no call, and a NaN fails it too)
    rows = " and ".join(
        f"{-RENORM_TOL!r} <= "
        f"{' + '.join(f'c{i}' for i in range(lo, lo + n))} - 1.0"
        f" <= {RENORM_TOL!r}" for lo in range(0, size, n))
    moved = f"{-CONVERGENCE_TOL!r} < c{{i}} - x{{i}} < {CONVERGENCE_TOL!r}"
    body += [f"if 0.0 <= min(z) and {rows}:",
             "    return z, True, " + each(moved, " and "),
             "return z, None, None"]
    source = "def step(x, d, dt):\n    " + "\n    ".join(
        line for chunk in body for line in chunk.split("\n"))
    namespace = {"FAILED": ((math.nan,) * size, False, False)}
    exec(compile(source, f"<replicator step {size // n}x{n}>", "exec"),
         namespace)
    return namespace["step"]


def _float_rk4(step: Callable, x: np.ndarray, kernel: BatchKernel,
               dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_rk4_step` of the batch ``x`` (m, n, B) member by member on
    ``step``, a :func:`float_step`, under ``kernel``'s gains and the
    caller's np.errstate; where a member missed the step's fast path,
    :func:`_settle_rows` and :func:`_stillness` end the step."""
    fixed, ok, still = zip(*[
        step(state, d, dt) for state, d in
        zip(x.reshape(-1, x.shape[2]).T.tolist(), kernel.gains.tolist())])
    x_new = np.array(fixed).T.reshape(x.shape)
    if all(ok):
        return x_new, kernel.all_ok, np.array(still)
    # a member off the float step's fast path fails _settle_rows' too
    ok = _settle_rows(x_new)
    return x_new, ok, _stillness(x, x_new, ok, kernel)


def _check_interior(x0: np.ndarray, scenario: Scenario,
                    label: str) -> np.ndarray:
    return check_simplex(x0, label, scenario.payoffs.shape[:2],
                         INTERIOR_FLOOR)


class _BatchRun:
    """Shared stepping loop for simulate and phase_portrait.

    ``gains`` holds one gain per member; by default each is ``policy.d``.
    The batch steps on a batch kernel built for its running members, anew
    when any leave, as one C-contiguous (m, n, B) array, member last, so
    that every operation of a step runs along the batch on contiguous
    memory, or, once B·m·n² <= FLOAT_WORK·(m + 2n), member by member on
    :func:`_float_rk4`, its :func:`float_step` generated at most once per
    run, for full steps and halving retries alike.  An attached observer
    reads each step's array at a recording stride above 1; the final V,
    and at stride 1 the largest rise of V, come from the recorded V column.

    A member leaves the batch when it converges, fails, or takes the final
    step.  At that step its outcome, a :class:`Trajectory` or an
    :class:`IntegrationError`, is built and handed to ``sink(member,
    outcome)``, members leaving together in member order; ``outcomes``
    holds what the sink returned, or without a sink the outcome itself,
    in member order.  Every member still running has the same recorded
    steps, 0 and each multiple of the stride so far, so those rows are
    held as chunks of up to 64 rows, (rows, m, n, slots), a slot per
    member; a leaving member's states are its slot's rows and, off the
    stride, its last state.  The slots of members that left are dropped,
    all at once, when they reach a quarter of the slots, so the chunks
    hold at most 4/3 of the running members' rows.  A leave event reads
    only its leavers' slots, and each row is copied O(1) times, amortized:
    a drop copies the rows of the L members left, and at least L/4 of them
    leave before the next.
    """

    def __init__(self, scenario: Scenario, policy: ControlPolicy,
                 states0: np.ndarray, cfg: IntegrationConfig, observer=None,
                 gains: np.ndarray | None = None,
                 sink: Callable[[int, "Trajectory | IntegrationError"],
                                object] | None = None):
        self.scenario = scenario
        self.policy = policy
        self.cfg = cfg
        self.observer = observer
        self.gains = (np.full(states0.shape[0], policy.d) if gains is None
                      else gains)
        self.sink = sink
        self.stepper = None
        self.n_members = states0.shape[0]
        self.outcomes: list = [None] * self.n_members
        self.lyap_max_inc = np.full(self.n_members, -np.inf)
        # the held rows: full chunks, then the last with ``filled`` rows
        self.chunks: list[np.ndarray] = []
        self.filled = self.held = 0
        self._run(states0)

    def _step(self, kernel: BatchKernel, x: np.ndarray, dt: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One RK4 step of x, (m, n, B), under ``kernel``'s gains: on
        :func:`_float_rk4` where B·m·n² <= FLOAT_WORK·(m + 2n), its float
        step made at its first use, else on the kernel: x_new, ok, still."""
        m, n, size = x.shape
        if size * m * n * n <= FLOAT_WORK * (m + 2 * n):
            if self.stepper is None:
                self.stepper = float_step(self.scenario, self.policy.y_star)
            return _float_rk4(self.stepper, x, kernel, dt)
        return _rk4_step(kernel, x, dt)

    def _retry(self, x: np.ndarray, gains: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Re-take the failed members' step from x, (m, n, F), under their
        ``gains`` (F,) as 2^j substeps of dt / 2^j, j = 1..MAX_HALVINGS, on
        :meth:`_step`, the members not yet done together, each leaving a
        level at its first failed substep: x, written where done, and done."""
        done = np.zeros(gains.size, dtype=bool)
        for level in range(1, MAX_HALVINGS + 1):
            left = np.flatnonzero(~done)
            current, substeps = x[..., left], 1 << level
            kernel = BatchKernel(self.scenario, self.policy.y_star,
                                 gains[left])
            for _ in range(substeps):
                current, ok, _ = self._step(kernel, current,
                                            self.cfg.dt / substeps)
                if not np.logical_and.reduce(ok):
                    left, current = left[ok], current[..., ok]
                    if left.size == 0:
                        break
                    kernel = BatchKernel(self.scenario, self.policy.y_star,
                                         gains[left])
            x[..., left], done[left] = current, True
            if np.logical_and.reduce(done):
                break
        return x, done

    def _observe(self, states: np.ndarray, ids: np.ndarray, ok: np.ndarray,
                 v_prev: np.ndarray) -> np.ndarray:
        """V at ``states`` (m, n, B), NaN where not ok; folds the step's
        increase into each member's largest."""
        v_new = np.where(ok, self.observer.values(states), np.nan)
        both = np.isfinite(v_new) & np.isfinite(v_prev)
        inc = np.where(both, v_new - v_prev, -np.inf)
        self.lyap_max_inc[ids] = np.maximum(self.lyap_max_inc[ids], inc)
        return v_new

    def _hold(self, x: np.ndarray, slots: np.ndarray) -> None:
        """Hold x, (m, n, B), as the next recorded row of the running
        members, at their ``slots`` of the chunks."""
        if not self.chunks or self.filled == self.chunks[-1].shape[0]:
            rows_left = self.cfg.n_steps // self.cfg.record_stride + 1 \
                - self.held
            width = (self.chunks[-1] if self.chunks else x).shape[-1]
            self.chunks.append(np.empty((min(64, rows_left), *x.shape[:2],
                                         width)))
            self.filled = 0
        self.chunks[-1][self.filled][..., slots] = x
        self.filled += 1
        self.held += 1

    def _drop_vacant(self, slots: np.ndarray) -> np.ndarray:
        """Keep only the running members' ``slots`` in the chunks, one
        chunk at a time; their new slots."""
        for idx, chunk in enumerate(self.chunks):
            self.chunks[idx] = chunk[..., slots]
        return np.arange(slots.size)

    def _leave(self, step: int, ids: np.ndarray, slots: np.ndarray,
               last: np.ndarray, ok: np.ndarray, converged: np.ndarray,
               on_stride: bool) -> None:
        """Hand over the members ``ids`` that leave at ``step``, in member
        order: their ``slots``, ``last`` states (m, n, k), whether each is
        ``ok`` and ``converged``, and whether ``step`` was held."""
        steps = np.arange(self.held) * self.cfg.record_stride
        if not on_stride:
            steps = np.append(steps, step)
        for pos, member in enumerate(ids.tolist()):
            if ok[pos]:
                rows = [chunk[..., slots[pos]] for chunk in self.chunks[:-1]]
                rows.append(self.chunks[-1][:self.filled, ..., slots[pos]])
                if not on_stride:
                    rows.append(last[None, ..., pos])
                outcome = self._trajectory(
                    member, self.cfg.dt * steps.astype(float),
                    np.concatenate(rows), bool(converged[pos]))
            else:
                outcome = IntegrationError(
                    f"trajectory {member}: step failed at "
                    f"t={step * self.cfg.dt:.6g} "
                    f"after {MAX_HALVINGS} halvings of dt={self.cfg.dt}")
            self.outcomes[member] = (outcome if self.sink is None
                                     else self.sink(member, outcome))

    @np.errstate(invalid="ignore", divide="ignore", over="ignore")
    def _run(self, states0: np.ndarray) -> None:
        cfg = self.cfg
        ids = np.arange(self.n_members)
        slots = ids  # each running member's slot in the held rows
        kernel = BatchKernel(self.scenario, self.policy.y_star, self.gains)
        x = np.ascontiguousarray(states0.transpose(1, 2, 0))
        counters = np.zeros(self.n_members, dtype=int)
        observe = self.observer is not None and cfg.record_stride > 1
        v_prev = self.observer.values(x) if observe else None
        self._hold(x, slots)
        n_steps = cfg.n_steps
        for step in range(1, n_steps + 1):
            fixed, ok, still = self._step(kernel, x, cfg.dt)
            all_ok = ok is kernel.all_ok or np.logical_and.reduce(ok)
            if not all_ok:
                failed = ~ok
                fixed[..., failed], ok[failed] = self._retry(
                    x[..., failed], kernel.gains[failed])
                all_ok = np.logical_and.reduce(ok)
                still = _stillness(x, fixed, ok, kernel)
            # a failed member's counter resets, so a full window implies ok
            counters = np.where(still, counters + 1, 0)
            just_converged = counters >= cfg.convergence_window

            if observe:
                v_prev = self._observe(fixed, ids, ok, v_prev)

            on_stride = step % cfg.record_stride == 0
            if on_stride:
                self._hold(fixed, slots)

            if step == n_steps:
                ending = np.ones(ids.size, dtype=bool)
            else:
                ending = just_converged if all_ok else just_converged | ~ok
            if np.logical_or.reduce(ending):
                self._leave(step, ids[ending], slots[ending],
                            fixed[..., ending], ok[ending],
                            just_converged[ending], on_stride)
                active = ~ending
                ids, slots = ids[active], slots[active]
                if ids.size == 0:
                    break
                if 4 * ids.size <= 3 * self.chunks[-1].shape[-1]:
                    slots = self._drop_vacant(slots)
                fixed = np.compress(active, fixed, axis=-1)
                counters = counters[active]
                kernel = BatchKernel(self.scenario, self.policy.y_star,
                                     kernel.gains[active])
                if observe:
                    v_prev = v_prev[active]
            x = fixed

    def _trajectory(self, member: int, times: np.ndarray, states: np.ndarray,
                    converged: bool) -> Trajectory:
        """The trajectory of ``member`` from its recorded ``states``, (rows,
        m, n), at ``times``."""
        x = states.transpose(1, 2, 0)
        outputs = aggregate_output(x, self.scenario).T
        observables = max_inc = None
        if self.observer is not None:
            observables = self.observer.series(x, self.gains[member])
            if self.cfg.record_stride == 1:  # V is recorded at every step
                v = observables["V"]
                both = np.isfinite(v[1:]) & np.isfinite(v[:-1])
                max_inc = np.max(v[1:][both] - v[:-1][both], initial=-np.inf)
            else:
                max_inc = self.lyap_max_inc[member]
            max_inc = float(max_inc) if np.isfinite(max_inc) else 0.0
        # every array here is fresh, so no caller's array is frozen
        for array in (times, states, outputs, *(observables or {}).values()):
            array.setflags(write=False)
        return Trajectory(
            times=times, states=states, outputs=outputs, converged=converged,
            observables=observables, max_V_step_increase=max_inc,
        )


def simulate(scenario: Scenario, policy: ControlPolicy, x0: np.ndarray,
             cfg: IntegrationConfig = IntegrationConfig(),
             observer=None) -> Trajectory:
    """Integrate one trajectory from an interior initial state.

    Stops at convergence or after ``cfg.n_steps`` steps, at t_max or past
    it by less than dt.  Raises :class:`IntegrationError` if stepping
    fails repeatedly, ValueError if the initial state is not interior.
    """
    x0 = _check_interior(x0, scenario, "x0")
    outcome = _BatchRun(scenario, policy, x0[None], cfg, observer).outcomes[0]
    if isinstance(outcome, IntegrationError):
        raise outcome
    return outcome


def phase_portrait(scenario: Scenario, policy: ControlPolicy,
                   grid: Sequence[np.ndarray] | np.ndarray,
                   cfg: IntegrationConfig = IntegrationConfig(),
                   observer=None, gains: Sequence[float] | None = None,
                   sink: Callable[[int, "Trajectory | IntegrationError"],
                                  object] | None = None) -> list:
    """Integrate a batch of initial states; results in input order.

    Per-trajectory failures are returned in place (as IntegrationError
    objects) without aborting the rest of the batch.  Each stops as
    :func:`simulate`'s does, at t_max or past it by less than dt.

    ``gains``, if given, lists subsidy gains (finite, >= 0) that replace
    ``policy.d``, the policy then supplying only the target: every start
    runs once under each gain, and result ``g * len(grid) + i`` is start i
    under ``gains[g]``.  It has the same bits as a run of
    ``ControlPolicy(policy.y_star, gains[g])``: no trajectory depends on
    which other starts or gains share its batch.

    ``sink``, if given, is called as ``sink(i, outcome)`` once for each
    result i, at the step where it leaves the batch (converged, failed or
    at t_max; results leaving at one step in index order), and the
    returned list holds what it returned.  A trajectory handed to the sink
    is then held only as long as the sink keeps it, while the rows of the
    members still running are held by the run.
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
    return _BatchRun(scenario, policy, states0, cfg, observer, gains,
                     sink).outcomes


def interior_grid(scenario: Scenario, per_dim: int) -> np.ndarray:
    """Uniform interior grid of initial states, per_dim points per simplex edge.

    Lattice points are blended toward the barycenter just enough to push
    every share up to INTERIOR_GRID_FLOOR (for two actions this is exactly
    linspace(0.01, 0.99, per_dim) on the first action's share).
    Returns an array of shape (L ** m, m, n), L the lattice size, built by
    indexing the blended lattice in ``itertools.product`` order; a grid over
    LATTICE_BYTE_BUDGET raises ValueError before anything is allocated.
    """
    n = scenario.n_actions
    check_lattice_budget(scenario.n_populations, n, per_dim)
    blend = INTERIOR_GRID_FLOOR * n
    lattice = (1.0 - blend) * simplex_lattice(n, per_dim) + blend / n
    return lattice_product(lattice, scenario.n_populations)
