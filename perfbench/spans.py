"""In-memory spans around calls into the replicator_ctl layers.

The traced run replaces, for the length of one command, the names that
callers look up (``replicator_ctl.integrate.batch_field``,
``replicator_ctl.cli.write_trajectory_csv``, ...) with wrappers that record
a span: name, start, end, parent and one attribute taken from the call.
Spans stay in memory and are written out once, after the command.  The
program's own files are not changed.

A span's name is ``<layer>.<call>``; its self time is its duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

LAYERS = ("cli", "dynamics", "integrate", "stability", "agents")

# marks the construction of a Trajectory: the end of stepping in a batch run
TRAJECTORY_MARK = "integrate.trajectory"


class Tracer:
    """Spans of one single-threaded command, as parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.attrs: list[Any] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.attrs.append(None)
        self.ends.append(-1)
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def mark(self, name: str) -> None:
        self.close(self.open(name))

    def wrap(self, name: str, fn: Callable,
             attr: Callable[[tuple, dict, Any], Any] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attr is not None:
                self.attrs[idx] = attr(args, kwargs, result)
            return result
        return traced

    def spans(self) -> list[tuple[str, int, int, int, Any]]:
        return list(zip(self.names, self.starts, self.ends, self.parents,
                        self.attrs))

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("id,parent,name,start_ns,end_ns\n")
            t0 = self.starts[0] if self.starts else 0
            for idx, (name, start, end, parent, _) in enumerate(self.spans()):
                handle.write(f"{idx},{parent},{name},{start - t0},{end - t0}\n")


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


# ---------------------------------------------------------------------------
# what to wrap, and what each wrapper records
# ---------------------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _batch_members(args, kwargs, result) -> int:
    return int(_arg(args, kwargs, 1, "states").shape[0])


def _trajectory_counts(outcomes, cfg) -> tuple[int, int]:
    """(recorded rows, member-steps) over Trajectory results."""
    rows = steps = 0
    for outcome in outcomes:
        times = getattr(outcome, "times", None)
        if times is not None:
            rows += int(times.shape[0])
            steps += round(float(times[-1]) / cfg.dt)
    return rows, steps


def _portrait_counts(args, kwargs, result) -> tuple[int, int]:
    return _trajectory_counts(result, _arg(args, kwargs, 3, "cfg"))


def _simulate_counts(args, kwargs, result) -> tuple[int, int]:
    return _trajectory_counts([result], _arg(args, kwargs, 3, "cfg"))


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _bound_call(args, kwargs, result) -> tuple[Any, tuple, dict]:
    return result, args, kwargs


def _round_agents(args, kwargs, result) -> int:
    return int(_arg(args, kwargs, 0, "pop").n_agents)


@contextmanager
def traced_program(tracer: Tracer) -> Iterator[None]:
    """Wrap the layer entry points of replicator_ctl while the block runs."""
    from replicator_ctl import agents, cli, integrate, stability

    trajectory = integrate.Trajectory

    def marked_trajectory(*args, **kwargs):
        tracer.mark(TRAJECTORY_MARK)
        return trajectory(*args, **kwargs)

    observer = stability.LyapunovObserver
    table = [
        (cli, "phase_portrait", "integrate.phase_portrait", _portrait_counts),
        (cli, "simulate", "integrate.simulate", _simulate_counts),
        (cli, "interior_grid", "integrate.interior_grid", None),
        (cli, "write_trajectory_csv", "integrate.write_trajectory_csv",
         _file_bytes),
        (integrate, "batch_field", "dynamics.batch_field", _batch_members),
        (cli, "recommend_subsidy", "stability.recommend_subsidy", None),
        (stability, "find_target_equilibria", "stability.equilibria", None),
        (stability, "min_advantage_on_matching_set", "stability.matching",
         None),
        (stability, "estimate_subsidy_bound", "stability.bound", _bound_call),
        (stability, "_grid_states", "stability.lattice", None),
        (observer, "values", "stability.observer_values", None),
        (observer, "series", "stability.observer_series", None),
        (cli, "init_agents", "agents.init_agents", None),
        (cli, "run_rounds", "agents.run", None),
        (agents, "run_round", "agents.run_round", _round_agents),
        (cli, "write_rounds_csv", "agents.write_rounds_csv", _file_bytes),
    ]
    # a name the program no longer has is left out, and its metrics read 0
    present = [row for row in table if row[1] in row[0].__dict__]
    for owner, attr, _, _ in table:
        if attr not in owner.__dict__:
            print(f"trace: {owner.__name__}.{attr} not found, not traced",
                  file=sys.stderr)
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _, _ in present]
    saved.append((integrate, "Trajectory", trajectory))
    try:
        for owner, attr, name, counts in present:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr),
                                             counts))
        integrate.Trajectory = marked_trajectory
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _seconds(ns: float) -> float:
    return ns / 1e9


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced command; span 0 is the command.

    Metrics of a layer the command does not reach are 0.
    """
    total: dict[str, int] = {}
    calls: dict[str, list[int]] = {}
    kids: dict[int, list[int]] = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        total[name] = total.get(name, 0) + (end - start)
        calls.setdefault(name, []).append(idx)
        kids.setdefault(parent, []).append(idx)

    def duration(idx: int) -> int:
        return spans[idx][2] - spans[idx][1]

    def attrs(name: str) -> list[Any]:
        return [spans[idx][4] for idx in calls.get(name, ())]

    metrics: dict[str, float] = {}

    # dynamics: the field kernel
    members = sum(attrs("dynamics.batch_field"))
    field_ns = total.get("dynamics.batch_field", 0)
    metrics["field_calls"] = len(calls.get("dynamics.batch_field", ()))
    metrics["field_members"] = members
    metrics["field_s"] = _seconds(field_ns)
    metrics["field_ns_per_member"] = field_ns / members if members else 0.0

    # integrate: stepping runs from a batch run's start to the first
    # Trajectory it constructs, reassembly from there to its return
    stepping = reassembly = step_self = 0
    rows = steps = 0
    for name in ("integrate.phase_portrait", "integrate.simulate"):
        for idx in calls.get(name, ()):
            _, start, end, _, counts = spans[idx]
            children = kids.get(idx, [])
            first = min((spans[k][1] for k in children
                         if spans[k][0] == TRAJECTORY_MARK), default=end)
            stepping += first - start
            reassembly += end - first
            step_self += first - start - sum(
                duration(k) for k in children if spans[k][1] < first)
            if counts is not None:
                rows += counts[0]
                steps += counts[1]
    metrics["stepping_s"] = _seconds(stepping)
    metrics["reassembly_s"] = _seconds(reassembly)
    metrics["step_self_s"] = _seconds(step_self)
    metrics["member_steps"] = steps
    metrics["recorded_rows"] = rows
    metrics["csv_s"] = _seconds(total.get("integrate.write_trajectory_csv", 0))
    metrics["csv_bytes"] = sum(attrs("integrate.write_trajectory_csv"))
    metrics["simulate_s"] = _seconds(total.get("integrate.simulate", 0))
    metrics["grid_s"] = _seconds(total.get("integrate.interior_grid", 0))

    # stability
    bounds = [b[0] for b in attrs("stability.bound")]
    metrics["bound_s"] = _seconds(total.get("stability.bound", 0))
    metrics["states_evaluated"] = sum(
        b.n_grid + b.n_random + b.n_ascent_evals for b in bounds)
    metrics["subsidy_bound"] = max((b.value for b in bounds), default=0.0)
    metrics["lattice_s"] = _seconds(total.get("stability.lattice", 0))
    metrics["matching_s"] = _seconds(total.get("stability.matching", 0))
    metrics["equilibria_s"] = _seconds(total.get("stability.equilibria", 0))
    series = set(calls.get("stability.observer_series", ()))
    metrics["observer_values_s"] = _seconds(sum(
        duration(idx) for idx in calls.get("stability.observer_values", ())
        if spans[idx][3] not in series))
    metrics["observer_series_s"] = _seconds(
        total.get("stability.observer_series", 0))

    # agents: one span per round
    rounds = [duration(idx) for idx in calls.get("agents.run_round", ())]
    agents = sum(attrs("agents.run_round"))
    metrics["round_calls"] = len(rounds)
    metrics["round_ns_per_agent"] = sum(rounds) / agents if agents else 0.0
    if len(rounds) >= 2:
        cuts = statistics.quantiles(rounds, n=100, method="inclusive")
        metrics["round_p50_us"] = cuts[49] / 1e3
        metrics["round_p99_us"] = cuts[98] / 1e3
    else:
        metrics["round_p50_us"] = metrics["round_p99_us"] = 0.0

    # self time per layer; together they make up the command's time
    for layer in LAYERS:
        metrics[f"{layer}_self_s"] = 0.0
    for (name, *_), own in zip(spans, self_times(spans)):
        metrics[f"{name.split('.', 1)[0]}_self_s"] += _seconds(own)
    metrics["command_s"] = _seconds(duration(0))
    return metrics
