"""Command-line front end: ``replicator-ctl``.

Subcommands
-----------
simulate   one trajectory -> trajectory.csv + summary.json
portrait   batch of initial states -> trajectories/traj_###.csv + index.json
verify     stabilization report for a target output -> report.json
sweep      convergence fraction across subsidy levels -> sweep.csv
agents     finite-population run -> rounds.csv + summary.json

Every run echoes a ``manifest.json`` into the output directory; re-running
with ``--manifest`` reproduces the data files byte for byte (outputs carry
no timestamps, floats are written in shortest round-trip form).  Every
output file names the artifact version, the seed, and the scenario hash.
This module writes every file.  A CSV file opens with one ``# key: value``
line per provenance entry, then a header row of its columns:

trajectory.csv, traj_###.csv  t, x1_1..x{m}_{n}, y_1..y_n[, V, Vdot, F1, F2]
rounds.csv                    round, y_1..y_n, p_1..p_n, total_subsidy
sweep.csv                     d, fraction_converged, max_final_distance

A trajectory row is a recorded step: ``x{k}_{i}`` is the share of action
i in population k, y the aggregate output, and V, Vdot, F1, F2 appear when
a Lyapunov observer is attached.  A rounds row is a round boundary: the
empirical output y, the head count p of each action, the subsidy paid.

Scenario schema:  ``{"populations": [{"share": v, "payoff": [[...], ...]},
...]}``.  Policy schema: ``{"d": gain, "y_star": [shares...]}``; omitting
the policy, or d, or setting d to 0 runs the uncontrolled dynamics.
``verify`` needs only the target output (``--y-star`` or a policy file);
``sweep`` takes its gains from ``--d-values`` and ignores ``--d`` and
``--record-stride``.

Each ``--x0`` start is m comma-separated first-action shares (two-action
games) or m semicolon-separated rows of n shares, each row summing to 1
and every share at least 1e-6; no file is written for a refused start.

Exit codes: 0 success, 1 input error, 2 numeric failure, 3 stabilization
condition inapplicable, 4 finite-population assumption violated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__, agents, game
from .agents import (
    EmptyActionGroupError,
    init_agents,
    round_time_step,
    run as run_rounds,
)
from .dynamics import ControlPolicy
from .game import (Scenario, ScenarioError, check_count, check_real,
                   scenario_digest)
from .integrate import (
    INTERIOR_FLOOR,
    IntegrationConfig,
    IntegrationError,
    Trajectory,
    interior_grid,
    phase_portrait,
    simulate,
)
from .stability import (
    InapplicableError,
    LyapunovObserver,
    SamplingConfig,
    recommend_subsidy,
    unique_target_equilibrium,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_INAPPLICABLE = 3
EXIT_AGENT_ASSUMPTION = 4

# endpoint-to-target distance counted as "converged to the target"
ENDPOINT_TOL = 1e-3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the input-error code."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _json_default(value: Any):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _write_json(path: str, payload: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True,
                  default=_json_default)
        handle.write("\n")


def _write_csv(path: str, provenance: dict[str, str], columns: list[str],
               rows: Iterable[Sequence[float | int]]) -> None:
    """The provenance comments, the header, and one line per row, each cell
    the ``repr`` of a Python float or int: the shortest text that parses
    back to the same value."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"# {key}: {value}\n"
                          for key, value in provenance.items())
        handle.write(",".join(columns) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def write_trajectory_csv(traj: Trajectory, path: str,
                         provenance: dict[str, str]) -> None:
    """One recorded trajectory, a row per recorded step."""
    n_rows, n_pops, n_actions = traj.states.shape
    columns = ["t", *(f"x{k + 1}_{i + 1}" for k in range(n_pops)
                      for i in range(n_actions)),
               *(f"y_{i + 1}" for i in range(n_actions))]
    blocks = [traj.times[:, None], traj.states.reshape(n_rows, -1),
              traj.outputs]
    if traj.observables is not None:
        columns += ["V", "Vdot", "F1", "F2"]
        blocks += [traj.observables[key][:, None] for key in columns[-4:]]
    _write_csv(path, provenance, columns, np.hstack(blocks).tolist())


def write_rounds_csv(series: list[agents.RoundStats], path: str,
                     provenance: dict[str, str]) -> None:
    """A round series, a row per round boundary."""
    n = series[0].empirical_output.shape[0]
    columns = ["round", *(f"y_{i + 1}" for i in range(n)),
               *(f"p_{i + 1}" for i in range(n)), "total_subsidy"]
    _write_csv(path, provenance, columns, (
        [idx, *stats.empirical_output.tolist(),
         *stats.action_counts.tolist(), float(stats.total_subsidy)]
        for idx, stats in enumerate(series)))


def _parse_x0(text: str, shape: tuple[int, int]) -> np.ndarray:
    label = f"--x0 {text!r}"
    if not isinstance(text, str):
        raise ScenarioError(f"{label}: expected a string of shares")
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ScenarioError(f"{label}: {exc}") from exc
    if ";" not in text and shape[1] == 2:  # first-action shares
        rows = [[v, 1.0 - v] for v in rows[0]]
    if len({len(row) for row in rows}) > 1:
        raise ScenarioError(f"{label}: rows differ in length "
                            f"({', '.join(str(len(row)) for row in rows)})")
    return game.check_simplex(np.array(rows), label, shape, INTERIOR_FLOOR)


def _parse_floats(text: str) -> list[float]:
    """Comma-separated floats; an empty string is the empty list."""
    text = text.strip()
    return [float(v) for v in text.split(",")] if text else []


def _load_json(path: str, flag: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"{flag} {path}: {exc}") from exc


_ALL = ("simulate", "portrait", "verify", "sweep", "agents")
_STEPPED = ("simulate", "portrait", "sweep")

# Every flag once: the flag, the commands that take it, the manifest section
# its value is stored under, keyed by its argparse dest ("" for the top
# level, "policy" for the merge of --policy, --d and --y-star in this order,
# None for --manifest, the base that the other flags override), and its
# argparse options.
FLAGS: list[tuple[str, tuple[str, ...], str | None, dict[str, Any]]] = [
    ("--scenario", _ALL, "", {"help": "scenario JSON file"}),
    ("--out", _ALL, "", {"help": "output directory"}),
    ("--seed", _ALL, "", {"type": int, "help": "RNG seed (default 0)"}),
    ("--manifest", _ALL, None,
     {"help": "re-run from an echoed manifest.json"}),
    ("--policy", _ALL, "policy",
     {"help": "policy JSON file (y_star and optional d)"}),
    ("--d", _ALL, "policy", {"type": float, "help": (
        "average subsidy per agent (default 0, control off); "
        "sweep ignores it")}),
    ("--y-star", _ALL, "policy",
     {"type": _parse_floats, "help": "target output, comma separated"}),
    ("--x0", ("simulate", "portrait", "sweep", "agents"), "",
     {"action": "append", "help": "initial state (repeatable in portrait "
                                  "and sweep)"}),
    ("--grid", ("portrait", "sweep"), "",
     {"type": int, "help": "interior grid points per dim"}),
    ("--dt", _STEPPED, "integration", {"type": float}),
    ("--t-max", _STEPPED, "integration", {"type": float}),
    ("--record-stride", _STEPPED, "integration",
     {"type": int, "help": "record every k-th step; sweep ignores it"}),
    ("--grid-per-dim", ("verify",), "sampling", {"type": int}),
    ("--samples", ("verify",), "sampling",
     {"dest": "random_samples", "metavar": "SAMPLES", "type": int,
      "help": "random sample count"}),
    ("--ascent-iters", ("verify",), "sampling", {"type": int}),
    ("--d-values", ("sweep",), "",
     {"type": _parse_floats, "help": "comma-separated subsidy levels"}),
    ("--n-agents", ("agents",), "agents", {"type": int}),
    ("--rounds", ("agents",), "agents", {"type": int}),
    ("--revision-prob", ("agents",), "agents", {"type": float}),
    ("--sampled-matches", ("agents",), "agents",
     {"action": "store_true", "default": None}),
]


def _check_object(name: str, value: Any) -> Any:
    """``value`` if it is a JSON object or absent, else an input error."""
    if value is not None and not isinstance(value, dict):
        raise ScenarioError(f"{name} must be a JSON object, got {value!r}")
    return value


def _build_manifest(args: argparse.Namespace, command: str) -> dict[str, Any]:
    """Resolve CLI arguments (plus any --manifest base) into one manifest.

    A flag that is given, and not empty, overrides the base.
    """
    manifest = _load_json(args.manifest, "--manifest") if args.manifest else {}
    if not isinstance(manifest, dict):
        raise ScenarioError(f"--manifest {args.manifest}: expected a JSON "
                            f"object, got {type(manifest).__name__}")
    for section in ("integration", "sampling", "agents", "policy"):
        _check_object(section, manifest.get(section))
    if manifest.get("command") not in (None, command):
        raise ScenarioError(
            f"manifest was written for {manifest.get('command')!r}, "
            f"not {command!r}"
        )
    manifest["version"] = __version__
    manifest["command"] = command
    for section in ("integration", "sampling", "agents"):
        manifest[section] = dict(manifest.get(section) or {})
    policy = manifest.get("policy")
    for flag, _, section, options in FLAGS:
        key = options.get("dest", flag[2:].replace("-", "_"))
        value = getattr(args, key, None)
        if section is None or value in (None, ""):
            continue
        if section == "policy":
            policy = (_check_object(f"{flag} {value}", _load_json(value, flag))
                      if key == "policy" else {**(policy or {}), key: value})
        elif section:
            manifest[section][key] = value
        else:
            manifest[key] = value
    manifest["policy"] = policy
    for key in ("scenario", "out"):
        if key not in manifest:
            raise ScenarioError(f"--{key} is required")
        # open() would take an integer for a file descriptor
        if not isinstance(manifest[key], str):
            raise ScenarioError(
                f"{key} must be a path string, got {manifest[key]!r}")
    # refuse an --out that cannot become a directory before any work
    existing = os.path.abspath(manifest["out"])
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ScenarioError(
            f"--out {manifest['out']}: {existing} is not a directory")
    manifest.setdefault("seed", 0)
    return manifest


def _resolve(manifest: dict[str, Any]):
    """Load scenario/policy/config objects named by a manifest."""
    scenario = Scenario.from_file(manifest["scenario"])
    check_count("seed", manifest["seed"])
    policy_spec = manifest.get("policy")
    if policy_spec is None:
        policy = ControlPolicy.off(scenario.n_actions)
    else:
        try:
            policy = ControlPolicy.from_dict(policy_spec)
        except ValueError as exc:
            raise ScenarioError(f"policy: {exc}") from exc
        if policy.y_star.size != scenario.n_actions:
            raise ScenarioError(
                f"policy: y_star has {policy.y_star.size} entries, the "
                f"scenario has {scenario.n_actions} actions")
    try:
        cfg = IntegrationConfig(**(manifest.get("integration") or {}))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"integration config: {exc}") from exc
    return scenario, policy, cfg


def _provenance(manifest: dict[str, Any], scenario: Scenario) -> dict[str, str]:
    return {
        "artifact": f"replicator-ctl {__version__}",
        "seed": str(manifest.get("seed", 0)),
        "scenario_sha256": scenario_digest(scenario),
    }


def _echo_manifest(manifest: dict[str, Any]) -> None:
    os.makedirs(manifest["out"], exist_ok=True)
    _write_json(os.path.join(manifest["out"], "manifest.json"), manifest)


def _starts(manifest: dict[str, Any]) -> list[Any]:
    starts = manifest.get("x0") or []
    if not isinstance(starts, list):  # a string would parse char by char
        raise ScenarioError(f"x0 must be a list of strings, got {starts!r}")
    return starts


def _initial_states(manifest: dict[str, Any],
                    scenario: Scenario) -> list[np.ndarray]:
    states = [_parse_x0(text, scenario.payoffs.shape[:2])
              for text in _starts(manifest)]
    grid = manifest.get("grid")
    if grid is not None:
        check_count("grid", grid)
    if grid:
        states.extend(interior_grid(scenario, grid))
    if not states:
        raise ScenarioError("no initial states: pass --x0 and/or --grid")
    return states


def _single_start(manifest: dict[str, Any], scenario: Scenario) -> np.ndarray:
    starts = _starts(manifest)
    if len(starts) != 1:
        given = ", ".join(f"--x0 {text!r}" for text in starts)
        raise ScenarioError(f"{manifest['command']} needs exactly one --x0"
                            + (f", got {len(starts)}: {given}" if starts else ""))
    return _parse_x0(starts[0], scenario.payoffs.shape[:2])


def _observer_for(scenario: Scenario, policy: ControlPolicy):
    """A Lyapunov observer when the policy has a usable target, else None."""
    if policy.d <= 0.0:
        return None
    try:
        eq = unique_target_equilibrium(scenario, policy.y_star)
    except InapplicableError as exc:
        print(f"certificate dropped ({exc.reason}): no V columns are written",
              file=sys.stderr)
        return None
    return LyapunovObserver(eq, scenario)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(manifest: dict[str, Any]) -> int:
    scenario, policy, cfg = _resolve(manifest)
    x0 = _single_start(manifest, scenario)
    observer = _observer_for(scenario, policy)
    _echo_manifest(manifest)
    traj = simulate(scenario, policy, x0, cfg, observer=observer)
    prov = _provenance(manifest, scenario)
    out = manifest["out"]
    write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"), prov)
    summary: dict[str, Any] = {
        "provenance": prov,
        "converged": traj.converged,
        "t_end": float(traj.times[-1]),
        "limit_state": traj.final_state,
        "final_output": traj.final_output,
    }
    if traj.observables is not None:
        summary["final_V"] = float(traj.observables["V"][-1])
        summary["max_V_step_increase"] = traj.max_V_step_increase
    _write_json(os.path.join(out, "summary.json"), summary)
    return EXIT_OK


def _cmd_portrait(manifest: dict[str, Any]) -> int:
    scenario, policy, cfg = _resolve(manifest)
    states = _initial_states(manifest, scenario)
    observer = _observer_for(scenario, policy)
    _echo_manifest(manifest)
    results = phase_portrait(scenario, policy, states, cfg, observer=observer)
    prov = _provenance(manifest, scenario)
    out = manifest["out"]
    traj_dir = os.path.join(out, "trajectories")
    os.makedirs(traj_dir, exist_ok=True)
    entries = []
    any_failed = False
    for idx, outcome in enumerate(results):
        entry: dict[str, Any] = {"x0": states[idx]}
        if isinstance(outcome, Trajectory):
            name = f"traj_{idx:03d}.csv"
            write_trajectory_csv(outcome, os.path.join(traj_dir, name), prov)
            entry.update({
                "file": os.path.join("trajectories", name),
                "converged": outcome.converged,
                "t_end": float(outcome.times[-1]),
                "endpoint": outcome.final_state,
                "final_output": outcome.final_output,
            })
        else:
            any_failed = True
            entry["error"] = str(outcome)
        entries.append(entry)
    _write_json(os.path.join(out, "index.json"),
                {"provenance": prov, "trajectories": entries})
    return EXIT_NUMERIC if any_failed else EXIT_OK


def _cmd_verify(manifest: dict[str, Any]) -> int:
    scenario, policy, _ = _resolve(manifest)
    if manifest.get("policy") is None:
        raise ScenarioError("verify needs a target output (--policy/--y-star)")
    spec = manifest.get("sampling") or {}
    if "seed" in spec:
        raise ScenarioError("sampling config: seed must be the run's --seed, "
                            "not a sampling setting")
    try:
        sampling = SamplingConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"sampling config: {exc}") from exc
    try:
        report = recommend_subsidy(scenario, policy.y_star, sampling,
                                   manifest["seed"])
    except InapplicableError as exc:
        payload = {"applicable": False, "reason": exc.reason,
                   "detail": str(exc)}
        refusal = f"stabilization condition inapplicable: {exc}"
    else:
        payload = {**vars(report), "equilibria": [
            {"state": eq.state, "carriers": eq.carriers,
             "continuum_vertex": eq.continuum_vertex}
            for eq in report.equilibria]}
        refusal = (None if report.applicable
                   else f"no recommendation: {report.reason}")
    _echo_manifest(manifest)
    payload["provenance"] = _provenance(manifest, scenario)
    _write_json(os.path.join(manifest["out"], "report.json"), payload)
    if refusal:
        print(refusal, file=sys.stderr)
        return EXIT_INAPPLICABLE
    return EXIT_OK


def _cmd_sweep(manifest: dict[str, Any]) -> int:
    scenario, policy, cfg = _resolve(manifest)
    d_values = manifest.get("d_values")
    if d_values in (None, []):
        raise ScenarioError("sweep needs --d-values")
    if not isinstance(d_values, list):
        raise ScenarioError(f"d_values must be a list, got {d_values!r}")
    for value in d_values:
        check_real("d_values entry", value)
    if manifest.get("policy") is None:
        raise ScenarioError("sweep needs a target output (--policy/--y-star)")
    eq = unique_target_equilibrium(scenario, policy.y_star)
    states = np.array(_initial_states(manifest, scenario))
    # every gain in one batch, split only to fit the lattice byte budget;
    # record just the first and final states, the only ones read here
    cfg = dataclasses.replace(cfg, record_stride=cfg.n_steps)
    per_batch = max(1, game.LATTICE_BYTE_BUDGET // (states.size * 8))
    distances = []
    for lo in range(0, len(d_values), per_batch):
        results = phase_portrait(scenario, policy, states, cfg,
                                 gains=d_values[lo:lo + per_batch])
        distances += [np.max(np.abs(outcome.final_state - eq.state))
                      if isinstance(outcome, Trajectory) else np.inf
                      for outcome in results]
    rows = [(float(d), float(np.mean(dist <= ENDPOINT_TOL)), float(dist.max()))
            for d, dist in zip(d_values, np.reshape(distances,
                                                    (-1, len(states))))]
    _echo_manifest(manifest)
    _write_csv(os.path.join(manifest["out"], "sweep.csv"),
               _provenance(manifest, scenario),
               ["d", "fraction_converged", "max_final_distance"], rows)
    return EXIT_OK


def _cmd_agents(manifest: dict[str, Any]) -> int:
    scenario, policy, _ = _resolve(manifest)
    agent_cfg = manifest.get("agents") or {}
    n_agents = agent_cfg.get("n_agents", 0)
    rounds = agent_cfg.get("rounds", 0)
    check_count("n_agents", n_agents)
    check_count("rounds", rounds)
    if n_agents == 0 or rounds == 0:
        raise ScenarioError("agents needs --n-agents and --rounds")
    revision_prob = agent_cfg.get("revision_prob", agents.REVISION_PROB)
    check_real("revision_prob", revision_prob)
    revision_prob = float(revision_prob)
    sampled_matches = agent_cfg.get("sampled_matches", False)
    if not isinstance(sampled_matches, bool):
        raise ValueError(
            f"sampled_matches must be true or false, got {sampled_matches!r}")
    x0 = _single_start(manifest, scenario)
    pop = init_agents(scenario, x0, n_agents, seed=manifest["seed"])
    # refuses a bad revision_prob before anything is written
    run_rounds(pop, scenario, policy, 0, revision_prob)
    dt_round = round_time_step(scenario, policy, revision_prob)
    horizon = rounds * dt_round
    ode_cfg = IntegrationConfig(dt=dt_round, t_max=horizon + 1e-12,
                                convergence_window=10 ** 9,
                                record_stride=1)
    reference = simulate(scenario, policy, x0, ode_cfg)
    _echo_manifest(manifest)
    prov = _provenance(manifest, scenario)
    out = manifest["out"]
    series = run_rounds(pop, scenario, policy, rounds,
                        revision_prob, sampled_matches)
    write_rounds_csv(series, os.path.join(out, "rounds.csv"), prov)
    empirical = np.array([s.empirical_output for s in series])
    length = min(empirical.shape[0], reference.outputs.shape[0])
    deviation = np.abs(empirical[:length] - reference.outputs[:length])
    _write_json(os.path.join(out, "summary.json"), {
        "provenance": prov,
        "rounds": rounds,
        "n_agents": n_agents,
        "revision_prob": revision_prob,
        "mean_field_dt_per_round": dt_round,
        "horizon_t": horizon,
        "sup_output_deviation": float(deviation.max()),
        "max_imitation_gap": max(s.imitation_gap for s in series),
        "final_empirical_output": series[-1].empirical_output,
        "final_ode_output": reference.outputs[length - 1],
    })
    return EXIT_OK


_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate one trajectory"),
    "portrait": (_cmd_portrait, "integrate a batch of starts"),
    "verify": (_cmd_verify, "stabilization report for a target"),
    "sweep": (_cmd_sweep, "convergence fraction per subsidy level"),
    "agents": (_cmd_agents, "finite-population run"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="replicator-ctl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"replicator-ctl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for flag, commands, _, options in FLAGS:
            if command in commands:
                sub.add_argument(flag, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        manifest = _build_manifest(args, args.command)
        return _COMMANDS[args.command][0](manifest)
    except (ScenarioError, ValueError, OSError) as exc:
        # an OSError here is an unusable --out: its text names the path
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InapplicableError as exc:
        print(f"stabilization condition inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except EmptyActionGroupError as exc:
        print(f"agent-simulation assumption violated: {exc}", file=sys.stderr)
        return EXIT_AGENT_ASSUMPTION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
