"""Command-line front end: ``replicator-ctl``.

Subcommands
-----------
simulate   one trajectory -> trajectory.csv + summary.json
portrait   batch of initial states -> trajectories/*.csv + index.json
verify     stabilization report for a target output -> report.json
sweep      convergence fraction across subsidy levels -> sweep.csv
agents     finite-population run -> rounds.csv + summary.json

Every run echoes a ``manifest.json`` into the output directory; re-running
with ``--manifest`` reproduces the data files byte for byte (outputs carry
no timestamps, floats are written in shortest round-trip form).  Every
output file names the artifact version, the seed, and the scenario hash.

Scenario schema:  ``{"populations": [{"share": v, "payoff": [[...], ...]},
...]}``.  Policy schema: ``{"d": gain, "y_star": [shares...]}``; omitting
the policy (or setting d to 0) runs the uncontrolled dynamics.

Initial states are given as ``--x0``: either m comma-separated first-action
shares (two-action games), or m semicolon-separated rows of n shares.

Exit codes: 0 success, 1 input error, 2 numeric failure, 3 stabilization
condition inapplicable, 4 finite-population assumption violated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__, game
from .agents import (
    EmptyActionGroupError,
    init_agents,
    round_time_step,
    run as run_rounds,
    write_rounds_csv,
)
from .dynamics import ControlPolicy
from .game import (Scenario, ScenarioError, check_lattice_budget,
                   scenario_digest)
from .integrate import (
    IntegrationConfig,
    IntegrationError,
    Trajectory,
    interior_grid,
    phase_portrait,
    simulate,
    write_trajectory_csv,
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


def _parse_x0(text: str, m: int, n: int) -> np.ndarray:
    try:
        if ";" in text:
            rows = [[float(v) for v in row.split(",")]
                    for row in text.split(";")]
            state = np.array(rows, dtype=float)
        else:
            values = np.array([float(v) for v in text.split(",")])
            if values.shape == (m * n,):
                state = values.reshape(m, n)
            elif values.shape == (m,) and n == 2:
                state = np.stack([values, 1.0 - values], axis=1)
            else:
                raise ValueError(
                    f"expected {m} first-action shares or {m}x{n} values"
                )
    except ValueError as exc:
        raise ScenarioError(f"--x0 {text!r}: {exc}") from exc
    if state.shape != (m, n):
        raise ScenarioError(
            f"--x0 {text!r}: expected shape ({m}, {n}), got {state.shape}"
        )
    return state


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _load_manifest(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"--manifest {path}: {exc}") from exc


def _build_manifest(args: argparse.Namespace, command: str) -> dict[str, Any]:
    """Resolve CLI arguments (plus any --manifest base) into one manifest."""
    manifest: dict[str, Any] = {}
    if getattr(args, "manifest", None):
        manifest = _load_manifest(args.manifest)
        if manifest.get("command") not in (None, command):
            raise ScenarioError(
                f"manifest was written for {manifest.get('command')!r}, "
                f"not {command!r}"
            )
    manifest["version"] = __version__
    manifest["command"] = command
    if getattr(args, "scenario", None):
        manifest["scenario"] = args.scenario
    if "scenario" not in manifest:
        raise ScenarioError("--scenario is required")
    if getattr(args, "out", None):
        manifest["out"] = args.out
    if "out" not in manifest:
        raise ScenarioError("--out is required")
    if getattr(args, "seed", None) is not None:
        manifest["seed"] = args.seed
    manifest.setdefault("seed", 0)

    policy = manifest.get("policy")
    if getattr(args, "policy", None):
        try:
            with open(args.policy, "r", encoding="utf-8") as handle:
                policy = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"--policy {args.policy}: {exc}") from exc
    if getattr(args, "d", None) is not None:
        policy = dict(policy or {})
        policy["d"] = args.d
    if getattr(args, "y_star", None):
        policy = dict(policy or {})
        policy["y_star"] = _parse_floats(args.y_star)
    manifest["policy"] = policy

    integration = dict(manifest.get("integration") or {})
    for key in ("dt", "t_max", "record_stride"):
        value = getattr(args, key, None)
        if value is not None:
            integration[key] = value
    manifest["integration"] = integration

    sampling = dict(manifest.get("sampling") or {})
    for arg_key, cfg_key in (("grid_per_dim", "grid_per_dim"),
                             ("samples", "random_samples"),
                             ("ascent_iters", "ascent_iters"),
                             ("matching_samples", "matching_samples")):
        value = getattr(args, arg_key, None)
        if value is not None:
            sampling[cfg_key] = value
    manifest["sampling"] = sampling

    agent_cfg = dict(manifest.get("agents") or {})
    for key in ("n_agents", "rounds", "revision_prob"):
        value = getattr(args, key, None)
        if value is not None:
            agent_cfg[key] = value
    if getattr(args, "sampled_matches", False):
        agent_cfg["sampled_matches"] = True
    manifest["agents"] = agent_cfg

    if getattr(args, "x0", None):
        manifest["x0"] = args.x0
    if getattr(args, "grid", None) is not None:
        manifest["grid"] = args.grid
    if getattr(args, "d_values", None) is not None:
        text = args.d_values.strip()
        manifest["d_values"] = _parse_floats(text) if text else []
    return manifest


def _resolve(manifest: dict[str, Any]):
    """Load scenario/policy/config objects named by a manifest."""
    scenario = Scenario.from_file(manifest["scenario"])
    policy_spec = manifest.get("policy")
    if policy_spec is None:
        policy = ControlPolicy.off(scenario.n_actions)
    else:
        try:
            policy = ControlPolicy.from_dict(policy_spec)
        except ValueError as exc:
            raise ScenarioError(f"policy: {exc}") from exc
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


def _initial_states(manifest: dict[str, Any], scenario: Scenario,
                    cfg: IntegrationConfig) -> list[np.ndarray]:
    m, n = scenario.n_populations, scenario.n_actions
    states: list[np.ndarray] = []
    for text in manifest.get("x0") or []:
        states.append(_parse_x0(text, m, n))
    if manifest.get("grid"):
        states.extend(interior_grid(scenario, int(manifest["grid"])))
    if not states:
        raise ScenarioError("no initial states: pass --x0 and/or --grid")
    return states


def _observer_for(scenario: Scenario, policy: ControlPolicy):
    """Attach a Lyapunov observer when the policy has a usable target."""
    if policy.d <= 0.0:
        return None, None
    try:
        eq = unique_target_equilibrium(scenario, policy.y_star)
    except InapplicableError:
        return None, None
    return LyapunovObserver(eq, scenario), eq


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(manifest: dict[str, Any]) -> int:
    scenario, policy, cfg = _resolve(manifest)
    if not manifest.get("x0"):
        raise ScenarioError("simulate needs exactly one --x0")
    x0 = _parse_x0(manifest["x0"][0], scenario.n_populations,
                   scenario.n_actions)
    observer, _ = _observer_for(scenario, policy)
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
    if traj.lyapunov is not None:
        summary["final_V"] = traj.lyapunov.final_value
        summary["max_V_step_increase"] = traj.lyapunov.max_step_increase
    _write_json(os.path.join(out, "summary.json"), summary)
    return EXIT_OK


def _cmd_portrait(manifest: dict[str, Any]) -> int:
    scenario, policy, cfg = _resolve(manifest)
    states = _initial_states(manifest, scenario, cfg)
    observer, _ = _observer_for(scenario, policy)
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
    sampling_spec = dict(manifest.get("sampling") or {})
    sampling_spec.setdefault("seed", int(manifest.get("seed", 0)))
    try:
        sampling = SamplingConfig(**sampling_spec)
    except TypeError as exc:
        raise ScenarioError(f"sampling config: {exc}") from exc
    # refuse an oversized lattice before the equilibrium search runs
    check_lattice_budget(scenario.n_populations, scenario.n_actions,
                         sampling.grid_per_dim)
    _echo_manifest(manifest)
    prov = _provenance(manifest, scenario)
    out = manifest["out"]
    try:
        report = recommend_subsidy(scenario, policy.y_star, sampling)
    except InapplicableError as exc:
        _write_json(os.path.join(out, "report.json"), {
            "provenance": prov,
            "applicable": False,
            "reason": exc.reason,
            "detail": str(exc),
        })
        print(f"stabilization condition inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    payload = report.to_dict()
    payload["provenance"] = prov
    _write_json(os.path.join(out, "report.json"), payload)
    if not report.applicable:
        print(f"no recommendation: {report.reason}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    return EXIT_OK


def _cmd_sweep(manifest: dict[str, Any]) -> int:
    scenario, policy, cfg = _resolve(manifest)
    d_values = manifest.get("d_values")
    if d_values is None:
        raise ScenarioError("sweep needs --d-values")
    if manifest.get("policy") is None:
        raise ScenarioError("sweep needs a target output (--policy/--y-star)")
    eq = unique_target_equilibrium(scenario, policy.y_star)
    states = np.array(_initial_states(manifest, scenario, cfg))
    _echo_manifest(manifest)
    prov = _provenance(manifest, scenario)
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
    path = os.path.join(manifest["out"], "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for key, value in prov.items():
            handle.write(f"# {key}: {value}\n")
        handle.write("d,fraction_converged,max_final_distance\n")
        for d, fraction, dist in rows:
            handle.write(f"{d!r},{fraction!r},{dist!r}\n")
    return EXIT_OK


def _cmd_agents(manifest: dict[str, Any]) -> int:
    scenario, policy, cfg = _resolve(manifest)
    agent_cfg = manifest.get("agents") or {}
    n_agents = int(agent_cfg.get("n_agents", 0))
    rounds = int(agent_cfg.get("rounds", 0))
    if n_agents <= 0 or rounds <= 0:
        raise ScenarioError("agents needs --n-agents and --rounds")
    revision_prob = float(agent_cfg.get("revision_prob", 0.05))
    sampled_matches = bool(agent_cfg.get("sampled_matches", False))
    if not manifest.get("x0"):
        raise ScenarioError("agents needs exactly one --x0")
    x0 = _parse_x0(manifest["x0"][0], scenario.n_populations,
                   scenario.n_actions)
    _echo_manifest(manifest)
    prov = _provenance(manifest, scenario)
    out = manifest["out"]
    try:
        pop = init_agents(scenario, x0, n_agents,
                          seed=int(manifest.get("seed", 0)))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    series = run_rounds(pop, scenario, policy, rounds,
                        revision_prob, sampled_matches)
    write_rounds_csv(series, os.path.join(out, "rounds.csv"), prov)

    dt_round = round_time_step(scenario, policy, revision_prob)
    horizon = rounds * dt_round
    ode_cfg = IntegrationConfig(dt=dt_round, t_max=horizon + 1e-12,
                                convergence_window=10 ** 9,
                                record_stride=1,
                                interior_floor=cfg.interior_floor)
    reference = simulate(scenario, policy, x0, ode_cfg)
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
        "final_empirical_output": series[-1].empirical_output,
        "final_ode_output": reference.outputs[length - 1],
    })
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "portrait": _cmd_portrait,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "agents": _cmd_agents,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", help="scenario JSON file")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sub.add_argument("--manifest", help="re-run from an echoed manifest.json")
    sub.add_argument("--policy", help="policy JSON file (d, y_star)")
    sub.add_argument("--d", type=float, help="average subsidy per agent")
    sub.add_argument("--y-star", dest="y_star",
                     help="target output, comma separated")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="replicator-ctl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"replicator-ctl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="integrate one trajectory")
    _add_common(sim)
    sim.add_argument("--x0", action="append", help="initial state")
    sim.add_argument("--dt", type=float)
    sim.add_argument("--t-max", dest="t_max", type=float)
    sim.add_argument("--record-stride", dest="record_stride", type=int)

    por = subs.add_parser("portrait", help="integrate a batch of starts")
    _add_common(por)
    por.add_argument("--x0", action="append", help="initial state (repeatable)")
    por.add_argument("--grid", type=int, help="interior grid points per dim")
    por.add_argument("--dt", type=float)
    por.add_argument("--t-max", dest="t_max", type=float)
    por.add_argument("--record-stride", dest="record_stride", type=int)

    ver = subs.add_parser("verify", help="stabilization report for a target")
    _add_common(ver)
    ver.add_argument("--grid-per-dim", dest="grid_per_dim", type=int)
    ver.add_argument("--samples", type=int, help="random sample count")
    ver.add_argument("--ascent-iters", dest="ascent_iters", type=int)
    ver.add_argument("--matching-samples", dest="matching_samples", type=int)

    swp = subs.add_parser("sweep", help="convergence fraction per subsidy level")
    _add_common(swp)
    swp.add_argument("--d-values", dest="d_values",
                     help="comma-separated subsidy levels")
    swp.add_argument("--x0", action="append")
    swp.add_argument("--grid", type=int)
    swp.add_argument("--dt", type=float)
    swp.add_argument("--t-max", dest="t_max", type=float)
    swp.add_argument("--record-stride", dest="record_stride", type=int)

    agt = subs.add_parser("agents", help="finite-population run")
    _add_common(agt)
    agt.add_argument("--x0", action="append")
    agt.add_argument("--n-agents", dest="n_agents", type=int)
    agt.add_argument("--rounds", type=int)
    agt.add_argument("--revision-prob", dest="revision_prob", type=float)
    agt.add_argument("--sampled-matches", dest="sampled_matches",
                     action="store_true")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        manifest = _build_manifest(args, args.command)
        return _HANDLERS[args.command](manifest)
    except (ScenarioError, ValueError) as exc:
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
