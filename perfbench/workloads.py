"""Benchmark workloads: inputs drawn from a seed, command lines, output checks.

Each workload writes its own inputs into a fresh directory (the repository
ships no ``examples/``), names the ``replicator-ctl`` arguments that run it,
and checks one output directory of that command.  The check returns the
problems it found and the work the command did, in the unit that the
workload's throughput is quoted in:

* ``portrait-io`` and ``sweep-batch``: member-steps, one RK4 step of one
  start (``member_steps_per_s``);
* ``verify-3x3``: critical-subsidy evaluations, grid + random + ascent
  (``bound_states_per_s``);
* ``agents-mc``: agents x rounds (``agent_rounds_per_s``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# The paper's three-population, two-action scenario and its digest; the
# digest pins the workload so that a later examples/ file cannot change it.
THREEPOP_PAYOFFS = [
    [[2.0, 1.0], [3.0, 4.0]],
    [[3.0, 1.0], [2.0, 4.0]],
    [[3.0, 4.0], [1.0, 2.0]],
]
THREEPOP_SHARES = [0.2, 0.3, 0.5]
THREEPOP_DIGEST = (
    "e5bac24b13bb61772cfae1be453afb172deb219ae347c9faaba1ad1bd36ff011"
)
POLICY_BOUNDARY = {"d": 1.2, "y_star": [1.0, 0.0]}

# The five reference starts, as first-action shares per population.
REFERENCE_STARTS = [
    (0.01, 0.01, 0.01),
    (0.01, 0.99, 0.01),
    (0.99, 0.01, 0.01),
    (0.99, 0.99, 0.01),
    (0.5, 0.5, 0.01),
]

DT = "0.05"                 # passed explicitly, so step counts are t_end / dt
ENDPOINT_TOL = 1e-3         # the CLI's "converged to the target" distance
AGENT_DEVIATION_TOL = 0.05  # criterion 8's continuum-agreement threshold

# Exclusions of the CLI's critical-subsidy estimate (SamplingConfig defaults).
TUBE_RADIUS = 1e-6
BOUNDARY_MARGIN = 1e-6
REFERENCE_SAMPLES = 20_000


def scenario_dict(payoffs, shares) -> dict[str, Any]:
    return {"populations": [{"share": float(v), "payoff": np.asarray(a).tolist()}
                            for v, a in zip(shares, payoffs)]}


def canonical_digest(raw: dict[str, Any]) -> str:
    """SHA-256 of a scenario's canonical JSON, as the CLI's provenance has it."""
    text = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_json(path: Path, payload: Any) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return str(path)


def read_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def jittered_starts(rng: np.random.Generator, per_axis: int,
                    low: float = 0.02, high: float = 0.98) -> list[str]:
    """One uniform start per cell of a per_axis^3 grid over the interior.

    Stratifying keeps the total work of a batch close across seeds while
    every seed still draws different starts.
    """
    width = (high - low) / per_axis
    cells = np.stack(np.meshgrid(*[np.arange(per_axis)] * 3, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    points = low + (cells + rng.random(cells.shape)) * width
    return [",".join(repr(float(v)) for v in point) for point in points]


def x0_args(starts: list[str]) -> list[str]:
    args: list[str] = []
    for start in starts:
        args += ["--x0", start]
    return args


@dataclass
class Case:
    """One workload's generated inputs and everything its check needs."""

    workload: str
    argv: list[str]
    digest: str
    expect: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    throughput: str         # what work_per_s is on this workload
    prepare: Callable[[int, Path], Case]
    check: Callable[[Case, Path], tuple[list[str], float]]


def _threepop_files(workdir: Path) -> tuple[str, str]:
    raw = scenario_dict(THREEPOP_PAYOFFS, THREEPOP_SHARES)
    digest = canonical_digest(raw)
    if digest != THREEPOP_DIGEST:
        raise RuntimeError(f"three-population scenario digest {digest} "
                           f"is not the canonical {THREEPOP_DIGEST}")
    scenario = write_json(workdir / "threepop.json", raw)
    policy = write_json(workdir / "policy_boundary.json", POLICY_BOUNDARY)
    return scenario, policy


def _provenance_problems(found: str | None, case: Case, where: str) -> list[str]:
    if found != case.digest:
        return [f"{where}: scenario_sha256 {found!r} != {case.digest}"]
    return []


def _csv_provenance(path: Path) -> dict[str, str]:
    header: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].rstrip("\n").partition(": ")
            header[key] = value
    return header


# ---------------------------------------------------------------------------
# portrait-io
# ---------------------------------------------------------------------------

def prepare_portrait(seed: int, workdir: Path) -> Case:
    scenario, policy = _threepop_files(workdir)
    rng = np.random.default_rng([seed, 1])
    starts = [",".join(repr(v) for v in z) for z in REFERENCE_STARTS]
    starts += jittered_starts(rng, 2)
    argv = ["portrait", "--scenario", scenario, "--policy", policy,
            "--dt", DT, *x0_args(starts)]
    return Case("portrait-io", argv, THREEPOP_DIGEST,
                {"n_starts": len(starts), "y_star": POLICY_BOUNDARY["y_star"]})


def check_portrait(case: Case, out: Path) -> tuple[list[str], float]:
    index = read_json(out / "index.json")
    problems = _provenance_problems(
        index["provenance"]["scenario_sha256"], case, "index.json")
    entries = index["trajectories"]
    if len(entries) != case.expect["n_starts"]:
        problems.append(f"{len(entries)} trajectories, expected "
                        f"{case.expect['n_starts']}")
    y_star = np.array(case.expect["y_star"])
    steps = 0
    for idx, entry in enumerate(entries):
        if "error" in entry or not entry.get("converged"):
            problems.append(f"trajectory {idx} did not converge: {entry}")
            continue
        gap = float(np.max(np.abs(np.array(entry["final_output"]) - y_star)))
        if gap > ENDPOINT_TOL:
            problems.append(f"trajectory {idx} ends {gap!r} from y*")
        path = out / entry["file"]
        if not path.is_file():
            problems.append(f"missing {entry['file']}")
            continue
        problems += _provenance_problems(
            _csv_provenance(path).get("scenario_sha256"), case, entry["file"])
        steps += round(entry["t_end"] / float(DT))
    return problems, float(steps)


# ---------------------------------------------------------------------------
# sweep-batch
# ---------------------------------------------------------------------------

SWEEP_D_VALUES = "0.6,1.2"
SWEEP_GRID = 5


def prepare_sweep(seed: int, workdir: Path) -> Case:
    scenario, policy = _threepop_files(workdir)
    rng = np.random.default_rng([seed, 2])
    starts = jittered_starts(rng, 2)
    argv = ["sweep", "--scenario", scenario, "--policy", policy,
            "--d-values", SWEEP_D_VALUES, "--grid", str(SWEEP_GRID),
            "--record-stride", "20000", "--dt", DT, *x0_args(starts)]
    return Case("sweep-batch", argv, THREEPOP_DIGEST,
                {"scenario": scenario, "starts": starts})


def sweep_reference(case: Case) -> tuple[list[tuple[float, float, float]], int]:
    """Recompute sweep.csv in-process through the library, with step counts.

    sweep.csv reports no step counts, so the member-steps behind
    ``member_steps_per_s`` come from this run of the same batches.
    """
    from replicator_ctl import (ControlPolicy, IntegrationConfig, Scenario,
                                Trajectory, interior_grid, phase_portrait)
    from replicator_ctl.stability import unique_target_equilibrium

    scenario = Scenario.from_file(case.expect["scenario"])
    y_star = np.array(POLICY_BOUNDARY["y_star"])
    cfg = IntegrationConfig(dt=float(DT), record_stride=20000)
    states = [np.stack([z, 1.0 - z], axis=1)
              for z in (np.array([float(v) for v in s.split(",")])
                        for s in case.expect["starts"])]
    states += list(interior_grid(scenario, SWEEP_GRID))
    eq = unique_target_equilibrium(scenario, y_star)
    rows = []
    steps = 0
    for d in (float(v) for v in SWEEP_D_VALUES.split(",")):
        results = phase_portrait(scenario, ControlPolicy(y_star=y_star, d=d),
                                 states, cfg)
        distances = []
        for outcome in results:
            if isinstance(outcome, Trajectory):
                distances.append(float(np.max(np.abs(outcome.final_state
                                                     - eq.state))))
                steps += round(float(outcome.times[-1]) / cfg.dt)
            else:
                distances.append(math.inf)
        distances_arr = np.array(distances)
        rows.append((d, float(np.mean(distances_arr <= ENDPOINT_TOL)),
                     float(distances_arr.max())))
    return rows, steps


def check_sweep(case: Case, out: Path) -> tuple[list[str], float]:
    path = out / "sweep.csv"
    problems = _provenance_problems(
        _csv_provenance(path).get("scenario_sha256"), case, "sweep.csv")
    with open(path, "r", encoding="utf-8") as handle:
        rows = [(float(r["d"]), float(r["fraction_converged"]),
                 float(r["max_final_distance"]))
                for r in csv.DictReader(line for line in handle
                                        if not line.startswith("#"))]
    for d, fraction, distance in rows:
        if not math.isfinite(distance):
            problems.append(f"d={d}: max_final_distance {distance!r}")
        if d == 1.2 and fraction != 1.0:
            problems.append(f"d=1.2: fraction_converged {fraction!r} != 1.0")
    reference, steps = sweep_reference(case)
    if len(rows) != len(reference):
        problems.append(f"{len(rows)} sweep rows, expected {len(reference)}")
    for got, want in zip(rows, reference):
        if (got[0] != want[0] or got[1] != want[1]
                or not abs(got[2] - want[2]) <= 1e-9):
            problems.append(f"sweep row {got} != library {want}")
    return problems, float(steps)


# ---------------------------------------------------------------------------
# verify-3x3
# ---------------------------------------------------------------------------

VERIFY_GRID_PER_DIM = 10
VERTEX_TARGET = [1.0, 0.0, 0.0]


def random_scenario(rng: np.random.Generator, m: int, n: int) -> dict[str, Any]:
    """Payoffs uniform on [-5, 5], shares kept away from 0 and 1."""
    payoffs = rng.uniform(-5.0, 5.0, size=(m, n, n))
    raw = rng.dirichlet(np.ones(m))
    shares = (raw + 0.05) / (1.0 + 0.05 * m)
    return scenario_dict(payoffs, shares)


def critical_subsidy(payoffs: np.ndarray, shares: np.ndarray,
                     states: np.ndarray) -> np.ndarray:
    """-F1/F2 for the vertex target y* = e_0, NaN inside the exclusions.

    With a vertex target the target equilibrium has every population on
    action 0, so F1 = sum_k v^k (A^k_0 y - x^k A^k y) and
    F2 = (1 - y_0) / y_0.
    """
    outputs = np.einsum("k,bki->bi", shares, states)
    payoffs_at_y = np.einsum("kij,bj->bki", payoffs, outputs)
    advantage = np.einsum("k,bk->b", shares,
                          payoffs_at_y[:, :, 0]
                          - np.einsum("bki,bki->bk", states, payoffs_at_y))
    y0 = outputs[:, 0]
    off_tube = np.max(np.abs(outputs - np.array(VERTEX_TARGET)), axis=1) \
        >= TUBE_RADIUS
    valid = off_tube & (y0 >= BOUNDARY_MARGIN)
    with np.errstate(divide="ignore", invalid="ignore"):
        mismatch = (1.0 - y0) / y0
        return np.where(valid & (mismatch > 1e-12), -advantage / mismatch,
                        np.nan)


def prepare_verify(seed: int, workdir: Path) -> Case:
    rng = np.random.default_rng([seed, 3])
    raw = random_scenario(rng, 3, 3)
    scenario = write_json(workdir / "scenario_3x3.json", raw)
    policy = write_json(workdir / "policy_vertex.json",
                        {"d": 1.0, "y_star": VERTEX_TARGET})
    argv = ["verify", "--scenario", scenario, "--policy", policy,
            "--grid-per-dim", str(VERIFY_GRID_PER_DIM), "--seed", str(seed)]
    return Case("verify-3x3", argv, canonical_digest(raw),
                {"raw": raw, "seed": seed})


def check_verify(case: Case, out: Path) -> tuple[list[str], float]:
    report = read_json(out / "report.json")
    problems = _provenance_problems(
        report["provenance"]["scenario_sha256"], case, "report.json")
    if not (report.get("applicable") and report.get("unique")):
        return problems + [f"report not applicable and unique: "
                           f"{report.get('reason')!r}"], 0.0
    bound = report["subsidy_bound"]
    if not report["recommended_subsidy"] >= bound:
        problems.append(f"recommended_subsidy {report['recommended_subsidy']!r}"
                        f" < subsidy_bound {bound!r}")
    raw = case.expect["raw"]
    payoffs = np.array([p["payoff"] for p in raw["populations"]])
    shares = np.array([p["share"] for p in raw["populations"]])
    at_argmax = critical_subsidy(payoffs, shares,
                                 np.array([report["bound_argmax"]]))[0]
    if not abs(at_argmax - bound) <= 1e-6 * max(1.0, abs(bound)):
        problems.append(f"critical subsidy at bound_argmax {at_argmax!r} "
                        f"!= subsidy_bound {bound!r}")
    # an independent sample of the same size as the CLI's random phase; a
    # sampler that finds less than this has weakened the estimate
    rng = np.random.default_rng([case.expect["seed"], 4])
    sample = rng.dirichlet(np.ones(3), size=(REFERENCE_SAMPLES, 3))
    reference = float(np.nanmax(critical_subsidy(payoffs, shares, sample)))
    if not bound >= reference - 1e-9 * max(1.0, abs(reference)):
        problems.append(f"subsidy_bound {bound!r} below an independent "
                        f"sample's {reference!r}")
    counts = report["sample_counts"]
    work = counts["grid"] + counts["random"] + counts["ascent_evals"]
    return problems, float(work)


# ---------------------------------------------------------------------------
# agents-mc
# ---------------------------------------------------------------------------

N_AGENTS = 100_000
ROUNDS = 1_000


def prepare_agents(seed: int, workdir: Path) -> Case:
    scenario, policy = _threepop_files(workdir)
    argv = ["agents", "--scenario", scenario, "--policy", policy,
            "--x0", "0.5,0.5,0.5", "--n-agents", str(N_AGENTS),
            "--rounds", str(ROUNDS), "--seed", str(seed)]
    return Case("agents-mc", argv, THREEPOP_DIGEST)


def check_agents(case: Case, out: Path) -> tuple[list[str], float]:
    summary = read_json(out / "summary.json")
    problems = _provenance_problems(
        summary["provenance"]["scenario_sha256"], case, "summary.json")
    deviation = summary["sup_output_deviation"]
    if not deviation < AGENT_DEVIATION_TOL:
        problems.append(f"sup_output_deviation {deviation!r} >= "
                        f"{AGENT_DEVIATION_TOL}")
    if (summary["rounds"], summary["n_agents"]) != (ROUNDS, N_AGENTS):
        problems.append(f"ran {summary['rounds']} rounds of "
                        f"{summary['n_agents']} agents")
    with open(out / "rounds.csv", "r", encoding="utf-8") as handle:
        data_rows = sum(1 for line in handle if line[0].isdigit())
    if data_rows != ROUNDS + 1:
        problems.append(f"rounds.csv has {data_rows} rows, expected "
                        f"{ROUNDS + 1}")
    return problems, float(N_AGENTS * ROUNDS)


WORKLOADS = {w.name: w for w in (
    Workload("portrait-io",
             "5 reference + 8 seeded starts at dt 0.05 and stride 1: every "
             "step is recorded and written as CSV, so recording, reassembly "
             "and the CSV writer carry much of the time",
             "member_steps_per_s", prepare_portrait, check_portrait),
    Workload("sweep-batch",
             "two gains over a 5^3 grid + 8 seeded starts at dt 0.05, "
             "endpoints only: the batched RK4 loop and the field kernel "
             "dominate, the CSV writer is bypassed",
             "member_steps_per_s", prepare_sweep, check_sweep),
    Workload("verify-3x3",
             "seeded random (3,3) scenario, vertex target, 10-point lattice: "
             "lattice build, batch bound evaluation and ascent of "
             "stability; no integration",
             "bound_states_per_s", prepare_verify, check_verify),
    Workload("agents-mc",
             "1e5 agents x 1000 rounds plus the B=1 mean-field reference: "
             "the only agents workload, and integrate with one member and "
             "no convergence stop",
             "agent_rounds_per_s", prepare_agents, check_agents),
)}
