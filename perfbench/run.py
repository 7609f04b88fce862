"""Benchmark of the replicator-ctl command line, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload portrait-io --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads in turn, each ending with its
own JSON line.

``--trace 0`` runs the workload's command as a ``replicator-ctl`` child
process, one at a time, as often as fits in ``--seconds`` (at least three
times after one warm-up run), with a ``replicator-ctl --version`` run that
times set-up after every second one.  The benchmark and its children are
pinned to one CPU, and every time is taken at reference speed: less the
time of a calibration loop that samples the CPU's speed during the run,
divided by the CPU's slowness over the run (see speed.py).  It checks the
outputs of every run and prints the end-to-end metrics of BENCHMARK.json,
each a median over the runs:

* ``wall_s``: time of one command process, at reference speed;
* ``setup_s``: time of ``replicator-ctl --version``, that is,
  interpreter start, imports and argparse, at reference speed;
* ``peak_rss_mb``: the child's peak RSS, from ``os.wait4`` on that child;
* ``out_mb``: bytes the command wrote, in units of 1e6;
* ``work_per_s``: the workload's work divided by the command's time; it is
  ``member_steps_per_s`` on portrait-io and sweep-batch,
  ``bound_states_per_s`` on verify-3x3 and ``agent_rounds_per_s`` on
  agents-mc.

``--trace 1`` replays the same command in this process through
``replicator_ctl.cli.main``: three times untraced, then once with spans around
the calls into each layer (see spans.py), and prints the per-layer metrics.
The spans are written to ``.perfbench/trace-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A command run counts
as failed when it exits non-zero, when its data files differ from the first
run's, or when the workload's output check fails.  The program is taken
from ``src/`` of the checkout; without it the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import speed
from workloads import WORKLOADS, Case

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

MIN_RUNS = 3                # timed command runs, after one warm-up run
UNTRACED_INPROCESS_RUNS = 3
DEADLINE_S = 150.0          # every child is killed by then


@dataclasses.dataclass
class Outcome:
    """One command run: exit code, wall time, peak RSS, data-file digests."""

    code: int
    wall_s: float
    start_s: float = 0.0        # time.perf_counter() at the start
    rss_bytes: int = 0
    digests: dict[str, str] = dataclasses.field(default_factory=dict)
    out_bytes: int = 0
    log: str = ""


def tree_digests(out: Path) -> tuple[dict[str, str], int]:
    """SHA-256 of every file under out, keyed by relative path; total bytes."""
    digests: dict[str, str] = {}
    size = 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args: list[str], log: Path, deadline: float) -> Outcome:
    """Run ``replicator-ctl args`` as a child and reap it with os.wait4.

    The child is killed if it is still running at the deadline
    (a time.monotonic value).
    """
    argv = [sys.executable, "-m", "replicator_ctl.cli", *args]
    with open(log, "wb") as handle:
        actions = [(os.POSIX_SPAWN_DUP2, handle.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, handle.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, _child_env(),
                             file_actions=actions)

        def kill(signum, frame):
            os.kill(pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL,
                         max(0.001, deadline - time.monotonic()))
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    return Outcome(code=os.waitstatus_to_exitcode(status), wall_s=wall,
                   start_s=start,
                   rss_bytes=usage.ru_maxrss * 1024,
                   log=log.read_text(errors="replace")[-2000:])


def collect(outcome: Outcome, out: Path, keep: Path | None) -> None:
    """Digest a run's output directory, then keep it (first run) or delete it."""
    if out.is_dir():
        outcome.digests, outcome.out_bytes = tree_digests(out)
        if keep is not None:
            out.rename(keep)
        else:
            shutil.rmtree(out)


def judge(case: Case, runs: list[Outcome],
          first_out: Path) -> tuple[int, list[str], float]:
    """Failed runs and problems: exit codes, byte identity, the output check."""
    checked: list[str] = []     # the output check fails every run
    work = 0.0
    if runs[0].code == 0 and first_out.is_dir():
        try:
            checked, work = WORKLOADS[case.workload].check(case, first_out)
        except (OSError, LookupError, ValueError, TypeError) as exc:
            checked = [f"output check raised {exc!r}"]
    problems = list(checked)
    failed = 0
    for idx, run in enumerate(runs):
        bad = []
        if run.code != 0:
            bad.append(f"run {idx} exited {run.code}: {run.log.strip()}")
        if run.digests != runs[0].digests:
            bad.append(f"run {idx} data files differ from run 0's")
        if bad or checked:
            failed += 1
        problems += bad
    return failed, problems, work


def report(metrics: dict[str, tuple[float, str]], correct: bool,
           attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def untraced(case: Case, workdir: Path, seconds: float,
             deadline: float) -> str:
    # One warm-up pair fills the file and bytecode caches and is not
    # timed.  Then command runs follow until the time is up, with a set-up
    # run after every second one.  Each run's time is taken at reference
    # speed (speed.py).
    cpu = speed.pin_to_one_cpu()
    first_out = workdir / "first"
    setup: list[Outcome] = []
    runs: list[Outcome] = []
    setup_ref: list[float] = []
    wall_ref: list[float] = []
    sampler = speed.Sampler()

    def timed(args: list[str], log: Path, into: list[float]) -> Outcome:
        outcome = spawn(args, log, deadline)
        into.append(sampler.scale(outcome.start_s, outcome.wall_s))
        return outcome

    def command() -> None:
        out = workdir / "out"
        run = timed([*case.argv, "--out", str(out)], workdir / "run.log",
                    wall_ref)
        collect(run, out, first_out if not runs else None)
        runs.append(run)

    def setup_run(into: list[float]) -> None:
        setup.append(timed(["--version"], workdir / "version.log", into))

    start = time.monotonic()
    with sampler:
        setup_run([])
        command()
        wall_ref.clear()
        while len(wall_ref) < MIN_RUNS or (
                time.monotonic() - start
                + statistics.median(r.wall_s for r in runs) <= seconds):
            if time.monotonic() >= deadline:
                break
            command()
            if len(wall_ref) % 2:
                setup_run(setup_ref)
    failed, problems, work = judge(case, runs, first_out)
    failed += sum(1 for s in setup if s.code != 0)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)

    metrics = {
        "wall_s": (statistics.median(wall_ref), "s"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (statistics.median(r.rss_bytes for r in runs) / 1e6,
                        "MB"),
        "out_mb": (statistics.median(r.out_bytes for r in runs) / 1e6, "MB"),
        "work_per_s": (statistics.median(work / w for w in wall_ref), "1/s"),
    }
    attempted = len(runs) + len(setup)
    print(f"{case.workload}: {len(wall_ref)} timed command runs and "
          f"{len(setup_ref)} set-up runs on CPU {cpu}, after one warm-up "
          f"pair; {failed} of {attempted} runs failed, failed_frac "
          f"{failed / attempted:g}; work {work:g}")
    for name, (value, unit) in metrics.items():
        if name == "work_per_s":
            name = f"{name} ({WORKLOADS[case.workload].throughput})"
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for label, outcomes, scaled in (("command", runs[1:], wall_ref),
                                    ("set-up", setup[1:], setup_ref)):
        print(f"  {label} walls (s), as measured / at reference speed: "
              + " ".join(f"{o.wall_s:.3f}/{v:.3f}"
                         for o, v in zip(outcomes, scaled)))
    return report(metrics, failed == 0, attempted, failed)


def call_main(argv: list[str]) -> Outcome:
    """Run replicator_ctl.cli.main in this process, timing it."""
    from replicator_ctl import cli

    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:  # a crash is a failed run, reported with its traceback
        code = -1
        sink.write(traceback.format_exc())
    return Outcome(code=code, wall_s=time.perf_counter() - start,
                   log=sink.getvalue()[-2000:])


def traced(case: Case, workdir: Path) -> str:
    import replicator_ctl.cli  # noqa: F401 - imported before any timing
    first_out = workdir / "first"
    out = workdir / "out"
    argv = [*case.argv, "--out", str(out)]
    runs: list[Outcome] = []
    for _ in range(UNTRACED_INPROCESS_RUNS):
        run = call_main(argv)
        collect(run, out, first_out if not runs else None)
        runs.append(run)

    tracer = spans.Tracer()
    with spans.traced_program(tracer):
        root = tracer.open("cli.main")
        try:
            run = call_main(argv)
        finally:
            tracer.close(root)
    collect(run, out, None)
    runs.append(run)

    recorded = tracer.spans()
    metrics = spans.layer_metrics(recorded)
    bound_calls = [attr for name, *_, attr in recorded
                   if name == "stability.bound"]
    metrics["bound_sampling_s"] = metrics["bound_ascent_s"] = 0.0
    if bound_calls:
        # the same call again without ascent gives the sampling share
        from replicator_ctl import stability

        def no_ascent(value):
            if isinstance(value, stability.SamplingConfig):
                return dataclasses.replace(value, ascent_candidates=0)
            return value

        _, args, kwargs = bound_calls[0]
        start = time.perf_counter()
        stability.estimate_subsidy_bound(
            *map(no_ascent, args),
            **{key: no_ascent(value) for key, value in kwargs.items()})
        metrics["bound_sampling_s"] = time.perf_counter() - start
        metrics["bound_ascent_s"] = metrics["bound_s"] - metrics["bound_sampling_s"]
    untraced_s = statistics.median(r.wall_s for r in runs[:-1])
    metrics["untraced_s"] = untraced_s
    metrics["trace_overhead_s"] = metrics["command_s"] - untraced_s

    failed, problems, _ = judge(case, runs, first_out)
    layer_sum = sum(metrics[f"{layer}_self_s"] for layer in spans.LAYERS)
    if abs(layer_sum - metrics["command_s"]) > 0.1 * metrics["command_s"]:
        problems.append(f"layer self times sum to {layer_sum!r} s, the "
                        f"command took {metrics['command_s']!r} s")
        failed = len(runs)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    tracer.write_csv(str(SCRATCH / f"trace-{case.workload}.csv"))

    units = per_layer_units()
    print(f"{case.workload}: traced in-process, {len(recorded)} spans, "
          f"{failed} of {len(runs)} runs failed")
    for name, unit in units.items():
        print(f"  {name:<24} {metrics[name]:>16.6g} {unit}")
    return report({name: (metrics[name], unit) for name, unit in units.items()},
                  failed == 0, len(runs), failed)


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "replicator_ctl" / "cli.py").is_file():
        print(f"no replicator_ctl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
        try:
            case = WORKLOADS[name].prepare(args.seed, workdir)
            if args.trace:
                result = traced(case, workdir)
            else:
                result = untraced(case, workdir, args.seconds, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
