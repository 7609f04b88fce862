"""Multipopulation replicator dynamics under output-feedback subsidy control.

Library layout:

* :mod:`replicator_ctl.game` — scenarios, payoffs, output aggregation.
* :mod:`replicator_ctl.dynamics` — the two vector fields and region bounds.
* :mod:`replicator_ctl.integrate` — fixed-step RK4, trajectories, portraits.
* :mod:`replicator_ctl.stability` — Lyapunov machinery, gain-bound
  estimation, target-equilibrium enumeration, stabilization reports.
* :mod:`replicator_ctl.agents` — finite-population Monte Carlo realization.
* :mod:`replicator_ctl.cli` — the ``replicator-ctl`` command-line front end.
"""

from .game import (
    Scenario,
    ScenarioError,
    aggregate_output,
    average_payoff,
    carrier,
    expected_payoff,
    local_shift,
    make_state,
    scenario_digest,
)
from .dynamics import (
    ControlPolicy,
    RegionBounds,
    SimplexDomainError,
    field_controlled,
    field_uncontrolled,
    per_agent_subsidy,
    region_bounds,
    subsidy_weight,
)
from .integrate import (
    ConvergenceVerdict,
    IntegrationConfig,
    IntegrationError,
    Trajectory,
    detect_convergence,
    interior_grid,
    phase_portrait,
    rk4_step,
    simulate,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ControlPolicy",
    "ConvergenceVerdict",
    "IntegrationConfig",
    "IntegrationError",
    "RegionBounds",
    "Scenario",
    "ScenarioError",
    "SimplexDomainError",
    "Trajectory",
    "__version__",
    "aggregate_output",
    "average_payoff",
    "carrier",
    "detect_convergence",
    "expected_payoff",
    "field_controlled",
    "field_uncontrolled",
    "interior_grid",
    "local_shift",
    "make_state",
    "per_agent_subsidy",
    "phase_portrait",
    "region_bounds",
    "rk4_step",
    "scenario_digest",
    "simulate",
    "subsidy_weight",
    "write_trajectory_csv",
]
