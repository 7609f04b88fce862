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
    carrier,
    scenario_digest,
)
from .dynamics import (
    ControlPolicy,
    RegionBounds,
    SimplexDomainError,
    field_controlled,
    field_uncontrolled,
    region_bounds,
)
from .integrate import (
    IntegrationConfig,
    IntegrationError,
    Trajectory,
    interior_grid,
    phase_portrait,
    simulate,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ControlPolicy",
    "IntegrationConfig",
    "IntegrationError",
    "RegionBounds",
    "Scenario",
    "ScenarioError",
    "SimplexDomainError",
    "Trajectory",
    "__version__",
    "aggregate_output",
    "carrier",
    "field_controlled",
    "field_uncontrolled",
    "interior_grid",
    "phase_portrait",
    "region_bounds",
    "scenario_digest",
    "simulate",
    "write_trajectory_csv",
]
