"""Multipopulation replicator dynamics under output-feedback subsidy control.

Library layout:

* :mod:`replicator_ctl.game` — scenarios, payoffs, output aggregation.
* :mod:`replicator_ctl.dynamics` — the controlled field (the uncontrolled
  one at d = 0) and the subsidy weights.
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
    SimplexDomainError,
    field_controlled,
    field_uncontrolled,
)
from .integrate import (
    IntegrationConfig,
    IntegrationError,
    Trajectory,
    interior_grid,
    phase_portrait,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ControlPolicy",
    "IntegrationConfig",
    "IntegrationError",
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
    "scenario_digest",
    "simulate",
]
