"""Global placement optimizer: joint (placement, mode) choice over suites.

Public surface:

* :mod:`repro.core.optimize.model` — candidates, scenarios, limits;
* :mod:`repro.core.optimize.pricing` — the simulation pricer;
* :mod:`repro.core.optimize.backends` — plans and :func:`solve`;
* :mod:`repro.core.optimize.pareto` — ε-dominance frontier enumeration;
* ``python -m repro.core.optimize`` — solve / pareto / validate / compare.
"""

from repro.core.optimize.backends import PLAN_SCHEMA, Plan, solve
from repro.core.optimize.model import (
    Candidate,
    Scenario,
    ScenarioLimits,
    WorkflowChoices,
    retained_pmem_bytes,
)
from repro.core.optimize.pareto import (
    FRONTIER_SCHEMA,
    FrontierPoint,
    enumerate_frontier,
    frontier_json,
    frontier_payload,
    pareto_filter,
    validate_frontier,
)
from repro.core.optimize.pricing import SimulationPricer

__all__ = [
    "PLAN_SCHEMA",
    "FRONTIER_SCHEMA",
    "Candidate",
    "FrontierPoint",
    "Plan",
    "Scenario",
    "ScenarioLimits",
    "SimulationPricer",
    "WorkflowChoices",
    "enumerate_frontier",
    "frontier_json",
    "frontier_payload",
    "pareto_filter",
    "retained_pmem_bytes",
    "solve",
    "validate_frontier",
]
