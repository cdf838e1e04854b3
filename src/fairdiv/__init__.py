"""Fair division of mixed goods and chores with asymmetric entitlements.

Computes integral allocations that are weighted-proportional up to one item
and fractionally Pareto optimal, entirely in exact rational arithmetic.
"""

from fairdiv.core import (
    ConsumptionGraph,
    EnumerationCapExceeded,
    FairDivisionError,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InvariantViolation,
    consumption_graph,
    find_cycle,
    proportional_share,
    utilities,
)
from fairdiv.improve import dominance_welfare_lp, improve_to_acyclic_fpo
from fairdiv.rounding import (
    PipelineResult,
    allocate,
    round_acyclic,
)
from fairdiv.verify import (
    AgentWitness,
    PropertyReport,
    find_welfare_weights,
    is_pareto_optimal_integral,
    pareto_dominates,
    pareto_improvement_exists,
    propx,
    weighted_prop,
    weighted_prop1,
)

__all__ = [
    "AgentWitness",
    "ConsumptionGraph",
    "EnumerationCapExceeded",
    "FairDivisionError",
    "FractionalAllocation",
    "Instance",
    "IntegralAllocation",
    "InvariantViolation",
    "PipelineResult",
    "PropertyReport",
    "allocate",
    "consumption_graph",
    "dominance_welfare_lp",
    "find_cycle",
    "find_welfare_weights",
    "improve_to_acyclic_fpo",
    "is_pareto_optimal_integral",
    "pareto_dominates",
    "pareto_improvement_exists",
    "proportional_share",
    "propx",
    "round_acyclic",
    "utilities",
    "weighted_prop",
    "weighted_prop1",
]
