"""Fair division of mixed goods and chores with asymmetric entitlements.

Computes integral allocations that are weighted-proportional up to one item
and fractionally Pareto optimal, entirely in exact rational arithmetic.
"""

from fairdiv.core import (
    ConsumptionGraph,
    Cycle,
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
    utility,
)
from fairdiv.improve import (
    dominance_welfare_lp,
    improve_to_acyclic_fpo,
    proportional_seed,
)
from fairdiv.rounding import (
    DEFAULT_STRATEGY,
    CertificateReport,
    ExplorationStrategy,
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
    "CertificateReport",
    "ConsumptionGraph",
    "Cycle",
    "DEFAULT_STRATEGY",
    "EnumerationCapExceeded",
    "ExplorationStrategy",
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
    "proportional_seed",
    "proportional_share",
    "propx",
    "round_acyclic",
    "utilities",
    "utility",
    "weighted_prop",
    "weighted_prop1",
]
