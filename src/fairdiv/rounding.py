"""Rounding stage: from an acyclic fractional allocation to an integral one.

The improved allocation is the improvement LP's optimal vertex, whose
consumption graph is a forest with one strict utility sign on every shared
item (``improve_to_acyclic_fpo`` proves both and checks them), so it is
rounded as it is. Walking each tree from a root agent, the active agent
keeps every good it shares and passes every chore it shares to the
lowest-index co-consumer. Because every
agent has at most one predecessor in the walk, at most one shared item is
ever decided against it before its own turn: it loses at most one partially
consumed good, or receives at most one extra chore, never both. That is
exactly proportionality up to one item, and since rounding only shrinks the
set of consumers per item, the welfare-weight certificate of the fractional
allocation keeps certifying fractional Pareto optimality.

``allocate`` solves that one LP and checks its own output without another:
the improvement LP's duals are the welfare weights, and replaying them on the
fractional intermediate and on the integral output costs O(nm).

Which agent roots each tree and in which order the walk visits agents does
not affect those guarantees; ExplorationStrategy exposes the knobs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from fairdiv.core import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InvariantViolation,
    consumption_graph,
    find_cycle,
)
from fairdiv.improve import improve_to_acyclic_fpo
# find_welfare_weights and pareto_improvement_exists, the LP-based fPO
# oracles, are re-exported for callers that look them up on this module.
from fairdiv.verify import (  # noqa: F401
    PropertyReport,
    find_welfare_weights,
    pareto_improvement_exists,
    recheck_welfare_weights,
    weighted_prop1,
)

BREADTH_FIRST = "bfs"
DEPTH_FIRST = "dfs"
ROOT_ONE_ITEM = "one-item"
ROOT_LOWEST_INDEX = "lowest-index"


@dataclass(frozen=True)
class ExplorationStrategy:
    """How the rounding walk explores each tree of the sharing forest.

    order: "bfs" pops the oldest queue entry, "dfs" the newest.
    root_rule: "one-item" roots at the lowest-index agent sharing exactly
    one item (such an agent exists in any forest with a shared item);
    "lowest-index" roots at the lowest-index agent sharing anything.
    preferred_roots: agents tried as roots first, overriding root_rule in
    any component where one of them shares an item. Ties always break to
    the lowest index, and neighbors enter the queue lowest index first.
    """

    order: str = BREADTH_FIRST
    root_rule: str = ROOT_ONE_ITEM
    preferred_roots: frozenset = frozenset()

    def __post_init__(self):
        if self.order not in (BREADTH_FIRST, DEPTH_FIRST):
            raise ValueError(f"unknown exploration order {self.order!r}")
        if self.root_rule not in (ROOT_ONE_ITEM, ROOT_LOWEST_INDEX):
            raise ValueError(f"unknown root rule {self.root_rule!r}")
        object.__setattr__(self, "preferred_roots", frozenset(self.preferred_roots))


DEFAULT_STRATEGY = ExplorationStrategy()


@dataclass(frozen=True)
class CertificateReport:
    """Evidence attached to a pipeline result."""

    prop1: PropertyReport
    fpo_certified: bool
    welfare_weights: tuple


@dataclass(frozen=True)
class PipelineResult:
    integral: IntegralAllocation
    fractional: FractionalAllocation
    report: CertificateReport


# Only bench/spans.py reads this name: its traced run wraps it. Nothing is
# left to resolve, since the improvement LP's vertex never shares an item
# that a sharer values at zero.
resolve_zero_items = None


def round_acyclic(instance: Instance, allocation: FractionalAllocation,
                  strategy: ExplorationStrategy = DEFAULT_STRATEGY) -> IntegralAllocation:
    """Round an acyclic same-sign fractional allocation to an integral one.

    Precondition (checked): the consumption graph is a forest and every
    shared item has one strict utility sign across its sharers, as on the
    vertex ``improve_to_acyclic_fpo`` returns. The walk keeps shared goods
    with the active agent and pushes shared chores to the lowest-index
    co-consumer; the at-most-one-predecessor property is instrumented and
    enforced.
    """
    n, m = allocation.num_agents, allocation.num_items
    if instance.num_agents != n or instance.num_items != m:
        raise ValueError("allocation shape does not match instance")
    for i in strategy.preferred_roots:
        if not isinstance(i, int) or not 0 <= i < n:
            raise ValueError(f"preferred root {i!r} is not an agent index")
    graph = consumption_graph(allocation)
    if find_cycle(graph) is not None:
        raise ValueError("allocation shares items along a cycle; improve it first")

    rows = instance.utilities
    owners = [-1] * m
    consumers = []
    for o in range(m):
        agents = graph.item_agents[o]
        if len(agents) == 1:
            owners[o] = agents[0]
        else:
            # sign of a Fraction is the sign of its numerator; int compares
            # keep this hot path cheap
            signs = {(rows[i][o].numerator > 0) - (rows[i][o].numerator < 0)
                     for i in agents}
            if len(signs) != 1 or 0 in signs:
                raise ValueError(f"shared item {o} lacks a single strict sign")
        consumers.append(set(agents))
    shared_by = [set() for _ in range(n)]
    for o in range(m):
        if owners[o] < 0:
            for i in consumers[o]:
                shared_by[i].add(o)

    processed = [False] * n
    queued = [False] * n
    losses = [0] * n  # shared items decided against an agent before its turn

    def decide_against(agent: int) -> None:
        if processed[agent]:
            raise InvariantViolation("a processed agent lost a shared item")
        losses[agent] += 1
        if losses[agent] > 1:
            raise InvariantViolation(
                f"agent {agent} had two shared items decided against it")

    remaining = sum(1 for o in range(m) if owners[o] < 0)
    while remaining:
        root = _pick_root(shared_by, strategy)
        queue = deque([root])
        queued[root] = True
        while queue:
            j = queue.popleft() if strategy.order == BREADTH_FIRST else queue.pop()
            processed[j] = True
            neighbors = sorted({k for o in shared_by[j] for k in consumers[o] if k != j})
            for k in neighbors:
                if not queued[k]:
                    queued[k] = True
                    queue.append(k)
            for o in sorted(shared_by[j]):
                if rows[j][o].numerator > 0:
                    winner = j
                    for k in consumers[o]:
                        if k != j:
                            decide_against(k)
                else:
                    winner = min(k for k in consumers[o] if k != j)
                    decide_against(winner)
                owners[o] = winner
                for k in consumers[o]:
                    if k != j:
                        shared_by[k].discard(o)
                consumers[o] = {winner}
                remaining -= 1
            shared_by[j].clear()
    return IntegralAllocation(n, tuple(owners))


def _pick_root(shared_by, strategy: ExplorationStrategy) -> int:
    sharing = [i for i, items in enumerate(shared_by) if items]
    for i in sharing:
        if i in strategy.preferred_roots:
            return i
    if strategy.root_rule == ROOT_ONE_ITEM:
        for i in sharing:
            if len(shared_by[i]) == 1:
                return i
        raise InvariantViolation("no agent shares exactly one item in a forest")
    return sharing[0]


def allocate(instance: Instance,
             strategy: ExplorationStrategy = DEFAULT_STRATEGY) -> PipelineResult:
    """Full pipeline: proportional seed, welfare improvement, rounding.
    Returns the integral allocation, the fractional intermediate it was
    rounded from, and certificates for both guarantees.

    The result is weighted-PROP1 and fractionally Pareto optimal; both are
    re-checked and a failure of either raises InvariantViolation, since it
    could only come from a bug in this package. fPO is checked by replaying
    the improvement LP's welfare weights on both allocations: rounding only
    shrinks each item's consumer set, so weights that certify the improved
    allocation certify the integral one too.
    """
    improved, weights = improve_to_acyclic_fpo(instance)
    if not all(w > 0 for w in weights):
        raise InvariantViolation("improvement LP duals give a nonpositive welfare weight")
    recheck_welfare_weights(instance, consumption_graph(improved), weights)
    integral = round_acyclic(instance, improved, strategy)
    recheck_welfare_weights(instance, consumption_graph(integral), weights)

    prop1 = weighted_prop1(instance, integral)
    if not prop1.holds:
        raise InvariantViolation("pipeline output violates weighted PROP1")
    report = CertificateReport(prop1=prop1, fpo_certified=True, welfare_weights=weights)
    return PipelineResult(integral=integral, fractional=improved, report=report)
