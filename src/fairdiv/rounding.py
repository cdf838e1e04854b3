"""Rounding stage: from an acyclic fractional allocation to an integral one.

The improved allocation is the improvement LP's optimal vertex, whose
consumption graph is a forest with one strict utility sign on every shared
item (``improve_to_acyclic_fpo`` proves both and checks them), so it is
rounded as it is. Each tree is rooted at its lowest-index agent that shares
exactly one item (every tree with a shared item has such a leaf), and every
shared item is decided by its consumer nearest that root: the agent keeps a
shared good and passes a shared chore to the lowest-index other consumer.
Every agent but the root is reached through exactly one shared item, the one
on its path to the root, so at most one shared item is ever decided against
it: it loses at most one partially consumed good, or receives at most one
extra chore, never both. That is exactly proportionality up to one item, and
since rounding only shrinks the set of consumers per item, the welfare-weight
certificate of the fractional allocation keeps certifying fractional Pareto
optimality.

``allocate`` solves at most that one LP and checks its own output without
another: the improvement LP's duals are the welfare weights, and replaying
them on the fractional intermediate and on the integral output costs O(nm).
No LP is solved when every item has exactly one agent valuing it most and
that argmax leaves every agent strictly above its seed utility: the argmax
is then the LP's unique optimum, integral, with every weight 1, and the
same replays and PROP1 check run on it.

Only the roots decide the owners. When the walk reaches an agent, the items
it still shares are exactly those leading away from the root, so the order
in which the walk visits agents cannot change who gets what. Any rooting
keeps the guarantees; the fixed one makes the output a function of the
instance alone.
"""

from __future__ import annotations

from fairdiv.core import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InvariantViolation,
    Record,
    _check_shape,
    _mixed_sign_item,
    consumption_graph,
    find_cycle,
)
from fairdiv.improve import improve_to_acyclic_fpo
# Only bench/spans.py reads the two fPO names re-exported here: it wraps them.
from fairdiv.verify import (  # noqa: F401
    PropertyReport,
    find_welfare_weights,
    pareto_improvement_exists,
    recheck_welfare_weights,
    weighted_prop1,
)


class PipelineResult(Record):
    """``welfare_weights`` certify fPO of both allocations; ``allocate``
    raises rather than return an uncertified result."""

    _fields = ("integral", "fractional", "prop1", "welfare_weights")


# Only bench/spans.py reads this name: its traced run wraps it. Nothing is
# left to resolve, since the improvement LP's vertex never shares an item
# that a sharer values at zero.
resolve_zero_items = None


def round_acyclic(instance: Instance, allocation: FractionalAllocation) -> IntegralAllocation:
    """Round an acyclic same-sign fractional allocation to an integral one.

    Precondition (checked): the consumption graph is a forest and every
    shared item has one strict utility sign across its sharers, as on the
    vertex ``improve_to_acyclic_fpo`` returns. Each tree is rooted at its
    lowest-index agent that shares exactly one item, and each shared item
    is decided by its consumer nearest that root: a good stays with it, a
    chore goes to the lowest-index other consumer. The at-most-one-loss
    property is instrumented and enforced.
    """
    _check_shape(instance, allocation)
    graph = consumption_graph(allocation)
    edge = find_cycle(graph)
    if edge is not None:
        raise ValueError("allocation shares items along a cycle closed by agent {} and "
                         "item {}; improve it first".format(*edge))
    o = _mixed_sign_item(instance, graph)
    if o is not None:
        raise ValueError(f"shared item {o} lacks a single strict sign")

    n = allocation.num_agents
    rows = [row for _, row in instance.integer_rows]
    owners = [agents[0] if len(agents) == 1 else -1 for agents in graph.item_agents]
    losses = [0] * n  # shared items decided against an agent before its turn
    for root in range(n):
        # one undecided shared item: a leaf of a tree not walked yet
        if sum(owners[o] < 0 for o in graph.agent_items[root]) != 1:
            continue
        stack = [root]
        while stack:
            j = stack.pop()
            for o in graph.agent_items[j]:
                if owners[o] >= 0:
                    continue
                others = [k for k in graph.item_agents[o] if k != j]
                good = rows[j][o] > 0
                owners[o] = j if good else others[0]
                for k in others if good else others[:1]:
                    losses[k] += 1
                    if losses[k] > 1:
                        raise InvariantViolation(
                            f"agent {k} had two shared items decided against it")
                stack.extend(others)
    return IntegralAllocation(n, tuple(owners))


def allocate(instance: Instance) -> PipelineResult:
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
    integral = round_acyclic(instance, improved)
    recheck_welfare_weights(instance, consumption_graph(integral), weights)

    prop1 = weighted_prop1(instance, integral)
    if not prop1.holds:
        raise InvariantViolation("pipeline output violates weighted PROP1")
    return PipelineResult(integral, improved, prop1, weights)
