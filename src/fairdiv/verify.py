"""Property checkers: proportionality variants, Pareto tests, certificates.

Checkers return a PropertyReport whose per-agent witnesses are
self-contained: each names the rule and item certifying (or refuting) the
property, together with the exact bundle value, threshold and adjusted
value, so a reader can replay the defining inequality without re-running
the checker.

Pareto optimality of integral allocations is decided by exhaustive search
over all n**m owner assignments (with a cap), independent of the LP stack;
fractional Pareto optimality is decided by a welfare LP. Welfare weights,
when they exist, certify fPO: an allocation maximizing a positively
weighted welfare sum cannot be Pareto-improved. ``recheck_welfare_weights``
replays such a certificate in O(nm); the pipeline certifies its own output
that way, with weights taken from its improvement LP's duals. The LP-based
``pareto_improvement_exists`` and ``find_welfare_weights`` are independent
of that: they decide ``verify --property fpo`` and serve as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from fairdiv.core import (
    Allocation,
    EnumerationCapExceeded,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InvariantViolation,
    _check_shape,
    consumption_graph,
    proportional_share,
    utilities,
    utility,
)
from fairdiv.improve import dominance_welfare_lp
from fairdiv.lp import INFEASIBLE, OPTIMAL, LpProblem, solve

MEETS_BOUND = "meets-bound"
ADD_ITEM = "add-item"
REMOVE_ITEM = "remove-item"

DEFAULT_ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class AgentWitness:
    """How one agent fares under a property check.

    ``rule`` names what certifies satisfaction (or, for a failing agent, the
    closest adjustment tried): "meets-bound" compares the bundle value itself
    against the bound, "add-item"/"remove-item" compare the bundle value
    after adjusting by ``item``. ``adjusted_value`` is the left-hand side of
    that comparison.
    """

    agent: int
    satisfied: bool
    rule: Optional[str]
    item: Optional[int]
    bundle_value: Fraction
    bound: Fraction
    adjusted_value: Fraction


@dataclass(frozen=True)
class PropertyReport:
    name: str
    holds: bool
    witnesses: tuple

    def witness(self, agent: int) -> AgentWitness:
        return self.witnesses[agent]

    def failing_agents(self) -> tuple:
        return tuple(w.agent for w in self.witnesses if not w.satisfied)


def weighted_prop(instance: Instance, allocation: Allocation) -> PropertyReport:
    """Does every agent get at least its weighted share of the whole pie?"""
    witnesses = []
    for i in instance.agents:
        value = utility(instance, allocation, i)
        bound = proportional_share(instance, i)
        ok = value >= bound
        witnesses.append(AgentWitness(i, ok, MEETS_BOUND if ok else None, None,
                                      value, bound, value))
    return _report("weighted-prop", witnesses)


def weighted_prop1(instance: Instance, allocation: IntegralAllocation) -> PropertyReport:
    """Weighted proportionality up to one item.

    An agent is satisfied if its bundle meets the weighted share outright,
    or would after adding one item it does not own, or after removing one
    item it does own. The witness carries the certifying rule and item; for
    a failing agent it carries the best adjustment available, whose
    adjusted value still falls short of the bound.

    Items are chosen and compared on the agent's integer row N over d: with
    weight p/q and total T = sum(N), "v/d >= (p/q)(T/d)" is "v*q >= p*T".
    """
    _require_integral(allocation)
    witnesses = []
    for i, (d, row, owned, unowned) in enumerate(_integer_bundles(instance, allocation)):
        value = sum(row[o] for o in owned)
        p, q = instance.weights[i].as_integer_ratio()
        need = p * sum(row)
        # max/min return the first extreme item, i.e. the lowest index
        best_add = max(unowned, key=row.__getitem__, default=None)
        best_rm = min(owned, key=row.__getitem__, default=None)

        if value * q >= need:
            ok, rule, item, adjusted = True, MEETS_BOUND, None, value
        elif best_add is not None and (value + row[best_add]) * q >= need:
            ok, rule, item, adjusted = True, ADD_ITEM, best_add, value + row[best_add]
        elif best_rm is not None and (value - row[best_rm]) * q >= need:
            ok, rule, item, adjusted = True, REMOVE_ITEM, best_rm, value - row[best_rm]
        else:
            options = [(value, None, None)]
            if best_add is not None:
                options.append((value + row[best_add], ADD_ITEM, best_add))
            if best_rm is not None:
                options.append((value - row[best_rm], REMOVE_ITEM, best_rm))
            ok = False
            adjusted, rule, item = max(options, key=lambda t: t[0])
        witnesses.append(AgentWitness(i, ok, rule, item, Fraction(value, d),
                                      Fraction(need, q * d), Fraction(adjusted, d)))
    return _report("weighted-prop1", witnesses)


def propx(instance: Instance, allocation: IntegralAllocation) -> PropertyReport:
    """Proportionality up to every extreme item, with equal shares.

    Removing any owned chore and adding any unowned good must each keep the
    agent at or above u_i(O)/n. The witness records the worst adjustment:
    the one with the smallest adjusted value (violating it, if any does).
    Either adjustment raises the bundle value by |u_i(o)|, so the worst is
    the owned chore or unowned good with the least |N[o]| on the agent's
    integer row, lowest index first.
    """
    _require_integral(allocation)
    n = instance.num_agents
    witnesses = []
    for i, (d, row, owned, unowned) in enumerate(_integer_bundles(instance, allocation)):
        value = sum(row[o] for o in owned)
        total = sum(row)
        bundle_value, bound = Fraction(value, d), Fraction(total, d * n)
        extremes = [o for o in owned if row[o] < 0] + [o for o in unowned if row[o] > 0]
        if not extremes:
            # no extreme item to quantify over; the bundle itself decides
            witnesses.append(AgentWitness(i, value * n >= total, MEETS_BOUND, None,
                                          bundle_value, bound, bundle_value))
            continue
        item = min(extremes, key=lambda o: (abs(row[o]), o))
        adjusted = value + abs(row[item])
        ok = adjusted * n >= total
        if ok and value * n >= total:
            witnesses.append(AgentWitness(i, True, MEETS_BOUND, None,
                                          bundle_value, bound, bundle_value))
        else:
            rule = REMOVE_ITEM if row[item] < 0 else ADD_ITEM
            witnesses.append(AgentWitness(i, ok, rule, item, bundle_value, bound,
                                          Fraction(adjusted, d)))
    return _report("propx", witnesses)


def pareto_dominates(instance: Instance, better: Allocation, worse: Allocation) -> bool:
    """True iff ``better`` gives every agent at least as much utility as
    ``worse`` and at least one agent strictly more. Exact comparison."""
    a = utilities(instance, better)
    b = utilities(instance, worse)
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def enumeration_size(instance: Instance) -> int:
    return instance.num_agents ** instance.num_items


def enumerate_integral_allocations(instance: Instance,
                                   cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[IntegralAllocation]:
    """Yield all n**m owner assignments in lexicographic order; refuses to
    start when their number exceeds the cap."""
    n, m = instance.num_agents, instance.num_items
    check_cap(instance, cap)
    owners = [0] * m
    while True:
        yield IntegralAllocation(n, tuple(owners))
        o = m - 1
        while o >= 0 and owners[o] == n - 1:
            owners[o] = 0
            o -= 1
        if o < 0:
            return
        owners[o] += 1


def is_pareto_optimal_integral(instance: Instance, allocation: IntegralAllocation,
                               cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Exhaustively decide whether any integral allocation Pareto-dominates
    this one.

    The search walks the owner tree in scaled integer arithmetic, pruning a
    branch as soon as some agent cannot reach its current utility even when
    granted every remaining positive item; the bound is sound, so the scan
    remains exhaustive. Raises EnumerationCapExceeded when n**m > cap.
    """
    _require_integral(allocation)
    check_cap(instance, cap)
    n, m = instance.num_agents, instance.num_items
    scaled = [row for _, row in instance.integer_rows]
    target = [0] * n
    for o, owner in enumerate(allocation.owners):
        target[owner] += scaled[owner][o]

    # best_future[i][o]: the most agent i can still gain from items o..m-1
    best_future = [[0] * (m + 1) for _ in range(n)]
    for i in range(n):
        acc = 0
        for o in range(m - 1, -1, -1):
            if scaled[i][o] > 0:
                acc += scaled[i][o]
            best_future[i][o] = acc

    # Depth-first over the owners of items 0..o-1, held in path[] rather
    # than on the call stack, so thousands of items cannot overflow it.
    # sums[i] is agent i's scaled utility from the items decided so far.
    sums = [0] * n
    path = [0] * m
    agents = range(n)
    o = 0
    while True:
        for i in agents:
            if sums[i] + best_future[i][o] < target[i]:
                break
        else:
            if o < m:
                path[o] = 0
                sums[0] += scaled[0][o]
                o += 1
                continue
            if any(sums[i] > target[i] for i in agents):
                return False
        # dead end: step to the next owner of the deepest item that has one
        while True:
            o -= 1
            if o < 0:
                return True
            a = path[o]
            sums[a] -= scaled[a][o]
            if a + 1 < n:
                break
        path[o] = a + 1
        sums[a + 1] += scaled[a + 1][o]
        o += 1


def pareto_improvement_exists(instance: Instance, allocation: Allocation) -> bool:
    """Complete fractional Pareto test: is there any fractional allocation
    weakly better for everyone and strictly better in total welfare?"""
    if isinstance(allocation, IntegralAllocation):
        allocation = allocation.to_fractional()
    solution = solve(dominance_welfare_lp(instance, allocation))
    if solution.status != OPTIMAL:
        raise InvariantViolation(f"fPO test LP reported {solution.status}")
    current = sum(utilities(instance, allocation), Fraction(0))
    return solution.value > current


def find_welfare_weights(instance: Instance, allocation: Allocation) -> Optional[tuple]:
    """Search for strictly positive weights certifying fPO.

    The allocation maximizes the lambda-weighted welfare iff every item is
    consumed only by agents maximizing lambda_i * u_i(o). Feasibility of
    that system (normalized to lambda >= 1) is itself an LP. Returns the
    weights, or None when this sufficient certificate does not exist here;
    absence alone does not prove the allocation is not fPO.
    """
    n = instance.num_agents
    graph = consumption_graph(allocation)
    rows = set()
    for o in instance.items:
        for i in graph.item_agents[o]:
            ui = instance.value(i, o)
            for j in instance.agents:
                if j == i:
                    continue
                uj = instance.value(j, o)
                if ui >= 0 and uj <= 0:
                    continue  # holds for any positive weights
                rows.add((i, ui, j, uj))

    zero = Fraction(0)
    constraints = []
    for i, ui, j, uj in sorted(rows):
        coeffs = [zero] * n
        coeffs[i] += ui
        coeffs[j] -= uj
        constraints.append((tuple(coeffs), ">=", uj - ui))
    problem = LpProblem(n, tuple([zero] * n), tuple(constraints))
    solution = solve(problem)
    if solution.status == INFEASIBLE:
        return None
    if solution.status != OPTIMAL:
        raise InvariantViolation(f"weight-search LP reported {solution.status}")
    weights = tuple(mu + 1 for mu in solution.assignment)
    recheck_welfare_weights(instance, graph, weights)
    return weights


def recheck_welfare_weights(instance: Instance, graph, weights) -> None:
    """Raise InvariantViolation unless every consumer of every item in
    ``graph`` maximizes weights[j] * u_j(o) over all agents j."""
    for o in instance.items:
        if not graph.item_agents[o]:
            continue
        best = max(weights[j] * instance.value(j, o) for j in instance.agents)
        for i in graph.item_agents[o]:
            if weights[i] * instance.value(i, o) != best:
                raise InvariantViolation("welfare weights fail to certify the allocation")


def _report(name: str, witnesses: list) -> PropertyReport:
    return PropertyReport(name, all(w.satisfied for w in witnesses), tuple(witnesses))


def _require_integral(allocation) -> None:
    if not isinstance(allocation, IntegralAllocation):
        raise ValueError("this check is defined for integral allocations")


def check_cap(instance: Instance, cap: int) -> None:
    """Raise EnumerationCapExceeded when n**m exceeds the cap."""
    size = enumeration_size(instance)
    if size > cap:
        raise EnumerationCapExceeded(
            f"{instance.num_agents}**{instance.num_items} = {size} allocations exceed cap {cap}")




def _integer_bundles(instance: Instance, allocation: IntegralAllocation):
    """Per agent, lazily: its integer row (d, N) and the ascending lists of
    the items it owns and does not own."""
    _check_shape(instance, allocation)
    bundles, owners = allocation.bundles(), allocation.owners
    return ((d, row, bundles[i], [o for o, a in enumerate(owners) if a != i])
            for i, (d, row) in enumerate(instance.integer_rows))
