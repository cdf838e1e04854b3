"""Improvement stage: from a proportional seed to an acyclic fPO allocation.

The seed hands every agent its entitlement share of every item, which is
weighted-proportional by construction but heavily fragmented. Maximizing
utilitarian welfare subject to every agent keeping at least its seed utility
yields a fractional allocation that Pareto-dominates the seed and is
fractionally Pareto optimal: any Pareto improvement on the optimum would
itself be feasible and have strictly larger welfare. The same LP also
certifies it: its optimal duals on the agent rows are positive welfare
weights under which every consumer of every item is a maximizer, so the
pipeline needs no second LP to prove fPO.

The simplex solver returns extreme points, whose consumption graphs are
acyclic in all but degenerate cases. When a cycle does survive, some edge of
it can be forbidden without lowering the optimal welfare (a cyclic trade
argument), and forbidding edges one at a time terminates because the
forbidden set only grows. Optimal values are compared exactly, which is why
everything runs on rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from fairdiv.core import (
    FractionalAllocation,
    Instance,
    InvariantViolation,
    consumption_graph,
    find_cycle,
    utility,
)
from fairdiv.lp import OPTIMAL, LpProblem, LpSolution, solve


def proportional_seed(instance: Instance) -> FractionalAllocation:
    """The allocation x[i][o] = b_i: everyone consumes their entitlement of
    every item, so utility equals the weighted proportional share exactly."""
    rows = tuple(tuple(instance.weights[i] for _ in instance.items) for i in instance.agents)
    return FractionalAllocation(rows)


def dominance_welfare_lp(instance: Instance, baseline: FractionalAllocation,
                         forbidden: Iterable = ()) -> LpProblem:
    """LP over allocations: max total welfare s.t. nobody falls below their
    baseline utility, items fully allocated, forbidden (agent, item) pairs
    pinned to zero. Variables are x[i][o] flattened to index i*m + o."""
    n, m = instance.num_agents, instance.num_items
    num_vars = n * m
    zero = Fraction(0)
    objective = [zero] * num_vars
    for i in range(n):
        row = instance.utilities[i]
        for o in range(m):
            objective[i * m + o] = row[o]

    constraints = []
    for i in range(n):
        coeffs = [zero] * num_vars
        row = instance.utilities[i]
        for o in range(m):
            coeffs[i * m + o] = row[o]
        constraints.append((tuple(coeffs), ">=", utility(instance, baseline, i)))
    for o in range(m):
        coeffs = [zero] * num_vars
        for i in range(n):
            coeffs[i * m + o] = Fraction(1)
        constraints.append((tuple(coeffs), "=", Fraction(1)))
    for i, o in sorted(set(forbidden)):
        coeffs = [zero] * num_vars
        coeffs[i * m + o] = Fraction(1)
        constraints.append((tuple(coeffs), "=", zero))
    return LpProblem(num_vars, tuple(objective), tuple(constraints))


def improve_to_acyclic_fpo(instance: Instance,
                           seed: Optional[FractionalAllocation] = None) -> tuple:
    """Compute a fractional allocation that Pareto-dominates the seed, is
    fractionally Pareto optimal, and whose consumption graph is a forest.

    Returns ``(allocation, weights)``. Defaults to the proportional seed, in
    which case the allocation is also weighted-proportional. Deterministic:
    the simplex is deterministic and cycle edges are tested in walk order
    from the lowest-index agent.

    ``weights`` are welfare weights certifying fPO, read off the first LP's
    duals. With shadow price pi_i <= 0 on agent i's ">=" row and p_o on item
    o's "=" row, dual feasibility says the reduced cost of x[i][o] is
    ``(1 - pi_i) * u_i(o) - p_o <= 0``, with equality wherever x[i][o] > 0
    (complementary slackness). So with ``lambda_i = 1 - pi_i >= 1``, every
    consumer of o attains max_j lambda_j * u_j(o) = p_o.

    They also certify the allocation a cycle retry returns. Such a solution
    has the first LP's optimal value (asserted) and satisfies all of the
    first LP's constraints (the retry only adds rows), so it is optimal for
    the first LP too. Complementary slackness holds between any optimal
    primal and any optimal dual, so it holds between the retry solution and
    the first solve's duals.
    """
    if seed is None:
        seed = proportional_seed(instance)
    forbidden = set()
    solution = _solve_or_die(instance, seed, forbidden)
    target = solution.value
    weights = tuple(1 - pi for pi in solution.duals[:instance.num_agents])

    while True:
        x = _as_allocation(instance, solution)
        cycle = find_cycle(consumption_graph(x))
        if cycle is None:
            break
        for edge in cycle.edges():
            candidate_forbidden = forbidden | {edge}
            candidate = solve(dominance_welfare_lp(instance, seed, candidate_forbidden))
            if candidate.status == OPTIMAL and candidate.value == target:
                forbidden = candidate_forbidden
                solution = candidate
                break
        else:
            raise InvariantViolation("cycle with no welfare-preserving edge removal")

    if solution.value != target:
        raise InvariantViolation("edge removals changed the optimal welfare")
    _check_shared_items_same_sign(instance, x)
    return x, weights


def _solve_or_die(instance, seed, forbidden) -> LpSolution:
    solution = solve(dominance_welfare_lp(instance, seed, forbidden))
    if solution.status != OPTIMAL:
        # the baseline itself is feasible and the polytope is bounded
        raise InvariantViolation(f"improvement LP reported {solution.status}")
    return solution


def _as_allocation(instance: Instance, solution: LpSolution) -> FractionalAllocation:
    n, m = instance.num_agents, instance.num_items
    rows = tuple(tuple(solution.assignment[i * m + o] for o in range(m)) for i in range(n))
    return FractionalAllocation(rows)


def _check_shared_items_same_sign(instance: Instance, x: FractionalAllocation) -> None:
    """At a welfare optimum, agents sharing an item value it with one sign;
    anything else means the solver or the model is broken."""
    graph = consumption_graph(x)
    for o in graph.shared_items():
        signs = {_sign(instance.value(i, o)) for i in graph.item_agents[o]}
        if len(signs) > 1:
            raise InvariantViolation(f"item {o} is shared across utility signs")


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)
