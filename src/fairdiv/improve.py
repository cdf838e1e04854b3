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

One exact simplex solve does the whole stage. Its optimal vertex already
has a forest as consumption graph, with one strict utility sign on every
shared item (see ``improve_to_acyclic_fpo``), and both facts are checked
as a postcondition on the solve.
"""

from __future__ import annotations

from fractions import Fraction

from fairdiv.core import (
    FractionalAllocation,
    Instance,
    InvariantViolation,
    _mixed_sign_item,
    consumption_graph,
    find_cycle,
    utilities,
)
from fairdiv.lp import OPTIMAL, LpProblem, LpSolution, solve


def proportional_seed(instance: Instance) -> FractionalAllocation:
    """The allocation x[i][o] = b_i: everyone consumes their entitlement of
    every item, so utility equals the weighted proportional share exactly."""
    rows = tuple(tuple(instance.weights[i] for _ in instance.items) for i in instance.agents)
    return FractionalAllocation(rows)


def dominance_welfare_lp(instance: Instance, baseline: FractionalAllocation) -> LpProblem:
    """LP over allocations: max total welfare s.t. nobody falls below their
    baseline utility and items are fully allocated. Variables are x[i][o]
    flattened to index i*m + o; coefficient ``u_i(o)`` is
    ``Fraction(N_i[o], d_i)`` from the integer rows."""
    n, m = instance.num_agents, instance.num_items
    num_vars = n * m
    zero = Fraction(0)
    objective = [Fraction(v, d) for d, row in instance.integer_rows for v in row]

    constraints = []
    for i, floor in enumerate(utilities(instance, baseline)):
        coeffs = [zero] * num_vars
        coeffs[i * m:(i + 1) * m] = objective[i * m:(i + 1) * m]
        constraints.append((tuple(coeffs), ">=", floor))
    for o in range(m):
        coeffs = [zero] * num_vars
        for i in range(n):
            coeffs[i * m + o] = Fraction(1)
        constraints.append((tuple(coeffs), "=", Fraction(1)))
    return LpProblem(num_vars, tuple(objective), tuple(constraints))


def improve_to_acyclic_fpo(instance: Instance) -> tuple:
    """Compute a fractional allocation that Pareto-dominates the
    proportional seed, is fractionally Pareto optimal, and whose
    consumption graph is a forest.

    Returns ``(allocation, weights)``. The allocation is weighted-proportional,
    since it dominates the seed. Deterministic, because the simplex is.

    ``weights`` are welfare weights certifying fPO, read off the LP's duals.
    With shadow price pi_i <= 0 on agent i's ">=" row and p_o on item o's
    "=" row, dual feasibility says the reduced cost of x[i][o] is
    ``(1 - pi_i) * u_i(o) - p_o <= 0``, with equality wherever x[i][o] > 0
    (complementary slackness). So with ``lambda_i = 1 - pi_i >= 1``, every
    consumer of o attains max_j lambda_j * u_j(o) = p_o.

    The solve returns a basic optimal solution, whose positive columns
    ``x_io = u_i(o) * e_i + e_o`` are linearly independent. That makes the
    consumption graph a forest with one strict sign on every shared item:

    - On a cycle a_1, o_1, a_2, ..., a_k, o_k, a_1 of the support, where
      o_j is consumed by a_j and a_{j+1}, every u_a(o) is p_o / lambda_a.
      If every p_{o_j} != 0, the sum over j of
      ``(x_{a_j o_j} - x_{a_{j+1} o_j}) / p_{o_j}`` is the telescoping sum
      of ``e_{a_j} / lambda_{a_j} - e_{a_{j+1}} / lambda_{a_{j+1}}``, which
      is zero, so the cycle's columns are dependent.
    - If p_o = 0, both consumers of o value it at zero. Their columns are
      both e_o, so they are dependent too.
    - On a shared item, lambda_a * u_a(o) = p_o for every sharer and
      lambda > 0, so all sharers value o with the sign of p_o, and p_o != 0
      by the previous point.

    Both facts are checked on the returned vertex; a failure raises
    InvariantViolation, since it could only come from a solver bug.
    """
    solution = solve(dominance_welfare_lp(instance, proportional_seed(instance)))
    if solution.status != OPTIMAL:
        # the baseline itself is feasible and the polytope is bounded
        raise InvariantViolation(f"improvement LP reported {solution.status}")
    x = _as_allocation(instance, solution)
    _check_shared_items_same_sign(instance, x)
    return x, tuple(1 - pi for pi in solution.duals[:instance.num_agents])


def _as_allocation(instance: Instance, solution: LpSolution) -> FractionalAllocation:
    n, m = instance.num_agents, instance.num_items
    rows = tuple(tuple(solution.assignment[i * m + o] for o in range(m)) for i in range(n))
    return FractionalAllocation(rows)


def _check_shared_items_same_sign(instance: Instance, x: FractionalAllocation) -> None:
    """The vertex postcondition proved in ``improve_to_acyclic_fpo``: no
    cycle of shared items, and one strict utility sign per shared item."""
    graph = consumption_graph(x)
    if find_cycle(graph) is not None:
        raise InvariantViolation("the improvement LP vertex shares items along a cycle")
    o = _mixed_sign_item(instance, graph)
    if o is not None:
        raise InvariantViolation(f"item {o} is shared without one strict utility sign")
