"""Improvement stage: from the proportional shares to an acyclic fPO allocation.

The improvement LP maximizes utilitarian welfare subject to every item
being fully allocated and every agent i getting at least its weighted
proportional share ``b_i * u_i(M)``. The proportional seed ``x_io = b_i``,
which hands every agent its entitlement share of every item, meets those
floors exactly, so the LP is feasible. Its optimum is fractionally Pareto
optimal: any Pareto improvement on it would itself be feasible and have
strictly larger welfare. The same LP also certifies it: its optimal duals
on the agent rows are positive welfare weights under which every consumer
of every item is a maximizer, so the pipeline needs no second LP to prove
fPO.

At most one exact simplex solve does the whole stage. Its optimal vertex
already has a forest as consumption graph, with one strict utility sign on
every shared item (see ``improve_to_acyclic_fpo``), and both facts are
checked as a postcondition on the solve. The solve is skipped when every
item has exactly one agent valuing it most and that argmax allocation
leaves every agent strictly above its share: the argmax is then the LP's
unique optimum, read off in O(nm), with every welfare weight 1.
"""

from __future__ import annotations

from fractions import Fraction

from fairdiv.core import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InvariantViolation,
    _mixed_sign_item,
    consumption_graph,
    find_cycle,
    proportional_share,
    utilities,
)
from fairdiv.lp import LpProblem, solve


def dominance_welfare_lp(instance: Instance, baseline: FractionalAllocation) -> LpProblem:
    """LP over allocations: max total welfare s.t. nobody falls below their
    baseline utility and items are fully allocated. ``LpProblem`` states it
    as the instance and the baseline utilities, the agents' floors."""
    return LpProblem(instance, utilities(instance, baseline))


def improve_to_acyclic_fpo(instance: Instance) -> tuple:
    """Compute a fractional allocation that gives every agent at least its
    proportional share, is fractionally Pareto optimal, and whose
    consumption graph is a forest.

    Returns ``(allocation, weights)``. The allocation is weighted-proportional
    by the LP's floors. Deterministic, because the simplex is.

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

    The LP is not solved when ``_argmax_owners`` finds its optimum first:
    every item o has exactly one agent a(o) with the largest u_a(o), and the
    argmax allocation x*, giving each o to a(o), leaves every agent i
    strictly above its share b_i * u_i(M). Every feasible x has
    ``sum_o sum_i u_i(o) x_io <= sum_o max_i u_i(o)``, since each column
    of x sums to 1, with equality only if each o goes wholly to a(o), that
    is x = x*. As x* meets every row, it is the LP's unique optimum, so
    every solver returns it (Mangasarian, "Uniqueness of solution in linear
    programming", 1979).
    Every agent row is strictly slack at x*, so complementary slackness
    sets pi_i = 0 in every optimal dual solution, and every weight is 1.
    The returned ``(x*, (1, ..., 1))`` is what the simplex would return; it
    is integral, so the vertex postcondition below holds on it trivially,
    and it is still checked.

    Raises ValueError when the LP's tableau would exceed
    ``lp.MAX_TABLEAU_CELLS``. ``LpProblem`` checks it, and the problem is
    stated before the argmax test, so that what is accepted depends on n
    and m alone.
    """
    n, m = instance.num_agents, instance.num_items
    problem = LpProblem(instance, [proportional_share(instance, i) for i in instance.agents])
    owners = _argmax_owners(instance)
    if owners is None:
        solution = solve(problem)
        x = FractionalAllocation(tuple(solution.assignment[i * m:(i + 1) * m]
                                       for i in range(n)))
        weights = tuple(1 - pi for pi in solution.duals[:n])
    else:
        one, zero = Fraction(1), Fraction(0)
        x = FractionalAllocation(tuple(tuple(one if a == i else zero for a in owners)
                                       for i in range(n)))
        weights = (one,) * n
    _check_shared_items_same_sign(instance, x)
    return x, weights


def _argmax_owners(instance: Instance):
    """The owner of every item in the utilitarian argmax allocation, when
    each item has exactly one agent valuing it most and every agent gets
    strictly more than its share ``b_i * u_i(M)``; None otherwise.
    One agent never passes: it gets exactly ``u(M) = b * u(M)``.
    """
    rows = instance.integer_rows
    owners = []
    for o in range(instance.num_items):
        best, (d_best, row_best), tied = 0, rows[0], False
        for i in range(1, len(rows)):
            d, row = rows[i]
            diff = row[o] * d_best - row_best[o] * d
            if diff > 0:
                best, d_best, row_best, tied = i, d, row, False
            elif diff == 0:
                tied = True
        if tied:
            return None
        owners.append(best)
    got = utilities(instance, IntegralAllocation(len(rows), owners))
    if all(g > proportional_share(instance, i) for i, g in enumerate(got)):
        return owners
    return None


def _check_shared_items_same_sign(instance: Instance, x: FractionalAllocation) -> None:
    """The vertex postcondition proved in ``improve_to_acyclic_fpo``: no
    cycle of shared items, and one strict utility sign per shared item."""
    graph = consumption_graph(x)
    edge = find_cycle(graph)
    if edge is not None:
        raise InvariantViolation("the improvement LP vertex shares items along a cycle "
                                 "closed by agent {} and item {}".format(*edge))
    o = _mixed_sign_item(instance, graph)
    if o is not None:
        raise InvariantViolation(f"item {o} is shared without one strict utility sign")
