"""Independent oracles and generators used across the test suite.

Everything here is deliberately written from first principles
(breadth-first search, Gaussian elimination, vertex enumeration, naive
allocation scans) so tests never certify library code with the library's
own machinery. The two LP oracles for fractional Pareto optimality at the
end run the general two-phase simplex in ``reference_lp``, not the
library's simplex, and their section comment says why that is sound.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import random
import sys
from collections import defaultdict, deque
from fractions import Fraction
from pathlib import Path
from unittest import mock

import fairdiv.lp
from fairdiv.core import (
    ConsumptionGraph,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    proportional_share,
    utilities,
)
from fairdiv.verify import ADD_ITEM, MEETS_BOUND, REMOVE_ITEM, AgentWitness, PropertyReport
from reference_lp import INFEASIBLE, OPTIMAL, LpProblem, solve

F = Fraction


def to_fractional(allocation: IntegralAllocation) -> FractionalAllocation:
    """The 0/1 matrix of an integral allocation: x[i][o] = 1 iff i owns o."""
    rows = [[Fraction(0)] * allocation.num_items for _ in range(allocation.num_agents)]
    for o, a in enumerate(allocation.owners):
        rows[a][o] = Fraction(1)
    return FractionalAllocation(tuple(map(tuple, rows)))


@functools.lru_cache(maxsize=16)
def fraction_matrix(instance: Instance) -> tuple:
    """The utility matrix as ``Fraction``s: ``u_i(o) = N_i[o] / d_i`` read
    off each integer row ``(d_i, N_i)``. Built once per instance: the
    oracles each ask for it, and the matrix is immutable."""
    return tuple(tuple(Fraction(v, d) for v in row) for d, row in instance.integer_rows)


# ---------------------------------------------------------------------------
# canonical instances
#
# goods_blocks: one big good A plus two blocks of identical small goods; the
# utilitarian optimum conflicts with proportionality, so it separates PROP1
# from plain welfare maximization. chores_blocks is its mirror with chores.
# identical_items admits no PROPX allocation at all. Each is read from its
# file under fixtures/ with json and Fraction alone, never with the
# library's reader, which test_cli checks against these.

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text("utf-8"))


def _canonical(name: str, *suffixes: str) -> tuple:
    """(instance, {suffix: allocation}): ``fixtures/<name>.json``, its
    utilities and weights read as ``Fraction``s, and each
    ``fixtures/<name>_<suffix>.json``, owners in the instance's item order."""
    doc = _fixture(name)
    instance = Instance([[Fraction(v) for v in row] for row in doc["utilities"]],
                        [Fraction(agent["weight"]) for agent in doc["agents"]])
    agents = [agent["id"] for agent in doc["agents"]]
    allocations = {}
    for suffix in suffixes:
        owner = _fixture(f"{name}_{suffix}")["owner"]
        allocations[suffix] = IntegralAllocation(
            len(agents), tuple(agents.index(owner[o]) for o in doc["items"]))
    return instance, allocations


# each canonical instance by its fixture name, with its allocations by suffix
CANONICAL = {
    "goods_blocks": _canonical("goods_blocks", "x", "y"),
    "chores_blocks": _canonical("chores_blocks", "x", "y"),
    "identical_items": _canonical("identical_items", "balanced"),
}
GOODS_BLOCKS_X, GOODS_BLOCKS_Y = CANONICAL["goods_blocks"][1].values()
CHORES_BLOCKS_X, CHORES_BLOCKS_Y = CANONICAL["chores_blocks"][1].values()
(IDENTICAL_ITEMS_BALANCED,) = CANONICAL["identical_items"][1].values()


def goods_blocks_instance() -> Instance:
    return CANONICAL["goods_blocks"][0]


def chores_blocks_instance() -> Instance:
    return CANONICAL["chores_blocks"][0]


def identical_items_instance() -> Instance:
    return CANONICAL["identical_items"][0]


def forest_fixture():
    """Five agents, items a..h, sharing forest with two trees.

    Tree one: 2 - a - 1 - {b, c - 5 - h}, plus d hanging off agent 2.
    Tree two: 3 - {e, f - 4, g}. Shared items are a (agents 1,2), c (1,5)
    and f (3,4), each split half-half; sharers agree in sign everywhere.
    Returns (instance, allocation, owners), owners over item order a..h
    with 0-based agents.
    """
    signs = (
        (+1, +1, -1, +1, -1, +1, +1, +1),
        (+1, -1, -1, +1, -1, +1, +1, +1),
        (+1, +1, -1, -1, -1, +1, +1, -1),
        (-1, +1, -1, -1, -1, +1, +1, -1),
        (-1, -1, -1, +1, -1, -1, +1, +1),
    )
    instance = Instance(signs)
    h = F(1, 2)
    z = F(0)
    rows = (
        (h, 1, h, z, z, z, z, z),
        (h, z, z, 1, z, z, z, z),
        (z, z, z, z, 1, h, 1, z),
        (z, z, z, z, z, h, z, z),
        (z, z, h, z, z, z, z, 1),
    )
    allocation = FractionalAllocation(rows)
    owners = (1, 0, 4, 1, 2, 2, 2, 4)
    return instance, allocation, owners


# ---------------------------------------------------------------------------
# random generators


def rand_instance(rng: random.Random, n: int, m: int, lo: int = -5, hi: int = 5,
                  weight_mode: str = "equal") -> Instance:
    utilities = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]
    if weight_mode == "equal":
        weights = None
    elif weight_mode == "random":
        weights = [Fraction(rng.randint(1, 20)) for _ in range(n)]
    else:
        raise ValueError(weight_mode)
    return Instance(utilities, weights)


def rand_fractional(rng: random.Random, n: int, m: int) -> FractionalAllocation:
    """Random allocation: each item split over a random nonempty agent subset."""
    rows = [[Fraction(0)] * m for _ in range(n)]
    for o in range(m):
        k = rng.randint(1, n)
        consumers = rng.sample(range(n), k)
        parts = [rng.randint(1, 5) for _ in consumers]
        total = sum(parts)
        for i, p in zip(consumers, parts):
            rows[i][o] = Fraction(p, total)
    return FractionalAllocation(tuple(tuple(r) for r in rows))


def rand_sharing_forest(rng: random.Random, n: int, m: int):
    """Random (instance, allocation) whose sharing graph is a forest with one
    strict sign per shared item, as rounding requires.

    Each item is either owned outright by a random agent or split among 2-4
    agents drawn from pairwise different trees, so the sharing graph stays
    a forest, usually of several trees; some agents share nothing and some
    consume nothing. Utilities are random in [-3, 3], except that every
    sharer of an item values it with the item's strict sign.
    """
    tree = list(range(n))

    def find(a):
        while tree[a] != a:
            a = tree[a]
        return a

    values = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    rows = [[Fraction(0)] * m for _ in range(n)]
    for o in range(m):
        roots = {}
        for a in rng.sample(range(n), n):
            roots.setdefault(find(a), a)
        k = min(rng.choice((1, 1, 2, 2, 3, 4)), len(roots))
        sharers = rng.sample(sorted(roots.values()), k)
        sign = rng.choice((1, -1))
        parts = [rng.randint(1, 4) for _ in sharers]
        for a, p in zip(sharers, parts):
            rows[a][o] = Fraction(p, sum(parts))
            if k > 1:
                values[a][o] = sign * rng.randint(1, 3)
                tree[find(a)] = find(sharers[0])
    allocation = FractionalAllocation(tuple(tuple(r) for r in rows))
    return Instance(values), allocation


def rand_lp(rng: random.Random):
    """Random bounded feasible LP: a box plus a few rows satisfied at the origin.

    The origin is feasible by construction (<= rows get nonnegative rhs,
    >= rows nonpositive rhs, = rows zero rhs) and the box keeps the region
    bounded, so vertex enumeration is a complete oracle. Zero right-hand
    sides make the origin degenerate, which stresses anti-cycling.
    """
    k = rng.randint(1, 4)
    cons = []
    for v in range(k):
        unit = [Fraction(1) if j == v else Fraction(0) for j in range(k)]
        cons.append((unit, "<=", Fraction(rng.randint(1, 6))))
    for _ in range(rng.randint(0, 6 - k)):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(k)]
        rel = rng.choice(["<=", ">=", "="])
        if rel == "<=":
            rhs = Fraction(rng.randint(0, 8))
        elif rel == ">=":
            rhs = Fraction(-rng.randint(0, 8))
        else:
            rhs = Fraction(0)
        cons.append((coeffs, rel, rhs))
    objective = [Fraction(rng.randint(-5, 5)) for _ in range(k)]
    return LpProblem(k, tuple(objective), tuple(cons))


def improvement_lp(instance: Instance) -> fairdiv.lp.LpProblem:
    """The library's statement of the LP ``improve_to_acyclic_fpo`` solves:
    agent i's floor is its proportional share ``b_i * u_i(M)``."""
    return fairdiv.lp.LpProblem(instance, [proportional_share(instance, i)
                                           for i in instance.agents])


@contextlib.contextmanager
def lp_calls():
    """Yield a list that gets every problem ``fairdiv.lp.solve`` is asked to
    solve meanwhile. Each ``fairdiv`` module that imported the solver holds
    its own reference, so each one's is swapped."""
    solve_lp, problems = fairdiv.lp.solve, []

    def recorded(problem):
        problems.append(problem)
        return solve_lp(problem)

    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("fairdiv") and getattr(module, "solve", None) is solve_lp:
                stack.enter_context(mock.patch.object(module, "solve", recorded))
        yield problems


def general_welfare_lp(instance: Instance, floors) -> LpProblem:
    """The improvement LP that ``fairdiv.lp.LpProblem(instance, floors)``
    states, written out as the reference solver reads a program: max total
    welfare s.t. agent i's utility >= ``floors[i]`` and every item fully
    allocated. Variables are x[i][o] flattened to index i*m + o;
    coefficient ``u_i(o)`` is ``Fraction(N_i[o], d_i)`` from the integer
    rows."""
    n, m = instance.num_agents, instance.num_items
    num_vars = n * m
    zero = Fraction(0)
    objective = [v for row in fraction_matrix(instance) for v in row]
    constraints = []
    for i, floor in enumerate(floors):
        coeffs = [zero] * num_vars
        coeffs[i * m:(i + 1) * m] = objective[i * m:(i + 1) * m]
        constraints.append((tuple(coeffs), ">=", floor))
    for o in range(m):
        coeffs = [zero] * num_vars
        for i in range(n):
            coeffs[i * m + o] = Fraction(1)
        constraints.append((tuple(coeffs), "=", Fraction(1)))
    return LpProblem(num_vars, tuple(objective), tuple(constraints))


def blend(x: FractionalAllocation, y: FractionalAllocation, theta: Fraction) -> FractionalAllocation:
    rows = tuple(
        tuple(theta * a + (1 - theta) * b for a, b in zip(xr, yr))
        for xr, yr in zip(x.fractions, y.fractions)
    )
    return FractionalAllocation(rows)


# ---------------------------------------------------------------------------
# graph oracle


def _reach(edges, start) -> set:
    """The vertices that ``edges`` join to ``start``, found breadth-first;
    agent i is ("agent", i) and item o is ("item", o)."""
    adjacent = defaultdict(list)
    for i, o in edges:
        adjacent["agent", i].append(("item", o))
        adjacent["item", o].append(("agent", i))
    seen, queue = {start}, deque([start])
    while queue:
        for w in adjacent[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def graph_edges(graph: ConsumptionGraph) -> list:
    """Edges ``(agent, item)``: agents by index, each agent's items ascending."""
    return [(i, o) for i, items in enumerate(graph.agent_items) for o in items]


def oracle_closing_edge(graph: ConsumptionGraph):
    """The first edge whose two ends a breadth-first search over the edges
    before it already joins, or None on a forest: a fresh search per edge,
    with no union-find."""
    edges = graph_edges(graph)
    for k, (i, o) in enumerate(edges):
        if ("item", o) in _reach(edges[:k], ("agent", i)):
            return i, o
    return None


def oracle_components(graph: ConsumptionGraph) -> tuple:
    """(vertices on some edge, connected components among them)."""
    edges = graph_edges(graph)
    left = {("agent", i) for i, _ in edges} | {("item", o) for _, o in edges}
    touched, components = len(left), 0
    while left:
        left -= _reach(edges, min(left))
        components += 1
    return touched, components


def oracle_round(instance: Instance, allocation: FractionalAllocation) -> tuple:
    """Owners the rounding rule gives, computed from BFS distances.

    Each tree of the sharing graph (agents and items consumed by two or
    more agents) is rooted at its lowest-index agent that shares exactly
    one item. A shared good goes to its consumer nearest the root, a
    shared chore to the lowest-index consumer other than that one, and an
    unshared item stays with its only consumer.
    """
    n, m = instance.num_agents, instance.num_items
    consumers = [[i for i in range(n) if allocation.fractions[i][o] > 0] for o in range(m)]
    shared = [o for o in range(m) if len(consumers[o]) > 1]
    shares = [[o for o in shared if i in consumers[o]] for i in range(n)]
    depth = {}
    for root in range(n):
        if len(shares[root]) != 1 or root in depth:
            continue
        depth[root] = 0
        frontier = [root]
        while frontier:
            following = []
            for a in frontier:
                for o in shares[a]:
                    for b in consumers[o]:
                        if b not in depth:
                            depth[b] = depth[a] + 1
                            following.append(b)
            frontier = following
    u = fraction_matrix(instance)
    owners = [c[0] for c in consumers]
    for o in shared:
        nearest = min(consumers[o], key=lambda a: depth[a])
        if u[nearest][o] > 0:
            owners[o] = nearest
        else:
            owners[o] = min(a for a in consumers[o] if a != nearest)
    return tuple(owners)


# ---------------------------------------------------------------------------
# exact linear algebra


def solve_square(matrix: list, rhs: list):
    """Solve A x = b exactly by Gaussian elimination; None if singular."""
    k = len(matrix)
    aug = [list(row) + [rhs[r]] for r, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(k)]


def matrix_rank(rows: list) -> int:
    """Rank of a rational matrix, by elimination."""
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# LP oracle: exhaustive vertex enumeration


def vertex_enumeration_optimum(problem):
    """Optimal value and argmax vertex of a bounded feasible LP, by brute force.

    Every vertex of the feasible region is the unique solution of some
    square system of tight constraints, so enumerating all k-subsets of
    {constraint rows} union {nonnegativity rows}, solving each exactly and
    filtering by feasibility visits every vertex. Returns (value, point)
    maximizing the objective, or None when no vertex is feasible. Only
    sensible for small problems; intended as an oracle for the simplex.
    """
    k = problem.num_vars
    candidates = [(list(coeffs), rhs) for coeffs, _, rhs in problem.constraints]
    candidates += [([Fraction(1) if j == v else Fraction(0) for j in range(k)], Fraction(0))
                   for v in range(k)]
    best = None
    seen = set()
    for chosen in itertools.combinations(candidates, k):
        point = solve_square([c for c, _ in chosen], [b for _, b in chosen])
        if point is None:
            continue
        key = tuple(point)
        if key in seen:
            continue
        seen.add(key)
        if not _feasible(problem, point):
            continue
        value = sum(c * x for c, x in zip(problem.objective, point))
        if best is None or value > best[0]:
            best = (value, tuple(point))
    return best


def _feasible(problem, point) -> bool:
    if any(x < 0 for x in point):
        return False
    for coeffs, rel, rhs in problem.constraints:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        if rel == "<=" and lhs > rhs:
            return False
        if rel == ">=" and lhs < rhs:
            return False
        if rel == "=" and lhs != rhs:
            return False
    return True


def is_vertex(problem, point) -> bool:
    """Tight-constraint rank check: the point is an extreme point iff the
    active constraint normals span the full variable space."""
    k = problem.num_vars
    if k == 0:
        return True
    tight = []
    for coeffs, rel, rhs in problem.constraints:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        if rel == "=" or lhs == rhs:
            tight.append(list(coeffs))
    for v in range(k):
        if point[v] == 0:
            tight.append([Fraction(1) if j == v else Fraction(0) for j in range(k)])
    if not tight:
        return False
    return matrix_rank(tight) == k


# ---------------------------------------------------------------------------
# Fraction oracles for the proportionality checkers
#
# The library checkers compare on each agent's integer row. These are the
# plain Fraction definitions they replaced: sum the bundle, build every
# adjustment, compare rationals. They return the same PropertyReport, so a
# test can compare the two witness by witness.


def oracle_total_value(instance: Instance, agent: int) -> Fraction:
    return sum(fraction_matrix(instance)[agent], Fraction(0))


def _oracle_bundle_value(row, owners, agent: int) -> Fraction:
    return sum((row[o] for o, a in enumerate(owners) if a == agent), Fraction(0))


def oracle_weighted_prop(instance: Instance, allocation: IntegralAllocation):
    witnesses = []
    for i, row in enumerate(fraction_matrix(instance)):
        value = _oracle_bundle_value(row, allocation.owners, i)
        bound = instance.weights[i] * sum(row, Fraction(0))
        ok = value >= bound
        witnesses.append(AgentWitness(i, ok, MEETS_BOUND if ok else None, None,
                                      value, bound, value))
    return PropertyReport("weighted-prop", all(w.satisfied for w in witnesses),
                          tuple(witnesses))


def oracle_weighted_prop1(instance: Instance, allocation: IntegralAllocation):
    u = fraction_matrix(instance)
    witnesses = []
    for i in instance.agents:
        row = u[i]
        value = _oracle_bundle_value(row, allocation.owners, i)
        bound = instance.weights[i] * sum(row, Fraction(0))
        unowned = [o for o in instance.items if allocation.owners[o] != i]
        owned = [o for o in instance.items if allocation.owners[o] == i]
        best_add = max(unowned, key=lambda o: (row[o], -o)) if unowned else None
        best_rm = min(owned, key=lambda o: (row[o], o)) if owned else None

        if value >= bound:
            w = AgentWitness(i, True, MEETS_BOUND, None, value, bound, value)
        elif best_add is not None and value + row[best_add] >= bound:
            w = AgentWitness(i, True, ADD_ITEM, best_add, value, bound,
                             value + row[best_add])
        elif best_rm is not None and value - row[best_rm] >= bound:
            w = AgentWitness(i, True, REMOVE_ITEM, best_rm, value, bound,
                             value - row[best_rm])
        else:
            options = [(value, None, None)]
            if best_add is not None:
                options.append((value + row[best_add], ADD_ITEM, best_add))
            if best_rm is not None:
                options.append((value - row[best_rm], REMOVE_ITEM, best_rm))
            adjusted, rule, item = max(options, key=lambda t: t[0])
            w = AgentWitness(i, False, rule, item, value, bound, adjusted)
        witnesses.append(w)
    return PropertyReport("weighted-prop1", all(w.satisfied for w in witnesses),
                          tuple(witnesses))


def oracle_propx(instance: Instance, allocation: IntegralAllocation):
    n = instance.num_agents
    u = fraction_matrix(instance)
    witnesses = []
    for i in instance.agents:
        row = u[i]
        value = _oracle_bundle_value(row, allocation.owners, i)
        bound = sum(row, Fraction(0)) / n
        adjustments = []
        for o in instance.items:
            if allocation.owners[o] == i and row[o] < 0:
                adjustments.append((value - row[o], o, REMOVE_ITEM))
            elif allocation.owners[o] != i and row[o] > 0:
                adjustments.append((value + row[o], o, ADD_ITEM))
        if not adjustments:
            witnesses.append(AgentWitness(i, value >= bound, MEETS_BOUND, None,
                                          value, bound, value))
            continue
        adjusted, item, rule = min(adjustments)
        ok = adjusted >= bound
        if ok and value >= bound:
            witnesses.append(AgentWitness(i, True, MEETS_BOUND, None, value, bound, value))
        else:
            witnesses.append(AgentWitness(i, ok, rule, item, value, bound, adjusted))
    return PropertyReport("propx", all(w.satisfied for w in witnesses), tuple(witnesses))


def oracle_weights_certify(instance: Instance, allocation, weights) -> bool:
    """Does every consumer of every item attain max_j weights[j] * u_j(o)?
    The plain Fraction replay: no consumer may fall below the maximum."""
    if isinstance(allocation, IntegralAllocation):
        allocation = to_fractional(allocation)
    u = fraction_matrix(instance)
    for o in instance.items:
        best = max(weights[j] * u[j][o] for j in instance.agents)
        for i in instance.agents:
            if allocation.fractions[i][o] and weights[i] * u[i][o] < best:
                return False
    return True


def oracle_argmax_is_lp_optimum(instance: Instance) -> bool:
    """Is the improvement LP's optimum the utilitarian argmax, with no LP?
    True iff every item has exactly one agent of largest ``Fraction`` value
    and, giving each item to it, every agent gets strictly more than
    ``b_i * u_i(M)``."""
    u = fraction_matrix(instance)
    got = [Fraction(0)] * instance.num_agents
    for o in instance.items:
        column = [u[i][o] for i in instance.agents]
        best = max(column)
        if column.count(best) != 1:
            return False
        got[column.index(best)] += best
    return all(got[i] > instance.weights[i] * sum(u[i], Fraction(0)) for i in instance.agents)


def oracle_pareto_dominates(instance: Instance, better: IntegralAllocation,
                            worse: IntegralAllocation) -> bool:
    u = fraction_matrix(instance)
    a = [_oracle_bundle_value(u[i], better.owners, i) for i in instance.agents]
    b = [_oracle_bundle_value(u[i], worse.owners, i) for i in instance.agents]
    return all(x >= y for x, y in zip(a, b)) and a != b


def oracle_is_pareto_optimal(instance: Instance, allocation: IntegralAllocation) -> bool:
    """The naive product scan: no owner assignment of all n**m gives every
    agent at least its bundle value and some agent more."""
    for owners in itertools.product(instance.agents, repeat=instance.num_items):
        if oracle_pareto_dominates(instance, IntegralAllocation(instance.num_agents, owners),
                                   allocation):
            return False
    return True


# ---------------------------------------------------------------------------
# LP oracles for fractional Pareto optimality
#
# verify decides fPO with a combinatorial ratio-graph check. These are the
# two LP formulations it replaced, kept as independent references: one asks
# for a Pareto improvement directly, the other for welfare weights. They run
# the reference simplex in reference_lp, which shares no solver code with
# the library and which the check they are compared with never calls, so a
# fault in one cannot hide a fault in the other; the reference itself is
# checked against vertex enumeration above
# (test_acceptance.py::test_simplex_agrees_with_vertex_enumeration).


def lp_pareto_improvement_exists(instance: Instance, allocation) -> bool:
    """Is there a fractional allocation weakly better for everyone and
    strictly better in total welfare? Solved as the welfare LP with every
    agent held to its current utility."""
    if isinstance(allocation, IntegralAllocation):
        allocation = to_fractional(allocation)
    solution = solve(general_welfare_lp(instance, utilities(instance, allocation)))
    assert solution.status == OPTIMAL, solution.status
    return solution.value > sum(utilities(instance, allocation), Fraction(0))


def lp_find_welfare_weights(instance: Instance, allocation):
    """Weights lambda >= 1 under which every consumer of every item maximizes
    lambda_i * u_i(o), as a feasibility LP in mu = lambda - 1; None when the
    LP is infeasible."""
    n = instance.num_agents
    if isinstance(allocation, IntegralAllocation):
        allocation = to_fractional(allocation)
    u = fraction_matrix(instance)
    rows = set()
    for o in instance.items:
        for i in instance.agents:
            if not allocation.fractions[i][o]:
                continue
            ui = u[i][o]
            for j in instance.agents:
                uj = u[j][o]
                if j != i and not (ui >= 0 and uj <= 0):
                    rows.add((i, ui, j, uj))
    zero = Fraction(0)
    constraints = []
    for i, ui, j, uj in sorted(rows):
        coeffs = [zero] * n
        coeffs[i] += ui
        coeffs[j] -= uj
        constraints.append((tuple(coeffs), ">=", uj - ui))
    solution = solve(LpProblem(n, tuple([zero] * n), tuple(constraints)))
    if solution.status == INFEASIBLE:
        return None
    assert solution.status == OPTIMAL, solution.status
    return tuple(mu + 1 for mu in solution.assignment)
