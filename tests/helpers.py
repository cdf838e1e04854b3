"""Independent oracles and generators used across the test suite.

Everything here is deliberately written from first principles (union-find,
Gaussian elimination, vertex enumeration, naive allocation scans) so tests
never certify library code with the library's own machinery.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from fairdiv.core import (
    ConsumptionGraph,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    utilities,
)
from fairdiv.improve import dominance_welfare_lp
from fairdiv.lp import INFEASIBLE, OPTIMAL, LpProblem, solve
from fairdiv.verify import ADD_ITEM, MEETS_BOUND, REMOVE_ITEM, AgentWitness, PropertyReport

F = Fraction


def fraction_matrix(instance: Instance) -> tuple:
    """The utility matrix as ``Fraction``s: ``u_i(o) = N_i[o] / d_i`` read
    off each integer row ``(d_i, N_i)``."""
    return tuple(tuple(Fraction(v, d) for v in row) for d, row in instance.integer_rows)


# ---------------------------------------------------------------------------
# canonical instances
#
# goods_blocks: one big good A plus two blocks of identical small goods; the
# utilitarian optimum conflicts with proportionality, so it separates PROP1
# from plain welfare maximization. chores_blocks is its mirror with chores.
# identical_items admits no PROPX allocation at all.


def goods_blocks_instance() -> Instance:
    rows = (
        (F(3, 10),) + (F(1, 50),) * 10 + (F(1, 40),) * 20,
        (F(17, 50),) + (F(2, 125),) * 10 + (F(1, 40),) * 20,
        (F(4, 25),) + (F(1, 20),) * 10 + (F(17, 1000),) * 20,
    )
    return Instance(rows)


# owners over item order (A, b1..b10, c1..c20)
GOODS_BLOCKS_X = IntegralAllocation(3, (1,) + (0,) * 10 + (2,) * 20)
GOODS_BLOCKS_Y = IntegralAllocation(3, (0,) + (2,) * 10 + (1,) * 20)


def chores_blocks_instance() -> Instance:
    rows = (
        (F(-1, 25),) * 10 + (F(-1, 2), F(-1, 10)),
        (F(-3, 100),) * 10 + (F(-3, 5), F(-1, 10)),
        (F(-3, 50),) * 10 + (F(-1, 10), F(-3, 10)),
    )
    return Instance(rows)


# owners over item order (a1..a10, B, C)
CHORES_BLOCKS_X = IntegralAllocation(3, (1,) * 10 + (0, 2))
CHORES_BLOCKS_Y = IntegralAllocation(3, (0,) * 10 + (2, 1))


def identical_items_instance() -> Instance:
    return Instance(((3, 3, 3, 3, 1),) * 3)


IDENTICAL_ITEMS_BALANCED = IntegralAllocation(3, (0, 0, 2, 1, 1))


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


def blend(x: FractionalAllocation, y: FractionalAllocation, theta: Fraction) -> FractionalAllocation:
    rows = tuple(
        tuple(theta * a + (1 - theta) * b for a, b in zip(xr, yr))
        for xr, yr in zip(x.fractions, y.fractions)
    )
    return FractionalAllocation(rows)


# ---------------------------------------------------------------------------
# graph oracle


def union_find_is_forest(graph: ConsumptionGraph) -> bool:
    """Acyclicity by union-find, independent of any DFS."""
    n = graph.num_agents
    parent = list(range(n + graph.num_items))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, items in enumerate(graph.agent_items):
        for o in items:
            ri, ro = find(i), find(n + o)
            if ri == ro:
                return False
            parent[ri] = ro
    return True


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
        allocation = allocation.to_fractional()
    u = fraction_matrix(instance)
    for o in instance.items:
        best = max(weights[j] * u[j][o] for j in instance.agents)
        for i in instance.agents:
            if allocation.fractions[i][o] and weights[i] * u[i][o] < best:
                return False
    return True


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
# the library's simplex, which the check they are compared with never calls.


def lp_pareto_improvement_exists(instance: Instance, allocation) -> bool:
    """Is there a fractional allocation weakly better for everyone and
    strictly better in total welfare? Solved as the welfare LP with every
    agent held to its current utility."""
    if isinstance(allocation, IntegralAllocation):
        allocation = allocation.to_fractional()
    solution = solve(dominance_welfare_lp(instance, allocation))
    assert solution.status == OPTIMAL, solution.status
    return solution.value > sum(utilities(instance, allocation), Fraction(0))


def lp_find_welfare_weights(instance: Instance, allocation):
    """Weights lambda >= 1 under which every consumer of every item maximizes
    lambda_i * u_i(o), as a feasibility LP in mu = lambda - 1; None when the
    LP is infeasible."""
    n = instance.num_agents
    if isinstance(allocation, IntegralAllocation):
        allocation = allocation.to_fractional()
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
