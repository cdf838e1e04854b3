import random
from fractions import Fraction

import pytest

from fairdiv import improve
from fairdiv.core import (
    Instance,
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
from fairdiv.lp import OPTIMAL, LpProblem, LpSolution, solve
from helpers import (
    chores_blocks_instance,
    fraction_matrix,
    goods_blocks_instance,
    rand_instance,
    vertex_enumeration_optimum,
)

F = Fraction


def test_proportional_seed_gives_entitlement_everywhere():
    inst = Instance([[4, -2], [4, -2], [1, 1]], weights=[2, 1, 1])
    seed = proportional_seed(inst)
    assert seed.fractions[0] == (F(1, 2), F(1, 2))
    assert seed.fractions[1] == (F(1, 4), F(1, 4))
    for i in inst.agents:
        assert utility(inst, seed, i) == proportional_share(inst, i)


def test_welfare_lp_single_item_two_agents():
    # one item worth 1 to agent 0 and -1 to agent 1; vertices of the
    # feasible region are (1/2, 1/2) and (1, 0), so the optimum is 1
    inst = Instance([[1], [-1]])
    problem = dominance_welfare_lp(inst, proportional_seed(inst))
    assert len(problem.constraints) == 3
    sol = solve(problem)
    assert sol.value == 1
    assert sol.assignment == (1, 0)


@pytest.mark.parametrize("rows, assignment, message", [
    # both agents share both items: a cycle, all values positive
    (((1, 1), (1, 1)), (F(1, 2), F(1, 2), F(1, 2), F(1, 2)), "cycle"),
    # a forest, but item 0 is shared by two agents that value it at zero
    (((0, 1, 0), (0, 0, 1)), (F(1, 2), 1, 0, F(1, 2), 0, 1), "sign"),
], ids=["cycle", "zero-shared"])
def test_improve_rejects_an_optimum_that_is_not_a_signed_forest(monkeypatch, rows, assignment,
                                                                message):
    # Each assignment is optimal but not a vertex, so the simplex never
    # returns it; the postcondition must reject it if it ever did.
    inst = Instance(rows)
    duals = (F(0), F(0)) + (None,) * len(rows[0])
    crafted = LpSolution(OPTIMAL, F(2), assignment, frozenset(), duals)
    monkeypatch.setattr(improve, "solve", lambda problem: crafted)
    with pytest.raises(InvariantViolation, match=message):
        improve_to_acyclic_fpo(inst)


def _aggregated_blocks_lp(instance, blocks):
    """Collapse blocks of per-agent-identical items into one variable each.

    Items inside a block have equal value to every agent, so any feasible
    point of the full LP aggregates to a feasible point of this one with the
    same welfare and vice versa; the optima coincide.
    """
    n = instance.num_agents
    k = len(blocks)
    u = fraction_matrix(instance)
    group_value = [[u[i][block[0]] * len(block) for block in blocks]
                   for i in range(n)]
    num_vars = n * k
    zero = F(0)
    objective = [zero] * num_vars
    cons = []
    for i in range(n):
        row = [zero] * num_vars
        for g in range(k):
            row[i * k + g] = group_value[i][g]
            objective[i * k + g] = group_value[i][g]
        cons.append((tuple(row), ">=", instance.total_value(i) * instance.weights[i]))
    for g in range(k):
        row = [zero] * num_vars
        for i in range(n):
            row[i * k + g] = F(1)
        cons.append((tuple(row), "=", F(1)))
    return LpProblem(num_vars, tuple(objective), tuple(cons))


def test_goods_blocks_welfare_optimum_is_67_50():
    inst = goods_blocks_instance()
    blocks = [(0,), tuple(range(1, 11)), tuple(range(11, 31))]
    oracle_value, _ = vertex_enumeration_optimum(_aggregated_blocks_lp(inst, blocks))
    assert oracle_value == F(67, 50)
    sol = solve(dominance_welfare_lp(inst, proportional_seed(inst)))
    assert sol.value == F(67, 50)


def test_chores_blocks_welfare_optimum_is_minus_half():
    inst = chores_blocks_instance()
    blocks = [tuple(range(10)), (10,), (11,)]
    oracle_value, _ = vertex_enumeration_optimum(_aggregated_blocks_lp(inst, blocks))
    assert oracle_value == F(-1, 2)
    sol = solve(dominance_welfare_lp(inst, proportional_seed(inst)))
    assert sol.value == F(-1, 2)


@pytest.mark.parametrize("make", [goods_blocks_instance, chores_blocks_instance])
def test_improve_reaches_the_welfare_optimum_acyclically(make):
    inst = make()
    x, _ = improve_to_acyclic_fpo(inst)
    assert find_cycle(consumption_graph(x)) is None
    welfare = sum(utilities(inst, x), F(0))
    assert welfare == solve(dominance_welfare_lp(inst, proportional_seed(inst))).value
    for i in inst.agents:
        assert utility(inst, x, i) >= proportional_share(inst, i)


def test_improve_postconditions_on_random_instances():
    rng = random.Random(31)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(0, 6)
        mode = rng.choice(["equal", "random"])
        inst = rand_instance(rng, n, m, weight_mode=mode)
        seed = proportional_seed(inst)
        x, weights = improve_to_acyclic_fpo(inst)
        graph = consumption_graph(x)
        assert find_cycle(graph) is None
        for i in inst.agents:
            assert utility(inst, x, i) >= utility(inst, seed, i)
            assert utility(inst, x, i) >= proportional_share(inst, i)
        welfare = sum(utilities(inst, x), F(0))
        assert welfare == solve(dominance_welfare_lp(inst, seed)).value
        u = fraction_matrix(inst)
        for o in graph.shared_items():
            signs = {(u[i][o] > 0) - (u[i][o] < 0)
                     for i in graph.item_agents[o]}
            assert len(signs) == 1
        # the dual weights are >= 1 and every consumer maximizes lambda * u
        assert len(weights) == n and all(w >= 1 for w in weights)
        for o in inst.items:
            best = max(weights[j] * u[j][o] for j in inst.agents)
            for i in graph.item_agents[o]:
                assert weights[i] * u[i][o] == best


def test_improve_is_deterministic():
    rng = random.Random(77)
    inst = rand_instance(rng, 3, 5)
    assert improve_to_acyclic_fpo(inst) == improve_to_acyclic_fpo(inst)


def test_improve_single_agent_takes_everything():
    inst = Instance([[2, -3, 0]])
    x, weights = improve_to_acyclic_fpo(inst)
    assert x.fractions == ((1, 1, 1),)
    assert len(weights) == 1 and weights[0] >= 1


def test_improve_with_no_items():
    inst = Instance([[], [], []])
    x, weights = improve_to_acyclic_fpo(inst)
    assert x.num_items == 0
    assert weights == (1, 1, 1)
    assert utilities(inst, x) == (0, 0, 0)
