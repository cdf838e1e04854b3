import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import improve, lp
from fairdiv.core import (
    FractionalAllocation,
    Instance,
    InvariantViolation,
    consumption_graph,
    find_cycle,
    proportional_share,
    utilities,
)
from fairdiv.improve import improve_to_acyclic_fpo
from fairdiv.lp import LpSolution, solve
from fairdiv.rounding import allocate
from fairdiv.serialize import print_instance
from helpers import (
    check_theorem,
    chores_blocks_instance,
    fraction_matrix,
    goods_blocks_instance,
    improvement_lp,
    is_vertex,
    lp_calls,
    oracle_argmax_is_lp_optimum,
    oracle_total_value,
)
from pins import solve_stdout
from reference_lp import OPTIMAL, LpProblem
from reference_lp import solve as reference_solve
from test_pivot_digests import CORPORA, corpus, corpus_lps

F = Fraction


def test_proportional_seed_gives_entitlement_everywhere():
    # the proportional seed x_io = b_i meets the improvement LP's floors
    # exactly, so the LP is feasible
    inst = Instance([[4, -2], [4, -2], [1, 1]], weights=[2, 1, 1])
    seed = FractionalAllocation(tuple((w,) * inst.num_items for w in inst.weights))
    assert seed.fractions[0] == (F(1, 2), F(1, 2))
    assert seed.fractions[1] == (F(1, 4), F(1, 4))
    assert utilities(inst, seed) == improvement_lp(inst).floors


def test_the_improvement_lp_floors_are_the_proportional_shares():
    # every LP that solve runs on either 2x3 corpus holds each agent to
    # b_i * u_i(M), read off the solve the pivot pins read; and every LP
    # that allocate solves on the p/q one, with the rest of the theorem
    for key in CORPORA:
        for (_, inst), lps in zip(corpus(key), corpus_lps(key)):
            shares = [inst.weights[i] * oracle_total_value(inst, i) for i in inst.agents]
            assert [list(floors) for floors, _ in lps] in ([], [shares])
    check_theorem([inst for _, inst in corpus("corpus-pq")])


def test_welfare_lp_single_item_two_agents():
    # one item worth 1 to agent 0 and -1 to agent 1; vertices of the
    # feasible region are (1/2, 1/2) and (1, 0), so the optimum is 1
    inst = Instance([[1], [-1]])
    problem = improvement_lp(inst)
    assert len(problem.constraints) == 3
    sol = solve(problem)
    assert sol.value == 1
    assert sol.assignment == (1, 0)


@pytest.mark.parametrize("rows, assignment, message", [
    # both agents share both items: a cycle, all values positive
    (((1, 1), (1, 1)), (F(1, 2), F(1, 2), F(1, 2), F(1, 2)),
     "along a cycle closed by agent 1 and item 1$"),
    # a forest, but item 0 is shared by two agents that value it at zero
    (((0, 1, 0), (0, 0, 1)), (F(1, 2), 1, 0, F(1, 2), 0, 1), "sign"),
], ids=["cycle", "zero-shared"])
def test_improve_rejects_an_optimum_that_is_not_a_signed_forest(monkeypatch, rows, assignment,
                                                                message):
    # Each assignment is optimal but not a vertex, so the simplex never
    # returns it; the postcondition must reject it if it ever did.
    inst = Instance(rows)
    duals = (F(0), F(0)) + (None,) * len(rows[0])
    crafted = LpSolution(F(2), assignment, duals, ((), (), ()))
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


def _aggregated_optimum(instance, blocks):
    """The reference solver's optimal value on the aggregated LP, whose
    point must be a vertex of it (test_lp checks the reference solver
    against vertex enumeration)."""
    problem = _aggregated_blocks_lp(instance, blocks)
    oracle = reference_solve(problem)
    assert oracle.status == OPTIMAL and is_vertex(problem, oracle.assignment)
    return oracle.value


def test_goods_blocks_welfare_optimum_is_67_50():
    inst = goods_blocks_instance()
    blocks = [(0,), tuple(range(1, 11)), tuple(range(11, 31))]
    assert _aggregated_optimum(inst, blocks) == F(67, 50)
    sol = solve(improvement_lp(inst))
    assert sol.value == F(67, 50)


def test_chores_blocks_welfare_optimum_is_minus_half():
    inst = chores_blocks_instance()
    blocks = [tuple(range(10)), (10,), (11,)]
    assert _aggregated_optimum(inst, blocks) == F(-1, 2)
    sol = solve(improvement_lp(inst))
    assert sol.value == F(-1, 2)


@pytest.mark.parametrize("make", [goods_blocks_instance, chores_blocks_instance])
def test_improve_reaches_the_welfare_optimum_acyclically(make):
    inst = make()
    x, _ = improve_to_acyclic_fpo(inst)
    assert find_cycle(consumption_graph(x)) is None
    welfare = sum(utilities(inst, x), F(0))
    assert welfare == solve(improvement_lp(inst)).value
    for i, value in enumerate(utilities(inst, x)):
        assert value >= proportional_share(inst, i)


def test_tableau_cell_formula_bounds_the_solvers_tableau():
    # lp.MAX_TABLEAU_CELLS is checked against (n+m)(nm+2n+m+1) before
    # anything is built. The tableau lp._standard_form builds has n + m rows
    # and nm + n + a + 1 columns, a the number of artificials: one per item
    # row and one per agent row with a positive floor. So the formula is an
    # upper bound, met exactly when every agent's floor is positive.
    rng = random.Random(61)
    tight = loose = 0
    for trial in range(120):
        n, m = rng.randint(1, 5), rng.randint(0, 6)
        rows = []
        for _ in range(n):
            row = [rng.randint(-3, 3) for _ in range(m)]
            sign = 1 if trial % 2 else rng.choice((1, 0, -1))
            if m:
                row[0] += sign * rng.randint(1, 5) - sum(row)
            rows.append(row)
        weights = [rng.randint(1, 4) for _ in range(n)] if trial % 3 else None
        inst = Instance(rows, weights)
        tab = lp._standard_form(improvement_lp(inst))[0]
        cells = len(tab) * len(tab[0])
        formula = (n + m) * (n * m + 2 * n + m + 1)
        positive = all(floor > 0 for floor in improvement_lp(inst).floors)
        assert cells <= formula
        assert (cells == formula) == positive, (rows, weights)
        tight += positive
        loose += not positive
    assert tight >= 40 and loose >= 40


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


# ---------------------------------------------------------------------------
# the argmax shortcut: no LP when its unique optimum is the argmax


_GAPS = tuple(range(1, 20)) + (0,)


@st.composite
def _leaning_to_hits(draw):
    """Instances where each item has a favourite agent that values it at
    ``top``; any other agent i values it at ``top - gap / c_i``, a tie
    when the gap is 0, one draw in 20. Each row is scaled by its own
    ``c_i``, so rows have different denominators."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 7))
    scales = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rows = [[] for _ in range(n)]
    for _ in range(m):
        favourite, top = draw(st.integers(0, n - 1)), draw(st.integers(-2, 6))
        for i, c in enumerate(scales):
            gap = 0 if i == favourite else draw(st.sampled_from(_GAPS))
            rows[i].append(F(top * c - gap, c))
    weights = draw(st.none() | st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return Instance(rows, weights)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_leaning_to_hits())
def test_argmax_shortcut_prints_what_the_lp_prints(instance):
    hit = improve._argmax_owners(instance) is not None
    assert hit == oracle_argmax_is_lp_optimum(instance)
    if not hit:
        return
    n, m = instance.num_agents, instance.num_items
    doc = print_instance(instance, [f"a{i}" for i in range(n)], [f"o{j}" for j in range(m)])
    fast = solve_stdout(doc)
    with mock.patch.object(improve, "_argmax_owners", lambda instance: None):
        assert solve_stdout(doc) == fast


@pytest.mark.parametrize("rows, weights", [
    ([[1, 3, 0], [1, 0, 3]], None),  # item 0 has two maximisers
    ([[1, 1], [0, 3]], None),  # agent 0 gets exactly its share 1
    ([[1, 3], [0, 4]], [1, 3]),  # agent 0 gets exactly its share 1/4 * 4
    ([[2, -3, 0]], None),  # one agent gets exactly u(M)
    ([[0, 3, 0], [0, 0, 3]], None),  # everyone values item 0 at 0
], ids=["two-maximisers", "at-share", "at-weighted-share", "one-agent", "all-zero-item"])
def test_argmax_shortcut_leaves_ties_and_equal_shares_to_the_lp(rows, weights):
    # each case skips the LP once its tie or share comparison is relaxed to >=
    instance = Instance(rows, weights)
    assert not oracle_argmax_is_lp_optimum(instance)
    with lp_calls() as calls:
        allocate(instance)
    assert len(calls) == 1


def test_argmax_shortcut_takes_a_chores_only_instance(monkeypatch):
    instance = Instance([[-1, -3, F(-5, 2)], [-3, -1, -3]], weights=[2, 1])
    assert oracle_argmax_is_lp_optimum(instance)
    with lp_calls() as calls:
        fast = allocate(instance)
        assert calls == []
        assert fast.integral.owners == (0, 1, 0)
        assert fast.welfare_weights == (1, 1)
        monkeypatch.setattr(improve, "_argmax_owners", lambda instance: None)
        assert allocate(instance) == fast
    assert len(calls) == 1
