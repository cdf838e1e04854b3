import random
import sys
from fractions import Fraction

import pytest

from fairdiv.core import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InvariantViolation,
    consumption_graph,
    find_cycle,
)
from fairdiv import improve, rounding
from fairdiv.improve import improve_to_acyclic_fpo
from fairdiv.lp import OPTIMAL, LpSolution
from fairdiv.lp import solve as lp_solve
from fairdiv.rounding import (
    DEFAULT_STRATEGY,
    ExplorationStrategy,
    allocate,
    round_acyclic,
)
from fairdiv.verify import is_pareto_optimal_integral, weighted_prop, weighted_prop1
from helpers import (
    chores_blocks_instance,
    forest_fixture,
    goods_blocks_instance,
    rand_instance,
)

F = Fraction

ALL_STRATEGIES = [
    ExplorationStrategy(order=order, root_rule=rule)
    for order in ("bfs", "dfs")
    for rule in ("one-item", "lowest-index")
]


# ---------------------------------------------------------------------------
# exploration strategy validation


def test_strategy_defaults():
    assert DEFAULT_STRATEGY.order == "bfs"
    assert DEFAULT_STRATEGY.root_rule == "one-item"
    assert DEFAULT_STRATEGY.preferred_roots == frozenset()


def test_strategy_rejects_unknown_order():
    with pytest.raises(ValueError):
        ExplorationStrategy(order="random")


def test_strategy_rejects_unknown_root_rule():
    with pytest.raises(ValueError):
        ExplorationStrategy(root_rule="highest-degree")


def test_strategy_normalizes_preferred_roots():
    s = ExplorationStrategy(preferred_roots=[3, 1, 3])
    assert s.preferred_roots == frozenset({1, 3})


def test_round_rejects_preferred_root_out_of_range():
    inst, allocation, _, _ = forest_fixture()
    bad = ExplorationStrategy(preferred_roots={9})
    with pytest.raises(ValueError):
        round_acyclic(inst, allocation, bad)


# ---------------------------------------------------------------------------
# zero-valued items: the improvement LP's vertex never shares one with a
# sharer that values it at zero, and both stages reject a vertex that does


def _lp_returns(monkeypatch, x):
    """Make the improvement LP report the allocation x as its optimum."""
    assignment = tuple(v for row in x.fractions for v in row)
    duals = (F(0),) * x.num_agents + (None,) * x.num_items
    crafted = LpSolution(OPTIMAL, F(0), assignment, frozenset(), duals)
    monkeypatch.setattr(improve, "solve", lambda problem: crafted)


def test_zero_valued_item_goes_to_an_agent_that_values_it(monkeypatch):
    inst = Instance(((0, 4), (0, 1), (5, 1)))
    result = allocate(inst)
    assert result.fractional.fractions[2][0] == 1
    assert result.integral.owners[0] == 2
    # item 0 split between the two agents that value it at zero
    x = FractionalAllocation(((F(1, 2), 1), (F(1, 2), 0), (0, 0)))
    with pytest.raises(ValueError, match="sign"):
        round_acyclic(inst, x)
    _lp_returns(monkeypatch, x)
    with pytest.raises(InvariantViolation, match="sign"):
        improve_to_acyclic_fpo(inst)


def test_zero_resolution_requires_unanimous_zero(monkeypatch):
    # item 0 split between an agent that values it at zero and one that
    # values it at 3: no strict sign, so neither stage accepts it
    inst = Instance(((0, 4), (3, 1)))
    x = FractionalAllocation(((F(1, 2), 1), (F(1, 2), 0)))
    with pytest.raises(ValueError, match="sign"):
        round_acyclic(inst, x)
    _lp_returns(monkeypatch, x)
    with pytest.raises(InvariantViolation, match="sign"):
        improve_to_acyclic_fpo(inst)


def test_unshared_zero_valued_item_is_untouched(monkeypatch):
    inst = Instance(((0, 2), (1, 1)))
    x = IntegralAllocation(2, (0, 1)).to_fractional()
    assert round_acyclic(inst, x) == IntegralAllocation(2, (0, 1))
    _lp_returns(monkeypatch, x)
    improved, _ = improve_to_acyclic_fpo(inst)
    assert improved == x


# ---------------------------------------------------------------------------
# rounding preconditions


def test_round_rejects_cyclic_sharing():
    inst = Instance(((1, 1), (1, 1)))
    half = F(1, 2)
    x = FractionalAllocation(((half, half), (half, half)))
    with pytest.raises(ValueError, match="cycle"):
        round_acyclic(inst, x)


def test_round_rejects_opposed_signs_on_shared_item():
    inst = Instance(((1,), (-1,)))
    x = FractionalAllocation(((F(1, 2),), (F(1, 2),)))
    with pytest.raises(ValueError, match="sign"):
        round_acyclic(inst, x)


def test_round_rejects_zero_valued_shared_item():
    inst = Instance(((0,), (0,)))
    x = FractionalAllocation(((F(1, 2),), (F(1, 2),)))
    with pytest.raises(ValueError, match="sign"):
        round_acyclic(inst, x)


def test_round_rejects_shape_mismatch():
    inst = Instance(((1, 2), (3, 4)))
    x = IntegralAllocation(2, (0,)).to_fractional()
    with pytest.raises(ValueError):
        round_acyclic(inst, x)


def test_round_of_integral_input_is_identity():
    rng = random.Random(7)
    for _ in range(20):
        inst = rand_instance(rng, rng.randint(2, 4), rng.randint(1, 6))
        owners = tuple(rng.randrange(inst.num_agents) for _ in inst.items)
        x = IntegralAllocation(inst.num_agents, owners)
        for strategy in ALL_STRATEGIES:
            assert round_acyclic(inst, x.to_fractional(), strategy).owners == owners


# ---------------------------------------------------------------------------
# the sharing-forest walk


def test_forest_default_walk_owners():
    inst, allocation, default_owners, _ = forest_fixture()
    rounded = round_acyclic(inst, allocation)
    assert rounded.owners == default_owners


def test_forest_forced_roots_owners():
    inst, allocation, _, forced_owners = forest_fixture()
    strategy = ExplorationStrategy(preferred_roots={0, 3})
    rounded = round_acyclic(inst, allocation, strategy)
    assert rounded.owners == forced_owners


def test_forest_every_strategy_gives_items_to_their_consumers():
    inst, allocation, _, _ = forest_fixture()
    for strategy in ALL_STRATEGIES:
        rounded = round_acyclic(inst, allocation, strategy)
        for o in inst.items:
            assert allocation.fractions[rounded.owners[o]][o] > 0


def test_forest_unshared_items_keep_their_owner():
    inst, allocation, _, _ = forest_fixture()
    for strategy in ALL_STRATEGIES:
        rounded = round_acyclic(inst, allocation, strategy)
        for o, column in ((1, 0), (3, 1), (4, 2), (6, 2), (7, 4)):
            assert rounded.owners[o] == column


def test_forest_active_agent_keeps_goods_and_sheds_chores():
    inst, allocation, default_owners, _ = forest_fixture()
    # the root of the first tree shares only the good at index 0 and keeps it
    assert default_owners[0] == 1
    # agent 0 shares the chore at index 2 and passes it to its co-consumer
    assert default_owners[2] == 4


# ---------------------------------------------------------------------------
# full pipeline


def test_pipeline_goods_blocks():
    inst = goods_blocks_instance()
    result = allocate(inst)
    assert result.report.prop1.holds
    assert result.report.fpo_certified
    assert result.report.welfare_weights is not None
    assert weighted_prop(inst, result.fractional).holds
    assert weighted_prop1(inst, result.integral).holds


def test_pipeline_chores_blocks():
    inst = chores_blocks_instance()
    result = allocate(inst)
    assert result.report.prop1.holds
    assert result.report.fpo_certified
    assert result.report.welfare_weights is not None
    assert weighted_prop(inst, result.fractional).holds


def _degenerate_instances(rng):
    """Instances whose welfare LP has many optima: identical rows, rows that
    are positive multiples of one row, and rows that are mostly zeros."""
    yield Instance(((0, 4), (0, 1), (5, 1)))
    yield Instance(((0, 4), (3, 1)))
    yield Instance(((0, 2), (1, 1)))
    for trial in range(30):
        n, m = rng.randint(2, 4), rng.randint(2, 6)
        weights = [rng.randint(1, 5) for _ in range(n)] if trial % 2 else None
        base = [rng.randint(-3, 3) for _ in range(m)]
        if trial % 3 == 0:
            rows = [base] * n
        elif trial % 3 == 1:
            rows = [[F(rng.randint(1, 4), rng.randint(1, 3)) * v for v in base]
                    for _ in range(n)]
        else:
            rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(m)] for _ in range(n)]
        yield Instance(rows, weights)


def test_pipeline_solves_one_lp(monkeypatch):
    calls = []

    def counting(problem):
        calls.append(problem)
        return lp_solve(problem)

    # every module that imported the solver holds its own reference
    for name, module in list(sys.modules.items()):
        if name.startswith("fairdiv") and getattr(module, "solve", None) is lp_solve:
            monkeypatch.setattr(module, "solve", counting)
    rng = random.Random(8)
    instances = [rand_instance(rng, rng.randint(2, 4), rng.randint(2, 6),
                               weight_mode="random" if trial % 2 else "equal")
                 for trial in range(10)]
    instances += _degenerate_instances(random.Random(19))
    for inst in instances:
        calls.clear()
        result = allocate(inst)
        assert len(calls) == 1
        # the LP's vertex is rounded as it is: a forest, one strict sign per shared item
        graph = consumption_graph(result.fractional)
        assert find_cycle(graph) is None
        for o in graph.shared_items():
            assert len({inst.value(i, o) > 0 for i in graph.item_agents[o]}) == 1
            assert all(inst.value(i, o) != 0 for i in graph.item_agents[o])


@pytest.mark.parametrize("bad", [(F(1), F(100)), (F(0), F(1))])
def test_pipeline_rejects_weights_that_do_not_certify(monkeypatch, bad):
    inst = Instance([[4, 1], [1, 4]])
    improve = rounding.improve_to_acyclic_fpo
    monkeypatch.setattr(rounding, "improve_to_acyclic_fpo",
                        lambda instance: (improve(instance)[0], bad))
    with pytest.raises(InvariantViolation):
        allocate(inst)


def test_pipeline_is_deterministic():
    rng = random.Random(41)
    inst = rand_instance(rng, 3, 5, weight_mode="random")
    first = allocate(inst)
    second = allocate(inst)
    assert first.integral.owners == second.integral.owners
    assert first.fractional.fractions == second.fractional.fractions
    assert first.report.welfare_weights == second.report.welfare_weights


def test_pipeline_random_instances_all_strategies():
    rng = random.Random(1009)
    for trial in range(25):
        n = rng.randint(2, 3)
        m = rng.randint(2, 5)
        mode = "equal" if trial % 2 else "random"
        inst = rand_instance(rng, n, m, weight_mode=mode)
        for strategy in ALL_STRATEGIES:
            result = allocate(inst, strategy)
            assert result.report.prop1.holds
            assert result.report.fpo_certified
            assert is_pareto_optimal_integral(inst, result.integral)
            for o in inst.items:
                assert result.fractional.fractions[result.integral.owners[o]][o] > 0


def test_pipeline_fractional_intermediate_is_proportional():
    rng = random.Random(523)
    for _ in range(15):
        inst = rand_instance(rng, rng.randint(2, 4), rng.randint(1, 5),
                             weight_mode="random")
        result = allocate(inst)
        assert weighted_prop(inst, result.fractional).holds
