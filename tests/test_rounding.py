import random
import sys
from fractions import Fraction

import pytest

from fairdiv.core import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InvariantViolation,
    utilities,
)
from fairdiv import rounding
from fairdiv.lp import solve as lp_solve
from fairdiv.rounding import (
    DEFAULT_STRATEGY,
    ExplorationStrategy,
    allocate,
    resolve_zero_items,
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
# zero-item resolution


def test_zero_shared_item_goes_to_lowest_sharer():
    inst = Instance(((0, 4), (0, 1), (5, 1)))
    x = FractionalAllocation((
        (F(1, 2), 1),
        (F(1, 2), 0),
        (0, 0),
    ))
    before = utilities(inst, x)
    resolved = resolve_zero_items(inst, x)
    assert resolved.fractions[0][0] == 1
    assert resolved.fractions[1][0] == 0
    assert utilities(inst, resolved) == before


def test_zero_resolution_requires_unanimous_zero():
    inst = Instance(((0, 4), (3, 1)))
    x = FractionalAllocation((
        (F(1, 2), 1),
        (F(1, 2), 0),
    ))
    with pytest.raises(InvariantViolation):
        resolve_zero_items(inst, x)


def test_zero_resolution_leaves_clean_allocations_alone():
    inst, allocation, _, _ = forest_fixture()
    assert resolve_zero_items(inst, allocation) is allocation


def test_unshared_zero_valued_item_is_untouched():
    inst = Instance(((0, 2), (1, 1)))
    x = IntegralAllocation(2, (0, 1)).to_fractional()
    assert resolve_zero_items(inst, x) is x


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
    for trial in range(10):
        inst = rand_instance(rng, rng.randint(2, 4), rng.randint(2, 6),
                             weight_mode="random" if trial % 2 else "equal")
        calls.clear()
        allocate(inst)
        assert len(calls) == 1


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
