import random
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
from fairdiv.lp import LpSolution
from fairdiv.rounding import allocate, round_acyclic
from fairdiv.verify import is_pareto_optimal_integral, weighted_prop, weighted_prop1
from helpers import (
    chores_blocks_instance,
    forest_fixture,
    fraction_matrix,
    goods_blocks_instance,
    lp_calls,
    oracle_argmax_is_lp_optimum,
    oracle_round,
    rand_instance,
    rand_sharing_forest,
    to_fractional,
)

F = Fraction

# ---------------------------------------------------------------------------
# zero-valued items: the improvement LP's vertex never shares one with a
# sharer that values it at zero, and both stages reject a vertex that does


def _lp_returns(monkeypatch, x):
    """Make the improvement LP report the allocation x as its optimum, and
    make the stage solve it even where the argmax would answer first."""
    assignment = tuple(v for row in x.fractions for v in row)
    duals = (F(0),) * x.num_agents + (None,) * x.num_items
    crafted = LpSolution(F(0), assignment, duals)
    monkeypatch.setattr(improve, "solve", lambda problem: crafted)
    monkeypatch.setattr(improve, "_argmax_owners", lambda instance: None)


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
    x = to_fractional(IntegralAllocation(2, (0, 1)))
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
    with pytest.raises(ValueError, match="^allocation shares items along a cycle closed by "
                                         "agent 1 and item 1; improve it first$"):
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


def test_round_refuses_a_second_loss_when_a_cycle_goes_unseen(monkeypatch):
    # agents 1 and 2 both share items 1 and 2, a cycle; with find_cycle
    # blinded, rounding walks into it from leaf 0 and the loss counter stops it
    inst = Instance([[1, 1, 1]] * 3)
    half = F(1, 2)
    x = FractionalAllocation(((half, 0, 0), (half, half, half), (0, half, half)))
    monkeypatch.setattr(rounding, "find_cycle", lambda graph: None)
    with pytest.raises(InvariantViolation,
                       match="^agent 2 had two shared items decided against it$"):
        round_acyclic(inst, x)


def test_round_rejects_shape_mismatch():
    inst = Instance(((1, 2), (3, 4)))
    x = to_fractional(IntegralAllocation(2, (0,)))
    with pytest.raises(ValueError):
        round_acyclic(inst, x)


def test_round_of_integral_input_is_identity():
    rng = random.Random(7)
    for _ in range(20):
        inst = rand_instance(rng, rng.randint(2, 4), rng.randint(1, 6))
        owners = tuple(rng.randrange(inst.num_agents) for _ in inst.items)
        x = IntegralAllocation(inst.num_agents, owners)
        assert round_acyclic(inst, to_fractional(x)).owners == owners


# ---------------------------------------------------------------------------
# the sharing-forest walk


def test_forest_default_walk_owners():
    inst, allocation, owners = forest_fixture()
    rounded = round_acyclic(inst, allocation)
    assert rounded.owners == owners


def test_forest_gives_items_to_their_consumers():
    inst, allocation, _ = forest_fixture()
    rounded = round_acyclic(inst, allocation)
    for o in inst.items:
        assert allocation.fractions[rounded.owners[o]][o] > 0


def test_forest_unshared_items_keep_their_owner():
    inst, allocation, _ = forest_fixture()
    rounded = round_acyclic(inst, allocation)
    for o, column in ((1, 0), (3, 1), (4, 2), (6, 2), (7, 4)):
        assert rounded.owners[o] == column


def _losses(inst, allocation, owners) -> list:
    """Per agent, the shared items rounding decided against it: a good it
    consumed and did not get, or a chore it consumed only in part and got."""
    u = fraction_matrix(inst)
    losses = [0] * inst.num_agents
    for o in inst.items:
        sharers = [i for i in inst.agents if allocation.fractions[i][o] > 0]
        if len(sharers) < 2:
            continue
        for i in sharers:
            if (owners[o] == i) != (u[i][o] > 0):
                losses[i] += 1
    return losses


def test_round_acyclic_matches_the_nearest_root_oracle():
    rng = random.Random(6)
    cases = [rand_sharing_forest(rng, rng.randint(1, 9), rng.randint(0, 12))
             for _ in range(300)]
    for trial in range(40):
        inst = rand_instance(rng, rng.randint(2, 5), rng.randint(1, 7),
                             weight_mode="random" if trial % 2 else "equal")
        cases.append((inst, improve_to_acyclic_fpo(inst)[0]))
    cases += [(inst, improve_to_acyclic_fpo(inst)[0])
              for inst in _degenerate_instances(random.Random(23))]
    shared = 0
    for inst, allocation in cases:
        owners = round_acyclic(inst, allocation).owners
        assert owners == oracle_round(inst, allocation)
        assert max(_losses(inst, allocation, owners), default=0) <= 1
        shared += len(consumption_graph(allocation).shared_items())
    assert shared >= 300  # the cases exercise the walk, not just the identity


def test_forest_active_agent_keeps_goods_and_sheds_chores():
    inst, allocation, owners = forest_fixture()
    # the root of the first tree shares only the good at index 0 and keeps it
    assert owners[0] == 1
    # agent 0 shares the chore at index 2 and passes it to its co-consumer
    assert owners[2] == 4


# ---------------------------------------------------------------------------
# full pipeline


def test_pipeline_goods_blocks():
    inst = goods_blocks_instance()
    result = allocate(inst)
    assert result.prop1.holds
    assert result.welfare_weights is not None
    assert weighted_prop(inst, result.fractional).holds
    assert weighted_prop1(inst, result.integral).holds


def test_pipeline_chores_blocks():
    inst = chores_blocks_instance()
    result = allocate(inst)
    assert result.prop1.holds
    assert result.welfare_weights is not None
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


def test_pipeline_solves_at_most_one_lp():
    rng = random.Random(8)
    instances = [rand_instance(rng, rng.randint(2, 4), rng.randint(2, 6),
                               weight_mode="random" if trial % 2 else "equal")
                 for trial in range(10)]
    instances += _degenerate_instances(random.Random(19))
    hits = [oracle_argmax_is_lp_optimum(inst) for inst in instances]
    assert 0 < sum(hits) < len(instances)
    for inst, hit in zip(instances, hits):
        with lp_calls() as calls:
            result = allocate(inst)
        # no LP when its unique optimum is the argmax
        assert len(calls) == (0 if hit else 1)
        # the LP's vertex is rounded as it is: a forest, one strict sign per shared item
        graph = consumption_graph(result.fractional)
        assert find_cycle(graph) is None
        u = fraction_matrix(inst)
        for o in graph.shared_items():
            assert len({u[i][o] > 0 for i in graph.item_agents[o]}) == 1
            assert all(u[i][o] != 0 for i in graph.item_agents[o])


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
    assert first.welfare_weights == second.welfare_weights


def test_pipeline_random_instances_keep_guarantees():
    rng = random.Random(1009)
    for trial in range(25):
        n = rng.randint(2, 3)
        m = rng.randint(2, 5)
        mode = "equal" if trial % 2 else "random"
        inst = rand_instance(rng, n, m, weight_mode=mode)
        result = allocate(inst)
        assert result.prop1.holds
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
