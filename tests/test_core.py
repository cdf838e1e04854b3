import random
from fractions import Fraction

import pytest

from fairdiv.core import (
    ConsumptionGraph,
    Cycle,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    as_fraction,
    consumption_graph,
    find_cycle,
    integer_row,
    proportional_share,
    utilities,
    utility,
)
from helpers import blend, fraction_matrix, rand_fractional, rand_instance, union_find_is_forest


def test_weights_normalize_at_construction():
    inst = Instance([[1], [2], [3]], weights=[2, 1, 1])
    assert inst.weights == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_default_weights_are_equal():
    inst = Instance([[1, 2], [3, 4]])
    assert inst.weights == (Fraction(1, 2), Fraction(1, 2))


def test_instance_rejects_bad_input():
    with pytest.raises(ValueError):
        Instance([])
    with pytest.raises(ValueError):
        Instance([[1, 2], [1]])
    with pytest.raises(ValueError):
        Instance([[1], [1]], weights=[1, 0])
    with pytest.raises(ValueError):
        Instance([[1], [1]], weights=[1])
    with pytest.raises(ValueError):
        Instance([[0.5]])


def test_instance_allows_zero_items():
    inst = Instance([[], []])
    assert inst.num_items == 0
    assert inst.total_value(0) == 0
    assert proportional_share(inst, 1) == 0


def test_integer_rows_scale_each_row_by_the_lcm_of_its_denominators():
    inst = Instance([[Fraction(1, 2), Fraction(-1, 3), 0, 5], [1, 2, 3, 4]])
    assert inst.integer_rows == ((6, (3, -2, 0, 30)), (1, (1, 2, 3, 4)))
    assert integer_row([(1, 2), (-1, 3), (0, 1), (5, 1)]) == (6, (3, -2, 0, 30))
    assert integer_row([(4, 1), (-7, 1)]) == (1, (4, -7))
    assert integer_row([]) == (1, ())
    assert inst.total_value(0) == Fraction(31, 6)
    assert Instance([[], []]).integer_rows == ((1, ()), (1, ()))
    rng = random.Random(5)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(5)]
                for _ in range(3)]
        inst = Instance(rows)
        for row, (d, scaled) in zip(rows, inst.integer_rows):
            assert [Fraction(v, d) for v in scaled] == list(row)
            assert all(d % v.denominator == 0 for v in row)


def test_both_constructors_give_one_instance():
    rng = random.Random(7)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(0, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(m)]
                for _ in range(n)]
        weights = rng.choice([None, [rng.randint(1, 5) for _ in range(n)]])
        inst = Instance(rows, weights)
        again = Instance.from_integer_rows(inst.integer_rows, weights)
        assert again == inst and hash(again) == hash(inst)
        assert again.weights == inst.weights
    assert Instance([[2, 4]]) != Instance([[1, 2]])
    assert Instance([[1, 2]], [1]) == Instance([[Fraction(2, 2), 2]])


def test_from_integer_rows_rejects_rows_that_are_not_canonical():
    assert fraction_matrix(Instance.from_integer_rows([(6, (3, -2, 0, 30))])) == (
        (Fraction(1, 2), Fraction(-1, 3), 0, 5),)
    for rows in ([(2, (2, 4))], [(0, (1,))], [(-1, (1,))], [(3, ())]):
        with pytest.raises(ValueError, match="integer row"):
            Instance.from_integer_rows(rows)
    with pytest.raises(ValueError, match="same length"):
        Instance.from_integer_rows([(1, (1, 2)), (1, (1,))])
    with pytest.raises(ValueError, match="at least one agent"):
        Instance.from_integer_rows([])
    with pytest.raises(ValueError, match="strictly positive"):
        Instance.from_integer_rows([(1, (1,))], [0])


def test_as_fraction_keeps_fractions_and_converts_ints():
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    assert as_fraction(3) == 3 and type(as_fraction(3)) is Fraction


@pytest.mark.parametrize("build", [
    lambda: as_fraction(True),
    lambda: Instance([[True, 2]]),
    lambda: Instance([[1, 2], [3, 4]], weights=[True, 1]),
    lambda: IntegralAllocation(2, (True, False)),
    lambda: FractionalAllocation(((True,),)),
], ids=["as_fraction", "utilities", "weights", "owners", "shares"])
def test_bools_are_rejected_like_json_true(build):
    # True == 1 to Python, but the JSON path rejects true, and so does the API
    with pytest.raises(ValueError):
        build()


def test_proportional_share_equal_weights():
    inst = Instance([[4, -2], [4, -2]])
    assert proportional_share(inst, 0) == 1
    assert proportional_share(inst, 1) == 1


def test_proportional_share_weighted():
    inst = Instance([[6, 3], [6, 3]], weights=[2, 1])
    assert proportional_share(inst, 0) == 6
    assert proportional_share(inst, 1) == 3


def test_utility_fractional_and_integral_agree():
    inst = Instance([[3, -1, 2], [0, 4, 1]])
    integral = IntegralAllocation(2, (0, 1, 0))
    assert utility(inst, integral, 0) == 5
    assert utility(inst, integral, 1) == 4
    assert utilities(inst, integral.to_fractional()) == utilities(inst, integral)


def test_utility_is_linear_in_the_allocation():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        inst = rand_instance(rng, n, m)
        x = rand_fractional(rng, n, m)
        y = rand_fractional(rng, n, m)
        theta = Fraction(rng.randint(0, 7), 7)
        z = blend(x, y, theta)
        for i in inst.agents:
            expected = theta * utility(inst, x, i) + (1 - theta) * utility(inst, y, i)
            assert utility(inst, z, i) == expected


def test_fractional_allocation_validates_columns():
    with pytest.raises(ValueError):
        FractionalAllocation(((Fraction(1, 2),), (Fraction(1, 3),)))
    with pytest.raises(ValueError):
        FractionalAllocation(((Fraction(3, 2),), (Fraction(-1, 2),)))
    ok = FractionalAllocation(((Fraction(1, 2),), (Fraction(1, 2),)))
    assert ok.num_agents == 2 and ok.num_items == 1


def test_integral_allocation_bundles():
    alloc = IntegralAllocation(3, (2, 0, 2, 1))
    assert alloc.bundles() == ((1,), (3,), (0, 2))
    assert alloc.bundle(2) == (0, 2)
    with pytest.raises(ValueError):
        IntegralAllocation(2, (0, 2))


def test_allocation_shape_must_match_instance():
    inst = Instance([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        utility(inst, IntegralAllocation(2, (0,)), 0)


def test_consumption_graph_edges():
    x = FractionalAllocation(((1, Fraction(1, 2)), (0, Fraction(1, 2))))
    g = consumption_graph(x)
    assert g.agent_items == ((0, 1), (1,))
    assert g.item_agents == ((0,), (0, 1))
    assert g.shared_items() == (1,)
    assert g.num_edges() == 3


def test_find_cycle_on_two_shared_items():
    x = FractionalAllocation((
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    ))
    cyc = find_cycle(consumption_graph(x))
    assert cyc == Cycle(agents=(0, 1), items=(0, 1))
    edges = cyc.edges()
    assert set(edges) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    assert edges[0] == (0, 0)


def test_find_cycle_none_on_tree():
    x = FractionalAllocation((
        (1, Fraction(1, 2), 0),
        (0, Fraction(1, 2), 1),
    ))
    assert find_cycle(consumption_graph(x)) is None


def test_find_cycle_is_deterministic():
    rng = random.Random(11)
    for _ in range(20):
        x = rand_fractional(rng, rng.randint(2, 5), rng.randint(2, 6))
        g = consumption_graph(x)
        assert find_cycle(g) == find_cycle(g)


def test_find_cycle_agrees_with_union_find():
    rng = random.Random(13)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        x = rand_fractional(rng, n, m)
        g = consumption_graph(x)
        cyc = find_cycle(g)
        assert (cyc is None) == union_find_is_forest(g)
        if cyc is not None:
            # the reported cycle must consist of real edges
            for i, o in cyc.edges():
                assert x.fractions[i][o] > 0
            assert len(set(cyc.agents)) == len(cyc.agents)
            assert len(set(cyc.items)) == len(cyc.items)
            assert cyc.agents[0] == min(cyc.agents)


def _graph(n, item_agents):
    agent_items = tuple(tuple(o for o, ag in enumerate(item_agents) if a in ag)
                        for a in range(n))
    return ConsumptionGraph(agent_items, tuple(item_agents))


@pytest.mark.parametrize("n, item_agents, cycle", [
    # every agent shares every item
    (3, [(0, 1, 2)] * 3, Cycle(agents=(0, 1), items=(0, 1))),
    # agent 0's tree is acyclic; the next tree has two cycles through agent 3
    (6, [(0, 1), (1, 2), (3, 4), (3, 4), (3, 5), (4, 5)],
     Cycle(agents=(3, 4), items=(2, 3))),
    # the search closes the 4-agent cycle before the 2-agent one on items 0, 3
    (4, [(0, 1), (1, 2), (2, 3), (0, 1), (0, 3)],
     Cycle(agents=(0, 1, 2, 3), items=(0, 1, 2, 4))),
    # every pair of four agents shares an item
    (4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)],
     Cycle(agents=(1, 2, 3), items=(1, 2, 4))),
], ids=["complete", "second-tree", "long-first", "all-pairs"])
def test_find_cycle_returns_the_first_cycle_the_search_closes(n, item_agents, cycle):
    assert find_cycle(_graph(n, item_agents)) == cycle


def test_empty_item_set_has_empty_graph():
    inst = Instance([[], []])
    x = FractionalAllocation(((), ()))
    g = consumption_graph(x)
    assert g.num_edges() == 0
    assert find_cycle(g) is None
    assert utilities(inst, x) == (0, 0)
