import copy
import dataclasses
import enum
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from fairdiv.core import (
    ConsumptionGraph,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    as_fraction,
    consumption_graph,
    find_cycle,
    integer_row,
    proportional_share,
    utilities,
)
from fairdiv.lp import LpProblem, LpSolution
from fairdiv.rounding import PipelineResult
from fairdiv.verify import AgentWitness, PropertyReport
from helpers import (
    blend,
    fraction_matrix,
    graph_edges,
    oracle_closing_edge,
    oracle_components,
    rand_fractional,
    rand_instance,
    to_fractional,
)


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


@pytest.mark.parametrize("rows", [
    [(True, [True, 2]), (1, [False, 1])],
    [(1, [True, 2])],
    [(True, [1, 2])],
    [(1.0, [1, 2])],
    [(1, [1, 2.0])],
    [(1, [1, Fraction(2)])],
], ids=["bools", "bool-entry", "bool-d", "float-d", "float-entry", "fraction-entry"])
def test_from_integer_rows_takes_ints_only(rows):
    # print_instance would write a bool entry as "True", which
    # parse_instance refuses; a float would fail deep in math.gcd
    with pytest.raises(ValueError, match="^expected an int, got [A-Za-z]+$"):
        Instance.from_integer_rows(rows)


def test_from_integer_rows_stores_int_subclasses_as_ints():
    class Index(int):
        pass

    inst = Instance.from_integer_rows([(Index(2), [Index(1), 3])])
    assert inst.integer_rows == ((2, (1, 3)),)
    assert {type(v) for d, row in inst.integer_rows for v in (d, *row)} == {int}


def test_as_fraction_keeps_fractions_and_converts_ints():
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    assert as_fraction(3) == 3 and type(as_fraction(3)) is Fraction

    class Index(int):
        pass

    class Half(Fraction):
        pass

    assert as_fraction(Index(3)) == 3 and type(as_fraction(Index(3))) is Fraction
    assert as_fraction(Half(1, 2)) == half and type(as_fraction(Half(1, 2))) is Fraction
    assert Instance([[Index(2), half]], [Index(1)]) == Instance([[2, half]])


@pytest.mark.parametrize("build", [
    lambda: as_fraction("1/2"),
    lambda: as_fraction("1e2000000"),
    lambda: as_fraction(Decimal("0.5")),
    lambda: as_fraction(0.5),
    lambda: Instance([["1_0"]]),
    lambda: Instance([[1], [1]], weights=["1", "1"]),
    lambda: FractionalAllocation((("1",),)),
    lambda: LpProblem(Instance([[1]]), ("1",)),
], ids=["ratio", "exponent", "decimal", "float", "utilities", "weights", "shares",
        "lp-floor"])
def test_library_reads_no_text_and_points_to_parse_rational(build):
    # text has one reader, bounded and the same on every Python version
    with pytest.raises(ValueError, match="^expected an int or Fraction, got [A-Za-z]+; read "
                                         "text with fairdiv.serialize.parse_rational$"):
        build()


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
    assert utilities(inst, integral) == (5, 4)
    assert utilities(inst, to_fractional(integral)) == utilities(inst, integral)


def test_utility_is_linear_in_the_allocation():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        inst = rand_instance(rng, n, m)
        x = rand_fractional(rng, n, m)
        y = rand_fractional(rng, n, m)
        theta = Fraction(rng.randint(0, 7), 7)
        z = blend(x, y, theta)
        expected = tuple(theta * a + (1 - theta) * b
                         for a, b in zip(utilities(inst, x), utilities(inst, y)))
        assert utilities(inst, z) == expected


def test_fractional_allocation_validates_columns():
    with pytest.raises(ValueError):
        FractionalAllocation(((Fraction(1, 2),), (Fraction(1, 3),)))
    with pytest.raises(ValueError):
        FractionalAllocation(((Fraction(3, 2),), (Fraction(-1, 2),)))
    with pytest.raises(ValueError, match="^allocation needs at least one agent row$"):
        FractionalAllocation(())
    with pytest.raises(ValueError, match="^allocation rows must all have the same length$"):
        FractionalAllocation(((Fraction(1, 2), 1), (Fraction(1, 2),)))
    ok = FractionalAllocation(((Fraction(1, 2),), (Fraction(1, 2),)))
    assert ok.num_agents == 2 and ok.num_items == 1


def test_integral_allocation_bundles():
    alloc = IntegralAllocation(3, (2, 0, 2, 1))
    assert alloc.bundles() == ((1,), (3,), (0, 2))
    with pytest.raises(ValueError):
        IntegralAllocation(2, (0, 2))
    # one bad owner among valid ones, wherever it sits, is refused with
    # the one message; a bool, a float or a Fraction equal to a valid index
    # is refused too
    for bad in (True, False, -1, 2, 10 ** 30, 1.0, Fraction(1), "1", None):
        for owners in ((bad,), (bad, 0, 1), (0, 1, bad), (1, bad, 0) * 50):
            with pytest.raises(ValueError, match="^every item must be owned by a valid "
                                                 "agent index$"):
                IntegralAllocation(2, owners)
    with pytest.raises(ValueError, match="at least one agent"):
        IntegralAllocation(0, (True,))
    # the agent count is an int too: a bool or a float is refused, not kept
    for bad in (True, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match="^expected an int, got [A-Za-z]+$"):
            IntegralAllocation(bad, (0,))
    # an int subclass that is not a bool is an agent index, as before
    class Agent(int):
        pass

    mixed = IntegralAllocation(2, [Agent(1), 0, Agent(0)])
    assert mixed.owners == (1, 0, 0) and mixed.bundles() == ((1, 2), (0,))
    assert IntegralAllocation(1, ()).owners == ()


def test_integral_allocation_stores_int_subclasses_as_ints():
    class A(enum.IntEnum):
        X = 0
        Y = 1

    alloc = IntegralAllocation(2, (A.Y, 0, A.X))
    assert alloc.owners == (1, 0, 0) and {type(a) for a in alloc.owners} == {int}
    assert repr(alloc) == "IntegralAllocation(num_agents=2, owners=(1, 0, 0))"
    assert alloc == IntegralAllocation(2, (1, 0, 0))


def test_allocation_shape_must_match_instance():
    inst = Instance([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        utilities(inst, IntegralAllocation(2, (0,)))


def test_consumption_graph_edges():
    x = FractionalAllocation(((1, Fraction(1, 2)), (0, Fraction(1, 2))))
    g = consumption_graph(x)
    assert g.agent_items == ((0, 1), (1,))
    assert g.item_agents == ((0,), (0, 1))
    assert g.shared_items() == (1,)


def test_find_cycle_on_two_shared_items():
    x = FractionalAllocation((
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    ))
    assert find_cycle(consumption_graph(x)) == (1, 1)


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


def test_find_cycle_agrees_with_the_bfs_oracle():
    rng = random.Random(13)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        x = rand_fractional(rng, n, m)
        g = consumption_graph(x)
        edge = find_cycle(g)
        assert edge == oracle_closing_edge(g)
        # a graph is a forest iff |E| = |V| - components over its touched vertices
        touched, components = oracle_components(g)
        assert (edge is None) == (len(graph_edges(g)) == touched - components)
        if edge is not None:
            assert x.fractions[edge[0]][edge[1]] > 0


def _graph(n, item_agents):
    agent_items = tuple(tuple(o for o, ag in enumerate(item_agents) if a in ag)
                        for a in range(n))
    return ConsumptionGraph(agent_items, tuple(item_agents))


@pytest.mark.parametrize("n, item_agents, edge", [
    # every agent shares every item
    (3, [(0, 1, 2)] * 3, (1, 1)),
    # agent 0's tree is acyclic; the next tree has two cycles through agent 3
    (6, [(0, 1), (1, 2), (3, 4), (3, 4), (3, 5), (4, 5)], (4, 3)),
    # agent 1's third item closes the 2-agent cycle on items 0, 3 before
    # agent 3 closes the 4-agent one
    (4, [(0, 1), (1, 2), (2, 3), (0, 1), (0, 3)], (1, 3)),
    # every pair of four agents shares an item
    (4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)], (2, 3)),
], ids=["complete", "second-tree", "long-first", "all-pairs"])
def test_find_cycle_returns_the_first_cycle_the_search_closes(n, item_agents, edge):
    assert find_cycle(_graph(n, item_agents)) == edge


def test_empty_item_set_has_empty_graph():
    inst = Instance([[], []])
    x = FractionalAllocation(((), ()))
    g = consumption_graph(x)
    assert g.agent_items == ((), ())
    assert find_cycle(g) is None
    assert utilities(inst, x) == (0, 0)


# ---------------------------------------------------------------------------
# the value types: each behaves as the frozen dataclass it replaced


def _witness(k):
    return AgentWitness(0, True, "meets-bound", None, Fraction(k), Fraction(1), Fraction(k))


# type -> (its fields, in the dataclass's order; a builder of one value,
# whose argument, 1 or 2, changes one field)
VALUE_TYPES = {
    Instance: (("integer_rows", "weights"),
               lambda k: Instance([[1, Fraction(1, 2)], [3, k]], [1, 2])),
    FractionalAllocation: (("fractions",),
                           lambda k: FractionalAllocation(((Fraction(1, k), 1),
                                                           (1 - Fraction(1, k), 0)))),
    IntegralAllocation: (("num_agents", "owners"), lambda k: IntegralAllocation(2, (0, k - 1))),
    ConsumptionGraph: (("agent_items", "item_agents"),
                       lambda k: ConsumptionGraph(((0,), (k,)), ((0,), (1,)))),
    LpProblem: (("instance", "floors"), lambda k: LpProblem(Instance([[1, 2]]), (k,))),
    LpSolution: (("value", "assignment", "duals", "pivots"),
                 lambda k: LpSolution(Fraction(k), (Fraction(1), Fraction(0)),
                                      (Fraction(0), None), (((2, 0),), (), ()))),
    PipelineResult: (("integral", "fractional", "prop1", "welfare_weights"),
                     lambda k: PipelineResult(IntegralAllocation(1, (0,)),
                                              FractionalAllocation(((1,),)),
                                              PropertyReport("weighted-prop1", True,
                                                             (_witness(1),)),
                                              (Fraction(k),))),
    AgentWitness: (("agent", "satisfied", "rule", "item", "bundle_value", "bound",
                    "adjusted_value"), _witness),
    PropertyReport: (("name", "holds", "witnesses"),
                     lambda k: PropertyReport("weighted-prop1", True, (_witness(k),))),
}
VALUE_IDS = [t.__name__ for t in VALUE_TYPES]


@pytest.mark.parametrize("kind", VALUE_TYPES, ids=VALUE_IDS)
def test_value_types_compare_hash_and_print_as_their_dataclasses(kind):
    fields, build = VALUE_TYPES[kind]
    a, b, c = build(1), build(1), build(2)
    assert kind._fields == fields
    dataclass = dataclasses.make_dataclass(kind.__name__, fields, frozen=True)
    old_a, old_c = (dataclass(*(getattr(v, f) for f in fields)) for v in (a, c))
    assert (repr(a), hash(a)) == (repr(old_a), hash(old_a))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and old_a != old_c
    # equality holds within one exact type only, as a dataclass's does
    sub_kind = type("Sub", (kind,), {})
    sub = sub_kind.__new__(sub_kind)
    sub.__dict__.update(a.__dict__)
    for other in (old_a, tuple(getattr(a, f) for f in fields), sub, object()):
        assert a.__eq__(other) is NotImplemented
        assert a != other


def test_value_type_repr_is_the_dataclass_text():
    assert repr(IntegralAllocation(2, (0, 1))) == "IntegralAllocation(num_agents=2, owners=(0, 1))"
    assert repr(_witness(2)) == (
        "AgentWitness(agent=0, satisfied=True, rule='meets-bound', item=None, "
        "bundle_value=Fraction(2, 1), bound=Fraction(1, 1), adjusted_value=Fraction(2, 1))")


@pytest.mark.parametrize("kind", VALUE_TYPES, ids=VALUE_IDS)
def test_value_types_refuse_assignment_deletion_and_a_wrong_arity(kind):
    fields, build = VALUE_TYPES[kind]
    value = build(1)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == build(1) and not hasattr(value, "extra")
    with pytest.raises(TypeError):
        kind()
    with pytest.raises(TypeError, match="takes|positional"):
        kind(*range(len(fields) + 1))


@pytest.mark.parametrize("kind", VALUE_TYPES, ids=VALUE_IDS)
def test_value_types_survive_pickle_and_copy(kind):
    fields, build = VALUE_TYPES[kind]
    value = build(2)
    clones = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in (*clones, copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is kind
        assert (clone, hash(clone), repr(clone)) == (value, hash(value), repr(value))
        with pytest.raises(AttributeError):
            setattr(clone, fields[0], None)
