import collections
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdiv import verify
from fairdiv.core import (
    EnumerationCapExceeded,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InvariantViolation,
    consumption_graph,
    proportional_share,
    utility,
)
from fairdiv.verify import (
    ADD_ITEM,
    MEETS_BOUND,
    REMOVE_ITEM,
    enumerate_integral_allocations,
    enumeration_size,
    find_welfare_weights,
    is_pareto_optimal_integral,
    pareto_dominates,
    pareto_improvement_exists,
    propx,
    recheck_welfare_weights,
    weighted_prop,
    weighted_prop1,
)
from helpers import (
    CHORES_BLOCKS_X,
    CHORES_BLOCKS_Y,
    GOODS_BLOCKS_X,
    GOODS_BLOCKS_Y,
    IDENTICAL_ITEMS_BALANCED,
    chores_blocks_instance,
    fraction_matrix,
    goods_blocks_instance,
    identical_items_instance,
    lp_find_welfare_weights,
    lp_pareto_improvement_exists,
    oracle_is_pareto_optimal,
    oracle_pareto_dominates,
    oracle_propx,
    oracle_total_value,
    oracle_weighted_prop,
    oracle_weighted_prop1,
    oracle_weights_certify,
    rand_instance,
)

F = Fraction


def rand_integral(rng, n, m):
    return IntegralAllocation(n, tuple(rng.randrange(n) for _ in range(m)))


# ---------------------------------------------------------------------------
# integer checkers against their Fraction definitions

# small numerators over denominators 1..12, so zeros, both signs, equal
# values within a row and bundles landing exactly on the bound all occur
_values = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def _instance_and_owners(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(_values, min_size=m, max_size=m), min_size=n, max_size=n))
    weights = draw(st.none() | st.lists(st.integers(1, 6), min_size=n, max_size=n))
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return Instance(rows, weights), IntegralAllocation(n, tuple(owners))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_instance_and_owners())
def test_checkers_match_fraction_oracles_witness_by_witness(case):
    inst, alloc = case
    assert weighted_prop(inst, alloc) == oracle_weighted_prop(inst, alloc)
    assert weighted_prop1(inst, alloc) == oracle_weighted_prop1(inst, alloc)
    assert propx(inst, alloc) == oracle_propx(inst, alloc)
    for i in inst.agents:
        assert inst.total_value(i) == oracle_total_value(inst, i)


def test_checkers_match_fraction_oracles_on_ties():
    # every value equal: every add/remove choice is a tie, broken to the
    # lowest index, and equal shares land exactly on the bound
    inst = Instance([[F(1, 3)] * 6, [F(-1, 2)] * 6, [0] * 6])
    for owners in itertools.product(range(3), repeat=6):
        alloc = IntegralAllocation(3, owners)
        assert weighted_prop1(inst, alloc) == oracle_weighted_prop1(inst, alloc)
        assert propx(inst, alloc) == oracle_propx(inst, alloc)


@st.composite
def _tied_instance_and_owner_pair(draw):
    # values in -2..2 over up to 60 items: nearly every choice is a tie.
    # Owners are drawn from a subset of the agents, so agents that own
    # every item, and agents that own none, are common.
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 60))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    weights = draw(st.none() | st.lists(st.integers(1, 6), min_size=n, max_size=n))
    owner_pairs = []
    for _ in range(2):
        pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        owners = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        owner_pairs.append(IntegralAllocation(n, tuple(owners)))
    return Instance(rows, weights), *owner_pairs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_tied_instance_and_owner_pair())
def test_checkers_match_fraction_oracles_on_heavy_ties(case):
    inst, alloc, other = case
    assert weighted_prop(inst, alloc) == oracle_weighted_prop(inst, alloc)
    assert weighted_prop1(inst, alloc) == oracle_weighted_prop1(inst, alloc)
    assert propx(inst, alloc) == oracle_propx(inst, alloc)
    assert pareto_dominates(inst, alloc, other) == oracle_pareto_dominates(inst, alloc, other)
    assert pareto_dominates(inst, other, alloc) == oracle_pareto_dominates(inst, other, alloc)
    assert pareto_dominates(inst, alloc, alloc) is False


def test_integer_checkers_reject_a_mismatched_shape():
    inst = Instance([[1, 2], [3, 4]])
    for check in (weighted_prop, weighted_prop1, propx, find_welfare_weights):
        with pytest.raises(ValueError, match="shape"):
            check(inst, IntegralAllocation(3, (0, 1)))


# ---------------------------------------------------------------------------
# weighted proportionality


def test_weighted_prop_flags_each_agent():
    inst = Instance([[2, 2], [2, 2]], weights=[3, 1])
    alloc = IntegralAllocation(2, (0, 1))
    report = weighted_prop(inst, alloc)
    assert not report.holds
    assert report.witness(0).satisfied is False  # bound 3, value 2
    assert report.witness(1).satisfied is True   # bound 1, value 2
    assert report.failing_agents() == (0,)


def test_weighted_prop_accepts_fractional():
    inst = Instance([[1], [1]])
    half = FractionalAllocation(((F(1, 2),), (F(1, 2),)))
    assert weighted_prop(inst, half).holds


def test_prop1_goods_blocks_x_passes():
    inst = goods_blocks_instance()
    report = weighted_prop1(inst, GOODS_BLOCKS_X)
    assert report.holds
    w0 = report.witness(0)
    assert w0.rule == ADD_ITEM and w0.item == 0
    assert w0.adjusted_value == F(1, 5) + F(3, 10)
    assert report.witness(1).rule == MEETS_BOUND
    assert report.witness(2).rule == MEETS_BOUND


def test_prop1_goods_blocks_y_fails_exactly():
    inst = goods_blocks_instance()
    assert pareto_dominates(inst, GOODS_BLOCKS_Y, GOODS_BLOCKS_X)
    report = weighted_prop1(inst, GOODS_BLOCKS_Y)
    assert not report.holds
    assert report.failing_agents() == (0,)
    w = report.witness(0)
    assert w.bundle_value == F(3, 10)
    assert w.adjusted_value == F(3, 10) + F(1, 40) == F(13, 40)
    assert w.adjusted_value < F(1, 3) == w.bound


def test_prop1_chores_blocks_x_passes():
    inst = chores_blocks_instance()
    report = weighted_prop1(inst, CHORES_BLOCKS_X)
    assert report.holds
    w0 = report.witness(0)
    assert w0.rule == REMOVE_ITEM and w0.item == 10
    assert w0.adjusted_value == 0


def test_prop1_chores_blocks_y_fails_exactly():
    inst = chores_blocks_instance()
    assert pareto_dominates(inst, CHORES_BLOCKS_Y, CHORES_BLOCKS_X)
    report = weighted_prop1(inst, CHORES_BLOCKS_Y)
    assert not report.holds
    assert report.failing_agents() == (0,)
    w = report.witness(0)
    assert w.bundle_value == F(-2, 5)
    assert w.rule == REMOVE_ITEM
    assert w.adjusted_value == F(-9, 25)
    assert w.adjusted_value < F(-1, 3) == w.bound


def test_prop1_weighted_bounds():
    # a 2/1 entitlement split moves the bounds, not just the utilities
    inst = Instance([[3, 3], [3, 3]], weights=[2, 1])
    alloc = IntegralAllocation(2, (0, 1))
    report = weighted_prop1(inst, alloc)
    assert report.witness(0).bound == 4
    assert report.witness(1).bound == 2
    assert report.holds  # agent 0: 3 + 3 >= 4 after adding the other item


def test_prop1_matches_unweighted_checker_on_equal_weights():
    def naive_prop1(inst, alloc):
        u = fraction_matrix(inst)
        ok = []
        for i in inst.agents:
            share = inst.total_value(i) / inst.num_agents
            value = utility(inst, alloc, i)
            candidates = [value]
            for o in inst.items:
                if alloc.owners[o] == i:
                    candidates.append(value - u[i][o])
                else:
                    candidates.append(value + u[i][o])
            ok.append(max(candidates) >= share)
        return all(ok)

    rng = random.Random(101)
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(0, 5)
        inst = rand_instance(rng, n, m)
        alloc = rand_integral(rng, n, m)
        assert weighted_prop1(inst, alloc).holds == naive_prop1(inst, alloc)


def test_prop1_witnesses_revalidate():
    rng = random.Random(55)
    for _ in range(80):
        n, m = rng.randint(1, 4), rng.randint(0, 5)
        inst = rand_instance(rng, n, m, weight_mode=rng.choice(["equal", "random"]))
        alloc = rand_integral(rng, n, m)
        report = weighted_prop1(inst, alloc)
        u = fraction_matrix(inst)
        assert report.holds == all(w.satisfied for w in report.witnesses)
        for w in report.witnesses:
            assert w.bundle_value == utility(inst, alloc, w.agent)
            assert w.bound == proportional_share(inst, w.agent)
            if w.rule == MEETS_BOUND:
                assert w.adjusted_value == w.bundle_value
            elif w.rule == ADD_ITEM:
                assert alloc.owners[w.item] != w.agent
                assert w.adjusted_value == w.bundle_value + u[w.agent][w.item]
            elif w.rule == REMOVE_ITEM:
                assert alloc.owners[w.item] == w.agent
                assert w.adjusted_value == w.bundle_value - u[w.agent][w.item]
            assert w.satisfied == (w.adjusted_value >= w.bound)


# ---------------------------------------------------------------------------
# propx


def test_propx_identical_items_balanced_fails():
    inst = identical_items_instance()
    report = propx(inst, IDENTICAL_ITEMS_BALANCED)
    assert not report.holds
    w = report.witness(2)
    assert not w.satisfied
    assert w.rule == ADD_ITEM and w.item == 4
    assert w.adjusted_value == 4
    assert w.bound == F(13, 3)


def test_propx_has_no_solution_on_identical_items():
    inst = identical_items_instance()
    assert enumeration_size(inst) == 243
    assert not any(propx(inst, a).holds for a in enumerate_integral_allocations(inst))


def test_propx_implies_prop1_on_equal_weights():
    rng = random.Random(202)
    seen = 0
    for _ in range(400):
        n, m = rng.randint(1, 3), rng.randint(0, 4)
        inst = rand_instance(rng, n, m)
        alloc = rand_integral(rng, n, m)
        if propx(inst, alloc).holds:
            seen += 1
            assert weighted_prop1(inst, alloc).holds
    assert seen > 0


def test_propx_passes_when_bundle_already_meets_equal_share():
    inst = Instance([[2, 2], [2, 2]])
    report = propx(inst, IntegralAllocation(2, (0, 1)))
    assert report.holds
    assert all(w.rule == MEETS_BOUND for w in report.witnesses)


# ---------------------------------------------------------------------------
# Pareto tests


def test_pareto_dominates_requires_strictness():
    inst = Instance([[1, 1], [1, 1]])
    a = IntegralAllocation(2, (0, 1))
    b = IntegralAllocation(2, (1, 0))
    assert not pareto_dominates(inst, a, b)  # equal utilities both ways
    assert not pareto_dominates(inst, b, a)


def test_pareto_optimal_integral_small_known_cases():
    inst = Instance([[1, 0], [0, 1]])
    assert is_pareto_optimal_integral(inst, IntegralAllocation(2, (0, 1)))
    assert not is_pareto_optimal_integral(inst, IntegralAllocation(2, (1, 0)))


def test_goods_blocks_x_admits_a_fractional_improvement():
    # y Pareto-dominates x integrally, so the complete LP test must agree
    inst = goods_blocks_instance()
    assert pareto_improvement_exists(inst, GOODS_BLOCKS_X)


def test_pareto_scan_agrees_with_naive_product_scan():
    rng = random.Random(303)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(0, 4)
        inst = rand_instance(rng, n, m)
        alloc = rand_integral(rng, n, m)
        assert is_pareto_optimal_integral(inst, alloc) == oracle_is_pareto_optimal(inst, alloc)


@st.composite
def _po_case(draw):
    """1-3 agents and 0-6 items with values -3..3 over denominators 1..3,
    goods, chores and zeros mixed, some items worth 0 to everyone; owners
    drawn at random, so allocations that are fPO, PO but not fPO, and not
    PO all occur."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    values = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    rows = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n))
    for o in draw(st.lists(st.integers(0, m - 1), max_size=2)) if m else ():
        for row in rows:
            row[o] = F(0)
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return Instance(rows), IntegralAllocation(n, tuple(owners))


def test_po_agrees_with_the_naive_scan_on_every_branch():
    """fPO answers True with no search; otherwise the search decides, and
    every False comes with a dominating allocation that was replayed and
    that the oracle confirms."""
    branches = collections.Counter()
    real_search = verify._dominating_allocation

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_po_case())
    # PO, not fPO: agent 1 keeps the good agent 0 values more, and the chore
    # that both value at -1, so no weights make it a maximizer of both
    @example((Instance([[3, -1], [2, -1]]), IntegralAllocation(2, (1, 1))))
    def check(case):
        inst, alloc = case
        found = []

        def search(*args):
            found.append(real_search(*args))
            return found[-1]

        with mock.patch.object(verify, "_dominating_allocation", search), \
                mock.patch.object(verify, "pareto_dominates",
                                  wraps=verify.pareto_dominates) as replay:
            got = is_pareto_optimal_integral(inst, alloc)
        assert got == oracle_is_pareto_optimal(inst, alloc)
        if not found:
            assert got and find_welfare_weights(inst, alloc) is not None
            branches["fPO"] += 1
            return
        assert find_welfare_weights(inst, alloc) is None
        [better] = found
        if better is None:
            assert got and not replay.called
            branches["PO, not fPO"] += 1
            return
        assert not got
        replay.assert_called_once_with(inst, better, alloc)
        assert oracle_pareto_dominates(inst, better, alloc)
        branches["not PO"] += 1

    check()
    assert set(branches) == {"fPO", "PO, not fPO", "not PO"}, branches


def test_po_never_searches_an_fpo_allocation(monkeypatch):
    # weighted-argmax allocations are fPO, whatever their size: the
    # exhaustive search must not start, even where it could not finish
    def no_search(*args):
        raise AssertionError("searched an fPO allocation")

    monkeypatch.setattr(verify, "_dominating_allocation", no_search)
    rng = random.Random(11)
    for n, m in [(1, 0), (2, 5), (3, 12), (4, 40), (1, 1500)]:
        inst = rand_instance(rng, n, m)
        lam = [rng.randint(1, 5) for _ in range(n)]
        u = fraction_matrix(inst)
        owners = tuple(max(inst.agents, key=lambda i: lam[i] * u[i][o])
                       for o in inst.items)
        alloc = IntegralAllocation(n, owners)
        assert is_pareto_optimal_integral(inst, alloc, cap=n ** m)
    with pytest.raises(AssertionError, match="searched"):
        is_pareto_optimal_integral(Instance([[1, 0], [0, 1]]), IntegralAllocation(2, (1, 0)))


def test_po_replays_the_refutation_it_returns(monkeypatch):
    # a search that reports an allocation which does not dominate (here
    # the allocation itself) must fail the replay, not answer False
    inst, alloc = Instance([[1, 0], [0, 1]]), IntegralAllocation(2, (1, 0))
    assert not is_pareto_optimal_integral(inst, alloc)
    monkeypatch.setattr(verify, "_dominating_allocation", lambda instance, allocation: allocation)
    with pytest.raises(InvariantViolation, match="fails its replay"):
        is_pareto_optimal_integral(inst, alloc)


def test_enumeration_cap_is_enforced():
    inst = Instance([[1] * 6, [1] * 6])  # 64 allocations
    with pytest.raises(EnumerationCapExceeded):
        is_pareto_optimal_integral(inst, IntegralAllocation(2, (0,) * 6), cap=63)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_integral_allocations(inst, cap=63))


def test_enumeration_is_lexicographic_and_checks_the_cap_first():
    inst = Instance([[1] * 3] * 3)
    got = [a.owners for a in enumerate_integral_allocations(inst)]
    assert got == sorted(got) == list(itertools.product(range(3), repeat=3))
    assert [a.owners for a in enumerate_integral_allocations(Instance([[], []]))] == [()]
    with pytest.raises(EnumerationCapExceeded):
        next(enumerate_integral_allocations(inst, cap=26))


def test_fractional_improvement_implies_integral_test_is_weaker():
    # fPO implies PO: every allocation the fPO test passes survives the
    # naive scan
    rng = random.Random(404)
    fpo_seen = 0
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        inst = rand_instance(rng, n, m)
        alloc = rand_integral(rng, n, m)
        po = oracle_is_pareto_optimal(inst, alloc)
        assert is_pareto_optimal_integral(inst, alloc) == po
        if not pareto_improvement_exists(inst, alloc):
            fpo_seen += 1
            assert po
    assert fpo_seen > 0


# ---------------------------------------------------------------------------
# welfare weight certificates


def test_welfare_weights_found_for_diagonal_optimum():
    inst = Instance([[2, 1], [1, 2]])
    weights = find_welfare_weights(inst, IntegralAllocation(2, (0, 1)))
    assert weights is not None
    assert all(w >= 1 for w in weights)


def test_welfare_weights_absent_for_crossed_allocation():
    inst = Instance([[2, 1], [1, 2]])
    assert find_welfare_weights(inst, IntegralAllocation(2, (1, 0))) is None


def test_welfare_weights_certify_fractional_shares():
    inst = Instance([[1, 1], [1, 1]])
    x = FractionalAllocation(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    weights = find_welfare_weights(inst, x)
    assert weights is not None


# Values over mixed denominators 1..4 from a short scale, so weighted
# products tie often; a column is sometimes all zeros. Weights are ints or
# Fractions, never normalized. Half the allocations hand each item to all or
# some of its weighted maximizers, so the replay is meant to hold; the rest
# are random shares.
@st.composite
def _weights_case(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    values = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4))
    cols = [[F(0)] * n if draw(st.integers(0, 4)) == 0 else draw(st.lists(values, min_size=n,
                                                                           max_size=n))
            for _ in range(m)]
    inst = Instance([[col[i] for col in cols] for i in range(n)])
    weight = st.integers(1, 6) | st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
    weights = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
    parts = []
    for col in cols:
        if draw(st.booleans()):
            scores = [weights[i] * col[i] for i in range(n)]
            top = [i for i in range(n) if scores[i] == max(scores)]
            part = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
            part = [p if i in top else 0 for i, p in enumerate(part)]
            if not any(part):
                part[top[0]] = 1
        else:
            part = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
        parts.append(part)
    alloc = FractionalAllocation(tuple(tuple(Fraction(p[i], sum(p)) for p in parts)
                                       for i in range(n)))
    return inst, alloc, weights


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_weights_case())
def test_integer_weight_replay_agrees_with_the_fraction_oracle(case):
    inst, alloc, weights = case
    certified = oracle_weights_certify(inst, alloc, weights)
    try:
        recheck_welfare_weights(inst, consumption_graph(alloc), weights)
    except InvariantViolation:
        assert not certified
    else:
        assert certified


# ---------------------------------------------------------------------------
# the exact fPO decision against both LP formulations it replaced


def _halves(n, m):
    return FractionalAllocation(((F(1, 2),) * m,) * n)


def _assert_fpo_decisions_agree(inst, alloc):
    weights = find_welfare_weights(inst, alloc)
    fpo = weights is not None
    assert pareto_improvement_exists(inst, alloc) is not fpo
    assert lp_pareto_improvement_exists(inst, alloc) is not fpo
    lp_weights = lp_find_welfare_weights(inst, alloc)
    assert (lp_weights is not None) is fpo
    if fpo:
        assert min(weights) == 1
        assert oracle_weights_certify(inst, alloc, weights)
        assert oracle_weights_certify(inst, alloc, lp_weights)
    return fpo


@st.composite
def _instance_and_allocation(draw):
    """Values -3..3 over denominators 1..3, zeros included; equal or drawn
    entitlements; an integral allocation or shares of each item split over
    a nonempty set of agents."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    values = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    rows = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n))
    inst = Instance(rows, draw(st.none() | st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    if draw(st.booleans()):
        owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        return inst, IntegralAllocation(n, tuple(owners))
    parts = [draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
             for _ in range(m)]
    return inst, FractionalAllocation(tuple(
        tuple(Fraction(p[i], sum(p)) for p in parts) for i in range(n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_instance_and_allocation())
def test_fpo_decision_agrees_with_both_lp_oracles(case):
    _assert_fpo_decisions_agree(*case)


@pytest.mark.parametrize("rows,entitlements,alloc,fpo", [
    # a zero-valued item that someone else values above 0
    ([[0], [1]], None, IntegralAllocation(2, (0,)), False),
    # a chore that someone else values at 0
    ([[-1], [0]], None, IntegralAllocation(2, (0,)), False),
    # a zero-valued item shared by agents who both value it at 0
    ([[0], [0]], None, _halves(2, 1), True),
    # the crossed allocation: a ratio cycle with product 1/4
    ([[2, 1], [1, 2]], None, IntegralAllocation(2, (1, 0)), False),
    # identical agents sharing: product exactly 1, a tie and no improvement
    ([[1, 1], [1, 1]], None, _halves(2, 2), True),
    ([[], []], None, IntegralAllocation(2, ()), True),
    ([[3, -2, 0]], None, IntegralAllocation(1, (0, 0, 0)), True),
    ([[2, 1], [1, 2]], [5, 1], IntegralAllocation(2, (0, 1)), True),
    ([[2, 1], [1, 2]], [5, 1], IntegralAllocation(2, (1, 0)), False),
    ([[3, -1], [1, -2]], [1, 4], IntegralAllocation(2, (0, 0)), True),
], ids=["zero-item-wanted", "chore-at-zero", "zero-item-shared", "crossed",
        "tie-cycle", "no-items", "one-agent", "entitled-diagonal",
        "entitled-crossed", "entitled-mixed"])
def test_fpo_decision_on_each_branch(rows, entitlements, alloc, fpo):
    inst = Instance(rows, entitlements)
    assert _assert_fpo_decisions_agree(inst, alloc) is fpo
    # entitlements are not welfare weights: they change nothing here
    assert find_welfare_weights(inst, alloc) == find_welfare_weights(Instance(rows), alloc)


def test_integral_only_checks_reject_fractional_input():
    inst = Instance([[1], [1]])
    half = FractionalAllocation(((F(1, 2),), (F(1, 2),)))
    with pytest.raises(ValueError):
        weighted_prop1(inst, half)
    with pytest.raises(ValueError):
        propx(inst, half)
    with pytest.raises(ValueError):
        is_pareto_optimal_integral(inst, half)
