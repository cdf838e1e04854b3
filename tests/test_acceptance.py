"""Acceptance gate: the package's end-to-end guarantees, checked at full
strength. Each test covers one promised behavior and prints a single
summary line; run with -v for one pass/fail line per guarantee.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from fairdiv.core import FractionalAllocation, Instance
from fairdiv.rounding import allocate, round_acyclic
from fairdiv.verify import (
    ADD_ITEM,
    REMOVE_ITEM,
    enumerate_integral_allocations,
    enumeration_size,
    is_pareto_optimal_integral,
    pareto_dominates,
    pareto_improvement_exists,
    propx,
    weighted_prop1,
)
from helpers import (
    CHORES_BLOCKS_X,
    CHORES_BLOCKS_Y,
    GOODS_BLOCKS_X,
    GOODS_BLOCKS_Y,
    IDENTICAL_ITEMS_BALANCED,
    chores_blocks_instance,
    forest_fixture,
    goods_blocks_instance,
    identical_items_instance,
    is_vertex,
    oracle_weights_certify,
    rand_instance,
    rand_lp,
    vertex_enumeration_optimum,
)
from reference_lp import OPTIMAL, solve

F = Fraction

@pytest.fixture(scope="module")
def random_suite():
    """500 instances, n in 2..4, m in 2..6, integer utilities in [-5, 5]
    with zeros possible, alternating equal and random entitlements."""
    rng = random.Random(20260819)
    suite = []
    for trial in range(500):
        n = rng.randint(2, 4)
        m = rng.randint(2, 6)
        mode = "equal" if trial % 2 == 0 else "random"
        suite.append(rand_instance(rng, n, m, weight_mode=mode))
    return suite


def test_pipeline_guarantees_on_random_suite(random_suite):
    start = time.perf_counter()
    for inst in random_suite:
        result = allocate(inst)
        assert result.prop1.holds
        assert is_pareto_optimal_integral(inst, result.integral)
        assert not pareto_improvement_exists(inst, result.integral)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"500 random instances: PROP1 + PO + fPO all hold in {elapsed:.1f}s: pass")


def test_emitted_weights_certify_both_allocations(random_suite):
    suite = random_suite + [goods_blocks_instance(), chores_blocks_instance(),
                            identical_items_instance()]
    for inst in suite:
        result = allocate(inst)
        weights = result.welfare_weights
        assert len(weights) == inst.num_agents and all(w > 0 for w in weights)
        assert oracle_weights_certify(inst, result.fractional, weights)
        assert oracle_weights_certify(inst, result.integral, weights)
    print(f"{len(suite)} instances: the emitted welfare weights certify the "
          "fractional intermediate and the integral output: pass")


def test_goods_instance_dominating_allocation_fails_prop1():
    inst = goods_blocks_instance()
    assert weighted_prop1(inst, GOODS_BLOCKS_X).holds
    assert pareto_dominates(inst, GOODS_BLOCKS_Y, GOODS_BLOCKS_X)
    report = weighted_prop1(inst, GOODS_BLOCKS_Y)
    assert not report.holds
    witness = report.witnesses[0]
    assert not witness.satisfied
    assert witness.rule == ADD_ITEM
    assert witness.bundle_value == F(3, 10)
    assert witness.adjusted_value == F(3, 10) + F(1, 40) == F(13, 40)
    assert witness.bound == F(1, 3)
    assert witness.adjusted_value < witness.bound
    print("goods blocks: x is PROP1, y dominates x yet fails PROP1 at 13/40 < 1/3: pass")


def test_chores_instance_dominating_allocation_fails_prop1():
    inst = chores_blocks_instance()
    assert weighted_prop1(inst, CHORES_BLOCKS_X).holds
    assert pareto_dominates(inst, CHORES_BLOCKS_Y, CHORES_BLOCKS_X)
    report = weighted_prop1(inst, CHORES_BLOCKS_Y)
    assert not report.holds
    witness = report.witnesses[0]
    assert not witness.satisfied
    assert witness.rule == REMOVE_ITEM
    assert witness.bundle_value == F(-2, 5)
    assert witness.adjusted_value == F(-2, 5) - F(-1, 25) == F(-9, 25)
    assert witness.bound == F(-1, 3)
    assert witness.adjusted_value < witness.bound
    print("chores blocks: x is PROP1, y dominates x yet fails PROP1 at -9/25 < -1/3: pass")


def test_identical_items_admit_no_propx_allocation():
    inst = identical_items_instance()
    assert enumeration_size(inst) == 243
    count = sum(1 for candidate in enumerate_integral_allocations(inst)
                if propx(inst, candidate).holds)
    assert count == 0
    report = propx(inst, IDENTICAL_ITEMS_BALANCED)
    assert not report.holds
    witness = report.witnesses[2]
    assert not witness.satisfied
    assert witness.adjusted_value == 4
    assert witness.bound == F(13, 3)
    print("identical items: 0 of 243 allocations are PROPX; balanced one stops at 4 < 13/3: pass")


def test_sharing_forest_rounding_owners():
    inst, allocation, owners = forest_fixture()
    assert round_acyclic(inst, allocation).owners == owners
    print("sharing forest: the rounding walk gives the expected owners: pass")


def _chain_sharing(n: int, m: int):
    """All-ones utilities; items 0..n-2 split half-half along an agent
    chain, every later item owned outright. The sharing graph is a path,
    so rounding sees a forest whatever m is."""
    ones = tuple((F(1),) * m for _ in range(n))
    inst = Instance(ones)
    half = F(1, 2)
    rows = [[F(0)] * m for _ in range(n)]
    for o in range(n - 1):
        rows[o][o] = half
        rows[o + 1][o] = half
    for o in range(n - 1, m):
        rows[o % n][o] = F(1)
    allocation = FractionalAllocation(tuple(tuple(r) for r in rows))
    return inst, allocation


# In any forest a shared item uses two of the at most n+m-1 edges, so the
# walk touches O(n) shared items no matter how large m grows; per-item
# bookkeeping is the scaling part. Two agents keep the m-independent walk
# cost from drowning the signal at m=10. Sizes are timed interleaved so
# machine-load swings hit every size equally, and the minimum per size is
# kept.
_SCALING_SIZES = (10, 100, 1000)
_SCALING_REPS = {10: 6000, 100: 2000, 1000: 200}


def _rounding_times_per_size(n: int) -> dict:
    fixtures = {m: _chain_sharing(n, m) for m in _SCALING_SIZES}
    best = {m: math.inf for m in _SCALING_SIZES}
    for _ in range(10):
        for m in _SCALING_SIZES:
            inst, allocation = fixtures[m]
            reps = _SCALING_REPS[m]
            start = time.perf_counter()
            for _ in range(reps):
                round_acyclic(inst, allocation)
            best[m] = min(best[m], (time.perf_counter() - start) / reps)
    return best


def _lsq_slope(points) -> float:
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def test_large_instances_solve_fast_and_rounding_scales_linearly():
    rng = random.Random(77)
    solve_times = []
    for trial in range(3):
        inst = rand_instance(rng, 10, 50,
                             weight_mode="random" if trial % 2 else "equal")
        start = time.perf_counter()
        allocate(inst)
        solve_times.append(time.perf_counter() - start)
    assert all(t < 30 for t in solve_times)

    n = 2
    best = _rounding_times_per_size(n)
    points = [(math.log(n + m), math.log(best[m])) for m in _SCALING_SIZES]
    slope = _lsq_slope(points)
    assert 0.8 <= slope <= 1.2
    print(f"10x50 solves in at most {max(solve_times):.2f}s; "
          f"rounding cost fits (n+m)^{slope:.3f}: pass")


def test_simplex_agrees_with_vertex_enumeration():
    rng = random.Random(4242)
    checked = 0
    for _ in range(220):
        problem = rand_lp(rng)
        solution = solve(problem)
        assert solution.status == OPTIMAL
        best = vertex_enumeration_optimum(problem)
        assert best is not None
        assert solution.value == best[0]
        assert is_vertex(problem, solution.assignment)
        checked += 1
    assert checked >= 200
    print(f"{checked} random programs: simplex optimum matches vertex "
          "enumeration exactly and lands on vertices: pass")
