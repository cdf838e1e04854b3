"""Acceptance gate: the package's end-to-end guarantees, checked at full
strength. ``helpers.check_theorem`` states the paper's theorem once, with
the oracles of ``helpers``; ``test_every_output_is_weighted_prop1_and_fpo``
asserts it on the seeded input streams, and the random-suite and weights
tests on the 500-instance suite and the canonical fixtures. Each other test
covers one promised behavior. Each
prints a single summary line; run with -v for one pass/fail line per
guarantee.
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
    pareto_dominates,
    propx,
    weighted_prop1,
)
from helpers import (
    CANONICAL,
    CHORES_BLOCKS_X,
    CHORES_BLOCKS_Y,
    GOODS_BLOCKS_X,
    GOODS_BLOCKS_Y,
    IDENTICAL_ITEMS_BALANCED,
    check_theorem,
    chores_blocks_instance,
    degenerate_instances,
    forest_fixture,
    goods_blocks_instance,
    identical_items_instance,
    is_vertex,
    rand_instance,
    rand_lp,
    vertex_enumeration_optimum,
)
from reference_lp import OPTIMAL, solve

F = Fraction


def _drawn(seed: int, count: int, agents: tuple, items: tuple, mode) -> list:
    """``count`` instances from ``Random(seed)``: n and m drawn from the
    ranges, then the weight mode that ``mode(rng, trial)`` names."""
    rng = random.Random(seed)
    out = []
    for trial in range(count):
        n, m = rng.randint(*agents), rng.randint(*items)
        out.append(rand_instance(rng, n, m, weight_mode=mode(rng, trial)))
    return out


def _equal_first(rng, trial):
    return ("equal", "random")[trial % 2]


def _random_first(rng, trial):
    return ("random", "equal")[trial % 2]


# The seeded streams that no other test owns: each one's instances, and
# whether allocate runs twice on each to show that it is deterministic.
# "seed-31" reaches n = 1 and m = 0. The 500-instance suite and the canonical
# fixtures have tests of their own below; the integer 2x3 corpus is checked
# in test_corpus_digests and the p/q one in test_improve's floors test.
STREAMS = {
    "seed-8": (lambda: _drawn(8, 10, (2, 4), (2, 6), _equal_first), False),
    "seed-1009": (lambda: _drawn(1009, 25, (2, 3), (2, 5), _random_first), False),
    "seed-523": (lambda: _drawn(523, 15, (2, 4), (1, 5), lambda rng, trial: "random"), False),
    "seed-31": (lambda: _drawn(31, 40, (1, 4), (0, 6),
                               lambda rng, trial: rng.choice(["equal", "random"])), False),
    "seed-41": (lambda: [rand_instance(random.Random(41), 3, 5, weight_mode="random")], True),
    "seed-77": (lambda: [rand_instance(random.Random(77), 3, 5)], True),
    "degenerate-19": (lambda: list(degenerate_instances(random.Random(19))), False),
}


def _assert_theorem(name: str, instances: list, twice: bool = False) -> None:
    start = time.perf_counter()
    hits = check_theorem(instances, twice)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"{name}: {len(instances)} outputs, {hits} without an LP, weighted PROP1 and "
          f"fPO with their certificates in {elapsed:.1f}s: pass")


@pytest.mark.parametrize("stream", list(STREAMS))
def test_every_output_is_weighted_prop1_and_fpo(stream):
    build, twice = STREAMS[stream]
    _assert_theorem(stream, build(), twice)


def test_pipeline_guarantees_on_random_suite():
    # n in 2..4, m in 2..6, integer utilities in [-5, 5] with zeros possible,
    # alternating equal and random entitlements
    _assert_theorem("random suite", _drawn(20260819, 500, (2, 4), (2, 6), _equal_first))


def test_emitted_weights_certify_both_allocations():
    # and the rest of the theorem, on the canonical fixtures, each run twice
    _assert_theorem("fixtures", [inst for inst, _ in CANONICAL.values()], twice=True)


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
# cost small. A call's fixed cost, about 14 us at one item, is most of a
# 20 us call at 10 items and would pull the slope toward its floor, so the
# smallest size is 100 items (about 95 us a call). Sizes are timed
# interleaved so machine-load swings hit every size equally, and the
# minimum per size is kept.
_SCALING_SIZES = (100, 1000, 10000)
_SCALING_REPS = {100: 1500, 1000: 150, 10000: 15}


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
