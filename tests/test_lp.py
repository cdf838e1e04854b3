import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairdiv.lp
from fairdiv.core import Instance, InvariantViolation
from fairdiv.improve import dominance_welfare_lp, proportional_seed
from helpers import (
    CHORES_BLOCKS_X,
    CHORES_BLOCKS_Y,
    GOODS_BLOCKS_X,
    GOODS_BLOCKS_Y,
    IDENTICAL_ITEMS_BALANCED,
    chores_blocks_instance,
    goods_blocks_instance,
    identical_items_instance,
    is_vertex,
    rand_lp,
    to_fractional,
    vertex_enumeration_optimum,
)
from reference_lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, LpSolution, solve
from test_rounding import _degenerate_instances


F = Fraction


def lp(num_vars, objective, constraints):
    return LpProblem(num_vars, tuple(objective), tuple(constraints))


def test_single_variable_bound():
    sol = solve(lp(1, [1], [((1,), "<=", 3)]))
    assert sol.status == OPTIMAL
    assert sol.value == 3
    assert sol.assignment == (3,)


def test_two_variable_known_optimum():
    sol = solve(lp(2, [1, 1], [((1, 2), "<=", 4), ((1, 0), "<=", 2)]))
    assert sol.status == OPTIMAL
    assert sol.value == 3
    assert sol.assignment == (2, 1)


def test_equality_constraint():
    sol = solve(lp(2, [0, 1], [((1, 1), "=", 1)]))
    assert sol.status == OPTIMAL
    assert sol.value == 1
    assert sol.assignment == (0, 1)


def test_greater_equal_constraint():
    sol = solve(lp(2, [-1, -2], [((1, 1), ">=", 2), ((1, 0), "<=", 5), ((0, 1), "<=", 5)]))
    assert sol.status == OPTIMAL
    assert sol.value == -2
    assert sol.assignment == (2, 0)


def test_duals_of_less_equal_rows():
    # both rows tight at (2, 1): (1, 1) = 1/2 * (1, 2) + 1/2 * (1, 0)
    sol = solve(lp(2, [1, 1], [((1, 2), "<=", 4), ((1, 0), "<=", 2)]))
    assert sol.duals == (F(1, 2), F(1, 2))


def test_duals_of_greater_equal_row_with_positive_rhs():
    # optimum (2, 0); raising the >= rhs by d costs d, the boxes are slack
    sol = solve(lp(2, [-1, -2], [((1, 1), ">=", 2), ((1, 0), "<=", 5), ((0, 1), "<=", 5)]))
    assert sol.duals == (-1, 0, 0)


def test_duals_of_rows_negated_for_negative_rhs():
    # -x <= b gives x >= -b, optimum of max -x is b: shadow price 1
    assert solve(lp(1, [-1], [((-1,), "<=", -2)])).duals == (1,)
    # -x >= b gives x <= -b, optimum of max x is -b: shadow price -1
    assert solve(lp(1, [1], [((-1,), ">=", -3)])).duals == (-1,)


def test_duals_of_greater_equal_row_with_zero_rhs():
    # max 2x + y, x + y <= 4, y - x >= b: optimum 6 - b/2 at b = 0, and the
    # first row's price solves (2, 1) = p1 * (1, 1) + p2 * (-1, 1)
    sol = solve(lp(2, [2, 1], [((1, 1), "<=", 4), ((-1, 1), ">=", 0)]))
    assert sol.assignment == (2, 2)
    assert sol.duals == (F(3, 2), F(-1, 2))


def test_duals_of_equality_rows_are_none():
    sol = solve(lp(2, [0, 1], [((1, 1), "=", 1), ((1, 0), "<=", 1)]))
    assert sol.duals == (None, 0)


def test_duals_are_optimal_for_the_dual_program():
    # on inequality-only programs, the duals must be sign-feasible, price
    # every column at or above its cost, and match the primal optimum
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        k = rng.randint(1, 4)
        cons = []
        for v in range(k):
            cons.append((tuple(F(int(j == v)) for j in range(k)), "<=", F(rng.randint(1, 6))))
        for _ in range(rng.randint(0, 4)):
            coeffs = tuple(F(rng.randint(-4, 4)) for _ in range(k))
            cons.append((coeffs, rng.choice(["<=", ">="]), F(rng.randint(-3, 3))))
        problem = lp(k, [rng.randint(-5, 5) for _ in range(k)], cons)
        sol = solve(problem)
        if sol.status != OPTIMAL:
            continue
        duals = sol.duals
        for (_, rel, _), y in zip(problem.constraints, duals):
            assert y >= 0 if rel == "<=" else y <= 0
        for j in range(k):
            priced = sum((y * coeffs[j] for (coeffs, _, _), y in zip(problem.constraints, duals)),
                         F(0))
            assert priced >= problem.objective[j]
        assert sum((y * rhs for (_, _, rhs), y in zip(problem.constraints, duals)),
                   F(0)) == sol.value
        checked += 1
    assert checked >= 30


def test_infeasible():
    sol = solve(lp(1, [1], [((1,), "<=", 1), ((1,), ">=", 2)]))
    assert sol.status == INFEASIBLE
    assert sol.value is None
    assert sol.assignment is None


def test_unbounded():
    assert solve(lp(1, [1], [])).status == UNBOUNDED
    assert solve(lp(2, [1, 1], [((1, -1), "<=", 0)])).status == UNBOUNDED


def test_zero_variables():
    assert solve(lp(0, [], [((), "=", 0)])).value == 0
    assert solve(lp(0, [], [((), "=", 1)])).status == INFEASIBLE
    assert solve(lp(0, [], [((), "<=", 2)])).value == 0


def test_redundant_equalities():
    sol = solve(lp(1, [1], [((1,), "=", 1), ((1,), "=", 1)]))
    assert sol.status == OPTIMAL
    assert sol.assignment == (1,)


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2
    sol = solve(lp(1, [-1], [((-1,), "<=", -2)]))
    assert sol.status == OPTIMAL
    assert sol.assignment == (2,)


def test_bland_terminates_on_classic_cycling_program():
    # Beale's example; Dantzig pricing cycles on it, Bland must not.
    problem = lp(
        4,
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            ((Fraction(1, 4), -60, Fraction(-1, 25), 9), "<=", 0),
            ((Fraction(1, 2), -90, Fraction(-1, 50), 3), "<=", 0),
            ((0, 0, 1, 0), "<=", 1),
        ],
    )
    sol = solve(problem)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(1, 20)
    value, _ = vertex_enumeration_optimum(problem)
    assert sol.value == value


def test_solution_is_deterministic():
    problem = lp(3, [2, 1, 1], [((1, 1, 1), "<=", 4), ((1, 0, 0), ">=", 1)])
    a, b = solve(problem), solve(problem)
    assert a == b
    assert isinstance(a, LpSolution)


def test_rejects_malformed_problems():
    with pytest.raises(ValueError):
        lp(2, [1], [])
    with pytest.raises(ValueError):
        lp(1, [1], [((1, 2), "<=", 1)])
    with pytest.raises(ValueError):
        lp(1, [1], [((1,), "<", 1)])
    with pytest.raises(ValueError):
        lp(1, [0.5], [])


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(2024)
    for _ in range(60):
        problem = rand_lp(rng)
        sol = solve(problem)
        assert sol.status == OPTIMAL
        expected = vertex_enumeration_optimum(problem)
        assert expected is not None
        assert sol.value == expected[0]
        assert is_vertex(problem, sol.assignment)


def test_nonbasic_structural_variables_are_zero():
    rng = random.Random(5)
    for _ in range(30):
        problem = rand_lp(rng)
        sol = solve(problem)
        for j in range(problem.num_vars):
            if j not in sol.basis:
                assert sol.assignment[j] == 0


# ---------------------------------------------------------------------------
# the library's simplex
#
# fairdiv.lp solves only the improvement LP, which is feasible, bounded and
# of full row rank. On every such program it must pivot exactly as the
# general solver in reference_lp does: same vertex, value and duals.

TESTS = Path(__file__).resolve().parent


def _improvement_lp(instance, baseline=None):
    if baseline is None:
        baseline = proportional_seed(instance)
    return dominance_welfare_lp(instance, baseline)


def _agrees_with_the_reference(problem):
    """Solve ``problem`` with both solvers, check that the library's
    solution is exactly the reference's (value, assignment, duals), and
    return it."""
    expected = solve(problem)
    assert expected.status == OPTIMAL
    got = fairdiv.lp.solve(problem)
    assert (got.value, got.assignment, got.duals) == (expected.value, expected.assignment,
                                                      expected.duals)
    return got


def test_library_simplex_matches_the_reference_on_fixture_and_degenerate_lps():
    fixtures = [
        (goods_blocks_instance(), (GOODS_BLOCKS_X, GOODS_BLOCKS_Y)),
        (chores_blocks_instance(), (CHORES_BLOCKS_X, CHORES_BLOCKS_Y)),
        (identical_items_instance(), (IDENTICAL_ITEMS_BALANCED,)),
    ]
    problems = []
    for instance, allocations in fixtures:
        problems.append(_improvement_lp(instance))
        problems += [_improvement_lp(instance, to_fractional(a)) for a in allocations]
    problems += [_improvement_lp(inst) for inst in _degenerate_instances(random.Random(23))]
    for problem in problems:
        _agrees_with_the_reference(problem)
    assert len(problems) == 41


@st.composite
def _instances(draw):
    """1-4 agents and 0-7 items: random rows, identical rows, positive
    multiples of one row or sparse rows, any of them possibly all zeros,
    with equal or drawn entitlements."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 7))
    values = st.integers(-4, 4)
    base = draw(st.lists(values, min_size=m, max_size=m))
    kind = draw(st.sampled_from(["random", "identical", "scaled", "sparse"]))
    if kind == "random":
        rows = [draw(st.lists(values, min_size=m, max_size=m)) for _ in range(n)]
    elif kind == "identical":
        rows = [base] * n
    elif kind == "scaled":
        factors = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3)
        rows = [[f * v for v in base] for f in draw(st.lists(factors, min_size=n, max_size=n))]
    else:
        sparse = st.sampled_from((0, 0, 0, 1, -1, 2))
        rows = [draw(st.lists(sparse, min_size=m, max_size=m)) for _ in range(n)]
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = [[0] * m if z else row for row, z in zip(rows, zero)]
    weights = draw(st.none() | st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return Instance(rows, weights)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_instances())
def test_library_simplex_matches_the_reference_on_random_improvement_lps(instance):
    problem = _improvement_lp(instance)
    got = _agrees_with_the_reference(problem)
    if instance.num_agents * instance.num_items <= 6:
        assert got.value == vertex_enumeration_optimum(problem)[0]


@pytest.mark.parametrize("constraints, message", [
    ([((1,), ">=", 2), ((1,), "=", 1)], "no feasible point"),
    ([((1,), ">=", 0)], "unbounded"),
    ([((1,), "=", 1), ((1,), "=", 1)], "linearly dependent"),
], ids=["infeasible", "unbounded", "repeated-equality"])
def test_library_simplex_refuses_what_the_improvement_lp_never_is(constraints, message):
    problem = fairdiv.lp.LpProblem(1, (Fraction(1),), tuple(constraints))
    with pytest.raises(InvariantViolation, match=message):
        fairdiv.lp.solve(problem)


def test_library_lp_rejects_less_equal_rows():
    with pytest.raises(ValueError, match="unknown relation '<='"):
        fairdiv.lp.LpProblem(1, (1,), (((1,), "<=", 1),))
    with pytest.raises(ValueError, match="^objective length must equal num_vars$"):
        fairdiv.lp.LpProblem(2, (1,), ())
    with pytest.raises(ValueError, match="^constraint width must equal num_vars$"):
        fairdiv.lp.LpProblem(2, (1, 1), (((1,), ">=", 1),))


@pytest.mark.parametrize("support, message", [
    ([(0, -1)], "negative variable"),
    ([(0, 2)], "infeasible point"),
], ids=["negative", "infeasible"])
def test_library_recheck_refuses_a_point_off_the_feasible_region(support, message):
    # solve never hands such a point over; the recheck is its last guard
    problem = fairdiv.lp.LpProblem(1, (Fraction(1),), (((1,), "=", 1),))
    fairdiv.lp._recheck_feasible(problem, [(0, Fraction(1))])
    with pytest.raises(InvariantViolation, match=f"^solver produced an? {message}$"):
        fairdiv.lp._recheck_feasible(problem, support)


def _imported_modules(path) -> list:
    """Every module ``path`` imports; ``from package import name`` counts
    as importing ``package.name``, since the name may be a module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "fairdiv":
                names += [f"fairdiv.{alias.name}" for alias in node.names]
            else:
                names.append(node.module)
    return names


def test_library_and_reference_solvers_stay_apart():
    # A reference that re-exported fairdiv.lp would make the agreement tests
    # vacuous, and the library may not lean on anything under tests/.
    test_modules = {p.stem for p in TESTS.glob("*.py")} | {"tests", "conftest"}
    for path in sorted((TESTS.parent / "src" / "fairdiv").glob("*.py")):
        for name in _imported_modules(path):
            assert name.split(".")[0] not in test_modules, (path.name, name)
    library = [name for name in _imported_modules(TESTS / "reference_lp.py")
               if name.split(".")[0] == "fairdiv"]
    assert library == ["fairdiv.core"]
