import random
from fractions import Fraction

import pytest

from fairdiv.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, LpSolution, solve
from helpers import is_vertex, rand_lp, vertex_enumeration_optimum


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
