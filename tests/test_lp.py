import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairdiv.lp
from fairdiv.core import Instance, InvariantViolation
from fairdiv.improve import dominance_welfare_lp
from helpers import (
    CANONICAL,
    degenerate_instances,
    general_welfare_lp,
    improvement_lp,
    is_vertex,
    rand_lp,
    to_fractional,
    vertex_enumeration_optimum,
)
from reference_lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, LpSolution, solve


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


def _agrees_with_the_reference(problem):
    """Solve ``problem`` with the library and its general statement with the
    reference, check that the library's solution is exactly the reference's
    (value, assignment, duals), and return it."""
    expected = solve(general_welfare_lp(problem.instance, problem.floors))
    assert expected.status == OPTIMAL
    got = fairdiv.lp.solve(problem)
    assert (got.value, got.assignment, got.duals) == (expected.value, expected.assignment,
                                                      expected.duals)
    return got


def test_library_pivot_is_textbook_elimination():
    # rows that share |multiplier| share products, with either sign; check
    # one pivot against row -= row[j] / prow[j] * prow cell by cell
    rng = random.Random(7)
    values = [F(0), F(0), F(1), F(-1), F(2), F(-2), F(3, 4), F(-3, 4), F(5, 3)]
    for _ in range(200):
        width = rng.randint(2, 8)
        rows = [[rng.choice(values) for _ in range(width)] for _ in range(rng.randint(1, 7))]
        r, j = rng.randrange(len(rows)), rng.randrange(width - 1)
        rows[r][j] = rng.choice(values[2:])
        obj = [rng.choice(values) for _ in range(width)]
        prow = rows[r]
        expected = [[v / prow[j] for v in prow] if row is prow
                    else [v - row[j] / prow[j] * p for v, p in zip(row, prow)]
                    for row in rows + [obj]]
        tab, basic = [list(row) for row in rows], list(range(len(rows)))
        fairdiv.lp._pivot(tab, basic, obj, r, j)
        assert tab + [obj] == expected and basic[r] == j


def _fixture_lps():
    """Improvement LPs of the fixture instances, from the proportional seed
    and from each fixture allocation, and of the degenerate instances."""
    problems = []
    for instance, allocations in CANONICAL.values():
        problems.append(improvement_lp(instance))
        problems += [dominance_welfare_lp(instance, to_fractional(a))
                     for a in allocations.values()]
    problems += [improvement_lp(inst) for inst in degenerate_instances(random.Random(23))]
    return problems


def _panel_shape_lps():
    """Improvement LPs of the shapes the solve-large benchmark times: 6
    agents x 30 items with equal weights and 7 x 28 with integer weights
    1-9, entries -9..9."""
    rng = random.Random(1909)
    problems = []
    for n, m, weighted in ((6, 30, False), (7, 28, True)):
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        weights = [rng.randint(1, 9) for _ in range(n)] if weighted else None
        problems.append(improvement_lp(Instance(rows, weights)))
    return problems


def test_library_simplex_matches_the_reference_on_fixture_and_degenerate_lps():
    problems = _fixture_lps()
    for problem in problems:
        _agrees_with_the_reference(problem)
    assert len(problems) == 41


def test_library_simplex_matches_the_reference_on_panel_shape_lps():
    problems = _panel_shape_lps()
    for problem in problems:
        _agrees_with_the_reference(problem)
    assert [(p.num_vars, len(p.constraints)) for p in problems] == [(180, 36), (196, 35)]


def test_library_simplex_matches_the_reference_when_rows_share_multipliers():
    # 6 x 30, one row of entries -9..9 and its positive multiples: a pivot
    # meets the same multiplier in many rows
    rng = random.Random(2024)
    row = [rng.randint(-9, 9) for _ in range(30)]
    problem = improvement_lp(Instance([[c * v for v in row] for c in (1, 1, 2, 1, 3, 2)]))
    assert (problem.num_vars, len(problem.constraints)) == (180, 36)
    assert _agrees_with_the_reference(problem).value == 75


def _count_multiplications(monkeypatch, problems):
    """Solve ``problems`` with ``Fraction.__mul__`` and ``__rmul__``
    counted: the number of multiplications, and how many had a 0 operand."""
    counts = {"all": 0, "zero": 0}

    def counted(mul):
        def wrapper(a, b):
            counts["all"] += 1
            counts["zero"] += a == 0 or b == 0
            return mul(a, b)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__mul__", counted(Fraction.__mul__))
        patch.setattr(Fraction, "__rmul__", counted(Fraction.__rmul__))
        for problem in problems:
            fairdiv.lp.solve(problem)
    return counts


def test_library_simplex_never_multiplies_by_zero(monkeypatch):
    # a zero operand is Fraction arithmetic spent on a product known to be
    # 0: a zero cell scaled with the pivot row, or a zero coefficient in the
    # feasibility recheck or in the objective value
    counts = _count_multiplications(monkeypatch, _fixture_lps() + _panel_shape_lps())
    assert counts["zero"] == 0
    assert counts["all"] > 100_000


def test_library_simplex_forms_each_product_once_per_pivot(monkeypatch):
    # a pivot multiplies its row's cells by each distinct |multiplier| once,
    # and by 1 not at all; forming the products row by row, as a textbook
    # elimination does, takes 120,430 multiplications on these two LPs
    counts = _count_multiplications(monkeypatch, _panel_shape_lps())
    assert counts == {"all": 64_470, "zero": 0}


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
    problem = improvement_lp(instance)
    got = _agrees_with_the_reference(problem)
    if instance.num_agents * instance.num_items <= 6:
        general = general_welfare_lp(instance, problem.floors)
        assert got.value == vertex_enumeration_optimum(general)[0]


def _refuse_infeasible():
    # one item worth 1 to the one agent, whose floor is 2
    fairdiv.lp.solve(fairdiv.lp.LpProblem(Instance([[1]]), (F(2),)))


def _refuse_unbounded():
    # column 0 prices positive and no row bounds it: -x0 + x1 = 0, x1 basic
    fairdiv.lp._run_simplex([[F(-1), F(1), F(0)]], [1], [F(1), F(0), F(0)])


def _refuse_repeated_equality():
    # after phase 1 of x0 = 1, x0 = 1 with x0 basic in the first row, the
    # second row's artificial is basic on a row of zeros
    tab = [[F(1), F(1), F(0), F(1)], [F(0), F(-1), F(1), F(0)]]
    fairdiv.lp._drive_out_artificials(tab, [0, 2], 1)


@pytest.mark.parametrize("refuse, message", [
    (_refuse_infeasible, "no feasible point"),
    (_refuse_unbounded, "unbounded"),
    (_refuse_repeated_equality, "linearly dependent"),
], ids=["infeasible", "unbounded", "repeated-equality"])
def test_library_simplex_refuses_what_the_improvement_lp_never_is(refuse, message):
    with pytest.raises(InvariantViolation, match=message):
        refuse()


def test_library_lp_states_the_improvement_lp_only():
    inst = Instance([[1, -2, 0], [F(1, 2), 3, 1]])
    problem = fairdiv.lp.LpProblem(inst, [1, F(-1, 2)])
    assert problem.floors == (1, F(-1, 2))
    assert all(type(f) is Fraction for f in problem.floors)
    assert (problem.num_vars, problem.constraints) == (6, (1, F(-1, 2), 1, 1, 1))
    with pytest.raises(ValueError, match="^the improvement LP needs one floor per agent$"):
        fairdiv.lp.LpProblem(inst, (1,))
    with pytest.raises(ValueError, match="^expected an int or Fraction, got str"):
        fairdiv.lp.LpProblem(inst, (1, "1"))


@pytest.mark.parametrize("support, message", [
    ([(0, -1)], "negative variable"),
    ([(0, 2)], "infeasible point"),
    ([(1, 1)], "infeasible point"),
], ids=["negative", "infeasible", "below-floor"])
def test_library_recheck_refuses_a_point_off_the_feasible_region(support, message):
    # solve never hands such a point over; the recheck is its last guard.
    # One item, worth 1 to both agents; agent 0's floor is 1
    problem = fairdiv.lp.LpProblem(Instance([[1], [1]]), (F(1), F(0)))
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
    # vacuous, and the library may not lean on anything under tests/. Nor
    # may helpers' fixture reader lean on the reader test_cli checks it with.
    test_modules = {p.stem for p in TESTS.glob("*.py")} | {"tests", "conftest"}
    for path in sorted((TESTS.parent / "src" / "fairdiv").glob("*.py")):
        for name in _imported_modules(path):
            assert name.split(".")[0] not in test_modules, (path.name, name)
    library = [name for name in _imported_modules(TESTS / "reference_lp.py")
               if name.split(".")[0] == "fairdiv"]
    assert library == ["fairdiv.core"]
    assert "fairdiv.serialize" not in _imported_modules(TESTS / "helpers.py")
