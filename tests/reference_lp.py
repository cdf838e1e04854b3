"""Reference LP solver for the tests: general two-phase simplex over rationals.

The solver maximizes a linear objective subject to <=, =, >= constraints with
all variables nonnegative. Arithmetic is ``fractions.Fraction`` throughout, so
optima are exact and equality of optimal values across related programs is
decidable. Pivoting follows Bland's rule (lowest eligible index enters, ties
in the ratio test broken by lowest basic index), which rules out cycling and
makes the solver fully deterministic: a fixed problem always yields the same
optimal basis, hence the same vertex.

The returned assignment is a basic feasible solution, i.e. an extreme point
of the feasible region. The improvement stage relies on that: extreme points
of allocation polytopes have sparse support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from fairdiv.core import InvariantViolation, as_fraction

RELATIONS = ("<=", "=", ">=")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  subject to  constraints, x >= 0.

    Each constraint is a triple (coefficients, relation, rhs) with relation
    one of "<=", "=", ">=". Nonnegativity of every variable is implicit.
    """

    num_vars: int
    objective: tuple
    constraints: tuple

    def __post_init__(self):
        obj = tuple(as_fraction(c) for c in self.objective)
        if len(obj) != self.num_vars:
            raise ValueError("objective length must equal num_vars")
        rows = []
        for coeffs, rel, rhs in self.constraints:
            coeffs = tuple(as_fraction(c) for c in coeffs)
            if len(coeffs) != self.num_vars:
                raise ValueError("constraint width must equal num_vars")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            rows.append((coeffs, rel, as_fraction(rhs)))
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome.

    For status "optimal", ``assignment`` is an extreme point attaining
    ``value`` and ``basis`` holds the basic column indices: indices below
    ``num_vars`` are problem variables, higher ones slack variables in
    constraint order. ``duals`` holds one entry per constraint, in
    ``problem.constraints`` order: for an inequality row, its shadow price
    (the rate at which the optimal value moves with that row's rhs: >= 0 for
    "<=" rows, <= 0 for ">=" rows), and None for "=" rows. The shadow prices
    form an optimal dual solution, so complementary slackness ties them to
    every optimal assignment. Otherwise value, assignment, basis and duals
    are None.
    """

    status: str
    value: Fraction = None
    assignment: tuple = None
    basis: frozenset = None
    duals: tuple = None


def solve(problem: LpProblem) -> LpSolution:
    """Solve an LpProblem exactly; see module docstring for guarantees."""
    tab, basic, slacks, n_struct, art_start = _standard_form(problem)

    has_artificials = any(b >= art_start for b in basic)
    if has_artificials:
        cost1 = [Fraction(0)] * art_start + [Fraction(-1)] * (len(tab[0]) - 1 - art_start)
        obj = _reduced_costs(tab, basic, cost1)
        _run_simplex(tab, basic, obj)
        if obj[-1] != 0:
            return LpSolution(status=INFEASIBLE)
        _drive_out_artificials(tab, basic, art_start)
        tab = [row[:art_start] + [row[-1]] for row in tab]

    cost2 = list(problem.objective) + [Fraction(0)] * (art_start - n_struct)
    obj = _reduced_costs(tab, basic, cost2)
    if not _run_simplex(tab, basic, obj):
        return LpSolution(status=UNBOUNDED)

    support = [(b, tab[r][-1]) for r, b in enumerate(basic) if b < n_struct and tab[r][-1]]
    assignment = [Fraction(0)] * n_struct
    for j, x in support:
        assignment[j] = x
    value = sum((problem.objective[j] * x for j, x in support), Fraction(0))
    _recheck_feasible(problem, support)
    return LpSolution(
        status=OPTIMAL,
        value=value,
        assignment=tuple(assignment),
        basis=frozenset(basic),
        duals=_shadow_prices(obj, slacks),
    )


def _shadow_prices(obj, slacks) -> tuple:
    """Shadow prices read off the final phase-2 objective row.

    Every row operation keeps ``obj`` equal to ``cost - y . A`` for some
    multipliers ``y`` on the original rows, and at optimality ``y`` is an
    optimal dual solution. Slack column k appears only in row k, with
    coefficient ``sign`` in the row's original orientation, so its reduced
    cost is ``-sign * y_k``. Artificial columns are gone by phase 2, which
    is why "=" rows get None.
    """
    return tuple(None if s is None else -s[1] * obj[s[0]] for s in slacks)


def _standard_form(problem: LpProblem):
    """Equality tableau with rhs >= 0; slack basis where possible.

    A ">=" row with nonpositive rhs is negated into a "<=" row so its slack
    can start basic; artificials are introduced only for "=" rows and ">="
    rows with positive rhs. ``slacks`` gives, per original row, its slack
    column and that column's coefficient in the row as the problem states
    it (+1 for "<=", -1 for ">="), or None for an "=" row.
    """
    rows = []
    for coeffs, rel, rhs in problem.constraints:
        coeffs = list(coeffs)
        sign = -1 if rel == ">=" else 1
        if rhs < 0 or (rhs == 0 and rel == ">="):
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((coeffs, rel, rhs, sign))

    n_struct = problem.num_vars
    n_slack = sum(1 for _, rel, _, _ in rows if rel != "=")
    art_rows = [r for r, (_, rel, _, _) in enumerate(rows) if rel != "<="]
    art_start = n_struct + n_slack
    width = art_start + len(art_rows) + 1

    tab = []
    basic = []
    slacks = []
    zero = Fraction(0)
    slack_col = n_struct
    art_col = art_start
    for coeffs, rel, rhs, sign in rows:
        row = coeffs + [zero] * (width - n_struct - 1) + [rhs]
        slacks.append(None if rel == "=" else (slack_col, sign))
        if rel == "<=":
            row[slack_col] = Fraction(1)
            basic.append(slack_col)
            slack_col += 1
        elif rel == ">=":
            row[slack_col] = Fraction(-1)
            slack_col += 1
            row[art_col] = Fraction(1)
            basic.append(art_col)
            art_col += 1
        else:
            row[art_col] = Fraction(1)
            basic.append(art_col)
            art_col += 1
        tab.append(row)
    return tab, basic, slacks, n_struct, art_start


def _reduced_costs(tab, basic, cost):
    """Objective row [d_0 .. d_N, -value]; the negated value cell keeps the
    pivot update uniform across the whole row. ``cost`` prices every column
    of the tableau."""
    obj = list(cost) + [Fraction(0)]
    for r, b in enumerate(basic):
        cb = cost[b]
        if cb:
            row = tab[r]
            for j, v in enumerate(row):
                if v:
                    obj[j] -= cb * v
    return obj


def _run_simplex(tab, basic, obj) -> bool:
    """Bland-rule pivoting until optimal (True) or unbounded (False)."""
    ncols = len(obj) - 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return True
        leave = None
        best = None
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basic[r] < basic[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            return False
        _pivot(tab, basic, obj, leave, enter)


def _pivot(tab, basic, obj, r, j):
    prow = tab[r]
    inv = Fraction(1) / prow[j]
    if inv != 1:
        tab[r] = prow = [v * inv for v in prow]
    support = [k for k, v in enumerate(prow) if v]
    for row in tab:
        if row is prow:
            continue
        f = row[j]
        if f:
            for k in support:
                row[k] -= f * prow[k]
    f = obj[j]
    if f:
        for k in support:
            obj[k] -= f * prow[k]
    basic[r] = j


def _drive_out_artificials(tab, basic, art_start):
    """Replace basic artificials (all at value 0 here) by real columns, or
    drop rows that turned out redundant."""
    for r in range(len(tab) - 1, -1, -1):
        if basic[r] < art_start:
            continue
        row = tab[r]
        col = next((j for j in range(art_start) if row[j]), None)
        if col is None:
            del tab[r]
            del basic[r]
            continue
        _pivot(tab, basic, [Fraction(0)] * len(row), r, col)


def _recheck_feasible(problem: LpProblem, support) -> None:
    """Substitute the solution, given as its nonzero ``(index, value)``
    entries, back into the original constraints."""
    if any(x < 0 for _, x in support):
        raise InvariantViolation("solver produced a negative variable")
    for coeffs, rel, rhs in problem.constraints:
        lhs = sum((coeffs[j] * x for j, x in support), Fraction(0))
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            raise InvariantViolation("solver produced an infeasible point")
