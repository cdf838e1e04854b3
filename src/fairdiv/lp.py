"""Exact linear programming: the improvement LP's two-phase simplex over rationals.

The one program solved is ``improve.dominance_welfare_lp``: maximize welfare
with a ">=" row per agent (its baseline utility), an "=" row per item (fully
allocated) and every variable nonnegative. Arithmetic is
``fractions.Fraction`` throughout, so optima are exact. Pivoting follows
Bland's rule (lowest eligible index enters, ties in the ratio test broken by
lowest basic index), which rules out cycling and makes the solver fully
deterministic: a fixed problem always yields the same optimal basis, hence
the same vertex. That vertex is an extreme point of the feasible region,
which the improvement stage relies on: extreme points of allocation
polytopes have sparse support.

Three paths of a general simplex cannot run on that program, so each
raises InvariantViolation:

- phase 1 ending above 0 (no feasible point): the baseline allocation
  meets every row;
- no leaving row in phase 2 (unbounded): every ``x_io`` lies in [0, 1],
  since ``sum_j x_jo = 1``;
- after phase 1, a basic artificial whose row has no nonzero real column
  (dependent rows): each agent row has its own slack, which no other row
  touches, and the item rows have disjoint, nonempty supports.
"""

from __future__ import annotations

from fractions import Fraction

from fairdiv.core import InvariantViolation, Record, as_fraction


class LpProblem(Record):
    """max objective . x  subject to  constraints, x >= 0.

    Each constraint is a triple (coefficients, relation, rhs) with relation
    ">=" or "=". Nonnegativity of every variable is implicit.
    """

    _fields = ("num_vars", "objective", "constraints")

    def __init__(self, num_vars, objective, constraints):
        obj = tuple(as_fraction(c) for c in objective)
        if len(obj) != num_vars:
            raise ValueError("objective length must equal num_vars")
        rows = []
        for coeffs, rel, rhs in constraints:
            coeffs = tuple(as_fraction(c) for c in coeffs)
            if len(coeffs) != num_vars:
                raise ValueError("constraint width must equal num_vars")
            if rel not in (">=", "="):
                raise ValueError(f"unknown relation {rel!r}")
            rows.append((coeffs, rel, as_fraction(rhs)))
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))


class LpSolution(Record):
    """An optimal vertex: ``assignment`` attains ``value``.

    ``duals`` holds one entry per constraint, in ``problem.constraints``
    order: for a ">=" row, its shadow price (the rate at which the optimal
    value moves with that row's rhs, <= 0), and None for an "=" row. The
    shadow prices form an optimal dual solution, so complementary slackness
    ties them to every optimal assignment.
    """

    _fields = ("value", "assignment", "duals")


def solve(problem: LpProblem) -> LpSolution:
    """Solve an LpProblem exactly; see module docstring for guarantees."""
    tab, basic, art_start = _standard_form(problem)
    n_struct = problem.num_vars

    if any(b >= art_start for b in basic):
        cost1 = [Fraction(0)] * art_start + [Fraction(-1)] * (len(tab[0]) - 1 - art_start)
        obj = _reduced_costs(tab, basic, cost1)
        _run_simplex(tab, basic, obj)
        if obj[-1] != 0:
            raise InvariantViolation("the LP has no feasible point")
        _drive_out_artificials(tab, basic, art_start)
        tab = [row[:art_start] + [row[-1]] for row in tab]

    cost2 = list(problem.objective) + [Fraction(0)] * (art_start - n_struct)
    obj = _reduced_costs(tab, basic, cost2)
    _run_simplex(tab, basic, obj)

    support = [(b, tab[r][-1]) for r, b in enumerate(basic) if b < n_struct and tab[r][-1]]
    assignment = [Fraction(0)] * n_struct
    for j, x in support:
        assignment[j] = x
    value = sum((problem.objective[j] * x for j, x in support), Fraction(0))
    _recheck_feasible(problem, support)
    # Every row operation keeps obj equal to cost - y . A for some multipliers
    # y on the original rows, and at optimality y is an optimal dual solution.
    # A ">=" row's slack column has coefficient -1 in that row and 0 in every
    # other, so its reduced cost is the row's y. Artificial columns are gone
    # by phase 2, which is why "=" rows get None.
    slack = iter(obj[n_struct:art_start])
    duals = tuple(next(slack) if rel == ">=" else None for _, rel, _ in problem.constraints)
    return LpSolution(value, tuple(assignment), duals)


def _standard_form(problem: LpProblem):
    """Equality tableau with rhs >= 0 and its starting basis.

    The k-th ">=" row gets slack column ``num_vars + k``. A ">=" row with
    nonpositive rhs is negated so its slack can start basic; every other
    row gets an artificial column, numbered from ``art_start`` on, after
    negation if its rhs is negative.
    """
    n_struct = problem.num_vars
    rows = problem.constraints
    art_start = n_struct + sum(1 for _, rel, _ in rows if rel == ">=")
    width = art_start + sum(1 for _, rel, rhs in rows if rel == "=" or rhs > 0) + 1

    tab = []
    basic = []
    slack_col = n_struct
    art_col = art_start
    for coeffs, rel, rhs in rows:
        flip = rhs < 0 or (rhs == 0 and rel == ">=")
        row = [-c for c in coeffs] if flip else list(coeffs)
        row += [Fraction(0)] * (width - n_struct - 1) + [-rhs if flip else rhs]
        if rel == ">=":
            row[slack_col] = Fraction(1 if flip else -1)
            slack_col += 1
        if rel == ">=" and flip:
            basic.append(slack_col - 1)
        else:
            row[art_col] = Fraction(1)
            basic.append(art_col)
            art_col += 1
        tab.append(row)
    return tab, basic, art_start


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


def _run_simplex(tab, basic, obj) -> None:
    """Bland-rule pivoting until optimal."""
    ncols = len(obj) - 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return
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
            raise InvariantViolation("the LP is unbounded")
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
    """Replace basic artificials (all at value 0 here) by real columns."""
    for r in range(len(tab) - 1, -1, -1):
        if basic[r] < art_start:
            continue
        row = tab[r]
        col = next((j for j in range(art_start) if row[j]), None)
        if col is None:
            raise InvariantViolation("the LP's rows are linearly dependent")
        _pivot(tab, basic, [Fraction(0)] * len(row), r, col)


def _recheck_feasible(problem: LpProblem, support) -> None:
    """Substitute the solution, given as its nonzero ``(index, value)``
    entries, back into the original constraints."""
    if any(x < 0 for _, x in support):
        raise InvariantViolation("solver produced a negative variable")
    for coeffs, rel, rhs in problem.constraints:
        lhs = sum((coeffs[j] * x for j, x in support), Fraction(0))
        if not (lhs >= rhs if rel == ">=" else lhs == rhs):
            raise InvariantViolation("solver produced an infeasible point")
