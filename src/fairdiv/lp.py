"""Exact linear programming: the improvement LP's two-phase simplex over rationals.

The one program solved is the improvement LP, stated by ``LpProblem`` as
an instance and a floor per agent: maximize welfare with a row per agent
(utility at least its floor), a row per item (fully allocated) and every
variable nonnegative. ``improve`` passes the proportional shares
``b_i * u_i(M)`` as the floors. Arithmetic is ``fractions.Fraction``
throughout, so optima are exact. Pivoting follows Bland's rule (lowest
eligible index enters, ties in the ratio test broken by lowest basic
index), which rules out cycling and makes the solver fully deterministic: a
fixed problem always yields the same optimal basis, hence the same vertex.
That vertex is an extreme point of the feasible region, which the
improvement stage relies on: extreme points of allocation polytopes have
sparse support.

No ``Fraction`` work goes to a cell known to be zero. A pivot scales and
eliminates with the pivot row's nonzero cells only, a zero cell that fills
in is the negated product rather than a subtraction from 0, the
feasibility recheck skips zero coefficients, and the objective value is
read off the final objective row, so no multiplication has a zero operand.
Pricing and the ratio test need only signs, which they read from numerators
(denominators are positive).

Nor is one product formed twice in a pivot. Eliminating column j takes
``f * p`` from each cell of a row whose column-j entry is ``f``, ``p``
ranging over the scaled pivot row. Rows with the same ``|f|`` need the same
products ``|f| * p``, so a pivot forms them once per distinct ``|f|`` and
each such row, the objective row included, subtracts them (``f > 0``) or
adds them (``f < 0``); for ``|f| == 1`` the products are the pivot row's
cells themselves. ``v - f * p`` and ``v + |f| * p`` are the same rational,
and a ``Fraction`` is held in lowest terms, so every cell, every pivot
choice and every output is what the row-by-row update gives. The shared
products live for one pivot only.

Three paths of a general simplex cannot run on that program, so each
raises InvariantViolation:

- phase 1 ending above 0 (no feasible point): the proportional seed
  ``x_io = b_i`` gives every agent exactly its share, so it meets every
  row (as a baseline meets the floors its utilities give);
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
    """max sum_io u_i(o) x_io  subject to  sum_o u_i(o) x_io >= floors[i]
    for every agent i, sum_i x_io = 1 for every item o, and x >= 0, with
    ``u`` read off ``instance.integer_rows`` and x_io variable i*m + o.
    ``num_vars`` and ``constraints`` (the right-hand sides in row order:
    the floors, then a 1 per item) give its size.

    Raises ValueError when the dense tableau would exceed
    MAX_TABLEAU_CELLS, a bound on n and m alone."""

    _fields = ("instance", "floors")

    def __init__(self, instance, floors):
        n, m = instance.num_agents, instance.num_items
        cells = (n + m) * (n * m + 2 * n + m + 1)
        if cells > MAX_TABLEAU_CELLS:
            raise ValueError(f"a {n}x{m} instance needs {cells} LP tableau cells, "
                             f"over the limit {MAX_TABLEAU_CELLS}")
        floors = tuple(as_fraction(f) for f in floors)
        if len(floors) != instance.num_agents:
            raise ValueError("the improvement LP needs one floor per agent")
        super().__init__(instance, floors)

    num_vars = property(lambda self: self.instance.num_agents * self.instance.num_items)
    constraints = property(lambda self: self.floors + (Fraction(1),) * self.instance.num_items)


class LpSolution(Record):
    """An optimal vertex: ``assignment`` attains ``value``.

    ``duals`` holds one entry per constraint, in ``problem.constraints``
    order: for an agent row, its shadow price (the rate at which the optimal
    value moves with that row's floor, <= 0), and None for an item row. The
    shadow prices form an optimal dual solution, so complementary slackness
    ties them to every optimal assignment.
    """

    _fields = ("value", "assignment", "duals")


def solve(problem: LpProblem) -> LpSolution:
    """Solve an LpProblem exactly; see module docstring for guarantees."""
    tab, basic, art_start = _standard_form(problem)
    n_struct = problem.num_vars

    cost1 = [Fraction(0)] * art_start + [Fraction(-1)] * (len(tab[0]) - 1 - art_start)
    obj = _reduced_costs(tab, basic, cost1)
    _run_simplex(tab, basic, obj)
    if obj[-1] != 0:
        raise InvariantViolation("the LP has no feasible point")
    _drive_out_artificials(tab, basic, art_start)
    tab = [row[:art_start] + [row[-1]] for row in tab]

    cost2 = [Fraction(v, d) for d, row in problem.instance.integer_rows for v in row]
    obj = _reduced_costs(tab, basic, cost2 + [Fraction(0)] * (art_start - n_struct))
    _run_simplex(tab, basic, obj)

    support = [(b, tab[r][-1]) for r, b in enumerate(basic) if b < n_struct and tab[r][-1]]
    assignment = [Fraction(0)] * n_struct
    for j, x in support:
        assignment[j] = x
    _recheck_feasible(problem, support)
    # Every row operation keeps obj equal to cost - y . A for some multipliers
    # y on the original rows, and at optimality y is an optimal dual solution.
    # Agent i's slack is -1 in its row as stated and 0 in every other, so its
    # reduced cost is the row's y. Item rows have no slack: they get None.
    duals = tuple(obj[n_struct:art_start]) + (None,) * problem.instance.num_items
    return LpSolution(-obj[-1], tuple(assignment), duals)


# The dense tableau has n + m rows and at most nm + 2n + m + 1 columns: the
# variables, a slack and an artificial per agent row, an artificial per item
# row, and the right-hand side.
MAX_TABLEAU_CELLS = 10_000_000


def _standard_form(problem: LpProblem):
    """Equality tableau with rhs >= 0 and its starting basis.

    Agent i's row holds ``Fraction(N_i[o], d_i)``, unscaled: times ``d_i``,
    phase 1's reduced cost ``u_i(o) + 1`` would be ``N_i[o] + 1``, and
    Bland's rule would take other pivots. Its slack is column nm + i, and
    the row is negated when its floor is <= 0, so that the slack can start
    basic. Every other row gets an artificial column, from ``art_start`` on
    in row order.
    """
    instance = problem.instance
    n, m = instance.num_agents, instance.num_items
    nm = n * m
    art_start = nm + n
    width = art_start + sum(1 for f in problem.floors if f > 0) + m + 1
    arts = iter(range(art_start, width - 1))
    zero, one = Fraction(0), Fraction(1)
    tab, basic = [], []
    for i, ((d, values), floor) in enumerate(zip(instance.integer_rows, problem.floors)):
        row = [zero] * width
        flip = floor <= 0
        for o, v in enumerate(values):
            if v:
                row[i * m + o] = Fraction(-v if flip else v, d)
        row[nm + i] = one if flip else -one
        row[-1] = -floor if flip else floor
        basic.append(nm + i if flip else next(arts))
        row[basic[-1]] = one
        tab.append(row)
    for o in range(m):
        row = [zero] * width
        row[o:nm:m] = [one] * n
        basic.append(next(arts))
        row[basic[-1]] = row[-1] = one
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
        enter = next((j for j in range(ncols) if obj[j].numerator > 0), None)
        if enter is None:
            return
        leave = None
        best = None
        for r, row in enumerate(tab):
            a = row[enter]
            if a.numerator > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basic[r] < basic[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            raise InvariantViolation("the LP is unbounded")
        _pivot(tab, basic, obj, leave, enter)


def _pivot(tab, basic, obj, r, j):
    """Pivot on cell (r, j): scale row r to a 1 at j, then take f = row[j]
    times row r from every other row, ``obj`` included, with the products
    ``|f| * p`` shared by the rows of one ``|f|`` (module docstring)."""
    prow = tab[r]
    inv = Fraction(1) / prow[j]
    if inv != 1:
        for k, v in enumerate(prow):
            if v:
                prow[k] = v * inv
    cells = [(k, v) for k, v in enumerate(prow) if v and k != j]
    zero = Fraction(0)
    shared = {(1, 1): cells}
    for row in (*tab, obj):
        f = row[j]
        if not f or row is prow:
            continue
        n, d = f.numerator, f.denominator
        key = (-n if n < 0 else n, d)
        products = shared.get(key)
        if products is None:
            a = -f if n < 0 else f
            products = shared[key] = [(k, a * p) for k, p in cells]
        if n > 0:
            for k, q in products:
                v = row[k]
                row[k] = v - q if v else -q
        else:
            for k, q in products:
                v = row[k]
                row[k] = v + q if v else q
        row[j] = zero
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
    entries, back into the integer rows: every agent at its floor, every
    item summing to 1."""
    rows, m = problem.instance.integer_rows, problem.instance.num_items
    got, shares = [Fraction(0)] * len(rows), [Fraction(0)] * m
    for j, x in support:
        if x < 0:
            raise InvariantViolation("solver produced a negative variable")
        i, o = divmod(j, m)
        if rows[i][1][o]:
            got[i] += rows[i][1][o] * x
        shares[o] += x
    if (any(s != 1 for s in shares)
            or any(g / d < floor for g, (d, _), floor in zip(got, rows, problem.floors))):
        raise InvariantViolation("solver produced an infeasible point")
