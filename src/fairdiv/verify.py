"""Property checkers: proportionality variants, Pareto tests, certificates.

Checkers return a PropertyReport whose per-agent witnesses are
self-contained: each names the rule and item certifying (or refuting) the
property, together with the exact bundle value, threshold and adjusted
value, so a reader can replay the defining inequality without re-running
the checker.

An allocation is fractionally Pareto optimal (fPO) iff some positive
welfare weights make every consumer of every item a maximizer of its
weighted value (Sandomirskiy & Segal-Halevi, arXiv 1908.01669).
``find_welfare_weights`` decides that exactly, with no LP: it returns such
weights, or None as a proof that none exist. ``recheck_welfare_weights``
replays weights in O(nm); the pipeline certifies its own output that way,
with its improvement LP's duals. Pareto optimality of an integral
allocation is answered by those weights when it is fPO, and otherwise by
exhaustive search over all n**m owner assignments (with a cap).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction
from operator import mul

from fairdiv.core import (
    Allocation,
    EnumerationCapExceeded,
    Instance,
    IntegralAllocation,
    InvariantViolation,
    Record,
    _check_shape,
    as_fraction,
    consumption_graph,
    proportional_share,
    utilities,
)
# Only bench/spans.py reads these two names: its traced run wraps them.
from fairdiv.improve import dominance_welfare_lp  # noqa: F401
from fairdiv.lp import solve  # noqa: F401

MEETS_BOUND = "meets-bound"
ADD_ITEM = "add-item"
REMOVE_ITEM = "remove-item"

DEFAULT_ENUMERATION_CAP = 10_000_000
# The least positive limit sys.set_int_max_str_digits accepts: a count of
# allocations with at most this many digits prints whatever the
# interpreter's setting, and a cap message naming it stays under 1 KiB.
_PRINTABLE_DIGITS = 640


class AgentWitness(Record):
    """How one agent fares under a property check.

    ``rule`` names what certifies satisfaction (or, for a failing agent, the
    closest adjustment tried): "meets-bound" compares the bundle value itself
    against the bound, "add-item"/"remove-item" compare the bundle value
    after adjusting by ``item``. ``adjusted_value`` is the left-hand side of
    that comparison.
    """

    _fields = ("agent", "satisfied", "rule", "item", "bundle_value", "bound", "adjusted_value")


class PropertyReport(Record):
    _fields = ("name", "holds", "witnesses")


def weighted_prop(instance: Instance, allocation: Allocation) -> PropertyReport:
    """Does every agent get at least its weighted share of the whole pie?"""
    witnesses = []
    for i, value in enumerate(utilities(instance, allocation)):
        bound = proportional_share(instance, i)
        ok = value >= bound
        witnesses.append(AgentWitness(i, ok, MEETS_BOUND if ok else None, None,
                                      value, bound, value))
    return _report("weighted-prop", witnesses)


def weighted_prop1(instance: Instance, allocation: IntegralAllocation) -> PropertyReport:
    """Weighted proportionality up to one item.

    An agent is satisfied if its bundle meets the weighted share outright,
    or would after adding one item it does not own, or after removing one
    item it does own. The item added is the lowest-index unowned item of
    greatest value, the item removed the lowest-index owned item of least
    value. The witness is the bundle if it meets the bound, else the first
    of the addition and the removal that meets it, else the better of the
    two, ties to the addition.

    A failing witness always names an item: the bundle itself would beat
    both adjustments only if every unowned value were <= 0 and every owned
    one >= 0, and then value >= max(total, 0) >= b_i * total.

    Items are chosen and compared on the agent's integer row N over d: with
    weight p/q and total T = sum(N), "v/d >= (p/q)(T/d)" is "v*q >= p*T".
    """
    _require_integral(allocation)
    _check_shape(instance, allocation)
    witnesses = []
    for i, ((d, row), owned) in enumerate(zip(instance.integer_rows, allocation.bundles())):
        value = sum(map(row.__getitem__, owned))
        p, q = instance.weights[i].as_integer_ratio()
        need = p * sum(row)
        if value * q >= need:
            witnesses.append(AgentWitness(i, True, MEETS_BOUND, None, Fraction(value, d),
                                          Fraction(need, q * d), Fraction(value, d)))
            continue
        options = []
        if len(owned) < len(row):
            # owned items masked below every value in a copy, whose first
            # maximum is then the lowest-index best unowned item
            masked = list(row)
            low = min(row) - 1
            for o in owned:
                masked[o] = low
            add = masked.index(max(masked))
            options.append((value + row[add], ADD_ITEM, add))
        if owned:
            remove = min(owned, key=row.__getitem__)  # the first minimum
            options.append((value - row[remove], REMOVE_ITEM, remove))
        meets = [t for t in options if t[0] * q >= need]
        adjusted, rule, item = meets[0] if meets else max(options, key=lambda t: t[0])
        witnesses.append(AgentWitness(i, bool(meets), rule, item, Fraction(value, d),
                                      Fraction(need, q * d), Fraction(adjusted, d)))
    return _report("weighted-prop1", witnesses)


def propx(instance: Instance, allocation: IntegralAllocation) -> PropertyReport:
    """Proportionality up to every extreme item, with equal shares.

    Removing any owned chore and adding any unowned good must each keep the
    agent at or above u_i(O)/n. The witness records the worst adjustment:
    the one with the smallest adjusted value (violating it, if any does).
    Either adjustment raises the bundle value by |u_i(o)|, so the worst is
    the owned chore or unowned good with the least |N[o]| on the agent's
    integer row; among equals, the lowest index. A bundle that meets the
    bound meets it after every such adjustment too, and is witnessed by
    "meets-bound".
    """
    _require_integral(allocation)
    _check_shape(instance, allocation)
    n = instance.num_agents
    witnesses = []
    for i, ((d, row), owned) in enumerate(zip(instance.integer_rows, allocation.bundles())):
        value = sum(map(row.__getitem__, owned))
        total = sum(row)
        bundle_value, bound = Fraction(value, d), Fraction(total, d * n)
        if value * n >= total:
            witnesses.append(AgentWitness(i, True, MEETS_BOUND, None,
                                          bundle_value, bound, bundle_value))
            continue
        # owned items masked to 0 in a copy, whose least positive entry, at
        # its first place, is then the least unowned good
        masked = list(row)
        for o in owned:
            masked[o] = 0
        good = min(filter((0).__lt__, masked), default=None)
        item = None if good is None else masked.index(good)
        chores = [o for o in owned if row[o] < 0]
        if chores:
            chore = max(chores, key=row.__getitem__)  # the first maximum
            if item is None or (-row[chore], chore) < (good, item):
                item = chore
        # item is not None: an agent with no chore and no unowned good owns
        # every positive entry and no negative one, so value >= max(0, total)
        # and value * n >= total, which the bound check above has refuted
        adjusted = value + abs(row[item])
        rule = REMOVE_ITEM if row[item] < 0 else ADD_ITEM
        witnesses.append(AgentWitness(i, adjusted * n >= total, rule, item, bundle_value,
                                      bound, Fraction(adjusted, d)))
    return _report("propx", witnesses)


def pareto_dominates(instance: Instance, better: Allocation, worse: Allocation) -> bool:
    """True iff ``better`` gives every agent at least as much utility as
    ``worse`` and at least one agent strictly more. Exact comparison."""
    a = utilities(instance, better)
    b = utilities(instance, worse)
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def enumeration_size(instance: Instance) -> int:
    return instance.num_agents ** instance.num_items


def enumerate_integral_allocations(instance: Instance,
                                   cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[IntegralAllocation]:
    """Yield all n**m owner assignments in lexicographic order; refuses to
    start when their number exceeds the cap."""
    check_cap(instance, cap)
    for owners in itertools.product(instance.agents, repeat=instance.num_items):
        yield IntegralAllocation(instance.num_agents, owners)


def is_pareto_optimal_integral(instance: Instance, allocation: IntegralAllocation,
                               cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Decide whether any integral allocation Pareto-dominates this one.

    Raises EnumerationCapExceeded when n**m > cap, whatever the answer. An
    fPO allocation is PO, so welfare weights from ``find_welfare_weights``,
    replayed before they are returned, answer True. Deciding PO is
    coNP-complete (de Keijzer et al., ADT 2009), so only an allocation
    that is not fPO is searched exhaustively; a dominating allocation the
    search finds is replayed with ``pareto_dominates`` before the answer is
    False.
    """
    _require_integral(allocation)
    check_cap(instance, cap)
    if find_welfare_weights(instance, allocation) is not None:
        return True
    better = _dominating_allocation(instance, allocation)
    if better is None:
        return True
    if not pareto_dominates(instance, better, allocation):
        raise InvariantViolation("the Pareto search's dominating allocation fails its replay")
    return False


def _dominating_allocation(instance: Instance,
                           allocation: IntegralAllocation) -> IntegralAllocation | None:
    """The first integral allocation, in lexicographic owner order, that
    Pareto-dominates ``allocation``, or None when none does.

    The search walks the owner tree in scaled integer arithmetic, pruning a
    branch as soon as some agent cannot reach its current utility even when
    granted every remaining positive item; the bound is sound, so the scan
    remains exhaustive.
    """
    n, m = instance.num_agents, instance.num_items
    scaled = [row for _, row in instance.integer_rows]
    target = [0] * n
    for o, owner in enumerate(allocation.owners):
        target[owner] += scaled[owner][o]

    # best_future[i][o]: the most agent i can still gain from items o..m-1
    best_future = [[0] * (m + 1) for _ in range(n)]
    for i in range(n):
        acc = 0
        for o in range(m - 1, -1, -1):
            if scaled[i][o] > 0:
                acc += scaled[i][o]
            best_future[i][o] = acc

    # Depth-first over the owners of items 0..o-1, held in path[] rather
    # than on the call stack, so thousands of items cannot overflow it.
    # sums[i] is agent i's scaled utility from the items decided so far.
    sums = [0] * n
    path = [0] * m
    agents = range(n)
    o = 0
    while True:
        for i in agents:
            if sums[i] + best_future[i][o] < target[i]:
                break
        else:
            if o < m:
                path[o] = 0
                sums[0] += scaled[0][o]
                o += 1
                continue
            if any(sums[i] > target[i] for i in agents):
                return IntegralAllocation(n, path)
        # dead end: step to the next owner of the deepest item that has one
        while True:
            o -= 1
            if o < 0:
                return None
            a = path[o]
            sums[a] -= scaled[a][o]
            if a + 1 < n:
                break
        path[o] = a + 1
        sums[a + 1] += scaled[a + 1][o]
        o += 1


def pareto_improvement_exists(instance: Instance, allocation: Allocation) -> bool:
    """Complete fractional Pareto test: is some fractional allocation weakly
    better for everyone and strictly better for someone?"""
    return find_welfare_weights(instance, allocation) is None


def find_welfare_weights(instance: Instance, allocation: Allocation) -> tuple | None:
    """Decide fPO exactly: welfare weights certifying it, the least of them
    1, or None, which proves the allocation is not fPO.

    It is fPO iff some weights lambda > 0 make every consumer i of every item
    o a maximizer of lambda_j * u_j(o) (Sandomirskiy & Segal-Halevi, arXiv
    1908.01669). Against another agent j that holds for any weights if
    u_i(o) >= 0 >= u_j(o), for none if u_i(o) <= 0 <= u_j(o), and otherwise
    reads lambda_b <= lambda_a * u_a(o) / u_b(o), with (a, b) = (i, j) on a
    good and (j, i) on a chore. Such bounds have a positive solution iff no
    cycle of them has a ratio product below 1, so a multiplicative
    Bellman-Ford from lambda = 1 either settles within n rounds, giving the
    weights (not an LP vertex), or proves there are none. Entitlements play
    no part. O(n^2 m + n^3).
    """
    _check_shape(instance, allocation)
    graph = consumption_graph(allocation)
    d = [d for d, _ in instance.integer_rows]
    # (a, b) -> (p, q), p, q > 0: the least u_a(o) / u_b(o) = p / q over the
    # bounds on lambda_b, compared by cross-multiplication
    tightest = {}
    for column, consumers in zip(zip(*(row for _, row in instance.integer_rows)),
                                 graph.item_agents):
        for i in consumers:
            ui = column[i]
            for j, uj in enumerate(column):
                if j == i or ui >= 0 >= uj:
                    continue
                if ui <= 0 <= uj:
                    return None
                if ui > 0:
                    key, p, q = (i, j), ui * d[j], uj * d[i]
                else:
                    key, p, q = (j, i), -uj * d[i], -ui * d[j]
                old = tightest.get(key)
                if old is None or p * old[1] < old[0] * q:
                    tightest[key] = p, q

    ratios = {key: Fraction(p, q) for key, (p, q) in tightest.items()}
    weights = [Fraction(1)] * instance.num_agents
    for _ in instance.agents:
        settled = True
        for (a, b), r in ratios.items():
            if weights[b] > r * weights[a]:
                weights[b], settled = r * weights[a], False
        if settled:
            break
    else:
        return None  # still relaxing in round n: a ratio cycle below 1
    least = min(weights)
    weights = tuple(w / least for w in weights)
    recheck_welfare_weights(instance, graph, weights)
    return weights


def recheck_welfare_weights(instance: Instance, graph, weights) -> None:
    """Raise InvariantViolation unless every consumer of every item in
    ``graph`` maximizes weights[j] * u_j(o) over all agents j.

    Runs on the integer rows: with u_j(o) = N_j[o] / d_j, each
    weights[j] / d_j is written k_j / L over one common denominator L, and
    k_j * N_j[o] stands in for weights[j] * u_j(o). Multiplying every
    product by the same L > 0 changes neither equalities nor maxima.
    """
    scaled = [as_fraction(w) / d for w, (d, _) in zip(weights, instance.integer_rows)]
    lcd = math.lcm(*(s.denominator for s in scaled))
    k = [s.numerator * (lcd // s.denominator) for s in scaled]
    for column, consumers in zip(zip(*(row for _, row in instance.integer_rows)),
                                 graph.item_agents):
        best = max(map(mul, k, column))
        if any(k[i] * column[i] != best for i in consumers):
            raise InvariantViolation("welfare weights fail to certify the allocation")


def _report(name: str, witnesses: list) -> PropertyReport:
    return PropertyReport(name, all(w.satisfied for w in witnesses), tuple(witnesses))


def _require_integral(allocation) -> None:
    if not isinstance(allocation, IntegralAllocation):
        raise ValueError("this check is defined for integral allocations")


def check_cap(instance: Instance, cap: int) -> None:
    """Raise EnumerationCapExceeded when n**m exceeds the cap, decided
    without building n**m. The message gives n**m in full when it has at
    most _PRINTABLE_DIGITS digits, and names it only as ``n**m`` otherwise."""
    n, m = instance.num_agents, instance.num_items
    if _power_at_most(n, m, cap) is None:
        size = _power_at_most(n, m, 10 ** _PRINTABLE_DIGITS - 1)
        count = f"{n}**{m}" if size is None else f"{n}**{m} = {size}"
        raise EnumerationCapExceeded(f"{count} allocations exceed cap {cap}")


def _power_at_most(base: int, exp: int, limit: int) -> int | None:
    """``base**exp`` when it is at most ``limit``, else None. A base of 2 or
    more is at least ``2**(bit_length - 1)``, so a power that must pass
    ``limit`` is refused before it is built, and a power built has at most
    twice ``limit``'s bits."""
    if base > 1 and exp * (base.bit_length() - 1) > limit.bit_length():
        return None
    power = base ** exp
    return power if power <= limit else None
