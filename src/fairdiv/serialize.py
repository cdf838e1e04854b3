"""JSON documents for instances, allocations, and property reports.

Rationals travel as strings ("3/4", "-2", "0.25") or JSON integers, never
as floats: a float has already lost exactness by the time json hands it
over, so floats are rejected with an error saying what to write instead.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from itertools import filterfalse, repeat
from math import gcd, lcm
from operator import itemgetter

from fairdiv.core import FractionalAllocation, Instance, IntegralAllocation, integer_row
from fairdiv.verify import AgentWitness, PropertyReport


# Longest rational string accepted, and the largest decimal exponent
# magnitude: both are read off the text before Fraction expands it, so
# "1e999999999" is refused without building a billion-digit integer.
MAX_RATIONAL_CHARS = 1000
MAX_DECIMAL_EXPONENT = 1000
_INT_LIMIT = 10 ** MAX_RATIONAL_CHARS
_TABLE_TYPES = {int, str}
# Fraction's string grammar as of Python 3.10. Later versions accept more
# (underscores between digits from 3.11, spaces around "/" from 3.12), so
# strings are held to this one first and read the same on every version.
_RATIONAL = re.compile(r"""
    \s*[-+]?(?=\d|\.\d)\d*                 # sign, integer part
    (?:/\d+                                # then a denominator,
    |(?:\.\d*)?(?:E(?P<exp>[-+]?\d+))?)     # or decimals and an exponent
    \s*""", re.VERBOSE | re.IGNORECASE)


def parse_rational(value) -> Fraction:
    """Read a JSON integer or a rational string exactly.

    A string is at most MAX_RATIONAL_CHARS long and follows the grammar of
    ``fractions.Fraction`` on Python 3.10, with a decimal exponent of at
    most MAX_DECIMAL_EXPONENT in magnitude. A JSON integer has at most
    MAX_RATIONAL_CHARS digits.
    """
    return Fraction(*_ratio(value))


def _ratio(value) -> tuple:
    """``parse_rational(value)`` as a lowest-terms ``(numerator, denominator)``
    pair: the one reader of a rational. The plain strings ``-?[0-9]+`` and
    ``-?[0-9]+/[0-9]+`` are read straight into two integers; any other
    string that passes the bounds is held to the grammar, then read by
    ``Fraction``."""
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_CHARS:
            raise ValueError(f"rational string longer than {MAX_RATIONAL_CHARS} characters")
        # isdigit() alone would also pass non-ASCII digits, superscripts included
        if value.isascii():
            num, slash, den = value.partition("/")
            if (num[1:] if num[:1] == "-" else num).isdigit():
                if not slash:
                    return int(num), 1
                if den.isdigit() and (q := int(den)):
                    p = int(num)
                    g = gcd(p, q)
                    return p // g, q // g
        match = _RATIONAL.fullmatch(value)
        if match:
            if match["exp"] and abs(int(match["exp"])) > MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    f"decimal exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT}")
            try:
                f = Fraction(value)
            except ZeroDivisionError:
                pass
            else:
                return f.numerator, f.denominator
        raise ValueError(f"cannot parse rational {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        if not -_INT_LIMIT < value < _INT_LIMIT:
            raise ValueError(f"integer has more than {MAX_RATIONAL_CHARS} digits")
        return int(value), 1
    if isinstance(value, float):
        raise ValueError(
            f'floating-point value {value!r} is not exact; write it as a string like "3/10"')
    raise ValueError(f"expected a rational string, got {reprlib.repr(value)}")


def _table_rows(utilities: list, num_items: int):
    """The agent rows ``(d, N)`` that ``integer_row`` builds from
    ``[_ratio(v) for v in row]``, read through one table of the document's
    distinct values, or None when the matrix does not suit a table.

    It suits one when it has two columns or more, all JSON integers and
    strings, and repeats itself: every leading block of rows holds at
    least two entries per distinct value, as valuation tables drawn from a
    small scale do. (With one column, itemgetter of one key would return
    the value, not a tuple.) Each row is mapped through the table in one
    C-level pass, so it holds one int object per distinct value. The table
    holds every value read so far, scaled to the lcm ``L`` of their
    denominators; a row that meets a value not in it has its new values
    read and added first, and ``L`` grows with them.
    Row i's own lcm ``d_i`` divides the ``L`` it is mapped over, and its
    canonical row has ``gcd(d_i, *N_i) == 1``, so the mapped row is ``N_i``
    times ``g = gcd(L, *mapped) = L // d_i``.

    None also when a row is ragged or not a list, or a value fails to read:
    the caller then reads entry by entry, and its error names the first bad
    row or entry. A bool is refused here because it would hide in a table
    among equal ints, since True == 1. None, too, when ``L`` reaches more
    than MAX_RATIONAL_CHARS digits: rows read apart keep their own smaller
    denominators, where the table would hold every value scaled to ``L``.
    """
    if num_items < 2:
        return None
    scale, lcd = {}, 1
    rows = []
    for k, row in enumerate(utilities, 1):
        if (not isinstance(row, list) or len(row) != num_items
                or not set(map(type, row)) <= _TABLE_TYPES):
            return None
        pick = itemgetter(*row)
        try:
            scaled = pick(scale)
        except KeyError:
            new = set(filterfalse(scale.__contains__, row))
            if 2 * (len(scale) + len(new)) > k * num_items:
                return None
            try:
                pairs = {v: _ratio(v) for v in new}
            except ValueError:
                return None
            grown = lcm(lcd, *{q for _, q in pairs.values()})
            if grown >= _INT_LIMIT:
                return None
            if grown != lcd:
                # the rows already mapped keep their own lcd
                scale = {v: s * (grown // lcd) for v, s in scale.items()}
                lcd = grown
            scale.update({v: p * (lcd // q) for v, (p, q) in pairs.items()})
            scaled = pick(scale)
        g = gcd(lcd, *scaled)
        if g > 1:
            scaled = pick({v: scale[v] // g for v in set(row)})
        rows.append((lcd // g, scaled))
    return rows


def format_rational(value: Fraction) -> str:
    return str(value)


def parse_instance(doc) -> tuple:
    """Read an instance document; returns (Instance, agent_ids, item_ids).

    The document holds agents (each {"id": ..., "weight": ...}, weights all
    present or all absent), items (unique string ids) and a utilities
    matrix indexed [agent][item], read straight into the instance's
    integer rows.
    """
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    missing = {"agents", "items", "utilities"} - doc.keys()
    if missing:
        raise ValueError(f"instance document lacks {sorted(missing)}")

    agents = doc["agents"]
    if not isinstance(agents, list) or not agents:
        raise ValueError("agents must be a nonempty list")
    agent_ids = []
    weights = []
    for entry in agents:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise ValueError("each agent must be an object with a string id")
        agent_ids.append(entry["id"])
        weights.append(parse_rational(entry["weight"]) if "weight" in entry else None)
    if len(set(agent_ids)) != len(agent_ids):
        raise ValueError("agent ids must be unique")
    weighted = [w is not None for w in weights]
    if any(weighted) and not all(weighted):
        raise ValueError("either every agent carries a weight or none does")

    item_ids = doc["items"]
    if not isinstance(item_ids, list) or not all(map(isinstance, item_ids, repeat(str))):
        raise ValueError("items must be a list of string ids")
    if len(set(item_ids)) != len(item_ids):
        raise ValueError("item ids must be unique")

    utilities = doc["utilities"]
    if not isinstance(utilities, list) or len(utilities) != len(agent_ids):
        raise ValueError("utilities must hold one row per agent")
    rows = _table_rows(utilities, len(item_ids))
    if rows is None:
        rows = []
        for row in utilities:
            if not isinstance(row, list) or len(row) != len(item_ids):
                raise ValueError("every utility row must hold one entry per item")
            rows.append(integer_row([_ratio(v) for v in row]))
    # both reads give canonical rows, so the public constructor's check
    # would only repeat their gcd
    instance = Instance._from_canonical_rows(tuple(rows),
                                             tuple(weights) if all(weighted) else None)
    return instance, tuple(agent_ids), tuple(item_ids)


def print_instance(instance: Instance, agent_ids, item_ids) -> dict:
    _check_ids(instance, agent_ids, item_ids)
    return {
        "agents": [
            {"id": a, "weight": format_rational(w)}
            for a, w in zip(agent_ids, instance.weights)
        ],
        "items": list(item_ids),
        # a row over d = 1 holds the values themselves
        "utilities": [[format_rational(Fraction(v, d)) for v in row] if d > 1
                      else list(map(str, row)) for d, row in instance.integer_rows],
    }


def parse_allocation(doc, agent_ids, item_ids) -> IntegralAllocation:
    """Read an {"owner": {item: agent}} document against known ids.

    The document is read pair by pair in document order, so the error
    names its first fault."""
    if not isinstance(doc, dict) or not isinstance(doc.get("owner"), dict):
        raise ValueError('allocation document must be {"owner": {item: agent}}')
    agent_index = dict(zip(agent_ids, range(len(agent_ids))))
    item_index = {o: j for j, o in enumerate(item_ids)}
    owners = [None] * len(item_ids)
    for item, agent in doc["owner"].items():
        if item not in item_index:
            raise ValueError(f"unknown item id {reprlib.repr(item)}")
        if not isinstance(agent, str):
            raise ValueError(f"owner of item {reprlib.repr(item)} must be an agent id "
                             f"string, got {reprlib.repr(agent)}")
        if agent not in agent_index:
            raise ValueError(f"unknown agent id {reprlib.repr(agent)}")
        owners[item_index[item]] = agent_index[agent]
    unassigned = [item_ids[j] for j, v in enumerate(owners) if v is None]
    if unassigned:
        raise ValueError(f"allocation assigns no owner to {reprlib.repr(unassigned)}")
    return IntegralAllocation(len(agent_ids), owners)


def print_allocation(allocation: IntegralAllocation, agent_ids, item_ids) -> dict:
    _check_ids(allocation, agent_ids, item_ids)
    return {"owner": {item_ids[j]: agent_ids[allocation.owners[j]]
                      for j in range(len(item_ids))}}


def print_fractional(allocation: FractionalAllocation, agent_ids, item_ids) -> dict:
    """Nonzero shares per item: {item: {agent: fraction-string}}."""
    _check_ids(allocation, agent_ids, item_ids)
    return {
        item: {
            agent_ids[i]: format_rational(allocation.fractions[i][j])
            for i in range(allocation.num_agents)
            if allocation.fractions[i][j] != 0
        }
        for j, item in enumerate(item_ids)
    }


def witness_doc(witness: AgentWitness, agent_ids, item_ids) -> dict:
    return {
        "agent": agent_ids[witness.agent],
        "satisfied": witness.satisfied,
        "rule": witness.rule,
        "item": item_ids[witness.item] if witness.item is not None else None,
        "bundleValue": format_rational(witness.bundle_value),
        "bound": format_rational(witness.bound),
        "adjustedValue": format_rational(witness.adjusted_value),
    }


def report_doc(report: PropertyReport, agent_ids, item_ids) -> dict:
    return {
        "name": report.name,
        "holds": report.holds,
        "witnesses": [witness_doc(w, agent_ids, item_ids) for w in report.witnesses],
    }


def _check_ids(shaped, agent_ids, item_ids) -> None:
    if len(agent_ids) != shaped.num_agents or len(item_ids) != shaped.num_items:
        raise ValueError("id lists do not match the allocation shape")
