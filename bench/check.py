"""Property checks on program outputs, and the oracle verdicts they compare to.

Nothing here imports fairdiv: instances are read with the standard library
and every guarantee is replayed from its definition. Outputs are checked by
property rather than by bytes, because a different LP vertex or different
welfare weights are equally valid answers.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Inst:
    """An instance as the benchmark reads it: ids, normalized weights and
    the utility matrix indexed [agent][item]."""

    agent_ids: tuple
    item_ids: tuple
    weights: tuple
    utilities: tuple

    @property
    def n(self) -> int:
        return len(self.agent_ids)

    @property
    def m(self) -> int:
        return len(self.item_ids)


def read_instance(doc) -> Inst:
    agent_ids = tuple(a["id"] for a in doc["agents"])
    raw = [Fraction(a["weight"]) if "weight" in a else Fraction(1) for a in doc["agents"]]
    total = sum(raw)
    rows = tuple(tuple(Fraction(v) for v in row) for row in doc["utilities"])
    return Inst(agent_ids, tuple(doc["items"]), tuple(w / total for w in raw), rows)


def load_instance(path) -> Inst:
    with open(path, encoding="utf-8") as fh:
        return read_instance(json.load(fh))


# ---------------------------------------------------------------------------
# oracle verdicts for stored allocations, from the definitions


def bundle_value(inst: Inst, owners, i: int) -> Fraction:
    row = inst.utilities[i]
    return sum((row[o] for o, a in enumerate(owners) if a == i), Fraction(0))


def prop_verdicts(inst: Inst, owners) -> list:
    """(satisfied, bundle value, bound) per agent: v_i >= b_i * u_i(O)."""
    out = []
    for i in range(inst.n):
        v = bundle_value(inst, owners, i)
        bound = inst.weights[i] * sum(inst.utilities[i], Fraction(0))
        out.append((v >= bound, v, bound))
    return out


def prop1_verdicts(inst: Inst, owners) -> list:
    """Weighted PROP1: the bundle meets b_i * u_i(O) outright, after adding
    one unowned item, or after removing one owned item."""
    out = []
    for i, (_, v, bound) in enumerate(prop_verdicts(inst, owners)):
        row = inst.utilities[i]
        gains = [row[o] for o in range(inst.m) if owners[o] != i]
        gains += [-row[o] for o in range(inst.m) if owners[o] == i]
        out.append((v >= bound or (bool(gains) and v + max(gains) >= bound), v, bound))
    return out


def propx_verdicts(inst: Inst, owners) -> list:
    """PROPX with equal shares u_i(O)/n: removing any owned chore and adding
    any unowned good must each reach the share; with no such item the
    bundle itself must."""
    out = []
    for i in range(inst.n):
        row = inst.utilities[i]
        v = bundle_value(inst, owners, i)
        bound = sum(row, Fraction(0)) / inst.n
        adjusted = [v - row[o] for o in range(inst.m) if owners[o] == i and row[o] < 0]
        adjusted += [v + row[o] for o in range(inst.m) if owners[o] != i and row[o] > 0]
        out.append((min(adjusted) >= bound if adjusted else v >= bound, v, bound))
    return out


def dominates(inst: Inst, better, worse) -> bool:
    a = [bundle_value(inst, better, i) for i in range(inst.n)]
    b = [bundle_value(inst, worse, i) for i in range(inst.n)]
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def verdict_doc(verdicts) -> list:
    return [{"satisfied": ok, "bundleValue": str(v), "bound": str(b)}
            for ok, v, b in verdicts]


# ---------------------------------------------------------------------------
# output checks


def check_verify(expect: dict, code, stdout: str) -> list:
    """A verify output must carry the oracle's verdict, exit code and, where
    the oracle gives them, the per-agent verdicts with their exact values."""
    holds = expect["holds"]
    problems = []
    if code != (0 if holds else 1):
        problems.append(f"exit code {code}, expected {0 if holds else 1}")
    try:
        doc = json.loads(stdout)
        got = doc["properties"][expect["property"]]
        if doc["allHold"] is not holds or got["holds"] is not holds:
            problems.append(f"verdict {got['holds']}, oracle says {holds}")
        agents = expect.get("agents")
        if agents is not None:
            witnesses = got["witnesses"]
            if len(witnesses) != len(agents):
                problems.append("one witness per agent expected")
            for w, e in zip(witnesses, agents):
                if (w["satisfied"] is not e["satisfied"]
                        or Fraction(w["bundleValue"]) != Fraction(e["bundleValue"])
                        or Fraction(w["bound"]) != Fraction(e["bound"])):
                    problems.append(f"witness for {w['agent']} disagrees with the oracle")
                    break
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable verify output: {exc!r}")
    return problems


def check_solve(inst: Inst, code, stdout: str) -> list:
    """A solve output must be an integral allocation with replayable PROP1
    witnesses, a welfare-weight certificate every owner satisfies, and a
    fractional intermediate that is a weighted-proportional forest
    supporting the integral owners."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        doc = json.loads(stdout)
        owners = _owners(inst, doc["allocation"])
        shares = _shares(inst, doc["fractionalIntermediate"])
        certs = doc["certificates"]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable solve output: {exc!r}"]
    problems = []
    if certs.get("fpoCertified") is not True:
        problems.append("fpoCertified is not true")
    problems += _check_forest(inst, shares)
    problems += _check_fractional_share(inst, shares)
    for o, owner in enumerate(owners):
        if shares[o].get(owner, 0) <= 0:
            problems.append(f"owner of {inst.item_ids[o]} consumes none of it fractionally")
            break
    problems += _check_prop1_witnesses(inst, owners, certs.get("prop1"))
    if "welfareWeights" in certs:
        problems += _check_welfare_weights(inst, owners, certs["welfareWeights"])
    return problems


def _owners(inst: Inst, allocation: dict) -> list:
    index = {a: i for i, a in enumerate(inst.agent_ids)}
    if set(allocation) != set(inst.item_ids):
        raise ValueError("allocation does not cover exactly the instance's items")
    return [index[allocation[item]] for item in inst.item_ids]


def _shares(inst: Inst, fractional: dict) -> list:
    """Per item, {agent index: share}; every share in (0, 1], sums exactly 1."""
    index = {a: i for i, a in enumerate(inst.agent_ids)}
    if set(fractional) != set(inst.item_ids):
        raise ValueError("fractionalIntermediate does not cover exactly the items")
    out = []
    for item in inst.item_ids:
        column = {index[a]: Fraction(s) for a, s in fractional[item].items()}
        if any(not 0 < s <= 1 for s in column.values()) or sum(column.values()) != 1:
            raise ValueError(f"shares of {item} are not a distribution")
        out.append(column)
    return out


def _check_forest(inst: Inst, shares) -> list:
    parent = list(range(inst.n + inst.m))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for o, column in enumerate(shares):
        for i in column:
            a, b = find(i), find(inst.n + o)
            if a == b:
                return ["fractionalIntermediate shares items along a cycle"]
            parent[a] = b
    return []


def _check_fractional_share(inst: Inst, shares) -> list:
    for i in range(inst.n):
        row = inst.utilities[i]
        got = sum((row[o] * column[i] for o, column in enumerate(shares) if i in column),
                  Fraction(0))
        if got < inst.weights[i] * sum(row, Fraction(0)):
            return [f"{inst.agent_ids[i]} gets less than its weighted share fractionally"]
    return []


def _check_prop1_witnesses(inst: Inst, owners, witnesses) -> list:
    if not isinstance(witnesses, list) or len(witnesses) != inst.n:
        return ["one PROP1 witness per agent expected"]
    item_index = {o: j for j, o in enumerate(inst.item_ids)}
    for i, w in enumerate(witnesses):
        row = inst.utilities[i]
        value = bundle_value(inst, owners, i)
        bound = inst.weights[i] * sum(row, Fraction(0))
        if w.get("agent") != inst.agent_ids[i] or w.get("satisfied") is not True:
            return [f"PROP1 witness {i} is missing or unsatisfied"]
        if Fraction(w["bundleValue"]) != value or Fraction(w["bound"]) != bound:
            return [f"PROP1 witness for {inst.agent_ids[i]} misstates value or bound"]
        rule, item = w.get("rule"), w.get("item")
        if rule == "meets-bound" and item is None:
            adjusted = value
        elif rule == "add-item" and item in item_index and owners[item_index[item]] != i:
            adjusted = value + row[item_index[item]]
        elif rule == "remove-item" and item in item_index and owners[item_index[item]] == i:
            adjusted = value - row[item_index[item]]
        else:
            return [f"PROP1 witness for {inst.agent_ids[i]} names an inapplicable rule"]
        if Fraction(w["adjustedValue"]) != adjusted or adjusted < bound:
            return [f"PROP1 witness for {inst.agent_ids[i]} does not replay"]
    return []


def _check_welfare_weights(inst: Inst, owners, weights) -> list:
    """The weights certify the integral allocation: each item's owner
    maximizes lam_i * u_i(o), so the allocation maximizes a positively
    weighted welfare sum and is fractionally Pareto optimal."""
    try:
        lam = [Fraction(x) for x in weights]
    except (ValueError, TypeError, ZeroDivisionError):
        return ["welfareWeights are not rationals"]
    if len(lam) != inst.n or any(x <= 0 for x in lam):
        return ["welfareWeights must be one positive weight per agent"]
    for o in range(inst.m):
        scores = [lam[i] * inst.utilities[i][o] for i in range(inst.n)]
        if scores[owners[o]] != max(scores):
            return [f"the owner of {inst.item_ids[o]} does not maximize weighted utility"]
    return []
