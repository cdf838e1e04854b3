"""Exact-arithmetic primitives: instances, allocations, consumption graphs.

Every quantity is an exact rational, so that equality tests (LP optima,
Pareto comparisons, share thresholds) are decidable. An instance stores
each agent's utilities as one integer row over a common denominator and
keeps no ``fractions.Fraction`` matrix: sums and comparisons run on the
rows, and a single value becomes a ``Fraction`` only as an LP coefficient
or when printed. Weights and allocations are ``Fraction``s. Nothing in
this package touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union


class FairDivisionError(Exception):
    """Base class for errors raised by this package."""


class InvariantViolation(FairDivisionError):
    """An internal guarantee failed; indicates a bug, not bad input."""


class EnumerationCapExceeded(FairDivisionError):
    """A brute-force search would exceed its configured cap."""


def as_fraction(value: Union[int, Fraction]) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats and bools outright.

    A Fraction is immutable, so one is returned as it is rather than copied.
    A bool is an int to Python but not a quantity, as JSON's ``true`` is not.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ValueError("floats are not exact; pass int, Fraction, or a rational string")
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number; pass int, Fraction, or a rational string")
    return Fraction(value)


def integer_row(ratios) -> tuple:
    """Agent row ``(d, N)`` from its values as lowest-terms ``(p, q)`` pairs,
    ``q >= 1``: ``d`` is the lcm of the q's and ``N[o] = p * (d // q)``, so
    that ``u(o) = N[o] / d``. That ``d`` is the least common denominator,
    which makes the row canonical."""
    d = math.lcm(*{q for _, q in ratios})
    if d == 1:
        return 1, tuple([p for p, _ in ratios])
    return d, tuple([p * (d // q) for p, q in ratios])


@dataclass(frozen=True, init=False)
class Instance:
    """A fair division instance with additive utilities and agent weights.

    Agents and items are addressed by 0-based index. Agent i's value for
    item o is ``N[o] / d`` with ``(d, N) = integer_rows[i]``: ``d`` is the
    lcm of the denominators of the row's values, ``N`` a tuple of ints.
    Positive entries are goods for that agent, negative entries chores.
    Comparisons within one agent's row are invariant under that positive
    scaling, so sums and item choices run on integers, and a value is
    ``Fraction(N[o], d)`` wherever one is needed. Weights are entitlements;
    they are normalized to sum to 1 at construction, so only their
    proportions matter.

    ``Instance(utilities, weights)`` takes a matrix of ints and
    ``Fraction``s and keeps only its rows; ``Instance.from_integer_rows``
    takes the rows themselves. Equality and hashing use
    ``(integer_rows, weights)``, which is canonical.
    """

    integer_rows: tuple
    weights: tuple

    def __init__(self, utilities, weights=None):
        rows = tuple(integer_row([(v.numerator, v.denominator) for v in map(as_fraction, row)])
                     for row in utilities)
        self._set_rows(rows, weights)

    @classmethod
    def from_integer_rows(cls, rows, weights=None) -> "Instance":
        """An instance from canonical rows ``(d, N)`` as ``integer_row``
        returns them: ``d >= 1`` and ``gcd(d, *N) == 1``."""
        rows = tuple((d, tuple(row)) for d, row in rows)
        for d, row in rows:
            if d < 1 or math.gcd(d, *row) != 1:
                raise ValueError("an integer row needs d >= 1 and gcd(d, *N) == 1")
        instance = cls.__new__(cls)
        instance._set_rows(rows, weights)
        return instance

    def _set_rows(self, rows: tuple, weights) -> None:
        if not rows:
            raise ValueError("an instance needs at least one agent")
        m = len(rows[0][1])
        if any(len(row) != m for _, row in rows):
            raise ValueError("utility rows must all have the same length")
        if weights is None:
            w = tuple(Fraction(1, len(rows)) for _ in rows)
        else:
            w = tuple(as_fraction(v) for v in weights)
            if len(w) != len(rows):
                raise ValueError("need exactly one weight per agent")
            if any(v <= 0 for v in w):
                raise ValueError("weights must be strictly positive")
            total = sum(w)
            w = tuple(v / total for v in w)
        object.__setattr__(self, "integer_rows", rows)
        object.__setattr__(self, "weights", w)

    @property
    def num_agents(self) -> int:
        return len(self.integer_rows)

    @property
    def num_items(self) -> int:
        return len(self.integer_rows[0][1])

    @property
    def agents(self) -> range:
        return range(self.num_agents)

    @property
    def items(self) -> range:
        return range(self.num_items)

    def total_value(self, agent: int) -> Fraction:
        """Agent's value for the whole item set O."""
        d, row = self.integer_rows[agent]
        return Fraction(sum(row), d)


@dataclass(frozen=True)
class FractionalAllocation:
    """A matrix x with x[i][o] in [0, 1] and every column summing to exactly 1."""

    fractions: tuple

    def __post_init__(self):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in self.fractions)
        if not rows:
            raise ValueError("allocation needs at least one agent row")
        m = len(rows[0])
        if any(len(row) != m for row in rows):
            raise ValueError("allocation rows must all have the same length")
        for row in rows:
            for v in row:
                if v < 0 or v > 1:
                    raise ValueError("allocation entries must lie in [0, 1]")
        for o in range(m):
            if sum(row[o] for row in rows) != 1:
                raise ValueError("each item must be fully allocated (column sum 1)")
        object.__setattr__(self, "fractions", rows)

    @property
    def num_agents(self) -> int:
        return len(self.fractions)

    @property
    def num_items(self) -> int:
        return len(self.fractions[0])


@dataclass(frozen=True)
class IntegralAllocation:
    """Each item owned by exactly one agent: ``owners[o]`` is item o's agent."""

    num_agents: int
    owners: tuple

    def __post_init__(self):
        owners = tuple(self.owners)
        if self.num_agents < 1:
            raise ValueError("an allocation needs at least one agent")
        for a in owners:
            if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < self.num_agents:
                raise ValueError("every item must be owned by a valid agent index")
        object.__setattr__(self, "owners", owners)

    @property
    def num_items(self) -> int:
        return len(self.owners)

    def bundle(self, agent: int) -> tuple:
        return tuple(o for o, a in enumerate(self.owners) if a == agent)

    def bundles(self) -> tuple:
        out = [[] for _ in range(self.num_agents)]
        for o, a in enumerate(self.owners):
            out[a].append(o)
        return tuple(tuple(b) for b in out)

    def to_fractional(self) -> FractionalAllocation:
        one, zero = Fraction(1), Fraction(0)
        rows = [[zero] * self.num_items for _ in range(self.num_agents)]
        for o, a in enumerate(self.owners):
            rows[a][o] = one
        return FractionalAllocation(tuple(tuple(r) for r in rows))


Allocation = Union[FractionalAllocation, IntegralAllocation]


@dataclass(frozen=True)
class ConsumptionGraph:
    """Bipartite graph on agents and items: an edge means x[i][o] > 0."""

    agent_items: tuple  # per agent, ascending item indices
    item_agents: tuple  # per item, ascending agent indices

    @property
    def num_agents(self) -> int:
        return len(self.agent_items)

    @property
    def num_items(self) -> int:
        return len(self.item_agents)

    def shared_items(self) -> tuple:
        """Items consumed by two or more agents."""
        return tuple(o for o, agents in enumerate(self.item_agents) if len(agents) >= 2)

    def num_edges(self) -> int:
        return sum(len(items) for items in self.agent_items)


@dataclass(frozen=True)
class Cycle:
    """A simple cycle in a consumption graph, as alternating vertices.

    The vertex sequence is agents[0], items[0], agents[1], items[1], ...,
    closing from items[-1] back to agents[0]. Normalized so that agents[0]
    is the lowest agent index on the cycle.
    """

    agents: tuple
    items: tuple

    def edges(self) -> list:
        """(agent, item) pairs in walk order, starting from agents[0]."""
        k = len(self.agents)
        out = []
        for t in range(k):
            out.append((self.agents[t], self.items[t]))
            out.append((self.agents[(t + 1) % k], self.items[t]))
        return out


def _check_shape(instance: Instance, allocation: Allocation) -> None:
    if (allocation.num_agents, allocation.num_items) != (instance.num_agents, instance.num_items):
        raise ValueError("allocation shape does not match instance")


def _mixed_sign_item(instance: Instance, graph: ConsumptionGraph) -> Optional[int]:
    """The first shared item of ``graph`` whose consumers do not all value
    it with one strict sign, read off the integer rows, or None."""
    rows = [row for _, row in instance.integer_rows]
    for o in graph.shared_items():
        values = [rows[i][o] for i in graph.item_agents[o]]
        if not (all(v > 0 for v in values) or all(v < 0 for v in values)):
            return o
    return None


def utility(instance: Instance, allocation: Allocation, agent: int) -> Fraction:
    """Agent's additive utility for its (possibly fractional) bundle."""
    return utilities(instance, allocation)[agent]


def utilities(instance: Instance, allocation: Allocation) -> tuple:
    """Utility profile of all agents under the allocation, summed on the
    integer rows: ``N_i[o]`` over an integral allocation's owners, or
    ``N_i[o] * x_io`` over a fractional one's support, then over ``d_i``."""
    _check_shape(instance, allocation)
    rows = [row for _, row in instance.integer_rows]
    if isinstance(allocation, IntegralAllocation):
        sums = [0] * instance.num_agents
        for o, a in enumerate(allocation.owners):
            sums[a] += rows[a][o]
    else:
        sums = [sum((row[o] * x for o, x in enumerate(frac) if x), Fraction(0))
                for row, frac in zip(rows, allocation.fractions)]
    return tuple(Fraction(s, d) for s, (d, _) in zip(sums, instance.integer_rows))


def proportional_share(instance: Instance, agent: int) -> Fraction:
    """The weighted proportional benchmark b_i * u_i(O)."""
    return instance.weights[agent] * instance.total_value(agent)


def consumption_graph(allocation: Allocation) -> ConsumptionGraph:
    """Build the bipartite consumption graph of an allocation."""
    n, m = allocation.num_agents, allocation.num_items
    agent_items = [[] for _ in range(n)]
    item_agents = [[] for _ in range(m)]
    if isinstance(allocation, IntegralAllocation):
        for o, a in enumerate(allocation.owners):
            agent_items[a].append(o)
            item_agents[o].append(a)
    else:
        for i in range(n):
            row = allocation.fractions[i]
            for o in range(m):
                if row[o]:
                    agent_items[i].append(o)
                    item_agents[o].append(i)
    return ConsumptionGraph(
        tuple(tuple(items) for items in agent_items),
        tuple(tuple(agents) for agents in item_agents),
    )


def find_cycle(graph: ConsumptionGraph) -> Optional[Cycle]:
    """Return a simple cycle of the consumption graph, or None if acyclic.

    Deterministic: depth-first from the lowest-index agent, lowest-index
    neighbor first, so a fixed graph always yields the same cycle. Iterative
    to stay safe on long agent-item chains. An undirected depth-first search
    meets a visited vertex again only on its own root path, so the cycle is
    read off the parent chain.
    """
    n = graph.num_agents
    # Vertices: agents are 0..n-1, item o is n+o.
    def neighbors(v: int) -> tuple:
        if v < n:
            return tuple(n + o for o in graph.agent_items[v])
        return graph.item_agents[v - n]

    parent = {}
    for start in range(n):
        if start in parent:
            continue
        parent[start] = None
        stack = [(start, iter(neighbors(start)))]
        while stack:
            v, pending = stack[-1]
            for w in pending:
                if w == parent[v]:
                    continue
                if w in parent:
                    chain = [v]
                    while chain[-1] != w:
                        chain.append(parent[chain[-1]])
                    return _as_cycle(chain[::-1], n)
                parent[w] = v
                stack.append((w, iter(neighbors(w))))
                break
            else:
                stack.pop()
    return None


def _as_cycle(vertices: list, n: int) -> Cycle:
    # Rotate so the lowest agent index leads; parity then alternates agent/item.
    agent_positions = [k for k, v in enumerate(vertices) if v < n]
    if len(vertices) % 2 or len(vertices) < 4:
        raise InvariantViolation("bipartite cycle must alternate and have length >= 4")
    lead = min(agent_positions, key=lambda k: vertices[k])
    rotated = vertices[lead:] + vertices[:lead]
    agents = tuple(rotated[0::2])
    items = tuple(v - n for v in rotated[1::2])
    if any(v >= n for v in agents) or any(v < 0 for v in items):
        raise InvariantViolation("cycle does not alternate between agents and items")
    return Cycle(agents, items)
