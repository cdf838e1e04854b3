"""Exact-arithmetic primitives: instances, allocations, consumption graphs.

Every quantity is an exact rational, so that equality tests (LP optima,
Pareto comparisons, share thresholds) are decidable. An instance stores
each agent's utilities as one integer row over a common denominator and
keeps no ``fractions.Fraction`` matrix: sums and comparisons run on the
rows, and a single value becomes a ``Fraction`` only as an LP coefficient
or when printed. Weights and allocations are ``Fraction``s. Nothing in
this package touches floating point.

The pipeline asks two things of a consumption graph: its shared items, and
whether it is a forest, the shape the rounding step needs. ``find_cycle``
answers the second with the edge that closes a cycle, or None.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FairDivisionError(Exception):
    """Base class for errors raised by this package."""


class InvariantViolation(FairDivisionError):
    """An internal guarantee failed; indicates a bug, not bad input."""


class EnumerationCapExceeded(FairDivisionError):
    """A brute-force search would exceed its configured cap."""


def as_fraction(value: int | Fraction) -> Fraction:
    """Coerce an int or Fraction to Fraction; refuse everything else.

    A Fraction is immutable, so one is returned as it is rather than copied.
    A bool is an int to Python but not a quantity, as JSON's ``true`` is not.
    Text is not read here: ``Fraction(text)`` has no length or exponent
    bound and a grammar that varies with the Python version, so text goes
    through ``fairdiv.serialize.parse_rational``, the one bounded reader.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"expected an int or Fraction, got {type(value).__name__}; "
                     "read text with fairdiv.serialize.parse_rational")


def integer_row(ratios) -> tuple:
    """Agent row ``(d, N)`` from its values as lowest-terms ``(p, q)`` pairs,
    ``q >= 1``: ``d`` is the lcm of the q's and ``N[o] = p * (d // q)``, so
    that ``u(o) = N[o] / d``. That ``d`` is the least common denominator,
    which makes the row canonical."""
    d = math.lcm(*{q for _, q in ratios})
    if d == 1:
        return 1, tuple([p for p, _ in ratios])
    return d, tuple([p * (d // q) for p, q in ratios])


class Record:
    """An immutable value, as a frozen dataclass gives one: the fields named
    in ``_fields``, set by position or by ``object.__setattr__`` in a
    subclass's ``__init__``. ``pickle`` and ``copy`` restore ``__dict__``."""

    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, "
                            f"got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Instance(Record):
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

    _fields = ("integer_rows", "weights")

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
        return cls._from_canonical_rows(rows, weights)

    @classmethod
    def _from_canonical_rows(cls, rows: tuple, weights=None) -> "Instance":
        """``from_integer_rows`` without its canonical-row check, for a
        tuple of rows ``(d, N)`` that ``integer_row`` built or that were
        reduced by ``gcd(d, *N)`` already, ``N`` a tuple."""
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


class FractionalAllocation(Record):
    """A matrix x with x[i][o] in [0, 1] and every column summing to exactly 1."""

    _fields = ("fractions",)

    def __init__(self, fractions):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in fractions)
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


class IntegralAllocation(Record):
    """Each item owned by exactly one agent: ``owners[o]`` is item o's agent."""

    _fields = ("num_agents", "owners")

    def __init__(self, num_agents, owners):
        owners = tuple(owners)
        if num_agents < 1:
            raise ValueError("an allocation needs at least one agent")
        # owners that are all plain ints in range pass in C-level passes;
        # others, int subclasses included, are checked one by one
        if owners and not (set(map(type, owners)) == {int}
                           and 0 <= min(owners) and max(owners) < num_agents):
            for a in owners:
                if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < num_agents:
                    raise ValueError("every item must be owned by a valid agent index")
        object.__setattr__(self, "num_agents", num_agents)
        object.__setattr__(self, "owners", owners)

    @property
    def num_items(self) -> int:
        return len(self.owners)

    def bundles(self) -> tuple:
        out = [[] for _ in range(self.num_agents)]
        for o, a in enumerate(self.owners):
            out[a].append(o)
        return tuple(tuple(b) for b in out)


Allocation = FractionalAllocation | IntegralAllocation


class ConsumptionGraph(Record):
    """Bipartite graph on agents and items: an edge means x[i][o] > 0.
    ``agent_items[i]`` and ``item_agents[o]`` list the neighbours ascending."""

    _fields = ("agent_items", "item_agents")

    def shared_items(self) -> tuple:
        """Items consumed by two or more agents."""
        return tuple(o for o, agents in enumerate(self.item_agents) if len(agents) >= 2)


def _check_shape(instance: Instance, allocation: Allocation) -> None:
    if (allocation.num_agents, allocation.num_items) != (instance.num_agents, instance.num_items):
        raise ValueError("allocation shape does not match instance")


def _mixed_sign_item(instance: Instance, graph: ConsumptionGraph) -> int | None:
    """The first shared item of ``graph`` whose consumers do not all value
    it with one strict sign, read off the integer rows, or None."""
    rows = [row for _, row in instance.integer_rows]
    for o in graph.shared_items():
        values = [rows[i][o] for i in graph.item_agents[o]]
        if not (all(v > 0 for v in values) or all(v < 0 for v in values)):
            return o
    return None


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


def find_cycle(graph: ConsumptionGraph) -> tuple | None:
    """The first edge ``(agent, item)`` whose two ends the edges before it
    already join, or None iff the graph is a forest. Edges come in the
    order the graph holds them, agents by index and each agent's items
    ascending, and a union-find over agents and items joins them."""
    n = len(graph.agent_items)
    root = list(range(n + len(graph.item_agents)))  # item o is vertex n + o

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, items in enumerate(graph.agent_items):
        for o in items:
            a, b = find(i), find(n + o)
            if a == b:
                return i, o
            root[a] = b
    return None
