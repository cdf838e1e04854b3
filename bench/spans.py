"""Per-layer spans and counts, recorded from outside the program.

``Tracer.installed()`` replaces each traced fairdiv function, in every
namespace it is called from, by a wrapper that records a span (name,
start, end, parent span, operation id, details) and restores the originals
on exit. Modules that import a name directly get their own copy of the
reference, so each of those copies is replaced too: for example
``fairdiv.improve.solve`` and ``fairdiv.verify.solve`` both stand for
``lp.solve``, and the caller of each LP solve is read off its ancestors.
Hooks on a few spans record details of their arguments and results: LP
size and the bit length of its solution, items moved and items shared.

Spans stay in memory; ``write`` saves them, and ``layer_metrics`` reduces
them to the per-layer metrics: seconds and counts per operation, largest
values seen, and shares of operation time.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

from fairdiv import cli, improve, rounding, verify

OP_SPAN = "cli.main"

# spans whose LP solves are reported apart, by the name of their caller
LP_CALLERS = {
    "improve.improve_to_acyclic_fpo": "improve",
    "verify.pareto_improvement_exists": "fpo_check",
    "verify.find_welfare_weights": "weights",
}


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _lp_info(args, result) -> dict:
    problem = args[0]
    values = result.assignment + (result.value,) if result.assignment is not None else ()
    return {
        "vars": problem.num_vars,
        "rows": len(problem.constraints),
        "bits": max(map(_bits, values), default=0),
    }


def _zero_items_info(args, result) -> dict:
    before, after = args[1].fractions, result.fractions
    moved = sum(1 for o in range(len(before[0]))
                if any(row[o] != new[o] for row, new in zip(before, after)))
    return {"moved": moved}


def _shared_items_info(args, result) -> dict:
    rows = args[1].fractions
    shared = sum(1 for o in range(len(rows[0])) if sum(1 for row in rows if row[o]) > 1)
    return {"shared": shared}


def _targets():
    """(span name, [(module or dict, attribute or key)], detail hook)."""
    return [
        ("cli.load", [(cli, "_load")], None),
        ("serialize.parse_instance", [(cli, "parse_instance")], None),
        ("serialize.parse_allocation", [(cli, "parse_allocation")], None),
        ("serialize.emit", [(cli, "print_allocation"), (cli, "print_fractional"),
                            (cli, "report_doc"), (cli, "_emit")], None),
        ("rounding.allocate", [(cli, "allocate")], None),
        ("improve.improve_to_acyclic_fpo", [(rounding, "improve_to_acyclic_fpo")], None),
        ("improve.dominance_welfare_lp", [(improve, "dominance_welfare_lp"),
                                          (verify, "dominance_welfare_lp")], None),
        ("rounding.resolve_zero_items", [(rounding, "resolve_zero_items")], _zero_items_info),
        ("rounding.round_acyclic", [(rounding, "round_acyclic")], _shared_items_info),
        ("verify.weighted_prop", [(verify, "weighted_prop"), (cli.SEARCHABLE, "prop")], None),
        ("verify.weighted_prop1", [(verify, "weighted_prop1"), (rounding, "weighted_prop1"),
                                   (cli.SEARCHABLE, "prop1")], None),
        ("verify.propx", [(verify, "propx"), (cli.SEARCHABLE, "propx")], None),
        ("verify.pareto_dominates", [(verify, "pareto_dominates")], None),
        ("verify.is_pareto_optimal_integral", [(verify, "is_pareto_optimal_integral")], None),
        ("verify.pareto_improvement_exists", [(verify, "pareto_improvement_exists"),
                                              (rounding, "pareto_improvement_exists")], None),
        ("verify.find_welfare_weights", [(rounding, "find_welfare_weights")], None),
        ("lp.solve", [(improve, "solve"), (verify, "solve")], _lp_info),
        ("core.consumption_graph", [(improve, "consumption_graph"),
                                    (rounding, "consumption_graph"),
                                    (verify, "consumption_graph")], None),
        ("core.find_cycle", [(improve, "find_cycle"), (rounding, "find_cycle")], None),
    ]


def _get(box, key):
    return box[key] if isinstance(box, dict) else getattr(box, key)


def _set(box, key, value) -> None:
    if isinstance(box, dict):
        box[key] = value
    else:
        setattr(box, key, value)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id, details]
        self.stack = []
        self.op = None

    def span(self, name, fn, args, kwargs, hook=None):
        parent = self.stack[-1] if self.stack else -1
        record = [name, 0.0, 0.0, parent, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self.stack.pop()
        if hook is not None:
            record[5] = hook(args, result)
        return result

    def operation(self, op_id, main, argv):
        """Run one CLI operation under its root span."""
        self.op = op_id
        return self.span(OP_SPAN, main, (argv,), {})

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, hook)
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, places, hook in _targets():
                for box, key in places:
                    original = _get(box, key)
                    saved.append((box, key, original))
                    _set(box, key, self._wrap(name, original, hook))
            yield self
        finally:
            for box, key, original in reversed(saved):
                _set(box, key, original)

    def write(self, path, extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans), fh)


def _caller(spans, index) -> str:
    """The LP caller an LP solve is charged to: its nearest ancestor in
    LP_CALLERS."""
    while index >= 0:
        name = spans[index][0]
        if name in LP_CALLERS:
            return LP_CALLERS[name]
        index = spans[index][3]
    return "other"


def layer_metrics(spans, num_ops: int) -> dict:
    """Per-layer metrics, name -> (value, unit), from the spans of
    ``num_ops`` operations."""
    total = defaultdict(float)
    count = defaultdict(int)
    child_time = defaultdict(float)
    self_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        total[name] += end - start
        count[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, _, _, _) in enumerate(spans):
        self_time[name] += end - start - child_time[index]

    lp = [(s[2] - s[1], s[5], _caller(spans, s[3])) for s in spans if s[0] == "lp.solve"]
    by_caller = defaultdict(float)
    for seconds, _, caller in lp:
        by_caller[caller] += seconds
    improve_calls = count["improve.improve_to_acyclic_fpo"]
    improve_solves = sum(1 for _, _, caller in lp if caller == "improve")
    op_time = total[OP_SPAN]

    def seconds(value):
        return value / num_ops, "s/op"

    def per_op(value):
        return value / num_ops, "count/op"

    def share(value):
        return value / op_time if op_time else 0.0, "ratio"

    def details(name, key):
        return sum(s[5][key] for s in spans if s[0] == name)

    def largest(key):
        return max((info[key] for _, info, _ in lp), default=0)

    return {
        "lp.solve_s": seconds(total["lp.solve"]),
        "lp.solves": per_op(count["lp.solve"]),
        "lp.solve_s.improve": seconds(by_caller["improve"]),
        "lp.solve_s.fpo_check": seconds(by_caller["fpo_check"]),
        "lp.solve_s.weights": seconds(by_caller["weights"]),
        "lp.vars_max": (largest("vars"), "count"),
        "lp.rows_max": (largest("rows"), "count"),
        "lp.max_bits": (largest("bits"), "bits"),
        "lp.solve_share": share(total["lp.solve"]),
        "verify.pareto_improvement_exists_s": seconds(total["verify.pareto_improvement_exists"]),
        "verify.pareto_improvement_exists_share": share(total["verify.pareto_improvement_exists"]),
        "improve.self_s": seconds(self_time["improve.improve_to_acyclic_fpo"]),
        "improve.lp_solves": per_op(improve_solves),
        "improve.retry_lp_solves": per_op(improve_solves - improve_calls),
        "improve.dominance_welfare_lp_s": seconds(total["improve.dominance_welfare_lp"]),
        "serialize.parse_instance_s": seconds(total["serialize.parse_instance"]),
        "serialize.parse_allocation_s": seconds(total["serialize.parse_allocation"]),
        "serialize.emit_s": seconds(total["serialize.emit"]),
        "verify.weighted_prop_s": seconds(total["verify.weighted_prop"]),
        "verify.weighted_prop1_s": seconds(total["verify.weighted_prop1"]),
        "verify.propx_s": seconds(total["verify.propx"]),
        "verify.pareto_dominates_s": seconds(total["verify.pareto_dominates"]),
        "verify.is_pareto_optimal_integral_s": seconds(total["verify.is_pareto_optimal_integral"]),
        "verify.find_welfare_weights_s": seconds(total["verify.find_welfare_weights"]),
        "rounding.allocate_s": seconds(total["rounding.allocate"]),
        "rounding.allocate.self_s": seconds(self_time["rounding.allocate"]),
        "rounding.resolve_zero_items_s": seconds(total["rounding.resolve_zero_items"]),
        "rounding.zero_items_moved": per_op(details("rounding.resolve_zero_items", "moved")),
        "rounding.round_acyclic_s": seconds(total["rounding.round_acyclic"]),
        "rounding.shared_items": per_op(details("rounding.round_acyclic", "shared")),
        "core.consumption_graph_s": seconds(total["core.consumption_graph"]),
        "core.find_cycle_s": seconds(total["core.find_cycle"]),
        "cli.self_s": seconds(self_time[OP_SPAN]),
        "cli.load_s": seconds(total["cli.load"]),
    }
