"""Command line: solve an instance, verify an allocation, generate
instances, and exhaustively search allocation space for a property.

Exit codes: 0 success or property holds, 1 a requested property is
violated (for search: no satisfying allocation), 2 input error, 3
internal invariant failure or any other unexpected error. Errors go to
stderr as one JSON object, never as a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import reprlib
import sys

from fairdiv import verify
from fairdiv.core import EnumerationCapExceeded, Instance, InvariantViolation
from fairdiv.rounding import allocate
from fairdiv.serialize import (
    format_rational,
    parse_allocation,
    parse_instance,
    print_allocation,
    print_fractional,
    print_instance,
    report_doc,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

# gen draws and prints at most this many cells: one per utility entry, and at
# least one per agent, whose row costs memory even with no items. At the
# limit, a 100x10000 gen peaked at 182 MiB RSS and took about 1 s.
MAX_GEN_CELLS = 1_000_000

SEARCHABLE = {
    "prop": verify.weighted_prop,
    "prop1": verify.weighted_prop1,
    "propx": verify.propx,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        _error(str(exc))
        return EXIT_INTERNAL_ERROR
    except (EnumerationCapExceeded, ValueError, OSError) as exc:
        _error(str(exc))
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a bug: report it and where it was raised, not a traceback
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        _error(f"internal error at {where}: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL_ERROR


class _Parser(argparse.ArgumentParser):
    # A usage error is an input error: exit 2 with one JSON line, not
    # argparse's usage text. Subparsers are built from the same class.
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: a parser is a web of reference cycles that
    # only the cyclic collector would free, and parse_args keeps no state
    # in it between calls.
    parser = _Parser(
        prog="fairdiv",
        description="Fair division of mixed goods and chores under entitlements.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="allocate an instance; prints allocation and certificates")
    solve.add_argument("instance", help="instance JSON file")
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="check properties of an allocation")
    ver.add_argument("instance", help="instance JSON file")
    ver.add_argument("allocation", help="allocation JSON file")
    ver.add_argument("--property", default="prop1",
                     help="comma-separated subset of prop,prop1,propx,po,fpo,dominates")
    ver.add_argument("--against",
                     help="allocation file the first one should dominate")
    ver.add_argument("--cap", type=int, default=verify.DEFAULT_ENUMERATION_CAP,
                     help="enumeration budget for the po check")
    ver.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate a pseudo-random instance")
    gen.add_argument("--agents", type=int, required=True)
    gen.add_argument("--items", type=int, required=True)
    gen.add_argument("--lo", type=int, default=-5, help="lowest utility value")
    gen.add_argument("--hi", type=int, default=5, help="highest utility value")
    gen.add_argument("--weight-mode", choices=["equal", "random-positive-normalized"],
                     default="equal")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    search = sub.add_parser(
        "search", help="count integral allocations satisfying a property")
    search.add_argument("instance", help="instance JSON file")
    search.add_argument("--property", choices=sorted(SEARCHABLE), required=True)
    search.add_argument("--cap", type=int, default=verify.DEFAULT_ENUMERATION_CAP,
                        help="refuse to enumerate more allocations than this")
    search.set_defaults(func=_cmd_search)
    return parser


def _cmd_solve(args) -> int:
    instance, agent_ids, item_ids = parse_instance(_load(args.instance))
    result = allocate(instance)
    certificates = {
        "prop1": report_doc(result.prop1, agent_ids, item_ids)["witnesses"],
        "fpoCertified": True,  # allocate raises unless the weights certify fPO
        "welfareWeights": [format_rational(w) for w in result.welfare_weights],
    }
    _emit({
        "allocation": print_allocation(result.integral, agent_ids, item_ids)["owner"],
        "fractionalIntermediate": print_fractional(result.fractional, agent_ids, item_ids),
        "certificates": certificates,
    })
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance, agent_ids, item_ids = parse_instance(_load(args.instance))
    allocation = parse_allocation(_load(args.allocation), agent_ids, item_ids)
    names = [p.strip() for p in args.property.split(",") if p.strip()]
    if not names:
        raise ValueError("no properties requested")
    # Every input error, the po cap included, is raised before any property runs.
    checks = {}
    for name in names:
        if name not in checks:
            checks[name] = _property_check(name, args, instance, allocation,
                                           agent_ids, item_ids)
    results = {name: check() for name, check in checks.items()}
    all_hold = all(r["holds"] for r in results.values())
    _emit({"properties": results, "allHold": all_hold})
    return EXIT_OK if all_hold else EXIT_VIOLATED


def _property_check(name, args, instance, allocation, agent_ids, item_ids):
    """Validate one requested property and return a call that checks it."""
    if name in SEARCHABLE:
        return lambda: report_doc(SEARCHABLE[name](instance, allocation), agent_ids, item_ids)
    if name == "po":
        verify.check_cap(instance, args.cap)
        return lambda: {"holds": verify.is_pareto_optimal_integral(instance, allocation,
                                                                   cap=args.cap)}
    if name == "fpo":
        return lambda: {"holds": not verify.pareto_improvement_exists(instance, allocation)}
    if name == "dominates":
        if not args.against:
            raise ValueError("the dominates check needs --against ALLOCATION_FILE")
        other = parse_allocation(_load(args.against), agent_ids, item_ids)
        return lambda: {"holds": verify.pareto_dominates(instance, allocation, other)}
    raise ValueError(f"unknown property {name!r}")


def _cmd_gen(args) -> int:
    if args.agents < 1:
        raise ValueError("need at least one agent")
    if args.items < 0:
        raise ValueError("item count must be nonnegative")
    if args.lo > args.hi:
        raise ValueError("empty utility range")
    cells = args.agents * max(args.items, 1)
    if cells > MAX_GEN_CELLS:
        raise ValueError(f"a {args.agents}x{args.items} instance needs {cells} cells, "
                         f"over the limit {MAX_GEN_CELLS}")
    rng = random.Random(args.seed)
    # the instance normalizes raw weights to sum 1; None reads as equal weights
    weights = (None if args.weight_mode == "equal"
               else [rng.randint(1, 9) for _ in range(args.agents)])
    rows = [(1, [rng.randint(args.lo, args.hi) for _ in range(args.items)])
            for _ in range(args.agents)]
    _emit(print_instance(Instance.from_integer_rows(rows, weights),
                         [f"a{i + 1}" for i in range(args.agents)],
                         [f"o{j + 1}" for j in range(args.items)]))
    return EXIT_OK


def _cmd_search(args) -> int:
    instance, agent_ids, item_ids = parse_instance(_load(args.instance))
    checker = SEARCHABLE[args.property]
    count = 0
    witness = None
    for candidate in verify.enumerate_integral_allocations(instance, cap=args.cap):
        if checker(instance, candidate).holds:
            count += 1
            if witness is None:
                witness = print_allocation(candidate, agent_ids, item_ids)["owner"]
    _emit({
        "property": args.property,
        "searched": verify.enumeration_size(instance),
        "count": count,
        "witness": witness,
    })
    return EXIT_OK if count else EXIT_VIOLATED


def _load(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        # malformed JSON or text, a repeated key, or nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _unique_keys(pairs) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {reprlib.repr(key)} in one object")
            seen.add(key)
    return doc


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _error(message: str) -> None:
    print(json.dumps({"error": message}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
