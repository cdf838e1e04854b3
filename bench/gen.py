"""Seeded benchmark inputs, with the oracle's expected verdicts.

    python3 bench/gen.py --workload NAME --seed N --out DIR

writes the instance and allocation files a workload's operations read, and
DIR/manifest.json, which lists those operations round by round. Each
operation is a fairdiv command line plus what its output is checked
against. The same workload and seed always give the same files. The
program under test sees only these JSON files; this script does not import
it.

A round is a fixed mix of operations, so that every run measures the same
mix however many rounds fit in its time. An operation's place in its round
is its slot; the benchmark takes the median time of each slot over the
rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import string
from fractions import Fraction

import check

WHY = {
    "solve-small": "per-operation fixed costs (CLI, parse, LP build, phase 1, weight search, "
                   "emit) dominate on small mixed instances",
    "solve-large": "exact Fraction pivoting in the improvement and fPO self-check LPs does "
                   "over 95% of the work at 6x30 and 7x28",
    "verify-large": "JSON parse and the verify checkers do the work on a 50x4000 instance, "
                    "with no LP in the path",
}

# solve-small: one round holds one instance of each shape, the sign mix,
# weights, rationals and zero density rotating with the round number
SMALL_SHAPES = ((2, 4), (2, 8), (2, 12), (2, 16), (3, 4), (3, 8), (3, 12), (3, 16),
                (4, 4), (4, 6), (4, 9), (4, 12), (5, 4), (5, 6), (5, 8), (5, 10))
SMALL_ROUNDS = 64  # more than a run gets through, so no instance repeats
SIGN_RANGES = {"mixed": (-9, 9), "goods": (0, 9), "chores": (-9, 0)}
SIGNS = ("mixed", "goods", "mixed", "chores")

# solve-large: a fixed panel, solved over and over. The solve time of a
# random instance of one shape varies by more than half, so the seed varies
# ids and number encoding, not the utilities. The shapes keep a solve at 1-3 s
# (8x40 takes 5-7 s and 10x50 10-12 s), so that a run repeats each panel
# instance several times and its median time does not hang on a few seconds
# of a shared machine's speed.
LARGE_PANEL = ((6, 30, "equal"), (6, 30, "random"), (7, 28, "equal"), (7, 28, "random"))

# verify-large
BIG_AGENTS, BIG_ITEMS = 50, 4000
MOVED_ITEMS = 40  # items taken from a valuing owner to make the dominated allocation
PO_AGENTS, PO_ITEMS = 3, 14
PO_ZERO_ITEMS = 8  # worthless to everyone, so the PO search cannot prune them
PO_ROUNDS = 20
DEEP_PO_ITEMS = 1500


def rational(rng, lo, hi, rational_share, zero_share) -> Fraction:
    if rng.random() < zero_share:
        return Fraction(0)
    if rng.random() < rational_share:
        q = rng.randint(2, 12)
        return Fraction(rng.randint(lo * q, hi * q), q)
    return Fraction(rng.randint(lo, hi))


def random_utilities(rng, n, m, sign="mixed", rational_share=0.0, zero_share=0.0):
    lo, hi = SIGN_RANGES[sign]
    return [[rational(rng, lo, hi, rational_share, zero_share) for _ in range(m)]
            for _ in range(n)]


def random_weights(rng, n, mode):
    if mode == "equal":
        return [Fraction(1)] * n
    return [Fraction(rng.randint(1, 9)) for _ in range(n)]


def encode(v: Fraction, style):
    """Integers go out as JSON numbers or strings at random; both are valid."""
    if v.denominator == 1 and style.random() < 0.5:
        return v.numerator
    return str(v)


def instance_doc(style, weights, utilities) -> dict:
    m = len(utilities[0])
    agent_tag = "".join(style.choice(string.ascii_lowercase) for _ in range(3))
    item_tag = "".join(style.choice(string.ascii_lowercase) for _ in range(2))
    return {
        "agents": [{"id": f"{agent_tag}{i}", "weight": encode(w, style)}
                   for i, w in enumerate(weights)],
        "items": [f"{item_tag}{j}" for j in range(m)],
        "utilities": [[encode(v, style) for v in row] for row in utilities],
    }


def owner_doc(doc, owners) -> dict:
    return {"owner": {item: doc["agents"][a]["id"] for item, a in zip(doc["items"], owners)}}


def weighted_argmax_owners(rng, utilities):
    """Each item to a maximizer of lam_i * u_i(o) for random positive lam.
    Such an allocation maximizes a positively weighted welfare sum, so no
    allocation Pareto-dominates it."""
    lam = [rng.randint(1, 5) for _ in utilities]
    return [max(range(len(utilities)), key=lambda i: (lam[i] * utilities[i][o], -i))
            for o in range(len(utilities[0]))]


def dominated_copy(rng, utilities, owners, moves):
    """Move items from an owner who values them positively to an agent who
    does not: the original then Pareto-dominates the copy. None when no
    item can be moved that way."""
    out = list(owners)
    candidates = [(o, b) for o in range(len(owners)) if utilities[owners[o]][o] > 0
                  for b in range(len(utilities)) if utilities[b][o] <= 0]
    if not candidates:
        return None
    for o, b in rng.sample(candidates, min(moves, len(candidates))):
        if out[o] == owners[o]:
            out[o] = b
    return out


class Writer:
    def __init__(self, out):
        self.out = out

    def put(self, name, doc) -> str:
        path = os.path.join(self.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return path


def solve_op(path) -> dict:
    return {"argv": ["solve", path], "check": {"kind": "solve", "instance": path}}


def verify_op(inst_path, alloc_path, prop, expect, against=None) -> dict:
    argv = ["verify", inst_path, alloc_path, "--property", prop]
    if against:
        argv += ["--against", against]
    return {"argv": argv, "check": dict(expect, kind="verify", property=prop)}


def gen_solve_small(seed, w: Writer) -> dict:
    rng, style = random.Random(f"solve-small/{seed}"), random.Random(f"style/{seed}")
    rounds = []
    for r in range(SMALL_ROUNDS):
        ops = []
        for k, (n, m) in enumerate(SMALL_SHAPES):
            utilities = random_utilities(
                rng, n, m, sign=SIGNS[(k + r) % len(SIGNS)],
                rational_share=0.3 if (k // 2 + r) % 2 else 0.0,
                zero_share=0.3 if (k + r) % 3 == 0 else 0.0)
            weights = random_weights(rng, n, "equal" if (k + r) % 2 == 0 else "random")
            ops.append(solve_op(w.put(f"r{r}-{k}.json", instance_doc(style, weights, utilities))))
        rounds.append(ops)
    return {"rounds": rounds}


def gen_solve_large(seed, w: Writer) -> dict:
    style = random.Random(f"style/{seed}")
    ops = []
    for k, (n, m, mode) in enumerate(LARGE_PANEL):
        rng = random.Random(f"solve-large/panel/{k}")
        weights = random_weights(rng, n, mode)
        utilities = random_utilities(rng, n, m)
        ops.append(solve_op(w.put(f"panel{k}.json", instance_doc(style, weights, utilities))))
    return {"rounds": [ops]}


def po_case(rng, pareto: bool):
    """Utilities and an allocation that is Pareto optimal or not, known by
    construction."""
    while True:
        u = random_utilities(rng, PO_AGENTS, PO_ITEMS, rational_share=0.2, zero_share=0.3)
        for o in rng.sample(range(PO_ITEMS), PO_ZERO_ITEMS):
            for row in u:
                row[o] = Fraction(0)
        owners = weighted_argmax_owners(rng, u)
        if not pareto:
            owners = dominated_copy(rng, u, owners, 1)
        if owners is not None:
            return u, owners


def gen_verify_large(seed, w: Writer) -> dict:
    rng, style = random.Random(f"verify-large/{seed}"), random.Random(f"style/{seed}")
    utilities = random_utilities(rng, BIG_AGENTS, BIG_ITEMS, rational_share=0.3,
                                 zero_share=0.1)
    doc = instance_doc(style, random_weights(rng, BIG_AGENTS, "random"), utilities)
    inst = check.read_instance(doc)
    owners_a = weighted_argmax_owners(rng, utilities)
    owners_b = dominated_copy(rng, utilities, owners_a, MOVED_ITEMS)
    big = w.put("big.json", doc)
    alloc_a = w.put("big-a.json", owner_doc(doc, owners_a))
    alloc_b = w.put("big-b.json", owner_doc(doc, owners_b))
    verdicts = {
        "prop": check.prop_verdicts(inst, owners_a),
        "prop1": check.prop1_verdicts(inst, owners_a),
        "propx": check.propx_verdicts(inst, owners_a),
    }
    expect = {p: {"holds": all(ok for ok, _, _ in v), "agents": check.verdict_doc(v)}
              for p, v in verdicts.items()}
    forward = {"holds": check.dominates(inst, owners_a, owners_b)}
    backward = {"holds": check.dominates(inst, owners_b, owners_a)}

    rounds = []
    for r in range(PO_ROUNDS):
        po = []
        for k, pareto in enumerate((True, False)):
            u, owners = po_case(rng, pareto)
            d = instance_doc(style, random_weights(rng, PO_AGENTS, "equal"), u)
            po.append(verify_op(w.put(f"po{r}-{k}.json", d),
                                w.put(f"po{r}-{k}-alloc.json", owner_doc(d, owners)),
                                "po", {"holds": pareto}))
        if r % 2:
            dom = verify_op(big, alloc_b, "dominates", backward, against=alloc_a)
        else:
            dom = verify_op(big, alloc_a, "dominates", forward, against=alloc_b)
        rounds.append([
            verify_op(big, alloc_a, "prop", expect["prop"]),
            verify_op(big, alloc_a, "prop1", expect["prop1"]),
            po[0],
            verify_op(big, alloc_a, "propx", expect["propx"]),
            dom,
            po[1],
        ])

    # one agent, many items: PO holds trivially, but the search recurses
    # once per item
    deep = instance_doc(style, [Fraction(1)], random_utilities(rng, 1, DEEP_PO_ITEMS))
    probe = verify_op(w.put("deep.json", deep),
                      w.put("deep-alloc.json", owner_doc(deep, [0] * DEEP_PO_ITEMS)),
                      "po", {"holds": True})
    return {"rounds": rounds, "probe": probe}


def warmup_ops(w: Writer) -> list:
    """A tiny solve and verify, run before timing starts."""
    doc = instance_doc(random.Random("warmup"), [1, 2], [[3, -1, 2], [1, -2, 5]])
    path = w.put("warmup.json", doc)
    alloc = w.put("warmup-alloc.json", owner_doc(doc, [0, 0, 1]))
    return [{"argv": ["solve", path]},
            {"argv": ["verify", path, alloc, "--property", "prop,prop1,propx,po,fpo"]}]


GENERATORS = {
    "solve-small": gen_solve_small,
    "solve-large": gen_solve_large,
    "verify-large": gen_verify_large,
}


def generate(workload: str, seed: int, out: str) -> dict:
    os.makedirs(out, exist_ok=True)
    w = Writer(out)
    manifest = GENERATORS[workload](seed, w)
    manifest.update(workload=workload, seed=seed, why=WHY[workload], warmup=warmup_ops(w))
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
