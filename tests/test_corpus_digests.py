"""Every tiny instance, pinned: sha256 digests of ``fairdiv solve`` stdout on
each instance with entries in {-1, 0, 1}, and the paper's theorem checked
on each 2x3 one.

The corpus of a shape n x m is every n x m matrix with entries in
{-1, 0, 1}, in ``itertools.product`` order, first under equal weights and
then under weights (1, 2, ..., n): 2 * 3**(nm) documents. Ties, zeros and
degenerate vertices concentrate there, so Bland's tie-breaks decide many of
its outputs, where the drawn documents of ``test_solve_digests`` barely
meet them. ``tests/golden/corpus_digests.json`` holds, per shape, one
sha256 per block of ``BLOCK`` consecutive documents, over their ``solve``
stdouts in order. The digests see only outputs, so a kernel that reaches
the same vertex and duals passes them whatever its data structure.

Tier-1 checks 2x3 in full, and checks on each of its instances that the
allocation is weighted PROP1, is integrally Pareto optimal (by brute force
over all n**m allocations) and that its welfare weights certify fPO, with
the independent oracles of ``helpers``. A failure names each block that
moved by its first document. The full check of 2x3, 2x4 and 3x3 (about a
minute on 2 vCPUs), and recording the digests of the program on the path
(only when an output is meant to change):

    PYTHONPATH=src python tests/test_corpus_digests.py [--record]
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from fairdiv.cli import main
from fairdiv.core import IntegralAllocation
from fairdiv.serialize import parse_instance
from helpers import oracle_is_pareto_optimal, oracle_weighted_prop1, oracle_weights_certify

DIGESTS = Path(__file__).resolve().parent / "golden" / "corpus_digests.json"
SHAPES = ((2, 3), (2, 4), (3, 3))
TIER1_SHAPE = (2, 3)
BLOCK = 500


def documents(n: int, m: int) -> list:
    """(name, instance document) pairs of the n x m corpus, in order."""
    out = []
    for weighted in (False, True):
        for values in itertools.product((-1, 0, 1), repeat=n * m):
            rows = [list(values[i * m:(i + 1) * m]) for i in range(n)]
            agents = [{"id": f"a{i + 1}", "weight": i + 1} if weighted else {"id": f"a{i + 1}"}
                      for i in range(n)]
            doc = {"agents": agents, "items": [f"o{o + 1}" for o in range(m)],
                   "utilities": rows}
            out.append((f"rows {rows} weights {'1..n' if weighted else 'equal'}", doc))
    return out


def solve_stdouts(docs) -> list:
    """``fairdiv solve`` stdout on each document; each must exit 0, silently
    on stderr."""
    outs = []
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "instance.json"
        for _, doc in docs:
            path.write_text(json.dumps(doc), "utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["solve", str(path)])
            if (code, err.getvalue()) != (0, ""):
                raise AssertionError(f"solve exited {code}: {err.getvalue()}")
            outs.append(out.getvalue())
    return outs


def block_digests(outs) -> list:
    return [hashlib.sha256("".join(outs[k:k + BLOCK]).encode("utf-8")).hexdigest()
            for k in range(0, len(outs), BLOCK)]


def _key(shape) -> str:
    return "{}x{}".format(*shape)


@functools.lru_cache(maxsize=None)
def corpus(shape) -> tuple:
    """The shape's documents and their stdouts."""
    docs = documents(*shape)
    return docs, solve_stdouts(docs)


def recorded() -> dict:
    return json.loads(DIGESTS.read_text("utf-8"))


def moved_blocks(docs, digests, want) -> list:
    """The first document's name of each block whose digest differs."""
    return [docs[k * BLOCK][0] if k * BLOCK < len(docs) else f"block {k}"
            for k, (got, expected) in enumerate(itertools.zip_longest(digests, want))
            if got != expected]


def test_corpus_outputs_match_their_digests():
    docs, outs = corpus(TIER1_SHAPE)
    assert len(docs) == 2 * 3 ** 6
    moved = moved_blocks(docs, block_digests(outs), recorded()[_key(TIER1_SHAPE)])
    assert not moved, f"{len(moved)} blocks of solve outputs moved, from {moved}"


def test_corpus_allocations_are_weighted_prop1_and_pareto_optimal():
    docs, outs = corpus(TIER1_SHAPE)
    for (name, doc), out in zip(docs, outs):
        instance, agent_ids, item_ids = parse_instance(doc)
        result = json.loads(out)
        owners = tuple(agent_ids.index(result["allocation"][o]) for o in item_ids)
        allocation = IntegralAllocation(instance.num_agents, owners)
        weights = [Fraction(w) for w in result["certificates"]["welfareWeights"]]
        assert oracle_weighted_prop1(instance, allocation).holds, name
        assert oracle_is_pareto_optimal(instance, allocation), name
        assert oracle_weights_certify(instance, allocation, weights), name


def check_all(record: bool) -> int:
    """Recompute every shape's digests; record them, or report each block
    that differs from the file and return 1 if any does."""
    digests, moved = {}, 0
    want = {} if record else recorded()
    for shape in SHAPES:
        docs, outs = corpus(shape)
        digests[_key(shape)] = block_digests(outs)
        if not record:
            for name in moved_blocks(docs, digests[_key(shape)], want.get(_key(shape), [])):
                print(f"{_key(shape)} block differs, from {name}")
                moved += 1
        corpus.cache_clear()
    if record:
        DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", "utf-8")
        return 0
    print(f"{sum(map(len, digests.values()))} blocks of {BLOCK} solve outputs over "
          f"{', '.join(digests)}, {moved} differ from {DIGESTS.name}")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--record"]):
        sys.exit(__doc__)
    sys.exit(check_all(sys.argv[1:] == ["--record"]))
