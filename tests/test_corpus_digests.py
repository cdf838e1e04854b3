"""Every tiny instance, pinned: sha256 digests of ``fairdiv solve`` stdout on
each instance with entries in {-1, 0, 1}, and on each 2x3 one with entries
in {-1/2, 0, 1}, and the paper's theorem checked on each 2x3 one.

The corpus of a shape n x m over three values is every n x m matrix with
entries among them, in ``itertools.product`` order, first under equal
weights and then under weights (1, 2, ..., n): 2 * 3**(nm) documents. Ties,
zeros and degenerate vertices concentrate there, so Bland's tie-breaks
decide many of its outputs, where the drawn documents of
``test_solve_digests`` barely meet them. The p/q corpus ``2x3-pq`` has rows
whose denominator ``d`` is 1 or 2, so it sees a kernel that scales agent
rows by ``d``. ``tests/golden/corpus_digests.json`` holds, per corpus, one
sha256 per block of ``BLOCK`` consecutive ``solve`` stdouts, so a kernel
that reaches the same vertex and duals passes whatever its data structure.

Tier-1 checks both 2x3 corpora, naming each block that moved by its first
document, and on each allocation weighted PROP1, integral PO by brute
force, fPO by the reference LP and the welfare weights, with the oracles of
``helpers``. ``tests/pins.py`` checks and records all four corpora.
"""

import functools
import itertools
import json
import tempfile
from fractions import Fraction

from fairdiv.core import IntegralAllocation
from fairdiv.serialize import parse_instance
from helpers import lp_pareto_improvement_exists, oracle_is_pareto_optimal
from helpers import oracle_weighted_prop1, oracle_weights_certify
from pins import moved, read, sha256, solve_stdout, write

DIGESTS = "corpus_digests.json"
INTEGERS, HALVES = (-1, 0, 1), ("-1/2", 0, 1)
# each corpus: its shape and the values of its entries
SHAPES = {"2x3": (2, 3, INTEGERS), "2x4": (2, 4, INTEGERS), "3x3": (3, 3, INTEGERS),
          "2x3-pq": (2, 3, HALVES)}
TIER1 = ("2x3", "2x3-pq")
BLOCK = 500


def documents(n: int, m: int, entries: tuple = INTEGERS) -> list:
    """(name, instance document) pairs of the n x m corpus over the
    ``entries``, in order."""
    out = []
    for weighted in (False, True):
        for values in itertools.product(entries, repeat=n * m):
            rows = [list(values[i * m:(i + 1) * m]) for i in range(n)]
            agents = [{"id": f"a{i + 1}", "weight": i + 1} if weighted else {"id": f"a{i + 1}"}
                      for i in range(n)]
            doc = {"agents": agents, "items": [f"o{o + 1}" for o in range(m)],
                   "utilities": rows}
            out.append((f"rows {rows} weights {'1..n' if weighted else 'equal'}", doc))
    return out


@functools.lru_cache(maxsize=None)
def corpus(shape: str) -> tuple:
    """The corpus's documents and their stdouts."""
    docs = documents(*SHAPES[shape])
    with tempfile.TemporaryDirectory() as workdir:
        return docs, [solve_stdout(doc, workdir) for _, doc in docs]


def blocks(shape: str) -> tuple:
    """The first document's name and the digest of each block of the
    corpus's stdouts."""
    docs, outs = corpus(shape)
    return ([docs[k][0] for k in range(0, len(docs), BLOCK)],
            [sha256("".join(outs[k:k + BLOCK])) for k in range(0, len(outs), BLOCK)])


def test_corpus_outputs_match_their_digests():
    for shape in TIER1:
        assert len(corpus(shape)[0]) == 2 * 3 ** 6
        changed = moved(*blocks(shape), read(DIGESTS)[shape])
        assert not changed, f"{len(changed)} blocks of {shape} solve outputs moved, from {changed}"


def test_corpus_allocations_are_weighted_prop1_and_pareto_optimal():
    for shape in TIER1:
        docs, outs = corpus(shape)
        for (name, doc), out in zip(docs, outs):
            instance, agent_ids, item_ids = parse_instance(doc)
            result = json.loads(out)
            owners = tuple(agent_ids.index(result["allocation"][o]) for o in item_ids)
            allocation = IntegralAllocation(instance.num_agents, owners)
            weights = [Fraction(w) for w in result["certificates"]["welfareWeights"]]
            assert oracle_weighted_prop1(instance, allocation).holds, name
            assert oracle_is_pareto_optimal(instance, allocation), name
            assert oracle_weights_certify(instance, allocation, weights), name
            assert not lp_pareto_improvement_exists(instance, allocation), name


def check(record: bool) -> list:
    """Recompute every corpus's digests; record them, or return, per block
    that differs from the file, its first document's name."""
    got = {}
    for shape in SHAPES:
        got[shape] = blocks(shape)
        corpus.cache_clear()
    if record:
        write(DIGESTS, {key: digests for key, (_, digests) in got.items()})
        return []
    want = read(DIGESTS)
    return [name for key, (names, digests) in got.items()
            for name in moved(names, digests, want.get(key, []))]
