"""Every tiny instance, pinned: sha256 digests of ``fairdiv solve`` stdout on
each instance with entries in {-1, 0, 1}, and on each 2x3 one with entries
in {-1/2, 0, 1}, and the paper's theorem checked on each 2x3 one over
{-1, 0, 1}.

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
document, and ``helpers.check_theorem`` on ``allocate``'s result for each
instance of the integer one; ``test_improve`` checks it on the p/q one.
The stdouts of both 2x3 corpora are read off ``pins.solved``, whose one
solve per document the pivot-path pins of ``test_pivot_digests`` read too.
``tests/pins.py`` checks and records all four corpora.
"""

import itertools

from fairdiv.serialize import parse_instance
from helpers import check_theorem
from pins import moved, read, sha256, solve_stdout, solved, write

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


def blocks(shape: str) -> tuple:
    """The first document's name and the digest of each block of the
    corpus's stdouts. A tier-1 corpus's are read off ``pins.solved``,
    whose solves the pivot pins read too."""
    docs = documents(*SHAPES[shape])
    outs = [solved(doc)[0] if shape in TIER1 else solve_stdout(doc) for _, doc in docs]
    return ([docs[k][0] for k in range(0, len(docs), BLOCK)],
            [sha256("".join(outs[k:k + BLOCK])) for k in range(0, len(outs), BLOCK)])


def test_corpus_outputs_match_their_digests():
    for shape in TIER1:
        assert len(documents(*SHAPES[shape])) == 2 * 3 ** 6
        changed = moved(*blocks(shape), read(DIGESTS)[shape])
        assert not changed, f"{len(changed)} blocks of {shape} solve outputs moved, from {changed}"


def test_corpus_allocations_are_weighted_prop1_and_pareto_optimal():
    instances = [parse_instance(doc)[0] for _, doc in documents(*SHAPES["2x3"])]
    check_theorem(instances)


def check(record: bool) -> list:
    """Recompute every corpus's digests; record them, or return, per block
    that differs from the file, its first document's name."""
    got = {shape: blocks(shape) for shape in SHAPES}
    if record:
        write(DIGESTS, {key: digests for key, (_, digests) in got.items()})
        return []
    want = read(DIGESTS)
    return [name for key, (names, digests) in got.items()
            for name in moved(names, digests, want.get(key, []))]
