"""sha256 digests of ``fairdiv solve`` stdout on benchmark-sized instances.

``documents()`` draws a fixed list of instance documents, from 1x1 up to
7 agents x 28 items, among them tied top values, unequal weights, ``p/q``
entries, goods-only and chores-only rows, scaled copies of one row and
argmax hits. ``tests/golden/solve_digests.json`` holds, per document, the
sha256 of the document and of ``solve``'s stdout. A change meant to keep
every output identical must pass unchanged; a changed digest is a changed
output. Tier-1 checks every document digest and recomputes the stdout
digests of every ``SUBSET_STEP``-th document; ``tests/pins.py`` recomputes
all of them, and its ``--record`` rewrites them.
"""

import json
import random
import tempfile

from fairdiv.serialize import parse_instance
from helpers import fraction_matrix, oracle_argmax_is_lp_optimum
from pins import moved, parametrize, read, sha256, solve_stdout, write

DIGESTS = "solve_digests.json"
KINDS = ("ties", "wide", "ratio", "signs", "scaled", "hits")
WEIGHTS = ("equal", "integer", "ratio")
# (count, agents, items): many small instances, fewer up to the largest
# solve-large shape, which takes about half a second each
SIZES = ((180, (1, 4), (1, 10)), (60, (3, 5), (8, 20)), (24, (6, 7), (20, 28)))
SUBSET_STEP = 5


def _row(rng, kind, m, sign):
    if kind == "ties":
        return [rng.randint(-2, 3) for _ in range(m)]
    if kind == "wide":
        return [rng.randint(-1000, 1000) for _ in range(m)]
    if kind == "ratio":
        return [f"{rng.randint(-6, 6)}/{rng.randint(1, 4)}" for _ in range(m)]
    # "signs": goods-only, chores-only and mixed rows, zeros in the mixed ones
    lo, hi = {"goods": (1, 9), "chores": (-9, -1), "mixed": (-9, 9)}[sign]
    return [rng.randint(lo, hi) for _ in range(m)]


def _utilities(rng, kind, n, m):
    if kind == "scaled":
        # positive multiples of one row: the agents rank the items alike, and
        # those given equal multiples tie on every item
        base = [rng.randint(-6, 6) for _ in range(m)]
        return [[str(v * k) for v in base] for k in rng.choices((1, 1, 2, 3), k=n)]
    if kind == "hits":
        # each item's owner values it far above the rest
        owners = [rng.randrange(n) for _ in range(m)]
        return [[rng.randint(30, 40) if owners[o] == i else rng.randint(-5, 5)
                 for o in range(m)] for i in range(n)]
    signs = ["goods", "chores"] + ["mixed"] * n
    rng.shuffle(signs)
    return [_row(rng, kind, m, signs[i]) for i in range(n)]


def documents() -> list:
    """(name, instance document) pairs, each drawn from its own seed."""
    out = []
    for count, (n_lo, n_hi), (m_lo, m_hi) in SIZES:
        for _ in range(count):
            k = len(out)
            rng = random.Random(k)
            n, m = rng.randint(n_lo, n_hi), rng.randint(m_lo, m_hi)
            kind, weights = KINDS[k % len(KINDS)], WEIGHTS[k // len(KINDS) % len(WEIGHTS)]
            agents = [{"id": f"a{i + 1}"} for i in range(n)]
            for agent in agents:
                if weights == "integer":
                    agent["weight"] = rng.randint(1, 9)
                elif weights == "ratio":
                    agent["weight"] = f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
            doc = {"agents": agents, "items": [f"o{j + 1}" for j in range(m)],
                   "utilities": _utilities(rng, kind, n, m)}
            out.append((f"{k:03d}-{kind}-{weights}-{n}x{m}", doc))
    return out


def document_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def test_documents_are_the_recorded_ones():
    assert {name: sha256(document_text(doc)) for name, doc in documents()} == {
        name: entry["instance"] for name, entry in read(DIGESTS).items()}


def test_documents_hold_each_case_the_digests_pin():
    cases, shapes = set(), set()
    for _, doc in documents():
        instance, _, _ = parse_instance(doc)
        u = fraction_matrix(instance)
        large = "large " if instance.num_agents * instance.num_items >= 120 else ""
        cases.add(large + ("argmax hit" if oracle_argmax_is_lp_optimum(instance) else "LP"))
        columns = [[row[o] for row in u] for o in instance.items]
        if instance.num_agents > 1 and any(c.count(max(c)) > 1 for c in columns):
            cases.add(large + "tied top value")
        if len(set(instance.weights)) > 1:
            cases.add("unequal weights")
        if any("/" in str(v) for row in doc["utilities"] for v in row):
            cases.add("p/q entry")
        if instance.num_items > 1 and any(min(row) > 0 for row in u):
            cases.add("goods-only row")
        if instance.num_items > 1 and any(max(row) < 0 for row in u):
            cases.add("chores-only row")
        shapes.add((instance.num_agents, instance.num_items))
    assert cases == {"argmax hit", "LP", "large argmax hit", "large LP", "tied top value",
                     "large tied top value", "unequal weights", "p/q entry",
                     "goods-only row", "chores-only row"}
    assert {(1, 1), (7, 28)} <= shapes
    assert max(n for n, _ in shapes) == 7 and max(m for _, m in shapes) == 28


SUBSET = documents()[::SUBSET_STEP]


def test_solve_stdout_matches_its_digest(name, doc, tmp_path):
    assert sha256(solve_stdout(doc, tmp_path)) == read(DIGESTS)[name]["stdout"]


pytest_generate_tests = parametrize(test_solve_stdout_matches_its_digest, "name,doc", SUBSET)


def check(record: bool) -> list:
    """Recompute every digest; record them, or return the names of the
    documents whose digests differ from the file."""
    with tempfile.TemporaryDirectory() as workdir:
        got = {name: {"instance": sha256(document_text(doc)),
                      "stdout": sha256(solve_stdout(doc, workdir))} for name, doc in documents()}
    if record:
        write(DIGESTS, got)
        return []
    return moved(list(got), list(got.items()), list(read(DIGESTS).items()))
