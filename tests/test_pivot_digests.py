"""Bland's pivot path, pinned: every (leaving, entering) pair of every LP
that ``fairdiv solve`` runs.

The solve digests see only each output, so a change that reaches the same
vertex and duals by another pivot path passes them. This file pins the path
itself. Wrapping ``fairdiv.lp._pivot`` records, per pivot, the basic
variable that leaves and the column that enters, in the tableau's column
numbering, the pivots that drive artificials out of the basis included;
wrapping ``improve.solve`` starts the record of a new LP.
``tests/golden/pivot_digests.json`` holds:

- per document of ``test_solve_digests``, the sha256 of the pivot paths of
  the LPs that ``solve`` runs on it;
- per instance of the corpus, every 2x3 instance with entries in
  {-1, 0, 1} under equal weights and under weights (1, 2), a 16-digit
  sha256 prefix of the paths of the LPs that ``improve_to_acyclic_fpo``
  runs on it.

Tier-1 checks the whole corpus and every ``SUBSET_STEP``-th document; a
failure names the first instance whose path moved. The full check, and
recording the paths of the program on the path (only when a path is meant
to change):

    PYTHONPATH=src python tests/test_pivot_digests.py [--record]
"""

import contextlib
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from fairdiv import improve, lp
from fairdiv.core import Instance
from test_solve_digests import SUBSET_STEP, documents, solve_stdout

DIGESTS = Path(__file__).resolve().parent / "golden" / "pivot_digests.json"
CORPUS_WEIGHTS = (None, (1, 2))
# corpus instances whose argmax is not the LP's unique optimum
CORPUS_LPS = 1058


def corpus() -> list:
    """(name, instance) pairs in enumeration order."""
    out = []
    for weights in CORPUS_WEIGHTS:
        for values in itertools.product((-1, 0, 1), repeat=6):
            rows = (values[:3], values[3:])
            out.append((f"rows {rows} weights {weights or 'equal'}", Instance(rows, weights)))
    return out


@contextlib.contextmanager
def recording():
    """Yield a list that gets, per LP that ``improve`` solves meanwhile,
    the list of its pivots as (leaving, entering) pairs."""
    lps = []
    pivot, solve = lp._pivot, improve.solve

    def recorded_pivot(tab, basic, obj, r, j):
        lps[-1].append((basic[r], j))
        pivot(tab, basic, obj, r, j)

    def recorded_solve(problem):
        lps.append([])
        return solve(problem)

    with mock.patch.object(lp, "_pivot", recorded_pivot), \
            mock.patch.object(improve, "solve", recorded_solve):
        yield lps


def _sha256(lps) -> str:
    return hashlib.sha256(json.dumps(lps, separators=(",", ":")).encode("utf-8")).hexdigest()


def document_digest(doc, workdir) -> str:
    with recording() as lps:
        solve_stdout(doc, workdir)
    return _sha256(lps)


def corpus_digests() -> tuple:
    """The corpus's names, its digests, and how many LPs it solved."""
    names, digests, solved = [], [], 0
    for name, instance in corpus():
        with recording() as lps:
            improve.improve_to_acyclic_fpo(instance)
        names.append(name)
        digests.append(_sha256(lps)[:16])
        solved += len(lps)
    return names, digests, solved


def recorded() -> dict:
    return json.loads(DIGESTS.read_text("utf-8"))


def _moved(names, digests, want) -> list:
    """The names whose digest differs from ``want``, in order."""
    return [name for name, got, expected in itertools.zip_longest(names, digests, want)
            if got != expected]


def test_corpus_pivot_paths_match_their_digests():
    names, digests, solved = corpus_digests()
    assert (len(names), solved) == (1458, CORPUS_LPS)
    moved = _moved(names, digests, recorded()["corpus"])
    assert not moved, f"{len(moved)} pivot paths moved, the first on {moved[0]}"


SUBSET = documents()[::SUBSET_STEP]


def pytest_generate_tests(metafunc):
    # pytest reads this hook off the module, so the script run below
    # imports no pytest
    if metafunc.function is test_document_pivot_paths_match_their_digest:
        metafunc.parametrize("name,doc", SUBSET, ids=[name for name, _ in SUBSET])


def test_document_pivot_paths_match_their_digest(name, doc, tmp_path):
    assert document_digest(doc, tmp_path) == recorded()["documents"][name]


def check_all(record: bool) -> int:
    """Recompute every digest; record them, or report each instance whose
    path differs from the file and return 1 if any does."""
    with tempfile.TemporaryDirectory() as workdir:
        docs = {name: document_digest(doc, workdir) for name, doc in documents()}
    names, digests, _ = corpus_digests()
    if record:
        DIGESTS.write_text(json.dumps({"documents": docs, "corpus": digests}, indent=1) + "\n",
                           "utf-8")
        return 0
    want = recorded()
    moved = sorted(name for name in docs.keys() | want["documents"].keys()
                   if docs.get(name) != want["documents"].get(name))
    moved += _moved(names, digests, want["corpus"])
    for name in moved:
        print(f"pivot path differs: {name}")
    print(f"{len(docs)} documents and {len(names)} corpus instances, "
          f"{len(moved)} pivot paths differ from {DIGESTS.name}")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--record"]):
        sys.exit(__doc__)
    sys.exit(check_all(sys.argv[1:] == ["--record"]))
