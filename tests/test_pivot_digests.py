"""Bland's pivot path, pinned: every (leaving, entering) pair of every LP
that ``fairdiv solve`` runs.

The output pins pass a change that reaches the same vertex and duals by
another path; this file pins the path itself, and only it wraps the kernel,
so the output pins stay kernel-independent. Wrapping ``fairdiv.lp._pivot``
records, per pivot, the basic variable that leaves and the column that
enters, in the tableau's column numbering, drive-out pivots included;
wrapping ``improve.solve`` starts a new LP.
``tests/golden/pivot_digests.json`` holds the sha256 of the paths of each
document of ``test_solve_digests``, and a 16-digit sha256 prefix of the
paths that ``improve_to_acyclic_fpo`` takes on each instance of the two 2x3
corpora of ``test_corpus_digests``: over {-1, 0, 1} under ``corpus`` and
over {-1/2, 0, 1} under ``corpus-pq``. The second sees a kernel that
scales agent rows by their denominator, which reaches the same vertex by
other pivots and moves none of the first's paths.

Tier-1 checks both corpora, where the instances that reach no LP must be
exactly the argmax hits of ``helpers.oracle_argmax_is_lp_optimum``, and
every fifth document; ``tests/pins.py`` checks and records all paths.
"""

import contextlib
import functools
import json
import tempfile
from unittest import mock

from fairdiv import improve, lp
from fairdiv.serialize import parse_instance
from helpers import oracle_argmax_is_lp_optimum
from pins import moved, parametrize, read, sha256, solve_stdout, write
from test_corpus_digests import SHAPES
from test_corpus_digests import documents as corpus_documents
from test_solve_digests import SUBSET, documents

DIGESTS = "pivot_digests.json"
# each key of DIGESTS that pins a corpus, with that corpus's key in SHAPES
CORPORA = {"corpus": "2x3", "corpus-pq": "2x3-pq"}
# instances of each corpus whose argmax is not the LP's unique optimum
CORPUS_LPS = 1058


def corpus(key: str) -> list:
    """(name, instance) pairs of the corpus pinned under ``key``, in
    enumeration order."""
    return [(name, parse_instance(doc)[0])
            for name, doc in corpus_documents(*SHAPES[CORPORA[key]])]


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


def _paths_sha256(lps) -> str:
    return sha256(json.dumps(lps, separators=(",", ":")))


def document_digest(doc, workdir) -> str:
    with recording() as lps:
        solve_stdout(doc, workdir)
    return _paths_sha256(lps)


@functools.lru_cache(maxsize=None)
def corpus_digests(key: str) -> tuple:
    """The corpus's names, its digests, and how many LPs each instance
    solved."""
    names, digests, solved = [], [], []
    for name, instance in corpus(key):
        with recording() as lps:
            improve.improve_to_acyclic_fpo(instance)
        names.append(name)
        digests.append(_paths_sha256(lps)[:16])
        solved.append(len(lps))
    return names, digests, solved


def test_corpus_pivot_paths_match_their_digests():
    for key in CORPORA:
        names, digests, solved = corpus_digests(key)
        assert (len(names), sum(solved)) == (1458, CORPUS_LPS)
        changed = moved(names, digests, read(DIGESTS)[key])
        assert not changed, f"{len(changed)} {key} pivot paths moved, the first on {changed[0]}"


def test_corpus_runs_no_lp_exactly_on_the_argmax_hits():
    for key in CORPORA:
        names, _, solved = corpus_digests(key)
        no_lp = [name for name, count in zip(names, solved) if not count]
        assert len(no_lp) == 400
        assert no_lp == [name for name, inst in corpus(key) if oracle_argmax_is_lp_optimum(inst)]


def test_document_pivot_paths_match_their_digest(name, doc, tmp_path):
    assert document_digest(doc, tmp_path) == read(DIGESTS)["documents"][name]


pytest_generate_tests = parametrize(test_document_pivot_paths_match_their_digest,
                                    "name,doc", SUBSET)


def check(record: bool) -> list:
    """Recompute every digest; record them, or return the names of the
    documents and corpus instances whose paths differ from the file."""
    with tempfile.TemporaryDirectory() as workdir:
        docs = {name: document_digest(doc, workdir) for name, doc in documents()}
    corpora = {key: corpus_digests(key)[:2] for key in CORPORA}
    if record:
        write(DIGESTS, {"documents": docs,
                        **{key: digests for key, (_, digests) in corpora.items()}})
        return []
    want = read(DIGESTS)
    return (moved(list(docs), list(docs.items()), list(want["documents"].items()))
            + [name for key, (names, digests) in corpora.items()
               for name in moved(names, digests, want.get(key, []))])
