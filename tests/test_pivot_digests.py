"""Bland's pivot path, pinned: every (leaving, entering) pair of every LP
that ``fairdiv solve`` runs.

The output pins pass a change that reaches the same vertex and duals by
another path; this file pins the path itself. The kernel reports it as
``LpSolution.pivots``: per phase (phase 1, the drive-out of artificials,
phase 2), the basic variable that leaves and the column that enters at each
pivot, in the tableau's column numbering. A path here is one LP's pivots
over its three phases. Each pin reads the paths of ``pins.solved``, the
one solve per document that the stdout pins read too.
``tests/golden/pivot_digests.json`` holds the sha256 of the paths of each
document of ``test_solve_digests``; a 16-digit sha256 prefix of the paths
on each instance of the two 2x3 corpora of ``test_corpus_digests``, over
{-1, 0, 1} under ``corpus`` and over {-1/2, 0, 1} under ``corpus-pq``; and,
under ``large``, the sha256 of the document, of its stdout and of its paths
for four ``fairdiv gen --seed 1`` instances. The p/q corpus sees a kernel
that scales agent rows by their denominator, which reaches the same vertex
by other pivots and moves none of the integer corpus's paths.

Tier-1 checks both corpora, where the instances that reach no LP must be
exactly the argmax hits of ``helpers.oracle_argmax_is_lp_optimum``, and
their drive-outs; every fifth document; and the equal-weight 10x50 gen
instance. ``tests/pins.py`` checks and records all paths.
"""

import json

from fairdiv.serialize import parse_instance
from helpers import oracle_argmax_is_lp_optimum
from pins import moved, parametrize, read, run, sha256, solved, write
from test_corpus_digests import SHAPES
from test_corpus_digests import documents as corpus_documents
from test_solve_digests import SUBSET, documents

DIGESTS = "pivot_digests.json"
# each key of DIGESTS that pins a corpus, with that corpus's key in SHAPES
CORPORA = {"corpus": "2x3", "corpus-pq": "2x3-pq"}
# instances of each corpus whose argmax is not the LP's unique optimum
CORPUS_LPS = 1058
# LPs of each corpus that end phase 1 with an artificial still basic
DRIVE_OUTS = {"corpus": 26, "corpus-pq": 18}
# ``fairdiv gen --seed 1`` documents, by name: (agents, items, weight mode).
# At these shapes no LP measured had a unique optimum: the path fixes the output.
LARGE = {"gen-10x50-equal": (10, 50, "equal"), "gen-15x80-equal": (15, 80, "equal"),
         "gen-20x120-equal": (20, 120, "equal"),
         "gen-10x50-random": (10, 50, "random-positive-normalized")}
# the one that tier-1 checks: its LP takes about 0.7 s, the largest about 19 s
TIER1_LARGE = "gen-10x50-equal"


def paths_sha256(lps) -> str:
    """The digest of the paths of ``pins.solved``'s LPs."""
    paths = [[pair for phase in pivots for pair in phase] for _, pivots in lps]
    return sha256(json.dumps(paths, separators=(",", ":")))


def corpus(key: str) -> list:
    """(name, instance) pairs of the corpus pinned under ``key``, in
    enumeration order."""
    return [(name, parse_instance(doc)[0])
            for name, doc in corpus_documents(*SHAPES[CORPORA[key]])]


def corpus_lps(key: str) -> list:
    """Per instance of that corpus, in order, the LPs that its solve ran."""
    return [solved(doc)[1] for _, doc in corpus_documents(*SHAPES[CORPORA[key]])]


def corpus_digests(key: str) -> tuple:
    """The corpus's names and its digests."""
    names = [name for name, _ in corpus_documents(*SHAPES[CORPORA[key]])]
    return names, [paths_sha256(lps)[:16] for lps in corpus_lps(key)]


def large_digests(name: str) -> dict:
    """The sha256 of the gen document, of its ``solve`` stdout and of the
    paths of that solve."""
    n, m, mode = LARGE[name]
    code, text, _ = run(["gen", "--agents", str(n), "--items", str(m), "--seed", "1",
                         "--weight-mode", mode])
    assert code == 0
    out, lps = solved(json.loads(text))
    return {"instance": sha256(text), "stdout": sha256(out), "path": paths_sha256(lps)}


def test_corpus_pivot_paths_match_their_digests():
    for key in CORPORA:
        names, digests = corpus_digests(key)
        assert (len(names), sum(map(len, corpus_lps(key)))) == (1458, CORPUS_LPS)
        changed = moved(names, digests, read(DIGESTS)[key])
        assert not changed, f"{len(changed)} {key} pivot paths moved, the first on {changed[0]}"


def test_corpus_runs_no_lp_exactly_on_the_argmax_hits():
    for key in CORPORA:
        instances = corpus(key)
        no_lp = [name for (name, _), lps in zip(instances, corpus_lps(key)) if not lps]
        assert len(no_lp) == 400
        assert no_lp == [name for name, inst in instances if oracle_argmax_is_lp_optimum(inst)]


def test_drive_out_pivots_replace_artificials_by_real_columns():
    # a 2x3 tableau has six variables and two slacks before its artificials
    art_start = 8
    for key, count in DRIVE_OUTS.items():
        paths = [pivots for lps in corpus_lps(key) for _, pivots in lps]
        assert sum(1 for _, drive_out, _ in paths if drive_out) == count
        for _, drive_out, phase2 in paths:
            assert all(leave >= art_start > enter for leave, enter in drive_out)
            assert all(max(pair) < art_start for pair in phase2)


def test_document_pivot_paths_match_their_digest(name, doc):
    assert paths_sha256(solved(doc)[1]) == read(DIGESTS)["documents"][name]


pytest_generate_tests = parametrize(test_document_pivot_paths_match_their_digest,
                                    "name,doc", SUBSET)


def test_large_document_path_and_stdout_match_their_digests():
    assert large_digests(TIER1_LARGE) == read(DIGESTS)["large"][TIER1_LARGE]


def check(record: bool) -> list:
    """Recompute every digest; record them, or return the names of the
    documents and corpus instances whose paths differ from the file."""
    docs = {name: paths_sha256(solved(doc)[1]) for name, doc in documents()}
    corpora = {key: corpus_digests(key) for key in CORPORA}
    large = {name: large_digests(name) for name in LARGE}
    if record:
        write(DIGESTS, {"documents": docs,
                        **{key: digests for key, (_, digests) in corpora.items()},
                        "large": large})
        return []
    want = read(DIGESTS)
    return (moved(list(docs), list(docs.items()), list(want["documents"].items()))
            + [name for key, (names, digests) in corpora.items()
               for name in moved(names, digests, want.get(key, []))]
            + moved(list(large), list(large.items()), list(want.get("large", {}).items())))
