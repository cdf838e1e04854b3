"""Every pinned output in one run: the golden CLI cases, the solve digests,
the pivot paths and the tiny-instance corpus, all under ``tests/golden/``.

    PYTHONPATH=src python tests/pins.py [--record]

Checks every entry of the four sets, where tier-1 checks a part, prints per
set how many entries moved and the first of them, and exits 1 if any did.
``--record`` rewrites all four, only when an output is meant to change.
Each suite module keeps what it pins and a ``check(record)`` that returns
its moved entries' names. Neither they nor this module import pytest.
"""

import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

from fairdiv.cli import main as fairdiv
from helpers import lp_calls

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent
SUITES = ("test_golden", "test_solve_digests", "test_pivot_digests", "test_corpus_digests")


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call, paths under
    ``fixtures/`` taken from the root."""
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fairdiv(argv)
    return code, out.getvalue(), err.getvalue()


def solve_stdout(doc) -> str:
    """``fairdiv solve`` stdout on the instance document; it must exit 0,
    silently on stderr."""
    path = Path(_workdir().name) / "instance.json"
    path.write_text(json.dumps(doc), "utf-8")
    code, out, err = run(["solve", str(path)])
    if (code, err) != (0, ""):
        raise AssertionError(f"solve exited {code}: {err}")
    return out


@functools.cache
def _workdir() -> tempfile.TemporaryDirectory:
    return tempfile.TemporaryDirectory()  # removed as the process ends


def solved(doc) -> tuple:
    """``fairdiv solve`` on the instance document, run once per process and
    document: its stdout and, per LP it solved, the LP's floors and
    ``pivots``. Every pin on the document reads this one solve."""
    return _solved(json.dumps(doc))


@functools.cache
def _solved(text: str) -> tuple:
    with lp_calls() as calls:
        out = solve_stdout(json.loads(text))
    return out, tuple((problem.floors, solution.pivots) for problem, solution in calls)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read(name: str):
    return json.loads((GOLDEN / name).read_text("utf-8"))


def write(name: str, value, indent: int = 1) -> None:
    (GOLDEN / name).write_text(json.dumps(value, indent=indent) + "\n", "utf-8")


def moved(keys, got, want) -> list:
    """The keys of the entries that differ between the sequences ``got`` and
    ``want``, in order: ``keys[k]`` names entry k, and an entry missing from
    either side has moved."""
    return [keys[k] if k < len(keys) else f"entry {k}"
            for k, (a, b) in enumerate(itertools.zip_longest(got, want)) if a != b]


def parametrize(test, argnames: str, cases: list):
    """A ``pytest_generate_tests`` hook that runs ``test`` once per case,
    each named by its first field. pytest reads the hook off the module, so
    no suite module imports pytest."""
    def hook(metafunc):
        if metafunc.function is test:
            metafunc.parametrize(argnames, cases, ids=[case[0] for case in cases])
    return hook


def suites() -> list:
    """The suite modules, imported on the call since each imports this one."""
    return [importlib.import_module(name) for name in SUITES]


def main(argv: list) -> int:
    if argv not in ([], ["--record"]):
        sys.exit(__doc__)
    failed = False
    for suite in suites():
        names = suite.check(record=bool(argv))
        report = f"{len(names)} moved" + (f", the first {names[0]}" if names else "")
        print(f"{suite.__name__}: {'recorded' if argv else report}")
        failed = failed or bool(names)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
