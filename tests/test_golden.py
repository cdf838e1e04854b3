"""Golden outputs: the CLI's stdout, stderr and exit code on every fixture,
byte for byte.

``tests/golden/cases.json`` lists each command line with its exit code and
stderr; ``tests/golden/<name>.stdout`` holds its stdout. A change that is
meant to keep the output identical must pass this unchanged. To record the
goldens of the program on the path (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fairdiv.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
ALL_PROPERTIES = "prop,prop1,propx,po,fpo"
# po exceeds its enumeration cap on the 31-item goods fixture, so those
# allocations are also checked without it
NO_PO = "prop,prop1,propx,fpo"


def cases() -> list:
    """(name, argv) for solve on each fixture instance and verify on each
    fixture allocation; an allocation file is named <instance>_<tag>.json."""
    out = []
    fixtures = sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))
    instances = [f for f in fixtures if not any(f.startswith(g + "_") for g in fixtures)]
    for inst in instances:
        out.append((f"solve-{inst}", ["solve", f"fixtures/{inst}.json"]))
        for alloc in fixtures:
            if not alloc.startswith(inst + "_"):
                continue
            files = [f"fixtures/{inst}.json", f"fixtures/{alloc}.json"]
            out.append((f"verify-{alloc}", ["verify", *files, "--property", ALL_PROPERTIES]))
            if inst.startswith("goods_"):
                out.append((f"verify-{alloc}-no-po", ["verify", *files, "--property", NO_PO]))
    return out


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one CLI call, paths taken from the root."""
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def recorded() -> dict:
    return {c["name"]: c for c in json.loads((GOLDEN / "cases.json").read_text("utf-8"))}


def test_golden_cases_cover_every_fixture():
    assert sorted(recorded()) == sorted(name for name, _ in cases())


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_output_matches_golden(name, argv):
    golden = recorded()[name]
    assert golden["argv"] == argv
    code, stdout, stderr = run(argv)
    assert code == golden["exit"]
    assert stderr == golden["stderr"]
    assert stdout == (GOLDEN / f"{name}.stdout").read_text("utf-8")


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = []
    for name, argv in cases():
        code, stdout, stderr = run(argv)
        (GOLDEN / f"{name}.stdout").write_text(stdout, "utf-8")
        manifest.append({"name": name, "argv": argv, "exit": code, "stderr": stderr})
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n", "utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
