"""Golden outputs: the CLI's stdout, stderr and exit code on every fixture,
byte for byte.

``tests/golden/cases.json`` lists each command line with its exit code and
stderr; ``tests/golden/<name>.stdout`` holds its stdout. A change that is
meant to keep the output identical must pass this unchanged.
``tests/pins.py`` checks these with the other pinned outputs, and its
``--record`` rewrites them.
"""

from pins import GOLDEN, ROOT, moved, parametrize, read, run, write

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


def recorded() -> dict:
    return {c["name"]: c for c in read("cases.json")}


def test_golden_cases_cover_every_fixture():
    assert sorted(recorded()) == sorted(name for name, _ in cases())


def test_output_matches_golden(name, argv):
    golden = recorded()[name]
    assert golden["argv"] == argv
    code, stdout, stderr = run(argv)
    assert code == golden["exit"]
    assert stderr == golden["stderr"]
    assert stdout == (GOLDEN / f"{name}.stdout").read_text("utf-8")


pytest_generate_tests = parametrize(test_output_matches_golden, "name,argv", cases())


def check(record: bool) -> list:
    """Run every case; record the goldens, or return the names of the cases
    whose argv, exit code, stdout or stderr differs from them."""
    got = [(name, argv, *run(argv)) for name, argv in cases()]
    if record:
        for name, _, _, stdout, _ in got:
            (GOLDEN / f"{name}.stdout").write_text(stdout, "utf-8")
        write("cases.json", [{"name": name, "argv": argv, "exit": code, "stderr": stderr}
                             for name, argv, code, _, stderr in got], indent=2)
        return []
    want = [(name, c["argv"], c["exit"], (GOLDEN / f"{name}.stdout").read_text("utf-8"),
             c["stderr"]) for name, c in recorded().items()]
    return moved([name for name, *_ in got], got, want)
