"""Line coverage of ``src/fairdiv`` by the tier-1 tests, standard library only.

    python3 tests/line_coverage.py [PYTEST_ARGS...]

Runs the tier-1 suite in this process under ``sys.settrace`` and records
every line of ``src/fairdiv`` that runs, module bodies included, since the
tracer is on before pytest imports the package. A line is executable when
its module's compiled code maps an instruction to it (``co_lines``), in any
nested function or class body. Exits 1, listing every executable line left
unrun, when the suite passed but a line was missed; exits with pytest's code
when the suite failed. Lines the in-process run cannot reach are in
``UNREACHABLE_IN_PROCESS``, each with its reason.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fairdiv")

# (module file, stripped source line) pairs excused from the check
UNREACHABLE_IN_PROCESS = {
    # runs only as ``python -m fairdiv.cli``, which the subprocess tests do
    ("cli.py", "sys.exit(main())"),
}


def executable_lines() -> dict:
    """``{path: {line: source}}`` for every executable line of the package
    that is not excused: each line an instruction of the compiled file maps
    to, in any nested code object. Read before the tests run, so that the
    lines match the code the tests import."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        source = text.splitlines()
        lines, stack = set(), [compile(text, path, "exec")]
        while stack:
            code = stack.pop()
            lines.update(line for _, _, line in code.co_lines() if line is not None)
            stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
        found[path] = {line: source[line - 1].strip() for line in sorted(lines)
                       if (name, source[line - 1].strip()) not in UNREACHABLE_IN_PROCESS}
    return found


def run_traced(pytest_args: list) -> tuple:
    """Run pytest in process under the line tracer; return its exit code and
    the lines run per file of the package, keyed by absolute path.

    A function stops being traced once every line of its own code has run,
    checked as it returns, so hot loops cost a line event only until then.
    The first call of each code object records the line it starts on.
    """
    import pytest

    ran = {}
    local = {}  # code object -> its line tracer, or None once not traced

    def line_tracer(code, lines: set):
        own = {line for _, _, line in code.co_lines() if line is not None}

        def trace_line(frame, event, arg):
            lines.add(frame.f_lineno)
            if event == "return" and own <= lines:
                local[code] = None
            return trace_line

        return trace_line

    def trace_call(frame, event, arg):
        code = frame.f_code
        try:
            return local[code]
        except KeyError:
            path = os.path.realpath(code.co_filename)
            if not path.startswith(PACKAGE + os.sep):
                local[code] = None
                return None
            lines = ran.setdefault(path, set())
            lines.add(frame.f_lineno)
            local[code] = line_tracer(code, lines)
            return local[code]

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list) -> int:
    # the package is imported from its absolute path, so that every
    # co_filename names its file whatever directory a test runs in; the
    # subprocess tests find it through PYTHONPATH
    os.chdir(ROOT)
    src = os.path.dirname(PACKAGE)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    wanted = executable_lines()
    code, ran = run_traced(argv)
    if code != 0:
        print(f"line coverage: the tests failed (pytest exit {code})")
        return code
    missed = 0
    for path, lines in wanted.items():
        for line, text in lines.items():
            if line not in ran.get(path, ()):
                print(f"src/fairdiv/{os.path.basename(path)}:{line}: {text}")
                missed += 1
    print(f"line coverage: {missed} executable line(s) of src/fairdiv unrun")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
