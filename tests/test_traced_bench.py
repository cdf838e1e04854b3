"""The traced benchmark run (``bench/run.py --trace 1``) wraps fairdiv
functions by name through ``bench/spans.py``. These tests load that file by
path, so removing or renaming a name it wraps fails here, and check that a
traced CLI call prints its golden output and leaves no wrapper behind."""

import importlib.util
from pathlib import Path

from test_golden import GOLDEN, recorded, run

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
# golden case -> its exit code: a solve, and a verify whose property fails
TRACED_CASES = {"solve-goods_blocks": 0, "verify-goods_blocks_x-no-po": 1}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _places(spans) -> list:
    return [place for _, places, _ in spans._targets() for place in places]


def test_every_traced_name_resolves():
    spans = _load_spans()
    for box, key in _places(spans):
        assert (key in box) if isinstance(box, dict) else hasattr(box, key), key


def test_traced_cli_prints_the_goldens_and_restores_the_program():
    spans = _load_spans()
    originals = [(box, key, spans._get(box, key)) for box, key in _places(spans)]
    golden = recorded()
    tracer = spans.Tracer()
    with tracer.installed():
        for op, (name, exit_code) in enumerate(TRACED_CASES.items()):
            case = golden[name]
            code, out, err = tracer.operation(op, run, case["argv"])
            assert code == case["exit"] == exit_code, name
            assert err == case["stderr"], name
            assert out == (GOLDEN / f"{name}.stdout").read_text("utf-8"), name
    # the solve runs one LP, the 3x31 improvement LP: 93 variables and
    # 34 rows; the verify runs none
    solve_op = list(TRACED_CASES).index("solve-goods_blocks")
    lp_details = [(op, details) for name, *_, op, details in tracer.spans if name == "lp.solve"]
    assert [op for op, _ in lp_details] == [solve_op]
    details = lp_details[0][1]
    assert set(details) == {"vars", "rows", "bits"}
    assert (details["vars"], details["rows"]) == (93, 34)
    # the solve looks for a cycle on the improvement LP's vertex and again
    # before rounding it, so both bindings of core.find_cycle are timed
    cycle_callers = {tracer.spans[parent][0] for name, _, _, parent, op, _ in tracer.spans
                     if name == "core.find_cycle" and op == solve_op}
    assert cycle_callers == {"improve.improve_to_acyclic_fpo", "rounding.round_acyclic"}
    for box, key, original in originals:
        assert spans._get(box, key) is original, key
