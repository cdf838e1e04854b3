"""Tests of the benchmark itself: its output checks must count a wrong
output as failed, its inputs must follow the seed, and tracing must leave
the program as it found it.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import gauge  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from fairdiv import cli, rounding  # noqa: E402
from gauge import Gauge  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def _tiny(tmp_path):
    w = gen.Writer(str(tmp_path))
    doc = {"agents": [{"id": "a", "weight": "2"}, {"id": "b", "weight": "1"}],
           "items": ["x", "y", "z", "q"],
           "utilities": [["4", "-2", "1", "3/2"], ["1", "-6", "5", "-1"]]}
    inst = w.put("inst.json", doc)
    owners = [0, 0, 1, 1]
    alloc = w.put("alloc.json", gen.owner_doc(doc, owners))
    return doc, inst, alloc, owners


def _done(op, stdout, code=0):
    return [(op, run.Run(code, stdout, 0.01), None)]


def test_correct_solve_output_passes_and_a_wrong_one_counts_as_failed(tmp_path):
    _, inst, _, _ = _tiny(tmp_path)
    op = gen.solve_op(inst)
    good = run.run_op(cli.main, op["argv"])
    assert run.tally([(op, good, None)], {}) == 0

    doc = json.loads(good.stdout)
    doc["allocation"]["x"] = "b" if doc["allocation"]["x"] == "a" else "a"
    assert run.tally(_done(op, json.dumps(doc)), {}) == 1


def test_each_solve_property_is_checked(tmp_path):
    _, inst, _, _ = _tiny(tmp_path)
    loaded = check.load_instance(inst)
    good = run.run_op(cli.main, ["solve", inst])
    assert check.check_solve(loaded, good.code, good.stdout) == []

    def broken(edit):
        doc = json.loads(good.stdout)
        edit(doc)
        return check.check_solve(loaded, 0, json.dumps(doc))

    first = loaded.agent_ids[0]
    assert broken(lambda d: d["certificates"]["prop1"][0].update(bundleValue="99"))
    assert broken(lambda d: d["certificates"].update(welfareWeights=["1", "0"]))
    assert broken(lambda d: d["certificates"].update(fpoCertified=False))
    assert broken(lambda d: d["fractionalIntermediate"]["x"].update({first: "1/2"}))
    # a cycle: both agents share both x and z
    assert broken(lambda d: d["fractionalIntermediate"].update(
        x={"a": "1/2", "b": "1/2"}, z={"a": "1/2", "b": "1/2"}))
    assert check.check_solve(loaded, 3, good.stdout)


def test_wrong_verify_verdict_counts_as_failed(tmp_path):
    doc, inst, alloc, owners = _tiny(tmp_path)
    loaded = check.read_instance(doc)
    verdicts = check.prop1_verdicts(loaded, owners)
    expect = {"holds": all(ok for ok, _, _ in verdicts), "agents": check.verdict_doc(verdicts)}
    op = gen.verify_op(inst, alloc, "prop1", expect)
    good = run.run_op(cli.main, op["argv"])
    assert run.tally([(op, good, None)], {}) == 0

    flipped = json.loads(good.stdout)
    flipped["properties"]["prop1"]["holds"] = not expect["holds"]
    assert run.tally(_done(op, json.dumps(flipped), good.code), {}) == 1
    assert run.tally(_done(op, good.stdout, 3), {}) == 1


def test_a_raised_exception_counts_as_failed(tmp_path):
    _, inst, alloc, _ = _tiny(tmp_path)
    op = gen.verify_op(inst, alloc, "po", {"holds": True})
    assert run.tally([(op, run.Run(None, "", 0.01, "RecursionError"), None)], {}) == 1


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    def files(seed, name):
        out = tmp_path / name
        gen.generate("solve-small", seed, str(out))
        return {p: (out / p).read_bytes() for p in os.listdir(out) if p != "manifest.json"}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_po_instances_match_their_construction(tmp_path):
    manifest = gen.generate("verify-large", 1, str(tmp_path))
    po = [op for op in manifest["rounds"][0] if op["check"]["property"] == "po"]
    assert [op["check"]["holds"] for op in po] == [True, False]
    for op in po:
        result = run.run_op(cli.main, op["argv"])
        assert run.problems(op, result, {}) == []


def test_tracer_records_layers_and_restores_the_program(tmp_path):
    _, inst, _, _ = _tiny(tmp_path)
    original = rounding.pareto_improvement_exists
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_op(cli.main, ["solve", inst], tracer, 0)
    assert rounding.pareto_improvement_exists is original
    assert cli.SEARCHABLE["prop1"].__name__ == "weighted_prop1"
    assert traced.stdout == run.run_op(cli.main, ["solve", inst]).stdout

    metrics = layer_metrics(tracer.spans, 1)
    assert metrics["lp.solves"] == (3, "count/op")
    assert metrics["improve.lp_solves"][0] == 1
    assert metrics["lp.solve_s.fpo_check"][0] > 0
    assert 0 < metrics["lp.solve_share"][0] < 1


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) is None
    p, value = run.tail([float(k) for k in range(1, 101)])
    assert (p, value) == (90, 90.0)


def test_slot_times_are_medians_per_slot():
    assert run.slot_times([1.0, 5.0, 2.0, 6.0, 9.0, 7.0], [0, 1, 0, 1, 0, 1]) == [2.0, 6.0]


def test_gauge_scales_to_reference_speed():
    g = Gauge()
    g.readings = [2 * gauge.REFERENCE_S, 2 * gauge.REFERENCE_S, gauge.REFERENCE_S]
    assert g.scale(0) == 0.5  # twice as slow as the reference: halve the time
    assert abs(g.scale(1) - 2 / 3) < 1e-12
    solved = gauge.eliminate(gauge.MATRIX)
    assert all(solved[r][c] == 0 for r in range(gauge.N) for c in range(gauge.N) if r != c)


def test_one_command_prints_the_declared_metrics():
    import subprocess

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "solve-small",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, check=True, timeout=120)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert ({name: m["unit"] for name, m in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in declared[key]})
