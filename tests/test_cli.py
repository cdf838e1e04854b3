import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairdiv import allocate, cli, improve, lp, rounding, serialize, verify
from fairdiv.cli import main
from fairdiv.core import Instance, IntegralAllocation
from fairdiv.serialize import (
    MAX_DECIMAL_EXPONENT,
    MAX_RATIONAL_CHARS,
    parse_allocation,
    parse_instance,
    parse_rational,
    print_allocation,
    print_instance,
    report_doc,
)
from helpers import (
    CHORES_BLOCKS_X,
    CHORES_BLOCKS_Y,
    GOODS_BLOCKS_X,
    GOODS_BLOCKS_Y,
    IDENTICAL_ITEMS_BALANCED,
    chores_blocks_instance,
    fraction_matrix,
    goods_blocks_instance,
    identical_items_instance,
    oracle_pareto_dominates,
    oracle_propx,
    oracle_weighted_prop,
    oracle_weighted_prop1,
)
from test_golden import GOLDEN, recorded
from test_golden import run as run_golden

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


# ---------------------------------------------------------------------------
# serialization round trips


def test_instance_round_trip_random():
    rng = random.Random(11)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(0, 5)
        utilities = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m)]
                     for _ in range(n)]
        weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        inst = Instance(utilities, weights)
        agent_ids = tuple(f"agent-{i}" for i in inst.agents)
        item_ids = tuple(f"item-{o}" for o in inst.items)
        doc = print_instance(inst, agent_ids, item_ids)
        assert doc["utilities"] == [[str(v) for v in row] for row in utilities]
        assert [a["weight"] for a in doc["agents"]] == [str(w / sum(weights)) for w in weights]
        back, back_agents, back_items = parse_instance(json.loads(json.dumps(doc)))
        assert back == inst
        assert back_agents == agent_ids
        assert back_items == item_ids


@pytest.mark.parametrize("build", [
    lambda: Instance([[F(1, 2), F(-2, 3), 3], [F(5, 4), 1, F(-1, 6)]], [F(2, 3), 1]),
    lambda: parse_instance(json.loads(Path(fixture("chores_blocks")).read_text()))[0],
], ids=["constructor", "parse_instance"])
def test_instance_keeps_only_its_rows_and_weights(build):
    inst = build()
    agent_ids = tuple(f"a{i}" for i in inst.agents)
    item_ids = tuple(f"o{o}" for o in inst.items)
    integral = allocate(inst).integral
    print_instance(inst, agent_ids, item_ids)
    for check in (verify.weighted_prop, verify.weighted_prop1, verify.propx,
                  verify.is_pareto_optimal_integral, verify.find_welfare_weights):
        check(inst, integral)
    assert vars(inst).keys() == {"integer_rows", "weights"}


def test_allocation_round_trip_random():
    rng = random.Random(13)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(0, 6)
        owners = tuple(rng.randrange(n) for _ in range(m))
        alloc = IntegralAllocation(n, owners)
        agent_ids = tuple(f"g{i}" for i in range(n))
        item_ids = tuple(f"t{o}" for o in range(m))
        doc = print_allocation(alloc, agent_ids, item_ids)
        assert parse_allocation(doc, agent_ids, item_ids) == alloc
    with pytest.raises(ValueError, match="^id lists do not match the allocation shape$"):
        print_allocation(IntegralAllocation(2, (0, 1)), ("g0", "g1"), ("t0",))


def test_parse_rational_accepts_strings_and_ints():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(7) == F(7)


def test_parse_rational_rejects_floats_and_booleans():
    with pytest.raises(ValueError, match="floating-point"):
        parse_rational(0.25)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("3/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


_digits = st.text("0123456789", max_size=4)  # empty, or with leading zeros
_space = st.sampled_from(["", " ", "\t", "\n", " \n "])
_sign = st.sampled_from(["", "-", "+"])
_exponent = st.tuples(st.sampled_from("eE"), _sign,
                      st.text("0123456789", max_size=3)).map("".join)
_tail = st.one_of(
    st.just(""),
    _digits.map(lambda d: "/" + d),  # "/0" and "/" included
    st.tuples(st.sampled_from(["", "."]), _digits, st.just("") | _exponent).map("".join),
)
_rational_text = st.one_of(
    st.tuples(_space, _sign, _digits, _tail, _space).map("".join),
    st.text("0123456789+-/. ", max_size=8),  # exponents stay in _exponent's range
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_rational_text)
def test_parse_rational_agrees_with_fraction_on_strings(text):
    # Python 3.12 alone also allows spaces around "/"; this grammar does not
    assume(not any(c.isspace() for c in text.strip()))
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert got == expected and type(got) is F


def test_parse_rational_uses_one_grammar_on_every_python():
    # Fraction accepts these on some Python versions and not on others
    for text in ("1_000", "1_0/2", "0.5_0", "1e1_0", "1 / 2", "1/ 2", "1 /2"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_rational(text)


def test_parse_rational_bounds_exponent_without_expanding(monkeypatch):
    def no_string_fractions(*args):
        assert not any(isinstance(a, str) for a in args), "Fraction(str) was called"
        return F(*args)

    monkeypatch.setattr(serialize, "Fraction", no_string_fractions)
    for text in ("1e999999999", "1E-999999999", "2.5e+1001"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)


def test_parse_rational_bounds_length_and_digits():
    assert parse_rational(f"1e{MAX_DECIMAL_EXPONENT}") == 10 ** MAX_DECIMAL_EXPONENT
    assert parse_rational("7" * MAX_RATIONAL_CHARS) == int("7" * MAX_RATIONAL_CHARS)
    with pytest.raises(ValueError, match="longer than"):
        parse_rational("7" * (MAX_RATIONAL_CHARS + 1))
    assert parse_rational(10 ** MAX_RATIONAL_CHARS - 1) == 10 ** MAX_RATIONAL_CHARS - 1
    with pytest.raises(ValueError, match="digits"):
        parse_rational(-10 ** MAX_RATIONAL_CHARS)


def test_huge_exponent_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"agents": [{"id": "x"}], "items": ["p"],
                                "utilities": [["1e999999999"]]}))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out is None
    assert "exponent" in json.loads(err)["error"]


def test_parse_instance_defaults_to_equal_weights():
    doc = {
        "agents": [{"id": "x"}, {"id": "y"}],
        "items": ["p"],
        "utilities": [["1"], ["2"]],
    }
    inst, _, _ = parse_instance(doc)
    assert inst.weights == (F(1, 2), F(1, 2))


def test_parse_instance_rejects_partial_weights():
    doc = {
        "agents": [{"id": "x", "weight": "1/2"}, {"id": "y"}],
        "items": [],
        "utilities": [[], []],
    }
    with pytest.raises(ValueError, match="weight"):
        parse_instance(doc)


def test_parse_instance_rejects_duplicate_ids():
    doc = {"agents": [{"id": "x"}, {"id": "x"}], "items": [],
           "utilities": [[], []]}
    with pytest.raises(ValueError, match="unique"):
        parse_instance(doc)
    doc = {"agents": [{"id": "x"}], "items": ["p", "p"], "utilities": [["1", "1"]]}
    with pytest.raises(ValueError, match="unique"):
        parse_instance(doc)
    doc = {"agents": [{"id": "x"}], "items": [1], "utilities": [["1"]]}
    with pytest.raises(ValueError, match="^items must be a list of string ids$"):
        parse_instance(doc)


def test_parse_instance_rejects_ragged_utilities():
    doc = {"agents": [{"id": "x"}, {"id": "y"}], "items": ["p", "q"],
           "utilities": [["1", "2"], ["3"]]}
    with pytest.raises(ValueError):
        parse_instance(doc)


def test_parse_allocation_rejects_unknown_and_missing_ids():
    agent_ids, item_ids = ("x", "y"), ("p", "q")
    with pytest.raises(ValueError, match="unknown item"):
        parse_allocation({"owner": {"zzz": "x"}}, agent_ids, item_ids)
    with pytest.raises(ValueError, match="unknown agent"):
        parse_allocation({"owner": {"p": "zzz", "q": "x"}}, agent_ids, item_ids)
    with pytest.raises(ValueError, match="no owner"):
        parse_allocation({"owner": {"p": "x"}}, agent_ids, item_ids)
    # several faults in one document: the message names the first pair at
    # fault in document order, and unassigned items only when no pair is
    item_ids = ("p", "q", "r")
    unknown_item, unknown_agent = "unknown item id 'zz'", "unknown agent id 'w'"
    for owner, message in [
        ({"q": 3, "zz": "x", "p": "w"}, "owner of item 'q' must be an agent id string, got 3"),
        ({"zz": "x", "q": 3, "p": "w"}, unknown_item),
        ({"p": "w", "zz": "x", "q": 3}, unknown_agent),
        ({"p": "w", "q": "x"}, unknown_agent),
        ({"q": True, "p": "w"}, "owner of item 'q' must be an agent id string, got True"),
        ({"p": "x", "q": None, "r": "y"}, "owner of item 'q' must be an agent id string, "
                                           "got None"),
        ({"r": ["y"], "p": "x", "q": "x"}, "owner of item 'r' must be an agent id string, "
                                            "got ['y']"),
        # every item once, but one owner unknown: the fast read must step aside
        ({"p": "x", "q": "w", "r": "y"}, unknown_agent),
        # as many pairs as items, one of them foreign
        ({"p": "x", "zz": "y", "r": "y"}, unknown_item),
        ({"p": "x", "q": "y", "r": "y", "zz": "x"}, unknown_item),
        ({"r": "x", "p": "y"}, "allocation assigns no owner to ['q']"),
        ({}, "allocation assigns no owner to ['p', 'q', 'r']"),
    ]:
        with pytest.raises(ValueError) as exc:
            parse_allocation({"owner": owner}, agent_ids, item_ids)
        assert str(exc.value) == message, owner
    # an id list that repeats an item leaves one of its places unassigned
    with pytest.raises(ValueError) as exc:
        parse_allocation({"owner": {"p": "x", "q": "y"}}, agent_ids, ("p", "p", "q"))
    assert str(exc.value) == "allocation assigns no owner to ['p']"
    got = parse_allocation({"owner": {"r": "y", "p": "x", "q": "y"}}, agent_ids, item_ids)
    assert got == IntegralAllocation(2, (0, 1, 1))


def test_verify_rejects_non_string_owner(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"agents": [{"id": "a"}], "items": ["p"],
                                "utilities": [["1"]]}))
    for owner in (["a"], {"id": "a"}, 0, None):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"owner": {"p": owner}}))
        code, out, err = run_cli(capsys, "verify", str(inst), str(alloc))
        assert code == 2
        assert out is None
        assert "agent id string" in json.loads(err)["error"]


def test_canonical_literals_match_their_fixtures():
    # tests/helpers.py writes the canonical instances and allocations as
    # literals; fixtures/ holds them as files. Every fixture is one of them.
    literals = {
        "goods_blocks": (goods_blocks_instance(), {"x": GOODS_BLOCKS_X, "y": GOODS_BLOCKS_Y}),
        "chores_blocks": (chores_blocks_instance(),
                          {"x": CHORES_BLOCKS_X, "y": CHORES_BLOCKS_Y}),
        "identical_items": (identical_items_instance(),
                            {"balanced": IDENTICAL_ITEMS_BALANCED}),
    }
    names = {f"{name}_{suffix}" for name, (_, allocs) in literals.items() for suffix in allocs}
    assert {p.stem for p in FIXTURES.glob("*.json")} == names | literals.keys()
    for name, (instance, allocations) in literals.items():
        got, agent_ids, item_ids = parse_instance(json.loads(Path(fixture(name)).read_text()))
        assert got == instance, name
        for suffix, allocation in allocations.items():
            doc = json.loads(Path(fixture(f"{name}_{suffix}")).read_text())
            assert parse_allocation(doc, agent_ids, item_ids) == allocation, suffix


# ---------------------------------------------------------------------------
# solve


def test_solve_goods_fixture_re_verifies(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "solve", fixture("goods_blocks"))
    assert code == 0
    assert out["certificates"]["fpoCertified"] is True
    assert all(w["satisfied"] for w in out["certificates"]["prop1"])
    alloc_path = tmp_path / "solved.json"
    alloc_path.write_text(json.dumps({"owner": out["allocation"]}))
    code, report, _ = run_cli(capsys, "verify", fixture("goods_blocks"),
                              str(alloc_path), "--property", "prop1,fpo")
    assert code == 0
    assert report["allHold"] is True


def test_solve_is_deterministic(capsys):
    code1 = main(["solve", fixture("chores_blocks")])
    first = capsys.readouterr().out
    code2 = main(["solve", fixture("chores_blocks")])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_solve_strategy_flags(capsys):
    """The removed rounding flags are usage errors, like a missing
    positional or a bad int: each exits 2 with one JSON line on stderr."""
    for argv in (["solve", fixture("chores_blocks"), "--strategy-order", "bfs"],
                 ["solve", fixture("chores_blocks"), "--root-rule", "one-item"],
                 ["solve"],
                 ["gen", "--agents", "x", "--items", "3"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert list(json.loads(lines[0])) == ["error"]


def test_solve_empty_items(capsys, tmp_path):
    doc = {"agents": [{"id": "x"}, {"id": "y"}], "items": [],
           "utilities": [[], []]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert out["allocation"] == {}
    assert out["fractionalIntermediate"] == {}
    assert all(w["satisfied"] for w in out["certificates"]["prop1"])


def test_solve_rejects_nonpositive_weight(capsys, tmp_path):
    doc = {"agents": [{"id": "x", "weight": "0"}, {"id": "y", "weight": "1"}],
           "items": ["p"], "utilities": [["1"], ["1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "error" in json.loads(err)


def test_solve_rejects_float_utilities(capsys, tmp_path):
    doc = {"agents": [{"id": "x"}], "items": ["p"], "utilities": [[0.5]]}
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "floating-point" in json.loads(err)["error"]


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "absent.json"))
    assert code == 2
    assert err


def test_malformed_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "not valid JSON" in json.loads(err)["error"]


def test_duplicate_json_keys_are_an_input_error(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"agents": [{"id": "x"}], "items": ["p"], '
                    '"utilities": [["1"]], "items": ["q"]}')
    code, out, err = run_cli(capsys, "solve", str(inst))
    assert code == 2 and out is None
    assert "duplicate key 'items'" in json.loads(err)["error"]

    inst.write_text(json.dumps({"agents": [{"id": "x"}, {"id": "y"}], "items": ["p"],
                                "utilities": [["1"], ["2"]]}))
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"owner": {"p": "x", "p": "y"}}')
    code, out, err = run_cli(capsys, "verify", str(inst), str(alloc))
    assert code == 2 and out is None
    assert "duplicate key 'p'" in json.loads(err)["error"]


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    # json's decoder recurses once per level and raises RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (["solve", str(deep)], ["verify", fixture("goods_blocks"), str(deep)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]
        message = json.loads(lines[0])["error"]
        assert message.startswith(f"{deep} is not valid JSON: ")
        assert "internal error" not in message


_LONG_LIST = list(range(100_000))
_LONG_ID = "o" * 200_000
_ONE_CELL = {"agents": [{"id": "a"}], "items": ["p"], "utilities": [["1"]]}


@pytest.mark.parametrize("instance,allocation", [
    # a utility cell holding a long list
    ({"agents": [{"id": "a"}], "items": ["p"], "utilities": [[_LONG_LIST]]}, None),
    # an owner that is a long list
    (_ONE_CELL, json.dumps({"owner": {"p": _LONG_LIST}})),
    # an unknown item id of 200,000 characters
    (_ONE_CELL, json.dumps({"owner": {_LONG_ID: "a"}})),
    # a long key repeated
    (_ONE_CELL, f'{{"owner": {{"p": "a"}}, "{_LONG_ID}": 1, "{_LONG_ID}": 2}}'),
    # thousands of items left without an owner
    ({"agents": [{"id": "a"}], "items": [f"o{j}" for j in range(20_000)],
      "utilities": [["1"] * 20_000]}, '{"owner": {}}'),
], ids=["long-cell", "long-owner", "long-item-id", "long-duplicate-key", "many-unassigned"])
def test_error_lines_stay_short_whatever_the_input(capsys, tmp_path, instance, allocation):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    argv = ["solve", str(inst)]
    if allocation is not None:
        alloc = tmp_path / "alloc.json"
        alloc.write_text(allocation)
        argv = ["verify", str(inst), str(alloc)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]
    assert len(captured.err.encode()) < 1024


def test_verify_goldens_run_no_simplex(monkeypatch):
    # every binding of lp.solve, verify's included, runs through _run_simplex
    def no_simplex(*args):
        raise AssertionError("verify ran the simplex")

    monkeypatch.setattr(lp, "_run_simplex", no_simplex)
    cases = [c for c in recorded().values() if c["argv"][0] == "verify"]
    assert any("fpo" in c["argv"][-1] for c in cases)
    for case in cases:
        code, stdout, _ = run_golden(case["argv"])
        assert code == case["exit"], case["name"]
        assert stdout == (GOLDEN / f"{case['name']}.stdout").read_text("utf-8"), case["name"]


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "parse_instance", broken)
    code, out, err = run_cli(capsys, "solve", fixture("goods_blocks"))
    assert code == 3 and out is None
    message = json.loads(err)["error"]
    assert message.startswith("internal error at test_cli.py:")
    assert message.endswith("TypeError: unsupported operand")
    assert "Traceback" not in err


def test_invariant_violation_is_an_internal_error(capsys, monkeypatch):
    # a solve whose output fails its own PROP1 recheck exits 3 with the
    # invariant's message, not the unexpected-exception one
    def failing(instance, allocation):
        report = verify.weighted_prop1(instance, allocation)
        return verify.PropertyReport(report.name, False, report.witnesses)

    monkeypatch.setattr(rounding, "weighted_prop1", failing)
    code, out, err = run_cli(capsys, "solve", fixture("goods_blocks"))
    assert (code, out) == (3, None)
    assert err == json.dumps({"error": "pipeline output violates weighted PROP1"}) + "\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_goods_y_fails_prop1(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture("goods_blocks"),
                           fixture("goods_blocks_y"), "--property", "prop1")
    assert code == 1
    report = out["properties"]["prop1"]
    assert report["holds"] is False
    failing = [w for w in report["witnesses"] if not w["satisfied"]]
    assert [w["agent"] for w in failing] == ["1"]
    assert failing[0]["adjustedValue"] == "13/40"
    assert failing[0]["bound"] == "1/3"


def test_verify_chores_y_fails_prop1(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture("chores_blocks"),
                           fixture("chores_blocks_y"), "--property", "prop1")
    assert code == 1
    failing = [w for w in out["properties"]["prop1"]["witnesses"]
               if not w["satisfied"]]
    assert [w["agent"] for w in failing] == ["1"]
    assert failing[0]["rule"] == "remove-item"
    assert failing[0]["adjustedValue"] == "-9/25"


def test_verify_goods_x_passes_prop1(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture("goods_blocks"),
                           fixture("goods_blocks_x"), "--property", "prop1")
    assert code == 0
    assert out["allHold"] is True


def test_verify_dominates(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture("goods_blocks"),
                           fixture("goods_blocks_y"), "--property", "dominates",
                           "--against", fixture("goods_blocks_x"))
    assert code == 0
    assert out["properties"]["dominates"]["holds"] is True
    code, out, _ = run_cli(capsys, "verify", fixture("goods_blocks"),
                           fixture("goods_blocks_x"), "--property", "dominates",
                           "--against", fixture("goods_blocks_y"))
    assert code == 1


def test_verify_dominates_requires_against(capsys):
    code, _, err = run_cli(capsys, "verify", fixture("goods_blocks"),
                           fixture("goods_blocks_x"), "--property", "dominates")
    assert code == 2
    assert "--against" in json.loads(err)["error"]


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    code, _, _ = run_cli(capsys, "verify", fixture("goods_blocks"), fixture("goods_blocks_y"),
                         "--property", "dominates", "--against", fixture("goods_blocks_x"))
    assert code == 0
    code, out, err = run_cli(capsys, "verify", fixture("goods_blocks"),
                             fixture("goods_blocks_y"), "--property", "dominates")
    assert code == 2 and out is None
    assert "needs --against" in json.loads(err)["error"]


def test_verify_po_on_identical_items(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture("identical_items"),
                           fixture("identical_items_balanced"), "--property",
                           "prop1,po,fpo")
    assert code == 0
    assert out["properties"]["po"]["holds"] is True


def _zero_instance_files(tmp_path, n: int, m: int) -> tuple:
    """An n x m instance of zeros and an allocation of every item to a0."""
    agents, items = [f"a{i}" for i in range(n)], [f"o{j}" for j in range(m)]
    inst, alloc = tmp_path / "zeros.json", tmp_path / "zeros-alloc.json"
    inst.write_text(json.dumps({"agents": [{"id": a} for a in agents], "items": items,
                                "utilities": [["0"] * m for _ in agents]}))
    alloc.write_text(json.dumps({"owner": dict.fromkeys(items, "a0")}))
    return str(inst), str(alloc)


# 50**4000 has 6,796 digits, more than an interpreter prints in an int by
# default, so the cap message names the count instead of printing it
_UNPRINTABLE_CAP_ERROR = json.dumps({"error": "50**4000 allocations exceed cap 10000000"})


def test_verify_po_cap_exceeded(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", fixture("identical_items"),
                           fixture("identical_items_balanced"),
                           "--property", "po", "--cap", "10")
    assert code == 2
    assert err
    inst, alloc = _zero_instance_files(tmp_path, 50, 4000)
    code = main(["verify", inst, alloc, "--property", "prop,po"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [_UNPRINTABLE_CAP_ERROR]


def test_verify_po_cap_is_checked_before_any_property_runs(capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("a property ran although the po cap is exceeded")

    for name in cli.SEARCHABLE:
        monkeypatch.setitem(cli.SEARCHABLE, name, must_not_run)
    monkeypatch.setattr(cli.verify, "pareto_improvement_exists", must_not_run)
    code, out, err = run_cli(capsys, "verify", fixture("goods_blocks"), fixture("goods_blocks_x"),
                             "--property", "prop,prop1,propx,fpo,po")
    assert code == 2
    assert out is None
    assert json.loads(err) == {"error": "3**31 = 617673396283947 allocations exceed cap 10000000"}


def test_verify_po_on_thousands_of_items(capsys, tmp_path):
    m = 3000
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"agents": [{"id": "a"}],
                                "items": [f"o{j}" for j in range(m)],
                                "utilities": [[str(j % 7 - 3) for j in range(m)]]}))
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"owner": {f"o{j}": "a" for j in range(m)}}))
    code, out, _ = run_cli(capsys, "verify", str(inst), str(alloc), "--property", "po")
    assert code == 0
    assert out == {"properties": {"po": {"holds": True}}, "allHold": True}


def test_verify_50x4000_matches_the_oracles(capsys, tmp_path):
    # Item j goes to an argmax of (i + 1) * u_i(j), so the low-index agents
    # fall short and need the add-item scan, and the weights lambda_i = i + 1
    # certify fpo whatever the checker does.
    _, doc, _ = run_cli(capsys, "gen", "--agents", "50", "--items", "4000", "--seed", "3")
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps(doc))
    agent_ids, item_ids = [a["id"] for a in doc["agents"]], doc["items"]
    u = [[int(v) for v in row] for row in doc["utilities"]]  # gen writes integers
    instance = Instance(u, [F(a["weight"]) for a in doc["agents"]])

    def allocation_file(name, owners):
        path = tmp_path / name
        path.write_text(json.dumps({"owner": {o: agent_ids[i] for o, i in zip(item_ids, owners)}}))
        return str(path)

    owners = [max(range(50), key=lambda i: (i + 1) * u[i][j]) for j in range(4000)]
    alloc = allocation_file("alloc.json", owners)
    code, out, _ = run_cli(capsys, "verify", str(inst), alloc,
                           "--property", "prop,prop1,propx,fpo")
    allocation = IntegralAllocation(50, tuple(owners))
    oracles = {"prop": oracle_weighted_prop, "prop1": oracle_weighted_prop1,
               "propx": oracle_propx}
    for name, oracle in oracles.items():
        want = report_doc(oracle(instance, allocation), agent_ids, item_ids)
        assert out["properties"][name] == want, name
    assert out["properties"]["fpo"] == {"holds": True}
    assert out["allHold"] == all(p["holds"] for p in out["properties"].values())
    assert code == (0 if out["allHold"] else 1)

    # dominates, both ways, against a copy in which each of the first 40
    # items that the next agent does not value moves there from an owner
    # that does
    moved, count = list(owners), 0
    for j, a in enumerate(owners):
        b = (a + 1) % 50
        if count < 40 and u[a][j] > 0 >= u[b][j]:
            moved[j], count = b, count + 1
    assert count == 40
    files = [(allocation, alloc),
             (IntegralAllocation(50, tuple(moved)), allocation_file("moved.json", moved))]
    for (better, better_file), (worse, worse_file) in (files, files[::-1]):
        code, out, err = run_cli(capsys, "verify", str(inst), better_file,
                                 "--property", "dominates", "--against", worse_file)
        want = oracle_pareto_dominates(instance, better, worse)
        assert out == {"properties": {"dominates": {"holds": want}}, "allHold": want}
        assert (code, err) == (0 if want else 1, "")


def test_verify_unknown_property(capsys):
    code, _, err = run_cli(capsys, "verify", fixture("goods_blocks"),
                           fixture("goods_blocks_x"), "--property", "ef1")
    assert code == 2
    assert "unknown property" in json.loads(err)["error"]
    code, _, err = run_cli(capsys, "verify", fixture("goods_blocks"),
                           fixture("goods_blocks_x"), "--property", ",")
    assert code == 2
    assert json.loads(err) == {"error": "no properties requested"}


# ---------------------------------------------------------------------------
# gen


def test_gen_is_deterministic(capsys):
    main(["gen", "--agents", "3", "--items", "5", "--seed", "42"])
    first = capsys.readouterr().out
    main(["gen", "--agents", "3", "--items", "5", "--seed", "42"])
    second = capsys.readouterr().out
    assert first == second
    inst, agent_ids, item_ids = parse_instance(json.loads(first))
    assert inst.num_agents == 3 and inst.num_items == 5
    assert agent_ids == ("a1", "a2", "a3")
    assert item_ids == ("o1", "o2", "o3", "o4", "o5")


def test_gen_seed_changes_output(capsys):
    main(["gen", "--agents", "3", "--items", "5", "--seed", "1"])
    first = capsys.readouterr().out
    main(["gen", "--agents", "3", "--items", "5", "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_gen_respects_utility_range(capsys):
    code, doc, _ = run_cli(capsys, "gen", "--agents", "2", "--items", "8",
                           "--lo", "1", "--hi", "5", "--seed", "3")
    assert code == 0
    inst, _, _ = parse_instance(doc)
    assert all(1 <= v <= 5 for row in fraction_matrix(inst) for v in row)
    code, doc, _ = run_cli(capsys, "gen", "--agents", "2", "--items", "8",
                           "--lo", "-5", "--hi", "-1", "--seed", "3")
    inst, _, _ = parse_instance(doc)
    assert all(-5 <= v <= -1 for row in fraction_matrix(inst) for v in row)


def test_gen_random_weights_are_positive_and_normalized(capsys):
    code, doc, _ = run_cli(capsys, "gen", "--agents", "4", "--items", "2",
                           "--weight-mode", "random-positive-normalized",
                           "--seed", "9")
    assert code == 0
    inst, _, _ = parse_instance(doc)
    assert all(w > 0 for w in inst.weights)
    assert sum(inst.weights) == 1


def test_gen_rejects_bad_parameters(capsys):
    assert run_cli(capsys, "gen", "--agents", "0", "--items", "2")[0] == 2
    assert run_cli(capsys, "gen", "--agents", "2", "--items", "-1")[0] == 2
    assert run_cli(capsys, "gen", "--agents", "2", "--items", "2",
                   "--lo", "3", "--hi", "1")[0] == 2


def test_gen_refuses_an_instance_over_the_cell_limit_before_drawing(capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("gen draws although the instance exceeds the limit")

    monkeypatch.setattr(cli.random, "Random", must_not_run)
    code = main(["gen", "--agents", "100000", "--items", "100000"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [json.dumps(
        {"error": "a 100000x100000 instance needs 10000000000 cells, over the limit 1000000"})]


def test_gen_cell_limit_admits_exactly_its_cells(capsys, monkeypatch):
    argv = ["gen", "--agents", "3", "--items", "4", "--seed", "5"]
    assert main(argv) == 0
    accepted = capsys.readouterr().out
    monkeypatch.setattr(cli, "MAX_GEN_CELLS", 12)
    assert main(argv) == 0
    assert capsys.readouterr().out == accepted
    monkeypatch.setattr(cli, "MAX_GEN_CELLS", 11)
    assert run_cli(capsys, *argv) == (
        2, None, json.dumps({"error": "a 3x4 instance needs 12 cells, over the limit 11"}) + "\n")
    # an agent row costs a cell even with no items
    assert run_cli(capsys, "gen", "--agents", "12", "--items", "0") == (
        2, None, json.dumps({"error": "a 12x0 instance needs 12 cells, over the limit 11"}) + "\n")


def test_gen_refuses_a_bound_its_reader_would_refuse_before_drawing(capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("gen draws although a bound is over the reader's limit")

    monkeypatch.setattr(cli.random, "Random", must_not_run)
    for argv, flag, shown, length in (
            (["--hi", "9" * 2000], "--hi", "9" * 18 + "..." + "9" * 19, 2000),
            (["--lo", str(-10 ** 999)], "--lo", "-1" + "0" * 16 + "..." + "0" * 19, 1001)):
        code = main(["gen", "--agents", "2", "--items", "2", *argv, "--seed", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines() == [json.dumps({"error": (
            f"{flag} {shown} is {length} characters long, over the limit 1000")})]


def test_gen_extreme_accepted_bounds_round_trip(capsys, tmp_path):
    # the longest --hi and --lo whose values print within MAX_RATIONAL_CHARS:
    # the reader takes them back, and solve accepts the instance
    hi, lo = 10 ** MAX_RATIONAL_CHARS - 1, -(10 ** (MAX_RATIONAL_CHARS - 1) - 1)
    path = tmp_path / "instance.json"
    for bounds in ((hi, hi), (lo, lo), (lo, hi)):
        code, doc, _ = run_cli(capsys, "gen", "--agents", "2", "--items", "3", "--lo",
                               str(bounds[0]), "--hi", str(bounds[1]), "--seed", "4")
        assert code == 0
        assert max(len(v) for row in doc["utilities"] for v in row) <= MAX_RATIONAL_CHARS
        inst, _, _ = parse_instance(doc)
        assert all(bounds[0] <= v <= bounds[1] for row in fraction_matrix(inst) for v in row)
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "solve", str(path))[0] == 0


def test_gen_solve_pipeline(capsys, tmp_path):
    # gen, solve, and verify of the solved allocation, fpo included
    inst, alloc = tmp_path / "generated.json", tmp_path / "solved.json"
    for gen in (["--agents", "3", "--items", "4",
                 "--weight-mode", "random-positive-normalized", "--seed", "17"],
                ["--agents", "12", "--items", "60", "--seed", "1"]):
        _, doc, _ = run_cli(capsys, "gen", *gen)
        inst.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "solve", str(inst))
        assert code == 0
        assert set(out["allocation"]) == set(doc["items"])
        alloc.write_text(json.dumps({"owner": out["allocation"]}))
        code, out, _ = run_cli(capsys, "verify", str(inst), str(alloc),
                               "--property", "prop1,fpo")
        assert (code, out["allHold"]) == (0, True)


def test_solve_refuses_an_lp_over_the_tableau_limit(capsys, monkeypatch, tmp_path):
    def must_not_run(*args):
        raise AssertionError("the improvement LP is built although it exceeds the limit")

    monkeypatch.setattr(improve, "proportional_seed", must_not_run)
    inst, _ = _zero_instance_files(tmp_path, 50, 4000)
    code = main(["solve", inst])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [json.dumps(
        {"error": "a 50x4000 instance needs 826609050 LP tableau cells, over the limit 10000000"})]


def test_solve_checks_the_tableau_limit_before_the_argmax_shortcut(capsys, tmp_path):
    # The argmax answers this instance without an LP, but what solve
    # accepts depends on n and m alone: (2 + 2300) * (4600 + 4 + 2300 + 1) cells.
    rows = [[(j + i + 1) % 2 for j in range(2300)] for i in range(2)]
    assert improve._argmax_owners(Instance(rows)) is not None
    path = tmp_path / "hit.json"
    path.write_text(json.dumps({"agents": [{"id": "a0"}, {"id": "a1"}],
                                "items": [f"o{j}" for j in range(2300)],
                                "utilities": rows}))
    assert run_cli(capsys, "solve", str(path)) == (2, None, json.dumps(
        {"error": "a 2x2300 instance needs 15895310 LP tableau cells, "
                  "over the limit 10000000"}) + "\n")


def test_solve_tableau_limit_admits_exactly_its_cells(monkeypatch):
    # identical_items has 3 agents and 5 items: (3 + 5) * (15 + 6 + 5 + 1) cells
    argv = ["solve", "fixtures/identical_items.json"]
    monkeypatch.setattr(improve, "MAX_TABLEAU_CELLS", 216)
    golden = (GOLDEN / "solve-identical_items.stdout").read_text("utf-8")
    assert run_golden(argv) == (0, golden, "")
    monkeypatch.setattr(improve, "MAX_TABLEAU_CELLS", 215)
    error = {"error": "a 3x5 instance needs 216 LP tableau cells, over the limit 215"}
    assert run_golden(argv) == (2, "", json.dumps(error) + "\n")


# ---------------------------------------------------------------------------
# search


def test_search_identical_items_propx_empty(capsys):
    code, out, _ = run_cli(capsys, "search", fixture("identical_items"),
                           "--property", "propx")
    assert code == 1
    assert out["count"] == 0
    assert out["searched"] == 243
    assert out["witness"] is None


def test_search_identical_items_prop1_nonempty(capsys):
    code, out, _ = run_cli(capsys, "search", fixture("identical_items"),
                           "--property", "prop1")
    assert code == 0
    assert out["count"] > 0
    assert set(out["witness"]) == {"a", "b", "c", "d", "e"}


def test_search_single_agent_counts_the_only_allocation(capsys, tmp_path):
    doc = {"agents": [{"id": "solo"}], "items": ["p", "q"],
           "utilities": [["2", "-1"]]}
    path = tmp_path / "solo.json"
    path.write_text(json.dumps(doc))
    for prop in ("prop1", "propx"):
        code, out, _ = run_cli(capsys, "search", str(path), "--property", prop)
        assert code == 0
        assert out["count"] == 1


def test_search_cap_exceeded(capsys, tmp_path):
    code, _, err = run_cli(capsys, "search", fixture("identical_items"),
                           "--property", "prop1", "--cap", "100")
    assert code == 2
    assert err
    inst, _ = _zero_instance_files(tmp_path, 50, 4000)
    code = main(["search", inst, "--property", "prop1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [_UNPRINTABLE_CAP_ERROR]


# ---------------------------------------------------------------------------
# console entry point


@pytest.mark.parametrize("argv", [
    ["gen", "--agents", "2", "--items", "3", "--seed", "5"],
    ["solve", "fixtures/chores_blocks.json", "--root-rule", "one-item"],
], ids=["gen", "usage-error"])
def test_module_entry_point_runs(argv):
    # a fresh interpreter: exit 0 with a document, or exit 2 with nothing
    # on stdout and one {"error": ...} line on stderr
    proc = subprocess.run([sys.executable, "-m", "fairdiv.cli", *argv],
                          capture_output=True, text=True, cwd=FIXTURES.parent)
    if argv[0] == "gen":
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert [a["id"] for a in doc["agents"]] == ["a1", "a2"]
    else:
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"], lines


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # a cold start pays for every module imported; -S keeps site-packages
    # out, since a .pth file there may import typing itself
    src = FIXTURES.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fairdiv.cli; "
            "print(fairdiv.cli.__file__); "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [str(src / "fairdiv" / "cli.py"), "[]"]


@pytest.mark.parametrize("name", recorded())
def test_module_entry_point_prints_the_goldens(name):
    # every golden case, verify's exits 1 and 2 included, in its own
    # interpreter: stdout, stderr and exit code
    golden = recorded()[name]
    proc = subprocess.run([sys.executable, "-m", "fairdiv.cli", *golden["argv"]],
                          capture_output=True, encoding="utf-8", cwd=FIXTURES.parent)
    want = (golden["exit"], golden["stderr"], (GOLDEN / f"{name}.stdout").read_text("utf-8"))
    assert (proc.returncode, proc.stderr, proc.stdout) == want


def test_workflow_runs_no_inline_scripts():
    # a check in a workflow script runs only in CI; tier-1 runs everywhere.
    # A plain-text scan, since CI installs no YAML parser.
    workflow = FIXTURES.parent / ".github" / "workflows" / "tier1.yml"
    assert "<<" not in workflow.read_text("utf-8")


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # every warning is an error here, and hypothesis' report hook must not
    # turn a falsifying example into an INTERNALERROR that hides it
    (tmp_path / "test_drawn.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_passes():\n"
        "    pass\n", "utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(FIXTURES.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_drawn.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output


# ---------------------------------------------------------------------------
# README examples


README = FIXTURES.parent / "README.md"


def _readme_block(after: str, lang: str) -> str:
    """The first ``lang`` code block in README.md after the text ``after``."""
    text = README.read_text("utf-8")
    start = text.index(f"```{lang}\n", text.index(after)) + len(lang) + 4
    return text[start:text.index("```", start)]


def test_readme_examples_give_the_outputs_shown(capsys, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(_readme_block("With `instance.json` as", "json"))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, err) == (0, "")
    assert out == json.loads(_readme_block("the output is", "json"))

    # each commented line of the library snippet shows the value of its code
    snippet = _readme_block("## Library", "python")
    namespace = {}
    exec(snippet, namespace)
    shown = [line.split("#") for line in snippet.splitlines() if "#" in line]
    assert [value.strip() for _, value in shown] == [
        "((0, 1), (2,))", "(Fraction(1, 1), Fraction(1, 1))", "True"]
    for code_text, value in shown:
        assert eval(code_text, namespace) == eval(value, {"Fraction": Fraction})
