"""parse_instance against parse_rational: it reads utilities straight into
integer rows, and must give the instance, and the errors, that reading each
value with parse_rational and building ``Instance`` from them gives. A
matrix that repeats its values and holds only JSON integers and strings is
read through one table of the document's distinct values, each read once;
the tests below hold that path to the same answers and errors."""

import json
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdiv import serialize
from fairdiv.cli import main
from fairdiv.core import Instance
from fairdiv.serialize import MAX_RATIONAL_CHARS, _ratio, parse_instance, parse_rational
from helpers import fraction_matrix

_json_int = st.integers(-10 ** 6, 10 ** 6) | st.sampled_from([0, 10 ** 40, -(10 ** 40)])
_ratio_text = st.tuples(st.integers(-60, 60), st.integers(1, 60)).map(
    lambda t: f"{t[0]}/{t[1]}")  # unreduced and negative
_other_text = st.sampled_from([
    "-0", "0", "0/7", "-0/3", "007", "10/0015", "0.25", "-1.5", ".5", "3.",
    "1e3", "-2.5E-2", "4e+0", " 4 ", "\t-6/4\n", "+5", "+3/9", " +0.125 ",
])
_value = st.one_of(_json_int, _json_int.map(str), _ratio_text, _other_text)
_weight = st.integers(1, 9) | st.integers(1, 9).map(str) | st.sampled_from(["2/3", "0.5", "4/6"])


# a small pool, so that most rows repeat their values; equal values are
# written several ways, and 1 as a JSON integer and as a string
_pooled = st.sampled_from([1, "1", "1/1", "2/2", "-0", "007", " 4 ", "0.5", "1/2"])


@st.composite
def _documents(draw, values=_value, max_items=6):
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, max_items))
    weighted = draw(st.booleans())
    agents = [{"id": f"a{i}", **({"weight": draw(_weight)} if weighted else {})}
              for i in range(n)]
    utilities = [[draw(values) for _ in range(m)] for _ in range(n)]
    return {"agents": agents, "items": [f"o{j}" for j in range(m)], "utilities": utilities}


def _check_against_parse_rational(doc):
    weights = ([parse_rational(a["weight"]) for a in doc["agents"]]
               if "weight" in doc["agents"][0] else None)
    matrix = tuple(tuple(parse_rational(v) for v in row) for row in doc["utilities"])
    expected = Instance(matrix, weights)
    got, _, _ = parse_instance(doc)
    assert got.integer_rows == expected.integer_rows
    assert fraction_matrix(got) == matrix
    assert got.weights == expected.weights
    assert got == expected and hash(got) == hash(expected)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_documents())
def test_parse_instance_matches_instance_of_parse_rational(doc):
    _check_against_parse_rational(doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_documents(values=_pooled, max_items=16))
def test_repeating_rows_match_instance_of_parse_rational(doc):
    _check_against_parse_rational(doc)


@pytest.mark.parametrize("bad", [
    True, 1.0, "1/0", "1_000", "7" * (MAX_RATIONAL_CHARS + 1), 10 ** MAX_RATIONAL_CHARS,
], ids=["true", "float", "zero-denominator", "underscore", "long-string", "long-int"])
def test_parse_instance_rejects_what_parse_rational_rejects(bad):
    with pytest.raises(ValueError) as expected:
        parse_rational(bad)
    doc = {"agents": [{"id": "x"}, {"id": "y"}], "items": ["p", "q"],
           "utilities": [[1, "2/3"], [1, bad]]}
    with pytest.raises(ValueError) as got:
        parse_instance(doc)
    assert str(got.value) == str(expected.value)


def test_parse_instance_builds_no_fraction_per_entry(monkeypatch):
    m = 1000
    doc = {"agents": [{"id": f"a{i}", "weight": str(i + 1)} for i in range(3)],
           "items": [f"o{j}" for j in range(m)],
           "utilities": [[j % 9 - 4 if (i + j) % 2 else f"{j % 7 - 3}/{j % 5 + 1}"
                          for j in range(m)] for i in range(3)]}
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    instance, _, _ = parse_instance(doc)
    assert len(made) < m
    monkeypatch.undo()
    assert fraction_matrix(instance)[0][:3] == (-3, -3, Fraction(-1, 3))
    assert fraction_matrix(instance)[1][:3] == (-4, Fraction(-2, 2), -2)


@pytest.mark.parametrize("bad", [True, 1.0, [1], {}], ids=["true", "float", "list", "object"])
@pytest.mark.parametrize("at", [0, 7, 15])
def test_repeating_row_rejects_what_parse_rational_rejects(bad, at, tmp_path, capsys):
    # bools and floats hash like 1, and lists and objects cannot be hashed:
    # none may be mistaken for a string read before, in any position
    row = [1, "1"] * 8
    row[at] = bad
    doc = {"agents": [{"id": "x"}, {"id": "y"}], "items": [f"o{j}" for j in range(16)],
           "utilities": [[1, "1"] * 8, row]}
    with pytest.raises(ValueError) as expected:
        parse_rational(bad)
    with pytest.raises(ValueError) as got:
        parse_instance(doc)
    assert str(got.value) == str(expected.value)

    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err) == {"error": str(expected.value)}


def test_repeating_row_reports_its_first_bad_entry():
    row = [1, "1"] * 8
    row[3], row[9] = True, "1_0"
    doc = {"agents": [{"id": "x"}], "items": [f"o{j}" for j in range(16)], "utilities": [row]}
    with pytest.raises(ValueError, match="expected a rational string, got True"):
        parse_instance(doc)


@pytest.mark.parametrize("bad", [
    {5: "1/0", 11: "1_0", 13: "x"},
    {15: "1/0", 13: "y", 11: "1_0", 9: "1/0/0", 2: "x"},
    {6: 10 ** MAX_RATIONAL_CHARS, 12: "1/0"},
], ids=["strings", "strings-out-of-order", "long-int-then-string"])
def test_table_row_reports_its_first_bad_value(bad):
    # a row of JSON integers and strings that repeats is read one distinct
    # value at a time, in no fixed order; the error still names the first
    row = [1, "1", "1/2", -3] * 4
    for at, value in bad.items():
        row[at] = value
    with pytest.raises(ValueError) as expected:
        parse_rational(row[min(bad)])
    doc = {"agents": [{"id": "x"}], "items": [f"o{j}" for j in range(16)], "utilities": [row]}
    with pytest.raises(ValueError) as got:
        parse_instance(doc)
    assert str(got.value) == str(expected.value)


def _instance_of_parse_rational(utilities):
    return Instance([[parse_rational(v) for v in row] for row in utilities])


def test_repeating_rows_hold_one_int_per_distinct_value():
    # 50 rows of 400 entries drawn from a few dozen values, written as JSON
    # integers and as strings, large enough that CPython caches none of them
    rng = random.Random(5)
    pool = [v for k in range(1, 13) for v in (10 ** 6 + k, f"{10 ** 6 * k + 1}/{k + 1}")]
    utilities = [[rng.choice(pool) for _ in range(400)] for _ in range(50)]
    doc = {"agents": [{"id": f"a{i}"} for i in range(50)],
           "items": [f"o{j}" for j in range(400)], "utilities": utilities}
    instance, _, _ = parse_instance(doc)
    assert instance == _instance_of_parse_rational(utilities)
    for row, (_, scaled) in zip(utilities, instance.integer_rows):
        assert len({id(v) for v in scaled}) <= len(set(row))


def test_all_distinct_rows_match_instance_of_parse_rational():
    m = 400
    utilities = [[k * 7 + i if k % 2 else f"{k * 7 + i}/{k % 11 + 1}" for k in range(m)]
                 for i in range(3)]
    assert all(len(set(row)) == m for row in utilities)
    doc = {"agents": [{"id": f"a{i}"} for i in range(3)],
           "items": [f"o{j}" for j in range(m)], "utilities": utilities}
    instance, _, _ = parse_instance(doc)
    assert instance.integer_rows == _instance_of_parse_rational(utilities).integer_rows


def test_each_distinct_string_is_read_once_per_document(monkeypatch):
    pool = ["1", "-2", "3/4", "6/8", " 5 ", "0.5"]
    m = 60
    doc = {"agents": [{"id": f"a{i}"} for i in range(4)],
           "items": [f"o{j}" for j in range(m)],
           "utilities": [[pool[(i + j) % len(pool)] if j % 3 else j % 4 for j in range(m)]
                         for i in range(4)]}
    read = []
    real_ratio = serialize._ratio

    def counting_ratio(value):
        if type(value) is str:
            read.append(value)
        return real_ratio(value)

    monkeypatch.setattr(serialize, "_ratio", counting_ratio)
    first, _, _ = parse_instance(doc)
    assert sorted(read) == sorted(pool)
    # a second call keeps nothing from the first: it reads them all again
    second, _, _ = parse_instance(doc)
    assert sorted(read) == sorted(pool * 2)
    assert first == second


_PLAIN = re.compile(r"-?[0-9]+(/[0-9]+)?")


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.text(alphabet="0123456789-+/_ \u0663\u00b2", max_size=8))
@example("--1")
@example("1//2")
@example("-")
@example("/3")
@example("")
@example("+5")
@example("\u0663")  # ARABIC-INDIC DIGIT THREE: Fraction reads it as 3
@example("\u00b2")  # SUPERSCRIPT TWO: isdigit() but not a decimal digit
@example("-0/7")
@example("4/0")
def test_plain_strings_are_read_without_parse_rational(text):
    """_ratio reads exactly the ASCII strings -?[0-9]+(/[0-9]+)? with a
    nonzero denominator itself, and gives parse_rational's value or error
    on every string."""
    with mock.patch.object(serialize, "parse_rational", wraps=parse_rational) as slow:
        try:
            got = _ratio(text)
        except ValueError as exc:
            got = ("error", str(exc))
    try:
        f = parse_rational(text)
        expected = (f.numerator, f.denominator)
    except ValueError as exc:
        expected = ("error", str(exc))
    assert got == expected
    plain = _PLAIN.fullmatch(text)
    assert slow.called == (not plain or plain[1] is not None and int(plain[1][1:]) == 0)


# ---------------------------------------------------------------------------
# the document-wide table: each test's documents take it, or would but for
# the one bad entry the test puts in


def _takes_table(doc) -> bool:
    """Whether parse_instance reads ``doc`` through the table; any error it
    raises propagates."""
    real = serialize._table_rows
    results = []

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    with mock.patch.object(serialize, "_table_rows", spy):
        parse_instance(doc)
    return results not in ([], [None])


def _doc(utilities, weights=None):
    return {"agents": [{"id": f"a{i}", **({"weight": weights[i]} if weights else {})}
                       for i in range(len(utilities))],
            "items": [f"o{j}" for j in range(len(utilities[0]))], "utilities": utilities}


# large enough that CPython caches none of them, so a shared int is visible
_BIG = 10 ** 9


def test_table_reduces_each_row_to_its_own_denominator():
    # the document's lcm is 12; the all-integer row must come out over 1
    # and the row of halves over 2, each with gcd(d, *N) == 1
    ints = [_BIG, str(_BIG), -3, "-3", 0, "0", str(-_BIG), -_BIG] * 3
    twelfths = [f"{_BIG}/12", "-5/12", "1/3", 4, "4", "1/2", "-7/6", -_BIG] * 3
    halves = [f"{_BIG + 1}/2", "1/2", -3, "-3", str(_BIG), "2/4", "0", 0] * 3
    utilities = [ints, twelfths, halves, ints]
    doc = _doc(utilities)
    assert _takes_table(doc)
    instance, _, _ = parse_instance(doc)
    assert [d for d, _ in instance.integer_rows] == [1, 12, 2, 1]
    assert instance.integer_rows == _instance_of_parse_rational(utilities).integer_rows
    for row, (_, scaled) in zip(utilities, instance.integer_rows):
        assert len({id(v) for v in scaled}) <= len(set(row))


@pytest.mark.parametrize("hidden,among", [(True, 1), (False, 0)], ids=["true", "false"])
@pytest.mark.parametrize("at", [(1, 0), (2, 13), (2, 23)])
def test_table_rejects_a_bool_hidden_among_equal_ints(hidden, among, at):
    # True == 1 and False == 0, so a set of the values would keep only one
    # of each pair; the bool must be refused as parse_rational refuses it
    row = [among, str(among), "1/2", -4, "-4", f"{_BIG}/3"] * 4
    utilities = [list(row) for _ in range(3)]
    assert _takes_table(_doc(utilities))
    utilities[at[0]][at[1]] = hidden
    with pytest.raises(ValueError) as expected:
        parse_rational(hidden)
    with pytest.raises(ValueError) as got:
        parse_instance(_doc(utilities))
    assert str(got.value) == str(expected.value)


def test_table_reports_a_bad_entry_before_a_later_ragged_row():
    row = [7, "7", "7/3", -1, "-1", "0"] * 8
    assert _takes_table(_doc([row, row]))
    bad = list(row)
    bad[29] = "1/0"
    with pytest.raises(ValueError, match=re.escape("cannot parse rational '1/0'")):
        parse_instance(_doc([bad, row[:-1]]))
    with pytest.raises(ValueError, match="one entry per item"):
        parse_instance(_doc([row, row[:-1]]))


def test_table_is_skipped_when_the_document_lcm_is_too_long():
    # each row repeats values over its own 401-digit denominator; the three
    # are coprime, so their lcm has more than MAX_RATIONAL_CHARS digits,
    # while each row read apart keeps its own
    utilities = [[f"{k % 5 - 2}/{10 ** 400 + c}" for k in range(20)] for c in (1, 3, 7)]
    assert serialize._table_rows(utilities, 20) is None
    assert serialize._table_rows(utilities[:2], 20) is not None
    instance, _, _ = parse_instance(_doc(utilities))
    assert instance.integer_rows == _instance_of_parse_rational(utilities).integer_rows
    assert [d for d, _ in instance.integer_rows] == [10 ** 400 + c for c in (1, 3, 7)]


_pool = st.sampled_from([1, "1", "1/1", "2/2", -3, "-3", "-6/2", 0, "-0",
                         "5/12", "10/24", "1/2", str(_BIG), _BIG, f"{_BIG}/7", "3/4"])


@st.composite
def _table_documents(draw):
    """2-4 rows of 20-30 entries in which every value appears at least twice,
    JSON integers, integer strings and p/q mixed; weighted or not."""
    n, half = draw(st.integers(2, 4)), draw(st.integers(10, 15))
    utilities = []
    for _ in range(n):
        row = draw(st.lists(_pool, min_size=half, max_size=half)) * 2
        utilities.append(draw(st.permutations(row)))
    weights = draw(st.none() | st.lists(_weight, min_size=n, max_size=n))
    return _doc(utilities, weights)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_table_documents())
def test_table_matches_instance_of_parse_rational(doc):
    assert _takes_table(doc)
    _check_against_parse_rational(doc)
