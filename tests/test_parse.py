"""parse_instance against parse_rational: it reads utilities straight into
integer rows, and must give the instance, and the errors, that reading each
value with parse_rational and building ``Instance`` from them gives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv.core import Instance
from fairdiv.serialize import MAX_RATIONAL_CHARS, parse_instance, parse_rational

_json_int = st.integers(-10 ** 6, 10 ** 6) | st.sampled_from([0, 10 ** 40, -(10 ** 40)])
_ratio_text = st.tuples(st.integers(-60, 60), st.integers(1, 60)).map(
    lambda t: f"{t[0]}/{t[1]}")  # unreduced and negative
_other_text = st.sampled_from([
    "-0", "0", "0/7", "-0/3", "007", "10/0015", "0.25", "-1.5", ".5", "3.",
    "1e3", "-2.5E-2", "4e+0", " 4 ", "\t-6/4\n", "+5", "+3/9", " +0.125 ",
])
_value = st.one_of(_json_int, _json_int.map(str), _ratio_text, _other_text)
_weight = st.integers(1, 9) | st.integers(1, 9).map(str) | st.sampled_from(["2/3", "0.5", "4/6"])


@st.composite
def _documents(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    weighted = draw(st.booleans())
    agents = [{"id": f"a{i}", **({"weight": draw(_weight)} if weighted else {})}
              for i in range(n)]
    utilities = [[draw(_value) for _ in range(m)] for _ in range(n)]
    return {"agents": agents, "items": [f"o{j}" for j in range(m)], "utilities": utilities}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_documents())
def test_parse_instance_matches_instance_of_parse_rational(doc):
    weights = ([parse_rational(a["weight"]) for a in doc["agents"]]
               if "weight" in doc["agents"][0] else None)
    expected = Instance([[parse_rational(v) for v in row] for row in doc["utilities"]],
                        weights)
    got, _, _ = parse_instance(doc)
    assert got.integer_rows == expected.integer_rows
    assert got.utilities == expected.utilities
    assert got.weights == expected.weights
    assert got == expected and hash(got) == hash(expected)


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
    assert instance.utilities[0][:3] == (-3, -3, Fraction(-1, 3))
    assert instance.utilities[1][:3] == (-4, Fraction(-2, 2), -2)
