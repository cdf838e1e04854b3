"""Fuzzed instance and allocation documents through the whole CLI: every
input gets exit code 0, 1 or 2 and at most one JSON error line on stderr,
never exit 3 and never a traceback."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pins import run

INSTANCE = {
    "agents": [{"id": "a", "weight": "1/3"}, {"id": "b", "weight": 2}],
    "items": ["p", "q", "r"],
    "utilities": [[3, "-1/2", "0"], ["2", 4, "-0.5"]],
}
ALLOCATION = {"owner": {"p": "a", "q": "b", "r": "b"}}
ARGVS = (
    ["solve", "{inst}"],
    ["verify", "{inst}", "{alloc}", "--property", "prop,prop1,propx,po,fpo"],
    ["verify", "{inst}", "{alloc}", "--property", "dominates", "--against", "{alloc}"],
)

_junk = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 3), st.sampled_from([10 ** 1001, -(10 ** 1200), 0.0, -1]),
    st.text(max_size=4), st.sampled_from(["1/0", "1e9999", "a", "-0", "3/4", "b", "p"]),
    st.lists(st.integers(-2, 2), max_size=3), st.just([[1, 2]]), st.just([]),
    st.dictionaries(st.sampled_from(["id", "weight", "owner", "p"]), st.integers(-1, 1),
                    max_size=2),
)


def _paths(doc, prefix=()):
    """Every place in a JSON document, the root included, as a key path."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _mutate(data, doc):
    """Replace, delete or duplicate the value at one place in ``doc``."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return copy.deepcopy(data.draw(_junk))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if action == "replace":
        parent[key] = copy.deepcopy(data.draw(_junk))  # st.just shares its value
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(copy.deepcopy(parent[key]))  # a ragged row, a repeated id
    else:
        parent[key + "2" if isinstance(key, str) else key] = copy.deepcopy(parent[key])
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_documents_get_an_honest_exit_code(data):
    docs = {"inst": copy.deepcopy(INSTANCE), "alloc": copy.deepcopy(ALLOCATION)}
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(docs)))
        docs[name] = _mutate(data, docs[name])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        for argv in ARGVS:
            code, out, err = run([a.format(**paths) for a in argv])
            assert code in (0, 1, 2), (argv, docs, err)
            assert "Traceback" not in err
            lines = err.splitlines()
            assert len(lines) <= 1
            if lines:
                assert set(json.loads(lines[0])) == {"error"}
                assert code == 2 and not out
            else:
                json.loads(out)
