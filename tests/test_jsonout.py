"""The machine output encoder against its oracle,
``json.dumps(obj, sort_keys=True, indent=2)``."""

import enum
import json
from collections import OrderedDict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gamma_top import cli, documents, jsonout, theoremlab


class Small(enum.IntEnum):
    ONE = 1


class Label(str):
    pass


class UserList(list):
    pass


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(st.characters(exclude_categories=()))
)
values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.text(max_size=3), max_size=5)
        | st.dictionaries(st.text(max_size=4), children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_matches_json_dumps(obj):
    assert jsonout.dumps(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [
        ["α", "𝔟", "日本"],  # non-ASCII, astral (a surrogate pair escape)
        ["\x00\x1f\t\n", '"', "\\", 'q"\\'],  # control characters, quote, backslash
        {"é": ["\ud800"], " ": "x"},  # non-ASCII keys, a lone surrogate
        {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]},  # nested empty containers
        {"t": (1, ("x", "y"), ()), "u": ("a",)},  # tuples as lists
        ["a", 1, ["b"], None],  # a string first, then not: leaves the label-list path
        [True, 1, False, 0, [True, False], {"k": True}],  # bools next to ints
        [2**64, -(2**64) - 1, 10**40],  # ints beyond 64 bits
        [0.1, -0.0, 1e300, float("nan"), float("inf"), float("-inf")],
        {1: "x", 10: "y", 2: "z"},  # int keys sort as ints
        {3.5: 1, 0.25: 2},  # float, bool and None keys as json writes them
        {True: 1, False: 2},
        {None: 1},
        [Small.ONE, Label("x")],  # int and str subclasses
        OrderedDict([("b", UserList([1])), ("a", OrderedDict())]),  # dict and list subclasses
        "plain",
        [],
        {},
    ],
)
def test_explicit_cases(obj):
    assert jsonout.dumps(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [{1, 2}, {"a": [frozenset()]}, [object()], {(1,): 2}, {1: 1, "a": 2}])
def test_unsupported_types_raise(obj):
    with pytest.raises(TypeError):
        jsonout.dumps(obj)
    with pytest.raises(TypeError):
        oracle(obj)


def test_verify_machine_bytes_with_non_ascii_labels(tmp_path, capsys):
    labels = ["α", "𝔟", 'q"\\\t']
    doc = {
        "points": labels,
        "opens": [[], ["α"], ["α", "𝔟"], labels],
        "gamma": {"kind": "closure"},
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code = cli.main(["verify", str(path), "--format", "machine"])
    out = capsys.readouterr().out
    sp = documents.parse_space(path.read_text(encoding="utf-8"))
    report = theoremlab.run_suite(sp, theoremlab.parse_claims("all"))
    assert out == oracle(report.to_dict()) + "\n"
    assert code in (cli.EXIT_OK, cli.EXIT_COUNTEREXAMPLE)
    assert "\\u03b1" in out and "\\ud835\\udd1f" in out
