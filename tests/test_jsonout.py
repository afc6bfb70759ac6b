"""The machine output encoder against its oracle,
``json.dumps(obj, sort_keys=True, indent=2)``."""

import copy
import enum
import hashlib
import random
import json
import weakref
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


# one label list, met at several places and indents in a payload
LABELS = ["a", "b"]


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def assert_same_text(got: str, want: str):
    """Assert ``got == want`` on texts of megabytes, failing fast: pytest's
    own report would diff the two texts, which takes minutes.  The lengths
    and sha256 digests are compared first; on a mismatch the first offset
    where the texts differ is found by bisection and reported."""
    digests = [hashlib.sha256(t.encode("utf-8", "surrogatepass")).hexdigest() for t in (got, want)]
    if len(got) == len(want) and digests[0] == digests[1] and got == want:
        return
    lo, hi = 0, min(len(got), len(want))
    while lo < hi:  # got[:lo] == want[:lo]
        mid = (lo + hi + 1) // 2
        if got[:mid] == want[:mid]:
            lo = mid
        else:
            hi = mid - 1
    pytest.fail(f"texts differ: lengths {len(got)} and {len(want)}, sha256 "
                f"{digests[0][:16]} and {digests[1][:16]}, first at offset {lo}: "
                f"{got[lo:lo + 60]!r} instead of {want[lo:lo + 60]!r}")


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


def _lazy(v, draw):
    """*v* with some of its lists and tuples (drawn) as iterators over
    their items, which are made lazy in turn."""
    if isinstance(v, dict):
        return {k: _lazy(x, draw) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        items = [_lazy(x, draw) for x in v]
        return iter(items) if draw(st.booleans()) else type(v)(items)
    return v


@settings(max_examples=400, deadline=None)
@given(values, st.data())
def test_matches_json_dumps(obj, data):
    want = oracle(obj)
    assert jsonout.dumps(obj) == want
    # an iterator is written as the list of its items
    assert jsonout.dumps(_lazy(obj, data.draw)) == want


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
        # label lists: one list at two indents and as a member, equal but
        # distinct lists, and mixed lists that leave the label-list paths
        {"x": LABELS, "y": [LABELS, {"z": [LABELS, LABELS]}], "w": [["a", "b"], ["a", "b"]]},
        [["a"], [1]],
        [["a"], "b"],
        [[], ["a", 2]],
        [LABELS, ("a",), LABELS, UserList(["b"]), {"k": LABELS}],
        {"k": ["a", 1], "l": ["a", ["b"]]},
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


def test_a_label_text_lasts_one_call():
    # the text of a label list is kept for one call: mutated between two
    # calls, the list is encoded again with its new content
    labels = ["a", "b"]
    obj = {"opens": [[], labels, labels], "points": labels}
    first = jsonout.dumps(obj)
    assert first == oracle(obj)
    labels.append("c")
    assert jsonout.dumps(obj) == oracle(obj) != first


# the last: a hole outside any frame
@pytest.mark.parametrize("obj", [{1, 2}, {"a": [frozenset()]}, [object()], {(1,): 2}, {1: 1, "a": 2},
                                 [1, jsonout.Framed.HOLE]])
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


def test_dump_batches_join_to_the_same_bytes():
    # several batches' worth of chunks: every piece handed over is a
    # non-empty str, and the pieces join to the oracle's text
    obj = {
        "rows": [
            {"i": i, "labels": ["a", "b"][: i % 3], "x": [i * 0.5, None, i % 2 == 0]}
            for i in range(3 * jsonout.BATCH_CHUNKS)
        ],
        "empty": {},
    }
    pieces = []
    jsonout.dump(obj, pieces.append)
    assert len(pieces) > 3
    assert all(type(p) is str and p for p in pieces)
    assert_same_text("".join(pieces), oracle(obj))
    assert_same_text(jsonout.dumps(obj), "".join(pieces))


def _space(points="abc", opens=(0, 1, 3, 7)):
    """The payload of a key not made from a slice: a group of one."""
    return theoremlab.SpaceKey(tuple(points), opens, "table", opens).to_dict()


def _framed(payload, frame, fill, scope=None):
    """*payload* as a ``Framed`` on *frame*, which holds ``Framed.HOLE``
    where *payload* holds the items of the tuple *fill*, in json order."""
    framed = jsonout.Framed(payload)
    framed.frame, framed.fill, framed.scope = frame, fill, scope
    return framed


def _records(keys, witnesses, ti=0):
    """The records ``mine`` reports on the slice *keys* (the payloads of
    ``_group``), one per key and witness in that order, framed by witness
    as ``mine`` frames a group of more than one row: the record frame
    holds ``Framed.HOLE`` at the operation index and the slice frame as
    the space."""
    hole = jsonout.Framed.HOLE
    frames = [{"operation_index": hole, "space": keys[0].frame, "topology_index": ti,
               "witness": w} for w in witnesses]
    return [_framed({"operation_index": oi, "space": key, "topology_index": ti, "witness": w},
                    frame, (oi,) + key.fill, key.scope)
            for oi, key in enumerate(keys) for w, frame in zip(witnesses, frames)]


def _group(empties, rest, opens=(0, 1, 3, 7), kind="table", points="abc"):
    """The payloads of the slice keys of one group: the value at the empty
    set is each of *empties* in turn, the values at the other opens *rest*."""
    points = tuple(points)
    frame = theoremlab.SpaceKey.slice_frame(points, opens, kind, (empties[0],) + rest)
    return [theoremlab.SpaceKey(points, opens, kind, (e,) + rest, frame).to_dict()
            for e in empties]


def _shared_cases():
    hole = jsonout.Framed.HOLE
    a = _space()
    b = _framed({"b": [1, ["x"]], "c": {}}, {"b": hole, "c": {}}, ([1, ["x"]],))
    # a frame of several runs on each side of its hole
    rows = [{"i": i, "l": ["a", "b"][: i % 3]} for i in range(2 * jsonout.BATCH_CHUNKS)]
    half = jsonout.BATCH_CHUNKS
    big = _framed({"rows": rows}, {"rows": rows[:half] + [hole] + rows[half + 1:]}, (rows[half],))
    # a frame that is all hole: both parts are empty
    empty = _framed({}, hole, ({},))
    # two holes in one dict, the second a label list
    pair_frame = {"i": hole, "l": hole, "x": [1]}
    pairs = [_framed({"i": i, "l": LABELS[:i], "x": [1]}, pair_frame, (i, LABELS[:i]))
             for i in range(3)]
    # holes at two depths: a dict value and a list item
    deep_frame = {"a": hole, "b": [{"c": [0, hole, 2]}, "d"]}
    deep = [_framed({"a": a, "b": [{"c": [0, i, 2]}, "d"]}, deep_frame, (a, i)) for i in (1, 5)]
    # more holes than fills, and fewer: no frames
    more = _framed({"i": 1, "l": ["a"], "x": [1]}, pair_frame, (1,))
    fewer = _framed({"i": 1, "l": ["a"], "x": [1]}, pair_frame, (1, ["a"], 2))
    # no holes and no fills: the frame's text is the payload's
    still = _framed({"x": [1, "y"]}, {"x": [1, "y"]}, ())
    g1 = _group((0, 2, 4, 6), (1, 3, 7))
    g2 = _group((5, 2, 0), (3, 7, 7))
    # another topology, then the first again: its parts are made anew
    other = _group((0, 1), (2, 7), opens=(0, 2, 7))
    # frames with no hole or two for one fill are no frames, and are
    # encoded in full; a deep copy keeps its hole
    holeless = _framed(a, dict(a), ([],))
    twice = copy.copy(g1[1])
    twice.frame = [hole, hole]
    return {
        "two groups interleaved": [g1[0], g2[0], g1[1], g2[1], g1[2], g2[2], g1[3]],
        "topology A, B, A": [g1[0], other[0], other[1], g1[1], {"x": [g1[2]]}, g1[3]],
        "one open beyond the empty set": _group((0, 1, 2, 3), (7,), opens=(0, 7)),
        "kinds": [_group((3, 0), (3, 7), opens=(0, 3, 7), kind=kind)[i]
                  for kind in ("table", "identity", "pivot") for i in (0, 1)],
        # the value at the empty set's label list is also an item of opens
        "fill also an open": _group((0, 1, 3, 7), (1, 3, 7)),
        # a slice key's payload inside another frame
        "framed in shared": [_framed({"s": g1[0], "t": [g1[1], g1[0]]},
                                     {"s": g1[0], "t": [g1[1], hole]}, (g1[0],)), g1[2]],
        "framed at depths": {"a": g1[0], "b": [[g1[1]], {"c": g1[0]}], "d": g2},
        "framed repeats": g1 * (3 * jsonout.BATCH_CHUNKS // 20),
        "not frames": [holeless, twice, copy.deepcopy(g1[2]), g1[2]],
        "two holes": [pairs[0], pairs[1], {"k": pairs[2]}, pairs[1]],
        "holes at two depths": [deep[0], {"x": deep[1]}, deep[1], deep[0]],
        # a group's records on two witnesses alternate, as mine writes them
        "record frames interleaved": {"witnesses": _records(g1, [{"subset": ["a"]},
                                                                  {"subset": LABELS}])},
        "fills not matching holes": [more, pairs[1], fewer, pairs[1], more],
        "no holes": [still, {"k": still}, still],
        "verify": {"verdicts": [{"claim": f"C-{i}", "space": a} for i in range(24)]},
        "two depths": {"a": a, "deeper": [{"x": [a, a]}], "z": a},
        "interleaved": [a, b, a, b, b, a],
        "nested": [_framed({"inner": a, "again": a}, {"inner": hole, "again": a}, (a,)), a, {"inner": a}],
        "empty": [empty, empty, {"e": empty}],
        "root": a,
        "small repeats": [a] * (3 * jsonout.BATCH_CHUNKS // 10),
        "large repeats": {"k": [big, big, {"x": big}], "l": big},
        # its last run ends a batch, and the text with it
        "large root": big,
    }


@pytest.mark.parametrize("name", list(_shared_cases()))
def test_shared_payloads_match_json_dumps(name):
    obj = _shared_cases()[name]
    pieces = []
    jsonout.dump(obj, pieces.append)
    assert all(type(p) is str and p for p in pieces)
    assert_same_text("".join(pieces), oracle(obj))
    if "repeats" in name:
        assert len(pieces) > 3


# a fill: any value, and label lists (one shared, as keys share theirs),
# ints, dicts and nested lists in particular
fills = (values | st.just(LABELS) | st.lists(st.text(max_size=3), min_size=1, max_size=4)
         | st.integers() | st.dictionaries(st.text(max_size=4), values, max_size=3)
         | st.lists(st.lists(st.text(max_size=3), max_size=3), max_size=3))


def _punch(v, draw):
    """A frame of *v*: *v* with about one in four of its list items and
    dict members (drawn) replaced by ``Framed.HOLE``, so that a frame has
    parts of several chunks, whose weight the batches must count."""
    def hole():
        return draw(st.integers(0, 3)) == 3

    if isinstance(v, dict):
        return {k: jsonout.Framed.HOLE if hole() else _punch(x, draw) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return type(v)(jsonout.Framed.HOLE if hole() else _punch(x, draw) for x in v)
    return v


def _fill(frame, fill):
    """*frame* with each hole replaced by a call of *fill*, in the order
    json writes them."""
    if frame is jsonout.Framed.HOLE:
        return fill()
    if isinstance(frame, dict):
        return {k: _fill(frame[k], fill) for k in sorted(frame)}
    if isinstance(frame, (list, tuple)):
        return type(frame)(_fill(x, fill) for x in frame)
    return frame


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=4), values, max_size=5), st.data())
def test_framed_payloads_match_json_dumps(root, data):
    frame = _punch(root, data.draw)
    holes = []
    _fill(frame, lambda: holes.append(None))
    # payloads on one frame, each with its own fills
    framed = []
    for _ in range(data.draw(st.integers(1, 3))):
        fill = tuple(data.draw(fills) for _ in holes)
        framed.append(_framed(_fill(frame, iter(fill).__next__), frame, fill))
    obj = [framed, {"k": framed[-1]}] + framed
    assert_same_text(jsonout.dumps(obj), oracle(obj))
    assert_same_text(jsonout.dumps(iter([iter(framed), {"k": framed[-1]}, *framed])), oracle(obj))
    # copies enough for a few batches (a line is about two chunks): a
    # framed payload counts as the chunks it stands for, so framed and
    # plain copies take as many writes, give or take the last one, since a
    # framed batch is cut at the end of a run, not of an item
    reps = 3 * jsonout.BATCH_CHUNKS // (2 * oracle(framed).count("\n") + 2) + 1
    pieces, plain = [], []
    jsonout.dump(framed * reps, pieces.append)
    jsonout.dump([dict(f) for f in framed] * reps, plain.append)
    assert_same_text("".join(pieces), "".join(plain))
    assert abs(len(pieces) - len(plain)) <= 1, (len(pieces), len(plain))


def test_a_list_of_label_lists_streams():
    # the shape of a 16-point space's opens: many distinct label lists in
    # one list, bare and as a member of a frame
    opens = [[f"p{i}", f"q{i % 7}"][: 1 + i % 2] for i in range(3 * jsonout.BATCH_CHUNKS)]
    hole = jsonout.Framed.HOLE
    space = _framed({"opens": opens, "v": LABELS}, {"opens": opens, "v": hole}, (LABELS,))
    for obj in (opens, space, [space, space]):
        pieces = []
        jsonout.dump(obj, pieces.append)
        assert_same_text("".join(pieces), oracle(obj))
        assert len(pieces) > 3


def test_a_repeated_shared_payload_is_encoded_once(monkeypatch):
    # a document's key is a group of one: the space its 24 verdicts carry
    # is one framed payload, written as its frame's text around its fill
    doc = {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]], "gamma": {"kind": "closure"}}
    sp = documents.parse_space(json.dumps(doc))
    space = sp.key.to_dict()
    assert type(space) is jsonout.Framed and sp.key.to_dict() is space
    calls = []

    def counting(s):
        calls.append(s)
        return json.encoder.encode_basestring_ascii(s)

    monkeypatch.setattr(jsonout, "_string", counting)

    def strings(obj):
        calls.clear()
        jsonout.dumps(obj)
        return len(calls)

    once = strings([space])
    assert once > 0
    assert strings([space] * 24) == once
    # the control: copies with fresh label lists are each encoded in full
    assert strings([copy.deepcopy(space) for _ in range(24)]) == 24 * once


def test_a_frame_text_lasts_one_call():
    # the parts of a frame are kept for one call: mutated between two
    # calls, frame and payloads are encoded again with their new content
    group = _group((0, 4), (1, 3, 7))
    first = jsonout.dumps(group)
    assert_same_text(first, oracle(group))
    for space in group:
        space["gamma"]["kind"] = space.frame["gamma"]["kind"] = "changed"
    assert_same_text(jsonout.dumps(group), oracle(group))
    assert jsonout.dumps(group) != first


def test_the_keys_of_a_group_are_encoded_once(monkeypatch):
    group = _group((0, 2, 4, 6), (1, 3, 7))
    assert all(type(space) is jsonout.Framed for space in group)
    calls = []

    def counting(s):
        calls.append(s)
        return json.encoder.encode_basestring_ascii(s)

    monkeypatch.setattr(jsonout, "_string", counting)

    def strings(obj):
        calls.clear()
        jsonout.dumps(obj)
        return len(calls)

    once = strings(group)
    assert once > 0
    assert strings(group * 24) == once
    # the control: plain copies with the same label lists repeat their keys
    assert strings([dict(space) for space in group] * 24) > 24 * len(group)


def _mine_shaped(plain):
    """Mined witnesses, one to three per space, each space's in a row."""
    rng = random.Random(3)
    records = []
    for ti in range(1000):
        opens = tuple(sorted({0, 7} | {rng.randrange(8) for _ in range(3)}))
        space = _space(opens=opens)
        for oi in range(1 + ti % 3):
            records.append({
                "operation_index": oi,
                "space": dict(space) if plain else space,
                "topology_index": ti,
                "witness": {"subset": ["a", "b", "c"][: oi + 1]},
            })
    return records


def test_replayed_payloads_keep_the_batches():
    # a repeated space counts as the chunks of its frame's runs, not as
    # one chunk per run: the writes and their sizes stay those of plain copies
    replayed, plain = [], []
    jsonout.dump(_mine_shaped(False), replayed.append)
    jsonout.dump(_mine_shaped(True), plain.append)
    assert_same_text("".join(replayed), "".join(plain))
    assert len(plain) > 10
    assert abs(len(replayed) - len(plain)) <= 0.1 * len(plain)
    largest = max(map(len, plain))
    assert abs(max(map(len, replayed)) - largest) <= 0.1 * largest


def _mine_shaped_slices(plain):
    """Mined witnesses on slice keys: one group of one to three keys per
    topology, each key's in a row."""
    rng = random.Random(3)
    records = []
    for ti in range(1000):
        opens = tuple(sorted({0, 7} | {rng.randrange(8) for _ in range(3)}))
        for oi, space in enumerate(_group(tuple(range(1 + ti % 3)), opens[1:], opens=opens)):
            records.append({
                "operation_index": oi,
                "space": dict(space) if plain else space,
                "topology_index": ti,
                "witness": {"subset": ["a", "b", "c"][: oi + 1]},
            })
    return records


def _mine_shaped_records(plain):
    """Mined witnesses as ``mine`` frames a group of more than one row:
    one group of one to three keys and one or two witnesses per topology,
    each key's records in a row, one record frame per witness."""
    rng = random.Random(3)
    records = []
    for ti in range(1000):
        opens = tuple(sorted({0, 7} | {rng.randrange(8) for _ in range(3)}))
        keys = _group(tuple(range(1 + ti % 3)), opens[1:], opens=opens)
        witnesses = [{"subset": ["a", "b", "c"][: k + 1]} for k in range(1 + ti % 2)]
        for record in _records(keys, witnesses, ti):
            records.append(dict(record, space=dict(record["space"])) if plain else record)
    return records


def test_framed_payloads_keep_the_batches():
    # a framed space counts as the chunks of its frame, not as its three,
    # and a framed record as those of its frame, not as its runs: the
    # writes and their sizes stay those of plain copies
    for shaped in (_mine_shaped_slices, _mine_shaped_records):
        framed, plain = [], []
        jsonout.dump(shaped(False), framed.append)
        jsonout.dump(shaped(True), plain.append)
        assert_same_text("".join(framed), "".join(plain))
        assert len(plain) > 10
        assert abs(len(framed) - len(plain)) <= 0.1 * len(plain), shaped.__name__
        largest = max(map(len, plain))
        assert abs(max(map(len, framed)) - largest) <= 0.1 * largest, shaped.__name__


def _iterator_cases():
    """name -> (payload, the same payload with iterators for some lists)."""
    g1 = _group((0, 2, 4, 6), (1, 3, 7))
    other = _group((0, 1), (2, 7), opens=(0, 2, 7))
    records = _records(g1, [{"subset": ["a"]}, {"subset": LABELS}])
    across = [g1[0], other[0], other[1], g1[1], g1[2]]
    many = [{"i": i, "l": LABELS[: i % 3]} for i in range(3 * jsonout.BATCH_CHUNKS)]
    return {
        "empty": ([], iter([])),
        "empty map": ({"a": [], "b": [[]]}, {"a": map(str, ()), "b": iter([(x for x in ())])}),
        "label list items": (LABELS, iter(LABELS)),
        "label lists": ([LABELS, ["a"], LABELS, []], iter([LABELS, ["a"], LABELS, []])),
        "a group's keys": (g1, (key for key in g1)),
        "framed on one scope": ({"w": records}, {"w": iter(records)}),
        "framed across scopes": (across, iter(across)),
        "nested": ([[1, [2, []]], [[0], [1], [2]]],
                   iter([iter([1, iter([2, iter([])])]), map(lambda x: iter([x]), range(3))])),
        "more than a batch": (many, iter(many)),
        "more than a batch of framed": (_mine_shaped_records(False),
                                        iter(_mine_shaped_records(False))),
    }


@pytest.mark.parametrize("name", list(_iterator_cases()))
def test_an_iterator_writes_as_its_list(name):
    plain, lazy = _iterator_cases()[name]
    pieces = []
    jsonout.dump(lazy, pieces.append)
    assert all(type(p) is str and p for p in pieces)
    assert_same_text("".join(pieces), jsonout.dumps(plain))
    assert_same_text("".join(pieces), oracle(plain))


def test_an_iterator_is_taken_once():
    class Counted:
        def __init__(self, items):
            self.items = iter(items)
            self.pulls = 0

        def __iter__(self):
            return self

        def __next__(self):
            self.pulls += 1
            return next(self.items)

    rows = [{"i": i} for i in range(5)]
    counted = Counted(rows)
    assert jsonout.dumps({"rows": counted}) == oracle({"rows": rows})
    # five items and the one StopIteration, nothing pulled twice
    assert counted.pulls == 6


class Row(dict):
    """A dict that a weak reference can follow."""


def test_an_iterator_s_items_are_let_go_once_written():
    # each row is made when it is written: the writer holds the one being
    # written, and no earlier one
    alive = most = 0

    def let_go():
        nonlocal alive
        alive -= 1

    def rows():
        nonlocal alive, most
        for i in range(3 * jsonout.BATCH_CHUNKS):
            row = Row(i=i, labels=LABELS)
            weakref.finalize(row, let_go)
            alive += 1
            most = max(most, alive)
            yield row
            del row

    plain = [dict(i=i, labels=LABELS) for i in range(3 * jsonout.BATCH_CHUNKS)]
    assert_same_text(jsonout.dumps({"rows": rows()}), oracle({"rows": plain}))
    assert most == 2


def test_an_iterator_error_comes_out_after_the_batches_before_it():
    def rows():
        yield from range(3 * jsonout.BATCH_CHUNKS)
        raise RuntimeError("a bug")

    pieces = []
    with pytest.raises(RuntimeError, match="a bug"):
        jsonout.dump([0, rows()], pieces.append)
    assert pieces and oracle([0, list(range(3 * jsonout.BATCH_CHUNKS))]).startswith("".join(pieces))
