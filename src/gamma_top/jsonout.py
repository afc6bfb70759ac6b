"""The machine output format: ``json.dumps(obj, sort_keys=True, indent=2)``,
byte for byte, without its pure-Python indent path.

Keys are sorted, nesting is indented by two spaces, item separators are
``,`` and key separators ``: ``, and strings are escaped to ASCII by the
C ``encode_basestring_ascii`` that json itself uses.  ``dump`` is the one
encoder: it hands its ``write`` callable the text in batches, each the join
of about ``BATCH_CHUNKS`` chunks and cut between items, so a large value is
written without ever being held whole as text.  ``dumps`` joins those
batches.  Tier-1 checks the bytes against ``json.dumps`` on generated values.

An iterator, such as a ``map`` or a generator, is written as the array of
its items.  It is consumed once, as it is written, so a payload whose rows
are an iterator makes each row when it is written and need not hold it
afterwards.  An empty one is written ``[]``.  Lists and tuples are the
arrays json knows; an iterator is looked for after every type json
writes.

A label list is a list or tuple of strings, such as a space's points or
one of its opens.  Output holds few distinct label lists many times over
(``PointSet.label_list`` shares one list per mask, and the keys of one
topology share its ``opens``), so ``dump`` keeps the text of each label
list it has encoded, keyed by the list's identity and its indent, and
looks it up at every later occurrence.  Lemma: an identity is a safe key
within one call if the memo holds each object it keys.  No other object
can then take a keyed identity before the call returns, whether or not
the payload still holds the first (it need not: an iterator's items are
let go once written), and a payload is not mutated while it is written.
The label memo holds each list it keys (``held``), and the frame memo
below holds each frame.  The memo lives for one call, so a list mutated
between two calls is written with its new content, and it holds one text
per distinct label list and indent.  Each list item and dict member goes
out one way: its lead (the item's separator, or the member's key) as one
chunk, then its value.

A ``Framed`` dict is one of many payloads that are equal but at a few
places, such as the space every verdict on a document carries, the spaces
of one slice, which differ only in the value at the empty set, or the
records ``mine`` reports on one slice and witness, which differ only in
their operation index and that value.  Its ``frame`` is that shared shape,
a value holding ``Framed.HOLE`` at each such place, and its ``fill`` a
tuple holding the payload's value at each hole, in the order json writes
them.  Lemma: the text of a value is the concatenation of the texts of its
parts, each at the indent its depth sets, so the payload's text is the
frame's text with the text of each of its k holes replaced by the text of
the matching fill at that hole's indent.  ``dump`` cuts the frame's text at
its holes once per frame and indent into k + 1 parts, keeps each part as
runs of at most ``BATCH_CHUNKS`` chunks, each joined once, and writes each
payload as the runs of the first part, then each fill's text followed by
the runs of the next part.  When batches are cut, each run counts as the
chunks it joins, so a batch holds about as much text as unframed, and a
frame of any size streams.  It keeps the parts of the frames met since
the payloads' ``scope`` last changed, and drops them all when a payload
of another scope comes, so memory stays bounded by one scope's frames;
every output places the payloads of one scope next to each other.  A
frame is keyed by its identity, which the lemma makes safe, because each
entry holds its frame.  A frame is written again once its scope's parts
are dropped, so it holds no iterator; a fill may.  A payload whose frame
has another number of holes than it has fills is no framed payload, and
is encoded in full.
"""

from __future__ import annotations

import collections
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _string

__all__ = ["Framed", "dump", "dumps"]

# chunks joined into one ``write`` call; a chunk is a token or a label list
BATCH_CHUNKS = 4096

_INF = float("inf")


class _Hole:
    """The mark of the fill's place in a frame; a copy or pickle of it is
    itself, so a copied frame keeps its hole."""

    __slots__ = ()

    def __reduce__(self):
        return "_HOLE"


_HOLE = _Hole()


class Framed(dict):
    """A dict equal to its ``frame`` but at the frame's ``HOLE``s, where it
    holds the items of the tuple ``fill``, in the order json writes them;
    the payloads that share a frame also share their ``scope``, and no one
    mutates any of them once built.  ``dump`` may write the frame's text
    around the fills' instead of encoding the dict; json and every other
    reader see a plain dict."""

    __slots__ = ("frame", "fill", "scope")

    HOLE = _HOLE


def _float(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


def _key(k) -> str:
    """A dict key as json writes it: strings escaped, scalars as text."""
    if isinstance(k, str):
        return _string(k)
    if isinstance(k, float):
        return _string(_float(k))
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return '"' + int.__repr__(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def dumps(obj) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it."""
    parts = []
    dump(obj, parts.append)
    return "".join(parts)


def dump(obj, write) -> None:
    """Pass ``obj`` to ``write`` as ``json.dumps(obj, sort_keys=True,
    indent=2)`` writes it, in non-empty ``str`` batches cut between items.

    Supports what json supports by default: dict, list, tuple, str, int,
    float (NaN and infinities as ``NaN``/``Infinity``), True, False and
    None, and any iterator as the list of its items; anything else raises
    TypeError after the batches before it have been written, and an error
    an iterator raises comes out the same way."""
    chunks = []
    emit = chunks.append
    # per indent, the text of each label list met so far, by the list's id;
    # ``held`` keeps each keyed list alive, so no id is reused in this call
    texts = collections.defaultdict(dict)
    held = []
    # per (frame id, indent), for the frames of the current scope: the runs
    # of the part before the first hole, a (hole's indent, runs of the part
    # after it) step per hole, and the frame; a run is the text of at most
    # BATCH_CHUNKS chunks and the number of chunks beyond one that it
    # joins.  ``holes`` collects the (chunk index, indent) of each hole
    # met, and no batch is written while ``framing`` frames are being
    # encoded
    parts = {}
    scope = None
    holes = []
    framing = 0
    # chunks that the runs written since the last flush stand for, beyond
    # one each: a batch is cut at the size it would have had unframed
    weight = 0

    def flush():
        nonlocal weight
        if framing:
            return
        write("".join(chunks))
        chunks.clear()
        weight = 0

    def labels(items, nl):
        """The text of the list or tuple *items* at indent *nl* if every
        item is a string, else None; made once per list and indent."""
        if not items:
            return "[]"
        memo = texts[nl]
        text = memo.get(id(items))
        if text is None:
            if type(items[0]) is not str:
                return None
            inner = nl + "  "
            try:
                # one C call per item, one join
                text = "[" + inner + ("," + inner).join(map(_string, items)) + nl + "]"
            except TypeError:
                return None
            memo[id(items)] = text
            held.append(items)
        return text

    def value(v, nl):
        t = type(v)
        if t is str:
            emit(_string(v))
        elif t is list or t is tuple:
            array(v, nl)
        elif t is dict:
            obj_(v, nl)
        elif t is Framed:
            framed(v, nl)
        elif t is int:
            emit(int.__repr__(v))
        elif v is None:
            emit("null")
        elif v is True:
            emit("true")
        elif v is False:
            emit("false")
        elif t is float:
            emit(_float(v))
        elif v is _HOLE and framing:
            # outside a frame a hole is no JSON value, and raises below
            holes.append((len(chunks), nl))
        # subclasses, in the order json tests them
        elif isinstance(v, str):
            emit(_string(v))
        elif isinstance(v, int):
            emit(int.__repr__(v))
        elif isinstance(v, float):
            emit(_float(v))
        elif isinstance(v, (list, tuple)):
            array(v, nl)
        elif isinstance(v, dict):
            obj_(v, nl)
        elif isinstance(v, Iterator):
            items(v, nl)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    def array(seq, nl):
        text = labels(seq, nl)
        if text is not None:
            emit(text)
        else:
            items(seq, nl)

    def items(iterable, nl):
        """The array of the items of *iterable*, taken once."""
        inner = nl + "  "
        sep = "," + inner
        lead = "[" + inner
        for item in iterable:
            emit(lead)
            value(item, inner)
            lead = sep
            if len(chunks) >= BATCH_CHUNKS:
                flush()
        emit(nl + "]" if lead is sep else "[]")

    def obj_(d, nl):
        if not d:
            emit("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        lead = "{" + inner
        for k in sorted(d):
            emit(lead + (_string(k) if type(k) is str else _key(k)) + ": ")
            value(d[k], inner)
            lead = sep
            if len(chunks) >= BATCH_CHUNKS:
                flush()
        emit(nl + "}")

    def runs(lo):
        """Take ``chunks[lo:]`` as runs, BATCH_CHUNKS at a time from the
        end, each joined as its chunks are let go: no more than one run of
        a frame's text is held twice."""
        cut = []
        while len(chunks) > lo:
            at = max(lo, len(chunks) - BATCH_CHUNKS)
            cut.append(("".join(chunks[at:]), len(chunks) - at - 1))
            del chunks[at:]
        cut.reverse()
        return cut

    def replay(part):
        nonlocal weight
        for text, extra in part:
            emit(text)
            weight += extra
            if len(chunks) + weight >= BATCH_CHUNKS:
                flush()

    def framed(d, nl):
        nonlocal scope, framing
        if d.scope is not scope:
            # drop the last scope's parts first: one scope's at a time
            parts.clear()
            scope = d.scope
        frame = d.frame
        entry = parts.get((id(frame), nl))
        if entry is None:
            mark, seen = len(chunks), len(holes)
            framing += 1
            value(frame, nl)
            framing -= 1
            found = holes[seen:]
            del holes[seen:]
            # cut from the last hole back, each part's chunks let go as
            # they are joined
            steps = [(inner, runs(pos)) for pos, inner in reversed(found)]
            steps.reverse()
            entry = parts[(id(frame), nl)] = (runs(mark), steps, frame)
        first, steps, _ = entry
        fills = d.fill
        if len(fills) != len(steps):
            obj_(d, nl)
            return
        replay(first)
        i = 0
        for inner, part in steps:
            fill = fills[i]
            i += 1
            # a label list or an int is the one chunk value() would make
            if type(fill) is list and (text := labels(fill, inner)) is not None:
                emit(text)
            elif type(fill) is int:
                emit(int.__repr__(fill))
            else:
                value(fill, inner)
            replay(part)

    value(obj, "\n")
    if chunks:
        flush()
