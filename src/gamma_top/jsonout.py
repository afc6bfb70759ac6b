"""The machine output format: ``json.dumps(obj, sort_keys=True, indent=2)``,
byte for byte, without its pure-Python indent path.

Keys are sorted, nesting is indented by two spaces, item separators are
``,`` and key separators ``: ``, and strings are escaped to ASCII by the
C ``encode_basestring_ascii`` that json itself uses.  ``dump`` is the one
encoder: it hands its ``write`` callable the text in batches, each the join
of about ``BATCH_CHUNKS`` chunks and cut between items, so a large value is
written without ever being held whole as text.  ``dumps`` joins those
batches.  Tier-1 checks the bytes against ``json.dumps`` on generated values.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

__all__ = ["dump", "dumps"]

# chunks joined into one ``write`` call; a chunk is a token or a label list
BATCH_CHUNKS = 4096

_INF = float("inf")


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
    None; anything else raises TypeError, after the batches before it have
    been written."""
    chunks = []
    emit = chunks.append

    def flush():
        write("".join(chunks))
        chunks.clear()

    def value(v, nl):
        t = type(v)
        if t is str:
            emit(_string(v))
        elif t is list or t is tuple:
            array(v, nl)
        elif t is dict:
            obj_(v, nl)
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
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    def array(items, nl):
        if not items:
            emit("[]")
            return
        inner = nl + "  "
        if type(items[0]) is str:
            try:
                # every label list: one C call per item, one join
                emit("[" + inner + ("," + inner).join(map(_string, items)) + nl + "]")
                return
            except TypeError:
                pass
        sep = "," + inner
        lead = "[" + inner
        for item in items:
            emit(lead)
            value(item, inner)
            lead = sep
            if len(chunks) >= BATCH_CHUNKS:
                flush()
        emit(nl + "]")

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

    value(obj, "\n")
    flush()
