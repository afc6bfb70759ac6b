"""JSON space documents: parsing, validation, serialization, bundled data.

A document has exactly the top-level keys ``points``, ``opens`` and
``gamma``.  ``gamma.kind`` is one of identity, closure, int_closure,
pivot, table; pivot carries ``pivot``, ``in`` and ``out`` with branch
values id/cl/intcl; table carries one ``{"open": ..., "value": ...}``
entry per open set.
"""

from __future__ import annotations

import json
from importlib import resources

from . import jsonout
from .finspace import PointSet, TopologyError, UnknownPoint as _UnknownPoint, validate_topology
from .gamma_core import BRANCHES, GammaOperation, GammaNotExpansive, Space

BUNDLED = ("example3_2", "example3_5", "example3_16", "example3_17")


class DocumentError(ValueError):
    pass


class DocumentSyntaxError(DocumentError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class UnknownLabel(DocumentError):
    pass


class TopologyInvalid(DocumentError):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise DocumentSyntaxError(message)


def _mask(ground: PointSet, labels, what: str) -> int:
    _require(isinstance(labels, list) and all(isinstance(s, str) for s in labels),
             f"{what} must be a list of point labels")
    try:
        return ground.mask_of(labels)
    except _UnknownPoint as exc:
        raise UnknownLabel(f"{what}: {exc}") from None


def parse_space(text: str) -> Space:
    """Parse a UTF-8 JSON document into a validated Space."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, line=exc.lineno) from None
    except RecursionError:
        raise DocumentSyntaxError("document is nested too deeply") from None
    _require(isinstance(doc, dict), "document must be a JSON object")
    _require(set(doc) == {"points", "opens", "gamma"},
             "document must have exactly the keys points, opens, gamma")
    points = doc["points"]
    _require(isinstance(points, list) and all(isinstance(s, str) for s in points),
             "points must be a list of labels")
    ground = PointSet(tuple(points))
    _require(isinstance(doc["opens"], list), "opens must be a list of label lists")
    masks = [_mask(ground, entry, "open set") for entry in doc["opens"]]
    try:
        top = validate_topology(ground, masks)
    except TopologyError as exc:
        raise TopologyInvalid(str(exc)) from None

    spec = doc["gamma"]
    _require(isinstance(spec, dict) and isinstance(spec.get("kind"), str),
             "gamma must be an object with a kind")
    kind = spec["kind"]
    if kind in ("identity", "closure", "int_closure"):
        _require(set(spec) == {"kind"}, f"gamma kind {kind} takes no extra keys")
        op = GammaOperation(kind)
    elif kind == "pivot":
        _require(set(spec) == {"kind", "pivot", "in", "out"},
                 "pivot gamma needs exactly the keys kind, pivot, in, out")
        _require(spec["in"] in BRANCHES and spec["out"] in BRANCHES,
                 "pivot branches must be id, cl or intcl")
        if spec["pivot"] not in ground.labels:
            raise UnknownLabel(f"pivot point {spec['pivot']!r} is not a point")
        op = GammaOperation("pivot", pivot=spec["pivot"],
                            in_branch=spec["in"], out_branch=spec["out"])
    elif kind == "table":
        _require(set(spec) == {"kind", "table"} and isinstance(spec["table"], list),
                 "table gamma needs exactly a table list")
        entries = []
        for row in spec["table"]:
            _require(isinstance(row, dict) and set(row) == {"open", "value"},
                     "table rows need exactly the keys open and value")
            entries.append((_mask(ground, row["open"], "table open"),
                            _mask(ground, row["value"], "table value")))
        _require(len({m for m, _ in entries}) == len(entries),
                 "table lists an open set twice")
        # no open twice, so the entries sort by their opens
        entries.sort()
        if tuple(m for m, _ in entries) != top.opens_sorted:
            raise DocumentSyntaxError("table must list exactly one entry per open set")
        op = GammaOperation("table", values=tuple(v for _, v in entries))
    else:
        raise DocumentSyntaxError(f"unknown gamma kind {kind!r}")

    return Space(ground, top, op)  # GammaNotExpansive propagates with its witness


def space_to_document(sp: Space) -> dict:
    lists = sp.ground.label_list
    doc = {
        "points": lists(sp.ground.full_mask),
        "opens": [lists(m) for m in sp.top.opens_sorted],
    }
    g = sp.gamma
    if g.kind == "pivot":
        doc["gamma"] = {"kind": "pivot", "pivot": g.pivot, "in": g.in_branch, "out": g.out_branch}
    elif g.kind == "table":
        doc["gamma"] = {
            "kind": "table",
            "table": [
                {"open": lists(m), "value": lists(v)}
                for m, v in zip(sp.top.opens_sorted, g.values)
            ],
        }
    else:
        doc["gamma"] = {"kind": g.kind}
    return doc


def serialize_space(sp: Space) -> str:
    return jsonout.dumps(space_to_document(sp)) + "\n"


def load_bundled(name: str) -> Space:
    if name not in BUNDLED:
        raise DocumentError(f"unknown bundled document {name!r}")
    text = resources.files("gamma_top.data").joinpath(f"{name}.json").read_text("utf-8")
    return parse_space(text)


def bundled_path(name: str):
    """Filesystem path of a bundled document (for CLI-driving tests)."""
    if name not in BUNDLED:
        raise DocumentError(f"unknown bundled document {name!r}")
    return resources.files("gamma_top.data").joinpath(f"{name}.json")
