"""Expansive operations on the open sets of a topology and the two
operators they induce.

An operation assigns to every open set V a superset V^g (expansiveness is
the one axiom).  From it we derive:

* ``gamma_interior(A)`` -- points of A with an open neighbourhood whose
  value lies inside A;
* ``gamma_closure(A)``  -- points all of whose open neighbourhoods have
  values meeting A.

Both operators are tables over all 2**n subsets, filled from the
per-point neighbourhood values (``nbds``, per point x the values at the
opens containing x) and from nothing else.  ``int_g``: each point is
marked at each of its neighbourhood values, then every entry is ORed
into its supersets.  ``cl_g`` comes from its own definition, not as the
dual of ``int_g``: a point is missing from cl_g(A) iff one of its values
is disjoint from A, so each point is marked at the complements of its
values and every entry is ORed into its subsets.  The duality between
the two operators is therefore a checked property, not an
implementation shortcut.

Those values and the operation's values at the non-empty opens
determine each other (the lemma in ``Space``), so the tables are built
once per distinct slice ``extension[1:]`` on a topology object, not once
per space.  Two operations that differ only at the empty set share one
slice: the 9,048 3-point table spaces give 1,131 slices, which give 507
operator classes (below).  A sweep works per slice as well.
``operations_for`` lists each distinct extension once, in blocks
(``OperationBlock``) that list the slices and the values at the empty
set apart: a builtin or pivot is a block of one row with its operation,
and the tables are one block without one (a table operation is its
values over the sorted opens, so a row's values give it).
``theoremlab``'s walk builds one ``Space`` per slice and reads every
later operation of the slice through that space, checking only its
value at the empty set.

One memo holds what is computed from a space (``per_operator_class``).
Every derived value, the open/regular operation flags included, reads
only the ground set, the topology and the two operator tables, so it is
a function of the space's *operator class* (topology, int_g, cl_g) and
is kept once per class: in a memo owned by the ``Topology`` object,
shared by every space on that object with equal tables.  The 9,048
3-point table spaces fall into 507 classes.  The one value that reads
the operation's own values is the space's key, ``Space.key``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field
from .finspace import (
    MAX_TABLE_POINTS,
    PointSet,
    SizeTooLarge,
    Topology,
    closure,
    inside_table,
    interior,
    meeting_table,
    submasks,
)
from .jsonout import Framed

KINDS = ("identity", "closure", "int_closure", "pivot", "table")
BRANCHES = ("id", "cl", "intcl")


class GammaError(ValueError):
    """Base class for operation failures."""


class NotAnOpenSet(GammaError):
    pass


class GammaNotExpansive(GammaError):
    def __init__(self, ground: PointSet, open_mask: int, value_mask: int):
        self.open_mask = open_mask
        self.value_mask = value_mask
        super().__init__(
            f"value {ground.format(value_mask)} does not contain the open set "
            f"{ground.format(open_mask)}"
        )


class InvalidOperation(GammaError):
    pass


class TableModeTooLarge(GammaError, SizeTooLarge):
    """Tables are enumerated over at most ``MAX_TABLE_POINTS`` points."""


# a builtin kind is the pivot branch it applies to every open
_BUILTIN_BRANCH = {"identity": "id", "closure": "cl", "int_closure": "intcl"}


def _branch_values(top: Topology, branch: str) -> tuple[int, ...]:
    """The values of a pivot branch over ``top.opens_sorted``: the opens
    themselves (id), their closures (cl), or the interiors of those
    closures (intcl).  Computed once per topology (``top.extensions``)."""
    values = top.extensions.get(branch)
    if values is None:
        if branch == "id":
            values = top.opens_sorted
        elif branch == "cl":
            values = tuple(closure(top, v) for v in top.opens_sorted)
        else:
            values = tuple(interior(top, c) for c in _branch_values(top, "cl"))
        top.extensions[branch] = values
    return values


@dataclass(frozen=True)
class GammaOperation:
    """One of five operation kinds.

    ``pivot`` applies *in_branch* to opens containing the pivot point and
    *out_branch* to the rest; branches are id, cl (closure) or intcl
    (interior of closure).  ``identity``, ``closure`` and ``int_closure``
    apply the branch id, cl or intcl to every open: a pivot whose two
    branches agree, so one branch table serves all four kinds.  ``table``
    lists its ``values``, one per open of ``top.opens_sorted`` in order.
    """

    kind: str
    pivot: str | None = None
    in_branch: str | None = None
    out_branch: str | None = None
    values: tuple[int, ...] | None = None

    def __post_init__(self):
        """Each kind takes its own fields and refuses the others', so two
        equal maps of one kind are one key of ``top.extensions``."""
        if self.kind not in KINDS:
            raise InvalidOperation(f"unknown operation kind {self.kind!r}")
        pivot_fields = (self.pivot, self.in_branch, self.out_branch)
        if self.kind == "table":
            if pivot_fields != (None, None, None):
                raise InvalidOperation("table operations take no pivot or branches")
            values = tuple(self.values or ())
            if not values:
                raise InvalidOperation("table operations need at least the empty set's value")
            object.__setattr__(self, "values", values)
        elif self.values is not None:
            raise InvalidOperation(f"{self.kind} operations take no values")
        elif self.kind == "pivot":
            if self.pivot is None or self.in_branch not in BRANCHES or self.out_branch not in BRANCHES:
                raise InvalidOperation("pivot operations need a pivot point and two branches")
        elif pivot_fields != (None, None, None):
            raise InvalidOperation(f"{self.kind} operations take no extra fields")

    def extension(self, top: Topology) -> tuple[int, ...]:
        """Raw values over ``top.opens_sorted`` (no expansiveness check
        here); two operations are the same map iff their extensions agree.
        A table's extension is its values, one per open."""
        opens = top.opens_sorted
        if self.kind == "table":
            if len(self.values) != len(opens):
                raise InvalidOperation("a table operation takes one value per open set")
            return self.values
        if self.kind != "pivot":
            return _branch_values(top, _BUILTIN_BRANCH[self.kind])
        bit = 1 << top.ground.index(self.pivot)
        inside = _branch_values(top, self.in_branch)
        outside = _branch_values(top, self.out_branch)
        return tuple(i if v & bit else o for v, i, o in zip(opens, inside, outside))


def _extension(top: Topology, op: GammaOperation) -> tuple[int, ...]:
    """``op.extension(top)``, computed once per topology for a builtin or
    pivot that a space uses (``top.extensions``; ``operations_for`` puts
    in the ones it keeps); a table's extension is its own values, its
    length checked against the opens on every call."""
    if op.kind == "table":
        return op.extension(top)
    ext = top.extensions.get(op)
    if ext is None:
        ext = top.extensions[op] = op.extension(top)
    return ext


@dataclass(frozen=True, slots=True)
class SpaceKey:
    """Enough data to rebuild a space bit-exactly (operation as a table:
    ``gamma_values`` are its ``values``), and the frame of its group
    (``slice_frame``), if a walk made it."""

    points: tuple[str, ...]
    opens: tuple[int, ...]
    gamma_kind: str
    gamma_values: tuple[int, ...]
    frame: dict | None = field(default=None, compare=False, repr=False)
    # the payload, built by the first ``to_dict``
    _payload: dict | None = field(default=None, init=False, compare=False, repr=False)

    def to_dict(self) -> dict:
        """The space as JSON values, built on first use and then returned
        to every payload on this key.  Its label lists are shared with every
        other payload over the same points (``PointSet.label_list``), and
        its ``points`` and ``opens`` lists with every key on the same
        topology (``_opens_lists``).  No caller mutates a result, and none
        may.  The payload is a ``jsonout.Framed`` on its group's frame,
        scoped by the topology's ``opens`` list: it takes everything but the
        label list of its value at the empty set from the frame, and machine
        output writes the frame's text once per group and indent, and each
        key as that text around its value at the empty set.  The keys of one
        walk group share its ``frame``; any other key, such as a document's,
        is a group of one and makes its own, so the verdicts that carry it
        write its text once."""
        payload = self._payload
        if payload is None:
            frame = self.frame or self.slice_frame(
                self.points, self.opens, self.gamma_kind, self.gamma_values)
            fill = _ground(self.points).label_list(self.gamma_values[0])
            # a copy is allocated to size, unlike [fill, *tail]
            values = frame["gamma"]["values"].copy()
            values[0] = fill
            payload = Framed(points=frame["points"], opens=frame["opens"],
                             gamma={"kind": self.gamma_kind, "values": values})
            payload.frame, payload.fill, payload.scope = frame, (fill,), frame["opens"]
            # a frozen dataclass: set the cache past its __setattr__
            object.__setattr__(self, "_payload", payload)
        return payload

    @staticmethod
    def slice_frame(points, opens, gamma_kind, gamma_values) -> dict:
        """The frame (``jsonout.Framed``) of the keys of one group: one
        slice, ``gamma_values[1:]``, and one kind.  It is a payload with
        ``Framed.HOLE`` for the label list of the value at the empty set.
        By the lemma in ``Space`` the keys of a slice differ at most there;
        the kind is part of the frame, because a builtin's group and table
        rows may share a slice.  Its label lists are built once per group,
        not once per key."""
        points_list, opens_list = _opens_lists(points, opens)
        values = label_lists(points, gamma_values)
        values[0] = Framed.HOLE
        return {"gamma": {"kind": gamma_kind, "values": values},
                "opens": opens_list, "points": points_list}


def label_lists(points: tuple[str, ...], masks) -> list:
    """The shared label list (``PointSet.label_list``) of each of *masks*,
    over the ground set with labels *points*."""
    lists = _ground(points).label_list
    return [lists(m) for m in masks]


@functools.lru_cache(maxsize=1)
def _opens_lists(points: tuple[str, ...], opens: tuple[int, ...]) -> tuple[list, list]:
    """The ``points`` label list and the ``opens`` list of label lists of
    one topology.  A walk builds the keys of one topology before the next,
    so one entry serves every key on it."""
    ground = _ground(points)
    return ground.label_list(ground.full_mask), label_lists(points, opens)


@functools.lru_cache(maxsize=64)
def _ground(points: tuple[str, ...]) -> PointSet:
    """One validated ground set, and so one label-list cache, per label tuple."""
    return PointSet(points)


@dataclass(frozen=True)
class Space:
    """Ground set, topology and operation: the context of every classifier.

    ``int_g`` and ``cl_g`` hold the two operators, indexed by subset mask;
    ``extension`` holds the operation's values over the sorted opens.
    ``_class_memo`` is the memo shared with the spaces on the same
    ``Topology`` object with equal operators.

    Each value is checked for this space, against the ground set and for
    expansiveness.  Then the tables and the memo come from the topology's
    ``operator_tables`` entry for ``extension[1:]``, the values at every
    open but the empty set, made by the first space with that slice: of
    the 9,048 3-point table spaces, 1,131 build tables, and they fall into
    507 classes.

    Lemma: on one topology, two operations have equal slices iff they
    have equal per-point neighbourhood values, the one input of the
    tables.  The empty set is the first of the sorted opens, and its
    value is in no point's values.  Every other open U contains some
    point x, and the value at U sits at a fixed position in x's tuple
    (the rank of U among the opens at x).  So the slice gives every
    tuple, and the tuples give every entry of the slice.  The tuples are
    therefore built only on a miss, to fill the tables.

    So a sweep builds one space per slice (``theoremlab.enumerate_slices``)
    and checks a later operation of the slice at its one new value, the
    empty set's, against the ground set alone.  Its other values are the
    first space's, already checked on the same topology; and every value
    contains the empty set, so that value is expansive.  Each block of
    ``operations_for`` lists its slices apart from its values at the
    empty set: a builtin or pivot has one of each, and in the table
    block, as the empty set is the first open, ``itertools.product``
    puts its value outermost, so the table with value e there and slice s
    elsewhere is row rank(e) * (number of slices) + rank(s) of the block.
    The walk reads each slice once, with every value at the empty set
    checked once per block, and gives a row its index by that
    arithmetic, so it visits only the rows that a caller reports.
    """

    ground: PointSet
    top: Topology
    gamma: GammaOperation

    def __post_init__(self):
        if self.top.ground != self.ground:
            raise GammaError("topology is defined over a different ground set")
        opens = self.top.opens_sorted
        extension = _extension(self.top, self.gamma)
        full = self.ground.full_mask
        for v, value in zip(opens, extension):
            if not 0 <= value <= full:
                self.ground.check_mask(value)  # raises
            if v & ~value:
                raise GammaNotExpansive(self.ground, v, value)
        object.__setattr__(self, "extension", extension)
        tables = self.top.operator_tables.get(extension[1:])
        if tables is None:
            nbds = [list(itertools.compress(extension, opens_at))
                    for opens_at in self.top.opens_at_points]
            # expansiveness puts each point inside its values, so int_g(A) <= A
            int_g = inside_table(len(nbds), nbds)
            cl_g = meeting_table(len(nbds), nbds)
            class_memo = self.top.operator_memos.setdefault((int_g, cl_g), {})
            tables = self.top.operator_tables[extension[1:]] = (int_g, cl_g, class_memo)
        int_g, cl_g, class_memo = tables
        object.__setattr__(self, "int_g", int_g)
        object.__setattr__(self, "cl_g", cl_g)
        object.__setattr__(self, "_class_memo", class_memo)

    @functools.cached_property
    def key(self) -> SpaceKey:
        """The space's key: it reads the operation's values, which two
        spaces of one operator class can give differently, so it is kept
        per space."""
        return SpaceKey(self.ground.labels, self.top.opens_sorted, self.gamma.kind, self.extension)


def apply_gamma(sp: Space, v: int) -> int:
    """Value of the operation at the open set *v*."""
    try:
        return sp.extension[sp.top.opens_sorted.index(v)]
    except ValueError:
        raise NotAnOpenSet(f"{sp.ground.format(v)} is not an open set") from None


def gamma_interior(sp: Space, a: int) -> int:
    """Points of *a* owning an open neighbourhood whose value lies inside *a*."""
    sp.ground.check_mask(a)
    return sp.int_g[a]


def gamma_closure(sp: Space, a: int) -> int:
    """Points all of whose open neighbourhoods have values meeting *a*."""
    sp.ground.check_mask(a)
    return sp.cl_g[a]


_MISSING = object()


def per_operator_class(fn):
    """Decorate ``fn(sp, *args)`` to run once per operator class and
    argument tuple.

    For the functions that read only ``sp.ground``, ``sp.top``, ``sp.int_g``,
    ``sp.cl_g`` and other such functions.  Lemma: such a function takes
    equal values on two spaces with the same topology object and equal
    operator tables (by induction on the depth of its calls; the ground
    set is the topology's).  So the first space of a class computes the
    value and the others read it.

    The value is kept in the class memo under the returned wrapper and
    the arguments.  This is the only code that reads or writes the memo.
    Arguments are positional only: a keyword call raises ``TypeError``,
    and so does decorating a function with defaulted parameters, which
    would give ``f(sp)`` and ``f(sp, default)`` two entries."""
    if fn.__defaults__ or fn.__kwdefaults__:
        raise TypeError(f"{fn.__qualname__}: a memoised function takes no defaults")

    @functools.wraps(fn)
    def once_per_args(sp, *args):
        # a wrong argument count makes the call below raise before
        # anything is stored
        key = (once_per_args,) + args
        memo = sp._class_memo
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = fn(sp, *args)
        return value

    return once_per_args


@per_operator_class
def gamma_open_family(sp: Space) -> tuple[int, ...]:
    """All fixed points of gamma_interior, ascending."""
    return tuple(m for m, gi in enumerate(sp.int_g) if gi == m)


@per_operator_class
def is_regular_operation(sp: Space) -> bool:
    """True iff any two neighbourhood values are refined by a third:
    for every x and opens U, V at x there is an open W at x with
    value(W) inside value(U) & value(V).

    On finitely many values that holds iff one value at x lies inside
    their meet K_x (fold the refinement over the values; the converse is
    plain), i.e. iff x is in int_g(K_x): the finite-directedness fact of
    the tail/range lemma in ``theoremlab``.  Lemma: x is in int_g(A) iff
    some value at x lies inside A, so those A are the supersets of the
    values at x and K_x is their meet: y is in K_x iff x is not in
    int_g(X - {y})."""
    n, ig = sp.ground.n, sp.int_g
    full = sp.ground.full_mask
    co_points = [ig[full ^ 1 << y] for y in range(n)]
    for x in range(n):
        kernel = sum(1 << y for y, c in enumerate(co_points) if not c >> x & 1)
        if not ig[kernel] >> x & 1:
            return False
    return True


@per_operator_class
def is_open_operation(sp: Space) -> bool:
    """True iff every neighbourhood value holds a gamma-open
    neighbourhood of the point: for every x and open U at x, a gamma-open
    V with x in V inside value(U).

    Lemma: that holds iff int_g(A) is gamma-open for every A.  As x is in
    int_g(A) iff some value at x lies inside A, the largest gamma-open
    subset G(A) of A is inside int_g(A).  If the operation is open, a
    value(U) inside A at x holds a gamma-open V at x, inside G(A): so
    int_g(A) = G(A).  Conversely x is in int_g(value(U)), a gamma-open
    set inside value(U)."""
    ig = sp.int_g
    return all(ig[g] == g for g in ig)


def check_table_points(n: int) -> None:
    """Raise ``TableModeTooLarge`` unless tables over *n* points are
    enumerated."""
    if n > MAX_TABLE_POINTS:
        raise TableModeTooLarge(
            f"table enumeration is limited to {MAX_TABLE_POINTS}-point ground sets"
        )


def _table_options(top: Topology) -> list[list[int]]:
    """Per open of ``top.opens_sorted``, its supersets ascending: the
    values an expansive table takes there (ground sets of at most 3
    points)."""
    check_table_points(top.ground.n)
    full = top.ground.full_mask
    return [sorted(v | s for s in submasks(full ^ v)) for v in top.opens_sorted]


def _product_rank(options, values) -> int | None:
    """The position of *values* in ``itertools.product(*options)``, each
    option list ascending; None if it is not there."""
    rank = 0
    for opts, x in zip(options, values):
        i = bisect.bisect_left(opts, x)
        if i == len(opts) or opts[i] != x:
            return None
        rank = rank * len(opts) + i
    return rank


@dataclass(frozen=True)
class OperationBlock:
    """Operations over one topology, listed per slice: the walk's one
    kind of entry (``operations_for``).

    A kept builtin or pivot is a block of one row, with ``op`` the
    operation.  The ``all_tables`` mode is one block with ``op`` None: a
    row's operation is the table with the row's values.
    ``itertools.product`` over the opens' supersets (``_table_options``)
    puts the empty set, the first open, outermost.  So its row at position
    rank(e) * len(slices) + rank(s) is the table with value e at the empty
    set and slice s at the other opens: ``empties`` lists the values at
    the empty set (every subset, ascending) and ``slices`` the slices, in
    product order.  ``dropped`` lists ascending the positions of the rows
    whose extension an earlier mode listed: they are not listed, and every
    later row's operation index is its block offset plus its position,
    less the dropped positions before it."""

    empties: tuple[int, ...]
    slices: tuple[tuple[int, ...], ...]
    dropped: tuple[int, ...] = ()
    op: GammaOperation | None = None


def enumerate_gamma_operations(top: Topology, mode: str):
    """Stream candidate operations over *top* in a fixed order.

    builtins    -> the three named operations, always all three;
    pivots      -> every pivot point x branch pair;
    all_tables  -> every expansive table (ground sets of at most 3 points),
                   in the order of ``itertools.product`` over
                   ``_table_options``.
    """
    if mode == "builtins":
        yield GammaOperation("identity")
        yield GammaOperation("closure")
        yield GammaOperation("int_closure")
        return
    if mode == "pivots":
        for label in top.ground.labels:
            for in_b, out_b in itertools.product(BRANCHES, repeat=2):
                yield GammaOperation("pivot", pivot=label, in_branch=in_b, out_branch=out_b)
        return
    if mode == "all_tables":
        for values in itertools.product(*_table_options(top)):
            yield GammaOperation("table", values=values)
        return
    raise GammaError(f"unknown enumeration mode {mode!r}")


def operations_for(top: Topology, modes) -> list:
    """The operations over *top*, one per distinct extension, as
    ``OperationBlock`` entries: the modes' operations in turn, each kept
    only if no earlier one has its extension.  A builtin or pivot is a
    block of one row.  The ``all_tables`` mode lists one block: its
    product runs over the non-empty opens only (1,131 slices for the
    9,048 3-point tables), and the values at the empty set are listed
    once.  Its rows carry no operation: a row's extension is its table's
    values, and a caller that needs the operation builds it from them.

    A builtin or pivot is expansive, so its extension is a row of the
    table block: one after the block is never kept, and one before it
    drops that row, so the block drops at most one row per builtin and
    pivot kept.  A second ``all_tables`` lists nothing."""
    seen = set()
    blocks = []
    options = None
    for mode in modes:
        if mode != "all_tables":
            for op in enumerate_gamma_operations(top, mode):
                ext = op.extension(top)
                if ext not in seen and (options is None or _product_rank(options, ext) is None):
                    seen.add(ext)
                    # its space reads it back (``_extension``); a dropped
                    # operation's is not kept
                    top.extensions[op] = ext
                    blocks.append(OperationBlock((ext[0],), (ext[1:],), op=op))
        elif options is None:
            options = _table_options(top)
            ranks = (_product_rank(options, ext) for ext in seen)
            blocks.append(OperationBlock(tuple(options[0]),
                                         tuple(itertools.product(*options[1:])),
                                         tuple(sorted(r for r in ranks if r is not None))))
    return blocks
