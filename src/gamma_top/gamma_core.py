"""Expansive operations on the open sets of a topology and the two
operators they induce.

An operation assigns to every open set V a superset V^g (expansiveness is
the one axiom).  From it we derive:

* ``gamma_interior(A)`` -- points of A with an open neighbourhood whose
  value lies inside A;
* ``gamma_closure(A)``  -- points all of whose open neighbourhoods have
  values meeting A.

Both operators are tables over all 2**n subsets, filled from the
operation's values at the opens and from nothing else.  ``int_g``: each
open U marks its value with the points of U (each point at each of its
neighbourhood values), then every entry is ORed into its supersets.
``cl_g`` comes from its own definition, not as the dual of ``int_g``: a
point is missing from cl_g(A) iff one of its values is disjoint from A,
so each open U marks the complement of its value with the points of U,
and every entry is ORed into its subsets.  Both passes are the one
packed kernel ``finspace.closed_lanes``, run once per table and per
space.  The duality between the two operators is therefore a checked
property, not an implementation shortcut.

The two packed tables are the key of the operation's operator class
(``OperatorClass``) in its topology's ``operator_memos``
(``operator_class``), so the tuples ``int_g`` and ``cl_g`` are unpacked
once per class, not once per space: the 9,048 3-point table spaces fall
into 507 classes.  Two operations that differ only at the empty set have
equal tables, as the empty set is in no point's neighbourhood, and share
one slice ``extension[1:]``: the 9,048 table spaces give 1,131 slices.
A sweep works per slice.  ``operations_for`` lists each distinct
extension once, in blocks (``OperationBlock``) that list the slices and
the values at the empty set apart: a builtin or pivot is a block of one
row with its operation, and the tables are one block without one (a
table operation is its values over the sorted opens, so a row's values
give it).  ``theoremlab``'s walk builds no ``Space``.  The closure of a
list of marks is the OR of the closures of its entries (the OR lemma in
``closed_lanes``), and an open's marks are its value's alone, so a
slice's key is the OR over its opens of the key of each open at its
value (``open_closures``): the walk makes that pair once per topology,
when it first meets it, checked as ``Space`` checks a value, and checks
a block's values at the empty set, which mark nothing, against the
ground set alone.  The 1,131 slices of the 3-point tables meet 245
pairs.  A ``Space``, built for a document, packs its full marks: one
pair per open would cost it two kernel calls per open.

Every value derived from a space but its key, the open/regular
operation flags and the bridge pairings included, reads only the ground
set, the opens and the two operator tables, so it is a function of the
space's operator class (topology, int_g, cl_g).  ``OperatorClass`` holds
those four, one object per class on a ``Topology`` object, shared by
every space of the class (``Space.cls``), and keeps each shared derived
value as a ``finspace.memo_property``.  The one value
that reads the operation's own values is the space's key, ``Space.key``.
The functions here and in ``gamma_sets`` that take a space read its
class.
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
    closed_lanes,
    closure,
    interior,
    lane_bits,
    lowest_lane,
    meet_lanes,
    meeting_lanes,
    memo_property,
    step_lanes,
    submasks,
    unpack_lanes,
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
    closures (intcl).  Computed once per topology and branch, and kept in
    ``top.extensions``, which holds these three tables and nothing else."""
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
        """Each kind takes its own fields and refuses the others'; a
        table's values become a tuple."""
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
            payload = framed_space(frame, _ground(self.points).label_list(self.gamma_values[0]))
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


def framed_space(frame: dict, fill: list) -> Framed:
    """The space payload on the group frame *frame* (``SpaceKey.slice_frame``)
    whose value at the empty set has the label list *fill*: a
    ``jsonout.Framed`` scoped by the topology's ``opens`` list, which shares
    every list but its ``values`` with the frame."""
    gamma = frame["gamma"]
    # a copy is allocated to size, unlike [fill, *tail]
    values = gamma["values"].copy()
    values[0] = fill
    payload = Framed(points=frame["points"], opens=frame["opens"],
                     gamma={"kind": gamma["kind"], "values": values})
    payload.frame, payload.fill, payload.scope = frame, (fill,), frame["opens"]
    return payload


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
    ``cls`` is the space's ``OperatorClass``, shared with the spaces on
    the same ``Topology`` object with equal operators.

    Each value is checked for this space, against the ground set and for
    expansiveness, and marks the two tables (module docstring).  Then the
    two packed tables (``finspace.closed_lanes``) are the key of the
    topology's ``operator_memos`` entry, the class (``operator_class``),
    made by the first space or walk slice of the class, which unpacks the
    tables.

    Lemma: on one topology, two operations have equal slices
    ``extension[1:]`` iff they have equal per-point neighbourhood values.
    The empty set is the first of the sorted opens, and its value is in
    no point's values.  Every other open U contains some point x, and the
    value at U sits at a fixed position in x's tuple (the rank of U among
    the opens at x).  So the slice gives every tuple, and the tuples give
    every entry of the slice.  The tables read only those values, so the
    operations of one slice are of one class; the class needs no slice,
    and the lemma serves the walk's check at the empty set alone.

    So a sweep keys each slice once (``theoremlab.enumerate_slices``,
    which builds no space) and checks a later operation of the slice at
    its one new value, the empty set's, against the ground set alone.  Its
    other values are the slice's, already checked on the same topology;
    and every value contains the empty set, so that value is expansive.
    Each block of ``operations_for`` lists its slices apart from its
    values at the empty set: a builtin or pivot has one of each, and in
    the table block, as the empty set is the first open,
    ``itertools.product`` puts its value outermost, so the table with
    value e there and slice s elsewhere is row rank(e) * (number of
    slices) + rank(s) of the block.
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
        ground, opens = self.ground, self.top.opens_sorted
        extension = self.gamma.extension(self.top)
        full = ground.full_mask
        # each open U marks its value for int_g, and the complement of its
        # value for the misses of cl_g, with every point of U at once; a
        # value is checked before it marks anything
        inside = [0] * (full + 1)
        misses = [0] * (full + 1)
        for v, value in zip(opens, extension):
            if v & ~value or not 0 <= value <= full:
                check_value(ground, v, value)  # raises
            inside[value] |= v
            misses[full ^ value] |= v
        object.__setattr__(self, "extension", extension)
        n = ground.n
        cls = operator_class(self.top, (closed_lanes(n, inside, True), closed_lanes(n, misses, False)))
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "int_g", cls.int_g)
        object.__setattr__(self, "cl_g", cls.cl_g)

    @memo_property
    def key(self) -> SpaceKey:
        """The space's key: it reads the operation's values, which two
        spaces of one operator class can give differently, so it is kept
        per space."""
        return SpaceKey(self.ground.labels, self.top.opens_sorted, self.gamma.kind, self.extension)


def check_value(ground: PointSet, v: int, value: int) -> None:
    """Raise unless *value* fits the ground set and contains the open *v*:
    the checks on an operation's value at an open."""
    if not 0 <= value <= ground.full_mask:
        ground.check_mask(value)  # raises
    if v & ~value:
        raise GammaNotExpansive(ground, v, value)


def operator_class(top: Topology, key: tuple[int, int]) -> OperatorClass:
    """The class on *top* whose packed tables (``finspace.closed_lanes``)
    are *key*: the int_g table and the misses of cl_g, the one key of
    ``top.operator_memos``.  The first key of a class makes it, and only
    then are the tables unpacked.  ``Space`` and ``theoremlab``'s walk
    both find a class here."""
    cls = top.operator_memos.get(key)
    if cls is None:
        n = top.ground.n
        # expansiveness puts each point inside its values, so int_g(A) <= A
        cls = top.operator_memos[key] = OperatorClass(
            top.ground, top.opens, unpack_lanes(n, key[0]), unpack_lanes(n, key[1], flip=True))
    return cls


def open_closures(ground: PointSet, v: int, value: int) -> tuple[int, int]:
    """The key (``operator_class``) of the marks of the open *v* alone at
    *value*: value marked with v and closed upwards, for int_g, and its
    complement marked with v and closed downwards, for the misses of
    cl_g.  *value* is checked first, as ``Space`` checks it
    (``check_value``).

    By the OR lemma in ``closed_lanes``, a space's key is the OR, over its
    opens, of these pairs at its values; the empty set marks nothing."""
    check_value(ground, v, value)
    n, full = ground.n, ground.full_mask
    inside = [0] * (full + 1)
    misses = [0] * (full + 1)
    inside[value] = misses[full ^ value] = v
    return closed_lanes(n, inside, True), closed_lanes(n, misses, False)


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


class OperatorClass:
    """The operator class of the spaces on one ``Topology`` object with
    equal operator tables: the ground set, the opens, and the tables
    ``int_g`` and ``cl_g``.  The values derived from them that callers
    share (families, flags, the theta and filterbase tables, the bridge
    pairings) are ``memo_property`` here, computed by the first space of
    the class that asks and read by the others; claim checkers, invariants
    and statistics take the class as their argument.

    Lemma: a value that reads only the ground set, the opens and the two
    tables takes one value on the spaces of one class, as they give the
    same four.  A property here can read nothing else: the class holds no
    ``gamma``, ``extension`` or ``key``.  Nor does it hold the topology,
    which holds it (``Topology.operator_memos``): that cycle would keep the
    class, with every table it has cached, alive past its last space,
    until a garbage collection."""

    def __init__(self, ground: PointSet, opens: frozenset, int_g: tuple, cl_g: tuple):
        self.ground = ground
        self.opens = opens
        self.int_g = int_g
        self.cl_g = cl_g

    @memo_property
    def gamma_open(self) -> tuple[int, ...]:
        """All fixed points of gamma_interior, ascending."""
        return tuple(m for m, gi in enumerate(self.int_g) if gi == m)

    @memo_property
    def regular_open(self) -> tuple[int, ...]:
        """The sets A with int_g(cl_g(A)) = A, ascending."""
        ig = self.int_g
        return tuple(m for m, c in enumerate(self.cl_g) if ig[c] == m)

    @memo_property
    def regular_operation(self) -> bool:
        """True iff any two neighbourhood values are refined by a third:
        for every x and opens U, V at x there is an open W at x with
        value(W) inside value(U) & value(V).

        On finitely many values that holds iff one value at x lies inside
        their meet K_x (fold the refinement over the values; the converse is
        plain), i.e. iff x is in int_g(K_x): the finite-directedness fact of
        the tail/range lemma below.  Lemma: x is in int_g(A) iff some value
        at x lies inside A, so those A are the supersets of the values at x
        and K_x is their meet: y is in K_x iff x is not in
        int_g(X - {y})."""
        n, ig = self.ground.n, self.int_g
        full = self.ground.full_mask
        co_points = [ig[full ^ 1 << y] for y in range(n)]
        for x in range(n):
            kernel = sum(1 << y for y, c in enumerate(co_points) if not c >> x & 1)
            if not ig[kernel] >> x & 1:
                return False
        return True

    @memo_property
    def open_operation(self) -> bool:
        """True iff every neighbourhood value holds a gamma-open
        neighbourhood of the point: for every x and open U at x, a gamma-open
        V with x in V inside value(U).

        Lemma: that holds iff int_g(A) is gamma-open for every A.  As x is in
        int_g(A) iff some value at x lies inside A, the largest gamma-open
        subset G(A) of A is inside int_g(A).  If the operation is open, a
        value(U) inside A at x holds a gamma-open V at x, inside G(A): so
        int_g(A) = G(A).  Conversely x is in int_g(value(U)), a gamma-open
        set inside value(U)."""
        ig = self.int_g
        return all(ig[g] == g for g in ig)

    @memo_property
    def extremally_disconnected(self) -> bool:
        """True iff the gamma-closure of every gamma-open set is gamma-open."""
        ig, cg = self.int_g, self.cl_g
        return all(ig[cg[u]] == cg[u] for u in self.gamma_open)

    @memo_property
    def theta_lanes(self) -> int:
        """The theta closure as a packed meeting table
        (``finspace.meeting_lanes``): per subset, the points x such that
        the gamma-closure of every gamma-open set at x meets it.  The
        gamma-closure of a gamma-open U is a test set at exactly the points
        of U, so each U marks the complement of cl_g(U) with its points."""
        full, cg = self.ground.full_mask, self.cl_g
        misses = [0] * (full + 1)
        for u in self.gamma_open:
            misses[full ^ cg[u]] |= u
        return meeting_lanes(self.ground.n, misses)

    @memo_property
    def theta_closure(self) -> tuple[int, ...]:
        """The theta closure over every subset, indexed by mask
        (``theta_lanes`` unpacked)."""
        return unpack_lanes(self.ground.n, self.theta_lanes)

    @memo_property
    def theta_families(self) -> tuple:
        """(theta_closed, theta_open): fixed points of the theta closure and
        their complements, both ascending."""
        full = self.ground.full_mask
        closed = tuple(m for m, t in enumerate(self.theta_closure) if t == m)
        # complements of an ascending family, ascending
        return closed, tuple(full ^ m for m in reversed(closed))

    @memo_property
    def principal_verdicts(self) -> dict:
        """Per test family, the ``PrincipalVerdicts`` of every one-member
        filterbase {M}: against regular-open neighbourhoods
        (``regular_open``) and against gamma-closures of gamma-open ones
        (``gamma_open_cl``), each a pair of packed tables
        (``finspace.closed_lanes``) indexed by M.

        {M} accumulates at x iff M meets each test set at x: a meeting
        table (``finspace.meeting_lanes``).  A regular-open A is a test
        set at exactly the points of A, so it marks the complement of A
        with A; against the gamma-closures the table is ``theta_lanes``,
        read rather than built again.  {M} converges at x iff M is inside
        K_x, the meet of x's test sets, so lane M of ``conv`` is the meet
        of its lanes {p} over the points p of M.  And p is in K_x iff
        every test set at x holds p, iff {p} accumulates at x: so ``conv``
        is the ``finspace.meet_lanes`` of the n singleton lanes of
        ``acc``.  Equal ``acc`` tables give equal ``conv`` tables, so the
        two families then share one object."""
        n, full = self.ground.n, self.ground.full_mask
        misses = [0] * (full + 1)
        for a in self.regular_open:
            misses[full ^ a] |= a
        accumulates, theta = meeting_lanes(n, misses), self.theta_lanes
        closures = PrincipalVerdicts(n, meet_lanes(n, theta), theta)
        regular = closures if accumulates == theta else PrincipalVerdicts(
            n, meet_lanes(n, accumulates), accumulates)
        return {"regular_open": regular, "gamma_open_cl": closures}

    @memo_property
    def bridge_pairings(self) -> dict:
        """First mismatch witness per (test family, accumulation reading)
        pairing, for the net/tail-filterbase bridge and for the
        filterbase/constructed-net bridge.  The witnesses are the first
        failing net of the oracle's ``enumerate_nets`` and the first
        failing filterbase of its ``enumerate_filterbases``, in the orders
        of ``tests/test_bridge_oracle.py``, found without enumerating
        either, by the lane lemma below: the first failing kernel is the
        lowest non-zero lane of one packed disagreement table per pairing,
        and the first failing net the first ``_first_nets`` row whose lanes
        disagree.  ``_class_mismatch`` reads each witness's point and part
        at its class."""
        verdicts = self.principal_verdicts
        net = verdicts["gamma_open_cl"]
        steps = step_lanes(self.ground.n, net.conv)
        decided = {}
        result = {}
        for pairing, fam, reading in _PAIRING_PARTS:
            fb = verdicts[fam]
            # one table object for both families decides both pairings of a reading
            if (fb, reading) not in decided:
                decided[fb, reading] = _pairing_witnesses(self, fb, net, reading, steps)
            result[pairing] = decided[fb, reading]
        return result


def gamma_open_family(sp: Space) -> tuple[int, ...]:
    """All fixed points of gamma_interior, ascending (``OperatorClass``)."""
    return sp.cls.gamma_open


def is_regular_operation(sp: Space) -> bool:
    """``OperatorClass.regular_operation`` of the space's class."""
    return sp.cls.regular_operation


def is_open_operation(sp: Space) -> bool:
    """``OperatorClass.open_operation`` of the space's class."""
    return sp.cls.open_operation


class PrincipalVerdicts:
    """The verdicts of every one-member filterbase {M} against one test
    family, as two packed tables over the n points
    (``finspace.closed_lanes``), ``bits`` wide per lane: lane M of ``conv``
    holds the points x with M <= K_x, and lane M of ``acc`` the points at
    which {M} accumulates.  ``finspace.unpack_lanes`` gives either as a
    tuple."""

    def __init__(self, n: int, conv: int, acc: int):
        self.bits = lane_bits(n)
        self.conv = conv
        self.acc = acc


# -- the bridge pairings ---------------------------------------------------

NET_SIZE_CAP = 3
PAIRINGS = (
    "regular_open+standard",
    "regular_open+literal",
    "gamma_open_cl+standard",
    "gamma_open_cl+literal",
)
DEFAULT_PAIRING = "regular_open+standard"
# each pairing with its test family and its accumulation reading
_PAIRING_PARTS = tuple((pairing, *pairing.split("+")) for pairing in PAIRINGS)


# Filterbase convergence and accumulation test against regular-open
# neighbourhoods; net convergence and accumulation test against
# gamma-closures of gamma-open neighbourhoods.  Both test families are kept
# (``PAIRINGS``) because the two do not coincide in general (they do at
# every point of an open ED space, by the open + ED lemma in ``theoremlab``,
# (c)); the bridge claims compare all pairings.
#
# Lemma (tail/range classes).  Let v be a net on a finite directed preorder
# D, and write up(i) = {j : i <= j}.  The top class top(D) = {t : i <= t for
# every i} is non-empty: folding upper bounds over the finitely many
# elements yields one above all of them.  Every up(i) contains top(D), and
# up(t) = top(D) for t in top(D).  Put T = v(top(D)), the eventual tail, and
# R = v(D), the range.  For a test set C:
#
# * v is eventually in C (some up(i) maps into C) iff T is inside C:
#   take i in top(D) one way, use v(up(i)) >= T the other;
# * v is frequently in C (every up(i) meets v^-1(C)) iff T meets C:
#   every up(i) contains top(D), and up(t) = top(D);
# * every index lands in C iff R is inside C.
#
# So net convergence, cofinal accumulation and literal accumulation depend
# on (T, R) alone.  The tail filterbase {v(up(i))} has T = v(up(t)) as a
# member contained in every other one, so its kernel is T; its union is R
# because i is in up(i).  On a finite set directedness puts the kernel K of
# any filterbase into the family, below every member, so the filterbase
# converges to / accumulates at a test set iff K is inside / meets it: its
# verdicts depend on K alone.  It is maximal iff |K| = 1, hence a net is
# universal iff |T| = 1.  The constructed net of a filterbase F, on its
# (point, member) pairs ordered by reverse member inclusion, has as top
# class the pairs with member K: tail K, range the union of F.  Lastly
# every pair {} != T <= R is realised by a net on |R| indices (T as a tied
# top class, one index below it per point of R - T), so the nets on at
# most k indices realise exactly the classes with |R| <= k.
#
# So each bridge verdict is a mask expression over the per-subset
# ``principal_verdicts`` tables of one-member bases.  With F the test
# family and G the gamma-closures, and F.conv[T] lane T of F's ``conv``,
# a class (T, R) disagrees at F.conv[T] ^ G.conv[T], or at F.acc[T] ^ N,
# where N is G.acc[T] under the cofinal reading and G.conv[R] under the
# literal one; the first failing point is the lowest set bit.  Only the
# literal reading depends on R.  G.conv[R] is the meet of
# G.conv[T | {p}] over p in R - T, so some R above T changes it iff a
# one-point extension does.  Net classes are filterbase classes (the class
# of the base {T, R}), so when no filterbase disagrees, no net does either.
#
# Lemma (lanes, as in ``finspace.closed_lanes``).  The tables are packed,
# lane M holding entry M, and XOR and OR act on each lane alone: no lane
# carries into the next.  So (F.conv ^ G.conv) | (F.acc ^ N), with N the
# table G.acc (cofinal) or G.conv (literal), holds in lane K the
# disagreement of class (K, K), for every K at once: two XORs and an OR.
# Under the literal reading ``finspace.step_lanes`` ORs in, in n shifts by
# 2**p lanes, lane K non-zero iff a one-point extension K | {p} changes
# G.conv.  A kernel is never empty, and lane 0 is the empty set, so
# the first failing kernel is the lowest non-zero lane above lane 0
# (``finspace.lowest_lane``): the lowest set bit above it, over the lane
# width.  Every T is decided by O(n) operations on one int.  Witnesses are
# built from their classes too (``_first_nets``): nothing here enumerates
# nets, directed sets or filterbases.  ``tests/test_bridge_oracle.py``
# does, over the literal objects of ``tests/literal_convergence.py``, and
# keeps the entry-by-entry scan this replaces.


def _class_mismatch(fb, net, reading: str, t: int, r: int):
    """The first point ``(x, part)`` at which the filterbase verdicts
    (kernel T, tables *fb*) and the net verdicts (tail T, range R, tables
    *net* of gamma-closures) disagree, or None.  By the tail/range lemma
    this decides every net and filterbase of the class.  It reads lanes T
    and R of the packed tables, so no table is unpacked."""
    bits = fb.bits
    ones = (1 << bits) - 1
    at = t * bits
    conv = (fb.conv ^ net.conv) >> at & ones
    # every index lands in each closure iff {R} converges
    net_acc = net.acc >> at if reading == "standard" else net.conv >> r * bits
    bad = conv | (fb.acc >> at ^ net_acc) & ones
    if not bad:
        return None
    x = (bad & -bad).bit_length() - 1
    return x, "convergence" if conv >> x & 1 else "accumulation"


@functools.lru_cache(maxsize=None)
def _first_nets(n: int) -> tuple:
    """``(T, R, size, top, values)`` for each class with |R| <=
    ``NET_SIZE_CAP``, in the order in which the oracle enumeration
    (``tests/test_bridge_oracle.py``) first realises it, with that first
    net: ``values`` on the directed set S(size, top) below.

    Lemma.  The oracle lists directed sets by size k, then by canonical
    form, the least tuple of up-set rows over relabellings; on each, the
    values in lexicographic order.

    * Every up-set holds the top class, so with top size t row 0 is at
      least 2**t - 1, with equality iff indices 0..t-1 are the top class,
      which a relabelling attains.  So for each k the directed sets come
      in ascending t.
    * Row i >= t then holds the top class and i, so the first directed
      set of each (k, t) is S(k, t): t indices tied on top, and every
      other index below them only.  This is the lemma's canonical net.
    * A class depends on the values on the top class (T) and on all
      indices (R) only, so a later directed set of the same (k, t),
      relabelled to top class 0..t-1, realises only classes that S(k, t)
      does with the same values.
    * The t top indices cover T and the other k - t cover R - T, so the
      first shape to realise (T, R) is S(|R|, |T|), with least values T
      ascending, then R - T ascending.

    So the rows are generated directly, in the order above:
    ``itertools.combinations`` lists T, then R - T, lexicographically."""
    rows = []
    for size in range(1, NET_SIZE_CAP + 1):
        for top in range(1, size + 1):
            for head in itertools.combinations(range(n), top):
                t = sum(1 << p for p in head)
                rest = [p for p in range(n) if not t >> p & 1]
                for tail in itertools.combinations(rest, size - top):
                    rows.append((t, t | sum(1 << p for p in tail), size, top, head + tail))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _directed_set(size: int, top: int) -> dict:
    """The directed set S(size, top) of a ``_first_nets`` row as witness
    JSON: i <= j iff i == j or j is in the top class 0..top-1.  One dict
    per shape, shared by every witness on it, which no caller mutates."""
    return {"size": size, "leq": [(i, j) for i in range(size) for j in range(size) if i == j or j < top]}


def _first_net_witness(cls: OperatorClass, row, x: int, part: str) -> dict:
    """The witness of a ``_first_nets`` row: its net on S(size, top)."""
    _, _, size, top, values = row
    labels = cls.ground.labels
    return {
        "directed_set": _directed_set(size, top),
        "values": [labels[p] for p in values],
        "point": labels[x],
        "part": part,
    }


def _pairing_witnesses(cls: OperatorClass, fb, net, reading: str, steps: int) -> dict:
    """The first failing net and filterbase of one pairing, by the lane
    lemma, or None for each that does not fail.  Lane K of ``same`` is the
    disagreement of class (K, K); under the literal reading *steps*
    (``finspace.step_lanes`` of the net's converges table) is ORed in, and
    the first failing kernel is the lowest non-zero lane.

    The first failing filterbase, in the order of the oracle's
    ``enumerate_filterbases`` (``tests/test_bridge_oracle.py``): bases come
    kernel-first, and for one kernel K the base {K} (class (K, K))
    precedes the bases {K, U}, U a proper superset of K in ascending order
    (class (K, U)); larger bases only repeat those classes.  When (K, K)
    holds, (K, U) fails only under the literal reading, and exactly when
    the net's ``converges[U]`` differs from ``converges[K]``: the first
    such U is K plus the lowest point whose one-point extension changes
    it, and lane K | {p} is 2**p lanes above lane K.

    The first failing net is that of the first ``_first_nets`` row whose
    class (T, R) disagrees: lane T of F.conv ^ G.conv, or lane T of F.acc
    against lane T of G.acc (cofinal) or lane R of G.conv (literal),
    tested in place, as ``_class_mismatch`` defines it.  A net class is
    the class of the base {T, R}, so only a pairing with a failing
    filterbase can have one.  ``_class_mismatch`` gives each witness its
    point and part."""
    n, bits = cls.ground.n, fb.bits
    ones = (1 << bits) - 1
    conv = fb.conv ^ net.conv
    other = net.acc if reading == "standard" else net.conv
    same = conv | fb.acc ^ other
    kernel = lowest_lane(n, same if reading == "standard" else same | steps)
    if not kernel:
        return {"C-P4.10": None, "C-P4.11": None}
    members = (kernel,)
    if not same >> kernel * bits & ones:
        above = net.conv >> kernel * bits
        for p in range(n):
            if not kernel >> p & 1 and above >> (bits << p) & ones != above & ones:
                members = (kernel, kernel | 1 << p)
                break
    x, part = _class_mismatch(fb, net, reading, kernel, members[-1])
    found = {"C-P4.10": None, "C-P4.11": {
        "part": part,
        "filterbase": list(map(cls.ground.label_list, members)),
        "point": cls.ground.labels[x],
    }}
    acc = fb.acc
    literal = reading != "standard"
    for row in _first_nets(n):
        t = row[0] * bits
        if (conv >> t | acc >> t ^ other >> (row[1] * bits if literal else t)) & ones:
            found["C-P4.10"] = _first_net_witness(cls, row, *_class_mismatch(fb, net, reading, row[0], row[1]))
            break
    return found


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
                    blocks.append(OperationBlock((ext[0],), (ext[1:],), op=op))
        elif options is None:
            options = _table_options(top)
            ranks = (_product_rank(options, ext) for ext in seen)
            blocks.append(OperationBlock(tuple(options[0]),
                                         tuple(itertools.product(*options[1:])),
                                         tuple(sorted(r for r in ranks if r is not None))))
    return blocks
