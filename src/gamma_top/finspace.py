"""Finite ground sets, bitmask subsets, and topologies on them.

A subset of the ground set is a plain int used as a bitmask: bit ``i`` set
means the point at position ``i`` belongs to the subset.  Families of
subsets are always reported in ascending mask order so that every derived
listing is reproducible run to run.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property

MAX_POINTS = 16

# Exhaustive enumeration is only supported on very small ground sets, and
# enumerating every expansive operation table on even smaller ones.
MAX_ENUMERATION_POINTS = 4
MAX_TABLE_POINTS = 3

DEFAULT_LABELS = ("a", "b", "c", "d")


class memo_property(cached_property):
    """A ``functools.cached_property`` whose first read takes no lock: it
    calls the function and writes the value into the instance's
    ``__dict__``, which every later read finds before this descriptor.
    Python 3.11's ``cached_property`` takes an ``RLock`` on each first
    read, which made a first read about 0.45 us against 0.17 us without
    it (2-core VM), and a walk makes a first read of several class values
    per operator class.  Two threads that race on a first read each
    compute the value and write it; every value so kept is a function of
    the instance alone, so either write stands.  A frozen dataclass takes
    the value too, as the write goes past its ``__setattr__``."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


class FinSpaceError(ValueError):
    """Base class for ground-set and topology failures."""


class UnknownPoint(FinSpaceError):
    pass


class SizeTooLarge(FinSpaceError):
    pass


class TopologyError(FinSpaceError):
    """A family of subsets fails the topology axioms."""


class MissingEmptyOrWhole(TopologyError):
    pass


class NotClosedUnderUnion(TopologyError):
    def __init__(self, ground: "PointSet", a: int, b: int):
        self.pair = (a, b)
        super().__init__(
            f"union of {ground.format(a)} and {ground.format(b)} is not in the family"
        )


class NotClosedUnderIntersection(TopologyError):
    def __init__(self, ground: "PointSet", a: int, b: int):
        self.pair = (a, b)
        super().__init__(
            f"intersection of {ground.format(a)} and {ground.format(b)} is not in the family"
        )


def bits_of(mask: int):
    """Yield the set bit positions of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int):
    """Yield every submask of *mask* (including 0 and mask itself)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class _Layouts(dict):
    """n -> the layout of the tables over n points (``_layout``): the lane
    width in bytes (one for n <= 8, two up to 16 points), per point b the
    packed mask of the lanes whose index lacks bit b, and the packed int
    with every lane the full mask.  Each mask is built from a byte
    pattern, not summed from shifted lanes.  An 8-bit layout is made once
    and kept; a 16-bit one, whose masks take 2 MiB at n = 16, is made on
    each call and so lives no longer than its caller."""

    def __missing__(self, n: int) -> tuple[int, tuple[int, ...], int]:
        width = lane_bits(n) >> 3
        size = 1 << n
        lane = b"\xff" * width
        low = tuple(int.from_bytes((lane * (1 << b) + bytes(width << b)) * (size >> b + 1), "little")
                    for b in range(n))
        full = int.from_bytes(((1 << n) - 1).to_bytes(width, "little") * size, "little")
        if width == 1:
            self[n] = width, low, full
        return width, low, full


# a hit is one C call, with no Python frame
_layout = _Layouts().__getitem__


def closed_lanes(n: int, marks: list, supersets: bool) -> int:
    """The subset-closure kernel.  *marks* holds 2**n point masks indexed
    by subset; they are packed into one int, one per lane of ``_layout``'s
    width, lane m holding entry m.  Then, for each point b in turn, every
    entry whose index lacks b is ORed into the entry with b added
    (*supersets* true), or the other way round: one shift by 2**b lanes,
    one mask of whole lanes and one OR on the packed int, n steps in all.
    Unpack the result with ``unpack_lanes``.

    Lemma (lanes): every entry is a point mask below 2**n, which fits its
    lane, and an OR of two of them is one too, so no step carries out of
    a lane; a shift by 2**b lanes moves lane m onto lane m + 2**b, and the
    mask keeps whole lanes.  So each step does to every entry at once
    what the entry-by-entry closure does to each: the closure commutes
    with packing.

    Lemma (OR): each step, ``x | ((x & m) << s)`` or ``x | ((x >> s) &
    m)``, distributes over OR, and packing turns an entrywise OR of marks
    into an OR of ints.  So the closure of a list of marks is the OR of
    the closures of its entries, each taken alone."""
    width, low, _ = _layout(n)
    if width == 1:
        packed = int.from_bytes(bytes(marks), "little")
    else:
        lanes = array("H", marks)
        if sys.byteorder == "big":
            lanes.byteswap()
        packed = int.from_bytes(lanes.tobytes(), "little")
    shift = width << 3
    for mask in low:
        if supersets:
            packed |= (packed & mask) << shift
        else:
            packed |= (packed >> shift) & mask
        shift <<= 1
    return packed


def unpack_lanes(n: int, packed: int, flip: bool = False) -> tuple[int, ...]:
    """The entries of a packed table (``closed_lanes``) in subset order,
    each complemented within the ground set if *flip*."""
    width, _, full = _layout(n)
    if flip:
        packed ^= full
    raw = packed.to_bytes(width << n, "little")
    if width == 1:
        return tuple(raw)
    lanes = array("H", raw)
    if sys.byteorder == "big":
        lanes.byteswap()
    return tuple(lanes)


def meeting_lanes(n: int, misses: list) -> int:
    """The packed meeting table (``closed_lanes``): per subset A of an
    n-point ground set, the points x all of whose sets meet A, where
    *misses* marks each point at the complement of each of its sets.

    x misses A exactly when one of its sets lies inside the complement of
    A, that is when x is marked at a superset of A: so every entry is ORed
    into its subsets, and the table is the complement of what that gives.
    A meeting table is antitone in each point's sets and monotone in A."""
    return closed_lanes(n, misses, False) ^ _layout(n)[2]


def meet_lanes(n: int, packed: int) -> int:
    """The packed table whose entry M is the meet of the entries {p} of
    the packed table *packed* over the points p of M, the full mask at the
    empty set.  Its complement is the OR over p of the complement of entry
    {p} in each lane that holds p.  That complement times the int with 1
    in the lowest bit of each lane sits in every lane, without a carry as
    it fits one; clearing ``_layout``'s lanes without bit p keeps the
    lanes with it.  n multiplications, and no closure."""
    width, low, full_lanes = _layout(n)
    bits = width << 3
    full = (1 << n) - 1
    ones = full_lanes // full
    missing = 0
    for p, without in enumerate(low):
        every = ones * (full ^ packed >> (bits << p) & full)
        missing |= every ^ every & without
    return missing ^ full_lanes


def lane_bits(n: int) -> int:
    """The lane width of the packed tables over n points, in bits: lane m
    of a packed table is its bits m * lane_bits(n) up."""
    return 8 if n <= 8 else 16


def lowest_lane(n: int, packed: int) -> int:
    """The lowest non-zero lane of a packed table above lane 0, or 0 if
    every lane above it is zero: the lowest set bit above lane 0, over the
    lane width."""
    bits = lane_bits(n)
    packed >>= bits
    return ((packed & -packed).bit_length() - 1) // bits + 1 if packed else 0


def step_lanes(n: int, packed: int) -> int:
    """The packed table whose lane m is the OR, over the points p outside
    m, of entry m | {p} XOR entry m: non-zero iff a one-point extension of
    m changes the entry.  One shift by 2**p lanes, one XOR and one mask of
    ``_layout``'s lanes without bit p per point, as in ``closed_lanes``;
    lanes with bit p are masked off, so no entry is read past the table."""
    width, low, _ = _layout(n)
    shift = width << 3
    steps = 0
    for mask in low:
        steps |= (packed >> shift ^ packed) & mask
        shift <<= 1
    return steps


@dataclass(frozen=True)
class PointSet:
    """An ordered ground set of distinctly labelled points."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if not 1 <= n <= MAX_POINTS:
            raise SizeTooLarge(f"ground set must have 1..{MAX_POINTS} points, got {n}")
        if any(not isinstance(lab, str) or not lab for lab in self.labels):
            raise FinSpaceError("point labels must be non-empty strings")
        if len(set(self.labels)) != n:
            raise FinSpaceError("point labels must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    @memo_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @memo_property
    def _positions(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise UnknownPoint(f"unknown point {label!r}") from None

    def mask_of(self, labels) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits_of(mask))

    @memo_property
    def _label_lists(self) -> dict:
        return {}

    def label_list(self, mask: int) -> list[str]:
        """The labels of *mask* as a list, built on first use per mask and
        then shared by every caller: output payloads only, never mutated."""
        lists = self._label_lists
        found = lists.get(mask)
        if found is None:
            found = lists[mask] = [self.labels[i] for i in bits_of(mask)]
        return found

    def format(self, mask: int) -> str:
        return "{" + ",".join(self.labels_of(mask)) + "}"

    def subsets(self) -> range:
        return range(1 << self.n)

    def check_mask(self, mask: int) -> int:
        if not 0 <= mask <= self.full_mask:
            raise FinSpaceError(f"mask {mask:#x} does not fit a {self.n}-point ground set")
        return mask


@dataclass(frozen=True)
class Topology:
    """A validated family of open subsets over a ground set.

    Two memo dicts live and die with the object: an equal but distinct
    topology shares nothing.  ``operator_memos`` maps the two packed
    operator tables (``closed_lanes``) of the operations on this object,
    a space's or a walk slice's, to their ``gamma_core.OperatorClass``
    (``gamma_core.operator_class``), which holds the unpacked tables and
    every value derived from them, shared by every operation of the
    class: one entry is one class, and its tables are unpacked once.  A
    class holds no reference back to the topology.  ``extensions`` maps
    each pivot branch (id, cl, intcl) to its values over ``opens_sorted``
    (``gamma_core._branch_values``), so each is computed once per
    topology; it holds no operation's values."""

    ground: PointSet
    opens: frozenset[int]
    operator_memos: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    extensions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @memo_property
    def opens_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.opens))

    @memo_property
    def minimal_nbds(self) -> tuple[int, ...]:
        """Per point x, its smallest open neighbourhood U_x."""
        full = self.ground.full_mask
        nbds = [full] * self.ground.n
        for u in self.opens:
            for x in bits_of(u):
                nbds[x] &= u
        return tuple(nbds)

    def is_open(self, mask: int) -> bool:
        return mask in self.opens


def validate_topology(ground: PointSet, family) -> Topology:
    """Check the finite topology axioms and return the validated Topology.

    With U_x the meet of the members at x, a family holding {} and the
    whole set is a topology iff every u | U_x is a member (u = {} gives
    U_x itself): n * |family| look-ups.  Necessity is plain.  Conversely
    every member v is the union of the U_x for x in v, so u | v is reached
    from u by adding one U_x at a time, and u & v is the union of the U_x
    for x in u & v, reached the same way from {}.  A rejected family is
    scanned once more, point by point, for a failing pair: the members at x
    are folded in ascending order, and a running meet that leaves the
    family names an intersection; else the meet is U_x, and the first
    member u with u | U_x missing names a union.  Some x fails one way or
    the other, so this is n * |family| steps too.
    """
    opens = set()
    for mask in family:
        ground.check_mask(mask)
        opens.add(mask)
    if 0 not in opens or ground.full_mask not in opens:
        raise MissingEmptyOrWhole("topology must contain the empty set and the whole set")
    top = Topology(ground, frozenset(opens))
    nbds = top.minimal_nbds
    if not all(u | nbd in opens for u in opens for nbd in nbds):
        members = sorted(opens)
        for x in range(ground.n):
            bit = 1 << x
            meet = ground.full_mask
            for v in members:
                if v & bit:
                    if meet & v not in opens:
                        raise NotClosedUnderIntersection(ground, meet, v)
                    meet &= v
            for u in members:
                if u | meet not in opens:
                    raise NotClosedUnderUnion(ground, *sorted((u, meet)))
    return top


def interior(top: Topology, a: int) -> int:
    """Largest open subset of *a*: the points x whose U_x lies inside it."""
    top.ground.check_mask(a)
    result = 0
    for x, u in enumerate(top.minimal_nbds):
        if u & ~a == 0:
            result |= 1 << x
    return result


def closure(top: Topology, a: int) -> int:
    """Smallest closed superset of *a*: the points x whose U_x meets it."""
    top.ground.check_mask(a)
    result = 0
    for x, u in enumerate(top.minimal_nbds):
        if u & a:
            result |= 1 << x
    return result


def open_nbds(top: Topology, x: str) -> list[int]:
    """All opens containing the point labelled *x*, in ascending mask order."""
    bit = 1 << top.ground.index(x)
    return [u for u in top.opens_sorted if u & bit]


def _directed_preorders(n: int):
    """Yield directed-graph row tables of all preorders on n points.

    Row i is the mask of points reachable from i (including i).  Finite
    topologies correspond one-to-one to preorders: the opens are exactly
    the up-closed sets, so this is an enumeration route that is independent
    of any brute force over subset families.
    """
    row_choices = [[m for m in range(1 << n) if m & (1 << i)] for i in range(n)]
    for rows in itertools.product(*row_choices):
        transitive = True
        for i in range(n):
            reach = rows[i]
            for j in bits_of(rows[i]):
                if rows[j] & ~reach:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            yield rows


def _upsets(rows, n: int):
    opens = []
    for m in range(1 << n):
        ok = True
        for i in bits_of(m):
            if rows[i] & ~m:
                ok = False
                break
        if ok:
            opens.append(m)
    return tuple(opens)


def enumerate_topologies(n: int):
    """Yield every labelled topology on *n* points exactly once.

    Topologies are produced in ascending order of their sorted open-set
    tuples, so enumeration indices are stable across runs.  *n* is checked
    at the call, before the first topology is asked for.
    """
    if not 1 <= n <= MAX_ENUMERATION_POINTS:
        raise SizeTooLarge(
            f"exhaustive topology enumeration supports 1..{MAX_ENUMERATION_POINTS} points"
        )

    def topologies():
        ground = PointSet(DEFAULT_LABELS[:n])
        for fam in sorted(_upsets(rows, n) for rows in _directed_preorders(n)):
            yield Topology(ground, frozenset(fam))

    return topologies()
