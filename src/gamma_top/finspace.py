"""Finite ground sets, bitmask subsets, and topologies on them.

A subset of the ground set is a plain int used as a bitmask: bit ``i`` set
means the point at position ``i`` belongs to the subset.  Families of
subsets are always reported in ascending mask order so that every derived
listing is reproducible run to run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

MAX_POINTS = 16

# Exhaustive enumeration is only supported on very small ground sets, and
# enumerating every expansive operation table on even smaller ones.
MAX_ENUMERATION_POINTS = 4
MAX_TABLE_POINTS = 3

DEFAULT_LABELS = ("a", "b", "c", "d")


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


def inside_table(n: int, sets_at) -> tuple[int, ...]:
    """Per subset A of an n-point ground set, the mask of the points x that
    own a set of ``sets_at[x]`` inside A.

    Each point is marked at its own sets, then every entry is ORed into its
    supersets, one bit at a time: n * 2**n steps for the whole table."""
    size = 1 << n
    table = [0] * size
    for x, sets in enumerate(sets_at):
        bit = 1 << x
        for s in sets:
            table[s] |= bit
    bit = 1
    while bit < size:
        for m in range(bit, size):
            if m & bit:
                table[m] |= table[m ^ bit]
        bit <<= 1
    return tuple(table)


def meeting_table(n: int, sets_at) -> tuple[int, ...]:
    """Per subset A of an n-point ground set, the mask of the points x all
    of whose sets in ``sets_at[x]`` meet A.

    x misses A exactly when one of its sets lies inside the complement of
    A, so each point is marked at the complements of its sets, and every
    entry is ORed into its subsets: n * 2**n steps for the whole table.
    This pass is kept apart from ``inside_table`` so that the duality of
    the two tables stays something to check, not a consequence of sharing
    code."""
    size = 1 << n
    full = size - 1
    miss = [0] * size
    for x, sets in enumerate(sets_at):
        bit = 1 << x
        for s in sets:
            miss[full ^ s] |= bit
    bit = 1
    while bit < size:
        for m in range(size - bit):
            if not m & bit:
                miss[m] |= miss[m | bit]
        bit <<= 1
    return tuple(map(full.__xor__, miss))


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

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
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

    @cached_property
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

    Three memo dicts live and die with the object: an equal but distinct
    topology shares nothing.  ``operator_tables`` maps each slice of an
    operation's values at the non-empty opens to the (int_g, cl_g, class
    memo) that ``gamma_core.Space`` built for it, so the tables are built
    once per slice.  ``operator_memos`` maps each (int_g, cl_g) pair of
    tables to the memo that the spaces on this object with those operators
    share (``gamma_core.per_operator_class``); several slices can give one
    pair.  The two dicts are kept apart because they count different
    things: one entry per slice is one build of the tables, and one entry
    per pair is one operator class, so each size reads as a count.
    ``extensions`` maps each pivot branch, and each builtin or pivot
    operation that a space on this object uses, to its values over
    ``opens_sorted`` (``gamma_core``), so each is computed once per
    topology."""

    ground: PointSet
    opens: frozenset[int]
    operator_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    operator_memos: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    extensions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def opens_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.opens))

    @cached_property
    def opens_at_points(self) -> tuple[tuple[bool, ...], ...]:
        """Per point x, whether each open of ``opens_sorted`` holds x: a
        selector of x's open neighbourhoods for ``itertools.compress``."""
        return tuple(tuple(bool(u >> x & 1) for u in self.opens_sorted)
                     for x in range(self.ground.n))

    @cached_property
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
