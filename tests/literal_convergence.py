"""The literal model of the paper's section 4, kept as the tests' oracle.

Filterbases, directed sets and nets are objects here, and every verdict
reads its definition: the operators and test families point by point
(``Oracle``), convergence and accumulation member by member and index by
index.  No code in ``gamma_top`` uses this module: the package decides
section 4 per class, through the tables of ``gamma_sets.principal_verdicts``
and the tail/range lemma in ``theoremlab``, and the tests compare those
tables with this model."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from gamma_top.finspace import PointSet, bits_of, open_nbds
from gamma_top.gamma_core import Space, apply_gamma


class Oracle:
    """Every definition scanned point by point, never through a table."""

    def __init__(self, sp):
        self.sp = sp
        # per point, the values of its open neighbourhoods
        self.values = [{apply_gamma(sp, u) for u in open_nbds(sp.top, label)}
                       for label in sp.ground.labels]

    @cached_property
    def gamma_open(self):
        return [a for a in self.sp.ground.subsets() if self.int_g(a) == a]

    @cached_property
    def regular_open(self):
        return [a for a in self.sp.ground.subsets() if self.int_g(self.cl_g(a)) == a]

    @cached_property
    def regular_open_tests(self):
        """Per point x, the regular-open sets at x."""
        return [[a for a in self.regular_open if a >> x & 1] for x in range(self.sp.ground.n)]

    @cached_property
    def gamma_open_cl_tests(self):
        """Per point x, the gamma-closures of the gamma-open sets at x."""
        return [[self.cl_g(u) for u in self.gamma_open if u >> x & 1] for x in range(self.sp.ground.n)]

    def interior(self, a):
        """The union of the opens inside a."""
        out = 0
        for u in self.sp.top.opens_sorted:
            if u & ~a == 0:
                out |= u
        return out

    def closure(self, a):
        """The meet of the closed sets containing a."""
        full = self.sp.ground.full_mask
        out = full
        for u in self.sp.top.opens_sorted:
            if a & u == 0:
                out &= full ^ u
        return out

    def int_g(self, a):
        """Points of a with some neighbourhood value inside a."""
        out = 0
        for i, values in enumerate(self.values):
            if a >> i & 1 and any(v & ~a == 0 for v in values):
                out |= 1 << i
        return out

    def cl_g(self, a):
        """Points every neighbourhood value of which meets a."""
        out = 0
        for i, values in enumerate(self.values):
            if all(v & a for v in values):
                out |= 1 << i
        return out

    def test_sets(self, x, family):
        """The gamma-closures of the gamma-open sets (``gamma_open_cl``)
        or the regular-open sets, at x."""
        if family == "regular_open":
            return self.regular_open_tests[x]
        return self.gamma_open_cl_tests[x]

    def theta(self, a):
        """Points x such that cl_g(U) meets a for every gamma-open U at x."""
        out = 0
        for x in range(self.sp.ground.n):
            if all(t & a for t in self.test_sets(x, "gamma_open_cl")):
                out |= 1 << x
        return out


_ORACLES = {}  # id(space) -> (space, its Oracle)


def oracle(sp: Space) -> Oracle:
    """The ``Oracle`` of one space object, kept while its bases and nets
    are tested.  Keyed by identity: hashing a space field by field on
    every verdict would cost more than the verdict."""
    entry = _ORACLES.get(id(sp))
    if entry is None or entry[0] is not sp:
        if len(_ORACLES) >= 8:
            _ORACLES.clear()
        entry = _ORACLES[id(sp)] = (sp, Oracle(sp))
    return entry[1]


# -- filterbases ---------------------------------------------------------------

class FilterbaseError(ValueError):
    pass


class EmptyMember(FilterbaseError):
    pass


class NotDirected(FilterbaseError):
    def __init__(self, ground: PointSet, f1: int, f2: int):
        self.pair = (f1, f2)
        super().__init__(
            f"no member is contained in {ground.format(f1)} & {ground.format(f2)}"
        )


class NetError(ValueError):
    pass


@dataclass(frozen=True)
class Filterbase:
    """A non-empty, downward-directed family of non-empty subsets."""

    members: frozenset[int]

    @property
    def members_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    @property
    def kernel(self) -> int:
        """Intersection of all members.  Directedness on a finite family
        forces the kernel to be a member, and the smallest one."""
        out = None
        for m in self.members:
            out = m if out is None else out & m
        return out


def validate_filterbase(ground: PointSet, members) -> Filterbase:
    mems = []
    for m in members:
        ground.check_mask(m)
        if m == 0:
            raise EmptyMember("filterbase members must be non-empty")
        mems.append(m)
    if not mems:
        raise FilterbaseError("a filterbase needs at least one member")
    mset = set(mems)
    for f1, f2 in itertools.combinations(sorted(mset), 2):
        cap = f1 & f2
        if not any(f3 & ~cap == 0 for f3 in mset):
            raise NotDirected(ground, f1, f2)
    return Filterbase(frozenset(mset))


def is_subordinate(fine: Filterbase, coarse: Filterbase) -> bool:
    """True iff every member of *coarse* contains some member of *fine*."""
    return all(
        any(f & ~c == 0 for f in fine.members) for c in coarse.members
    )


def is_maximal_filterbase(ground: PointSet, fb: Filterbase) -> bool:
    """True iff the generated filter is an ultrafilter.  On a finite ground
    set that means: some singleton is a member and every member contains it."""
    for m in fb.members:
        if m & (m - 1) == 0:  # singleton
            if all(other & m for other in fb.members):
                return True
    return False


def _fb_converges(sp: Space, members, xi: int, family: str) -> bool:
    """Every test set of the point contains some member."""
    return all(any(f & ~a == 0 for f in members) for a in oracle(sp).test_sets(xi, family))


def _fb_accumulates(sp: Space, members, xi: int, family: str) -> bool:
    """Every member meets every test set of the point."""
    return all(f & a for a in oracle(sp).test_sets(xi, family) for f in members)


def fb_r_converges(sp: Space, fb: Filterbase, x: str) -> bool:
    """Every regular-open neighbourhood of *x* contains a member."""
    return _fb_converges(sp, fb.members, sp.ground.index(x), "regular_open")


def fb_r_accumulates(sp: Space, fb: Filterbase, x: str) -> bool:
    """Every member meets every regular-open neighbourhood of *x*."""
    return _fb_accumulates(sp, fb.members, sp.ground.index(x), "regular_open")


# -- nets ----------------------------------------------------------------------

@dataclass(frozen=True)
class DirectedSet:
    """A finite preorder in which every pair has an upper bound.

    ``leq`` holds pairs (i, j) meaning i <= j, reflexive pairs included.
    """

    size: int
    leq: frozenset[tuple[int, int]]

    def __post_init__(self):
        """Check the laws on the rows, in O(|leq|) steps: some element;
        the index range and reflexivity; transitivity as geq(j) <= geq(i)
        for each j in geq(i); directedness as a non-empty top class (a top
        element bounds every pair, and the tail/range lemma's fold gives
        one).  Only a relation that is not directed is scanned further,
        for a pair to name."""
        if self.size < 1:
            raise NetError("a directed set needs at least one element")
        rng = range(self.size)
        for i, j in self.leq:
            if i not in rng or j not in rng:
                raise NetError("relation mentions an element outside the index range")
        geq = self.geq_masks
        for i in rng:
            if not geq[i] >> i & 1:
                raise NetError(f"relation is not reflexive at {i}")
        for i in rng:
            if any(geq[j] & ~geq[i] for j in bits_of(geq[i])):
                raise NetError("relation is not transitive")
        if not self.top_mask:
            i, j = next((i, j) for i in rng for j in rng if not geq[i] & geq[j])
            raise NetError(f"elements {i} and {j} have no upper bound")

    @cached_property
    def geq_masks(self) -> tuple[int, ...]:
        """Per element i, the bitmask of elements j with i <= j."""
        masks = [0] * self.size
        for i, j in self.leq:
            masks[i] |= 1 << j
        return tuple(masks)

    @cached_property
    def top_mask(self) -> int:
        """Bitmask of the top class: the elements above every element."""
        top = (1 << self.size) - 1
        for row in self.geq_masks:
            top &= row
        return top


def chain(size: int) -> DirectedSet:
    """The strict total order 0 <= 1 <= ... <= size-1."""
    pairs = {(i, j) for i in range(size) for j in range(i, size)}
    return DirectedSet(size, frozenset(pairs))


@dataclass(frozen=True)
class Net:
    """A map from a directed index set into the ground set (point positions)."""

    dirset: DirectedSet
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.dirset.size:
            raise NetError("a net needs one value per index element")
        # per point p that the net takes, (1 << p, the mask of the indices
        # i with values[i] == p); not a field, so equality reads the values
        object.__setattr__(self, "index_masks", tuple(
            (1 << p, sum(1 << i for i, q in enumerate(self.values) if q == p))
            for p in sorted(set(self.values))))


def _net_value_mask(net: Net, point_set_mask: int) -> int:
    """The indices landing in the point set: the OR of its points' index
    masks, one step per point of the net rather than one per index."""
    ok = 0
    for bit, indices in net.index_masks:
        if point_set_mask & bit:
            ok |= indices
    return ok


def _net_points(net: Net, index_mask: int) -> int:
    """The points the net takes on the indices in the mask."""
    return sum(bit for bit, indices in net.index_masks if indices & index_mask)


def net_r_converges(sp: Space, net: Net, x: str) -> bool:
    """For every gamma-open U at x the net is eventually inside cl_g(U)."""
    geq = net.dirset.geq_masks
    for clu in oracle(sp).test_sets(sp.ground.index(x), "gamma_open_cl"):
        ok = _net_value_mask(net, clu)
        if not any(row & ~ok == 0 for row in geq):
            return False
    return True


def net_r_accumulates(sp: Space, net: Net, x: str, literal: bool = False) -> bool:
    """Cofinal reading by default: for every gamma-open U at x and every
    index there is a later index landing in cl_g(U).  The literal reading
    demands every index land in cl_g(U)."""
    geq = net.dirset.geq_masks
    everything = (1 << net.dirset.size) - 1
    for clu in oracle(sp).test_sets(sp.ground.index(x), "gamma_open_cl"):
        ok = _net_value_mask(net, clu)
        if literal:
            if ok != everything:
                return False
        else:
            if any(row & ok == 0 for row in geq):
                return False
    return True


def net_tail_range(net: Net) -> tuple[int, int]:
    """``(T, R)``: the point mask of the values on the top class (the
    eventual tail) and of all values (the range); see the tail/range
    lemma in ``theoremlab``."""
    return _net_points(net, net.dirset.top_mask), _net_points(net, (1 << net.dirset.size) - 1)


def net_to_filterbase(net: Net) -> Filterbase:
    """The family of net tails { values[i] : i >= j }, one per index j.
    It is directed: by the tail/range lemma the top-class tail is a member
    inside every other member."""
    return Filterbase(frozenset(_net_points(net, row) for row in net.dirset.geq_masks))


def filterbase_to_net(fb: Filterbase) -> Net:
    """The canonical net of a filterbase: index elements are pairs
    (point, member) with point in member, ordered by reverse member
    inclusion; the net value is the point."""
    elems = []
    for member in fb.members_sorted:
        for p in bits_of(member):
            elems.append((p, member))
    elems.sort(key=lambda e: (e[1], e[0]))
    pairs = set()
    for i, (_, fi) in enumerate(elems):
        for j, (_, fj) in enumerate(elems):
            if fj & ~fi == 0:
                pairs.add((i, j))
    return Net(DirectedSet(len(elems), frozenset(pairs)), tuple(p for p, _ in elems))


def is_universal_net(ground: PointSet, net: Net) -> bool:
    """A net is universal iff its tail filterbase is maximal."""
    return is_maximal_filterbase(ground, net_to_filterbase(net))
