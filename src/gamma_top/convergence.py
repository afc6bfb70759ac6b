"""Filterbases, nets and their convergence notions.

Filterbase convergence and accumulation test against gamma-regular-open
neighbourhoods; net convergence and accumulation test against
gamma-closures of gamma-open neighbourhoods.  Both test families are kept
available behind a mode switch because the two do not coincide in general
(they do at every point of an open extremally disconnected space, by the
lemma in ``theoremlab``); the claim layer compares all pairings.

Lemma (tail/range classes).  Let v be a net on a finite directed preorder
D, and write up(i) = {j : i <= j}.  The top class top(D) = {t : i <= t for
every i} is non-empty: folding upper bounds over the finitely many
elements yields one above all of them.  Every up(i) contains top(D), and
up(t) = top(D) for t in top(D).  Put T = v(top(D)), the eventual tail, and
R = v(D), the range.  For a test set C:

* v is eventually in C (some up(i) maps into C) iff T is inside C:
  take i in top(D) one way, use v(up(i)) >= T the other;
* v is frequently in C (every up(i) meets v^-1(C)) iff T meets C:
  every up(i) contains top(D), and up(t) = top(D);
* every index lands in C iff R is inside C.

So net convergence, cofinal accumulation and literal accumulation depend
on (T, R) alone.  The tail filterbase {v(up(i))} has T = v(up(t)) as a
member contained in every other one, so its kernel is T; its union is R
because i is in up(i).  On a finite set directedness puts the kernel K of
any filterbase into the family, below every member, so the filterbase
converges to / accumulates at a test set iff K is inside / meets it: its
verdicts depend on K alone.  It is maximal iff |K| = 1, hence a net is
universal iff |T| = 1.  ``filterbase_to_net(F)`` orders its (point, member)
pairs by reverse member inclusion, so its top class is the pairs with
member K: tail K, range the union of F.  Lastly every pair {} != T <= R is
realised by a net on |R| indices (T as a tied top class, one index below
it per point of R - T), so the nets on at most k indices realise exactly
the classes with |R| <= k.  The claim layer decides the net/filterbase
bridge per class through this lemma.

Principal bases.  {M} converges at x iff M is inside K_x, the meet of x's
test sets; it accumulates at x iff M meets each of them.  Per space and
test family, two tables indexed by M hold the point masks of both
verdicts (``principal_verdicts``).  M <= K_x iff the complement of K_x
lies inside the complement of M, so ``converges`` is one ``inside_table``
pass over the complements of the K_x, read backwards.

So each bridge verdict is a mask expression over these tables.  With F
the test family and G the gamma-closures, a class (T, R) disagrees at
F.converges[T] ^ G.converges[T], or at F.accumulates[T] ^ N, where N is
G.accumulates[T] under the cofinal reading and G.converges[R] under the
literal one; the first failing point is the lowest set bit.  Only the
literal reading depends on R.  G.converges[R] is the meet of
G.converges[T | {p}] over p in R - T, so some R above T changes it iff a
one-point extension does: n * 2**n steps decide every T.  Net classes
are filterbase classes (the class of the base {T, R}), so when no
filterbase disagrees, no net does either.  Witnesses are built from
their classes too (``theoremlab._first_nets``): nothing here enumerates
nets, directed sets or filterbases; ``tests/test_bridge_oracle.py`` does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_

from .finspace import PointSet, bits_of, inside_table, meeting_table
from .gamma_core import Space, per_operator_class
from .gamma_sets import _theta_env, regular_open_family, theta_closure_table


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


# -- filterbase convergence -------------------------------------------------

@dataclass(frozen=True)
class PrincipalVerdicts:
    """The test sets of one family, and the verdicts of every one-member
    filterbase {M} against them."""

    tests: tuple  # per point x, its test sets
    converges: tuple  # per subset M, the points x with M <= K_x
    accumulates: tuple  # per subset M, the points at which {M} accumulates


@per_operator_class
def principal_verdicts(sp: Space, family: str) -> PrincipalVerdicts:
    """Built once per operator class and test family: regular-open neighbourhoods
    (``regular_open``) or gamma-closures of gamma-open ones (``gamma_open_cl``).

    {M} accumulates at x iff M meets every test set of x.  Against the
    gamma-closures of x's gamma-open neighbourhoods that is the definition
    of x in the theta closure of M, so the ``gamma_open_cl`` accumulation
    table is ``theta_closure_table``, read rather than built again."""
    n = sp.ground.n
    if family == "regular_open":
        ro = regular_open_family(sp)
        tests = tuple(tuple(a for a in ro if a >> x & 1) for x in range(n))
        accumulates = meeting_table(n, tests)
    elif family == "gamma_open_cl":
        tests = _theta_env(sp)
        accumulates = theta_closure_table(sp)
    else:
        raise ValueError(f"unknown test family {family!r}")
    full = sp.ground.full_mask
    # M <= K_x iff full - K_x <= full - M: index full - M is index M reversed
    outside = [(full ^ reduce(and_, sets, full),) for sets in tests]
    converges = inside_table(n, outside)[::-1]
    return PrincipalVerdicts(tests, converges, accumulates)


def _fb_converges(sp: Space, members, xi: int, family: str) -> bool:
    table = principal_verdicts(sp, family)
    if len(members) == 1:
        (m,) = members
        return bool(table.converges[m] >> xi & 1)
    for a in table.tests[xi]:
        if not any(f & ~a == 0 for f in members):
            return False
    return True


def _fb_accumulates(sp: Space, members, xi: int, family: str) -> bool:
    table = principal_verdicts(sp, family)
    if len(members) == 1:
        (m,) = members
        return bool(table.accumulates[m] >> xi & 1)
    for a in table.tests[xi]:
        if any(f & a == 0 for f in members):
            return False
    return True


def fb_r_converges(sp: Space, fb: Filterbase, x: str) -> bool:
    """Every regular-open neighbourhood of *x* contains a member."""
    return _fb_converges(sp, fb.members, sp.ground.index(x), "regular_open")


def fb_r_accumulates(sp: Space, fb: Filterbase, x: str) -> bool:
    """Every member meets every regular-open neighbourhood of *x*."""
    return _fb_accumulates(sp, fb.members, sp.ground.index(x), "regular_open")


# -- nets --------------------------------------------------------------------

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
        element bounds every pair, and the module lemma's fold gives one).
        Only a relation that is not directed is scanned further, for a
        pair to name."""
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
    xi = sp.ground.index(x)
    geq = net.dirset.geq_masks
    for clu in _theta_env(sp)[xi]:
        ok = _net_value_mask(net, clu)
        if not any(row & ~ok == 0 for row in geq):
            return False
    return True


def net_r_accumulates(sp: Space, net: Net, x: str, literal: bool = False) -> bool:
    """Cofinal reading by default: for every gamma-open U at x and every
    index there is a later index landing in cl_g(U).  The literal reading
    demands every index land in cl_g(U)."""
    xi = sp.ground.index(x)
    geq = net.dirset.geq_masks
    everything = (1 << net.dirset.size) - 1
    for clu in _theta_env(sp)[xi]:
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
    eventual tail) and of all values (the range); see the module lemma."""
    return _net_points(net, net.dirset.top_mask), _net_points(net, (1 << net.dirset.size) - 1)


def net_to_filterbase(net: Net) -> Filterbase:
    """The family of net tails { values[i] : i >= j }, one per index j.
    It is directed: by the module lemma the top-class tail is a member
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
    """Universality via the finite-space bridge: the tail filterbase is
    maximal, i.e. the top class's values are a single point."""
    tail, _ = net_tail_range(net)
    return tail & (tail - 1) == 0
