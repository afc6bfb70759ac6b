"""Claim catalog and exhaustive verification machinery.

Every claim is a decidable statement about one finite space.  A claim
checker quantifies over the space's subsets, subset families, or the
classes of filterbases and small nets (the tail/range lemma above
C-T4.3; no net is enumerated) and returns holds / fails-with-witness, or
reports that the space does not meet the claim's hypotheses.  Ten claims
are theorems of every finite space.  Each follows from the laws that
``check_invariants`` checks (cl_g extensive, int_g contractive, the two
dual) or from a ``meeting_table`` being monotone, by the lemma in its
checker's docstring, and that checker returns "holds" without a scan.
Five more (C-T3.9-CONV, C-T3.14, C-T3.15-A/B/C) hold on every space
that meets their hypotheses, an open operation on an extremally
disconnected (ED) space, by the open + ED lemma at the head of the claim
checkers, and return "holds" without a scan too.  Three more
(C-P3.4-CONV, C-T3.7, C-T3.8) assume an ED space, and by the ED lemma
beside it fail exactly where C-RO-INCL does, at its first regular-open
set that is not gamma-open: the four read that set from one scan
(``_first_ro_not_gamma_open``).  Sweeps run claims over full
enumerations of (topology, operation) pairs; the miner searches the same
enumerations for named separations or claim failures.  Both, and the
bridge report, read the enumeration through one walk
(``enumerate_slices``), which builds one ``Space`` per slice of operation
values and groups the rows by slice, and through its one report loop
(``TopologyRows.report``).  They look up a status row, the bridge
verdicts or the witnesses once per slice, each computed once per
operator class (``_status_row``, ``bridge_pairings``, ``_separations``);
they add the slice's row count to their tallies, and the loop visits a
row, to build its key, only where they report it.  The audits
rebuild the four bundled example spaces and diff their published
families against recomputation.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

from . import documents
from .finspace import (
    PointSet,
    bits_of,
    enumerate_topologies,
    validate_topology,
)
from .gamma_core import (
    GammaOperation,
    Space,
    SpaceKey,
    check_table_points,
    is_open_operation,
    is_regular_operation,
    operations_for,
    per_operator_class,
)
from .gamma_sets import (
    gamma_open_family,
    is_gamma_clopen,
    is_gamma_open,
    is_gamma_regular_open,
    is_extremally_disconnected,
    is_theta_open,
    principal_verdicts,
    regular_open_family,
    theta_closure_table,
    theta_families,
)
from .jsonout import Framed


class UnknownPredicate(ValueError):
    pass


class UnknownExample(ValueError):
    pass


class UnknownClaim(ValueError):
    pass


class UnknownMode(ValueError):
    pass


# -- catalog -------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    id: str
    tier: str  # "safe" | "conditioned" | "other"
    hypotheses: tuple[str, ...]
    statement: str
    check: Callable


# filled in definition order by ``_claim``, which is the catalog order
CLAIMS: dict[str, Claim] = {}


def _claim(cid: str, tier: str, hypotheses: tuple, statement: str):
    """Register the decorated checker as claim *cid*.  A checker reads the
    operators, never the operation's values, but is not memoised itself:
    a sweep or a mine runs it once per operator class, under
    ``_status_row``, and ``run_suite`` once per space.  ``check_claim``
    tests the hypotheses first, through the flags of ``SPACE_FLAGS``,
    which are memoised per class."""

    def register(check):
        CLAIMS[cid] = Claim(cid, tier, hypotheses, statement, check)
        return check

    return register


NET_SIZE_CAP = 3
NET_RESTRICTION_NOTE = (
    "nets quantified over directed sets with at most "
    f"{NET_SIZE_CAP} elements; universality via tail-filterbase maximality"
)


# -- space identity -------------------------------------------------------

def rebuild_space(key: SpaceKey) -> Space:
    ground = PointSet(key.points)
    top = validate_topology(ground, key.opens)
    return Space(ground, top, GammaOperation("table", values=key.gamma_values))


# -- verdicts -------------------------------------------------------------

@dataclass
class Verdict:
    claim_id: str
    space: SpaceKey
    status: str  # "holds" | "fails" | "hypotheses_not_met"
    witness: dict | None = None
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "claim": self.claim_id,
            "status": self.status,
            "space": self.space.to_dict(),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.notes:
            out["notes"] = self.notes
        return out


@dataclass
class VerificationReport:
    verdicts: list
    discrepancies: list
    counts: dict

    def to_dict(self) -> dict:
        return {
            "verdicts": [v.to_dict() for v in self.verdicts],
            "discrepancies": self.discrepancies,
            "counts": self.counts,
        }


def _labels(sp: Space, mask: int) -> list:
    """A shared, read-only label list (``PointSet.label_list``)."""
    return sp.ground.label_list(mask)


def _lowest_point(mask: int) -> int:
    """The position of the lowest point in a non-empty mask."""
    return (mask & -mask).bit_length() - 1


def _separating(sp: Space, has, lacks):
    """The subsets with property *has* and without *lacks*, ascending."""
    return (a for a in sp.ground.subsets() if has(sp, a) and not lacks(sp, a))


def _monotonicity_break(table):
    """The first pair (A, A + {i}) with ``table[A]`` not inside
    ``table[A + {i}]``, in ascending A, then ascending i; None when there
    is none.  Checking these covering pairs, n * 2**(n-1) of them, decides
    monotonicity: a chain of one-point steps leads from any A to any
    superset B, and inclusion is transitive along it.  (A point i already
    in A gives A + {i} = A, a step that cannot break.)"""
    size = len(table)
    bits = [1 << i for i in range(size.bit_length() - 1)]
    for a in range(size):
        ta = table[a]
        for bit in bits:
            if ta & ~table[a | bit]:
                return a, a | bit
    return None


# -- claim checkers -------------------------------------------------------

# Lemma (ED).  On an extremally disconnected space C-P3.4-CONV, C-T3.7 and
# C-T3.8 fail exactly where C-RO-INCL does, at its witness R0: the first
# regular-open set, ascending, that is not gamma-open
# (``_first_ro_not_gamma_open``).  ED makes cl_g(U) gamma-open for every
# gamma-open U.  Then:
#
# (i)   A regular-open R that is gamma-open is clopen: cl_g(R) is
#       gamma-open (ED), so cl_g(R) = int_g(cl_g(R)) = R.
# (ii)  If cl_g(int_g(A)) = A, then int_g(A) is regular-open, as
#       int_g(cl_g(int_g(A))) = int_g(A).  If such an A is not clopen,
#       int_g(A) is not gamma-open: otherwise (i) makes it clopen, and
#       A = cl_g(int_g(A)) = int_g(A) is clopen too.  And int_g(A) lies
#       inside A (int_g is contractive) and is not A, or it would be
#       gamma-open: so it comes before A in mask order.
# (iii) So the first subset that is regular-open or cl.int-fixed, and not
#       clopen, is R0: by (i) a regular-open set is not clopen iff it is
#       not gamma-open, and by (ii) R0 itself is not cl.int-fixed.
# (iv)  A clopen set is regular-open (C-P3.4-FWD) and cl.int-fixed, and
#       cl.int-fixed is complement regular-open (C-T3.6 and duality).  So
#       C-T3.7 and C-T3.8 each fail at A exactly when A is regular-open or
#       cl.int-fixed and not clopen, and both fail first at R0: regular-open,
#       not clopen, not cl.int-fixed, complement not regular-open.
#       C-P3.4-CONV's first regular-open set that is not clopen is R0 by (i).
# (v)   A clopen set is theta-open (at each of its points it is a
#       gamma-open set whose closure, itself, misses the complement), and a
#       theta-open set is gamma-open (C-CHAIN-TO-GO).  So on regular-open
#       sets theta-open is gamma-open, and C-CHAIN-RO-TO fails first at R0
#       too.  It keeps its scan: it has no hypotheses, and fails off ED as
#       well.

def _first_ro_not_gamma_open(sp: Space):
    """R0 of the ED lemma: the first regular-open set, ascending, that is
    not gamma-open; None when there is none."""
    ig = sp.int_g
    return next((a for a in regular_open_family(sp) if ig[a] != a), None)


def _fails_at_r0(sp: Space, **fields):
    """Fails with witness {"subset": R0, **fields}; holds without R0."""
    r0 = _first_ro_not_gamma_open(sp)
    if r0 is None:
        return "holds", None, {}
    return "fails", {"subset": _labels(sp, r0), **fields}, {}


# Lemma (open operation + ED).  The five claims that assume an open
# operation on an extremally disconnected space (C-T3.9-CONV, C-T3.14 and
# C-T3.15-A/B/C) hold on every such space, and their checkers return
# "holds" without a scan.  Under an open operation int_g(A) is the largest
# gamma-open subset of A (``is_open_operation``).  So, by duality, cl_g(A)
# is the smallest gamma-closed superset of A, and cl_g is idempotent.  ED
# adds that cl_g(U) is gamma-open for every gamma-open U.  Then:
#
# (a) The regular-open sets, the gamma-clopen sets and the sets cl_g(U)
#     with U gamma-open are one family.  A regular-open R = int_g(cl_g(R))
#     is gamma-open, as the operation is open; so cl_g(R) is gamma-open
#     (ED), and R = int_g(cl_g(R)) = cl_g(R).  A set cl_g(U) is gamma-open
#     (ED) and gamma-closed (idempotence).  A clopen set is regular-open
#     (C-P3.4-FWD).
# (b) The family is closed under complement: cl_g(A) = A iff X - A is
#     gamma-open (C-P4.7-EQ).
# (c) At each point x, the theta test sets cl_g(U), U gamma-open at x, are
#     the regular-open sets at x: each is one by (a) and holds x, as cl_g
#     is extensive; a regular-open R at x is gamma-open, with cl_g(R) = R.
#     So ``theta_closure_table(sp)`` is
#     ``principal_verdicts(sp, "regular_open").accumulates``.


@_claim("C-RO-INCL", "safe", (), "regular-open sets are gamma-open; gamma-open sets are open")
def _check_ro_incl(sp: Space):
    """The first part fails exactly at R0 (ED lemma), by definition.  A
    gamma-open A is open: each x in A has an open U at x with
    U <= value(U) <= A (expansiveness)."""
    return _fails_at_r0(sp, part="regular_open_not_gamma_open")


@_claim("C-P3.4-FWD", "other", (), "gamma-clopen implies gamma-regular-open")
def _check_p34_fwd(sp: Space):
    """Holds on every space: A = int_g(A) = cl_g(A) gives
    int_g(cl_g(A)) = int_g(A) = A."""
    return "holds", None, {}


@_claim("C-P3.4-CONV", "conditioned", ("extremally_disconnected",),
        "gamma-regular-open implies gamma-clopen")
def _check_p34_conv(sp: Space):
    """Fails first at R0, or holds (ED lemma, (i))."""
    return _fails_at_r0(sp)


@_claim("C-T3.6", "safe", (), "clopen implies cl.int-fixed implies complement regular-open")
def _check_t36(sp: Space):
    """Holds on every space.  A clopen A gives cl_g(int_g(A)) = cl_g(A) = A.
    If cl_g(int_g(A)) = A, duality (int_g(B) = X - cl_g(X - B)) gives
    int_g(cl_g(X - A)) = X - cl_g(int_g(A)) = X - A."""
    return "holds", None, {}


@_claim("C-T3.7", "conditioned", ("extremally_disconnected",),
        "complement regular-open implies regular-open implies clopen")
def _check_t37(sp: Space):
    """Fails first at R0, regular-open and not clopen, or holds (ED lemma,
    (iv)).  R0's complement is not regular-open, so the first part holds
    there."""
    return _fails_at_r0(sp, part="regular_open_to_clopen")


@_claim("C-T3.8", "conditioned", ("extremally_disconnected",),
        "clopen, cl.int-fixed, complement regular-open and regular-open coincide")
def _check_t38(sp: Space):
    """Fails first at R0, with R0's four flags, or holds (ED lemma, (iv))."""
    return _fails_at_r0(sp, clopen=False, cl_int_fixed=False,
                        complement_regular_open=False, regular_open=True)


# Both C-T3.9 claims require an open operation, under which cl_g is
# idempotent (``_space_discrepancies``): their notes are this one dict,
# shared and never mutated
_CL_IDEMPOTENT_NOTES = {"cl_gamma_idempotent": True}


@_claim("C-T3.9-FWD", "conditioned", ("open_operation",),
        "if cl_g(A) is regular-open then A is gamma-open")
def _check_t39_fwd(sp: Space):
    notes = _CL_IDEMPOTENT_NOTES
    ig, cg = sp.int_g, sp.cl_g
    for a, c in enumerate(cg):
        if ig[cg[c]] == c and ig[a] != a:
            return "fails", {"subset": _labels(sp, a)}, notes
    return "holds", None, notes


@_claim("C-T3.9-CONV", "conditioned", ("open_operation", "extremally_disconnected"),
        "if A is gamma-open then cl_g(A) is regular-open")
def _check_t39_conv(sp: Space):
    """Holds (open + ED lemma): cl_g(A) is gamma-open by ED and equals
    cl_g(cl_g(A)), so int_g(cl_g(cl_g(A))) = cl_g(A)."""
    return "holds", None, _CL_IDEMPOTENT_NOTES


@_claim("C-C3.10", "conditioned", ("extremally_disconnected",),
        "cl_g(int_g(A)) is regular-open for every A")
def _check_c310(sp: Space):
    ig, cg = sp.int_g, sp.cl_g
    for a in sp.ground.subsets():
        c = cg[ig[a]]
        if ig[cg[c]] != c:
            return "fails", {"subset": _labels(sp, a)}, {}
    return "holds", None, {}


@_claim("C-P3.13-1", "safe", (), "the theta closure is monotone")
def _check_p313_1(sp: Space):
    """Holds on every space: the theta closure is a ``meeting_table``, and
    a set that meets A meets every superset of A."""
    return "holds", None, {}


@_claim("C-P3.13-2", "safe", (), "intersections of theta-closed families are theta-closed")
def _check_p313_2(sp: Space):
    """Holds on every space: the theta closure is monotone (C-P3.13-1) and
    extensive (every point x of A lies in each gamma-closure of a
    gamma-open set at x, which so meets A).  So V = the intersection of
    theta-closed sets C_i gives V <= thetacl(V) <= the intersection of the
    thetacl(C_i) = C_i, which is V.  The empty family gives
    X = thetacl(X)."""
    return "holds", None, {}


@_claim("C-T3.14", "conditioned", ("open_operation", "extremally_disconnected"),
        "theta closure equals the meet of theta-closed supersets and of regular-open supersets")
def _check_t314(sp: Space):
    """Holds (open + ED lemma): by (c) and (b), x is outside thetacl(A) iff
    a regular-open superset of A misses x, so thetacl(A) is the meet of the
    regular-open supersets.  So it is a theta-closed superset of A
    (C-T3.15-C and C-P3.13-2), inside every other one as thetacl is
    monotone."""
    return "holds", None, {}


@_claim("C-T3.15-A", "conditioned", ("open_operation", "extremally_disconnected"),
        "theta-closure membership tests against regular-open neighbourhoods")
def _check_t315a(sp: Space):
    """Holds (open + ED lemma): (c)."""
    return "holds", None, {}


@_claim("C-T3.15-B", "conditioned", ("open_operation", "extremally_disconnected"),
        "theta-open means every point has a regular-open neighbourhood inside")
def _check_t315b(sp: Space):
    """Holds (open + ED lemma): by (c), x is outside thetacl(X - A) iff
    some regular-open neighbourhood of x lies inside A."""
    return "holds", None, {}


@_claim("C-T3.15-C", "conditioned", ("open_operation", "extremally_disconnected"),
        "regular-open coincides with theta-clopen")
def _check_t315c(sp: Space):
    """Holds (open + ED lemma).  For x outside a regular-open R, X - R is a
    regular-open neighbourhood of x (b) missing R: so R, and X - R, are
    theta-closed.  Conversely cl_g <= thetacl (``_space_discrepancies``),
    so a theta-clopen set is gamma-clopen, and regular-open by (a)."""
    return "holds", None, {}


@_claim("C-CHAIN-RO-TO", "other", (), "regular-open implies theta-open")
def _check_chain_ro_to(sp: Space):
    for a in _separating(sp, is_gamma_regular_open, is_theta_open):
        return "fails", {"subset": _labels(sp, a)}, {}
    return "holds", None, {}


@_claim("C-CHAIN-TO-GO", "other", (), "theta-open implies gamma-open")
def _check_chain_to_go(sp: Space):
    """Holds on every space: cl_g(B) <= thetacl(B) (``_space_discrepancies``)
    and cl_g is extensive.  So thetacl(X - A) = X - A forces
    cl_g(X - A) = X - A, and duality gives int_g(A) = X - cl_g(X - A) = A."""
    return "holds", None, {}


# Filterbase convergence and accumulation test against regular-open
# neighbourhoods; net convergence and accumulation test against
# gamma-closures of gamma-open neighbourhoods.  Both test families are kept
# (``PAIRINGS``) because the two do not coincide in general (they do at
# every point of an open ED space, by the open + ED lemma, (c)); the bridge
# claims compare all pairings.
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
# family and G the gamma-closures, a class (T, R) disagrees at
# F.converges[T] ^ G.converges[T], or at F.accumulates[T] ^ N, where N is
# G.accumulates[T] under the cofinal reading and G.converges[R] under the
# literal one; the first failing point is the lowest set bit.  Only the
# literal reading depends on R.  G.converges[R] is the meet of
# G.converges[T | {p}] over p in R - T, so some R above T changes it iff a
# one-point extension does: n * 2**n steps decide every T.  Net classes
# are filterbase classes (the class of the base {T, R}), so when no
# filterbase disagrees, no net does either.  Witnesses are built from
# their classes too (``_first_nets``): nothing here enumerates nets,
# directed sets or filterbases.  ``tests/test_bridge_oracle.py`` does,
# over the literal objects of ``tests/literal_convergence.py``.


@_claim("C-T4.3", "safe", (), "filterbase convergence implies accumulation")
def _check_t43(sp: Space):
    """Holds on every space.  A filterbase's verdicts are those of its
    kernel K, which is not empty (the tail/range lemma).  If it
    converges at x then K <= K_x, the meet of x's test sets: every test
    set of x contains K, so it meets K."""
    return "holds", None, {}


@_claim("C-T4.4", "safe", (),
        "accumulation passes from a subordinate filterbase to the coarser one")
def _check_t44(sp: Space):
    """Holds on every space.  A filterbase accumulates where its kernel
    does, and a subordinate base has its kernel inside the coarse one's.
    The accumulation table is a ``meeting_table``, so it is monotone."""
    return "holds", None, {}


@_claim("C-T4.5", "safe", (), "for maximal filterbases accumulation and convergence coincide")
def _check_t45(sp: Space):
    """Holds on every space.  A maximal filterbase has a one-point kernel
    {p}, and {p} accumulates at x iff p is in every test set of x, iff p is
    in K_x, the meet of those sets, iff {p} converges at x."""
    return "holds", None, {}


@_claim("C-P4.7-EQ", "safe", (), "the five cover/accumulation conditions all hold")
def _check_p47(sp: Space):
    """Holds on every space.  The conditions are: (1) every gamma-open
    cover has a subfamily whose gamma-closures cover; (2) every
    gamma-closed family with empty intersection has a subfamily with
    empty intersection of gamma-interiors; (3) the contrapositive of (2);
    (4) every filterbase accumulates somewhere; (5) every maximal
    filterbase converges somewhere.  cl_g is extensive, so the closures
    of a cover cover: (1).  int_g is contractive, so the interiors of a
    family meet inside its intersection: (2), and so (3).  Every point
    lies in each of its test sets, so a filterbase accumulates at each
    point of its kernel, and {p} converges at p: (4) and (5).

    The notes give the conditions under the cl_g-fixed reading of
    gamma-closed.  It is the same family: x is outside cl_g(A) iff some
    value at x misses A, iff some value at x lies inside X - A, iff x is
    in int_g(X - A).  So cl_g(A) = A iff X - A is gamma-open."""
    return "holds", None, {"cl_mode_conditions": (True,) * 5}


PAIRINGS = (
    "regular_open+standard",
    "regular_open+literal",
    "gamma_open_cl+standard",
    "gamma_open_cl+literal",
)
DEFAULT_PAIRING = "regular_open+standard"


def _class_mismatch(fb, net, reading: str, t: int, r: int):
    """The first point ``(x, part)`` at which the filterbase verdicts
    (kernel T, tables *fb*) and the net verdicts (tail T, range R, tables
    *net* of gamma-closures) disagree, or None.  By the tail/range lemma
    this decides every net and filterbase of the class."""
    conv = fb.converges[t] ^ net.converges[t]
    # every index lands in each closure iff {R} converges
    net_acc = net.accumulates[t] if reading == "standard" else net.converges[r]
    bad = conv | (fb.accumulates[t] ^ net_acc)
    if not bad:
        return None
    x = _lowest_point(bad)
    return x, "convergence" if conv >> x & 1 else "accumulation"


@lru_cache(maxsize=None)
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


def _first_net_witness(sp: Space, row, x: int, part: str) -> dict:
    """The witness of a ``_first_nets`` row: its net on S(size, top), where
    i <= j iff i == j or j is in the top class 0..top-1."""
    _, _, size, top, values = row
    return {
        "directed_set": {
            "size": size,
            "leq": [(i, j) for i in range(size) for j in range(size) if i == j or j < top],
        },
        "values": [sp.ground.labels[p] for p in values],
        "point": sp.ground.labels[x],
        "part": part,
    }


def _filterbase_witness(sp: Space, mismatch, net_converges) -> dict | None:
    """The first failing filterbase in the order of the oracle's
    ``enumerate_filterbases`` (``tests/test_bridge_oracle.py``), in closed
    form.  Bases come kernel-first, and for one kernel K the base
    {K} (class (K, K)) precedes the bases {K, U}, U a proper superset of K
    in ascending order (class (K, U)); larger bases only repeat those
    classes.  When (K, K) holds, (K, U) fails only under the literal
    reading, and exactly when the net's ``converges[U]`` differs from
    ``converges[K]``: the first such U is K plus the lowest point whose
    one-point extension changes it (*net_converges* is None under the
    cofinal reading, where U never matters)."""
    full = sp.ground.full_mask
    for k in range(1, full + 1):
        members = (k,)
        hit = mismatch(k, k)
        if hit is None and net_converges is not None:
            u = next((k | 1 << p for p in bits_of(full ^ k)
                      if net_converges[k | 1 << p] != net_converges[k]), None)
            if u is not None:
                members = (k, u)
                hit = mismatch(k, u)
        if hit is not None:
            x, part = hit
            return {
                "part": part,
                "filterbase": [_labels(sp, m) for m in members],
                "point": sp.ground.labels[x],
            }
    return None


@per_operator_class
def bridge_pairings(sp: Space) -> dict:
    """First mismatch witness per (test family, accumulation reading)
    pairing, for the net/tail-filterbase bridge and for the
    filterbase/constructed-net bridge.  Verdicts are mask expressions over
    the per-subset ``principal_verdicts`` tables.  The witnesses are the
    first failing net of the oracle's ``enumerate_nets`` and the first
    failing filterbase of its ``enumerate_filterbases``, in the orders of
    ``tests/test_bridge_oracle.py``, found without enumerating either:
    the first ``_first_nets`` row whose class fails, and
    ``_filterbase_witness``."""
    net_tables = principal_verdicts(sp, "gamma_open_cl")
    mismatch = {}
    result = {}
    for pairing in PAIRINGS:
        fam, reading = pairing.split("+")
        mismatch[pairing] = partial(_class_mismatch, principal_verdicts(sp, fam), net_tables, reading)
        literal = net_tables.converges if reading == "literal" else None
        witness = _filterbase_witness(sp, mismatch[pairing], literal)
        result[pairing] = {"C-P4.10": None, "C-P4.11": witness}

    # a net class (T, R) is the class of the base {T, R}: a pairing with no
    # failing filterbase has no failing net
    pending = [p for p in PAIRINGS if result[p]["C-P4.11"] is not None]
    if pending:
        for row in _first_nets(sp.ground.n):
            for pairing in list(pending):
                hit = mismatch[pairing](row[0], row[1])
                if hit is not None:
                    result[pairing]["C-P4.10"] = _first_net_witness(sp, row, *hit)
                    pending.remove(pairing)
            if not pending:
                break
    return result


def _bridge_verdict(sp: Space, prop: str):
    """The verdict on bridge proposition *prop* under the default pairing;
    the notes give its verdict under every pairing."""
    pairings = bridge_pairings(sp)
    witness = pairings[DEFAULT_PAIRING][prop]
    notes = {
        "default_pairing": DEFAULT_PAIRING,
        "pairings": {
            name: ("holds" if data[prop] is None else "fails")
            for name, data in pairings.items()
        },
    }
    return ("holds" if witness is None else "fails"), witness, notes


@_claim("C-P4.10", "other", (), "net verdicts match tail-filterbase verdicts")
def _check_p410(sp: Space):
    return _bridge_verdict(sp, "C-P4.10")


@_claim("C-P4.11", "other", (), "filterbase verdicts match constructed-net verdicts")
def _check_p411(sp: Space):
    return _bridge_verdict(sp, "C-P4.11")


@_claim("C-T4.13", "other", (),
        "cover condition, net accumulation and universal-net convergence agree")
def _check_t413(sp: Space):
    """Holds on every space.  The cover condition is C-P4.7-EQ's (1).  By
    the tail/range lemma a net accumulates at x iff its tail T
    does as a kernel, and nets within the cap realise every |T| <= cap.
    The accumulation table, the theta closure, is a ``meeting_table``,
    monotone in T, so some such net accumulates nowhere iff some
    one-point tail does.  But thetacl({p}) holds p, since p lies in every
    gamma-closure of a gamma-open set at p: every net accumulates.  A
    universal net has a one-point tail, which is inside a test set
    exactly when it meets it, so every universal net converges."""
    return "holds", None, {"restriction": NET_RESTRICTION_NOTE}


CLAIM_IDS = tuple(CLAIMS)
SAFE_CLAIMS = tuple(c.id for c in CLAIMS.values() if c.tier == "safe")
CONDITIONED_CLAIMS = tuple(c.id for c in CLAIMS.values() if c.tier == "conditioned")
_CLAIM_LISTS = {"safe": SAFE_CLAIMS, "conditioned": CONDITIONED_CLAIMS, "all": CLAIM_IDS}


def parse_claims(claims) -> tuple[str, ...]:
    """Claim ids from "safe", "conditioned", "all", a comma list or a
    sequence of ids, in the order given; an unknown or repeated id or an
    empty list raises UnknownClaim."""
    if isinstance(claims, str):
        claims = _CLAIM_LISTS[claims] if claims in _CLAIM_LISTS else claims.split(",")
    ids = tuple(cid.strip() for cid in claims if cid.strip())
    if not ids:
        raise UnknownClaim("the claim list is empty")
    for i, cid in enumerate(ids):
        if cid not in CLAIMS:
            raise UnknownClaim(f"unknown claim {cid!r}")
        if cid in ids[:i]:
            raise UnknownClaim(f"claim {cid!r} is named twice")
    return ids


# the space-level flags, in the order ``analyze`` prints them; claim
# hypotheses name them too
SPACE_FLAGS = {
    "extremally_disconnected": is_extremally_disconnected,
    "regular_operation": is_regular_operation,
    "open_operation": is_open_operation,
}


def space_flags(sp: Space) -> dict:
    """The space-level flags that ``analyze`` and the audits report."""
    return {name: flag(sp) for name, flag in SPACE_FLAGS.items()}


def check_claim(sp: Space, claim_id: str) -> Verdict:
    try:
        claim = CLAIMS[claim_id]
    except KeyError:
        raise UnknownClaim(f"unknown claim {claim_id!r}") from None
    key = sp.key
    unmet = [h for h in claim.hypotheses if not SPACE_FLAGS[h](sp)]
    if unmet:
        return Verdict(claim_id, key, "hypotheses_not_met", None, {"unmet": unmet})
    status, witness, notes = claim.check(sp)
    return Verdict(claim_id, key, status, witness, notes)


@per_operator_class
def _status_row(sp: Space, ids: tuple) -> tuple:
    """``(statuses, failing rows)`` of the claims in *ids*: a sweep counts
    the spaces per status tuple and reads only the failing rows, each
    ``(claim id, status, witness, notes)``, per space.  Shared by the
    operator class: ``check_claim`` reads the space's key, and a row keeps
    no part of it.  Witness and notes are shared too, so a caller copies
    before it adds anything."""
    verdicts = [check_claim(sp, cid) for cid in ids]
    return (tuple(v.status for v in verdicts),
            tuple((v.claim_id, v.status, v.witness, v.notes)
                  for v in verdicts if v.status == "fails"))


# -- per-space report ------------------------------------------------------

@per_operator_class
def _space_discrepancies(sp: Space) -> list:
    """Three statistics, each decided by a lemma; shared by the operator
    class, so a caller copies before it adds anything.  Tier-1 checks them
    against the literal scans over every subset.

    * ``closedness_definitions``: cl_g(A) = A iff X - A is gamma-open
      (C-P4.7-EQ), so the two readings of gamma-closed always agree.
    * ``cl_gamma_idempotent``: by the same duality cl_g(A) =
      X - int_g(X - A), so cl_g(cl_g(A)) = X - int_g(int_g(X - A)).  Hence
      cl_g is idempotent iff int_g is, iff the operation is open
      (``is_open_operation``).  Only a space that is not open is scanned,
      for the first A in mask order with cl_g(cl_g(A)) != cl_g(A).
    * ``cl_gamma_within_theta_closure``: take x in cl_g(A) and a gamma-open
      U at x.  Then x is in int_g(U), so some value at x lies inside U.
      That value meets A, so cl_g(U), which contains U, meets A.  So x is
      in thetacl(A): cl_g(A) is always inside thetacl(A).
    """
    witness = None
    if not is_open_operation(sp):
        cg = sp.cl_g
        witness = _labels(sp, next(a for a, c in enumerate(cg) if cg[c] != c))
    return [
        {"kind": "closedness_definitions", "agree": True, "agreement_rate": 1.0, "witness": None},
        {"kind": "cl_gamma_idempotent", "holds": witness is None, "witness": witness},
        {"kind": "cl_gamma_within_theta_closure", "holds": True, "witness": None},
    ]


def run_suite(sp: Space, claim_ids=None) -> VerificationReport:
    """Check claims in catalog order on one space."""
    ids = CLAIM_IDS if claim_ids is None else tuple(claim_ids)
    verdicts = [check_claim(sp, cid) for cid in ids]
    counts = {
        "claims": len(verdicts),
        "holds": sum(v.status == "holds" for v in verdicts),
        "fails": sum(v.status == "fails" for v in verdicts),
        "hypotheses_not_met": sum(v.status == "hypotheses_not_met" for v in verdicts),
        "spaces": 1,
    }
    return VerificationReport(verdicts, _space_discrepancies(sp), counts)


# -- enumeration sweeps ----------------------------------------------------

def parse_modes(modes) -> tuple[str, ...]:
    """Operation modes from a comma list or a sequence; an unknown mode or
    an empty list raises UnknownMode."""
    if isinstance(modes, str):
        modes = modes.split(",")
    out = tuple(m.strip() for m in modes if m.strip())
    if not out:
        raise UnknownMode("the operation mode list is empty")
    for m in out:
        if m not in ("builtins", "pivots", "all_tables"):
            raise UnknownMode(f"unknown operation mode {m!r}")
    return out


@dataclass
class TopologyRows:
    """One topology of the walk (``enumerate_slices``): its rows, in
    groups with one slice each, and one ``Space`` per group.

    Each slice of an ``OperationBlock`` is a group: the block's rows with
    that slice and each listed value at the empty set, but the dropped
    ones.  A builtin or pivot is a group of one row.  ``groups`` holds
    ``(space, row count)`` per group, in the order of their first rows;
    *space* is the first space on the topology with the group's slice.
    Every sweep, mine and bridge report reads the walk through
    ``report``, which visits the rows of the groups that it reports, in
    operation index order, and no other row."""

    index: int
    groups: list
    blocks: list  # operations_for(top, modes)

    def rows(self, chosen=None):
        """Yield ``(operation index, extension, operation, group index)``
        for each row of the groups in *chosen*, every group if None.  A
        row's index is read off its position in its block
        (``OperationBlock``), and its operation is the block's: None for
        a table."""
        oi = g = 0
        for block in self.blocks:
            slices, dropped, op = block.slices, block.dropped, block.op
            m = len(slices)
            picked = [r for r in range(m) if chosen is None or g + r in chosen]
            for rank, e in enumerate(block.empties):
                base = rank * m
                for r in picked:
                    p = base + r
                    skip = 0
                    if dropped:
                        skip = bisect_left(dropped, p)
                        if skip < len(dropped) and dropped[skip] == p:
                            continue
                    yield oi + p - skip, (e,) + slices[r], op, g + r
            oi += len(block.empties) * m - len(dropped)
            g += m

    def report(self, look):
        """Call ``look(space, row count)`` once per group, in group order;
        then yield ``(operation index, key, hit)`` for each row of a group
        whose hit, the value of ``look``, is truthy, in operation index
        order.  The keys of one group share its frame
        (``SpaceKey.slice_frame``): by the lemma in ``Space`` they differ
        only at the empty set, and a group has one kind, so machine output
        writes the rest of their text once per group."""
        hits = {}
        for g, (sp, count) in enumerate(self.groups):
            hit = look(sp, count)
            if hit:
                hits[g] = hit
        sp = self.groups[0][0]
        points, opens = sp.ground.labels, sp.top.opens_sorted
        frames = {}
        for oi, extension, op, g in self.rows(hits):
            kind = "table" if op is None else op.kind
            frame = frames.get(g)
            if frame is None:
                frame = frames[g] = SpaceKey.slice_frame(points, opens, kind, extension)
            yield oi, SpaceKey(points, opens, kind, extension, frame), hits[g]


def enumerate_slices(n: int, modes, topo_range=None):
    """Yield one ``TopologyRows`` per topology of the enumeration (in
    *topo_range*, if given), operations deduplicated by extension within
    each topology (``operations_for``).

    It builds one ``Space`` per slice, for the first row of the slice,
    and reads every later row of the slice through it, by the lemma in
    ``Space``: such a row differs from it at most at the empty set.  So a
    block's values at the empty set are range-checked once per block.
    A slice's space takes the block's operation, or for the table block
    the table of the slice's first row.  ``full_sweep``, ``mine`` and
    ``bridge_report`` read each topology through ``TopologyRows.report``.

    The modes, *n* and the table limit are checked at the call, before
    the first topology is asked for."""
    modes = parse_modes(modes)
    tops = enumerate_topologies(n)
    if "all_tables" in modes:
        check_table_points(n)
    return _walk(tops, modes, topo_range)


def _walk(tops, modes, topo_range):
    """The walk ``enumerate_slices`` returns, over the topologies *tops*."""
    for ti, top in enumerate(tops):
        if topo_range is not None and not topo_range[0] <= ti < topo_range[1]:
            continue
        ground = top.ground
        blocks = operations_for(top, modes)
        firsts = {}
        groups = []
        for block in blocks:
            empties, slices, op = block.empties, block.slices, block.op
            for e in empties:
                ground.check_mask(e)
            # a slice's first row is at the first empty-set value: a
            # dropped one has an earlier operation's slice
            first = empties[0]
            counts = [len(empties)] * len(slices)
            for p in block.dropped:
                counts[p % len(slices)] -= 1
            for s, count in zip(slices, counts):
                sp = firsts.get(s)
                if sp is None:
                    gamma = op or GammaOperation("table", values=(first,) + s)
                    sp = firsts[s] = Space(ground, top, gamma)
                groups.append((sp, count))
        yield TopologyRows(ti, groups, blocks)


def enumerate_spaces(n: int, modes):
    """Yield ``(topology_index, operation_index, space)`` per row of the
    walk (``enumerate_slices``), in index order, one ``Space`` per row:
    the row's group space where its extension is the row's, and otherwise
    a new space.  The new space differs from the group's at most at the
    empty set, so it packs equal tables and finds the group's class in
    ``operator_memos``: it shares its tables and memo, and unpacks
    nothing.  No command reads it; it stays here because the benchmark's
    verify workload draws its documents from it, and the tests use it as
    the per-space oracle of the walk."""
    for walk in enumerate_slices(n, modes):
        for oi, extension, op, g in walk.rows():
            sp = walk.groups[g][0]
            if sp.extension != extension:
                sp = Space(sp.ground, sp.top, op or GammaOperation("table", values=extension))
            yield walk.index, oi, sp


@per_operator_class
def check_invariants(sp: Space) -> list:
    """Structural laws every space must satisfy; returns violations,
    shared by the operator class, so a caller copies before it adds
    anything."""
    full = sp.ground.full_mask
    bad = []

    def hit(name, **witness):
        bad.append({"invariant": name, "witness": witness})

    ig, cg = sp.int_g, sp.cl_g
    theta = theta_closure_table(sp)
    for a in sp.ground.subsets():
        gi = ig[a]
        if gi != full ^ cg[full ^ a]:
            hit("int_cl_duality", subset=_labels(sp, a))
        if gi & ~a:
            hit("int_gamma_contractive", subset=_labels(sp, a))
        if a & ~cg[a]:
            hit("cl_gamma_extensive", subset=_labels(sp, a))
        if a & ~theta[a]:
            hit("thetacl_extensive", subset=_labels(sp, a))
    for name, table in (("int_gamma_monotone", ig), ("cl_gamma_monotone", cg),
                        ("thetacl_monotone", theta)):
        pair = _monotonicity_break(table)
        if pair is not None:
            hit(name, subset=_labels(sp, pair[0]), superset=_labels(sp, pair[1]))
    gopen = set(gamma_open_family(sp))
    for a in regular_open_family(sp):
        if a not in gopen:
            hit("regular_open_in_gamma_open", subset=_labels(sp, a))
    for a in sorted(gopen):
        if not sp.top.is_open(a):
            hit("gamma_open_in_opens", subset=_labels(sp, a))
    for a in theta_families(sp)[1]:
        if a not in gopen:
            hit("theta_open_implies_gamma_open", subset=_labels(sp, a))
    return bad


@dataclass
class SweepReport:
    """The claim tallies of one ``full_sweep``, and its failures in
    (topology index, operation index) order."""

    n: int
    modes: tuple
    claim_ids: tuple
    topologies: int
    spaces: int
    tallies: dict
    failures: list

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "modes": list(self.modes),
            "claims": list(self.claim_ids),
            "counts": {"topologies": self.topologies, "spaces": self.spaces},
            "tallies": self.tallies,
            "failures": [v.to_dict() for v in self.failures],
        }


@dataclass
class InvariantReport:
    n: int
    modes: tuple
    spaces: int
    violations: list
    stats: dict

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "modes": list(self.modes),
            "spaces": self.spaces,
            "violations": self.violations,
            "stats": self.stats,
        }


def full_sweep(n: int, modes, claim_ids, invariants: bool = True, topo_range=None):
    """One pass over the enumeration: claims plus, optionally, the
    structural invariants and the discrepancy statistics.

    Statuses and statistics are per operator class, so the pass counts
    the spaces per status tuple and per triple of statistics, and adds
    the counts to the tallies at the end.  It reads the walk
    (``enumerate_slices``) one slice at a time: a ``Space`` is built, and
    the status row, invariants and statistics looked up, once per slice,
    and the counts grow by the slice's number of rows.  Only a slice with
    failing rows or invariant violations has its rows visited, in index
    order; each row gets one key, shared by all its failures and
    violations, with the row's indices.  With *topo_range* ``(lo, hi)``
    only the topologies of index lo to hi - 1 are walked."""
    modes = parse_modes(modes)
    ids = parse_claims(claim_ids)
    tallies = {cid: {"holds": 0, "fails": 0, "hypotheses_not_met": 0} for cid in ids}
    failures = []
    violations = []
    stats = {
        "spaces": 0,
        "cl_gamma_idempotent_everywhere": 0,
        "cl_gamma_within_theta_closure_everywhere": 0,
        "closedness_definitions_agree_everywhere": 0,
    }
    status_counts = Counter()
    stat_counts = Counter()
    topologies = 0

    def look(sp, count):
        """Count the group; its failing rows and violations, if any."""
        statuses, failing = _status_row(sp, ids)
        status_counts[statuses] += count
        broken = ()
        if invariants:
            broken = check_invariants(sp)
            closedness, idempotent, within = _space_discrepancies(sp)
            # in the order of the statistics after "spaces"
            stat_counts[idempotent["holds"], within["holds"], closedness["agree"]] += count
        return (failing, broken) if failing or broken else None

    for walk in enumerate_slices(n, modes, topo_range):
        topologies += 1
        ti = walk.index
        for oi, key, (failing, broken) in walk.report(look):
            for cid, status, witness, notes in failing:
                failures.append(Verdict(cid, key, status, witness,
                                        dict(notes, topology_index=ti, operation_index=oi)))
            if broken:
                space = key.to_dict()
                for item in broken:
                    violations.append(dict(item, space=space,
                                           topology_index=ti, operation_index=oi))
    for statuses, count in status_counts.items():
        for cid, status in zip(ids, statuses):
            tallies[cid][status] += count
    for flags, count in stat_counts.items():
        for name, flag in zip(stats, (True, *flags)):
            stats[name] += flag * count
    spaces = status_counts.total()
    claim_report = SweepReport(n, modes, ids, topologies, spaces, tallies, failures)
    inv_report = InvariantReport(n, modes, spaces, violations, stats) if invariants else None
    return claim_report, inv_report


@dataclass
class BridgeReport:
    n: int
    modes: tuple
    spaces: int
    pairings: dict
    satisfying: list

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "modes": list(self.modes),
            "max_dir_size": NET_SIZE_CAP,
            "spaces": self.spaces,
            "pairings": self.pairings,
            "satisfying_pairings": self.satisfying,
        }


def bridge_report(n: int, modes=("builtins", "pivots")) -> BridgeReport:
    """Evaluate the two bridge propositions under all four definitional
    pairings over the enumeration, collecting failure counts and the first
    three witnesses of each.

    It reads the walk (``enumerate_slices``) like ``full_sweep``: the
    pairings once per slice, whose row count each failure count grows by.
    Only the rows of a slice that fails where fewer than three witnesses
    are held get a key, in index order, shared by all their witnesses."""
    modes = parse_modes(modes)
    pairings = {
        name: {
            "C-P4.10": {"failures": 0, "witnesses": []},
            "C-P4.11": {"failures": 0, "witnesses": []},
        }
        for name in PAIRINGS
    }
    spaces = 0

    def look(sp, count):
        """Count the group's failures; the (entry, witness) pairs of those
        that an entry short of three witnesses may still take."""
        nonlocal spaces
        spaces += count
        found = bridge_pairings(sp)
        wanted = []
        for name in PAIRINGS:
            for prop in ("C-P4.10", "C-P4.11"):
                witness = found[name][prop]
                if witness is not None:
                    entry = pairings[name][prop]
                    entry["failures"] += count
                    if len(entry["witnesses"]) < 3:
                        wanted.append((entry, witness))
        return wanted

    for walk in enumerate_slices(n, modes):
        for oi, key, wanted in walk.report(look):
            for entry, witness in wanted:
                if len(entry["witnesses"]) < 3:
                    entry["witnesses"].append(dict(witness, space=key.to_dict(),
                                                   topology_index=walk.index,
                                                   operation_index=oi))
    satisfying = [
        name
        for name in PAIRINGS
        if pairings[name]["C-P4.10"]["failures"] == 0
        and pairings[name]["C-P4.11"]["failures"] == 0
    ]
    return BridgeReport(n, modes, spaces, pairings, satisfying)


# -- mining ----------------------------------------------------------------

SEPARATIONS = {
    "gamma_open_not_regular_open": (is_gamma_open, is_gamma_regular_open),
    "theta_open_not_regular_open": (is_theta_open, is_gamma_regular_open),
    "gamma_open_not_theta_open": (is_gamma_open, is_theta_open),
    "regular_open_not_clopen": (is_gamma_regular_open, is_gamma_clopen),
    "regular_open_not_gamma_open": (is_gamma_regular_open, is_gamma_open),
}


@per_operator_class
def _separations(sp: Space, predicate: str) -> tuple:
    """The subsets that separate the named pair, ascending: a predicate
    reads the operators, so the tuple is shared by the operator class."""
    return tuple(_separating(sp, *SEPARATIONS[predicate]))


@per_operator_class
def _separation_witnesses(sp: Space, predicate: str) -> tuple:
    """The witnesses ``mine`` reports for the named pair, one
    ``{"subset": labels}`` per separating subset: built once per operator
    class and shared, unmutated, by the hits of every space in it."""
    return tuple({"subset": _labels(sp, a)} for a in _separations(sp, predicate))


PREDICATE_NAMES = tuple(sorted(SEPARATIONS)) + tuple(f"fails:{cid}" for cid in CLAIM_IDS)


@dataclass(slots=True)
class MinedWitness:
    """One hit of ``mine``; like ``Verdict`` it keeps the space's key, not
    the ``Space``, so a long list of hits pins no operator tables.

    ``frame`` is the record frame that the hits of one group and witness
    share, if ``mine`` made one: the record with ``Framed.HOLE`` for the
    operation index and the group's slice frame (``SpaceKey.slice_frame``)
    as its space, so the record differs from the others of its frame only
    at the frame's two holes."""

    topology_index: int
    operation_index: int
    space: SpaceKey
    witness: dict
    frame: dict | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        """The record as JSON values; a ``jsonout.Framed`` on ``frame``, if
        there is one, filled with the operation index and the space's own
        fills, its label list at the empty set."""
        space = self.space.to_dict()
        if self.frame is None:
            return {
                "topology_index": self.topology_index,
                "operation_index": self.operation_index,
                "space": space,
                "witness": self.witness,
            }
        # a copy of the frame holds the right indices and witness already
        record = Framed(self.frame)
        record["operation_index"] = self.operation_index
        record["space"] = space
        record.frame, record.fill, record.scope = (
            self.frame, (self.operation_index,) + space.fill, space.scope)
        return record


def mine(n: int, op_mode, predicate: str) -> list:
    """Search the (topology, operation) enumeration for a named separation
    or for failures of one claim.  An empty result certifies absence over
    the whole enumeration.

    It reads the whole walk (``enumerate_slices``) once, one slice at a
    time: a ``Space`` is built, and the hits looked up, once per slice;
    the hits, witness dicts included, are built once per operator class.
    Only a slice with hits has its rows visited, in index order, and each
    row gets one key, shared by all its hits.

    A group of more than one row gets one record frame per witness
    (``MinedWitness.frame``), shared by the group's hits on that witness,
    so machine output writes the text of each record once per group and
    witness, and each hit as that text around its operation index and
    value at the empty set.  A group of one row, as every builtin and
    pivot is, keeps plain records: a frame written once costs more than
    it saves.  Framing them too took the CPU time of an in-process
    ``mine --n 4 --ops builtins,pivots --format machine`` from about 211
    to 261 ms on ``gamma_open_not_regular_open`` and from 184 to 218 ms
    on ``regular_open_not_clopen`` (medians of 6, 2-core VM)."""
    # the walk checks its sizes at the call, before the predicate is read
    walks = enumerate_slices(n, op_mode)
    claim_id = None
    if predicate.startswith("fails:"):
        claim_id = predicate[len("fails:"):]
        if claim_id not in CLAIMS:
            raise UnknownPredicate(f"unknown claim in predicate {predicate!r}")
    elif predicate not in SEPARATIONS:
        raise UnknownPredicate(
            f"unknown predicate {predicate!r}; known: {', '.join(PREDICATE_NAMES)}"
        )

    def look(sp, count):
        # a group's hit: its witnesses, and its row count, which decides
        # whether its records are framed
        if claim_id is not None:
            witnesses = [row[2] for row in _status_row(sp, (claim_id,))[1]]
        else:
            witnesses = _separation_witnesses(sp, predicate)
        return (witnesses, count) if witnesses else None

    out = []
    for walk in walks:
        ti = walk.index
        # per group frame's id, the group's record frames, which hold it
        records = {}
        for oi, key, (witnesses, count) in walk.report(look):
            if count == 1:
                out.extend(MinedWitness(ti, oi, key, witness) for witness in witnesses)
                continue
            frames = records.get(id(key.frame))
            if frames is None:
                frames = records[id(key.frame)] = [
                    {"topology_index": ti, "operation_index": Framed.HOLE,
                     "space": key.frame, "witness": witness}
                    for witness in witnesses
                ]
            out.extend(map(partial(MinedWitness, ti, oi, key), witnesses, frames))
    return out


# -- example audits ---------------------------------------------------------

_EXAMPLE_DOCS = {
    "3.2": "example3_2",
    "3.5": "example3_5",
    "3.16": "example3_16",
    "3.17": "example3_17",
}

# families as printed in the worked examples these documents encode
_PRINTED = {
    "3.2": {
        "gamma_open": ((), ("b",), ("a", "b"), ("a", "c"), ("a", "b", "c")),
        "regular_open": ((), ("b",), ("a", "c"), ("a", "b", "c")),
    },
    "3.5": {
        "gamma_open": ((), ("a",), ("b",), ("a", "b"), ("a", "b", "c")),
        "regular_open": ((), ("a",), ("b",), ("a", "b"), ("a", "b", "c")),
    },
    "3.16": {
        "gamma_open": ((), ("b",), ("a", "b"), ("a", "c"), ("a", "b", "c")),
        "theta_open": ((), ("b",), ("a", "b"), ("a", "c"), ("a", "b", "c")),
        "regular_open": ((), ("b",), ("a", "c"), ("a", "b", "c")),
    },
    "3.17": {
        "gamma_open": ((), ("a",), ("a", "c"), ("a", "b", "c")),
        "theta_open": ((), ("a", "c"), ("a", "b", "c")),
    },
}

_QUALITATIVE = {
    "3.2": ("gamma_open_not_regular_open", ("a", "b")),
    "3.5": ("regular_open_not_clopen", ("a",)),
    "3.16": ("theta_open_not_regular_open", ("a", "b")),
    "3.17": ("gamma_open_not_theta_open", ("a",)),
}

_FAMILY_FNS = {
    "gamma_open": gamma_open_family,
    "regular_open": regular_open_family,
    "theta_open": lambda sp: theta_families(sp)[1],
}


@dataclass
class FamilyDiff:
    name: str
    printed: list
    recomputed: list
    match: bool
    missing_from_printed: list
    spurious_in_printed: list

    def to_dict(self) -> dict:
        return {
            "family": self.name,
            "printed": self.printed,
            "recomputed": self.recomputed,
            "match": self.match,
            "missing_from_printed": self.missing_from_printed,
            "spurious_in_printed": self.spurious_in_printed,
        }


@dataclass
class ExampleAudit:
    example: str
    space: SpaceKey
    families: list
    qualitative: dict
    flags: dict

    def to_dict(self) -> dict:
        return {
            "example": self.example,
            "space": self.space.to_dict(),
            "families": [f.to_dict() for f in self.families],
            "qualitative": self.qualitative,
            "flags": self.flags,
        }


def audit_example(which: str) -> ExampleAudit:
    """Rebuild one bundled example space, recompute every family it prints,
    diff against the printed family, and re-evaluate its separation claim
    from the recomputed data."""
    if which not in _EXAMPLE_DOCS:
        raise UnknownExample(f"unknown example {which!r}; known: 3.2, 3.5, 3.16, 3.17")
    sp = documents.load_bundled(_EXAMPLE_DOCS[which])
    diffs = []
    for name, printed in _PRINTED[which].items():
        printed_masks = sorted(sp.ground.mask_of(t) for t in printed)
        recomputed = list(_FAMILY_FNS[name](sp))
        diffs.append(
            FamilyDiff(
                name=name,
                printed=[_labels(sp, m) for m in printed_masks],
                recomputed=[_labels(sp, m) for m in recomputed],
                match=printed_masks == recomputed,
                missing_from_printed=[
                    _labels(sp, m) for m in recomputed if m not in printed_masks
                ],
                spurious_in_printed=[
                    _labels(sp, m) for m in printed_masks if m not in recomputed
                ],
            )
        )
    sep_name, printed_witness = _QUALITATIVE[which]
    found = _separations(sp, sep_name)
    qualitative = {
        "separation": sep_name,
        "printed_witness": list(printed_witness),
        "printed_witness_valid": sp.ground.mask_of(printed_witness) in found,
        "recomputed_witnesses": [_labels(sp, a) for a in found],
        "supported_in_space": bool(found),
    }
    return ExampleAudit(which, sp.key, diffs, qualitative, space_flags(sp))
