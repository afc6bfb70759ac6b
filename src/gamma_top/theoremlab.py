"""Claim catalog and exhaustive verification machinery.

Every claim is a decidable statement about one finite space, and reads
only the space's operator class (``gamma_core.OperatorClass``), which a
checker takes in its place.  A claim checker quantifies over the
subsets, subset families, or the classes of filterbases and small nets
(the tail/range lemma in ``gamma_core``; no net is enumerated) and
returns holds / fails-with-witness; ``check_claim`` reports instead that
the class does not meet the claim's hypotheses.  Ten claims
are theorems of every finite space.  Each follows from the laws that
``check_invariants`` checks (cl_g extensive, int_g contractive, the two
dual) or from a meeting table (``finspace.meeting_lanes``) being
monotone, by the lemma in its checker's docstring, and that checker
returns "holds" without a scan.
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
(``enumerate_slices``), which finds the operator class of each slice of
operation values without building a ``Space``, from the OR of its opens'
cached closures (``gamma_core.open_closures``), and groups the rows by
slice, and through its one report loop (``TopologyRows.report``).  The
loop makes one row per operator class of a topology, kept in a dict for
that topology alone: a sweep's statuses (``check_claim``) with its
invariants and statistics, the bridge verdicts, or a mine's witnesses
(``check_claim`` or ``_separations``).
They look a row up once per slice and add the slice's row count to
their tallies, and the loop visits a row only where they report it.  It
builds no key: a sweep or the bridge report builds one for each row it
keeps, and a mine's hit (``MinedWitness``), one per row, writes its
records without one.  The audits rebuild the four bundled example
spaces and diff their published families against recomputation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter

from . import documents
from .finspace import PointSet, Topology, enumerate_topologies, validate_topology
from .gamma_core import (
    DEFAULT_PAIRING,
    NET_SIZE_CAP,
    PAIRINGS,
    GammaOperation,
    OperatorClass,
    Space,
    SpaceKey,
    check_table_points,
    framed_space,
    open_closures,
    operations_for,
    operator_class,
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
    """Register the decorated checker as claim *cid*.  A checker takes an
    operator class, so it never reads the operation's values, and keeps
    no memo: ``check_claim``, the one path to it, runs it once per space
    for ``run_suite`` and once per operator class of a topology for a
    sweep or a mine.  ``check_claim`` tests the hypotheses first, through
    the class's flags (``SPACE_FLAGS``)."""

    def register(check):
        CLAIMS[cid] = Claim(cid, tier, hypotheses, statement, check)
        return check

    return register


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


def _labels(cls: OperatorClass, mask: int) -> list:
    """A shared, read-only label list (``PointSet.label_list``) over the
    ground set of *cls*, an operator class or a space."""
    return cls.ground.label_list(mask)


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

def _first_ro_not_gamma_open(cls: OperatorClass):
    """R0 of the ED lemma: the first regular-open set, ascending, that is
    not gamma-open; None when there is none."""
    ig = cls.int_g
    return next((a for a in cls.regular_open if ig[a] != a), None)


def _fails_at_r0(cls: OperatorClass, **fields):
    """Fails with witness {"subset": R0, **fields}; holds without R0."""
    r0 = _first_ro_not_gamma_open(cls)
    if r0 is None:
        return "holds", None, {}
    return "fails", {"subset": _labels(cls, r0), **fields}, {}


# Lemma (open operation + ED).  The five claims that assume an open
# operation on an extremally disconnected space (C-T3.9-CONV, C-T3.14 and
# C-T3.15-A/B/C) hold on every such space, and their checkers return
# "holds" without a scan.  Under an open operation int_g(A) is the largest
# gamma-open subset of A (``OperatorClass.open_operation``).  So, by
# duality, cl_g(A) is the smallest gamma-closed superset of A, and cl_g is
# idempotent.  ED adds that cl_g(U) is gamma-open for every gamma-open U.
# Then:
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
#     So ``cls.theta_closure`` is the table ``acc`` of
#     ``cls.principal_verdicts["regular_open"]``, unpacked.


@_claim("C-RO-INCL", "safe", (), "regular-open sets are gamma-open; gamma-open sets are open")
def _check_ro_incl(cls: OperatorClass):
    """The first part fails exactly at R0 (ED lemma), by definition.  A
    gamma-open A is open: each x in A has an open U at x with
    U <= value(U) <= A (expansiveness)."""
    return _fails_at_r0(cls, part="regular_open_not_gamma_open")


@_claim("C-P3.4-FWD", "other", (), "gamma-clopen implies gamma-regular-open")
def _check_p34_fwd(cls: OperatorClass):
    """Holds on every space: A = int_g(A) = cl_g(A) gives
    int_g(cl_g(A)) = int_g(A) = A."""
    return "holds", None, {}


@_claim("C-P3.4-CONV", "conditioned", ("extremally_disconnected",),
        "gamma-regular-open implies gamma-clopen")
def _check_p34_conv(cls: OperatorClass):
    """Fails first at R0, or holds (ED lemma, (i))."""
    return _fails_at_r0(cls)


@_claim("C-T3.6", "safe", (), "clopen implies cl.int-fixed implies complement regular-open")
def _check_t36(cls: OperatorClass):
    """Holds on every space.  A clopen A gives cl_g(int_g(A)) = cl_g(A) = A.
    If cl_g(int_g(A)) = A, duality (int_g(B) = X - cl_g(X - B)) gives
    int_g(cl_g(X - A)) = X - cl_g(int_g(A)) = X - A."""
    return "holds", None, {}


@_claim("C-T3.7", "conditioned", ("extremally_disconnected",),
        "complement regular-open implies regular-open implies clopen")
def _check_t37(cls: OperatorClass):
    """Fails first at R0, regular-open and not clopen, or holds (ED lemma,
    (iv)).  R0's complement is not regular-open, so the first part holds
    there."""
    return _fails_at_r0(cls, part="regular_open_to_clopen")


@_claim("C-T3.8", "conditioned", ("extremally_disconnected",),
        "clopen, cl.int-fixed, complement regular-open and regular-open coincide")
def _check_t38(cls: OperatorClass):
    """Fails first at R0, with R0's four flags, or holds (ED lemma, (iv))."""
    return _fails_at_r0(cls, clopen=False, cl_int_fixed=False,
                        complement_regular_open=False, regular_open=True)


# Both C-T3.9 claims require an open operation, under which cl_g is
# idempotent (``_space_discrepancies``): their notes are this one dict,
# shared and never mutated
_CL_IDEMPOTENT_NOTES = {"cl_gamma_idempotent": True}


@_claim("C-T3.9-FWD", "conditioned", ("open_operation",),
        "if cl_g(A) is regular-open then A is gamma-open")
def _check_t39_fwd(cls: OperatorClass):
    notes = _CL_IDEMPOTENT_NOTES
    ig, cg = cls.int_g, cls.cl_g
    for a, c in enumerate(cg):
        if ig[cg[c]] == c and ig[a] != a:
            return "fails", {"subset": _labels(cls, a)}, notes
    return "holds", None, notes


@_claim("C-T3.9-CONV", "conditioned", ("open_operation", "extremally_disconnected"),
        "if A is gamma-open then cl_g(A) is regular-open")
def _check_t39_conv(cls: OperatorClass):
    """Holds (open + ED lemma): cl_g(A) is gamma-open by ED and equals
    cl_g(cl_g(A)), so int_g(cl_g(cl_g(A))) = cl_g(A)."""
    return "holds", None, _CL_IDEMPOTENT_NOTES


@_claim("C-C3.10", "conditioned", ("extremally_disconnected",),
        "cl_g(int_g(A)) is regular-open for every A")
def _check_c310(cls: OperatorClass):
    ig, cg = cls.int_g, cls.cl_g
    for a in cls.ground.subsets():
        c = cg[ig[a]]
        if ig[cg[c]] != c:
            return "fails", {"subset": _labels(cls, a)}, {}
    return "holds", None, {}


@_claim("C-P3.13-1", "safe", (), "the theta closure is monotone")
def _check_p313_1(cls: OperatorClass):
    """Holds on every space: the theta closure is a meeting table
    (``finspace.meeting_lanes``), and a set that meets A meets every
    superset of A."""
    return "holds", None, {}


@_claim("C-P3.13-2", "safe", (), "intersections of theta-closed families are theta-closed")
def _check_p313_2(cls: OperatorClass):
    """Holds on every space: the theta closure is monotone (C-P3.13-1) and
    extensive (every point x of A lies in each gamma-closure of a
    gamma-open set at x, which so meets A).  So V = the intersection of
    theta-closed sets C_i gives V <= thetacl(V) <= the intersection of the
    thetacl(C_i) = C_i, which is V.  The empty family gives
    X = thetacl(X)."""
    return "holds", None, {}


@_claim("C-T3.14", "conditioned", ("open_operation", "extremally_disconnected"),
        "theta closure equals the meet of theta-closed supersets and of regular-open supersets")
def _check_t314(cls: OperatorClass):
    """Holds (open + ED lemma): by (c) and (b), x is outside thetacl(A) iff
    a regular-open superset of A misses x, so thetacl(A) is the meet of the
    regular-open supersets.  So it is a theta-closed superset of A
    (C-T3.15-C and C-P3.13-2), inside every other one as thetacl is
    monotone."""
    return "holds", None, {}


@_claim("C-T3.15-A", "conditioned", ("open_operation", "extremally_disconnected"),
        "theta-closure membership tests against regular-open neighbourhoods")
def _check_t315a(cls: OperatorClass):
    """Holds (open + ED lemma): (c)."""
    return "holds", None, {}


@_claim("C-T3.15-B", "conditioned", ("open_operation", "extremally_disconnected"),
        "theta-open means every point has a regular-open neighbourhood inside")
def _check_t315b(cls: OperatorClass):
    """Holds (open + ED lemma): by (c), x is outside thetacl(X - A) iff
    some regular-open neighbourhood of x lies inside A."""
    return "holds", None, {}


@_claim("C-T3.15-C", "conditioned", ("open_operation", "extremally_disconnected"),
        "regular-open coincides with theta-clopen")
def _check_t315c(cls: OperatorClass):
    """Holds (open + ED lemma).  For x outside a regular-open R, X - R is a
    regular-open neighbourhood of x (b) missing R: so R, and X - R, are
    theta-closed.  Conversely cl_g <= thetacl (``_space_discrepancies``),
    so a theta-clopen set is gamma-clopen, and regular-open by (a)."""
    return "holds", None, {}


@_claim("C-CHAIN-RO-TO", "other", (), "regular-open implies theta-open")
def _check_chain_ro_to(cls: OperatorClass):
    full, theta = cls.ground.full_mask, cls.theta_closure
    for a in cls.regular_open:
        if theta[full ^ a] != full ^ a:
            return "fails", {"subset": _labels(cls, a)}, {}
    return "holds", None, {}


@_claim("C-CHAIN-TO-GO", "other", (), "theta-open implies gamma-open")
def _check_chain_to_go(cls: OperatorClass):
    """Holds on every space: cl_g(B) <= thetacl(B) (``_space_discrepancies``)
    and cl_g is extensive.  So thetacl(X - A) = X - A forces
    cl_g(X - A) = X - A, and duality gives int_g(A) = X - cl_g(X - A) = A."""
    return "holds", None, {}


@_claim("C-T4.3", "safe", (), "filterbase convergence implies accumulation")
def _check_t43(cls: OperatorClass):
    """Holds on every space.  A filterbase's verdicts are those of its
    kernel K, which is not empty (the tail/range lemma).  If it
    converges at x then K <= K_x, the meet of x's test sets: every test
    set of x contains K, so it meets K."""
    return "holds", None, {}


@_claim("C-T4.4", "safe", (),
        "accumulation passes from a subordinate filterbase to the coarser one")
def _check_t44(cls: OperatorClass):
    """Holds on every space.  A filterbase accumulates where its kernel
    does, and a subordinate base has its kernel inside the coarse one's.
    The accumulation table is a meeting table (``finspace.meeting_lanes``),
    so it is monotone."""
    return "holds", None, {}


@_claim("C-T4.5", "safe", (), "for maximal filterbases accumulation and convergence coincide")
def _check_t45(cls: OperatorClass):
    """Holds on every space.  A maximal filterbase has a one-point kernel
    {p}, and {p} accumulates at x iff p is in every test set of x, iff p is
    in K_x, the meet of those sets, iff {p} converges at x."""
    return "holds", None, {}


@_claim("C-P4.7-EQ", "safe", (), "the five cover/accumulation conditions all hold")
def _check_p47(cls: OperatorClass):
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


def bridge_pairings(sp: Space) -> dict:
    """The bridge pairings of the space's operator class
    (``OperatorClass.bridge_pairings``)."""
    return sp.cls.bridge_pairings


def _bridge_verdict(cls: OperatorClass, prop: str):
    """The verdict on bridge proposition *prop* under the default pairing;
    the notes give its verdict under every pairing."""
    pairings = cls.bridge_pairings
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
def _check_p410(cls: OperatorClass):
    return _bridge_verdict(cls, "C-P4.10")


@_claim("C-P4.11", "other", (), "filterbase verdicts match constructed-net verdicts")
def _check_p411(cls: OperatorClass):
    return _bridge_verdict(cls, "C-P4.11")


@_claim("C-T4.13", "other", (),
        "cover condition, net accumulation and universal-net convergence agree")
def _check_t413(cls: OperatorClass):
    """Holds on every space.  The cover condition is C-P4.7-EQ's (1).  By
    the tail/range lemma a net accumulates at x iff its tail T
    does as a kernel, and nets within the cap realise every |T| <= cap.
    The accumulation table, the theta closure, is a meeting table
    (``finspace.meeting_lanes``), monotone in T, so some such net accumulates nowhere iff some
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


# the space-level flags, in the order ``analyze`` prints them: properties
# of the operator class, which claim hypotheses name too
SPACE_FLAGS = ("extremally_disconnected", "regular_operation", "open_operation")


def space_flags(sp: Space) -> dict:
    """The space-level flags that ``analyze`` and the audits report."""
    return {name: getattr(sp.cls, name) for name in SPACE_FLAGS}


def check_claim(cls: OperatorClass, claim_id: str) -> tuple:
    """``(status, witness, notes)`` of one claim on an operator class: the
    one path from a claim to its verdict, which ``run_suite`` runs once per
    space and a sweep or a mine once per class.  The hypotheses are the
    class's flags (``SPACE_FLAGS``), tested first.  Witness and notes may
    be shared, so a caller copies before it adds anything."""
    try:
        claim = CLAIMS[claim_id]
    except KeyError:
        raise UnknownClaim(f"unknown claim {claim_id!r}") from None
    unmet = [h for h in claim.hypotheses if not getattr(cls, h)]
    if unmet:
        return "hypotheses_not_met", None, {"unmet": unmet}
    return claim.check(cls)


# -- per-space report ------------------------------------------------------

def _space_discrepancies(cls: OperatorClass) -> list:
    """Three statistics, each decided by a lemma.  Tier-1 checks them
    against the literal scans over every subset.

    * ``closedness_definitions``: cl_g(A) = A iff X - A is gamma-open
      (C-P4.7-EQ), so the two readings of gamma-closed always agree.
    * ``cl_gamma_idempotent``: by the same duality cl_g(A) =
      X - int_g(X - A), so cl_g(cl_g(A)) = X - int_g(int_g(X - A)).  Hence
      cl_g is idempotent iff int_g is, iff the operation is open
      (``OperatorClass.open_operation``).  Only a class that is not open
      is scanned, for the first A in mask order with
      cl_g(cl_g(A)) != cl_g(A).
    * ``cl_gamma_within_theta_closure``: take x in cl_g(A) and a gamma-open
      U at x.  Then x is in int_g(U), so some value at x lies inside U.
      That value meets A, so cl_g(U), which contains U, meets A.  So x is
      in thetacl(A): cl_g(A) is always inside thetacl(A).
    """
    witness = None
    if not cls.open_operation:
        cg = cls.cl_g
        witness = _labels(cls, next(a for a, c in enumerate(cg) if cg[c] != c))
    return [
        {"kind": "closedness_definitions", "agree": True, "agreement_rate": 1.0, "witness": None},
        {"kind": "cl_gamma_idempotent", "holds": witness is None, "witness": witness},
        {"kind": "cl_gamma_within_theta_closure", "holds": True, "witness": None},
    ]


def run_suite(sp: Space, claim_ids=None) -> VerificationReport:
    """Check claims in catalog order on one space."""
    ids = CLAIM_IDS if claim_ids is None else tuple(claim_ids)
    key, cls = sp.key, sp.cls
    verdicts = [Verdict(cid, key, *check_claim(cls, cid)) for cid in ids]
    counts = {
        "claims": len(verdicts),
        "holds": sum(v.status == "holds" for v in verdicts),
        "fails": sum(v.status == "fails" for v in verdicts),
        "hypotheses_not_met": sum(v.status == "hypotheses_not_met" for v in verdicts),
        "spaces": 1,
    }
    return VerificationReport(verdicts, _space_discrepancies(cls), counts)


# -- enumeration sweeps ----------------------------------------------------

def parse_modes(modes) -> tuple[str, ...]:
    """Operation modes from a comma list or a sequence, each once, in the
    order of its first occurrence: a repeated mode adds no operation, as
    the walk keeps one operation per extension.  An unknown mode or an
    empty list raises UnknownMode."""
    if isinstance(modes, str):
        modes = modes.split(",")
    out = tuple(dict.fromkeys(m.strip() for m in modes if m.strip()))
    if not out:
        raise UnknownMode("the operation mode list is empty")
    for m in out:
        if m not in ("builtins", "pivots", "all_tables"):
            raise UnknownMode(f"unknown operation mode {m!r}")
    return out


@dataclass
class TopologyRows:
    """One topology of the walk (``enumerate_slices``): the topology, its
    rows, in groups with one slice each, and the operator class of each
    group.

    Each slice of an ``OperationBlock`` is a group: the block's rows with
    that slice and each listed value at the empty set, but the dropped
    ones.  A builtin or pivot is a group of one row.  ``groups`` holds
    ``(class, row count)`` per group, in the order of their first rows;
    *class* is the ``OperatorClass`` of every row of the group, on
    ``top``.  Every sweep, mine and bridge report reads the walk through
    ``report``, which visits the rows of the groups that it reports, in
    operation index order, and no other row, and builds no key (``key``
    builds one)."""

    index: int
    top: Topology
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

    def report(self, class_row, look):
        """Call ``class_row(cls)`` once per operator class of the groups,
        keeping its value, the class's row, in a dict for this
        topology alone, and ``look(class's row, row count)`` once per group,
        in group order; then yield ``(operation index, extension, frame,
        hit)`` for each row of a group whose hit, the value of ``look``, is
        truthy, in operation index order.  *frame* is the group's slice
        frame (``SpaceKey.slice_frame``), made once per group and shared by
        its rows: by the lemma in ``Space`` they differ only at the empty
        set, and a group has one kind, so machine output writes the rest of
        their text once per group.  No row gets a key here: a caller makes
        one (``key``) only for a row it keeps."""
        class_rows = {}
        hits = {}
        for g, (cls, count) in enumerate(self.groups):
            found = class_rows.get(cls)
            if found is None:
                found = class_rows[cls] = class_row(cls)
            hit = look(found, count)
            if hit:
                hits[g] = hit
        points, opens = self.ground.labels, self.opens
        frames = {}
        for oi, extension, op, g in self.rows(hits):
            frame = frames.get(g)
            if frame is None:
                kind = "table" if op is None else op.kind
                frame = frames[g] = SpaceKey.slice_frame(points, opens, kind, extension)
            yield oi, extension, frame, hits[g]

    @property
    def ground(self) -> PointSet:
        return self.top.ground

    @property
    def opens(self) -> tuple[int, ...]:
        """The topology's opens, ascending."""
        return self.top.opens_sorted

    def key(self, extension, frame) -> SpaceKey:
        """The key of a row that ``report`` yields with *extension* and
        *frame*."""
        return SpaceKey(self.ground.labels, self.opens, frame["gamma"]["kind"], extension, frame)


def enumerate_slices(n: int, modes, topo_range=None):
    """Yield one ``TopologyRows`` per topology of the enumeration (in
    *topo_range*, if given), operations deduplicated by extension within
    each topology (``operations_for``).

    It builds no ``Space``.  Per topology it keeps the key
    (``gamma_core.open_closures``) of each (open index, value) pair it
    meets, made and checked when first met, and keys each slice's class
    by the OR of its opens' pairs (``gamma_core.operator_class``); this
    is the key a space of the slice packs (the OR lemma in
    ``finspace.closed_lanes``).  By the lemma in ``Space`` every row of
    the slice is of that class, as it differs from the slice at most at
    the empty set, which marks nothing: so a block's values at the empty
    set are range-checked once per block.  ``full_sweep``, ``mine`` and
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
        opens = top.opens_sorted
        blocks = operations_for(top, modes)
        # per (open index, value) met on this topology, its key
        # (``open_closures``)
        closures = {}
        groups = []
        for block in blocks:
            empties, slices = block.empties, block.slices
            for e in empties:
                ground.check_mask(e)
            counts = [len(empties)] * len(slices)
            for p in block.dropped:
                counts[p % len(slices)] -= 1
            for s, count in zip(slices, counts):
                inside = misses = 0
                for i, value in enumerate(s, 1):
                    pair = closures.get((i, value))
                    if pair is None:
                        pair = closures[i, value] = open_closures(ground, opens[i], value)
                    inside |= pair[0]
                    misses |= pair[1]
                groups.append((operator_class(top, (inside, misses)), count))
        yield TopologyRows(ti, top, groups, blocks)


def enumerate_spaces(n: int, modes):
    """Yield ``(topology_index, operation_index, space)`` per row of the
    walk (``enumerate_slices``), in index order, one ``Space`` per row,
    with the row's operation, or for a table row the table of its values.
    The space finds its group's class in ``operator_memos``, as the walk
    put it there, and unpacks nothing.  No command reads it; it stays
    here because the benchmark's verify workload draws its documents from
    it, and the tests use it as the per-space oracle of the walk."""
    for walk in enumerate_slices(n, modes):
        top = walk.top
        for oi, extension, op, _ in walk.rows():
            yield walk.index, oi, Space(top.ground, top, op or GammaOperation("table", values=extension))


def check_invariants(cls: OperatorClass) -> list:
    """Structural laws every space must satisfy, checked on its operator
    class; returns violations."""
    full = cls.ground.full_mask
    bad = []

    def hit(name, **witness):
        bad.append({"invariant": name, "witness": witness})

    ig, cg = cls.int_g, cls.cl_g
    theta = cls.theta_closure
    for a in cls.ground.subsets():
        gi = ig[a]
        if gi != full ^ cg[full ^ a]:
            hit("int_cl_duality", subset=_labels(cls, a))
        if gi & ~a:
            hit("int_gamma_contractive", subset=_labels(cls, a))
        if a & ~cg[a]:
            hit("cl_gamma_extensive", subset=_labels(cls, a))
        if a & ~theta[a]:
            hit("thetacl_extensive", subset=_labels(cls, a))
    for name, table in (("int_gamma_monotone", ig), ("cl_gamma_monotone", cg),
                        ("thetacl_monotone", theta)):
        pair = _monotonicity_break(table)
        if pair is not None:
            hit(name, subset=_labels(cls, pair[0]), superset=_labels(cls, pair[1]))
    gopen = set(cls.gamma_open)
    for a in cls.regular_open:
        if a not in gopen:
            hit("regular_open_in_gamma_open", subset=_labels(cls, a))
    for a in cls.gamma_open:
        if a not in cls.opens:
            hit("gamma_open_in_opens", subset=_labels(cls, a))
    for a in cls.theta_families[1]:
        if a not in gopen:
            hit("theta_open_implies_gamma_open", subset=_labels(cls, a))
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
    (``enumerate_slices``) one slice at a time, and builds no ``Space``:
    the class's row is looked up once per slice, and the counts grow by
    the slice's number of rows.  A class's row, made once per topology
    (``TopologyRows.report``), holds its statuses from ``check_claim``,
    its failing rows ``(claim id, status, witness, notes)``, and with
    *invariants* its violations and statistics; witnesses and notes are
    shared by the rows of the class, so they are copied before anything
    is added.  Only a slice with failing rows or invariant violations has
    its rows visited, in index order; each row gets one key, shared by
    all its failures and violations, with the row's indices.  With *topo_range* ``(lo, hi)``
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
    # the spaces per status tuple and tuple of statistics
    counts = Counter()
    topologies = 0

    def class_row(cls):
        results = [check_claim(cls, cid) for cid in ids]
        statuses = tuple(status for status, _, _ in results)
        failing = tuple((cid, *result) for cid, result in zip(ids, results)
                        if result[0] == "fails")
        if not invariants:
            # no statistics and no violations: the invariant report is not made
            return (statuses, ()), failing, ()
        closedness, idempotent, within = _space_discrepancies(cls)
        # in the order of the statistics after "spaces"
        flags = idempotent["holds"], within["holds"], closedness["agree"]
        return (statuses, flags), failing, check_invariants(cls)

    def look(row, count):
        """Count the group; its failing rows and violations, if any."""
        counted, failing, broken = row
        counts[counted] += count
        return (failing, broken) if failing or broken else None

    for walk in enumerate_slices(n, modes, topo_range):
        topologies += 1
        ti = walk.index
        for oi, extension, frame, (failing, broken) in walk.report(class_row, look):
            key = walk.key(extension, frame)
            for cid, status, witness, notes in failing:
                failures.append(Verdict(cid, key, status, witness,
                                        dict(notes, topology_index=ti, operation_index=oi)))
            if broken:
                space = key.to_dict()
                for item in broken:
                    violations.append(dict(item, space=space,
                                           topology_index=ti, operation_index=oi))
    for (statuses, flags), count in counts.items():
        for cid, status in zip(ids, statuses):
            tallies[cid][status] += count
        for name, flag in zip(stats, (True, *flags)):
            stats[name] += flag * count
    spaces = counts.total()
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

    It reads the walk (``enumerate_slices``) like ``full_sweep``, and
    builds no ``Space``: the class's pairings
    (``OperatorClass.bridge_pairings``) once per slice, whose row count
    each failure count grows by.
    Only the rows of a slice that fails where fewer than three witnesses
    are held are visited, in index order, and a row gets a key only when
    it gives a witness, shared by all its witnesses."""
    modes = parse_modes(modes)
    pairings = {
        name: {
            "C-P4.10": {"failures": 0, "witnesses": []},
            "C-P4.11": {"failures": 0, "witnesses": []},
        }
        for name in PAIRINGS
    }
    spaces = 0

    def look(found, count):
        """Count the group's failures; the (entry, witness) pairs of those
        that an entry short of three witnesses may still take."""
        nonlocal spaces
        spaces += count
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
        for oi, extension, frame, wanted in walk.report(attrgetter("bridge_pairings"), look):
            space = None
            for entry, witness in wanted:
                if len(entry["witnesses"]) < 3:
                    if space is None:
                        space = walk.key(extension, frame).to_dict()
                    entry["witnesses"].append(dict(witness, space=space,
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

# the families of an operator class, ascending, that the separations and
# the audits name
_FAMILIES = {
    "gamma_open": attrgetter("gamma_open"),
    "regular_open": attrgetter("regular_open"),
    "theta_open": lambda cls: cls.theta_families[1],
    "clopen": lambda cls: tuple(a for a in cls.gamma_open if cls.cl_g[a] == a),
}

# each separation: the sets of its first family that its second lacks
SEPARATIONS = {
    "gamma_open_not_regular_open": ("gamma_open", "regular_open"),
    "theta_open_not_regular_open": ("theta_open", "regular_open"),
    "gamma_open_not_theta_open": ("gamma_open", "theta_open"),
    "regular_open_not_clopen": ("regular_open", "clopen"),
    "regular_open_not_gamma_open": ("regular_open", "gamma_open"),
}


def _separations(cls: OperatorClass, predicate: str) -> tuple:
    """The subsets that separate the named pair, ascending."""
    has, lacks = SEPARATIONS[predicate]
    lacking = set(_FAMILIES[lacks](cls))
    return tuple(a for a in _FAMILIES[has](cls) if a not in lacking)


PREDICATE_NAMES = tuple(sorted(SEPARATIONS)) + tuple(f"fails:{cid}" for cid in CLAIM_IDS)


@dataclass(frozen=True, slots=True)
class MinedGroup:
    """What the hits of one walk group share: its topology's ground set and
    opens, its slice frame (``SpaceKey.slice_frame``), its witnesses, made
    once per operator class, and, for a group of more than one row, one
    record frame per witness.  A record frame is the record with
    ``Framed.HOLE`` for the operation index and the slice frame as its
    space, so the group's records on one witness differ only at the
    frame's two holes.  A group of one row has no record frames
    (``records`` is None): its records are plain dicts."""

    ground: PointSet
    opens: tuple[int, ...]
    frame: dict
    witnesses: tuple
    records: tuple | None


@dataclass(slots=True)
class MinedWitness:
    """One row that ``mine`` reports, with its values over the sorted opens
    (``extension``) and its group's ``MinedGroup``; it has one record per
    witness of the group.  Like ``Verdict`` it keeps no ``Space``, so a long
    list of hits pins no operator tables, and it keeps no key either:
    ``space`` builds one each time it is read."""

    topology_index: int
    operation_index: int
    extension: tuple
    group: MinedGroup

    @property
    def witnesses(self) -> tuple:
        return self.group.witnesses

    @property
    def space(self) -> SpaceKey:
        """The row's key, built on each read; only tests and
        ``rebuild_space`` ask for it."""
        group = self.group
        return SpaceKey(group.ground.labels, group.opens, group.frame["gamma"]["kind"],
                        self.extension, group.frame)

    def to_dict(self) -> list:
        """The row's records as JSON values, one per witness, in order,
        sharing one space payload (``gamma_core.framed_space``): a
        ``jsonout.Framed`` on each record frame, if the group has them,
        filled with the operation index and the label list of the row's
        value at the empty set."""
        group = self.group
        fill = group.ground.label_list(self.extension[0])
        space = framed_space(group.frame, fill)
        ti, oi = self.topology_index, self.operation_index
        if group.records is None:
            return [{"topology_index": ti, "operation_index": oi, "space": space, "witness": w}
                    for w in group.witnesses]
        fills, scope = (oi, fill), space.scope
        out = []
        for frame in group.records:
            # a copy of the frame holds the right index and witness already
            record = Framed(frame)
            record["operation_index"] = oi
            record["space"] = space
            record.frame, record.fill, record.scope = frame, fills, scope
            out.append(record)
        return out


def mine(n: int, op_mode, predicate: str) -> list:
    """Search the (topology, operation) enumeration for a named separation
    or for failures of one claim, and return one hit (``MinedWitness``) per
    row that has a witness, in index order; the hits' records, one per
    witness, are the findings.  An empty result certifies absence over the
    whole enumeration.

    It reads the whole walk (``enumerate_slices``) once, one slice at a
    time, and builds no ``Space``: it looks the witnesses up once per
    slice, and they are made, dicts included, once per operator class of
    a topology (``TopologyRows.report``), from ``_separations`` or
    ``check_claim``, and shared, unmutated, by the hits of its rows.
    Only a slice with witnesses has its rows visited, in index order, and
    no row gets a key; its records are made when ``to_dict`` asks.

    A group of more than one row gets one record frame per witness
    (``MinedGroup.records``), shared by the group's records on that
    witness, so machine output writes the text of each record once per
    group and witness, and each record as that text around its operation
    index and value at the empty set.  A group of one row, as every
    builtin and pivot is, keeps plain records: a frame written once costs
    more than it saves.  Framing them too took the CPU time of an
    in-process ``mine --n 4 --ops builtins,pivots --format machine`` from
    about 211 to 261 ms on ``gamma_open_not_regular_open`` and from 184 to
    218 ms on ``regular_open_not_clopen`` (medians of 6, 2-core VM)."""
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

    def class_witnesses(cls):
        if claim_id is None:
            return tuple({"subset": _labels(cls, a)} for a in _separations(cls, predicate))
        status, witness, _ = check_claim(cls, claim_id)
        return (witness,) if status == "fails" else ()

    def look(witnesses, count):
        # a group's hit: its witnesses, and its row count, which decides
        # whether its records are framed
        return (witnesses, count) if witnesses else None

    out = []
    for walk in walks:
        ti = walk.index
        ground, opens = walk.ground, walk.opens
        # per slice frame's id, the group's entry, which holds it
        groups = {}
        for oi, extension, frame, (witnesses, count) in walk.report(class_witnesses, look):
            group = groups.get(id(frame))
            if group is None:
                records = None
                if count > 1:
                    records = tuple({"topology_index": ti, "operation_index": Framed.HOLE,
                                     "space": frame, "witness": witness}
                                    for witness in witnesses)
                group = groups[id(frame)] = MinedGroup(ground, opens, frame, witnesses, records)
            out.append(MinedWitness(ti, oi, extension, group))
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
        recomputed = list(_FAMILIES[name](sp.cls))
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
    found = _separations(sp.cls, sep_name)
    qualitative = {
        "separation": sep_name,
        "printed_witness": list(printed_witness),
        "printed_witness_valid": sp.ground.mask_of(printed_witness) in found,
        "recomputed_witnesses": [_labels(sp, a) for a in found],
        "supported_in_space": bool(found),
    }
    return ExampleAudit(which, sp.key, diffs, qualitative, space_flags(sp))
