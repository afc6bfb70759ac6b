"""Claim catalog and exhaustive verification machinery.

Every claim is a decidable statement about one finite space.  A claim
checker quantifies over the space's subsets, subset families, filterbases
or small nets and returns holds / fails-with-witness, or reports that the
space does not meet the claim's hypotheses.  Sweeps run claims over full
enumerations of (topology, operation) pairs; the miner searches the same
enumerations for named separations; the audits rebuild the four bundled
example spaces and diff their published families against recomputation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

from . import documents
from .finspace import (
    MAX_ENUMERATION_POINTS,
    MAX_TABLE_POINTS,
    PointSet,
    SizeTooLarge,
    bits_of,
    enumerate_topologies,
    inside_table,
    meet_above_table,
    validate_topology,
)
from .gamma_core import (
    GammaOperation,
    Space,
    is_open_operation,
    is_regular_operation,
    operations_for,
    per_space,
)
from .gamma_sets import (
    gamma_open_family,
    is_gamma_clopen,
    is_gamma_open,
    is_gamma_regular_open,
    is_extremally_disconnected,
    is_theta_open,
    regular_open_family,
    theta_closure_table,
    theta_families,
)
from .convergence import (
    enumerate_nets,
    gamma_closed_space_conditions,
    net_tail_range,
    principal_verdicts,
)


class UnknownPredicate(ValueError):
    pass


class UnknownExample(ValueError):
    pass


class UnknownClaim(ValueError):
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
    """Register the decorated checker as claim *cid*."""

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

@dataclass(frozen=True)
class SpaceKey:
    """Enough data to rebuild a space bit-exactly (operation as a table)."""

    points: tuple[str, ...]
    opens: tuple[int, ...]
    gamma_kind: str
    gamma_values: tuple[int, ...]

    def to_dict(self) -> dict:
        """The space as JSON values.  Its label lists are shared with every
        other payload over the same points (``PointSet.label_list``): no
        caller mutates a result, and none may."""
        ground = _ground(self.points)
        lists = ground.label_list
        return {
            "points": lists(ground.full_mask),
            "opens": [lists(m) for m in self.opens],
            "gamma": {
                "kind": self.gamma_kind,
                "values": [lists(m) for m in self.gamma_values],
            },
        }


@lru_cache(maxsize=64)
def _ground(points: tuple[str, ...]) -> PointSet:
    """One validated ground set, and so one label-list cache, per label tuple."""
    return PointSet(points)


@per_space
def space_key(sp: Space) -> SpaceKey:
    return SpaceKey(
        points=sp.ground.labels,
        opens=sp.top.opens_sorted,
        gamma_kind=sp.gamma.kind,
        gamma_values=sp.extension,
    )


def rebuild_space(key: SpaceKey) -> Space:
    ground = PointSet(key.points)
    top = validate_topology(ground, key.opens)
    op = GammaOperation("table", table=tuple(zip(key.opens, key.gamma_values)))
    return Space(ground, top, op)


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


def _monotonicity_break(table, start: int = 0):
    """The first pair (A, A + {i}) with ``table[A]`` not inside
    ``table[A + {i}]``, in ascending A from *start*, then ascending i; None
    when there is none.  Checking these covering pairs, n * 2**(n-1) of
    them, decides monotonicity: a chain of one-point steps leads from any A
    to any superset B, and inclusion is transitive along it.  Every set on
    that chain contains A, so with *start* = 1 it decides monotonicity
    over the non-empty subsets.  (A point i already in A gives
    A + {i} = A, a step that cannot break.)"""
    size = len(table)
    bits = [1 << i for i in range(size.bit_length() - 1)]
    for a in range(start, size):
        ta = table[a]
        for bit in bits:
            if ta & ~table[a | bit]:
                return a, a | bit
    return None


def _implication(sp: Space, premise, conclusion):
    """The verdict on "*premise* implies *conclusion*" for every subset: the
    first subset with the premise and without the conclusion fails it."""
    for a in _separating(sp, premise, conclusion):
        return "fails", {"subset": _labels(sp, a)}, {}
    return "holds", None, {}


# -- claim checkers -------------------------------------------------------

@_claim("C-RO-INCL", "safe", (), "regular-open sets are gamma-open; gamma-open sets are open")
def _check_ro_incl(sp: Space):
    ig = sp.int_g
    for a in regular_open_family(sp):
        if ig[a] != a:
            return "fails", {"subset": _labels(sp, a), "part": "regular_open_not_gamma_open"}, {}
    for a in gamma_open_family(sp):
        if not sp.top.is_open(a):
            return "fails", {"subset": _labels(sp, a), "part": "gamma_open_not_open"}, {}
    return "holds", None, {}


@_claim("C-P3.4-FWD", "other", (), "gamma-clopen implies gamma-regular-open")
def _check_p34_fwd(sp: Space):
    return _implication(sp, is_gamma_clopen, is_gamma_regular_open)


@_claim("C-P3.4-CONV", "conditioned", ("extremally_disconnected",),
        "gamma-regular-open implies gamma-clopen")
def _check_p34_conv(sp: Space):
    return _implication(sp, is_gamma_regular_open, is_gamma_clopen)


@_claim("C-T3.6", "safe", (), "clopen implies cl.int-fixed implies complement regular-open")
def _check_t36(sp: Space):
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    for a in sp.ground.subsets():
        fixed = cg[ig[a]] == a
        if ig[a] == a and cg[a] == a and not fixed:
            return "fails", {"subset": _labels(sp, a), "part": "clopen_to_fixed"}, {}
        if fixed and ig[cg[full ^ a]] != full ^ a:
            return "fails", {"subset": _labels(sp, a), "part": "fixed_to_complement_regular_open"}, {}
    return "holds", None, {}


@_claim("C-T3.7", "conditioned", ("extremally_disconnected",),
        "complement regular-open implies regular-open implies clopen")
def _check_t37(sp: Space):
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    for a in sp.ground.subsets():
        regular_open = ig[cg[a]] == a
        if ig[cg[full ^ a]] == full ^ a and not regular_open:
            return "fails", {"subset": _labels(sp, a), "part": "complement_to_self"}, {}
        if regular_open and not (ig[a] == a and cg[a] == a):
            return "fails", {"subset": _labels(sp, a), "part": "regular_open_to_clopen"}, {}
    return "holds", None, {}


@_claim("C-T3.8", "conditioned", ("extremally_disconnected",),
        "clopen, cl.int-fixed, complement regular-open and regular-open coincide")
def _check_t38(sp: Space):
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    for a in sp.ground.subsets():
        bools = (
            ig[a] == a and cg[a] == a,
            cg[ig[a]] == a,
            ig[cg[full ^ a]] == full ^ a,
            ig[cg[a]] == a,
        )
        if len(set(bools)) > 1:
            return "fails", {
                "subset": _labels(sp, a),
                "clopen": bools[0],
                "cl_int_fixed": bools[1],
                "complement_regular_open": bools[2],
                "regular_open": bools[3],
            }, {}
    return "holds", None, {}


def _cl_idempotence_notes(sp: Space) -> dict:
    cg = sp.cl_g
    for a, c in enumerate(cg):
        if cg[c] != c:
            return {"cl_gamma_idempotent": False, "idempotence_witness": _labels(sp, a)}
    return {"cl_gamma_idempotent": True}


@_claim("C-T3.9-FWD", "conditioned", ("open_operation",),
        "if cl_g(A) is regular-open then A is gamma-open")
def _check_t39_fwd(sp: Space):
    notes = _cl_idempotence_notes(sp)
    ig, cg = sp.int_g, sp.cl_g
    for a, c in enumerate(cg):
        if ig[cg[c]] == c and ig[a] != a:
            return "fails", {"subset": _labels(sp, a)}, notes
    return "holds", None, notes


@_claim("C-T3.9-CONV", "conditioned", ("open_operation", "extremally_disconnected"),
        "if A is gamma-open then cl_g(A) is regular-open")
def _check_t39_conv(sp: Space):
    notes = _cl_idempotence_notes(sp)
    ig, cg = sp.int_g, sp.cl_g
    for a in gamma_open_family(sp):
        if ig[cg[cg[a]]] != cg[a]:
            return "fails", {"subset": _labels(sp, a)}, notes
    return "holds", None, notes


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
    pair = _monotonicity_break(theta_closure_table(sp))
    if pair is not None:
        a, b = pair
        return "fails", {"subset": _labels(sp, a), "superset": _labels(sp, b)}, {}
    return "holds", None, {}


@_claim("C-P3.13-2", "safe", (), "intersections of theta-closed families are theta-closed")
def _check_p313_2(sp: Space):
    """V is the intersection of a subfamily iff it is the meet of all the
    members above V (any subfamily meeting to V lies above it), so the
    intersections are the fixed points of ``meet_above_table``.  The
    witness subfamily is the members above V."""
    closed, _ = theta_families(sp)
    meet = meet_above_table(sp.ground.n, closed)
    theta = theta_closure_table(sp)
    for v, m in enumerate(meet):
        if m == v and theta[v] != v:
            return "fails", {
                "intersection": _labels(sp, v),
                "subfamily": [_labels(sp, c) for c in closed if v & ~c == 0],
            }, {}
    return "holds", None, {}


@_claim("C-T3.14", "conditioned", ("open_operation", "extremally_disconnected"),
        "theta closure equals the meet of theta-closed supersets and of regular-open supersets")
def _check_t314(sp: Space):
    """Both meets, for every subset, come from one ``meet_above_table``
    pass per family."""
    n = sp.ground.n
    meets = (
        ("theta_closed_supersets", meet_above_table(n, theta_families(sp)[0])),
        ("regular_open_supersets", meet_above_table(n, regular_open_family(sp))),
    )
    for a, t in enumerate(theta_closure_table(sp)):
        for part, meet in meets:
            if t != meet[a]:
                return "fails", {
                    "subset": _labels(sp, a),
                    "part": part,
                    "theta_closure": _labels(sp, t),
                    "meet": _labels(sp, meet[a]),
                }, {}
    return "holds", None, {}


@_claim("C-T3.15-A", "conditioned", ("open_operation", "extremally_disconnected"),
        "theta-closure membership tests against regular-open neighbourhoods")
def _check_t315a(sp: Space):
    """The points all of whose regular-open neighbourhoods meet A are
    ``principal_verdicts(sp, "regular_open").accumulates[A]``; the first
    failing point is the lowest bit of the difference."""
    acc = principal_verdicts(sp, "regular_open").accumulates
    for a, t in enumerate(theta_closure_table(sp)):
        bad = t ^ acc[a]
        if bad:
            point = sp.ground.labels[_lowest_point(bad)]
            return "fails", {"subset": _labels(sp, a), "point": point}, {}
    return "holds", None, {}


@_claim("C-T3.15-B", "conditioned", ("open_operation", "extremally_disconnected"),
        "theta-open means every point has a regular-open neighbourhood inside")
def _check_t315b(sp: Space):
    """The points of A owning a regular-open neighbourhood inside A are
    one ``inside_table`` over the regular-open neighbourhoods."""
    full = sp.ground.full_mask
    theta = theta_closure_table(sp)
    owns = inside_table(sp.ground.n, principal_verdicts(sp, "regular_open").tests)
    for a in sp.ground.subsets():
        if (theta[full ^ a] == full ^ a) != (a & ~owns[a] == 0):
            return "fails", {"subset": _labels(sp, a)}, {}
    return "holds", None, {}


@_claim("C-T3.15-C", "conditioned", ("open_operation", "extremally_disconnected"),
        "regular-open coincides with theta-clopen")
def _check_t315c(sp: Space):
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    theta = theta_closure_table(sp)
    for a in sp.ground.subsets():
        lhs = ig[cg[a]] == a
        rhs = theta[full ^ a] == full ^ a and theta[a] == a
        if lhs != rhs:
            return "fails", {"subset": _labels(sp, a)}, {}
    return "holds", None, {}


@_claim("C-CHAIN-RO-TO", "other", (), "regular-open implies theta-open")
def _check_chain_ro_to(sp: Space):
    return _implication(sp, is_gamma_regular_open, is_theta_open)


@_claim("C-CHAIN-TO-GO", "other", (), "theta-open implies gamma-open")
def _check_chain_to_go(sp: Space):
    return _implication(sp, is_theta_open, is_gamma_open)


@_claim("C-T4.3", "safe", (), "filterbase convergence implies accumulation")
def _check_t43(sp: Space):
    # one representative filterbase per generated filter: verdicts factor
    # through the kernel, so this quantifies over all filterbases
    principal = principal_verdicts(sp, "regular_open")
    for kernel in range(1, sp.ground.full_mask + 1):
        # the points where {kernel} converges and does not accumulate
        bad = principal.converges[kernel] & ~principal.accumulates[kernel]
        if bad:
            return "fails", {
                "filterbase": [_labels(sp, kernel)],
                "point": sp.ground.labels[_lowest_point(bad)],
            }, {}
    return "holds", None, {}


@_claim("C-T4.4", "safe", (),
        "accumulation passes from a subordinate filterbase to the coarser one")
def _check_t44(sp: Space):
    acc = principal_verdicts(sp, "regular_open").accumulates
    # subordinate representatives have non-empty kernels inside the coarse one
    pair = _monotonicity_break(acc, start=1)
    if pair is not None:
        fine, coarse = pair
        # the points where the fine base accumulates and the coarse one does not
        lost = acc[fine] & ~acc[coarse]
        return "fails", {
            "coarse": [_labels(sp, coarse)],
            "fine": [_labels(sp, fine)],
            "point": sp.ground.labels[_lowest_point(lost)],
        }, {}
    return "holds", None, {}


@_claim("C-T4.5", "safe", (), "for maximal filterbases accumulation and convergence coincide")
def _check_t45(sp: Space):
    principal = principal_verdicts(sp, "regular_open")
    for p in range(sp.ground.n):
        singleton = 1 << p
        acc, conv = principal.accumulates[singleton], principal.converges[singleton]
        if acc != conv:
            x = _lowest_point(acc ^ conv)
            return "fails", {
                "filterbase": [_labels(sp, singleton)],
                "point": sp.ground.labels[x],
                "accumulates": bool(acc >> x & 1),
                "converges": bool(conv >> x & 1),
            }, {}
    return "holds", None, {}


@_claim("C-P4.7-EQ", "safe", (), "the five cover/accumulation conditions all hold")
def _check_p47(sp: Space):
    conds = gamma_closed_space_conditions(sp, "dual")
    notes = {"cl_mode_conditions": gamma_closed_space_conditions(sp, "cl").as_tuple()}
    if conds.all_hold():
        return "holds", None, notes
    for name, value in zip(
        (
            "gamma_open_covers",
            "closed_families_shrink",
            "closed_families_contrapositive",
            "filterbases_accumulate",
            "maximal_filterbases_converge",
        ),
        conds.as_tuple(),
    ):
        if not value:
            witness = {"condition": name}
            witness.update(conds.witnesses.get(name, {}))
            return "fails", witness, notes
    return "holds", None, notes


PAIRINGS = (
    "regular_open+standard",
    "regular_open+literal",
    "gamma_open_cl+standard",
    "gamma_open_cl+literal",
)
DEFAULT_PAIRING = "regular_open+standard"


def _net_witness(sp: Space, net, x: int, part: str) -> dict:
    return {
        "directed_set": {
            "size": net.dirset.size,
            "leq": sorted(net.dirset.leq),
        },
        "values": [sp.ground.labels[p] for p in net.values],
        "point": sp.ground.labels[x],
        "part": part,
    }


def _class_mismatch(fb, net, reading: str, t: int, r: int):
    """The first point ``(x, part)`` at which the filterbase verdicts
    (kernel T, tables *fb*) and the net verdicts (tail T, range R, tables
    *net* of gamma-closures) disagree, or None.  By the convergence
    module's lemma this decides every net and filterbase of the class."""
    conv = fb.converges[t] ^ net.converges[t]
    # every index lands in each closure iff {R} converges
    net_acc = net.accumulates[t] if reading == "standard" else net.converges[r]
    bad = conv | (fb.accumulates[t] ^ net_acc)
    if not bad:
        return None
    x = _lowest_point(bad)
    return x, "convergence" if conv >> x & 1 else "accumulation"


@lru_cache(maxsize=16)
def _net_rows(ground: PointSet, max_dir_size: int) -> tuple:
    """``(net, T, R)`` for every net of ``enumerate_nets``, in its order."""
    return tuple((net,) + net_tail_range(net) for net in enumerate_nets(ground, max_dir_size))


def _filterbase_witness(sp: Space, mismatch, net_converges) -> dict | None:
    """The first failing filterbase of ``enumerate_filterbases`` order, in
    closed form.  Bases come kernel-first, and for one kernel K the base
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


@per_space
def bridge_pairings(sp: Space, max_dir_size: int = NET_SIZE_CAP) -> dict:
    """First mismatch witness per (test family, accumulation reading)
    pairing, for the net/tail-filterbase bridge and for the
    filterbase/constructed-net bridge.  Verdicts are mask expressions over
    the per-subset ``principal_verdicts`` tables; witnesses are the first
    failing net of ``enumerate_nets`` and the first failing filterbase of
    ``enumerate_filterbases``."""
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
        for net, t, r in _net_rows(sp.ground, max_dir_size):
            for pairing in list(pending):
                hit = mismatch[pairing](t, r)
                if hit is not None:
                    result[pairing]["C-P4.10"] = _net_witness(sp, net, *hit)
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
    notes = {"restriction": NET_RESTRICTION_NOTE}
    covers = gamma_closed_space_conditions(sp, "dual").gamma_open_covers

    # by the convergence module's lemma a net accumulates at x iff its tail
    # T does as a kernel, and nets within the cap realise every |T| <= cap
    acc = principal_verdicts(sp, "gamma_open_cl").accumulates

    def accumulates_nowhere(t):
        return not acc[t]

    tails = [t for t in range(1, sp.ground.full_mask + 1) if t.bit_count() <= NET_SIZE_CAP]
    nets_accumulate = not any(accumulates_nowhere(t) for t in tails)
    # a universal net has a one-point tail, which is inside a test set
    # exactly when it meets it: converging nowhere is accumulating nowhere
    universal_converge = not any(accumulates_nowhere(t) for t in tails if t & (t - 1) == 0)
    if covers == nets_accumulate == universal_converge:
        return "holds", None, notes
    witness = {
        "cover_condition": covers,
        "every_net_accumulates": nets_accumulate,
        "every_universal_net_converges": universal_converge,
    }
    if not nets_accumulate:
        net = next(net for net, t, _ in _net_rows(sp.ground, NET_SIZE_CAP) if accumulates_nowhere(t))
        witness["net"] = _net_witness(sp, net, 0, "no_accumulation_point")
    return "fails", witness, notes


CLAIM_IDS = tuple(CLAIMS)
SAFE_CLAIMS = tuple(c.id for c in CLAIMS.values() if c.tier == "safe")
CONDITIONED_CLAIMS = tuple(c.id for c in CLAIMS.values() if c.tier == "conditioned")
_CLAIM_LISTS = {"safe": SAFE_CLAIMS, "conditioned": CONDITIONED_CLAIMS, "all": CLAIM_IDS}


def parse_claims(claims) -> tuple[str, ...]:
    """Claim ids from "safe", "conditioned", "all", a comma list or a
    sequence of ids, in the order given; an unknown id or an empty list
    raises UnknownClaim."""
    if isinstance(claims, str):
        claims = _CLAIM_LISTS[claims] if claims in _CLAIM_LISTS else claims.split(",")
    ids = tuple(cid.strip() for cid in claims if cid.strip())
    if not ids:
        raise UnknownClaim("the claim list is empty")
    for cid in ids:
        if cid not in CLAIMS:
            raise UnknownClaim(f"unknown claim {cid!r}")
    return ids


_HYPOTHESIS_TESTS = {
    "open_operation": is_open_operation,
    "extremally_disconnected": is_extremally_disconnected,
}


def space_flags(sp: Space) -> dict:
    """The space-level flags that ``analyze`` and the audits report."""
    return {
        "extremally_disconnected": is_extremally_disconnected(sp),
        "regular_operation": is_regular_operation(sp),
        "open_operation": is_open_operation(sp),
    }


def check_claim(sp: Space, claim_id: str) -> Verdict:
    try:
        claim = CLAIMS[claim_id]
    except KeyError:
        raise UnknownClaim(f"unknown claim {claim_id!r}") from None
    key = space_key(sp)
    unmet = [h for h in claim.hypotheses if not _HYPOTHESIS_TESTS[h](sp)]
    if unmet:
        return Verdict(claim_id, key, "hypotheses_not_met", None, {"unmet": unmet})
    status, witness, notes = claim.check(sp)
    return Verdict(claim_id, key, status, witness, notes)


# -- per-space report ------------------------------------------------------

def _space_discrepancies(sp: Space) -> list:
    out = []
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    # gamma-closed as the complement of a gamma-open set, and as cl_g-fixed
    disagree = [
        m
        for m in sp.ground.subsets()
        if (ig[full ^ m] == full ^ m) != (cg[m] & ~m == 0)
    ]
    out.append(
        {
            "kind": "closedness_definitions",
            "agree": not disagree,
            "agreement_rate": 1.0 - len(disagree) / (full + 1),
            "witness": _labels(sp, disagree[0]) if disagree else None,
        }
    )
    idem = _cl_idempotence_notes(sp)
    out.append(
        {
            "kind": "cl_gamma_idempotent",
            "holds": idem["cl_gamma_idempotent"],
            "witness": idem.get("idempotence_witness"),
        }
    )
    theta = theta_closure_table(sp)
    bad = [m for m in sp.ground.subsets() if cg[m] & ~theta[m]]
    out.append(
        {
            "kind": "cl_gamma_within_theta_closure",
            "holds": not bad,
            "witness": _labels(sp, bad[0]) if bad else None,
        }
    )
    return out


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
    if isinstance(modes, str):
        modes = modes.split(",")
    out = tuple(m.strip() for m in modes if m.strip())
    for m in out:
        if m not in ("builtins", "pivots", "all_tables"):
            raise ValueError(f"unknown operation mode {m!r}")
    return out


def enumerate_spaces(n: int, modes, topo_range=None):
    """Yield (topology_index, operation_index, space) over the enumeration,
    operations deduplicated by extension within each topology."""
    modes = parse_modes(modes)
    for ti, top in enumerate(enumerate_topologies(n)):
        if topo_range is not None and not topo_range[0] <= ti < topo_range[1]:
            continue
        for oi, op in enumerate(operations_for(top, modes)):
            yield ti, oi, Space(top.ground, top, op)


INVARIANT_NAMES = (
    "int_cl_duality",
    "int_gamma_contractive",
    "cl_gamma_extensive",
    "thetacl_extensive",
    "int_gamma_monotone",
    "cl_gamma_monotone",
    "thetacl_monotone",
    "regular_open_in_gamma_open",
    "gamma_open_in_opens",
    "theta_open_implies_gamma_open",
)


def check_invariants(sp: Space) -> list:
    """Structural laws every space must satisfy; returns violations."""
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

    def merge(self, other: SweepReport) -> SweepReport:
        """Fold in the report on the next topology range of the same sweep."""
        self.topologies += other.topologies
        self.spaces += other.spaces
        for cid, tally in self.tallies.items():
            for status in tally:
                tally[status] += other.tallies[cid][status]
        self.failures.extend(other.failures)
        return self


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
    structural invariants and the measured-only statistics."""
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
    topologies = set()
    spaces = 0
    for ti, oi, sp in enumerate_spaces(n, modes, topo_range):
        topologies.add(ti)
        spaces += 1
        for cid in ids:
            verdict = check_claim(sp, cid)
            tallies[cid][verdict.status] += 1
            if verdict.status == "fails":
                verdict.notes = dict(verdict.notes)
                verdict.notes["topology_index"] = ti
                verdict.notes["operation_index"] = oi
                failures.append(verdict)
        if invariants:
            for item in check_invariants(sp):
                item["space"] = space_key(sp).to_dict()
                item["topology_index"] = ti
                item["operation_index"] = oi
                violations.append(item)
            disc = {d["kind"]: d for d in _space_discrepancies(sp)}
            stats["spaces"] += 1
            stats["cl_gamma_idempotent_everywhere"] += disc["cl_gamma_idempotent"]["holds"]
            stats["cl_gamma_within_theta_closure_everywhere"] += disc[
                "cl_gamma_within_theta_closure"
            ]["holds"]
            stats["closedness_definitions_agree_everywhere"] += disc[
                "closedness_definitions"
            ]["agree"]
    claim_report = SweepReport(n, modes, ids, len(topologies), spaces, tallies, failures)
    inv_report = InvariantReport(n, modes, spaces, violations, stats) if invariants else None
    return claim_report, inv_report


@dataclass
class BridgeReport:
    n: int
    modes: tuple
    max_dir_size: int
    spaces: int
    pairings: dict
    satisfying: list

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "modes": list(self.modes),
            "max_dir_size": self.max_dir_size,
            "spaces": self.spaces,
            "pairings": self.pairings,
            "satisfying_pairings": self.satisfying,
        }


def bridge_report(n: int, modes=("builtins", "pivots"), max_dir_size: int = NET_SIZE_CAP) -> BridgeReport:
    """Evaluate the two bridge propositions under all four definitional
    pairings over the enumeration, collecting failure counts and witnesses."""
    modes = parse_modes(modes)
    pairings = {
        name: {
            "C-P4.10": {"failures": 0, "witnesses": []},
            "C-P4.11": {"failures": 0, "witnesses": []},
        }
        for name in PAIRINGS
    }
    spaces = 0
    for ti, oi, sp in enumerate_spaces(n, modes):
        spaces += 1
        per_space = bridge_pairings(sp, max_dir_size)
        for name in PAIRINGS:
            for prop in ("C-P4.10", "C-P4.11"):
                witness = per_space[name][prop]
                if witness is not None:
                    entry = pairings[name][prop]
                    entry["failures"] += 1
                    if len(entry["witnesses"]) < 3:
                        record = dict(witness)
                        record["space"] = space_key(sp).to_dict()
                        record["topology_index"] = ti
                        record["operation_index"] = oi
                        entry["witnesses"].append(record)
    satisfying = [
        name
        for name in PAIRINGS
        if pairings[name]["C-P4.10"]["failures"] == 0
        and pairings[name]["C-P4.11"]["failures"] == 0
    ]
    return BridgeReport(n, modes, max_dir_size, spaces, pairings, satisfying)


# -- mining ----------------------------------------------------------------

SEPARATIONS = {
    "gamma_open_not_regular_open": (is_gamma_open, is_gamma_regular_open),
    "theta_open_not_regular_open": (is_theta_open, is_gamma_regular_open),
    "gamma_open_not_theta_open": (is_gamma_open, is_theta_open),
    "regular_open_not_clopen": (is_gamma_regular_open, is_gamma_clopen),
    "regular_open_not_gamma_open": (is_gamma_regular_open, is_gamma_open),
}

PREDICATE_NAMES = tuple(sorted(SEPARATIONS)) + tuple(f"fails:{cid}" for cid in CLAIM_IDS)


@dataclass
class MinedWitness:
    """One hit of ``mine``; like ``Verdict`` it keeps the space's key, not
    the ``Space``, so a long list of hits pins no operator tables."""

    topology_index: int
    operation_index: int
    space: SpaceKey
    witness: dict

    def to_dict(self) -> dict:
        return {
            "topology_index": self.topology_index,
            "operation_index": self.operation_index,
            "space": self.space.to_dict(),
            "witness": self.witness,
        }


def mine(n: int, op_mode, predicate: str, topo_range=None) -> list:
    """Search the (topology, operation) enumeration for a named separation
    or for failures of one claim.  An empty result certifies absence over
    the whole enumeration."""
    modes = parse_modes(op_mode)
    if not 1 <= n <= MAX_ENUMERATION_POINTS:
        raise SizeTooLarge(f"mining supports ground sets of 1..{MAX_ENUMERATION_POINTS} points")
    if "all_tables" in modes and n > MAX_TABLE_POINTS:
        raise SizeTooLarge(f"table enumeration is limited to {MAX_TABLE_POINTS}-point ground sets")
    claim_id = None
    if predicate.startswith("fails:"):
        claim_id = predicate[len("fails:"):]
        if claim_id not in CLAIMS:
            raise UnknownPredicate(f"unknown claim in predicate {predicate!r}")
    elif predicate not in SEPARATIONS:
        raise UnknownPredicate(
            f"unknown predicate {predicate!r}; known: {', '.join(PREDICATE_NAMES)}"
        )
    out = []
    for ti, oi, sp in enumerate_spaces(n, modes, topo_range):
        if claim_id is not None:
            verdict = check_claim(sp, claim_id)
            if verdict.status == "fails":
                out.append(MinedWitness(ti, oi, verdict.space, verdict.witness))
            continue
        for a in _separating(sp, *SEPARATIONS[predicate]):
            out.append(MinedWitness(ti, oi, space_key(sp), {"subset": _labels(sp, a)}))
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
    found = list(_separating(sp, *SEPARATIONS[sep_name]))
    qualitative = {
        "separation": sep_name,
        "printed_witness": list(printed_witness),
        "printed_witness_valid": sp.ground.mask_of(printed_witness) in found,
        "recomputed_witnesses": [_labels(sp, a) for a in found],
        "supported_in_space": bool(found),
    }
    return ExampleAudit(which, space_key(sp), diffs, qualitative, space_flags(sp))
