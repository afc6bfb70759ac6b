"""Subset classifiers: gamma-open/closed, regular-open/closed, clopen,
extremal disconnectedness, the theta closure with its families, and the
verdicts of one-member filterbases.

The theta closure is one table over all subsets, built on first use the
way ``gamma_core`` builds cl_g; the families are read off the operator
tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .finspace import bits_of, inside_table, interior, meeting_table
from .gamma_core import Space, gamma_closure, gamma_interior, gamma_open_family, per_operator_class

FLAG_NAMES = (
    "open_tau",
    "gamma_open",
    "gamma_closed_dual",
    "gamma_closed_cl",
    "gamma_regular_open",
    "gamma_regular_closed",
    "gamma_clopen",
    "theta_open",
    "theta_closed",
)


def is_gamma_open(sp: Space, a: int) -> bool:
    return gamma_interior(sp, a) == a


def is_gamma_closed_dual(sp: Space, a: int) -> bool:
    """Closedness as openness of the complement."""
    sp.ground.check_mask(a)
    return is_gamma_open(sp, sp.ground.full_mask ^ a)


def is_gamma_closed_cl(sp: Space, a: int) -> bool:
    """Closedness as being a fixed point of gamma_closure."""
    return gamma_closure(sp, a) & ~a == 0


def is_gamma_regular_open(sp: Space, a: int) -> bool:
    return sp.int_g[gamma_closure(sp, a)] == a


def is_gamma_regular_closed(sp: Space, a: int) -> bool:
    return sp.cl_g[gamma_interior(sp, a)] == a


@per_operator_class
def regular_open_family(sp: Space) -> tuple[int, ...]:
    ig = sp.int_g
    return tuple(m for m, c in enumerate(sp.cl_g) if ig[c] == m)


def is_gamma_clopen(sp: Space, a: int) -> bool:
    """Simultaneously a fixed point of gamma_interior and gamma_closure."""
    return gamma_interior(sp, a) == a and gamma_closure(sp, a) == a


@per_operator_class
def is_extremally_disconnected(sp: Space) -> bool:
    """True iff the gamma-closure of every gamma-open set is gamma-open."""
    ig, cg = sp.int_g, sp.cl_g
    return all(ig[cg[u]] == cg[u] for u in gamma_open_family(sp))


@per_operator_class
def _theta_env(sp: Space):
    """Per point, the gamma-closures of its gamma-open neighbourhoods."""
    family, cg = gamma_open_family(sp), sp.cl_g
    return tuple(tuple(cg[u] for u in family if u >> i & 1) for i in range(sp.ground.n))


@per_operator_class
def theta_closure_table(sp: Space) -> tuple[int, ...]:
    """``gamma_theta_closure`` over every subset, indexed by mask; built on
    first use."""
    return meeting_table(sp.ground.n, _theta_env(sp))


def gamma_theta_closure(sp: Space, a: int) -> int:
    """Points x such that the gamma-closure of every gamma-open set at x
    meets *a*."""
    sp.ground.check_mask(a)
    return theta_closure_table(sp)[a]


@per_operator_class
def theta_families(sp: Space):
    """(theta_closed, theta_open): fixed points of the theta closure and
    their complements, both ascending."""
    full = sp.ground.full_mask
    table = theta_closure_table(sp)
    closed = tuple(m for m, t in enumerate(table) if t == m)
    # complements of an ascending family, ascending
    opened = tuple(full ^ m for m in reversed(closed))
    return closed, opened


@dataclass(frozen=True)
class PrincipalVerdicts:
    """The verdicts of every one-member filterbase {M} against one test
    family."""

    converges: tuple  # per subset M, the points x with M <= K_x
    accumulates: tuple  # per subset M, the points at which {M} accumulates


@per_operator_class
def principal_verdicts(sp: Space, family: str) -> PrincipalVerdicts:
    """Built once per operator class and test family: regular-open
    neighbourhoods (``regular_open``) or gamma-closures of gamma-open ones
    (``gamma_open_cl``).

    {M} converges at x iff M is inside K_x, the meet of x's test sets; it
    accumulates at x iff M meets each of them.  Two tables indexed by M
    hold the point masks of both verdicts.  M <= K_x iff the complement of
    K_x lies inside the complement of M, so ``converges`` is one
    ``inside_table`` pass over the complements of the K_x, read backwards.
    Against the gamma-closures of x's gamma-open neighbourhoods,
    accumulation is the definition of x in the theta closure of M, so the
    ``gamma_open_cl`` accumulation table is ``theta_closure_table``, read
    rather than built again."""
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
    return PrincipalVerdicts(converges, accumulates)


def is_theta_open(sp: Space, a: int) -> bool:
    full = sp.ground.full_mask
    return gamma_theta_closure(sp, full ^ a) == full ^ a


def is_theta_closed(sp: Space, a: int) -> bool:
    return gamma_theta_closure(sp, a) == a


@dataclass(frozen=True)
class SubsetClassification:
    subset: int
    flags: dict
    witnesses: dict


def classify_subset(sp: Space, a: int) -> SubsetClassification:
    """All flags for one subset, with the smallest failing point recorded
    for every flag that comes out false.

    Each flag is an equation between two sets (clopen is two), and its
    failing-point mask is their symmetric difference, so the flag holds
    iff the mask is 0.  ``gamma_closed_cl`` reads cl_g(A) <= A as
    cl_g(A) = A because cl_g is extensive, and ``open_tau`` and the
    theta flags compare a set with its interior or theta closure."""
    sp.ground.check_mask(a)
    full = sp.ground.full_mask
    comp = full ^ a
    gi, gc = gamma_interior(sp, a), gamma_closure(sp, a)
    fail_masks = {
        "open_tau": a ^ interior(sp.top, a),
        "gamma_open": a ^ gi,
        "gamma_closed_dual": comp ^ gamma_interior(sp, comp),
        "gamma_closed_cl": gc ^ a,
        "gamma_regular_open": a ^ gamma_interior(sp, gc),
        "gamma_regular_closed": a ^ gamma_closure(sp, gi),
        "gamma_clopen": (a ^ gi) | (a ^ gc),
        "theta_open": comp ^ gamma_theta_closure(sp, comp),
        "theta_closed": a ^ gamma_theta_closure(sp, a),
    }
    flags = {name: not fail for name, fail in fail_masks.items()}
    labels = sp.ground.labels
    witnesses = {name: labels[next(bits_of(fail))] for name, fail in fail_masks.items() if fail}
    return SubsetClassification(subset=a, flags=flags, witnesses=witnesses)
