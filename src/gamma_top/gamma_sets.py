"""Subset classifiers: gamma-open/closed, regular-open/closed, clopen,
extremal disconnectedness, and the theta closure with its families.

The families and the theta closure table are values of the space's
operator class (``gamma_core.OperatorClass``), which the functions here
that return them read."""

from __future__ import annotations

from dataclasses import dataclass

from .finspace import bits_of, interior
from .gamma_core import Space, gamma_closure, gamma_interior, gamma_open_family

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


def regular_open_family(sp: Space) -> tuple[int, ...]:
    """The sets A with int_g(cl_g(A)) = A, ascending (``OperatorClass``)."""
    return sp.cls.regular_open


def is_gamma_clopen(sp: Space, a: int) -> bool:
    """Simultaneously a fixed point of gamma_interior and gamma_closure."""
    return gamma_interior(sp, a) == a and gamma_closure(sp, a) == a


def is_extremally_disconnected(sp: Space) -> bool:
    """True iff the gamma-closure of every gamma-open set is gamma-open."""
    return sp.cls.extremally_disconnected


def gamma_theta_closure(sp: Space, a: int) -> int:
    """Points x such that the gamma-closure of every gamma-open set at x
    meets *a*."""
    sp.ground.check_mask(a)
    return sp.cls.theta_closure[a]


def theta_families(sp: Space):
    """(theta_closed, theta_open): fixed points of the theta closure and
    their complements, both ascending."""
    return sp.cls.theta_families


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
