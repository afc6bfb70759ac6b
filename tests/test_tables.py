"""The operator, theta-closure and principal-filterbase tables against the
literal point-by-point definitions, kept here as oracles."""

import random

from hypothesis import given, settings
from test_properties import spaces

from gamma_top import theoremlab as tl
from gamma_top.convergence import _fb_accumulates, _fb_converges
from gamma_top.finspace import PointSet, closure, interior, open_nbds, validate_topology
from gamma_top.gamma_core import GammaOperation, Space, apply_gamma, gamma_closure, gamma_interior
from gamma_top.gamma_sets import gamma_theta_closure


def values_at(sp):
    """Per point, the values of its open neighbourhoods."""
    return [
        {apply_gamma(sp, u) for u in open_nbds(sp.top, label)} for label in sp.ground.labels
    ]


class Oracle:
    """Every definition scanned point by point, never through a table."""

    def __init__(self, sp):
        self.sp = sp
        self.values = values_at(sp)
        subsets = range(sp.ground.full_mask + 1)
        self.gamma_open = [a for a in subsets if self.int_g(a) == a]
        self.regular_open = [a for a in subsets if self.int_g(self.cl_g(a)) == a]

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
            return [a for a in self.regular_open if a >> x & 1]
        return [self.cl_g(u) for u in self.gamma_open if u >> x & 1]

    def theta(self, a):
        """Points x such that cl_g(U) meets a for every gamma-open U at x."""
        out = 0
        for x in range(self.sp.ground.n):
            if all(t & a for t in self.test_sets(x, "gamma_open_cl")):
                out |= 1 << x
        return out


def assert_tables_match(sp, masks=None):
    oracle = Oracle(sp)
    masks = sp.ground.subsets() if masks is None else masks
    for a in masks:
        assert (interior(sp.top, a), closure(sp.top, a)) == (oracle.interior(a), oracle.closure(a)), a
        assert sp.int_g[a] == gamma_interior(sp, a) == oracle.int_g(a), a
        assert sp.cl_g[a] == gamma_closure(sp, a) == oracle.cl_g(a), a
        assert gamma_theta_closure(sp, a) == oracle.theta(a), a
    for family in ("regular_open", "gamma_open_cl"):
        for x in range(sp.ground.n):
            tests = oracle.test_sets(x, family)
            for m in masks:
                converges = all(m & ~t == 0 for t in tests)
                accumulates = all(m & t for t in tests)
                assert _fb_converges(sp, (m,), x, family) is converges, (family, x, m)
                assert _fb_accumulates(sp, (m,), x, family) is accumulates, (family, x, m)


@settings(max_examples=60, deadline=None)
@given(spaces())
def test_tables_match_oracle_on_drawn_spaces(sp):
    assert_tables_match(sp)


def test_tables_match_oracle_on_small_table_spaces():
    count = 0
    for n in (1, 2):
        for _, _, sp in tl.enumerate_spaces(n, ("all_tables",)):
            assert_tables_match(sp)
            count += 1
    assert count == 38


def test_tables_match_oracle_on_a_sixteen_point_chain():
    points = tuple(f"p{i}" for i in range(16))
    ground = PointSet(points)
    top = validate_topology(ground, [(1 << k) - 1 for k in range(17)])
    sp = Space(ground, top, GammaOperation("closure"))
    assert len(sp.int_g) == len(sp.cl_g) == 1 << 16
    masks = random.Random(16).sample(range(1 << 16), 200)
    assert_tables_match(sp, masks)
