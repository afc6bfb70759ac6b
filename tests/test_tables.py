"""The operator, theta-closure and principal-filterbase tables against the
literal point-by-point definitions of ``literal_convergence.Oracle``."""

import random

from hypothesis import given, settings
from test_properties import spaces

from gamma_top import theoremlab as tl
from gamma_top.finspace import PointSet, closure, interior, validate_topology
from gamma_top.gamma_core import GammaOperation, Space, gamma_closure, gamma_interior
from gamma_top.gamma_sets import gamma_theta_closure, principal_verdicts

from literal_convergence import Oracle


def assert_tables_match(sp, masks=None):
    oracle = Oracle(sp)
    masks = sp.ground.subsets() if masks is None else masks
    for a in masks:
        assert (interior(sp.top, a), closure(sp.top, a)) == (oracle.interior(a), oracle.closure(a)), a
        assert sp.int_g[a] == gamma_interior(sp, a) == oracle.int_g(a), a
        assert sp.cl_g[a] == gamma_closure(sp, a) == oracle.cl_g(a), a
        assert gamma_theta_closure(sp, a) == oracle.theta(a), a
    for family in ("regular_open", "gamma_open_cl"):
        table = principal_verdicts(sp, family)
        for x in range(sp.ground.n):
            tests = oracle.test_sets(x, family)
            for m in masks:
                converges = all(m & ~t == 0 for t in tests)
                accumulates = all(m & t for t in tests)
                assert bool(table.converges[m] >> x & 1) is converges, (family, x, m)
                assert bool(table.accumulates[m] >> x & 1) is accumulates, (family, x, m)


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
