"""The operator, theta-closure and principal-filterbase tables against the
literal point-by-point definitions of ``literal_convergence.Oracle``, and
the packed subset-closure kernel (``closed_lanes``, ``meeting_lanes``),
through ``inside_table`` and ``meeting_table`` below, against the literal
definitions and the loops it replaced."""

import functools
import random
from operator import and_

import pytest
from hypothesis import given, settings
from test_properties import spaces

from gamma_top import theoremlab as tl
from gamma_top.finspace import (
    PointSet,
    closed_lanes,
    closure,
    interior,
    lane_bits,
    meeting_lanes,
    submasks,
    unpack_lanes,
    validate_topology,
)
from gamma_top.gamma_core import BRANCHES, GammaOperation, Space, gamma_closure, gamma_interior
from gamma_top.gamma_sets import gamma_theta_closure

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
        table = sp.cls.principal_verdicts[family]
        conv, acc = unpack_lanes(sp.ground.n, table.conv), unpack_lanes(sp.ground.n, table.acc)
        for x in range(sp.ground.n):
            tests = oracle.test_sets(x, family)
            for m in masks:
                converges = all(m & ~t == 0 for t in tests)
                accumulates = all(m & t for t in tests)
                assert bool(conv[m] >> x & 1) is converges, (family, x, m)
                assert bool(acc[m] >> x & 1) is accumulates, (family, x, m)


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


def inside_table(n, sets_at):
    """Per subset A of an n-point ground set, the mask of the points x that
    own a set of ``sets_at[x]`` inside A: each point marked at its own
    sets, then every entry ORed into its supersets (``closed_lanes``)."""
    marks = [0] * (1 << n)
    for x, sets in enumerate(sets_at):
        for s in sets:
            marks[s] |= 1 << x
    return unpack_lanes(n, closed_lanes(n, marks, True))


def meeting_table(n, sets_at):
    """Per subset A of an n-point ground set, the mask of the points x all
    of whose sets in ``sets_at[x]`` meet A: each point marked at the
    complements of its sets (``meeting_lanes``).  This pass is kept apart
    from ``inside_table``, so the duality of the two tables is checked,
    not shared."""
    full = (1 << n) - 1
    misses = [0] * (1 << n)
    for x, sets in enumerate(sets_at):
        for s in sets:
            misses[full ^ s] |= 1 << x
    return unpack_lanes(n, meeting_lanes(n, misses))


def _loop_inside_table(n, sets_at):
    """``inside_table`` one entry at a time: each point marked at its sets,
    then every entry ORed into its supersets, one bit at a time."""
    size = 1 << n
    table = [0] * size
    for x, sets in enumerate(sets_at):
        for s in sets:
            table[s] |= 1 << x
    bit = 1
    while bit < size:
        for m in range(bit, size):
            if m & bit:
                table[m] |= table[m ^ bit]
        bit <<= 1
    return tuple(table)


def _loop_meeting_table(n, sets_at):
    """``meeting_table`` one entry at a time: each point marked at the
    complements of its sets, every entry ORed into its subsets, and each
    entry complemented."""
    size = 1 << n
    full = size - 1
    miss = [0] * size
    for x, sets in enumerate(sets_at):
        for s in sets:
            miss[full ^ s] |= 1 << x
    bit = 1
    while bit < size:
        for m in range(size - bit):
            if not m & bit:
                miss[m] |= miss[m | bit]
        bit <<= 1
    return tuple(full ^ m for m in miss)


def assert_kernel_matches(n, sets_at, masks, inside=None, meeting=None):
    """The tables of *sets_at* (or the given *inside* and *meeting*) equal
    the loops' in full, and the literal definitions at *masks*: x owns a
    set inside A iff some subset of A is one of its sets, and all its sets
    meet A iff none lies inside the complement of A.  Subsets are listed
    rather than sets scanned, so a point with 32,768 sets costs 2**|A|."""
    inside = inside_table(n, sets_at) if inside is None else inside
    meeting = meeting_table(n, sets_at) if meeting is None else meeting
    assert inside == _loop_inside_table(n, sets_at)
    assert meeting == _loop_meeting_table(n, sets_at)
    full = (1 << n) - 1
    owned = [frozenset(sets) for sets in sets_at]
    for a in masks:
        for x, own in enumerate(owned):
            assert bool(inside[a] >> x & 1) is any(s in own for s in submasks(a)), (a, x)
            assert bool(meeting[a] >> x & 1) is not any(s in own for s in submasks(full ^ a)), (a, x)


@pytest.mark.parametrize("n", range(1, 17))
def test_kernel_tables_match_the_definition_on_drawn_sets(n):
    # n = 8 and 9 are the last one-byte and the first two-byte lanes
    rng = random.Random(n)
    sets_at = [rng.sample(range(1 << n), rng.randrange(5)) for _ in range(n)]
    sets_at[n // 2] = []  # a point with no sets
    masks = range(1 << n) if n <= 10 else rng.sample(range(1 << n), 200)
    assert_kernel_matches(n, sets_at, masks)


@pytest.mark.parametrize("n", (1, 7, 8, 9, 15, 16))
def test_kernel_tables_with_full_lanes_and_points_without_sets(n):
    size, full = 1 << n, (1 << n) - 1
    # every point marked at the empty set: every inside lane holds every
    # point, and no point's sets all meet any A
    everywhere = [[0]] * n
    assert inside_table(n, everywhere) == (full,) * size
    assert meeting_table(n, everywhere) == (0,) * size
    # no point owns a set: no point owns one inside A, and all of them
    # meet A vacuously
    assert inside_table(n, [[]] * n) == (0,) * size
    assert meeting_table(n, [[]] * n) == (full,) * size
    # every other point marked at the empty set and at the whole set
    mixed = [[0, full] if x % 2 else [] for x in range(n)]
    masks = range(size) if n <= 10 else random.Random(n).sample(range(size), 200)
    assert_kernel_matches(n, mixed, masks)


def test_tables_match_oracle_on_a_sixteen_point_chain():
    points = tuple(f"p{i}" for i in range(16))
    ground = PointSet(points)
    top = validate_topology(ground, [(1 << k) - 1 for k in range(17)])
    sp = Space(ground, top, GammaOperation("closure"))
    assert len(sp.int_g) == len(sp.cl_g) == 1 << 16
    masks = random.Random(16).sample(range(1 << 16), 200)
    assert_tables_match(sp, masks)
    # the discrete document: 65,536 opens, each the value of itself, mark
    # every lane of both tables
    discrete = Space(ground, validate_topology(ground, range(1 << 16)), GammaOperation("identity"))
    pairs = list(zip(discrete.top.opens_sorted, discrete.extension))
    sets_at = [[value for u, value in pairs if u >> x & 1] for x in range(16)]
    assert_kernel_matches(16, sets_at, masks, discrete.int_g, discrete.cl_g)


# -- the packed principal tables ------------------------------------------------

def _drawn_space(n, rng):
    """A space on n points: the topology generated, under union and
    intersection, by three drawn sets, and a drawn table, builtin or
    pivot."""
    ground = PointSet(tuple(f"p{i}" for i in range(n)))
    opens = {0, ground.full_mask} | {rng.getrandbits(n) for _ in range(3)}
    while True:
        grown = opens | {a | b for a in opens for b in opens} | {a & b for a in opens for b in opens}
        if grown == opens:
            break
        opens = grown
    top = validate_topology(ground, opens)
    kind = rng.choice(("table", "closure", "int_closure", "pivot"))
    if kind == "table":
        extra = [rng.getrandbits(n) & rng.getrandbits(n) for _ in top.opens_sorted]
        gamma = GammaOperation("table", values=tuple(v | e for v, e in zip(top.opens_sorted, extra)))
    elif kind == "pivot":
        gamma = GammaOperation("pivot", pivot=rng.choice(ground.labels),
                               in_branch=rng.choice(BRANCHES), out_branch=rng.choice(BRANCHES))
    else:
        gamma = GammaOperation(kind)
    return Space(ground, top, gamma)


def _scan_principal_tables(cls, tests_at):
    """The (converges, accumulates) tuples as the per-point passes built
    them before the tables were packed: one ``inside_table`` over the
    complements of the kernels K_x, read backwards, and one
    ``meeting_table`` of the test sets."""
    n, full = cls.ground.n, cls.ground.full_mask
    outside = [(full ^ functools.reduce(and_, sets, full),) for sets in tests_at]
    return inside_table(n, outside)[::-1], meeting_table(n, tests_at)


def assert_principal_tables_match(sp, masks):
    """Each packed principal table at *masks*, lane by lane, against the
    definitions: {M} converges at x iff M lies inside every test set at x
    (inside K_x), and accumulates at x iff M meets every one; and each
    table, unpacked, against the tables of the passes it replaced."""
    cls = sp.cls
    n = cls.ground.n
    bits = lane_bits(n)
    ones = (1 << bits) - 1
    tests = {
        "regular_open": [[a for a in cls.regular_open if a >> x & 1] for x in range(n)],
        "gamma_open_cl": [[cls.cl_g[u] for u in cls.gamma_open if u >> x & 1] for x in range(n)],
    }
    for family, tests_at in tests.items():
        table = cls.principal_verdicts[family]
        # every entry sits in its own lane, and no lane lies past 2**n
        assert table.conv >> (bits << n) == table.acc >> (bits << n) == 0
        for m in masks:
            converges = sum(1 << x for x, sets in enumerate(tests_at) if all(m & ~t == 0 for t in sets))
            accumulates = sum(1 << x for x, sets in enumerate(tests_at) if all(m & t for t in sets))
            assert table.conv >> m * bits & ones == converges, (family, m)
            assert table.acc >> m * bits & ones == accumulates, (family, m)
        unpacked = unpack_lanes(n, table.conv), unpack_lanes(n, table.acc)
        assert unpacked == _scan_principal_tables(cls, tests_at), family


@pytest.mark.parametrize("n", range(1, 17))
def test_packed_principal_tables_match_the_definitions_on_drawn_classes(n):
    # n = 8 and 9 are the last one-byte and the first two-byte lanes, and
    # n = 16 fills the widest lane
    rng = random.Random(n)
    # the first draw, and the first whose regular-open tables are packed
    # apart from the closures' (equal tables are one object)
    sample = [_drawn_space(n, rng)]
    for _ in range(20):
        sp = _drawn_space(n, rng)
        verdicts = sp.cls.principal_verdicts
        if verdicts["regular_open"] is not verdicts["gamma_open_cl"]:
            sample.append(sp)
            break
    assert len(sample) == (1 if n < 3 else 2)
    for sp in sample:
        masks = range(1 << n) if n <= 10 else [0, sp.ground.full_mask, *(1 << p for p in range(n)),
                                                *rng.sample(range(1 << n), 200)]
        assert_principal_tables_match(sp, masks)
