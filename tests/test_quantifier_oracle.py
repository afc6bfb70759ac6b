"""The quantifiers decided per point or from 2**n tables must give the
verdicts and witnesses of their literal definitions: folds over every
subfamily, scans over every point and pair of neighbourhoods, and the
pairwise topology check.  The literal definitions live here as the
oracle."""

import collections
import itertools
import json

import pytest
from hypothesis import given, settings

from gamma_top import documents
from gamma_top import theoremlab as tl
from gamma_top.finspace import (
    DEFAULT_LABELS,
    MAX_POINTS,
    MissingEmptyOrWhole,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PointSet,
    Topology,
    validate_topology,
)
from gamma_top.gamma_core import GammaOperation, Space, is_open_operation, is_regular_operation
from gamma_top.gamma_sets import (
    gamma_open_family,
    is_extremally_disconnected,
    regular_open_family,
    theta_families,
)

from test_properties import spaces


def _reachable(members, seed, combine):
    """All values taken by folding *combine* over subfamilies, with enough
    parent links to rebuild a witness subfamily for any value."""
    seen = {seed: None}
    order = [seed]
    qi = 0
    while qi < len(order):
        cur = order[qi]
        qi += 1
        for idx, item in enumerate(members):
            new = combine(cur, item)
            if new not in seen:
                seen[new] = (cur, idx)
                order.append(new)
    return seen, order


def _rebuild_subfamily(seen, value):
    idxs = set()
    while seen[value] is not None:
        prev, idx = seen[value]
        idxs.add(idx)
        value = prev
    return sorted(idxs)


def closed_family(sp, closedness):
    """The gamma-closed sets under one reading, ascending: complements of
    gamma-open sets (``dual``) or fixed points of cl_g (``cl``)."""
    full = sp.ground.full_mask
    if closedness == "dual":
        return tuple(sorted(full ^ g for g in gamma_open_family(sp)))
    assert closedness == "cl"
    return tuple(m for m, c in enumerate(sp.cl_g) if c & ~m == 0)


def oracle_conditions(sp, closedness):
    """Conditions (1) and (2): some gamma-open cover whose closures do not
    cover, some closed family with empty intersection whose interiors
    meet, each found by folding every subfamily (None when none exists)."""
    full = sp.ground.full_mask
    fam = gamma_open_family(sp)
    seen, order = _reachable(
        [(u, sp.cl_g[u]) for u in fam], (0, 0), lambda cur, it: (cur[0] | it[0], cur[1] | it[1])
    )
    cover = next(([fam[i] for i in _rebuild_subfamily(seen, value)]
                  for value in order if value[0] == full and value[1] != full), None)
    closed = closed_family(sp, closedness)
    seen, order = _reachable(
        [(a, sp.int_g[a]) for a in closed], (full, full),
        lambda cur, it: (cur[0] & it[0], cur[1] & it[1]),
    )
    family = next(([closed[i] for i in _rebuild_subfamily(seen, value)]
                   for value in order if value[0] == 0 and value[1] != 0), None)
    return cover, family


def oracle_p313_2(sp, theta):
    closed, _ = theta_families(sp)
    seen, _ = _reachable(closed, sp.ground.full_mask, int.__and__)
    for value in sorted(seen):
        if theta[value] != value:
            return "fails", {
                "intersection": tl._labels(sp, value),
                "subfamily": [tl._labels(sp, closed[i]) for i in _rebuild_subfamily(seen, value)],
            }, {}
    return "holds", None, {}


def oracle_t314(sp):
    full = sp.ground.full_mask
    closed, _ = theta_families(sp)
    ro = regular_open_family(sp)
    for a, t in enumerate(sp.cls.theta_closure):
        for part, family in (("theta_closed_supersets", closed), ("regular_open_supersets", ro)):
            meet = full
            for v in family:
                if a & ~v == 0:
                    meet &= v
            if t != meet:
                return "fails", {
                    "subset": tl._labels(sp, a),
                    "part": part,
                    "theta_closure": tl._labels(sp, t),
                    "meet": tl._labels(sp, meet),
                }, {}
    return "holds", None, {}


def oracle_t315a(sp):
    ro = regular_open_family(sp)
    for a, t in enumerate(sp.cls.theta_closure):
        for i in range(sp.ground.n):
            bit = 1 << i
            if bool(t & bit) != all(v & a for v in ro if v & bit):
                return "fails", {"subset": tl._labels(sp, a), "point": sp.ground.labels[i]}, {}
    return "holds", None, {}


def oracle_t315b(sp):
    full = sp.ground.full_mask
    theta = sp.cls.theta_closure
    ro = regular_open_family(sp)
    for a in sp.ground.subsets():
        rhs = all(any(v >> i & 1 and v & ~a == 0 for v in ro) for i in range(sp.ground.n) if a >> i & 1)
        if (theta[full ^ a] == full ^ a) != rhs:
            return "fails", {"subset": tl._labels(sp, a)}, {}
    return "holds", None, {}


def oracle_t315c(sp):
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    theta = sp.cls.theta_closure
    for a in sp.ground.subsets():
        lhs = ig[cg[a]] == a
        rhs = theta[full ^ a] == full ^ a and theta[a] == a
        if lhs != rhs:
            return "fails", {"subset": tl._labels(sp, a)}, {}
    return "holds", None, {}


def oracle_t39_conv(sp):
    notes = oracle_cl_idempotence_notes(sp)
    ig, cg = sp.int_g, sp.cl_g
    for a in gamma_open_family(sp):
        if ig[cg[cg[a]]] != cg[a]:
            return "fails", {"subset": tl._labels(sp, a)}, notes
    return "holds", None, notes


def _values(sp):
    """The operation's value at each open set."""
    return dict(zip(sp.top.opens_sorted, sp.extension))


def oracle_regular_operation(sp):
    values = _values(sp)
    for i in range(sp.ground.n):
        at_x = [u for u in sp.top.opens_sorted if u >> i & 1]
        for u, v in itertools.product(at_x, repeat=2):
            cap = values[u] & values[v]
            if not any(values[w] & ~cap == 0 for w in at_x):
                return False
    return True


def oracle_open_operation(sp):
    family = gamma_open_family(sp)
    values = _values(sp)
    return all(
        any(b >> i & 1 and b & ~values[u] == 0 for b in family)
        for i in range(sp.ground.n)
        for u in sp.top.opens_sorted if u >> i & 1
    )


def oracle_cl_idempotence_notes(sp):
    """The first A with cl_g(cl_g(A)) != cl_g(A), by a scan."""
    cg = sp.cl_g
    for a, c in enumerate(cg):
        if cg[c] != c:
            return {"cl_gamma_idempotent": False, "idempotence_witness": tl._labels(sp, a)}
    return {"cl_gamma_idempotent": True}


def oracle_discrepancies(sp):
    """The three statistics of ``_space_discrepancies``, by scans over
    every subset."""
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    disagree = [m for m in sp.ground.subsets()
                if (ig[full ^ m] == full ^ m) != (cg[m] & ~m == 0)]
    idem = oracle_cl_idempotence_notes(sp)
    theta = sp.cls.theta_closure
    bad = [m for m in sp.ground.subsets() if cg[m] & ~theta[m]]
    return [
        {
            "kind": "closedness_definitions",
            "agree": not disagree,
            "agreement_rate": 1.0 - len(disagree) / (full + 1),
            "witness": tl._labels(sp, disagree[0]) if disagree else None,
        },
        {
            "kind": "cl_gamma_idempotent",
            "holds": idem["cl_gamma_idempotent"],
            "witness": idem.get("idempotence_witness"),
        },
        {
            "kind": "cl_gamma_within_theta_closure",
            "holds": not bad,
            "witness": tl._labels(sp, bad[0]) if bad else None,
        },
    ]


# the five claims decided by the open + ED lemma (``theoremlab``), each
# with the scan it replaced
CLAIM_ORACLES = {
    "C-T3.9-CONV": oracle_t39_conv,
    "C-T3.14": oracle_t314,
    "C-T3.15-A": oracle_t315a,
    "C-T3.15-B": oracle_t315b,
    "C-T3.15-C": oracle_t315c,
}


def _assert_matches_oracle(sp):
    """Compare every table-driven quantifier with its oracle on *sp*, and
    each open + ED claim with its oracle where its hypotheses hold; return
    the oracles' statuses, run whatever the hypotheses say."""
    open_ed = oracle_open_operation(sp) and is_extremally_disconnected(sp)
    statuses = {}
    for cid, oracle in CLAIM_ORACLES.items():
        assert tl.CLAIMS[cid].hypotheses == ("open_operation", "extremally_disconnected")
        expected = oracle(sp)
        verdict = tl.check_claim(sp.cls, cid)
        if open_ed:
            assert verdict == expected, cid
        else:
            assert verdict[0] == "hypotheses_not_met", cid
        statuses[cid] = expected[0], open_ed
    assert tl.CLAIMS["C-P3.13-2"].check(sp.cls) == oracle_p313_2(sp, sp.cls.theta_closure) \
        == ("holds", None, {})
    for mode in ("dual", "cl"):
        assert oracle_conditions(sp, mode) == (None, None)
    assert is_open_operation(sp) == oracle_open_operation(sp)
    assert is_regular_operation(sp) == oracle_regular_operation(sp)
    assert tl._space_discrepancies(sp.cls) == oracle_discrepancies(sp)
    return statuses


@pytest.mark.parametrize("name", sorted(documents.BUNDLED))
def test_bundled_examples_match_oracle(name):
    _assert_matches_oracle(documents.load_bundled(name))


def test_all_one_and_two_point_table_spaces_match_oracle(enumeration):
    spaces_12 = enumeration(1, "all_tables").spaces + enumeration(2, "all_tables").spaces
    assert len(spaces_12) == 2 + 36
    for sp in spaces_12:
        _assert_matches_oracle(sp)


@pytest.mark.parametrize("n, modes, size, stride", [
    (3, "all_tables", 9048, 12),
    (4, "builtins,pivots", 2775, 8),
])
def test_stride_sample_matches_oracle_where_claims_fail(enumeration, n, modes, size, stride):
    spaces_n = enumeration(n, modes).spaces
    assert len(spaces_n) == size
    seen = {cid: set() for cid in CLAIM_ORACLES}
    for sp in spaces_n[::stride]:
        for cid, status in _assert_matches_oracle(sp).items():
            seen[cid].add(status)
    # the oracles are not vacuous: they fail where the hypotheses do not
    # hold, and the verdicts are compared where they do
    for cid in CLAIM_ORACLES:
        assert {("holds", True), ("fails", False)} <= seen[cid], cid


def test_operation_flags_match_oracle_on_every_enumerated_space(enumeration):
    # the flags are memoised per operator class, the oracles read each
    # space's own values: so no class mixes flag values either
    spaces_n = enumeration(3, "all_tables").spaces + enumeration(4, "builtins,pivots").spaces
    assert len(spaces_n) == 9048 + 2775
    seen = set()
    for sp in spaces_n:
        flags = (is_open_operation(sp), is_regular_operation(sp))
        assert flags == (oracle_open_operation(sp), oracle_regular_operation(sp))
        seen.add(flags)
    assert len(seen) == 4


def _chain_space(size):
    """The chain topology on *size* points with the closure operation."""
    points = [chr(ord("a") + i) for i in range(size)]
    doc = {"points": points, "opens": [points[:k] for k in range(size + 1)],
           "gamma": {"kind": "closure"}}
    return documents.parse_space(json.dumps(doc))


def test_discrepancies_and_t39_notes_match_the_scans(enumeration):
    # the lemmas of ``_space_discrepancies`` against the scans they replace
    table3 = enumeration(3, "all_tables").spaces
    spaces_n = table3 + enumeration(4, "builtins,pivots").spaces
    assert len(spaces_n) == 9048 + 2775
    spaces_n += [documents.load_bundled(name) for name in sorted(documents.BUNDLED)]
    spaces_n.append(_chain_space(MAX_POINTS))
    opens = collections.Counter()
    noted = collections.Counter()
    for sp in spaces_n:
        assert tl._space_discrepancies(sp.cls) == oracle_discrepancies(sp)
        opens[is_open_operation(sp)] += 1
        for cid in ("C-T3.9-FWD", "C-T3.9-CONV"):
            status, _, notes = tl.check_claim(sp.cls, cid)
            if status != "hypotheses_not_met":
                assert notes == oracle_cl_idempotence_notes(sp), cid
                noted[cid] += 1
    # both branches of the idempotence statistic, and both claims, are met
    assert opens[True] and opens[False]
    assert noted["C-T3.9-FWD"] and noted["C-T3.9-CONV"]
    # cl_g is idempotent on exactly the open table spaces
    assert sum(tl._space_discrepancies(sp.cls)[1]["holds"] for sp in table3) == 5672


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_random_spaces_match_oracle(sp):
    _assert_matches_oracle(sp)


def _discrete_identity(**tables):
    """The discrete 3-point space with the identity operation, whose
    operator tables (both the identity on subsets) are replaced by
    *tables*; a fresh space, so nothing is memoised yet."""
    top = validate_topology(PointSet(DEFAULT_LABELS[:3]), range(8))
    sp = Space(top.ground, top, GammaOperation("identity"))
    assert sp.int_g == sp.cl_g == tuple(range(8))
    for name, table in tables.items():
        object.__setattr__(sp, name, table)
    return sp


def test_forced_cover_condition_failure_has_a_failing_witness():
    # cl_g({a}) = {} breaks extensiveness, so the cover of the singletons
    # has closures that miss a
    cl_g = tuple(0 if a == 0b001 else a for a in range(8))
    forced = _discrete_identity(cl_g=cl_g)
    # the oracle finds a failing cover under either reading of gamma-closed
    covers = [oracle_conditions(forced, mode)[0] for mode in ("dual", "cl")]
    assert covers[0] is not None and covers[1] is not None
    assert set(covers[0]) <= set(gamma_open_family(forced))
    union = closures = 0
    for u in covers[0]:
        union |= u
        closures |= forced.cl_g[u]
    assert union == forced.ground.full_mask != closures


def test_forced_closed_family_failure_has_a_failing_witness():
    # int_g({a}) = {a,b} breaks contractiveness: the closed sets whose
    # interior holds b meet in nothing
    int_g = tuple(0b011 if a == 0b001 else a for a in range(8))
    forced = _discrete_identity(int_g=int_g)
    # the oracle finds a failing family under either reading of gamma-closed
    families = [oracle_conditions(forced, mode)[1] for mode in ("dual", "cl")]
    assert families[0] is not None and families[1] is not None
    assert set(families[0]) <= set(closed_family(forced, "dual"))
    meet = interiors = forced.ground.full_mask
    for a in families[0]:
        meet &= a
        interiors &= forced.int_g[a]
    assert meet == 0 != interiors


def pairwise_topology(ground, family):
    """The pairwise closure check, with the first failing pair."""
    opens = set(family)
    if 0 not in opens or ground.full_mask not in opens:
        raise MissingEmptyOrWhole("topology must contain the empty set and the whole set")
    for a, b in itertools.combinations(sorted(opens), 2):
        if a | b not in opens:
            raise NotClosedUnderUnion(ground, a, b)
        if a & b not in opens:
            raise NotClosedUnderIntersection(ground, a, b)
    return Topology(ground, frozenset(opens))


def _outcome(check, ground, family):
    try:
        return "accepted", check(ground, family).opens
    except (MissingEmptyOrWhole, NotClosedUnderUnion, NotClosedUnderIntersection) as err:
        return type(err), getattr(err, "pair", None), str(err)


def test_validate_topology_matches_the_pairwise_scan_on_every_small_family():
    # the same verdict as the scan; a family that is not closed may be
    # named by another pair and operation than the scan's first, but the
    # pair lies in the family and fails the named operation
    fails = {
        NotClosedUnderUnion: lambda a, b: a | b,
        NotClosedUnderIntersection: lambda a, b: a & b,
    }
    accepted = 0
    for n in (1, 2, 3):
        ground = PointSet(DEFAULT_LABELS[:n])
        size = 1 << n
        for bits in range(1 << size):
            family = [m for m in range(size) if bits >> m & 1]
            outcome = _outcome(validate_topology, ground, family)
            expected = _outcome(pairwise_topology, ground, family)
            if outcome[0] in fails:
                assert expected[0] in fails, (n, family)
                kind, (a, b), message = outcome
                assert a in family and b in family, (n, family)
                assert fails[kind](a, b) not in family, (n, family)
                assert message == str(kind(ground, a, b))
            else:
                assert outcome == expected, (n, family)
            accepted += outcome[0] == "accepted"
    assert accepted == 1 + 4 + 29
