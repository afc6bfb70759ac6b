"""Families, flags, the theta and filterbase tables and the bridge
pairings are values of the operator class (``gamma_core.OperatorClass``):
the spaces on one ``Topology`` object with equal int_g and cl_g tables
share one class, and with it every value.  Claims, invariants,
discrepancy statistics and separations take the class, and a sweep or a
mine makes each class's row once per topology.  Every space packs its
two tables (``finspace.closed_lanes``), and the packed pair is the key of
its class, whose tables are unpacked once; the walk, which builds no
space, finds the same key as the OR of per-open closures.  These tests
check that sharing changes no result, that the per-class code reads
nothing of the operation but its two operators, that the slice
``extension[1:]`` (the operation's values at the non-empty opens) and the
per-point neighbourhood values determine each other, that the walk finds
the class a space finds, how often the per-class code runs, that no class
outlives its spaces, and that a sweep's per-class tallies equal a
per-space recount."""

import collections
import dataclasses
import functools
import gc
import math
import weakref

import pytest

from gamma_top import documents, gamma_core
from gamma_top import theoremlab as tl
from gamma_top.finspace import FinSpaceError, enumerate_topologies, open_nbds, validate_topology
from gamma_top.gamma_core import OperatorClass, Space, apply_gamma, operations_for
from conftest import mined_records


@pytest.fixture(scope="module")
def walked():
    """``walked(n, modes)``: one walk of an enumeration, shared by the
    tests here that only read it: its topologies (``enumerate_slices``)
    and its ``(ti, oi, space)`` rows (``enumerate_spaces``) over the same
    spaces.  Tests that count builds or runs, or that need classes no other
    pass has filled, walk afresh."""

    @functools.cache
    def build(n, modes):
        walks = tuple(tl.enumerate_slices(n, modes))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tl, "enumerate_slices", lambda *args: iter(walks))
            rows = tuple(tl.enumerate_spaces(n, modes))
        return walks, rows

    return build


def _fresh(sp):
    """The same space on a topology object of its own, so with a class of
    its own; the operation is kept, so the space payload is the same too."""
    return Space(sp.ground, validate_topology(sp.ground, sp.top.opens), sp.gamma)


def _results(sp):
    return (
        tl.run_suite(sp, tl.CLAIM_IDS).to_dict(),
        tl.check_invariants(sp.cls),
        tl._space_discrepancies(sp.cls),
    )


def _check_shared_equals_fresh(rows, stride):
    """Every *stride*-th space of the ``(ti, oi, space)`` *rows*, read
    after the first space of its class filled the class's values, against
    a fresh copy; returns how many of them read values that another space
    filled."""
    firsts = {}
    shared = 0
    for i, (ti, oi, sp) in enumerate(rows):
        first = firsts.setdefault((ti, sp.int_g, sp.cl_g), sp)
        if i % stride:
            continue
        assert sp.cls is first.cls
        _results(first)
        fresh = _fresh(sp)
        assert fresh.cls is not sp.cls
        assert _results(sp) == _results(fresh), (ti, oi)
        shared += first is not sp
    return shared


def test_shared_results_equal_fresh_ones(walked):
    assert _check_shared_equals_fresh(walked(3, ("all_tables",))[1], 29) > 100
    assert _check_shared_equals_fresh(walked(4, ("builtins", "pivots"))[1], 19) > 0


def _stand_in(sp, **extra):
    """A class of its own with the ground set, opens and operator tables
    of *sp*, and nothing computed yet: no ``gamma`` or ``extension``, and
    no ``key`` unless given."""
    cls = OperatorClass(sp.ground, sp.top.opens, sp.int_g, sp.cl_g)
    vars(cls).update(extra)
    return cls


def _holds(value, target) -> bool:
    """Whether *target* is *value* or sits anywhere inside it."""
    if value is target:
        return True
    if isinstance(value, dict):
        value = list(value.keys()) + list(value.values())
    if isinstance(value, (tuple, list)):
        return any(_holds(item, target) for item in value)
    return False


def test_class_memoised_code_reads_only_the_operators(walked):
    ids = tl.CLAIM_IDS
    spaces = [documents.load_bundled(name)
              for name in ("example3_2", "example3_5", "example3_16", "example3_17")]
    spaces += [sp for i, (_, _, sp) in enumerate(walked(3, ("all_tables",))[1])
               if i % 601 == 0]
    spaces += [sp for i, (_, _, sp) in enumerate(walked(4, ("builtins", "pivots"))[1])
               if i % 397 == 0]
    for sp in spaces:
        stand_in = _stand_in(sp)
        for cid, claim in tl.CLAIMS.items():
            # a checker that reads the operation raises AttributeError here
            assert claim.check(stand_in) == claim.check(sp.cls), cid
        assert tl.check_invariants(stand_in) == tl.check_invariants(sp.cls)
        assert tl._space_discrepancies(stand_in) == tl._space_discrepancies(sp.cls)
        assert ({name: getattr(stand_in, name) for name in tl.SPACE_FLAGS}
                == tl.space_flags(sp))
        for predicate in tl.SEPARATIONS:
            assert tl._separations(stand_in, predicate) == tl._separations(sp.cls, predicate)
        # a class given a key keeps none of it in a claim's row
        sentinel = object()
        keyed = _stand_in(sp, key=sentinel)
        row = [tl.check_claim(keyed, cid) for cid in ids]
        assert row == [tl.check_claim(sp.cls, cid) for cid in ids]
        assert not _holds(row, sentinel)


def test_a_sweep_runs_each_claim_body_once_per_operator_class(monkeypatch, walked):
    # the classes, and per claim those with a space that meets its hypotheses
    _, rows = walked(3, ("all_tables",))
    classes = set()
    met = collections.defaultdict(set)
    for ti, oi, sp in rows:
        cls = (ti, sp.int_g, sp.cl_g)
        classes.add(cls)
        for cid, claim in tl.CLAIMS.items():
            if all(getattr(sp.cls, h) for h in claim.hypotheses):
                met[cid].add(cls)
    assert len(classes) == 507

    # two spaces with one slice have equal neighbourhood values, as the
    # empty set is the first open and in no neighbourhood, so they are of
    # one class and share its tables
    first_with = {}
    for ti, oi, sp in rows:
        first = first_with.setdefault((ti, sp.extension[1:]), sp)
        assert sp.int_g is first.int_g and sp.cl_g is first.cl_g
        assert sp.cls is first.cls
    assert len(first_with) == 1131

    runs = collections.Counter()

    def counted(name, body):
        def run(*args, **kwargs):
            runs[name] += 1
            return body(*args, **kwargs)

        return run

    for cid, claim in tl.CLAIMS.items():
        # a checker has no memo of its own: a sweep runs it once per class
        check = counted(cid, claim.check)
        monkeypatch.setitem(tl.CLAIMS, cid, dataclasses.replace(claim, check=check))
    for name in tl.SPACE_FLAGS:
        flag = functools.cached_property(counted(name, vars(OperatorClass)[name].func))
        flag.__set_name__(OperatorClass, name)
        monkeypatch.setattr(OperatorClass, name, flag)

    # the kernel, the unpacking and the per-class code a sweep and a mine
    # run, counted per call, and the per-slice lookups of a class's row
    for module, name in ((gamma_core, "closed_lanes"), (gamma_core, "unpack_lanes"),
                         (tl, "check_claim"), (tl, "check_invariants"),
                         (tl, "_space_discrepancies"), (tl, "_separations")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    report = tl.TopologyRows.report

    def counted_report(walk, class_row, look):
        return report(walk, class_row, counted("lookup", look))

    monkeypatch.setattr(tl.TopologyRows, "report", counted_report)

    claims, _ = tl.full_sweep(3, ("all_tables",), tl.CLAIM_IDS, invariants=True)
    assert claims.spaces == 9048
    # the walk closes both tables of each (open, value) pair it meets once
    # per topology, 245 pairs in all; a class unpacks them once, and its
    # packed theta closure (``OperatorClass.theta_lanes``) once
    assert runs["closed_lanes"] == 2 * 245
    assert runs["unpack_lanes"] == 3 * 507
    # one lookup per slice, not one per row
    assert runs["lookup"] == 1131
    assert runs["check_claim"] == 507 * len(tl.CLAIM_IDS)
    assert runs["check_invariants"] == runs["_space_discrepancies"] == 507
    # every class tests both hypotheses once; no claim names the regular flag
    assert runs["open_operation"] == runs["extremally_disconnected"] == 507
    assert runs["regular_operation"] == 0
    for cid, claim in tl.CLAIMS.items():
        assert runs[cid] == len(met[cid]), cid
        if not claim.hypotheses:
            assert runs[cid] == 507, cid

    # the benchmark's sweep: one row of 18 claims per class
    sweep_claims = tl.SAFE_CLAIMS + tl.CONDITIONED_CLAIMS
    assert len(sweep_claims) == 18
    runs.clear()
    tl.full_sweep(3, ("all_tables",), sweep_claims, invariants=False)
    assert runs["check_claim"] == 9126
    assert runs["lookup"] == 1131
    # and mine reads the same rows, and scans the families once per class
    runs.clear()
    assert len(mined_records(tl.mine(3, ("all_tables",), "fails:C-RO-INCL"))) == 576
    assert runs["check_claim"] == 507
    assert runs["lookup"] == 1131
    for predicate in tl.SEPARATIONS:
        runs.clear()
        tl.mine(3, ("all_tables",), predicate)
        assert runs["_separations"] == 507, predicate
        assert runs["lookup"] == 1131, predicate


def _live_classes() -> int:
    return sum(isinstance(obj, OperatorClass) for obj in gc.get_objects())


def test_no_operator_class_outlives_its_spaces():
    # reference counting alone must free every class: a class that held
    # its topology, which holds it, or a module-level cache of a class
    # value would keep classes alive with the collector off
    gc.collect()
    gc.disable()
    try:
        live = _live_classes()
        sp = documents.parse_space(documents.serialize_space(documents.load_bundled("example3_5")))
        cls = weakref.ref(sp.cls)
        report = tl.run_suite(sp)
        assert report.counts["claims"] == 24
        del sp, report
        assert cls() is None
        assert _live_classes() == live
        claims, invariants = tl.full_sweep(3, ("all_tables",), tl.CLAIM_IDS, invariants=True)
        assert claims.spaces == invariants.spaces == 9048
        assert _live_classes() == live
        for predicate in ("fails:C-RO-INCL", *tl.SEPARATIONS):
            assert tl.mine(3, ("all_tables",), predicate)
            assert _live_classes() == live, predicate
    finally:
        gc.enable()


def test_equal_topology_objects_share_no_memo(example3_2):
    first = _fresh(example3_2)
    second = _fresh(example3_2)
    assert first.top == second.top and first.top is not second.top
    tl.run_suite(first)
    assert first.cls is not second.cls
    assert "bridge_pairings" in vars(first.cls) and "bridge_pairings" not in vars(second.cls)
    # a space on the same object with the same operators shares the class
    same = Space(first.ground, first.top, first.gamma)
    assert same.cls is first.cls
    assert same.cls.bridge_pairings is first.cls.bridge_pairings
    # the key reads the operation, so it stays per space
    assert same.key is not first.key and same.key == first.key


def test_a_class_row_is_never_mutated(monkeypatch):
    walks = list(tl.enumerate_slices(3, ("all_tables",)))
    monkeypatch.setattr(tl, "enumerate_slices", lambda n, modes, topo_range=None: iter(walks))
    ids = tl.SAFE_CLAIMS + tl.CONDITIONED_CLAIMS
    first, _ = tl.full_sweep(3, ("all_tables",), ids, invariants=False)
    # the second sweep reads every class value that the first one computed
    second, _ = tl.full_sweep(3, ("all_tables",), ids, invariants=False)
    assert first.to_dict() == second.to_dict()
    failures = [v for v in first.failures if v.claim_id == "C-RO-INCL"]
    assert len(failures) == 576
    # failures of one class share their witness, never their notes
    assert len({id(v.witness) for v in failures}) < len(failures)
    assert len({id(v.notes) for v in first.failures + second.failures}) == 2 * len(first.failures)
    index = {(ti, oi): sp.key for ti, oi, sp in tl.enumerate_spaces(3, ("all_tables",))}
    keys = {}
    for v in first.failures:
        at = (v.notes["topology_index"], v.notes["operation_index"])
        assert v.space == index[at]
        # the failures of one space share one key
        assert keys.setdefault(at, v.space) is v.space
    assert len(keys) < len(first.failures)
    # the notes every claim gives on every group's class, failing or not
    for walk in walks:
        for cls, _ in walk.groups:
            notes = [tl.check_claim(cls, cid)[2] for cid in ids]
            for note in notes:
                assert "topology_index" not in note and "operation_index" not in note


def _point_values(sp):
    """Per point, the values at its open neighbourhoods in ascending mask
    order, read literally: the one input of the operator tables."""
    return tuple(tuple(apply_gamma(sp, u) for u in open_nbds(sp.top, label))
                 for label in sp.ground.labels)


def _check_table_key(spaces):
    """On each topology object, equal slices ``extension[1:]`` iff equal
    per-point values (the lemma in ``Space`` that the walk's check at the
    empty set rests on); the spaces of one operator class share its tables
    and class, and the topology holds one entry per class.  *spaces*
    must be every space built on their topology objects.  Returns the
    number of classes."""
    by_top = collections.defaultdict(list)
    for sp in spaces:
        by_top[id(sp.top)].append(sp)
    classes = 0
    for group in by_top.values():
        slice_of, values_of, first = {}, {}, {}
        for sp in group:
            values, key = _point_values(sp), sp.extension[1:]
            assert slice_of.setdefault(values, key) == key
            assert values_of.setdefault(key, values) == values
            same = first.setdefault((sp.int_g, sp.cl_g), sp)
            assert sp.int_g is same.int_g and sp.cl_g is same.cl_g
            assert sp.cls is same.cls
        # a key that merges two classes, or splits one, unpacks fewer or more tables
        assert len({id(sp.int_g) for sp in group}) == len(first)
        assert len(group[0].top.operator_memos) == len(first)
        classes += len(first)
    return classes


def test_the_table_key_and_the_neighbourhood_values_determine_each_other(walked):
    three = [sp for _, _, sp in walked(3, ("all_tables",))[1]]
    assert (len(three), _check_table_key(three)) == (9048, 507)
    four = [sp for _, _, sp in walked(4, ("builtins", "pivots"))[1]]
    assert (len(four), _check_table_key(four)) == (2775, 2321)
    for name in documents.BUNDLED:
        doc = documents.load_bundled(name)
        blocks = operations_for(doc.top, ("builtins", "pivots"))
        assert ([block.empties + block.slices[0] for block in blocks]
                == [block.op.extension(doc.top) for block in blocks])
        spaces = [doc] + [Space(doc.ground, doc.top, block.op) for block in blocks]
        assert _check_table_key(spaces) >= 2, name


def _recount(spaces, ids):
    """The sweep's tallies, failures and statistics over the
    ``(topology_index, operation_index, space)`` rows *spaces*, counted
    space by space through ``check_claim`` and the discrepancy rows by
    kind."""
    tallies = {cid: {"holds": 0, "fails": 0, "hypotheses_not_met": 0} for cid in ids}
    failures = []
    stats = collections.Counter()
    for ti, oi, sp in spaces:
        for cid in ids:
            status, witness, _ = tl.check_claim(sp.cls, cid)
            tallies[cid][status] += 1
            if status == "fails":
                failures.append((cid, ti, oi, sp.key, witness))
        disc = {d["kind"]: d for d in tl._space_discrepancies(sp.cls)}
        stats["spaces"] += 1
        stats["cl_gamma_idempotent_everywhere"] += disc["cl_gamma_idempotent"]["holds"]
        stats["cl_gamma_within_theta_closure_everywhere"] += disc[
            "cl_gamma_within_theta_closure"]["holds"]
        stats["closedness_definitions_agree_everywhere"] += disc[
            "closedness_definitions"]["agree"]
    return tallies, failures, dict(stats)


def _listed(report):
    return [(v.claim_id, v.notes["topology_index"], v.notes["operation_index"], v.space,
             v.witness) for v in report.failures]


def test_a_sweep_tallies_per_class_what_a_per_space_recount_finds(monkeypatch, walked):
    sweep_ids = tl.SAFE_CLAIMS + tl.CONDITIONED_CLAIMS
    cases = ((3, ("all_tables",), sweep_ids, 13),
             (4, ("builtins", "pivots"), tl.CLAIM_IDS, 150),
             # table rows join a builtin's slice, and the tables equal to
             # a builtin are dropped
             (3, ("builtins", "all_tables"), sweep_ids, 13))
    # every pass below reads one walk, so the claims run once; each walk
    # is built before the replay stands in for the real one
    for n, modes, _, _ in cases:
        walked(n, modes)

    def replay(n, modes, topo_range=None):
        lo, hi = topo_range or (0, math.inf)
        return (w for w in walked(n, tuple(modes))[0] if lo <= w.index < hi)

    monkeypatch.setattr(tl, "enumerate_slices", replay)
    recounts = {}
    for n, modes, ids, cut in cases:
        tallies, failures, stats = recounts[n, modes] = _recount(walked(n, modes)[1], ids)
        claims, invariants = tl.full_sweep(n, modes, ids)
        assert claims.spaces == stats["spaces"] == invariants.spaces
        assert claims.tallies == tallies
        assert _listed(claims) == failures
        assert invariants.stats == stats
        # two topology ranges split the spaces and failures between them
        head = tl.full_sweep(n, modes, ids, invariants=False, topo_range=(0, cut))[0]
        tail = tl.full_sweep(n, modes, ids, invariants=False, topo_range=(cut, 400))[0]
        assert head.topologies == cut and 0 < tail.topologies
        assert head.spaces + tail.spaces == claims.spaces
        assert _listed(head) + _listed(tail) == failures
    # mine reads the same rows: the spaces where C-RO-INCL fails
    for modes in (("all_tables",), ("builtins", "all_tables")):
        records = mined_records(tl.mine(3, modes, "fails:C-RO-INCL"))
        tallies, failures, _ = recounts[3, modes]
        assert len(records) == tallies["C-RO-INCL"]["fails"] == 576, modes
        assert [(w.topology_index, w.operation_index, w.space, w.witness) for w in records] == [
            f[1:] for f in failures if f[0] == "C-RO-INCL"], modes


def _oracle_rows(n, modes):
    """The enumeration written out per operation: on each topology, each
    mode's operations in turn, an operation kept iff no earlier one on the
    topology has its extension, and one ``Space`` per kept operation.
    Yields ``(topology_index, operation_index, kind, extension, space)``."""
    for ti, top in enumerate(enumerate_topologies(n)):
        seen = set()
        for mode in modes:
            for op in gamma_core.enumerate_gamma_operations(top, mode):
                ext = op.extension(top)
                if ext not in seen:
                    seen.add(ext)
                    yield ti, len(seen) - 1, op.kind, ext, Space(top.ground, top, op)


@pytest.mark.parametrize("n, modes", [
    (3, ("all_tables",)),
    (4, ("builtins", "pivots")),
    # table operations join a builtin's slice
    (3, ("builtins", "all_tables")),
    # every builtin is a table listed before it, so none is kept
    (3, ("all_tables", "builtins")),
])
def test_the_walk_lists_the_per_operation_enumeration(n, modes):
    oracle = list(_oracle_rows(n, modes))
    # per row: its indices, extension and operation, and its group's class
    walk = [(w.index, oi, ext, op, w.groups[g][0])
            for w in tl.enumerate_slices(n, modes) for oi, ext, op, g in w.rows()]
    assert [(ti, oi, "table" if op is None else op.kind, ext)
            for ti, oi, ext, op, _ in walk] == [row[:4] for row in oracle]
    # each row's class has the opens and tables of the row's oracle space
    for (*_, cls), (*_, want) in zip(walk, oracle):
        assert cls.opens == want.top.opens
        assert (cls.int_g, cls.cl_g) == (want.int_g, want.cl_g)
    # a table row with a builtin's slice shares the builtin's class
    builtin = {(ti, ext[1:]): cls for ti, _, ext, op, cls in walk if op is not None}
    joined = [(cls, builtin[ti, ext[1:]]) for ti, _, ext, op, cls in walk
              if op is None and (ti, ext[1:]) in builtin]
    assert all(cls is first for cls, first in joined)
    assert (len(joined) > 0) == (modes == ("builtins", "all_tables"))
    if modes == ("all_tables", "builtins"):
        assert all(op is None for _, _, _, op, _ in walk)
    # and the spaces they materialise are the oracle's
    spaces = list(tl.enumerate_spaces(n, modes))
    assert [(ti, oi) for ti, oi, _ in spaces] == [row[:2] for row in oracle]
    for (_, _, sp), (*_, want) in zip(spaces, oracle):
        assert sp == want and sp.key == want.key and sp.extension == want.extension
        assert (sp.int_g, sp.cl_g) == (want.int_g, want.cl_g)


def _walk_summary(walks):
    """Per walked topology, its index, its rows and per group the row
    count and the tables of the group's class: what two walks over
    distinct topology objects share."""
    return [(w.index, [(oi, ext, op) for oi, ext, op, _ in w.rows()],
             [(count, cls.int_g, cls.cl_g) for cls, count in w.groups]) for w in walks]


def test_two_topology_ranges_joined_give_the_whole_walk():
    # builtins first: table rows join their slices, and some are dropped
    modes = ("builtins", "all_tables")
    whole = _walk_summary(tl.enumerate_slices(3, modes))
    head = _walk_summary(tl.enumerate_slices(3, modes, (0, 13)))
    tail = _walk_summary(tl.enumerate_slices(3, modes, (13, 29)))
    assert (len(head), len(tail)) == (13, 16)
    assert head + tail == whole
    assert sum(count for *_, groups in whole for count, _, _ in groups) == 9048


def test_a_mixed_mode_sweep_tallies_what_a_per_operation_recount_finds():
    modes = ("builtins", "all_tables")
    ids = tl.SAFE_CLAIMS + tl.CONDITIONED_CLAIMS
    oracle = ((ti, oi, sp) for ti, oi, _, _, sp in _oracle_rows(3, modes))
    tallies, failures, stats = _recount(oracle, ids)
    claims, invariants = tl.full_sweep(3, modes, ids)
    assert claims.spaces == stats["spaces"] == invariants.spaces == 9048
    assert claims.tallies == tallies
    assert _listed(claims) == failures
    assert invariants.stats == stats


@pytest.mark.parametrize("n, modes", [
    (3, ("all_tables",)),
    (3, ("builtins", "all_tables")),
    (4, ("builtins", "pivots")),
])
def test_the_walk_finds_each_rows_class_where_its_own_space_does(n, modes):
    # the walk keys a slice's class by the OR of its opens' closures; a
    # space of each row, on the walk's topology object, packs its full
    # marks and finds the very class the walk made, so the two keys agree
    rows = 0
    for walk in tl.enumerate_slices(n, modes):
        top = walk.top
        for _, extension, op, g in walk.rows():
            sp = Space(top.ground, top, op or gamma_core.GammaOperation("table", values=extension))
            assert sp.cls is walk.groups[g][0]
            rows += 1
        assert len(top.operator_memos) == len({id(cls) for cls, _ in walk.groups})
    assert rows == {3: 9048, 4: 2775}[n]


@pytest.mark.parametrize("n, modes, spaces", [
    (3, ("all_tables",), 9048),
    (4, ("builtins", "pivots"), 2775),
])
def test_a_sweep_a_mine_and_a_bridge_report_build_no_space(monkeypatch, n, modes, spaces):
    def refused(*args):
        raise AssertionError("a walk built a Space")

    monkeypatch.setattr(tl, "Space", refused)
    claims, _ = tl.full_sweep(n, modes, ("C-RO-INCL",), invariants=True)
    assert claims.spaces == spaces
    assert tl.mine(n, modes, "gamma_open_not_regular_open")
    assert tl.mine(n, modes, "fails:C-RO-INCL")
    assert tl.bridge_report(n, modes).spaces == spaces


def test_a_later_operation_of_a_slice_is_checked_at_the_empty_set(monkeypatch):
    operations_for = tl.operations_for

    def with_a_bad_value(top, modes):
        # every slice of the table block gets one more row, whose value at
        # the empty set is outside the ground set
        (block,) = operations_for(top, modes)
        return [dataclasses.replace(block, empties=block.empties + (8,))]

    monkeypatch.setattr(tl, "operations_for", with_a_bad_value)
    with pytest.raises(FinSpaceError, match="0x8"):
        tl.full_sweep(3, ("all_tables",), ("C-RO-INCL",), invariants=False)
    with pytest.raises(FinSpaceError, match="0x8"):
        tl.mine(3, ("all_tables",), "gamma_open_not_regular_open")

    def with_a_bad_builtin(top, modes):
        # a builtin with a known slice and a bad value at the empty set
        blocks = operations_for(top, modes)
        return blocks + [dataclasses.replace(blocks[0], empties=(8,))]

    monkeypatch.setattr(tl, "operations_for", with_a_bad_builtin)
    with pytest.raises(FinSpaceError, match="0x8"):
        tl.mine(3, ("builtins",), "gamma_open_not_regular_open")


@pytest.mark.parametrize("bad", ["not_expansive", "outside"])
def test_a_new_pair_of_a_slice_is_checked_as_its_space_checks_it(monkeypatch, bad):
    operations_for = tl.operations_for
    refused = []

    def with_a_bad_slice(top, modes):
        # the table block gets one more slice, whose value at the last open
        # but the whole set is the empty set, or outside the ground set
        (block,) = operations_for(top, modes)
        if len(top.opens) < 3:
            return [block]
        value = 0 if bad == "not_expansive" else 8
        s = block.slices[0][:-2] + (value, block.slices[0][-1])
        with pytest.raises((FinSpaceError, gamma_core.GammaError)) as err:
            Space(top.ground, top, gamma_core.GammaOperation("table", values=(0,) + s))
        refused.append(err)
        return [dataclasses.replace(block, slices=block.slices + (s,))]

    monkeypatch.setattr(tl, "operations_for", with_a_bad_slice)
    with pytest.raises((FinSpaceError, gamma_core.GammaError)) as err:
        tl.full_sweep(3, ("all_tables",), ("C-RO-INCL",), invariants=False)
    # the walk raises what the slice's space raises
    want = refused[-1]
    assert (type(err.value), str(err.value)) == (want.type, str(want.value))
    assert isinstance(err.value, gamma_core.GammaNotExpansive) == (bad == "not_expansive")


def test_a_mine_builds_each_class_witnesses_once(walked):
    # the rows of one operator class get the same witness objects, and
    # they equal a per-row build over the class's separating subsets
    rows = walked(3, ("all_tables",))[1]
    for predicate in sorted(tl.SEPARATIONS):
        mined = collections.defaultdict(list)
        for record in mined_records(tl.mine(3, ("all_tables",), predicate)):
            mined[record.topology_index, record.operation_index].append(record.witness)
        first = {}
        shared = 0
        for ti, oi, sp in rows:
            witnesses = mined.pop((ti, oi), [])
            assert witnesses == [{"subset": sp.ground.label_list(a)}
                                 for a in tl._separations(sp.cls, predicate)], (predicate, ti, oi)
            seen = first.setdefault((sp.top, sp.int_g, sp.cl_g), witnesses)
            if seen is not witnesses and witnesses:
                assert list(map(id, witnesses)) == list(map(id, seen)), (predicate, ti, oi)
                shared += 1
        assert not mined and shared > 0, predicate
