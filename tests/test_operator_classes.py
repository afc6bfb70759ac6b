"""Claim verdicts, families, flags, invariants and discrepancy statistics
are memoised per operator class: the spaces on one ``Topology`` object with
equal int_g and cl_g tables share them (``gamma_core.per_operator_class``).
These tests check that sharing changes no result, that the shared code
reads nothing of the operation but its two operators, and how often the
shared code runs."""

import collections
import dataclasses
from types import SimpleNamespace

from gamma_top import documents
from gamma_top import theoremlab as tl
from gamma_top.finspace import validate_topology
from gamma_top.gamma_core import Space, per_operator_class


def _fresh(sp):
    """The same space on a topology object of its own, so with its own
    memo; the operation is kept, so the space payload is the same too."""
    return Space(sp.ground, validate_topology(sp.ground, sp.top.opens), sp.gamma)


def _results(sp):
    return (
        tl.run_suite(sp, tl.CLAIM_IDS).to_dict(),
        tl.check_invariants(sp),
        tl._space_discrepancies(sp),
    )


def _check_shared_equals_fresh(n, modes, stride):
    """Every *stride*-th space, read after the first space of its class
    filled the shared memo, against a fresh copy; returns how many of them
    read a memo that another space filled."""
    firsts = {}
    shared = 0
    for i, (ti, oi, sp) in enumerate(tl.enumerate_spaces(n, modes)):
        first = firsts.setdefault((ti, sp.int_g, sp.cl_g), sp)
        if i % stride:
            continue
        assert sp._class_memo is first._class_memo
        _results(first)
        fresh = _fresh(sp)
        assert fresh._class_memo is not sp._class_memo
        assert _results(sp) == _results(fresh), (n, ti, oi)
        shared += first is not sp
    return shared


def test_shared_results_equal_fresh_ones():
    assert _check_shared_equals_fresh(3, ("all_tables",), 29) > 100
    assert _check_shared_equals_fresh(4, ("builtins", "pivots"), 19) > 0


def _stand_in(sp):
    """The ground set, topology and operator tables of *sp*, with an empty
    memo: no ``gamma``, ``extension`` or ``key``."""
    return SimpleNamespace(ground=sp.ground, top=sp.top, int_g=sp.int_g, cl_g=sp.cl_g,
                           _class_memo={})


def test_class_memoised_code_reads_only_the_operators():
    spaces = [documents.load_bundled(name)
              for name in ("example3_2", "example3_5", "example3_16", "example3_17")]
    spaces += [sp for i, (_, _, sp) in enumerate(tl.enumerate_spaces(3, ("all_tables",)))
               if i % 601 == 0]
    spaces += [sp for i, (_, _, sp) in enumerate(tl.enumerate_spaces(4, ("builtins", "pivots")))
               if i % 397 == 0]
    for sp in spaces:
        stand_in = _stand_in(sp)
        for cid, claim in tl.CLAIMS.items():
            # a checker that reads the operation raises AttributeError here
            assert claim.check(stand_in) == claim.check(sp), cid
        assert tl.check_invariants(stand_in) == tl.check_invariants(sp)
        assert tl._space_discrepancies(stand_in) == tl._space_discrepancies(sp)
        assert tl.space_flags(stand_in) == tl.space_flags(sp)


def test_a_sweep_runs_each_claim_body_once_per_operator_class(monkeypatch):
    # the classes, and per claim those with a space that meets its hypotheses
    classes = set()
    met = collections.defaultdict(set)
    for ti, oi, sp in tl.enumerate_spaces(3, ("all_tables",)):
        cls = (ti, sp.int_g, sp.cl_g)
        classes.add(cls)
        for cid, claim in tl.CLAIMS.items():
            if all(tl.SPACE_FLAGS[h](sp) for h in claim.hypotheses):
                met[cid].add(cls)
    assert len(classes) == 507

    runs = collections.Counter()

    def counted(name, body):
        def run(sp):
            runs[name] += 1
            return body(sp)

        return per_operator_class(run)

    for cid, claim in tl.CLAIMS.items():
        check = counted(cid, claim.check.__wrapped__)
        monkeypatch.setitem(tl.CLAIMS, cid, dataclasses.replace(claim, check=check))
    for name in ("check_invariants", "_space_discrepancies"):
        monkeypatch.setattr(tl, name, counted(name, getattr(tl, name).__wrapped__))
    for name, flag in tl.SPACE_FLAGS.items():
        monkeypatch.setitem(tl.SPACE_FLAGS, name, counted(name, flag.__wrapped__))

    claims, _ = tl.full_sweep(3, ("all_tables",), tl.CLAIM_IDS, invariants=True)
    assert claims.spaces == 9048
    assert runs["check_invariants"] == runs["_space_discrepancies"] == 507
    # every class tests both hypotheses once; no claim names the regular flag
    assert runs["open_operation"] == runs["extremally_disconnected"] == 507
    assert runs["regular_operation"] == 0
    for cid, claim in tl.CLAIMS.items():
        assert runs[cid] == len(met[cid]), cid
        if not claim.hypotheses:
            assert runs[cid] == 507, cid


def test_equal_topology_objects_share_no_memo(example3_2):
    first = _fresh(example3_2)
    second = _fresh(example3_2)
    assert first.top == second.top and first.top is not second.top
    tl.run_suite(first)
    assert first._class_memo and not second._class_memo
    # a space on the same object with the same operators shares the memo
    same = Space(first.ground, first.top, first.gamma)
    assert same._class_memo is first._class_memo
    check = tl.CLAIMS["C-T3.8"].check
    assert check(same) is check(first)
    # the key reads the operation, so it stays per space
    assert same.key is not first.key and same.key == first.key
