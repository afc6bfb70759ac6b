import dataclasses

import pytest

from gamma_top.finspace import PointSet, SizeTooLarge, validate_topology
from gamma_top.gamma_core import GammaOperation, Space, TableModeTooLarge
from gamma_top import jsonout, theoremlab as tl
from conftest import mined_records

ABC = PointSet(("a", "b", "c"))


def m(s):
    return ABC.mask_of(s)


def test_catalog_shape():
    assert len(tl.CLAIM_IDS) == 24
    assert len(set(tl.CLAIM_IDS)) == 24
    assert set(tl.SAFE_CLAIMS) <= set(tl.CLAIM_IDS)
    assert set(tl.CONDITIONED_CLAIMS) <= set(tl.CLAIM_IDS)
    assert not set(tl.SAFE_CLAIMS) & set(tl.CONDITIONED_CLAIMS)
    for cid in tl.CONDITIONED_CLAIMS:
        assert tl.CLAIMS[cid].hypotheses
    # the order of these tuples is the order of the output of --claims safe|conditioned
    assert tl.SAFE_CLAIMS == (
        "C-RO-INCL", "C-T3.6", "C-P3.13-1", "C-P3.13-2", "C-T4.3", "C-T4.4", "C-T4.5", "C-P4.7-EQ",
    )
    assert tl.CONDITIONED_CLAIMS == (
        "C-P3.4-CONV", "C-T3.7", "C-T3.8", "C-T3.9-FWD", "C-T3.9-CONV", "C-C3.10",
        "C-T3.14", "C-T3.15-A", "C-T3.15-B", "C-T3.15-C",
    )
    for tier in (tl.SAFE_CLAIMS, tl.CONDITIONED_CLAIMS):
        assert tuple(cid for cid in tl.CLAIM_IDS if cid in tier) == tier


def test_unknown_claim(example3_2):
    with pytest.raises(tl.UnknownClaim):
        tl.check_claim(example3_2.cls, "C-T9.9")


def test_run_suite_3_2(example3_2):
    report = tl.run_suite(example3_2)
    assert report.counts["claims"] == 24
    by_id = {v.claim_id: v for v in report.verdicts}
    assert [v.claim_id for v in report.verdicts] == list(tl.CLAIM_IDS)
    fails = [v for v in report.verdicts if v.status == "fails"]
    # the one failure: {a} has a regular-open closure but is not gamma-open,
    # although the operation is open
    assert [v.claim_id for v in fails] == ["C-T3.9-FWD"]
    assert fails[0].witness == {"subset": ["a"]}
    assert by_id["C-RO-INCL"].status == "holds"
    assert by_id["C-T3.8"].status == "holds"
    assert by_id["C-P4.10"].status == "holds"
    assert by_id["C-T4.13"].status == "holds"
    assert "restriction" in by_id["C-T4.13"].notes


def test_run_suite_3_5(example3_5):
    report = tl.run_suite(example3_5)
    by_id = {v.claim_id: v for v in report.verdicts}
    assert by_id["C-P3.4-CONV"].status == "hypotheses_not_met"
    assert by_id["C-P3.4-CONV"].notes["unmet"] == ["extremally_disconnected"]
    assert by_id["C-CHAIN-RO-TO"].status == "fails"
    assert by_id["C-CHAIN-RO-TO"].witness == {"subset": ["a"]}
    assert by_id["C-CHAIN-TO-GO"].status == "holds"
    assert by_id["C-P4.11"].status == "fails"
    assert by_id["C-RO-INCL"].status == "holds"


def test_run_suite_indiscrete_identity():
    top = validate_topology(ABC, [0, 7])
    sp = Space(ABC, top, GammaOperation("identity"))
    report = tl.run_suite(sp)
    fails = [v for v in report.verdicts if v.status == "fails"]
    # even this simplest space refutes one claim: cl({a}) = X is
    # regular-open while {a} is not open
    assert [v.claim_id for v in fails] == ["C-T3.9-FWD"]
    assert fails[0].witness == {"subset": ["a"]}


def test_verdicts_recompute_bit_exactly(example3_2, example3_5):
    for sp in (example3_2, example3_5):
        for cid in tl.CLAIM_IDS:
            status, witness, _ = tl.check_claim(sp.cls, cid)
            again = tl.check_claim(tl.rebuild_space(sp.key).cls, cid)
            assert again[0] == status
            assert again[1] == witness


def test_space_key_roundtrip(example3_2):
    key = example3_2.key
    rebuilt = tl.rebuild_space(key)
    assert rebuilt.top.opens_sorted == example3_2.top.opens_sorted
    assert rebuilt.extension == example3_2.extension


def test_one_space_payload_per_space(example3_5):
    report = tl.run_suite(example3_5)
    spaces = [v.to_dict()["space"] for v in report.verdicts]
    assert len(spaces) == len(tl.CLAIM_IDS)
    assert all(space is spaces[0] for space in spaces)
    # a key built afresh renders the same JSON values
    fresh = dataclasses.replace(example3_5.key)
    assert fresh.to_dict() is not spaces[0] and fresh.to_dict() == spaces[0]
    # and shares its points and opens lists, as does a key of another
    # operation on the same topology
    other = dataclasses.replace(fresh, gamma_values=fresh.opens).to_dict()
    for name in ("points", "opens"):
        assert fresh.to_dict()[name] is spaces[0][name] is other[name]


def test_bridge_pairings_on_examples(example3_2, example3_5):
    p32 = tl.bridge_pairings(example3_2)
    assert p32["regular_open+standard"]["C-P4.10"] is None
    assert p32["regular_open+standard"]["C-P4.11"] is None
    assert p32["regular_open+literal"]["C-P4.10"] is not None
    p35 = tl.bridge_pairings(example3_5)
    assert p35["regular_open+standard"]["C-P4.10"] is not None
    # the closure-of-gamma-open family with the cofinal reading matches by
    # construction on every space
    for pairing_data in (p32, p35):
        assert pairing_data["gamma_open_cl+standard"]["C-P4.10"] is None
        assert pairing_data["gamma_open_cl+standard"]["C-P4.11"] is None


@pytest.mark.parametrize("n, modes", [
    (3, ("builtins", "pivots")),
    (2, ("all_tables",)),
    # table rows join a builtin's slice, and the tables equal to a builtin
    # are dropped
    (3, ("builtins", "all_tables")),
])
def test_a_bridge_report_counts_what_a_per_space_recount_finds(n, modes):
    report = tl.bridge_report(n, modes)
    recount = {name: {prop: {"failures": 0, "witnesses": []} for prop in ("C-P4.10", "C-P4.11")}
               for name in tl.PAIRINGS}
    spaces = 0
    for ti, oi, sp in tl.enumerate_spaces(n, modes):
        spaces += 1
        found = tl.bridge_pairings(sp)
        for name in tl.PAIRINGS:
            for prop, entry in recount[name].items():
                witness = found[name][prop]
                if witness is None:
                    continue
                entry["failures"] += 1
                # the first three failing rows in (ti, oi) order
                if len(entry["witnesses"]) < 3:
                    entry["witnesses"].append(dict(witness, space=sp.key.to_dict(),
                                                   topology_index=ti, operation_index=oi))
    assert report.spaces == spaces
    assert report.pairings == recount
    # the recount is not vacuous
    assert any(entry["witnesses"] for props in recount.values() for entry in props.values())


def test_monotonicity_scans_report_a_covering_pair_that_breaks_the_table(example3_2):
    # every real table is monotone: force a break at {a,b}, whose value
    # {a} no longer contains the value {b} of its subset {b}.  The table is
    # a value of the operator class, so it is set on a space with a class
    # of its own, not the shared fixture's.
    cls = tl.rebuild_space(example3_2.key).cls
    ground = cls.ground
    cls.theta_closure = tuple(ground.mask_of("a") if a == ground.mask_of("ab") else a
                              for a in ground.subsets())
    monotone = [v for v in tl.check_invariants(cls) if v["invariant"] == "thetacl_monotone"]
    assert monotone == [{"invariant": "thetacl_monotone",
                         "witness": {"subset": ["b"], "superset": ["a", "b"]}}]


def test_mine_finds_the_pivot_space_witness():
    found = mined_records(tl.mine(3, "pivots", "gamma_open_not_regular_open"))
    assert any(
        w.space.opens == (0, 1, 2, 3, 5, 7) and w.witness == {"subset": ["a", "b"]}
        for w in found
    )


def test_mine_finds_the_int_closure_witness():
    found = mined_records(tl.mine(3, "builtins", "regular_open_not_clopen"))
    assert any(
        w.space.opens == (0, 1, 2, 3, 7) and w.witness == {"subset": ["a"]}
        for w in found
    )


def test_mine_claim_failure_predicate():
    assert tl.mine(2, "builtins,pivots", "fails:C-T3.6") == []
    found = mined_records(tl.mine(3, "pivots", "fails:C-T3.9-FWD"))
    assert any(
        w.space.opens == (0, 1, 2, 3, 5, 7) and w.witness == {"subset": ["a"]}
        for w in found
    )


def test_mine_is_superset_stable():
    small = mined_records(tl.mine(3, "builtins", "gamma_open_not_regular_open"))
    large = mined_records(tl.mine(3, "builtins,pivots", "gamma_open_not_regular_open"))

    def signature(w):
        return (w.space.opens, w.space.gamma_values, tuple(w.witness["subset"]))

    assert {signature(w) for w in small} <= {signature(w) for w in large}


def test_mine_frames_the_records_of_groups_of_more_than_one_row():
    # a table slice is a group of several rows: its records are framed,
    # one frame per group and witness; a builtin is a group of one row.
    # A hit is one row: its records share one space payload
    found = tl.mine(3, "builtins,all_tables", "gamma_open_not_regular_open")
    kinds = {"table": 0, "builtin": 0}
    frames = {}
    for hit in found:
        records = hit.to_dict()
        assert len(records) == len(hit.witnesses) > 0
        assert len({id(record["space"]) for record in records}) == 1
        for record, w in zip(records, mined_records([hit])):
            assert record == {"topology_index": w.topology_index,
                              "operation_index": w.operation_index,
                              "space": w.space.to_dict(), "witness": w.witness}
            framed = type(record) is jsonout.Framed
            assert framed == (w.space.gamma_kind == "table")
            kinds["table" if framed else "builtin"] += 1
            if framed:
                assert record.fill == (w.operation_index, w.space.to_dict()["gamma"]["values"][0])
                assert record.frame["space"] is w.space.frame
                shared = frames.setdefault((id(w.space.frame), id(w.witness)), record.frame)
                assert record.frame is shared
    assert kinds["table"] > len(frames) > 0 and kinds["builtin"] > 0


def test_parse_modes_keeps_each_mode_once():
    # a repeated mode adds no operation: the walk keeps one per extension
    assert tl.parse_modes("builtins,builtins") == ("builtins",)
    assert tl.parse_modes(" pivots,builtins, pivots,all_tables,builtins") == (
        "pivots", "builtins", "all_tables")
    assert tl.parse_modes(("builtins", "builtins", "pivots")) == ("builtins", "pivots")


def test_mine_guards():
    with pytest.raises(tl.UnknownPredicate):
        tl.mine(2, "builtins", "open_but_shy")
    with pytest.raises(tl.UnknownPredicate):
        tl.mine(2, "builtins", "fails:C-NOPE")
    with pytest.raises(SizeTooLarge):
        tl.mine(5, "builtins", "gamma_open_not_regular_open")
    with pytest.raises(SizeTooLarge):
        tl.mine(4, "all_tables", "gamma_open_not_regular_open")


def test_the_walk_checks_its_limits_at_the_call():
    # no topology is asked for: the limits hold before iteration starts
    with pytest.raises(SizeTooLarge, match="1..4 points"):
        tl.enumerate_slices(5, "builtins")
    with pytest.raises(TableModeTooLarge, match="3-point ground sets"):
        tl.enumerate_slices(4, "builtins,all_tables")
    with pytest.raises(tl.UnknownMode):
        tl.enumerate_slices(3, "bogus")
    assert issubclass(TableModeTooLarge, SizeTooLarge)


def test_mine_empty_result_is_fine():
    assert tl.mine(1, "builtins", "gamma_open_not_regular_open") == []


def test_audit_3_2_matches():
    audit = tl.audit_example("3.2")
    assert all(diff.match for diff in audit.families)
    assert audit.qualitative["printed_witness_valid"]
    assert audit.qualitative["supported_in_space"]


def test_audit_3_5_regular_open_diff():
    audit = tl.audit_example("3.5")
    diffs = {d.name: d for d in audit.families}
    assert diffs["gamma_open"].match
    assert not diffs["regular_open"].match
    assert diffs["regular_open"].spurious_in_printed == [["a", "b"]]
    assert audit.qualitative["printed_witness_valid"]
    assert not audit.flags["extremally_disconnected"]


def test_audit_3_16_theta_diff_and_unsupported_claim():
    audit = tl.audit_example("3.16")
    diffs = {d.name: d for d in audit.families}
    assert diffs["gamma_open"].match
    assert diffs["regular_open"].match
    assert not diffs["theta_open"].match
    assert diffs["theta_open"].spurious_in_printed == [["a", "b"]]
    assert not audit.qualitative["printed_witness_valid"]
    assert not audit.qualitative["supported_in_space"]


def test_audit_3_17_gamma_open_diff_and_supported_claim():
    audit = tl.audit_example("3.17")
    diffs = {d.name: d for d in audit.families}
    assert not diffs["gamma_open"].match
    assert [["b"], ["a", "b"]] == diffs["gamma_open"].missing_from_printed
    assert not diffs["theta_open"].match
    assert audit.qualitative["printed_witness_valid"]
    assert audit.qualitative["supported_in_space"]


def test_audit_unknown_example():
    with pytest.raises(tl.UnknownExample):
        tl.audit_example("3.99")


def test_enumerate_spaces_is_deterministic():
    first = [(ti, oi, sp.extension) for ti, oi, sp in tl.enumerate_spaces(2, ("builtins", "pivots"))]
    second = [(ti, oi, sp.extension) for ti, oi, sp in tl.enumerate_spaces(2, ("builtins", "pivots"))]
    assert first == second


def test_full_sweep_small_scale():
    claims, invariants = tl.full_sweep(2, ("builtins", "pivots"), tl.SAFE_CLAIMS)
    assert claims.spaces == invariants.spaces
    assert claims.topologies == 4
    for cid in tl.SAFE_CLAIMS:
        assert claims.tallies[cid]["fails"] == 0
    assert invariants.violations == []
