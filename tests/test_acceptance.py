"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (collected again in the terminal summary).

Criteria are asserted exactly as stated.  Where the exhaustive engine
refutes a stated expectation, the test stays faithful and reports the
counterexample instead of being weakened; the criterion then fails with
the refuting witness in the message.
"""

import json
import time

from conftest import mined_records, record_criterion

from gamma_top import cli, documents
from gamma_top import theoremlab as tl
from gamma_top.finspace import enumerate_topologies
from gamma_top.gamma_sets import is_gamma_regular_open, is_theta_open


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def families_of(payload):
    return {name: [tuple(s) for s in sets] for name, sets in payload["families"].items()}


def test_criterion_1_example_3_2_reproduction(capsys):
    started = time.monotonic()
    code, out = run_cli(
        capsys, "analyze", str(documents.bundled_path("example3_2")), "--format", "machine"
    )
    elapsed = time.monotonic() - started
    payload = json.loads(out)
    fams = families_of(payload)
    problems = []
    if code != 0:
        problems.append(f"analyze exited {code}")
    if fams["gamma_open"] != [(), ("b",), ("a", "b"), ("a", "c"), ("a", "b", "c")]:
        problems.append(f"gamma-open family {fams['gamma_open']}")
    if fams["regular_open"] != [(), ("b",), ("a", "c"), ("a", "b", "c")]:
        problems.append(f"regular-open family {fams['regular_open']}")
    row = next(r for r in payload["classification"] if r["subset"] == ["a", "b"])
    if not (row["flags"]["gamma_open"] and not row["flags"]["gamma_regular_open"]):
        problems.append("classification of {a,b}")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    record_criterion(1, not problems, "; ".join(problems) or f"{elapsed:.2f}s")
    assert not problems, problems


def test_criterion_2_example_3_5_reproduction(capsys):
    started = time.monotonic()
    code, out = run_cli(
        capsys, "analyze", str(documents.bundled_path("example3_5")), "--format", "machine"
    )
    elapsed = time.monotonic() - started
    payload = json.loads(out)
    fams = families_of(payload)
    stated = [(), ("a",), ("b",), ("a", "b"), ("a", "b", "c")]
    problems = []
    if code != 0:
        problems.append(f"analyze exited {code}")
    if fams["gamma_open"] != stated:
        problems.append(f"gamma-open family {fams['gamma_open']}")
    if fams["regular_open"] != stated:
        problems.append(
            "regular-open family recomputes to "
            f"{fams['regular_open']}, not the stated {stated}"
        )
    if payload["flags"]["extremally_disconnected"]:
        problems.append("extremally_disconnected should be false")
    row = next(r for r in payload["classification"] if r["subset"] == ["a"])
    if not (row["flags"]["gamma_regular_open"] and not row["flags"]["gamma_clopen"]):
        problems.append("classification of {a}")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    record_criterion(2, not problems, "; ".join(problems) or f"{elapsed:.2f}s")
    assert not problems, problems


def test_criterion_3_audits_and_miner(capsys):
    started = time.monotonic()
    problems = []

    code, out = run_cli(capsys, "audit", "--example", "3.17", "--format", "machine")
    audit17 = json.loads(out)
    if code != 0:
        problems.append(f"audit 3.17 exited {code}")
    fams17 = {f["family"]: f for f in audit17["families"]}
    if not all(
        set(f) >= {"printed", "recomputed", "missing_from_printed", "spurious_in_printed"}
        for f in fams17.values()
    ):
        problems.append("audit 3.17 diff is not structured")
    if not audit17["qualitative"]["supported_in_space"]:
        problems.append("3.17: no gamma-open non-theta-open subset under the definitional oracle")

    code, out = run_cli(capsys, "audit", "--example", "3.16", "--format", "machine")
    audit16 = json.loads(out)
    if code != 0:
        problems.append(f"audit 3.16 exited {code}")

    witnesses = tl.mine(3, "all_tables", "theta_open_not_regular_open")
    again = tl.mine(3, "all_tables", "theta_open_not_regular_open")
    if ([r for w in witnesses for r in w.to_dict()]
            != [r for w in again for r in w.to_dict()]):
        problems.append("miner verdict is not deterministic")
    # the in-space claim of 3.16 does not survive recomputation, so the
    # definitive verdict must come from the exhaustive search: it does,
    # with witnesses elsewhere
    if not witnesses:
        problems.append("miner returned no verdict data")
    for w in mined_records(witnesses)[:5]:
        sp = tl.rebuild_space(w.space)
        mask = sp.ground.mask_of(w.witness["subset"])
        if not (is_theta_open(sp, mask) and not is_gamma_regular_open(sp, mask)):
            problems.append("mined witness fails recomputation")
            break
    elapsed = time.monotonic() - started
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.0f}s")
    record_criterion(
        3,
        not problems,
        "; ".join(problems)
        or f"separation witnesses at n=3: {len(witnesses)}; {elapsed:.0f}s",
    )
    assert not problems, problems


def brute_force_topology_count(n: int) -> int:
    subset_count = 1 << n
    full = subset_count - 1
    count = 0
    for fam_bits in range(1 << subset_count):
        if not fam_bits & 1 or not (fam_bits >> full) & 1:
            continue  # must contain the empty set and the whole set
        members = [m for m in range(subset_count) if (fam_bits >> m) & 1]
        ok = True
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if not (fam_bits >> (a | b)) & 1 or not (fam_bits >> (a & b)) & 1:
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def test_criterion_4_enumeration_oracle():
    started = time.monotonic()
    expected = {1: 1, 2: 4, 3: 29, 4: 355}
    problems = []
    for n, want in expected.items():
        produced = sum(1 for _ in enumerate_topologies(n))
        brute = brute_force_topology_count(n)
        if produced != want or brute != want:
            problems.append(f"n={n}: produced {produced}, brute force {brute}, want {want}")
    elapsed = time.monotonic() - started
    if elapsed >= 30:
        problems.append(f"runtime {elapsed:.0f}s")
    record_criterion(4, not problems, "; ".join(problems) or f"counts 1,4,29,355; {elapsed:.0f}s")
    assert not problems, problems


def test_criterion_5_safe_claim_exhaustive_suite(sweep3, sweep4):
    started = time.monotonic()
    problems = []
    for label, (claims, _) in (("n=3 all_tables", sweep3), ("n=4 builtins+pivots", sweep4)):
        for cid in tl.SAFE_CLAIMS:
            fails = claims.tallies[cid]["fails"]
            if fails:
                first = next(v for v in claims.failures if v.claim_id == cid)
                problems.append(
                    f"{label}: {cid} fails on {fails}/{claims.spaces} spaces; "
                    f"first witness {json.dumps(first.witness, sort_keys=True)} "
                    f"on space {json.dumps(first.space.to_dict(), sort_keys=True)}"
                )
    elapsed = time.monotonic() - started
    record_criterion(
        5,
        not problems,
        "; ".join(p.split(";")[0] for p in problems)
        or f"{sweep3[0].spaces}+{sweep4[0].spaces} spaces clean",
    )
    assert not problems, "\n".join(problems)


def test_criterion_6_structural_invariants(sweep3, sweep4):
    problems = []
    for label, (_, invariants) in (("n=3 all_tables", sweep3), ("n=4 builtins+pivots", sweep4)):
        if invariants.violations:
            kinds = sorted({v["invariant"] for v in invariants.violations})
            first = invariants.violations[0]
            problems.append(
                f"{label}: {len(invariants.violations)} violations of {kinds}; "
                f"first {json.dumps(first['witness'], sort_keys=True)} "
                f"on space {json.dumps(first['space'], sort_keys=True)}"
            )
    detail = "; ".join(p.split(";")[0] for p in problems)
    record_criterion(6, not problems, detail or "all invariants clean")
    assert not problems, "\n".join(problems)


def test_criterion_7_hypothesis_conditioned_report(sweep3, sweep4):
    started = time.monotonic()
    problems = []
    table = {}
    for label, (claims, _) in (("n=3", sweep3), ("n=4", sweep4)):
        for cid in tl.CONDITIONED_CLAIMS:
            if cid not in claims.tallies:
                problems.append(f"{label}: no verdict tally for {cid}")
                continue
            t = claims.tallies[cid]
            table[f"{label} {cid}"] = t
            if t["holds"] + t["fails"] + t["hypotheses_not_met"] != claims.spaces:
                problems.append(f"{label}: incomplete table for {cid}")
        conditioned_failures = [
            v for v in claims.failures if v.claim_id in tl.CONDITIONED_CLAIMS
        ]
        for v in conditioned_failures:
            status, witness, _ = tl.check_claim(tl.rebuild_space(v.space).cls, v.claim_id)
            if status != "fails" or witness != v.witness:
                problems.append(
                    f"{label}: witness for {v.claim_id} does not recompute bit-exactly"
                )
                break
    elapsed = time.monotonic() - started
    fails_total = sum(t["fails"] for t in table.values())
    record_criterion(
        7,
        not problems,
        "; ".join(problems)
        or f"complete table, {fails_total} conditioned failures all recomputable; {elapsed:.0f}s",
    )
    assert not problems, problems


def test_criterion_8_convergence_bridge_report():
    started = time.monotonic()
    problems = []
    report = tl.bridge_report(3)
    if sorted(report.pairings) != sorted(tl.PAIRINGS):
        problems.append("report does not cover all four pairings")
    for name, data in report.pairings.items():
        for prop in ("C-P4.10", "C-P4.11"):
            if data[prop]["failures"] and not data[prop]["witnesses"]:
                problems.append(f"{name}/{prop} fails without witnesses")
    if report.satisfying != ["gamma_open_cl+standard"]:
        problems.append(f"satisfying pairings {report.satisfying}")
    small_a = tl.bridge_report(2).to_dict()
    small_b = tl.bridge_report(2).to_dict()
    if small_a != small_b:
        problems.append("bridge report is not deterministic")
    elapsed = time.monotonic() - started
    record_criterion(
        8,
        not problems,
        "; ".join(problems)
        or f"satisfying pairing: {report.satisfying[0]}; {report.spaces} spaces; {elapsed:.0f}s",
    )
    assert not problems, problems
