"""The net/filterbase bridge read from per-subset tables must give the
same verdicts and the same witnesses as enumerating every small net and
every filterbase.  The enumeration lives here as the oracle."""

import pytest

from gamma_top import documents
from gamma_top import theoremlab as tl
from gamma_top.convergence import (
    _fb_accumulates,
    _fb_converges,
    enumerate_filterbases,
    enumerate_nets,
    filterbase_to_net,
    is_universal_net,
    net_r_accumulates,
    net_r_converges,
    net_to_filterbase,
)

from test_quantifier_oracle import oracle_conditions


def _verdicts(sp, net, members, x):
    label = sp.ground.labels[x]
    net_conv = net_r_converges(sp, net, label)
    net_acc = {
        "standard": net_r_accumulates(sp, net, label),
        "literal": net_r_accumulates(sp, net, label, literal=True),
    }
    fams = ("regular_open", "gamma_open_cl")
    fb_conv = {fam: _fb_converges(sp, members, x, fam) for fam in fams}
    fb_acc = {fam: _fb_accumulates(sp, members, x, fam) for fam in fams}
    return net_conv, net_acc, fb_conv, fb_acc


def _mismatch(verdicts, pairing):
    net_conv, net_acc, fb_conv, fb_acc = verdicts
    fam, reading = pairing.split("+")
    if fb_conv[fam] != net_conv:
        return "convergence"
    if fb_acc[fam] != net_acc[reading]:
        return "accumulation"
    return None


def oracle_bridge_pairings(sp):
    result = {p: {"C-P4.10": None, "C-P4.11": None} for p in tl.PAIRINGS}
    for net in enumerate_nets(sp.ground, tl.NET_SIZE_CAP):
        members = net_to_filterbase(net).members_sorted
        for x in range(sp.ground.n):
            verdicts = _verdicts(sp, net, members, x)
            for pairing in tl.PAIRINGS:
                part = _mismatch(verdicts, pairing)
                if part and result[pairing]["C-P4.10"] is None:
                    result[pairing]["C-P4.10"] = tl._net_witness(sp, net, x, part)
    for fb in enumerate_filterbases(sp.ground):
        net = filterbase_to_net(fb)
        members = fb.members_sorted
        for x in range(sp.ground.n):
            verdicts = _verdicts(sp, net, members, x)
            for pairing in tl.PAIRINGS:
                part = _mismatch(verdicts, pairing)
                if part and result[pairing]["C-P4.11"] is None:
                    result[pairing]["C-P4.11"] = {
                        "part": part,
                        "filterbase": [list(sp.ground.labels_of(m)) for m in members],
                        "point": sp.ground.labels[x],
                    }
    return result


def oracle_t413(sp):
    notes = {"restriction": tl.NET_RESTRICTION_NOTE}
    covers = oracle_conditions(sp, "dual")[0] is None
    labels = sp.ground.labels
    acc_witness = uni_witness = None
    for net in enumerate_nets(sp.ground, tl.NET_SIZE_CAP):
        if acc_witness is None and not any(
            net_r_accumulates(sp, net, labels[x]) for x in range(sp.ground.n)
        ):
            acc_witness = tl._net_witness(sp, net, 0, "no_accumulation_point")
        if uni_witness is None and is_universal_net(sp.ground, net):
            if not any(net_r_converges(sp, net, labels[x]) for x in range(sp.ground.n)):
                uni_witness = tl._net_witness(sp, net, 0, "universal_net_does_not_converge")
    nets_accumulate = acc_witness is None
    universal_converge = uni_witness is None
    if covers == nets_accumulate == universal_converge:
        return "holds", None, notes
    witness = {
        "cover_condition": covers,
        "every_net_accumulates": nets_accumulate,
        "every_universal_net_converges": universal_converge,
    }
    extra = acc_witness or uni_witness
    if extra is not None:
        witness["net"] = extra
    return "fails", witness, notes


def _assert_matches_oracle(sp):
    assert tl.bridge_pairings(sp) == oracle_bridge_pairings(sp)
    verdict = tl.check_claim(sp, "C-T4.13")
    assert (verdict.status, verdict.witness, verdict.notes) == oracle_t413(sp)


def _spaces(n, modes):
    return [sp for _, _, sp in tl.enumerate_spaces(n, tl.parse_modes(modes))]


@pytest.mark.parametrize("name", sorted(documents.BUNDLED))
def test_bundled_examples_match_oracle(name):
    _assert_matches_oracle(documents.load_bundled(name))


def test_all_two_point_table_spaces_match_oracle():
    spaces = _spaces(2, "all_tables")
    assert len(spaces) == 36
    for sp in spaces:
        _assert_matches_oracle(sp)


def test_three_point_builtin_and_pivot_spaces_match_oracle():
    spaces = _spaces(3, "builtins,pivots")
    assert len(spaces) == 104
    statuses = set()
    for sp in spaces:
        _assert_matches_oracle(sp)
        statuses.add(tl.check_claim(sp, "C-P4.10").status)
    # the sample exercises witnesses, not only agreement on "holds"
    assert statuses == {"holds", "fails"}


def test_four_point_builtin_and_pivot_sample_matches_oracle():
    spaces = _spaces(4, "builtins,pivots")
    assert len(spaces) == 2775
    sample = spaces[:: len(spaces) // 10 + 1]
    assert len(sample) == 10
    two_member_literal = False
    for sp in sample:
        _assert_matches_oracle(sp)
        for pairing in ("regular_open+literal", "gamma_open_cl+literal"):
            witness = tl.bridge_pairings(sp)[pairing]["C-P4.11"]
            two_member_literal |= witness is not None and len(witness["filterbase"]) == 2
    # a base {K, U} is only reported through the one-point-extension path
    assert two_member_literal

