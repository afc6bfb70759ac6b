"""Ten claims are decided by the lemma in their checker's docstring, with
no scan.  Each must hold, with no witness, wherever the scan it replaced
finds no counterexample either.  The scans, over every subset, covering
pair and filterbase kernel, live here as the oracle, with the subfamily
folds of ``test_quantifier_oracle`` and the net enumeration of
``test_bridge_oracle``."""

from hypothesis import given, settings

from gamma_top import documents
from gamma_top import theoremlab as tl
from gamma_top.finspace import MAX_POINTS
from gamma_top.gamma_sets import (
    is_gamma_clopen,
    is_gamma_open,
    is_gamma_regular_open,
    is_theta_open,
    regular_open_family,
    theta_closure_table,
)

from test_bridge_oracle import oracle_t413
from test_properties import spaces
from test_quantifier_oracle import (
    _chain_space,
    _discrete_identity,
    oracle_conditions,
    oracle_p313_2,
)

LEMMA_CLAIMS = {
    "C-P3.4-FWD": {},
    "C-T3.6": {},
    "C-P3.13-1": {},
    "C-P3.13-2": {},
    "C-CHAIN-TO-GO": {},
    "C-T4.3": {},
    "C-T4.4": {},
    "C-T4.5": {},
    "C-P4.7-EQ": {"cl_mode_conditions": (True,) * 5},
    "C-T4.13": {"restriction": tl.NET_RESTRICTION_NOTE},
}


def _breaks_monotonicity(table):
    """Some A and point i with table[A] not inside table[A + {i}]; a chain
    of one-point steps joins any subset to any superset."""
    size = len(table)
    return any(table[a] & ~table[a | 1 << i]
               for a in range(size) for i in range(size.bit_length() - 1))


def _kernel_tables(sp):
    """Per subset K, the points at which the filterbase {K} converges and
    those at which it accumulates: K inside, or meeting, every
    regular-open neighbourhood of the point."""
    n, full = sp.ground.n, sp.ground.full_mask
    ro = regular_open_family(sp)
    tests = [[v for v in ro if v >> x & 1] for x in range(n)]
    # K is inside t iff K misses the complement of t
    outside = [[full ^ t for t in sets] for sets in tests]
    conv, acc = [], []
    for k in sp.ground.subsets():
        conv.append(sum(1 << x for x in range(n) if not any(map(k.__and__, outside[x]))))
        acc.append(sum(1 << x for x in range(n) if all(map(k.__and__, tests[x]))))
    return conv, acc


def oracle_lemma_failures(sp, nets=True):
    """The lemma claims whose scan finds a counterexample on *sp*; C-T4.13,
    which enumerates nets, only with *nets*."""
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    theta = theta_closure_table(sp)
    failed = set()
    for a in sp.ground.subsets():
        clopen, fixed = is_gamma_clopen(sp, a), cg[ig[a]] == a
        if clopen and not is_gamma_regular_open(sp, a):
            failed.add("C-P3.4-FWD")
        if (clopen and not fixed) or (fixed and ig[cg[full ^ a]] != full ^ a):
            failed.add("C-T3.6")
        if is_theta_open(sp, a) and not is_gamma_open(sp, a):
            failed.add("C-CHAIN-TO-GO")
    if _breaks_monotonicity(theta):
        failed.add("C-P3.13-1")
    if oracle_p313_2(sp, theta)[0] != "holds":
        failed.add("C-P3.13-2")
    # one filterbase per kernel: the verdicts factor through it
    conv, acc = _kernel_tables(sp)
    kernels = range(1, full + 1)
    if any(conv[k] & ~acc[k] for k in kernels):
        failed.add("C-T4.3")
    # the empty set is no kernel, and 0 breaks nothing
    if _breaks_monotonicity([0] + acc[1:]):
        failed.add("C-T4.4")
    points = [1 << p for p in range(sp.ground.n)]
    if any(acc[p] != conv[p] for p in points):
        failed.add("C-T4.5")
    conditions = [oracle_conditions(sp, mode) for mode in ("dual", "cl")]
    if conditions != [(None, None)] * 2 or not all(acc[k] for k in kernels) \
            or not all(conv[p] for p in points):
        failed.add("C-P4.7-EQ")
    if nets and oracle_t413(sp)[0] != "holds":
        failed.add("C-T4.13")
    return failed


def _assert_lemma_claims_hold(sp):
    for cid, notes in LEMMA_CLAIMS.items():
        verdict = tl.check_claim(sp, cid)
        assert (verdict.status, verdict.witness, verdict.notes) == ("holds", None, notes), cid


def _classes(spaces_n):
    """One space per operator class: the oracles read only the topology and
    the operator tables, so it stands for the others."""
    classes = {}
    for sp in spaces_n:
        classes.setdefault((sp.top, sp.int_g, sp.cl_g), sp)
    return list(classes.values())


def test_every_lemma_claim_holds_where_its_scan_finds_nothing():
    small = [sp for n in (1, 2, 3) for _, _, sp in tl.enumerate_spaces(n, ("all_tables",))]
    four = [sp for _, _, sp in tl.enumerate_spaces(4, ("builtins", "pivots"))]
    assert (len(small), len(four)) == (2 + 36 + 9048, 2775)
    for sp in small + four:
        _assert_lemma_claims_hold(sp)
    bundled = [documents.load_bundled(name) for name in sorted(documents.BUNDLED)]
    small, four = _classes(small), _classes(four)
    assert (len(small), len(four)) == (10 + 507, 2321)
    for sp in small + bundled + [_chain_space(MAX_POINTS)]:
        assert oracle_lemma_failures(sp) == set(), sp.key
    # the net enumeration takes about 5 ms per 4-point class: every fourth
    for i, sp in enumerate(four):
        assert oracle_lemma_failures(sp, nets=i % 4 == 0) == set(), sp.key


@settings(max_examples=100, deadline=None)
@given(spaces())
def test_random_spaces_hold_the_lemma_claims(sp):
    _assert_lemma_claims_hold(sp)
    assert oracle_lemma_failures(sp) == set()


def test_the_scans_see_a_broken_law():
    # the lemmas rest on cl_g being extensive and int_g contractive: with
    # either law broken, the scans find counterexamples
    cl_g = tuple(0 if a == 0b001 else a for a in range(8))
    assert {"C-T3.6", "C-P4.7-EQ"} <= oracle_lemma_failures(_discrete_identity(cl_g=cl_g))
    int_g = tuple(0b011 if a == 0b001 else a for a in range(8))
    assert {"C-T3.6", "C-P4.7-EQ"} <= oracle_lemma_failures(_discrete_identity(int_g=int_g))
