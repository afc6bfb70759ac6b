"""Fifteen claims are decided by lemmas, with no scan.  Ten hold on every
finite space, each by the lemma in its checker's docstring; each must
hold, with no witness, wherever the scan it replaced finds no
counterexample either.  The scans, over every subset, covering pair and
filterbase kernel, live here as the oracle, with the subfamily folds of
``test_quantifier_oracle`` and the net enumeration of
``test_bridge_oracle``.  Five hold under an open operation on an
extremally disconnected space, by the lemma above C-T3.9-CONV in
``theoremlab``: its parts are checked here by scans, and the claims
against their old scans in ``test_quantifier_oracle``."""

import ast
import inspect
import textwrap

from hypothesis import given, settings

from gamma_top import documents
from gamma_top import theoremlab as tl
from gamma_top.convergence import principal_verdicts
from gamma_top.finspace import MAX_POINTS
from gamma_top.gamma_core import is_open_operation
from gamma_top.gamma_sets import (
    gamma_open_family,
    is_extremally_disconnected,
    is_gamma_clopen,
    is_gamma_open,
    is_gamma_regular_open,
    is_theta_open,
    regular_open_family,
    theta_closure_table,
)

from test_bridge_oracle import _classes, oracle_t413
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


# decided by the open + ED lemma; their hypotheses are checked first
OPEN_ED_CLAIMS = ("C-T3.9-CONV", "C-T3.14", "C-T3.15-A", "C-T3.15-B", "C-T3.15-C")


def _open_ed(sp):
    return is_open_operation(sp) and is_extremally_disconnected(sp)


def open_ed_lemma_failures(sp):
    """The parts of the open + ED lemma that a scan refutes on *sp*:
    (a) regular-open = gamma-clopen = {cl_g(U) : U gamma-open}; (b) that
    family is closed under complement; (c) at each point the theta test
    sets are the regular-open neighbourhoods, so the theta closure is the
    regular-open accumulation table."""
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    regular = set(regular_open_family(sp))
    clopen = {a for a in sp.ground.subsets() if ig[a] == a == cg[a]}
    closures = {cg[u] for u in gamma_open_family(sp)}
    failed = set()
    if not regular == clopen == closures:
        failed.add("a")
    if {full ^ a for a in regular} != regular:
        failed.add("b")
    for x in range(sp.ground.n):
        tests = {cg[u] for u in gamma_open_family(sp) if u >> x & 1}
        if tests != {r for r in regular if r >> x & 1}:
            failed.add("c")
    if theta_closure_table(sp) != principal_verdicts(sp, "regular_open").accumulates:
        failed.add("c")
    return failed


def test_open_ed_lemma_parts_hold_on_every_open_ed_class():
    small = [sp for n in (1, 2, 3) for _, _, sp in tl.enumerate_spaces(n, ("all_tables",))]
    four = [sp for _, _, sp in tl.enumerate_spaces(4, ("builtins", "pivots"))]
    bundled = [documents.load_bundled(name) for name in sorted(documents.BUNDLED)]
    checked = refuted = 0
    for sp in _classes(small) + _classes(four) + bundled + [_chain_space(MAX_POINTS)]:
        if _open_ed(sp):
            assert open_ed_lemma_failures(sp) == set(), sp.key
            checked += 1
        else:
            refuted += bool(open_ed_lemma_failures(sp))
    # 221 + 1,287 open ED classes, three bundled documents and the chain.
    # The scans are not vacuous: without the hypotheses they refute a part
    # on 1,142 classes and on example3_17
    assert (checked, refuted) == (221 + 1287 + 3 + 1, 1142 + 1)


@settings(max_examples=100, deadline=None)
@given(spaces())
def test_random_open_ed_spaces_hold_the_lemma_parts(sp):
    if _open_ed(sp):
        assert open_ed_lemma_failures(sp) == set()


def test_open_ed_spaces_fail_only_t39_fwd():
    # the lemma gives every claim but C-T3.9-FWD on an open ED space: the
    # five above, the ten unconditional ones, and C-RO-INCL (open), C-P3.4-CONV,
    # C-T3.7, C-T3.8 (regular-open = clopen, closed under complement),
    # C-C3.10 (cl_g(int_g(A)) is cl_g of a gamma-open set), C-CHAIN-RO-TO
    # (regular-open is theta-clopen) and C-P4.10/C-P4.11 (the two test
    # families are equal at every point)
    for n, modes, open_ed, fwd_fails in ((3, ("all_tables",), 5480, 3712),
                                         (4, ("builtins", "pivots"), 1407, 1306)):
        spaces_n = [sp for _, _, sp in tl.enumerate_spaces(n, modes) if _open_ed(sp)]
        assert len(spaces_n) == open_ed
        fails = 0
        for sp in spaces_n:
            for cid in tl.CLAIM_IDS:
                status = tl.check_claim(sp, cid).status
                if cid == "C-T3.9-FWD":
                    fails += status == "fails"
                else:
                    assert status == "holds", (cid, sp.key)
        assert fails == fwd_fails


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _loops(cid):
    source = textwrap.dedent(inspect.getsource(tl.CLAIMS[cid].check.__wrapped__))
    return sum(isinstance(node, _LOOPS) for node in ast.walk(ast.parse(source)))


def test_lemma_decided_checkers_do_not_scan():
    assert len(LEMMA_CLAIMS) + len(OPEN_ED_CLAIMS) == 15
    for cid in (*LEMMA_CLAIMS, *OPEN_ED_CLAIMS):
        assert _loops(cid) == 0, cid
    # C-RO-INCL scans its first part only: the second holds by expansiveness
    assert _loops("C-RO-INCL") == 1
