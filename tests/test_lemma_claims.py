"""Fifteen claims are decided by lemmas, with no scan.  Ten hold on every
finite space, each by the lemma in its checker's docstring; each must
hold, with no witness, wherever the scan it replaced finds no
counterexample either.  The scans, over every subset, covering pair and
filterbase kernel, live here as the oracle, with the subfamily folds of
``test_quantifier_oracle`` and the net enumeration of
``test_bridge_oracle`` over the literal nets of ``literal_convergence``.
Five hold under an open operation on an extremally disconnected (ED)
space, by the open + ED lemma in ``theoremlab``: its parts are checked
here by scans, and the claims against their old scans in
``test_quantifier_oracle``.  Three more
(C-P3.4-CONV, C-T3.7, C-T3.8) assume an ED space and, by the ED lemma in
``theoremlab``, fail exactly at C-RO-INCL's first regular-open set that
is not gamma-open, with no scan of their own: they are checked here
against their old scans."""

import ast
import collections
import inspect
import textwrap

from hypothesis import given, settings

from gamma_top import documents
from gamma_top import theoremlab as tl
from gamma_top.finspace import MAX_POINTS, unpack_lanes
from gamma_top.gamma_core import is_open_operation
from gamma_top.gamma_sets import (
    gamma_open_family,
    is_extremally_disconnected,
    is_gamma_clopen,
    is_gamma_open,
    is_gamma_regular_open,
    is_theta_open,
    regular_open_family,
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
    """Some covering pair (A, A + {i}) with table[A] not inside
    table[A + {i}]; a chain of one-point steps joins any subset to any
    superset.  Every covering pair is read: for each i, the subsets
    without i and their partners are sliced out of the table side by
    side, as strides or as blocks, whichever makes fewer slices."""
    size = len(table)
    for i in range(size.bit_length() - 1):
        step = 1 << i
        if 2 * step * step < size:
            runs = (zip(table[r::2 * step], table[r + step::2 * step]) for r in range(step))
        else:
            runs = (zip(table[lo:lo + step], table[lo + step:lo + 2 * step])
                    for lo in range(0, size, 2 * step))
        if any([a & ~b for run in runs for a, b in run]):
            return True
    return False


def _kernel_tables(sp):
    """Per subset K, the points at which the filterbase {K} converges and
    those at which it accumulates: K inside, or meeting, every
    regular-open neighbourhood of the point.  Each neighbourhood is read
    for every kernel that passed the ones before it."""
    n, full = sp.ground.n, sp.ground.full_mask
    ro = regular_open_family(sp)
    conv = [0] * (full + 1)
    acc = [0] * (full + 1)
    for x in range(n):
        inside = meets = sp.ground.subsets()
        for t in (v for v in ro if v >> x & 1):
            # K is inside t iff K misses the complement of t
            out = full ^ t
            inside = [k for k in inside if not k & out]
            meets = [k for k in meets if k & t]
        for k in inside:
            conv[k] |= 1 << x
        for k in meets:
            acc[k] |= 1 << x
    return conv, acc


def oracle_lemma_failures(sp, nets=True):
    """The lemma claims whose scan finds a counterexample on *sp*; C-T4.13,
    which enumerates nets, only with *nets*."""
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    theta = sp.cls.theta_closure
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
        assert tl.check_claim(sp.cls, cid) == ("holds", None, notes), cid


def _small(enumeration):
    """The n <= 3 table enumerations joined: their spaces, their classes."""
    parts = [enumeration(n, "all_tables") for n in (1, 2, 3)]
    return [sp for e in parts for sp in e.spaces], [sp for e in parts for sp in e.classes]


def test_every_lemma_claim_holds_where_its_scan_finds_nothing(enumeration):
    small, small_classes = _small(enumeration)
    four = enumeration(4, "builtins,pivots")
    assert (len(small), len(four.spaces)) == (2 + 36 + 9048, 2775)
    for sp in small + four.spaces:
        _assert_lemma_claims_hold(sp)
    bundled = [documents.load_bundled(name) for name in sorted(documents.BUNDLED)]
    assert (len(small_classes), len(four.classes)) == (10 + 507, 2321)
    for sp in small_classes + bundled + [_chain_space(MAX_POINTS)]:
        assert oracle_lemma_failures(sp) == set(), sp.key
    # the net enumeration takes about 5 ms per 4-point class: every fourth
    for i, sp in enumerate(four.classes):
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
    if sp.cls.theta_closure != unpack_lanes(sp.ground.n, sp.cls.principal_verdicts["regular_open"].acc):
        failed.add("c")
    return failed


def test_open_ed_lemma_parts_hold_on_every_open_ed_class(enumeration):
    small = _small(enumeration)[1]
    four = enumeration(4, "builtins,pivots").classes
    bundled = [documents.load_bundled(name) for name in sorted(documents.BUNDLED)]
    checked = refuted = 0
    for sp in small + four + bundled + [_chain_space(MAX_POINTS)]:
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


def test_open_ed_spaces_fail_only_t39_fwd(enumeration):
    # the lemma gives every claim but C-T3.9-FWD on an open ED space: the
    # five above, the ten unconditional ones, and C-RO-INCL (open), C-P3.4-CONV,
    # C-T3.7, C-T3.8 (regular-open = clopen, closed under complement),
    # C-C3.10 (cl_g(int_g(A)) is cl_g of a gamma-open set), C-CHAIN-RO-TO
    # (regular-open is theta-clopen) and C-P4.10/C-P4.11 (the two test
    # families are equal at every point)
    for n, modes, open_ed, fwd_fails in ((3, "all_tables", 5480, 3712),
                                         (4, "builtins,pivots", 1407, 1306)):
        spaces_n = [sp for sp in enumeration(n, modes).spaces if _open_ed(sp)]
        assert len(spaces_n) == open_ed
        fails = 0
        for sp in spaces_n:
            for cid in tl.CLAIM_IDS:
                status = tl.check_claim(sp.cls, cid)[0]
                if cid == "C-T3.9-FWD":
                    fails += status == "fails"
                else:
                    assert status == "holds", (cid, sp.key)
        assert fails == fwd_fails


# -- the ED lemma: three claims decided from C-RO-INCL's witness ---------------

def oracle_p34_conv(sp):
    for a in sp.ground.subsets():
        if is_gamma_regular_open(sp, a) and not is_gamma_clopen(sp, a):
            return "fails", {"subset": tl._labels(sp, a)}, {}
    return "holds", None, {}


def oracle_t37(sp):
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    for a in sp.ground.subsets():
        regular_open = ig[cg[a]] == a
        if ig[cg[full ^ a]] == full ^ a and not regular_open:
            return "fails", {"subset": tl._labels(sp, a), "part": "complement_to_self"}, {}
        if regular_open and not (ig[a] == a and cg[a] == a):
            return "fails", {"subset": tl._labels(sp, a), "part": "regular_open_to_clopen"}, {}
    return "holds", None, {}


def oracle_t38(sp):
    full = sp.ground.full_mask
    ig, cg = sp.int_g, sp.cl_g
    for a in sp.ground.subsets():
        bools = (
            ig[a] == a and cg[a] == a,
            cg[ig[a]] == a,
            ig[cg[full ^ a]] == full ^ a,
            ig[cg[a]] == a,
        )
        if len(set(bools)) > 1:
            return "fails", {
                "subset": tl._labels(sp, a),
                "clopen": bools[0],
                "cl_int_fixed": bools[1],
                "complement_regular_open": bools[2],
                "regular_open": bools[3],
            }, {}
    return "holds", None, {}


# the scans the three checkers replaced
ED_CLAIM_ORACLES = {
    "C-P3.4-CONV": oracle_p34_conv,
    "C-T3.7": oracle_t37,
    "C-T3.8": oracle_t38,
}


def _assert_ed_claims_match_the_scans(sp):
    """On an ED space: each of the three claims gives its old scan's
    verdict, and fails exactly where C-RO-INCL does, at R0; C-CHAIN-RO-TO
    fails first at R0 too (part (v)).  Returns whether R0 exists."""
    assert is_extremally_disconnected(sp)
    r0 = tl._first_ro_not_gamma_open(sp.cls)
    subset = None if r0 is None else tl._labels(sp, r0)
    ro_status, ro_witness, _ = tl.check_claim(sp.cls, "C-RO-INCL")
    assert (ro_witness or {}).get("subset") == subset
    for cid, oracle in ED_CLAIM_ORACLES.items():
        status, witness, notes = tl.check_claim(sp.cls, cid)
        assert (status, witness, notes) == oracle(sp), cid
        assert status == ro_status, cid
        assert (witness or {}).get("subset") == subset, cid
    chain = tl.check_claim(sp.cls, "C-CHAIN-RO-TO")[1]
    assert chain == (None if r0 is None else {"subset": subset})
    return r0 is not None


def test_ed_claims_match_their_scans_on_every_ed_class(enumeration):
    groups = {
        "n<=3 tables": _small(enumeration)[1],
        "n=4 builtins,pivots": enumeration(4, "builtins,pivots").classes,
        "documents and chain": [documents.load_bundled(name) for name in sorted(documents.BUNDLED)]
                               + [_chain_space(MAX_POINTS)],
    }
    classes = collections.Counter()
    for name, group in groups.items():
        for sp in group:
            if is_extremally_disconnected(sp):
                classes[name, _assert_ed_claims_match_the_scans(sp)] += 1
    # ED classes, with and without R0: 10 + 447 at n <= 3, 1,435 at n = 4,
    # and three bundled documents and the chain
    assert classes == {
        ("n<=3 tables", False): 10 + 423, ("n<=3 tables", True): 24,
        ("n=4 builtins,pivots", False): 1287, ("n=4 builtins,pivots", True): 148,
        ("documents and chain", False): 4,
    }
    # in spaces: C-T3.8 fails on 192 of the 8,472 ED table spaces at n = 3
    # and on 148 of the 1,555 ED spaces at n = 4
    for n, modes, ed, fails in ((3, "all_tables", 8472, 192), (4, "builtins,pivots", 1555, 148)):
        statuses = collections.Counter(tl.check_claim(sp.cls, "C-T3.8")[0]
                                       for sp in enumeration(n, modes).spaces)
        assert statuses["holds"] + statuses["fails"] == ed
        assert statuses["fails"] == fails


@settings(max_examples=100, deadline=None)
@given(spaces())
def test_random_ed_spaces_match_the_scans(sp):
    if is_extremally_disconnected(sp):
        _assert_ed_claims_match_the_scans(sp)


# -- C-T3.9-FWD and gamma-dense sets ----------------------------------------

def _dense_sets_are_gamma_open(sp):
    full = sp.ground.full_mask
    return all(sp.int_g[a] == a for a, c in enumerate(sp.cl_g) if c == full)


def test_t39_fwd_holds_on_open_classes_exactly_when_dense_sets_are_gamma_open(enumeration):
    # proved: if C-T3.9-FWD holds, every A with cl_g(A) = X is gamma-open,
    # since X is regular-open.  Measured only: the converse, under an open
    # operation, on every open class below
    seen = collections.Counter()
    for n, modes in ((3, "all_tables"), (4, "builtins,pivots")):
        for sp in enumeration(n, modes).classes:
            if is_open_operation(sp):
                status = tl.check_claim(sp.cls, "C-T3.9-FWD")[0]
                assert (status == "holds") == _dense_sets_are_gamma_open(sp), sp.key
                seen[n, status] += 1
    # 223 open classes (5,672 spaces) at n = 3, 1,561 (1,943 spaces) at n = 4
    assert seen == {(3, "holds"): 44, (3, "fails"): 179, (4, "holds"): 87, (4, "fails"): 1474}


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _loops(fn):
    source = textwrap.dedent(inspect.getsource(fn))
    return sum(isinstance(node, _LOOPS) for node in ast.walk(ast.parse(source)))


def test_lemma_decided_checkers_do_not_scan():
    assert len(LEMMA_CLAIMS) + len(OPEN_ED_CLAIMS) == 15
    # C-RO-INCL and the three ED claims read R0, whose helper holds their
    # only scan; C-RO-INCL's second part holds by expansiveness
    for cid in (*LEMMA_CLAIMS, *OPEN_ED_CLAIMS, "C-RO-INCL", *ED_CLAIM_ORACLES):
        assert _loops(tl.CLAIMS[cid].check) == 0, cid
    assert _loops(tl._fails_at_r0) == 0
    assert _loops(tl._first_ro_not_gamma_open) == 1
