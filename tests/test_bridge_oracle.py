"""The net/filterbase bridge read from per-subset tables must give the
same verdicts and the same witnesses as enumerating every small net and
every filterbase.  The enumeration lives here as the oracle: no code in
``gamma_top`` enumerates nets, directed sets or filterbases.  Each net and
base is judged by the literal model of ``literal_convergence``, against
test sets computed point by point, so no verdict reads the
``principal_verdicts`` tables that ``OperatorClass.bridge_pairings`` reads.
Its orders fix the witnesses: the first failing net of ``enumerate_nets``
within ``NET_SIZE_CAP`` and the first failing filterbase of
``enumerate_filterbases``.  The kernel-by-kernel and row-by-row scan of
the tables, which the packed lanes of ``bridge_pairings`` replaced, is
kept here as a second oracle (``scan_bridge_pairings``)."""

import collections
import functools
import itertools
import operator
from functools import lru_cache, partial

import pytest

from gamma_top import documents, gamma_core
from gamma_top import theoremlab as tl
from gamma_top.finspace import PointSet, _directed_preorders, bits_of, submasks, unpack_lanes, validate_topology
from gamma_top.gamma_core import GammaOperation, Space

from literal_convergence import (
    DirectedSet,
    Filterbase,
    Net,
    _fb_accumulates,
    _fb_converges,
    chain,
    filterbase_to_net,
    is_universal_net,
    net_r_accumulates,
    net_r_converges,
    net_tail_range,
    net_to_filterbase,
    validate_filterbase,
)
from test_quantifier_oracle import oracle_conditions

ABC = PointSet(("a", "b", "c"))


def m(s):
    return ABC.mask_of(s)


def fb(*sets):
    return Filterbase(frozenset(m(s) for s in sets))


# -- the enumerations --------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_filterbases(ground: PointSet) -> tuple[Filterbase, ...]:
    """Every filterbase on the ground set.  A family of non-empty sets is
    directed exactly when it contains its own intersection, so bases are
    generated kernel-first."""
    full = ground.full_mask
    out = []
    for kernel in range(1, full + 1):
        proper_supersets = sorted(kernel | s for s in submasks(full ^ kernel) if s)
        for r in range(len(proper_supersets) + 1):
            for combo in itertools.combinations(proper_supersets, r):
                out.append(Filterbase(frozenset((kernel,) + combo)))
    return tuple(out)


def _canonical_rows(rows, k: int):
    best = None
    for perm in itertools.permutations(range(k)):
        relabeled = [0] * k
        for i in range(k):
            m = 0
            for j in bits_of(rows[i]):
                m |= 1 << perm[j]
            relabeled[perm[i]] = m
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=None)
def enumerate_directed_sets(max_size: int) -> tuple[DirectedSet, ...]:
    """Directed preorders with at most *max_size* elements, one per
    isomorphism class.  Net quantifications are invariant under relabelling
    the index set, so class representatives suffice."""
    out = []
    for k in range(1, max_size + 1):
        # directed: any two elements have a common upper bound
        directed = (
            rows for rows in _directed_preorders(k)
            if all(rows[i] & rows[j] for i in range(k) for j in range(k))
        )
        canon = sorted({_canonical_rows(rows, k) for rows in directed})
        for rows in canon:
            pairs = frozenset((i, j) for i in range(k) for j in bits_of(rows[i]))
            out.append(DirectedSet(k, pairs))
    return tuple(out)


def enumerate_nets(ground: PointSet, max_size: int):
    """All nets over directed sets of at most *max_size* elements."""
    for dirset in enumerate_directed_sets(max_size):
        for values in itertools.product(range(ground.n), repeat=dirset.size):
            yield Net(dirset, values)


def _net_witness(sp, net, x: int, part: str) -> dict:
    return {
        "directed_set": {
            "size": net.dirset.size,
            "leq": sorted(net.dirset.leq),
        },
        "values": [sp.ground.labels[p] for p in net.values],
        "point": sp.ground.labels[x],
        "part": part,
    }


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


@lru_cache(maxsize=None)
def _oracle_net_rows(ground):
    """``(net, tail, range, tail filterbase members, universal)`` for each
    net of ``enumerate_nets`` within the cap, listed once per ground set."""
    return tuple((net, *net_tail_range(net), net_to_filterbase(net).members_sorted,
                  is_universal_net(ground, net))
                 for net in enumerate_nets(ground, tl.NET_SIZE_CAP))


@lru_cache(maxsize=None)
def _oracle_filterbases(ground):
    """``(filterbase, constructed net)`` for each filterbase of
    ``enumerate_filterbases``, listed once per ground set."""
    return tuple((fb, filterbase_to_net(fb)) for fb in enumerate_filterbases(ground))


def oracle_bridge_pairings(sp):
    result = {p: {"C-P4.10": None, "C-P4.11": None} for p in tl.PAIRINGS}
    for net, _, _, members, _ in _oracle_net_rows(sp.ground):
        for x in range(sp.ground.n):
            verdicts = _verdicts(sp, net, members, x)
            for pairing in tl.PAIRINGS:
                part = _mismatch(verdicts, pairing)
                if part and result[pairing]["C-P4.10"] is None:
                    result[pairing]["C-P4.10"] = _net_witness(sp, net, x, part)
    for fb, net in _oracle_filterbases(sp.ground):
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
    for net, _, _, _, universal in _oracle_net_rows(sp.ground):
        if acc_witness is None and not any(
            net_r_accumulates(sp, net, labels[x]) for x in range(sp.ground.n)
        ):
            acc_witness = _net_witness(sp, net, 0, "no_accumulation_point")
        if uni_witness is None and universal:
            if not any(net_r_converges(sp, net, labels[x]) for x in range(sp.ground.n)):
                uni_witness = _net_witness(sp, net, 0, "universal_net_does_not_converge")
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
    assert tl.check_claim(sp.cls, "C-T4.13") == oracle_t413(sp)


@pytest.mark.parametrize("name", sorted(documents.BUNDLED))
def test_bundled_examples_match_oracle(name):
    _assert_matches_oracle(documents.load_bundled(name))


def test_all_two_point_table_spaces_match_oracle(enumeration):
    spaces = enumeration(2, "all_tables").spaces
    assert len(spaces) == 36
    for sp in spaces:
        _assert_matches_oracle(sp)


def test_three_point_builtin_and_pivot_spaces_match_oracle(enumeration):
    spaces = enumeration(3, "builtins,pivots").spaces
    assert len(spaces) == 104
    statuses = set()
    for sp in spaces:
        _assert_matches_oracle(sp)
        statuses.add(tl.check_claim(sp.cls, "C-P4.10")[0])
    # the sample exercises witnesses, not only agreement on "holds"
    assert statuses == {"holds", "fails"}


def test_four_point_builtin_and_pivot_sample_matches_oracle(enumeration):
    spaces = enumeration(4, "builtins,pivots").spaces
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



# -- the scan that the lanes replaced ------------------------------------------

def unpacked(cls):
    """Per test family, the ``conv`` and ``acc`` tables of the class's
    ``principal_verdicts`` as tuples (``unpack_lanes``), entry M at M."""
    n = cls.ground.n
    return {fam: (unpack_lanes(n, tables.conv), unpack_lanes(n, tables.acc))
            for fam, tables in cls.principal_verdicts.items()}


def scan_mismatch(fb, net, reading, t, r):
    """``gamma_core._class_mismatch`` on the unpacked tables (``unpacked``)
    *fb* and *net*, entry by entry."""
    (fb_conv, fb_acc), (net_conv, net_acc) = fb, net
    conv = fb_conv[t] ^ net_conv[t]
    other = net_acc[t] if reading == "standard" else net_conv[r]
    bad = conv | (fb_acc[t] ^ other)
    if not bad:
        return None
    x = (bad & -bad).bit_length() - 1
    return x, "convergence" if conv >> x & 1 else "accumulation"


def scan_filterbase_witness(cls, mismatch, net_converges):
    """The first failing filterbase, kernel by kernel in ascending order:
    the base {K}, then under the literal reading (*net_converges* given)
    {K, K | {p}} for the lowest p whose one-point extension changes the
    net's converges entry."""
    full = cls.ground.full_mask
    for k in range(1, full + 1):
        members = (k,)
        hit = mismatch(k, k)
        if hit is None and net_converges is not None:
            u = next((k | 1 << p for p in bits_of(full ^ k)
                      if net_converges[k | 1 << p] != net_converges[k]), None)
            if u is not None:
                members = (k, u)
                hit = mismatch(k, u)
        if hit is not None:
            x, part = hit
            return {"part": part, "filterbase": [cls.ground.label_list(m) for m in members],
                    "point": cls.ground.labels[x]}
    return None


def scan_bridge_pairings(cls):
    """``OperatorClass.bridge_pairings`` as it was computed before the
    lanes: the filterbase witness kernel by kernel, then the net witness
    row by row over ``_first_nets``, both through ``scan_mismatch``."""
    verdicts = unpacked(cls)
    net_tables = verdicts["gamma_open_cl"]
    mismatch = {}
    result = {}
    for pairing in tl.PAIRINGS:
        fam, reading = pairing.split("+")
        mismatch[pairing] = partial(scan_mismatch, verdicts[fam], net_tables, reading)
        literal = net_tables[0] if reading == "literal" else None
        result[pairing] = {"C-P4.10": None,
                           "C-P4.11": scan_filterbase_witness(cls, mismatch[pairing], literal)}
    pending = [p for p in tl.PAIRINGS if result[p]["C-P4.11"] is not None]
    for row in gamma_core._first_nets(cls.ground.n):
        for pairing in list(pending):
            hit = mismatch[pairing](row[0], row[1])
            if hit is not None:
                result[pairing]["C-P4.10"] = gamma_core._first_net_witness(cls, row, *hit)
                pending.remove(pairing)
        if not pending:
            break
    return result


def test_lanes_match_the_scan_on_every_small_operator_class(enumeration):
    small = enumeration(3, "all_tables").classes
    four = enumeration(4, "builtins,pivots").classes
    assert (len(small), len(four)) == (507, 2321)
    shapes = collections.Counter()
    for sp in small + four:
        found = tl.bridge_pairings(sp)
        assert found == scan_bridge_pairings(sp.cls), (sp.key, found)
        for pairing, witnesses in found.items():
            if witnesses["C-P4.11"] is not None:
                shapes[pairing.split("+")[1], len(witnesses["C-P4.11"]["filterbase"])] += 1
    # both witness shapes of the literal reading are compared: {K} and {K, U}
    assert set(shapes) == {("standard", 1), ("literal", 1), ("literal", 2)}


@pytest.mark.parametrize("name", sorted(documents.BUNDLED))
def test_lanes_match_the_scan_on_bundled_examples(name):
    sp = documents.load_bundled(name)
    assert tl.bridge_pairings(sp) == scan_bridge_pairings(sp.cls)


@pytest.mark.parametrize("opens, kind", [
    pytest.param(range(1 << 16), "identity", id="discrete"),
    pytest.param([(1 << k) - 1 for k in range(17)], "closure", id="chain"),
])
def test_lanes_match_the_scan_on_sixteen_points(opens, kind):
    # 16-bit lanes; the scan walks all 65,535 kernels where nothing fails
    ground = PointSet(tuple(f"p{i}" for i in range(16)))
    sp = Space(ground, validate_topology(ground, opens), GammaOperation(kind))
    assert tl.bridge_pairings(sp) == scan_bridge_pairings(sp.cls)


# -- the enumerations themselves -----------------------------------------------

def test_net_tails_always_validate(example3_2):
    for net in enumerate_nets(ABC, 3):
        tails = net_to_filterbase(net)
        validate_filterbase(ABC, tails.members)


def test_net_tail_range_is_top_class_and_range():
    assert net_tail_range(Net(chain(3), (1, 0, 2))) == (m("c"), m("abc"))
    tied_top = DirectedSet(2, frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}))
    assert tied_top.top_mask == 0b11
    assert net_tail_range(Net(tied_top, (0, 1))) == (m("ab"), m("ab"))
    # the constructed net of a filterbase has tail = kernel, range = union
    assert net_tail_range(filterbase_to_net(fb("abc", "ab", "b"))) == (m("b"), m("abc"))
    # the tail filterbase of a net has kernel = tail, union = range
    for net in enumerate_nets(ABC, 3):
        tail, rng = net_tail_range(net)
        tails = net_to_filterbase(net)
        assert tails.kernel == tail
        assert rng == sum({1 << v for v in net.values})
        assert rng == functools.reduce(operator.or_, tails.members)


def test_directed_set_enumeration_counts():
    sizes = [d.size for d in enumerate_directed_sets(3)]
    assert sizes.count(1) == 1
    assert sizes.count(2) == 2
    assert sizes.count(3) == 5
    assert len(list(enumerate_nets(ABC, 3))) == 1 * 3 + 2 * 9 + 5 * 27


# -- the shape lemma of gamma_core._first_nets ---------------------------------

def _shape(size, top):
    """S(size, top): indices 0..top-1 tied on top, every other one below
    them only."""
    pairs = {(i, j) for i in range(size) for j in range(size) if i == j or j < top}
    return DirectedSet(size, frozenset(pairs))


def _top_size(dirset):
    return bin(dirset.top_mask).count("1")


@pytest.mark.parametrize("cap", [3, 4])
def test_each_shape_first_appears_as_its_canonical_directed_set(cap):
    dirsets = enumerate_directed_sets(cap)
    shapes = [(d.size, _top_size(d)) for d in dirsets]
    # for each size the directed sets come in ascending top size
    assert shapes == sorted(shapes)
    first = {}
    for shape, d in zip(shapes, dirsets):
        first.setdefault(shape, d)
    assert list(first) == [(k, t) for k in range(1, cap + 1) for t in range(1, k + 1)]
    for (k, t), d in first.items():
        assert d == _shape(k, t)


def oracle_first_nets(n, cap):
    """``(T, R, size, top, values)`` per class, in the order in which
    ``enumerate_nets`` first realises it, with that first net."""
    first = {}
    for net in enumerate_nets(PointSet(tuple("abcd"[:n])), cap):
        first.setdefault(net_tail_range(net), net)
    rows = []
    for (t, r), net in first.items():
        assert net.dirset == _shape(net.dirset.size, _top_size(net.dirset))
        rows.append((t, r, net.dirset.size, _top_size(net.dirset), net.values))
    return rows


@pytest.mark.parametrize("cap", [3, 4])
def test_first_nets_list_each_class_once_in_oracle_order(cap, monkeypatch):
    monkeypatch.setattr(gamma_core, "NET_SIZE_CAP", cap)
    counts = []
    for n in (1, 2, 3, 4):
        rows = list(gamma_core._first_nets.__wrapped__(n))
        assert rows == oracle_first_nets(n, cap)
        classes = {(t, r) for r in range(1, 1 << n) if bin(r).count("1") <= cap
                   for t in submasks(r) if t}
        assert sorted(row[:2] for row in rows) == sorted(classes)
        counts.append(len(rows))
    # sum over j <= cap of C(n, j) (2**j - 1)
    assert counts == ([1, 5, 19, 50] if cap == 3 else [1, 5, 19, 65])


def test_every_operator_class_names_the_oracles_first_failing_net(enumeration):
    small = enumeration(3, "all_tables").classes
    four = enumeration(4, "builtins,pivots").classes
    assert (len(small), len(four)) == (507, 2321)
    failing = 0
    for sp in small + four:
        net_tables = sp.cls.principal_verdicts["gamma_open_cl"]
        found = tl.bridge_pairings(sp)
        for pairing in tl.PAIRINGS:
            fam, reading = pairing.split("+")
            mismatch = partial(gamma_core._class_mismatch, sp.cls.principal_verdicts[fam],
                               net_tables, reading)
            expected = next((_net_witness(sp, net, *hit) for net, t, r, _, _ in _oracle_net_rows(sp.ground)
                             if (hit := mismatch(t, r)) is not None), None)
            assert found[pairing]["C-P4.10"] == expected, (sp.key, pairing)
            failing += expected is not None
    # 4,292 of the 2,828 x 4 checks compare a concrete witness
    assert failing == 4292
