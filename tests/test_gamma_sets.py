from gamma_top.finspace import PointSet, validate_topology
from gamma_top.gamma_core import GammaOperation, Space
from gamma_top.gamma_sets import (
    FLAG_NAMES,
    classify_subset,
    gamma_open_family,
    gamma_theta_closure,
    is_extremally_disconnected,
    is_gamma_clopen,
    is_gamma_closed_cl,
    is_gamma_closed_dual,
    is_gamma_open,
    is_gamma_regular_closed,
    is_gamma_regular_open,
    is_theta_closed,
    is_theta_open,
    regular_open_family,
    theta_families,
)

ABC = PointSet(("a", "b", "c"))


def m(s):
    return ABC.mask_of(s)


def fam(*sets):
    return tuple(sorted(m(s) for s in sets))


def test_gamma_open_family_3_2(example3_2):
    assert gamma_open_family(example3_2) == fam("", "b", "ab", "ac", "abc")


def test_gamma_open_family_identity_is_tau():
    top = validate_topology(ABC, [0, 1, 3, 7])
    sp = Space(ABC, top, GammaOperation("identity"))
    assert gamma_open_family(sp) == top.opens_sorted


def test_gamma_open_family_3_17_recomputed(example3_17):
    # wider than the four sets usually quoted for this operation: {b} and
    # {a,b} are fixed points of the interior operator as well
    assert gamma_open_family(example3_17) == fam("", "a", "b", "ab", "ac", "abc")


def test_is_gamma_open_examples(example3_2):
    assert is_gamma_open(example3_2, m("ab"))
    assert not is_gamma_open(example3_2, m("a"))
    assert is_gamma_open(example3_2, 0)


def test_gamma_closedness_examples(example3_2):
    assert is_gamma_closed_dual(example3_2, m("c"))  # {a,b} is gamma-open
    assert is_gamma_closed_dual(example3_2, m("abc"))
    assert not is_gamma_closed_dual(example3_2, m("bc"))  # {a} is not gamma-open
    assert is_gamma_closed_cl(example3_2, m("b"))
    assert is_gamma_closed_cl(example3_2, m("abc"))
    assert not is_gamma_closed_cl(example3_2, m("ab"))


def test_regular_open_family_3_2(example3_2):
    assert regular_open_family(example3_2) == fam("", "b", "ac", "abc")
    assert is_gamma_regular_open(example3_2, m("b"))
    assert not is_gamma_regular_open(example3_2, m("ab"))
    assert is_gamma_regular_open(example3_2, 0)


def test_regular_open_family_3_5_recomputed(example3_5):
    # {a,b} fails the fixed-point test: its gamma-closure is X because the
    # only neighbourhood of c is X, so int_g(cl_g({a,b})) = X
    assert regular_open_family(example3_5) == fam("", "a", "b", "abc")


def test_regular_open_discrete_identity():
    top = validate_topology(ABC, range(8))
    sp = Space(ABC, top, GammaOperation("identity"))
    assert regular_open_family(sp) == tuple(range(8))


def test_clopen_examples(example3_2, example3_5):
    assert is_gamma_clopen(example3_2, m("b"))
    assert not is_gamma_clopen(example3_5, m("a"))
    top = validate_topology(ABC, [0, 7])
    sp = Space(ABC, top, GammaOperation("identity"))
    assert is_gamma_clopen(sp, m("abc"))


def test_extremal_disconnectedness(example3_2, example3_5):
    assert not is_extremally_disconnected(example3_5)
    assert is_extremally_disconnected(example3_2)
    top = validate_topology(ABC, [0, 7])
    sp = Space(ABC, top, GammaOperation("identity"))
    assert is_extremally_disconnected(sp)


def test_theta_closure_trivials(example3_2):
    assert gamma_theta_closure(example3_2, m("abc")) == m("abc")
    assert gamma_theta_closure(example3_2, 0) == 0


def test_theta_closure_3_17_strict_superset(example3_17):
    bc = m("bc")
    assert gamma_theta_closure(example3_17, bc) & ~bc
    assert not is_theta_open(example3_17, m("a"))


def test_theta_families_3_16_recomputed(example3_16):
    closed, opened = theta_families(example3_16)
    assert opened == fam("", "b", "ac", "abc")
    assert closed == fam("", "b", "ac", "abc")
    # {a,b} is gamma-open but not theta-open here
    assert is_gamma_open(example3_16, m("ab"))
    assert not is_theta_open(example3_16, m("ab"))


def test_theta_families_3_17_recomputed(example3_17):
    _, opened = theta_families(example3_17)
    assert opened == fam("", "b", "ac", "abc")


def test_theta_families_discrete_identity():
    top = validate_topology(ABC, range(8))
    sp = Space(ABC, top, GammaOperation("identity"))
    closed, opened = theta_families(sp)
    assert opened == tuple(range(8))
    assert closed == tuple(range(8))


def test_classify_subset_3_2(example3_2):
    c = classify_subset(example3_2, m("ab"))
    assert c.flags["gamma_open"]
    assert not c.flags["gamma_regular_open"]
    assert not c.flags["theta_open"]
    assert "gamma_regular_open" in c.witnesses
    assert c.witnesses["gamma_regular_open"] == "c"  # int_g(cl_g({a,b})) = X


def test_classify_subset_empty(example3_2):
    c = classify_subset(example3_2, 0)
    for flag in ("open_tau", "gamma_open", "gamma_regular_open", "theta_open"):
        assert c.flags[flag]
    assert c.witnesses == {}


def test_classify_subset_3_5(example3_5):
    c = classify_subset(example3_5, m("a"))
    assert c.flags["gamma_regular_open"]
    assert not c.flags["gamma_clopen"]
    assert c.witnesses["gamma_clopen"] == "c"  # cl_g({a}) = {a,c}


def test_regular_open_need_not_be_gamma_open():
    # six-open topology with a table operation: {a} is a fixed point of
    # int_g(cl_g(.)) yet has no neighbourhood with value inside {a}
    top = validate_topology(ABC, [0b000, 0b001, 0b010, 0b011, 0b110, 0b111])
    values = (0b000, 0b101, 0b010, 0b011, 0b111, 0b111)
    sp = Space(ABC, top, GammaOperation("table", values=values))
    assert is_gamma_regular_open(sp, m("a"))
    assert not is_gamma_open(sp, m("a"))


def test_theta_open_witness_space_on_discrete_topology():
    # discrete topology, almost-identity table: {a,b} is theta-open but its
    # gamma-closure is X, so it is not regular-open
    top = validate_topology(ABC, range(8))
    values = tuple(0b110 if v == 0b100 else v for v in range(8))
    sp = Space(ABC, top, GammaOperation("table", values=values))
    assert is_theta_open(sp, m("ab"))
    assert not is_gamma_regular_open(sp, m("ab"))


def _lemma_spaces(enumeration):
    """Every n=3 table space and every n=4 builtin/pivot space."""
    return enumeration(3, "all_tables").spaces + enumeration(4, "builtins,pivots").spaces


def test_gamma_closed_readings_are_one_family(enumeration):
    # x is outside cl_g(A) iff some value at x lies inside X - A, iff x is
    # in int_g(X - A): the complements of the gamma-open sets are exactly
    # the fixed points of cl_g
    count = 0
    for sp in _lemma_spaces(enumeration):
        full = sp.ground.full_mask
        complements = sorted(full ^ u for u in gamma_open_family(sp))
        assert complements == [a for a, c in enumerate(sp.cl_g) if c == a]
        count += 1
    assert count == 9048 + 2775


CLASSIFIERS = {
    "open_tau": lambda sp, a: sp.top.is_open(a),
    "gamma_open": is_gamma_open,
    "gamma_closed_dual": is_gamma_closed_dual,
    "gamma_closed_cl": is_gamma_closed_cl,
    "gamma_regular_open": is_gamma_regular_open,
    "gamma_regular_closed": is_gamma_regular_closed,
    "gamma_clopen": is_gamma_clopen,
    "theta_open": is_theta_open,
    "theta_closed": is_theta_closed,
}


def test_classify_subset_flags_match_the_classifiers(enumeration):
    assert tuple(CLASSIFIERS) == FLAG_NAMES
    for sp in _lemma_spaces(enumeration):
        for a in sp.ground.subsets():
            c = classify_subset(sp, a)
            assert c.flags == {name: is_(sp, a) for name, is_ in CLASSIFIERS.items()}, (sp, a)
            assert set(c.witnesses) == {name for name, flag in c.flags.items() if not flag}
