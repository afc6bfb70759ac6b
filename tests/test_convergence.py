import pytest

from gamma_top import theoremlab
from gamma_top.finspace import PointSet, validate_topology
from gamma_top.gamma_core import GammaOperation, Space

from literal_convergence import (
    DirectedSet,
    EmptyMember,
    Net,
    NetError,
    NotDirected,
    _fb_accumulates,
    _fb_converges,
    chain,
    fb_r_accumulates,
    fb_r_converges,
    filterbase_to_net,
    is_maximal_filterbase,
    is_subordinate,
    is_universal_net,
    net_r_accumulates,
    net_r_converges,
    net_to_filterbase,
    validate_filterbase,
)
from test_bridge_oracle import ABC, enumerate_filterbases, fb, m
from test_quantifier_oracle import oracle_conditions


def test_validate_filterbase():
    assert validate_filterbase(ABC, [m("a")]).members == {m("a")}
    good = validate_filterbase(ABC, [m("ab"), m("bc"), m("b")])
    assert good.kernel == m("b")
    with pytest.raises(NotDirected) as err:
        validate_filterbase(ABC, [m("a"), m("b")])
    assert err.value.pair == (m("a"), m("b"))
    with pytest.raises(EmptyMember):
        validate_filterbase(ABC, [0])


def test_kernel_is_a_member_for_every_filterbase():
    for base in enumerate_filterbases(ABC):
        assert base.kernel in base.members
        assert base.kernel != 0


def test_filterbase_counts():
    assert len(enumerate_filterbases(PointSet(("a", "b")))) == 5
    assert len(enumerate_filterbases(ABC)) == 31


def test_subordination():
    assert is_subordinate(fb("a"), fb("ab"))
    base = fb("ab", "b")
    assert is_subordinate(base, base)
    assert not is_subordinate(fb("ab"), fb("a"))


def test_maximality():
    assert is_maximal_filterbase(ABC, fb("a"))
    assert not is_maximal_filterbase(ABC, fb("ab"))
    assert is_maximal_filterbase(ABC, fb("a", "ab"))


def test_fb_convergence_examples(example3_2):
    # singleton base at x converges to x in every space
    for x in "abc":
        assert fb_r_converges(example3_2, fb(x), x)
    assert not fb_r_converges(example3_2, fb("a"), "b")  # {b} is regular-open
    assert fb_r_accumulates(example3_2, fb("a"), "a")
    assert not fb_r_accumulates(example3_2, fb("a"), "b")


def test_everything_converges_when_regular_opens_are_trivial():
    top = validate_topology(ABC, [0, 7])
    sp = Space(ABC, top, GammaOperation("identity"))
    for base in enumerate_filterbases(ABC):
        for x in "abc":
            assert fb_r_converges(sp, base, x)


def test_convergence_implies_accumulation_over_all_bases(example3_2, example3_5):
    for sp in (example3_2, example3_5):
        for base in enumerate_filterbases(ABC):
            for x in "abc":
                if fb_r_converges(sp, base, x):
                    assert fb_r_accumulates(sp, base, x)


def test_fb_verdicts_factor_through_the_kernel(example3_2, example3_5):
    for sp in (example3_2, example3_5):
        for base in enumerate_filterbases(ABC):
            kernel = (base.kernel,)
            for xi in range(3):
                for family in ("regular_open", "gamma_open_cl"):
                    assert _fb_converges(sp, base.members, xi, family) == _fb_converges(
                        sp, kernel, xi, family
                    )
                    assert _fb_accumulates(sp, base.members, xi, family) == _fb_accumulates(
                        sp, kernel, xi, family
                    )


def test_directed_set_validation():
    with pytest.raises(NetError, match="elements 0 and 1 have no upper bound"):
        DirectedSet(2, frozenset({(0, 0), (1, 1)}))
    with pytest.raises(NetError, match="not reflexive at 0"):
        DirectedSet(2, frozenset({(0, 1), (1, 1)}))
    with pytest.raises(NetError, match="not transitive"):
        DirectedSet(3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}))


def test_a_directed_set_needs_an_element():
    # the module lemma's top class is non-empty only on a non-empty index set
    for size in (0, -1):
        with pytest.raises(NetError, match="at least one element"):
            DirectedSet(size, frozenset())
    with pytest.raises(NetError, match="at least one element"):
        chain(0)


def test_net_convergence_examples(example3_2):
    constant = Net(chain(3), (0, 0, 0))
    assert net_r_converges(example3_2, constant, "a")
    eventually = Net(chain(3), (1, 0, 0))
    assert net_r_converges(example3_2, eventually, "a")
    two_step = Net(chain(2), (0, 1))  # a then b
    assert net_r_converges(example3_2, two_step, "b")


def test_net_accumulation_readings():
    top = validate_topology(ABC, range(8))
    sp = Space(ABC, top, GammaOperation("identity"))
    tied_top = DirectedSet(2, frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}))
    alternating = Net(tied_top, (0, 1))
    assert net_r_accumulates(sp, alternating, "a")
    assert not net_r_accumulates(sp, alternating, "a", literal=True)


def test_net_to_filterbase_tails():
    two_step = Net(chain(2), (0, 1))
    assert net_to_filterbase(two_step).members == {m("ab"), m("b")}
    constant = Net(chain(3), (2, 2, 2))
    assert net_to_filterbase(constant).members == {m("c")}


def test_filterbase_to_net_shapes():
    single = filterbase_to_net(fb("a"))
    assert single.dirset.size == 1 and single.values == (0,)
    three = filterbase_to_net(fb("ab", "b"))
    assert three.dirset.size == 3
    # tails of the constructed net recover exactly the original members
    assert net_to_filterbase(three).members == {m("ab"), m("b")}


def test_universal_nets():
    constant = Net(chain(2), (0, 0))
    assert is_universal_net(ABC, constant)
    eventually = Net(chain(3), (1, 0, 0))
    assert is_universal_net(ABC, eventually)
    # with a tied top the net never settles, so its tail base is not maximal
    tied_top = DirectedSet(2, frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}))
    assert not is_universal_net(ABC, Net(tied_top, (0, 1)))
    # a strict chain always settles at its last value
    assert is_universal_net(ABC, Net(chain(4), (0, 1, 0, 1)))


def test_space_conditions_all_hold(example3_2, example3_5):
    top = validate_topology(ABC, [0, 7])
    indiscrete = Space(ABC, top, GammaOperation("identity"))
    for sp in (example3_2, example3_5, indiscrete):
        # no subfamily fold finds a failing cover or closed family
        assert oracle_conditions(sp, "dual") == oracle_conditions(sp, "cl") == (None, None)
        status, witness, notes = theoremlab.check_claim(sp.cls, "C-P4.7-EQ")
        assert status == "holds" and witness is None
        assert notes == {"cl_mode_conditions": (True,) * 5}
