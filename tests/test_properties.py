"""Law checks over randomly drawn small spaces."""

import hypothesis.strategies as st
from hypothesis import given, settings

from gamma_top import documents
from gamma_top.finspace import (
    PointSet,
    closure,
    enumerate_topologies,
    interior,
    validate_topology,
)
from gamma_top.gamma_core import GammaOperation, Space, enumerate_gamma_operations
from gamma_top.gamma_sets import gamma_closure, gamma_interior, gamma_theta_closure

from literal_convergence import validate_filterbase

TOPOLOGIES = {n: tuple(enumerate_topologies(n)) for n in (1, 2, 3)}


@st.composite
def topologies(draw):
    n = draw(st.integers(1, 3))
    return draw(st.sampled_from(TOPOLOGIES[n]))


@st.composite
def spaces(draw):
    top = draw(topologies())
    ground = top.ground
    kind = draw(st.sampled_from(("identity", "closure", "int_closure", "pivot", "table")))
    if kind == "pivot":
        op = GammaOperation(
            "pivot",
            pivot=draw(st.sampled_from(ground.labels)),
            in_branch=draw(st.sampled_from(("id", "cl", "intcl"))),
            out_branch=draw(st.sampled_from(("id", "cl", "intcl"))),
        )
    elif kind == "table":
        values = []
        for v in top.opens_sorted:
            extra = draw(st.integers(0, ground.full_mask)) & ground.full_mask & ~v
            values.append(v | extra)
        op = GammaOperation("table", values=tuple(values))
    else:
        op = GammaOperation(kind)
    return Space(ground, top, op)


@st.composite
def spaces_with_masks(draw):
    sp = draw(spaces())
    return sp, draw(st.integers(0, sp.ground.full_mask))


@st.composite
def spaces_with_nested_masks(draw):
    sp = draw(spaces())
    b = draw(st.integers(0, sp.ground.full_mask))
    a = draw(st.integers(0, sp.ground.full_mask)) & b
    return sp, a, b


@given(spaces_with_masks())
def test_classical_operators_bound_the_set(case):
    sp, a = case
    assert interior(sp.top, a) & ~a == 0
    assert a & ~closure(sp.top, a) == 0


@given(spaces_with_masks())
def test_gamma_operator_duality(case):
    sp, a = case
    full = sp.ground.full_mask
    assert gamma_interior(sp, a) == full ^ gamma_closure(sp, full ^ a)


@given(spaces_with_masks())
def test_gamma_operators_bound_the_set(case):
    sp, a = case
    assert gamma_interior(sp, a) & ~a == 0
    assert a & ~gamma_closure(sp, a) == 0
    assert a & ~gamma_theta_closure(sp, a) == 0


@given(spaces_with_masks())
def test_gamma_closure_sits_inside_theta_closure(case):
    sp, a = case
    assert gamma_closure(sp, a) & ~gamma_theta_closure(sp, a) == 0


@given(spaces_with_nested_masks())
def test_gamma_operators_are_monotone(case):
    sp, a, b = case
    assert gamma_interior(sp, a) & ~gamma_interior(sp, b) == 0
    assert gamma_closure(sp, a) & ~gamma_closure(sp, b) == 0
    assert gamma_theta_closure(sp, a) & ~gamma_theta_closure(sp, b) == 0


@given(topologies(), st.integers(0, 7))
def test_identity_gamma_recovers_classical(top, seed):
    sp = Space(top.ground, top, GammaOperation("identity"))
    a = seed & top.ground.full_mask
    assert gamma_interior(sp, a) == interior(top, a)
    assert gamma_closure(sp, a) == closure(top, a)


@given(topologies())
def test_builtin_operations_are_expansive(top):
    for op in enumerate_gamma_operations(top, "builtins"):
        sp = Space(top.ground, top, op)
        for v, value in zip(top.opens_sorted, sp.extension):
            assert v & ~value == 0


@given(st.lists(st.integers(0, 7), min_size=1, max_size=5))
def test_filterbase_validation_verdict_is_consistent(raw):
    ground = PointSet(("a", "b", "c"))
    members = [m for m in raw if m]
    if len(members) != len(raw):
        return  # empty members are rejected elsewhere
    try:
        fb = validate_filterbase(ground, members)
    except Exception:
        mset = set(members)
        assert any(
            all(f3 & ~(f1 & f2) for f3 in mset) for f1 in mset for f2 in mset
        )
        return
    assert fb.kernel in fb.members


@given(spaces())
@settings(max_examples=40)
def test_documents_round_trip(sp):
    assert documents.parse_space(documents.serialize_space(sp)) == sp


@given(st.sampled_from(TOPOLOGIES[3]), st.integers(0, 2))
def test_random_families_validate_or_raise(top, drop_index):
    opens = list(top.opens_sorted)
    if len(opens) <= 2:
        validate_topology(top.ground, opens)
        return
    removable = [m for m in opens if m not in (0, top.ground.full_mask)]
    opens.remove(removable[drop_index % len(removable)])
    try:
        validate_topology(top.ground, opens)
    except Exception as exc:
        pair = getattr(exc, "pair", None)
        if pair is not None:
            a, b = pair
            assert (a | b) not in opens or (a & b) not in opens
