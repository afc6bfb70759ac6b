import pytest

from gamma_top import documents
from gamma_top.finspace import (
    FinSpaceError,
    PointSet,
    closure,
    enumerate_topologies,
    interior,
    validate_topology,
)
from gamma_top.gamma_core import (
    GammaError,
    GammaNotExpansive,
    BRANCHES,
    GammaOperation,
    InvalidOperation,
    NotAnOpenSet,
    Space,
    TableModeTooLarge,
    apply_gamma,
    enumerate_gamma_operations,
    gamma_closure,
    gamma_interior,
    is_open_operation,
    is_regular_operation,
    operations_for,
    per_operator_class,
)
from gamma_top.theoremlab import NET_SIZE_CAP, bridge_pairings, check_invariants

ABC = PointSet(("a", "b", "c"))


def m(s):
    return ABC.mask_of(s)


# hand-checked operator tables for the pivot-at-b space over
# opens {}, {a}, {b}, {a,b}, {a,c}, X
EXPECTED_3_2_INT = {
    "": "", "a": "", "b": "b", "c": "", "ab": "ab", "ac": "ac", "bc": "b", "abc": "abc",
}
EXPECTED_3_2_CL = {
    "": "", "a": "ac", "b": "b", "c": "c", "ab": "abc", "ac": "ac", "bc": "abc", "abc": "abc",
}


def test_apply_gamma_on_pivot_space(example3_2):
    assert apply_gamma(example3_2, m("ab")) == m("ab")
    assert apply_gamma(example3_2, m("a")) == m("ac")
    with pytest.raises(NotAnOpenSet):
        apply_gamma(example3_2, m("c"))


def test_identity_operation_reduces_to_classical():
    for opens in ([0, 7], [0, 1, 3, 7], [0, 1, 2, 3, 7]):
        top = validate_topology(ABC, opens)
        sp = Space(ABC, top, GammaOperation("identity"))
        for a in ABC.subsets():
            assert gamma_interior(sp, a) == interior(top, a)
            assert gamma_closure(sp, a) == closure(top, a)


def test_gamma_interior_values(example3_2):
    for s, expect in EXPECTED_3_2_INT.items():
        assert gamma_interior(example3_2, m(s)) == m(expect), s


def test_gamma_closure_values(example3_2):
    for s, expect in EXPECTED_3_2_CL.items():
        assert gamma_closure(example3_2, m(s)) == m(expect), s


def test_expansiveness_is_enforced():
    top = validate_topology(ABC, [0, 1, 7])
    bad = GammaOperation("table", values=(0, 2, 7))  # value misses {a}
    with pytest.raises(GammaNotExpansive) as err:
        Space(ABC, top, bad)
    assert err.value.open_mask == 1


def test_table_domain_must_match_opens():
    top = validate_topology(ABC, [0, 1, 7])
    with pytest.raises(InvalidOperation):
        Space(ABC, top, GammaOperation("table", values=(0, 7)))


@pytest.mark.parametrize("fields", [
    {"kind": "identity", "values": (5,)},
    {"kind": "closure", "values": ()},
    {"kind": "int_closure", "pivot": "a"},
    {"kind": "pivot", "pivot": "a", "in_branch": "id", "out_branch": "cl", "values": (1,)},
    {"kind": "table", "values": (0, 7), "pivot": "a"},
    {"kind": "table", "values": (0, 7), "in_branch": "id"},
    {"kind": "table", "values": (0, 7), "out_branch": "cl"},
])
def test_each_kind_refuses_the_other_kinds_fields(fields):
    with pytest.raises(InvalidOperation):
        GammaOperation(**fields)


def test_every_bundled_document_still_parses():
    # each kind's own fields are still accepted, and a round trip through
    # the document format keeps the operation
    for name in documents.BUNDLED:
        sp = documents.load_bundled(name)
        assert documents.parse_space(documents.serialize_space(sp)).gamma == sp.gamma


def test_the_table_cache_never_skips_validation():
    top = validate_topology(ABC, [0, m("a"), 7])
    good = Space(ABC, top, GammaOperation("table", values=(0, m("ab"), 7)))
    assert len(top.operator_tables) == 1
    # the table key leaves out the value at the empty set, so this table's
    # slice is the cached one: its mask is checked all the same
    with pytest.raises(FinSpaceError):
        Space(ABC, top, GammaOperation("table", values=(8, m("ab"), 7)))
    with pytest.raises(GammaNotExpansive) as err:
        Space(ABC, top, GammaOperation("table", values=(0, m("b"), 7)))
    assert err.value.open_mask == m("a")
    # one value too many (a set that is not open, given in place of an
    # open, is the document parser's check)
    with pytest.raises(InvalidOperation):
        Space(ABC, top, GammaOperation("table", values=(0, m("ab"), 7, 7)))
    # the failed spaces added nothing, and an equal space reads the entry
    assert len(top.operator_tables) == 1
    again = Space(ABC, top, GammaOperation("table", values=(1, m("ab"), 7)))
    assert again.int_g is good.int_g and again.cl_g is good.cl_g
    assert again._class_memo is good._class_memo


def test_regular_and_open_flags(example3_2, example3_5, example3_17):
    assert not is_regular_operation(example3_2)
    assert is_open_operation(example3_2)
    assert is_regular_operation(example3_5)
    assert is_open_operation(example3_5)
    assert is_regular_operation(example3_17)
    assert is_open_operation(example3_17)


def test_identity_is_regular_and_open_everywhere():
    for opens in ([0, 7], [0, 1, 3, 7], list(range(8))):
        top = validate_topology(ABC, opens)
        sp = Space(ABC, top, GammaOperation("identity"))
        assert is_regular_operation(sp)
        assert is_open_operation(sp)


def test_indiscrete_space_flags():
    top = validate_topology(ABC, [0, 7])
    for op in enumerate_gamma_operations(top, "builtins"):
        sp = Space(ABC, top, op)
        assert is_regular_operation(sp)  # the only neighbourhood is X
    sp = Space(ABC, top, GammaOperation("closure"))
    assert is_open_operation(sp)


def test_builtins_mode_always_yields_three():
    for opens in ([0, 7], list(range(8))):
        top = validate_topology(ABC, opens)
        ops = list(enumerate_gamma_operations(top, "builtins"))
        assert [op.kind for op in ops] == ["identity", "closure", "int_closure"]


def test_pivots_mode_deduplicates_by_extension(example3_2):
    top = example3_2.top
    blocks = operations_for(top, ("pivots",))
    assert 1 <= len(blocks) <= 27  # 3 pivots x 9 branch pairs before dedup
    exts = [block.op.extension(top) for block in blocks]
    assert exts == [block.empties + block.slices[0] for block in blocks]
    assert len(set(exts)) == len(exts)
    # the pivot-at-b id/cl operation itself is enumerated
    assert example3_2.extension in exts


def test_all_tables_count_matches_product_formula(example3_2):
    top = example3_2.top
    ops = list(enumerate_gamma_operations(top, "all_tables"))
    expect = 1
    for v in top.opens_sorted:
        expect *= 1 << (3 - bin(v).count("1"))
    assert expect == 512
    assert len(ops) == expect
    for op in ops[:50]:
        Space(ABC, top, op)  # expansive by construction


def test_all_tables_size_guard():
    ground = PointSet(("a", "b", "c", "d"))
    top = validate_topology(ground, [0, ground.full_mask])
    with pytest.raises(TableModeTooLarge):
        list(enumerate_gamma_operations(top, "all_tables"))


def test_unknown_mode():
    top = validate_topology(ABC, [0, 7])
    with pytest.raises(GammaError):
        list(enumerate_gamma_operations(top, "everything"))


def test_operations_for_deduplicates_across_modes():
    top = validate_topology(ABC, list(range(8)))  # discrete: builtins coincide
    blocks = operations_for(top, ("builtins", "pivots"))
    exts = [block.op.extension(top) for block in blocks]
    assert exts == [block.empties + block.slices[0] for block in blocks]
    assert len(set(exts)) == len(exts)
    assert len(blocks) == 1  # closure and int-closure equal identity here


def test_pivot_branches_follow_membership(example3_17):
    # pivot b with in=cl, out=id over the six-open topology
    assert apply_gamma(example3_17, m("ab")) == m("abc")  # b inside: closure
    assert apply_gamma(example3_17, m("ac")) == m("ac")  # b outside: identity


def test_per_operator_class_runs_once_per_class_and_arguments():
    calls = []

    @per_operator_class
    def family(sp):
        calls.append(("family", sp))
        return object()

    @per_operator_class
    def table(sp, mode):
        calls.append(mode)
        return object()

    first, second = documents.load_bundled("example3_2"), documents.load_bundled("example3_5")
    assert family(first) is family(first) is not family(second)
    value = table(first, "dual")
    assert table(first, "dual") is value
    assert table(first, "cl") is table(first, "cl") is not value
    assert table(second, "dual") is not value
    assert calls == [("family", first), ("family", second), "dual", "cl", "dual"]
    # arguments are positional only: a keyword call raises and stores nothing
    memo_before = dict(second._class_memo)
    with pytest.raises(TypeError):
        table(second, mode="cl")
    assert second._class_memo == memo_before and len(calls) == 5
    # a defaulted parameter would give f(sp) and f(sp, default) two entries
    with pytest.raises(TypeError, match="takes no defaults"):
        @per_operator_class
        def defaulted(sp, mode="dual"):
            return mode


def test_memoised_functions_take_the_space_alone():
    sp = documents.load_bundled("example3_5")
    assert bridge_pairings(sp) is bridge_pairings(sp)
    # nets are capped at NET_SIZE_CAP, and no call may ask for another cap
    with pytest.raises(TypeError):
        bridge_pairings(sp, NET_SIZE_CAP)
    assert check_invariants(sp) is check_invariants(sp)
    with pytest.raises(TypeError):
        check_invariants(sp, "dual")


def _per_open_value(op, top, v):
    """The value at the open *v*, straight from the kind's definition."""
    if op.kind == "pivot":
        branch = op.in_branch if v >> top.ground.index(op.pivot) & 1 else op.out_branch
    else:
        branch = {"identity": "id", "closure": "cl", "int_closure": "intcl"}[op.kind]
    if branch == "id":
        return v
    if branch == "cl":
        return closure(top, v)
    return interior(top, closure(top, v))


def test_extension_matches_the_per_open_definitions():
    tops = list(enumerate_topologies(3))
    assert len(tops) == 29
    for top in tops:
        ops = [GammaOperation(kind) for kind in ("identity", "closure", "int_closure")]
        ops += [
            GammaOperation("pivot", pivot=label, in_branch=in_b, out_branch=out_b)
            for label in top.ground.labels for in_b in BRANCHES for out_b in BRANCHES
        ]
        for op in ops:
            ext = op.extension(top)
            assert ext == tuple(_per_open_value(op, top, v) for v in top.opens_sorted), (top, op)
            table = GammaOperation("table", values=ext)
            assert table.extension(top) == ext
            assert Space(top.ground, top, op).extension == ext
    # a table must give one value per open (a set that is not open, given
    # in place of an open, is the document parser's check)
    top = validate_topology(ABC, [0, m("a"), 7])
    for count in (2, 4):
        op = GammaOperation("table", values=(7,) * count)
        with pytest.raises(InvalidOperation, match="one value per open set"):
            op.extension(top)
        with pytest.raises(InvalidOperation, match="one value per open set"):
            Space(ABC, top, op)
