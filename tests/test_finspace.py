import dataclasses
import functools

import pytest

from gamma_top.finspace import (
    FinSpaceError,
    MissingEmptyOrWhole,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PointSet,
    SizeTooLarge,
    UnknownPoint,
    closure,
    enumerate_topologies,
    interior,
    memo_property,
    open_nbds,
    validate_topology,
)

ABC = PointSet(("a", "b", "c"))


def masks(ground, *sets):
    return [ground.mask_of(s) for s in sets]


@pytest.fixture
def top_3_2():
    # opens: {}, X, {a}, {b}, {a,b}, {a,c}
    return validate_topology(ABC, masks(ABC, "", "abc", "a", "b", "ab", "ac"))


@pytest.fixture
def top_3_5():
    return validate_topology(ABC, masks(ABC, "", "abc", "a", "b", "ab"))


def test_point_set_validation():
    with pytest.raises(FinSpaceError):
        PointSet(("a", "a"))
    with pytest.raises(FinSpaceError):
        PointSet(("a", ""))
    with pytest.raises(SizeTooLarge):
        PointSet(tuple(f"p{i}" for i in range(17)))
    with pytest.raises(UnknownPoint):
        ABC.index("z")
    assert ABC.mask_of("ac") == 0b101
    assert ABC.labels_of(0b101) == ("a", "c")


def test_validate_topology_accepts_the_six_open_family(top_3_2):
    assert len(top_3_2.opens) == 6
    assert top_3_2.is_open(ABC.mask_of("ac"))


def test_validate_topology_one_point():
    ground = PointSet(("a",))
    top = validate_topology(ground, [0, 1])
    assert top.opens == frozenset({0, 1})


def test_validate_topology_union_witness():
    with pytest.raises(NotClosedUnderUnion) as err:
        validate_topology(ABC, masks(ABC, "", "abc", "a", "b"))
    assert err.value.pair == (ABC.mask_of("a"), ABC.mask_of("b"))


def test_validate_topology_intersection_witness():
    with pytest.raises(NotClosedUnderIntersection) as err:
        validate_topology(ABC, masks(ABC, "", "abc", "ab", "ac", "bc", "a", "b"))
    # first offending pair in mask order: {a,b} & {a,c} = {a} is present,
    # so the witness must be a pair whose intersection is really missing
    a, b = err.value.pair
    assert (a & b) not in masks(ABC, "", "abc", "ab", "ac", "bc", "a", "b")


def test_validate_topology_missing_whole():
    with pytest.raises(MissingEmptyOrWhole):
        validate_topology(ABC, masks(ABC, "", "a"))


def test_closure_values(top_3_2, top_3_5):
    assert closure(top_3_2, ABC.mask_of("a")) == ABC.mask_of("ac")
    assert closure(top_3_2, ABC.full_mask) == ABC.full_mask
    assert closure(top_3_5, ABC.mask_of("ab")) == ABC.full_mask


def test_interior_values(top_3_5):
    assert interior(top_3_5, ABC.mask_of("ac")) == ABC.mask_of("a")
    assert interior(top_3_5, 0) == 0
    discrete = validate_topology(ABC, range(8))
    for m in ABC.subsets():
        assert interior(discrete, m) == m


def test_open_nbds(top_3_2):
    assert open_nbds(top_3_2, "c") == [ABC.mask_of("ac"), ABC.full_mask]
    indiscrete = validate_topology(ABC, [0, 7])
    assert open_nbds(indiscrete, "b") == [7]
    two = PointSet(("a", "b"))
    disc2 = validate_topology(two, [0, 1, 2, 3])
    assert open_nbds(disc2, "a") == [1, 3]
    with pytest.raises(UnknownPoint):
        open_nbds(top_3_2, "z")


def test_closure_interior_laws_exhaustive_n_le_3():
    for n in (1, 2, 3):
        for top in enumerate_topologies(n):
            full = top.ground.full_mask
            for a in top.ground.subsets():
                ia, ca = interior(top, a), closure(top, a)
                assert ia & ~a == 0 and a & ~ca == 0
                assert interior(top, ia) == ia and closure(top, ca) == ca
                # interior and closure are mutually dual
                assert ia == full ^ closure(top, full ^ a)
                for b in top.ground.subsets():
                    if a & ~b == 0:
                        assert interior(top, a) & ~interior(top, b) == 0
                        assert closure(top, a) & ~closure(top, b) == 0


def test_enumerate_topologies_counts():
    assert sum(1 for _ in enumerate_topologies(1)) == 1
    assert sum(1 for _ in enumerate_topologies(2)) == 4
    assert sum(1 for _ in enumerate_topologies(3)) == 29


def test_enumerate_topologies_is_deterministic_and_unique():
    first = [t.opens_sorted for t in enumerate_topologies(3)]
    second = [t.opens_sorted for t in enumerate_topologies(3)]
    assert first == second
    assert len(set(first)) == len(first)
    assert first == sorted(first)


def test_enumerate_topologies_all_validate():
    for top in enumerate_topologies(3):
        validate_topology(top.ground, top.opens)


def test_enumerate_topologies_size_guard():
    with pytest.raises(SizeTooLarge):
        list(enumerate_topologies(0))
    with pytest.raises(SizeTooLarge):
        list(enumerate_topologies(5))


def test_memo_property_runs_once_per_instance_and_takes_no_lock():
    runs = []

    @dataclasses.dataclass(frozen=True)
    class Frozen:
        x: int

        @memo_property
        def double(self):
            runs.append(self.x)
            return 2 * self.x

    first, second = Frozen(1), Frozen(2)
    assert (first.double, first.double, second.double) == (2, 2, 4)
    assert runs == [1, 2] and vars(first)["double"] == 2
    # read on the class it is the descriptor, a cached_property to any
    # code that looks for one
    prop = vars(Frozen)["double"]
    assert Frozen.double is prop and isinstance(prop, functools.cached_property)

    class Unlocked:
        @memo_property
        def value(self):
            return 1

    # no lock is taken: a lock that refuses would raise on a first read
    class Refusing:
        def __enter__(self):
            raise AssertionError("lock taken")

        def __exit__(self, *exc):
            return False

    vars(Unlocked)["value"].lock = Refusing()
    assert Unlocked().value == 1
