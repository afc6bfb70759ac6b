import functools
from typing import NamedTuple

import pytest

from gamma_top import documents, theoremlab

ACCEPTANCE_LINES = []


def record_criterion(number: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status}" + (f" - {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def example3_2():
    return documents.load_bundled("example3_2")


@pytest.fixture(scope="session")
def example3_5():
    return documents.load_bundled("example3_5")


@pytest.fixture(scope="session")
def example3_16():
    return documents.load_bundled("example3_16")


@pytest.fixture(scope="session")
def example3_17():
    return documents.load_bundled("example3_17")


@pytest.fixture(scope="session")
def sweep3():
    """Claims plus invariants over every 3-point topology x every expansive table."""
    return theoremlab.full_sweep(
        3, ("all_tables",), theoremlab.SAFE_CLAIMS + theoremlab.CONDITIONED_CLAIMS
    )


@pytest.fixture(scope="session")
def sweep4():
    """Claims plus invariants over every 4-point topology x builtins and pivots."""
    return theoremlab.full_sweep(
        4, ("builtins", "pivots"), theoremlab.SAFE_CLAIMS + theoremlab.CONDITIONED_CLAIMS
    )


class Enumeration(NamedTuple):
    spaces: list  # every space, in enumeration order
    classes: list  # the first space of each operator class, in order


@pytest.fixture(scope="session")
def enumeration():
    """``enumeration(n, modes)``: the spaces of one enumeration and one
    space per operator class, built once per session.  The oracles read
    only the topology and the operator tables, so a class's first space
    stands for the others.  Tests that count builds or patch class values
    enumerate afresh instead."""

    @functools.cache
    def build(n, modes):
        spaces = [sp for _, _, sp in theoremlab.enumerate_spaces(n, theoremlab.parse_modes(modes))]
        classes = {}
        for sp in spaces:
            classes.setdefault((sp.top, sp.int_g, sp.cl_g), sp)
        return Enumeration(spaces, list(classes.values()))

    return build
