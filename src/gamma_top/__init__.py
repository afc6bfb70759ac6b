"""Finite-model engine for expansive operations on the open sets of small
topological spaces: interior/closure operators, subset classifiers,
exhaustive claim verification (filterbase and net convergence through
per-class tables) and counterexample mining."""

from .finspace import (
    PointSet,
    Topology,
    closure,
    enumerate_topologies,
    interior,
    open_nbds,
    validate_topology,
)
from .gamma_core import (
    GammaOperation,
    Space,
    apply_gamma,
    enumerate_gamma_operations,
    gamma_closure,
    gamma_interior,
    is_open_operation,
    is_regular_operation,
)
from .gamma_sets import (
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
    regular_open_family,
    theta_families,
)
from .theoremlab import audit_example, check_claim, mine, run_suite

__version__ = "0.1.0"
