"""Interest-aware multicast scheduling toolkit.

Builds per-user maps of interest over spatial grids, casts the joint
feature-selection/grouping problem as grid-rate selection under a latency
budget, and solves it with a refined two-pass greedy and an accelerated
lazy-evaluation variant, alongside six baseline schedulers and an exact
oracle for small instances.
"""

# The single source of the package version: pyproject.toml reads it, and
# `birdcast gen` writes it into each file's provenance.
__version__ = "0.1.0"

import logging

from .baselines import (
    BASELINE_IDS,
    broadcast_solve,
    dp_solve,
    kmeanspp_solve,
    marginal_util_solve,
    unicast_solve,
)
from .channel import (
    DEFAULT_MCS_TABLE,
    McsTable,
    item_cost,
)
from .instance import (
    CoverageState,
    MulticastPlan,
    PlanEvaluation,
    ProblemInstance,
    Selection,
    evaluate_plan,
    marginal_gain,
    plan_from_selection,
    selection_cost,
    selection_from_plan,
    utility,
)
from .moi import (
    GridMap,
    build_moi,
    confidence_map,
    entropy_map,
    info_mask,
    local_correlation,
)
from .oracle import (
    EnumerationCapExceeded,
    OracleResult,
    brute_force_assignments,
    exact_solve,
    lp_bound,
    unrestricted_opt,
    verify_equivalence,
)
from .scenario import GenParams, Scene, fig1_instance, generate, snr_for_user
from .solvers import (
    SolveResult,
    accelerated_greedy,
    best_single_item,
    refined_greedy,
    remove_redundant,
)

__all__ = [
    "BASELINE_IDS",
    "CoverageState",
    "DEFAULT_MCS_TABLE",
    "EnumerationCapExceeded",
    "GenParams",
    "GridMap",
    "McsTable",
    "MulticastPlan",
    "OracleResult",
    "PlanEvaluation",
    "ProblemInstance",
    "Scene",
    "Selection",
    "SolveResult",
    "accelerated_greedy",
    "best_single_item",
    "broadcast_solve",
    "brute_force_assignments",
    "build_moi",
    "confidence_map",
    "dp_solve",
    "entropy_map",
    "evaluate_plan",
    "exact_solve",
    "fig1_instance",
    "generate",
    "info_mask",
    "item_cost",
    "kmeanspp_solve",
    "local_correlation",
    "lp_bound",
    "marginal_gain",
    "marginal_util_solve",
    "plan_from_selection",
    "refined_greedy",
    "remove_redundant",
    "selection_cost",
    "selection_from_plan",
    "snr_for_user",
    "unicast_solve",
    "unrestricted_opt",
    "utility",
    "verify_equivalence",
]

# Library convention: notices reach no output unless the application
# configures logging (the CLI does).
logging.getLogger(__name__).addHandler(logging.NullHandler())
