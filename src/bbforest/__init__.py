"""Exact maximum induced forests of balanced bipartite graphs.

The public surface re-exported here: graph model and BBG text format
(core), exact solvers and witness enumeration (solver), construction
families (generators), and the claim verification harness (theorems).
"""

from .core import (BalancedBipartiteGraph, VertexSubset, emit_bbg, from_rows,
                   induced_edge_count, is_induced_forest, min_degree,
                   parse_bbg)
from .errors import (BBForestError, InstanceTooLargeError,
                     MalformedInputError, ParameterError, PostconditionError)
from .generators import (FAMILIES, GeneratorSpec, build, complete_balanced,
                         prop1_construction, random_min_degree, random_th7,
                         thh1_l1, thh1_l2, thm3_lambda2, thm3_lambda_half)
from .solver import (BRUTE_FORCE_VERTEX_CAP, SOLVER_PART_CAP, SolveResult,
                     decycling_number, enumerate_max_forests, max_forest,
                     max_forest_bruteforce)
from .theorems import (ENUMERATION_BUDGET, THEOREM_IDS, StructureProfile,
                       VerificationReport, bound_g, bound_h, bound_t8,
                       check_bounds, merge_reports, profile_structure,
                       verify_constructions, verify_structure,
                       verify_t1_exhaustive, verify_t1_random, verify_t8)

__version__ = "0.1.0"

__all__ = [
    "BBForestError",
    "BRUTE_FORCE_VERTEX_CAP",
    "BalancedBipartiteGraph",
    "ENUMERATION_BUDGET",
    "FAMILIES",
    "GeneratorSpec",
    "InstanceTooLargeError",
    "MalformedInputError",
    "ParameterError",
    "PostconditionError",
    "SOLVER_PART_CAP",
    "SolveResult",
    "StructureProfile",
    "THEOREM_IDS",
    "VerificationReport",
    "VertexSubset",
    "bound_g",
    "bound_h",
    "bound_t8",
    "build",
    "check_bounds",
    "complete_balanced",
    "decycling_number",
    "emit_bbg",
    "enumerate_max_forests",
    "from_rows",
    "induced_edge_count",
    "is_induced_forest",
    "max_forest",
    "max_forest_bruteforce",
    "merge_reports",
    "min_degree",
    "parse_bbg",
    "profile_structure",
    "prop1_construction",
    "random_min_degree",
    "random_th7",
    "thh1_l1",
    "thh1_l2",
    "thm3_lambda2",
    "thm3_lambda_half",
    "verify_constructions",
    "verify_structure",
    "verify_t1_exhaustive",
    "verify_t1_random",
    "verify_t8",
    "__version__",
]
