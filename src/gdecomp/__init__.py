"""Local-to-global decomposition pipeline for finitely generated groups.

Builds Cayley balls, truncated local covers, canonical decompositions
with finite adhesion, graph-of-groups splittings of virtually free
groups, Bass-Serre tree portions with Tits classification, and certified
finite-index free/torsion-free subgroups.
"""

from .bassserre import (
    BassSerreTreePortion,
    DecompositionTree,
    build_tree_portion,
    classify_tree_automorphism,
    locate_torsion,
    verify_equivariant_isomorphism,
)
from .cayley import CayleyBall, build_ball, verify_short_cycle_cosets
from .cover import (
    TruncatedCover,
    build_truncated_cover,
    classify_cycle_lift,
    estimate_displacement,
    lift_element_action,
    order_threshold,
    verify_ball_preservation,
)
from .cycles import BACKEND, enumerate_short_cycles
from .decomp import (
    GlobalDecomposition,
    build_nerve_complex,
    check_periodicity,
    check_vtf_conditions,
    compute_global_decomposition,
    compute_stabilizers,
    discover_graph_of_groups,
)
from .errors import (
    CapExceeded,
    GdecompError,
    SpecFormatError,
    UncertifiedRegion,
    VerificationFailure,
)
from .groups import (
    FiniteGroupTable,
    GraphOfGroups,
    GraphOfGroupsGroup,
    MatrixGroup,
    load_group,
)
from .subgroups import (
    construct_finite_quotient,
    index_lower_bound,
    index_upper_bound,
    kernel_subgroup,
    reidemeister_schreier,
    verify_torsion_free,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BassSerreTreePortion",
    "CapExceeded",
    "CayleyBall",
    "DecompositionTree",
    "FiniteGroupTable",
    "GdecompError",
    "GlobalDecomposition",
    "GraphOfGroups",
    "GraphOfGroupsGroup",
    "MatrixGroup",
    "SpecFormatError",
    "TruncatedCover",
    "UncertifiedRegion",
    "VerificationFailure",
    "build_ball",
    "build_nerve_complex",
    "build_tree_portion",
    "build_truncated_cover",
    "check_periodicity",
    "check_vtf_conditions",
    "classify_cycle_lift",
    "classify_tree_automorphism",
    "compute_global_decomposition",
    "compute_stabilizers",
    "construct_finite_quotient",
    "discover_graph_of_groups",
    "enumerate_short_cycles",
    "estimate_displacement",
    "index_lower_bound",
    "index_upper_bound",
    "kernel_subgroup",
    "lift_element_action",
    "load_group",
    "locate_torsion",
    "order_threshold",
    "reidemeister_schreier",
    "verify_ball_preservation",
    "verify_equivariant_isomorphism",
    "verify_short_cycle_cosets",
    "verify_torsion_free",
]
