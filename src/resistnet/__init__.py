"""Energy-space analysis of weighted resistor networks.

The package makes the energy Hilbert-space picture of an infinite weighted
graph computable at finite truncation: graph Laplacians and dipole solves,
the exact polynomial recursion behind the defect eigenvectors of the
geometric line models, harmonic/defect classification with constructive
evidence, the reversible random walk and its transfer operator, and
energy-isometric embeddings between graphs.
"""

from .graphs import (
    DYADIC_TREE, HALF_LINE_GEOM, LINE_AB, LINE_GEOM_SYM,
    GraphStructureError, TruncationInfo, ValidationReport,
    WeightedGraph, build_ab_line, build_dyadic_tree, build_half_line,
    build_sym_line, path_graph, read_graph, validate, write_graph,
)
from .energy import (
    EnergyVector, ProjectionError, apply_laplacian, constant, delta,
    distance_bound, energy, energy_inner, project_fin_harm,
    random_interior_vector, read_vector, solve_dipole, vector, write_vector,
)
from .linsolve import SolveDiagnostics, SolverError
from .polynomials import (
    GrowthReport, PolyPair, XiPoly,
    check_identity_P, check_identity_Q, check_repr_P, check_repr_Q,
    growth_bounds_report, matrix_product_pair,
    pair_sequence, pair_values_sequence, product_exponential_discrepancy,
)
from .boundary import (
    ABDeficiencyReport, BoundaryReport, DeficiencySolution,
    HarmonicHalfLineResult, HarmonicLineResult, QLimitError, QLimitResult,
    ResolventResult, SpaceDecompositionResult, boundary_curves_csv,
    build_deficiency_zline, build_deficiency_zplus, build_harmonic_zline,
    build_harmonic_zplus, classify_model, q_limit, resolvent_delta,
    solve_ab_deficiency, space_decomposition_check,
)
from .walk import (
    FrequencyCheck, TransferIterateResult, TransitionKernel, WalkStats,
    apply_transfer, counter_uniforms, frequency_check, kernel_from_graph,
    simulate, transfer_iterate,
)
from .embedding import (
    CompatibilityCertificate, GraphMap, MissingCertificateError,
    TreeHarmonicResult, check_compatible, compose_maps, dirichlet_monopole,
    dyadic_pair, pullback, transport_monopole, tree_harmonic_direct,
)

__version__ = "0.1.0"
