"""Scheduling theory: eligibility, IC-optimality, catalog families, priorities."""

from .algorithm import TheoreticalResult, theoretical_algorithm
from .batched import (
    batched_execution,
    min_rounds,
    rounds_needed,
    rounds_profile,
)
from .bipartite_exact import (
    EXACT_BIPARTITE_LIMIT,
    bipartite_envelope,
    coverage_profile,
    exact_bipartite_schedule,
)
from .eligibility import eligibility_profile, partial_profile
from .families import (
    FamilyInstance,
    clique_dag,
    cycle_dag,
    fig2_catalog,
    m_dag,
    n_dag,
    w_dag,
)
from .mesh import (
    diagonal_schedule,
    mesh_dag,
    mesh_schedule,
    triangular_mesh_dag,
)
from .ic_optimal import (
    BRUTE_FORCE_LIMIT,
    find_ic_optimal_schedule,
    is_ic_optimal,
    max_eligibility,
)
from .priority import has_priority, priority_over
from .recognize import Recognition, recognize_bipartite_family

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "EXACT_BIPARTITE_LIMIT",
    "batched_execution",
    "bipartite_envelope",
    "coverage_profile",
    "exact_bipartite_schedule",
    "min_rounds",
    "rounds_needed",
    "rounds_profile",
    "FamilyInstance",
    "Recognition",
    "TheoreticalResult",
    "theoretical_algorithm",
    "clique_dag",
    "cycle_dag",
    "eligibility_profile",
    "fig2_catalog",
    "find_ic_optimal_schedule",
    "diagonal_schedule",
    "has_priority",
    "is_ic_optimal",
    "m_dag",
    "mesh_dag",
    "mesh_schedule",
    "triangular_mesh_dag",
    "max_eligibility",
    "n_dag",
    "partial_profile",
    "priority_over",
    "recognize_bipartite_family",
    "w_dag",
]
