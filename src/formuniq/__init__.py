"""Form uniqueness and related global properties of weighted graphs.

The package decides — from summability of explicit radial series —
whether the Dirichlet and Neumann energy forms of a weakly spherically
symmetric weighted graph coincide, along with transience, stochastic
completeness, Feller properties, and essential self-adjointness for
birth-death chains.  Boundary capacity estimates, graph decompositions,
and the gluing (in)stability analyses build on the same machinery.
"""

from .errors import GraphFormatError, PreconditionError, StructuralError
from .graph import (
    WeightedGraph,
    degrees,
    energy,
    form_norm_sq,
    laplacian,
    load_graph,
    lp_norm,
    save_graph,
)
from .symmetry import (
    SphereDecomposition,
    average,
    is_weakly_spherically_symmetric,
    sphere_decomposition,
)
from .series import (
    CustomTail,
    PowerGeomTail,
    RadialProfile,
    SeriesKind,
    Verdict,
    VerdictState,
    load_profile,
    profile_from_graph,
    quotient_graph,
    save_profile,
    series_verdict,
    verdict_bundle,
)
from .harmonic import (
    HarmonicSolution,
    membership_report,
    solve_symmetric_harmonic,
    truncated_dirichlet_solve,
)
from .criteria import (
    PropertyReport,
    form_uniqueness_verdict,
    full_report,
    hamburger_esa_verdict,
    stochastic_incompleteness_verdict,
    transience_verdict,
)
from .families import Family, Truncation, gallery, gallery_names
from .capacity import (
    CapacityEstimate,
    boundary_capacity_estimate,
    cutoff_function,
    degree_path_lengths,
    equilibrium_potential,
    is_strongly_intrinsic,
    profile_boundary_capacity,
    radial_boundary_reach,
)
from .stability import (
    Decomposition,
    EndsReport,
    InstabilityReport,
    analyze_instability_example,
    boundary_degree_bounded,
    decompose,
    energy_parts,
    stability_verdict,
    symmetric_ends_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityEstimate",
    "CustomTail",
    "Decomposition",
    "EndsReport",
    "Family",
    "GraphFormatError",
    "HarmonicSolution",
    "InstabilityReport",
    "PowerGeomTail",
    "PreconditionError",
    "PropertyReport",
    "RadialProfile",
    "SeriesKind",
    "SphereDecomposition",
    "StructuralError",
    "Truncation",
    "Verdict",
    "VerdictState",
    "WeightedGraph",
    "analyze_instability_example",
    "average",
    "boundary_capacity_estimate",
    "boundary_degree_bounded",
    "cutoff_function",
    "decompose",
    "degree_path_lengths",
    "degrees",
    "energy",
    "energy_parts",
    "equilibrium_potential",
    "form_norm_sq",
    "form_uniqueness_verdict",
    "full_report",
    "gallery",
    "gallery_names",
    "hamburger_esa_verdict",
    "is_strongly_intrinsic",
    "is_weakly_spherically_symmetric",
    "laplacian",
    "load_graph",
    "load_profile",
    "lp_norm",
    "membership_report",
    "profile_boundary_capacity",
    "profile_from_graph",
    "quotient_graph",
    "radial_boundary_reach",
    "save_graph",
    "save_profile",
    "series_verdict",
    "solve_symmetric_harmonic",
    "sphere_decomposition",
    "stability_verdict",
    "stochastic_incompleteness_verdict",
    "symmetric_ends_verdict",
    "transience_verdict",
    "truncated_dirichlet_solve",
    "verdict_bundle",
]
