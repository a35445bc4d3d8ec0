"""Finite elements for diffusion with embedded one-dimensional crack networks."""

from .mesh import (
    Mesh,
    MeshError,
    RefinementConfig,
    RefinementError,
    build_rectangle_mesh,
    export_mesh_text,
    export_vtk,
    mark_crack_elements,
    refine_marked,
    refine_near_crack,
)
from .cracks import (
    Chain,
    CrackGeometryError,
    CrackGraph,
    SegmentedCrack,
    arc_points,
    cut_chains,
)
from .assembly import (
    BoundarySpec,
    Coefficients,
    LinearSystem,
    NonFiniteValueError,
    SingularSystemError,
    assemble,
    assemble_load,
    assemble_operator,
)
from .solve import SolutionField, SolverError, solve
from .analysis import (
    ExactRadialSolution,
    NormReport,
    SineProductSolution,
    eoc,
    error_norms,
    kirchhoff_residual,
)
from .config import (
    EXACT_SOLUTIONS,
    FUNCTIONS,
    ConfigError,
    ProblemConfig,
    RunResult,
    StudyResult,
    build_preset,
    list_presets,
    load_config,
    run_convergence_study,
    run_single,
    save_config,
)

__version__ = "0.1.0"
