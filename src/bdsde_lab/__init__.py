"""Numerical laboratory for scalar backward doubly stochastic differential
equations: an exact binary-lattice oracle, a least-squares Monte Carlo
solver, Lipschitz regularization of continuous drifts, minimal/maximal
solution envelopes, comparison-property harnesses, and a gluing
construction that realises a continuum of solutions on non-unique problems.
"""

__version__ = "0.1.0"

from .core import (
    DriverSpec,
    TerminalSpec,
    TimeGrid,
    builtin_driver,
    builtin_terminal,
    catalog_listing,
    driver_pair,
    make_grid,
    shifted_driver,
)
from .envelope import (
    EnvelopeResult,
    EnvelopeSide,
    compute_envelope,
    maximal_solution,
    minimal_solution,
    sandwich_check,
)
from .gluing import (
    ContinuumReport,
    GluedSolution,
    ScalarGlued,
    continuum_sample,
    glue_deterministic,
    glue_solution,
    interpolate_target,
    validate_inverse,
)
from .harness import (
    ComparisonCase,
    ErrorTable,
    closedness_check,
    compare_solutions,
    convergence_study,
    randomized_ordered_cases,
    shifted_terminal,
)
from .lsmc import (
    BasisSpec,
    MCSolution,
    PathBatch,
    mc_diagnostics,
    sample_paths,
    solve_lsmc,
)
from .regularize import (
    ConvGridSpec,
    RegularizedDriver,
    inf_conv,
    lower_bound_driver,
    mollify,
    mollifier_weights,
    regularized_driver,
    separating_mollified_driver,
    sup_conv,
)
from .tree import (
    ForwardSegment,
    TreeSolution,
    expectation_at,
    forward_residual,
    leaf_increments,
    load_tree_solution,
    save_tree_solution,
    solve_forward_swapped,
    solve_tree,
    stability_margin,
    tree_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
