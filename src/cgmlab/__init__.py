"""Simulation and verification laboratory for the exponential corner growth model.

The package simulates last-passage percolation with i.i.d. exponential
weights, the FIFO queueing operators that drive its stationary structure,
multiclass multiline and coupled configurations, Busemann function
estimators with their geodesics and competition interfaces, and the exact
closed-form laws (run lengths, marked point processes, Catalan
combinatorics) that the simulations are verified against.
"""

__version__ = "0.1.0"

from .rng import RngSpec, WeightField, SeqWindow, sample_exp_field, sample_exp_window
from .lpp import (
    GTable,
    GeodesicPath,
    lpp_grid,
    brute_force_table,
    shape_function,
    backtrack_geodesic,
    stationary_halfplane_lpp,
)
from .queueing import (
    QueueOutput,
    BoundaryPolicy,
    IdentityReport,
    lindley_iterate,
    queue_D,
    queue_S,
    queue_R,
    queue_Dn,
    strip_lpp_H,
    check_sweep_identities,
    check_strip_identities,
)
from .multiclass import (
    MultiConfig,
    TriArray,
    IndependenceReport,
    multiline_step,
    coupled_step,
    dmap,
    sample_mu_rho,
    build_triangular_arrays,
    check_intertwining,
    check_independence_structure,
)
from .busemann import (
    Direction,
    BusemannEdgeEstimates,
    CifThreshold,
    direction_of_rho,
    rho_of_direction,
    scaled_corner,
    estimate_busemann_level,
    coalescence_point,
    competition_interface,
    rho_star_threshold,
    geodesic_initial_runs,
    initial_run_statistics,
    wait_indicator_run,
)
from .exact import (
    MarkedPointProcess,
    AtomTailLaw,
    catalan_number,
    catalan_triangle,
    initial_run_pmf,
    poisson_competition_A,
    poisson_competition_B,
    increment_law,
    sample_X_process,
    X_value,
    rho_star_cdf,
)
from .stats import (
    TestReport,
    ks_distance,
    ks_one_sample,
    ks_two_sample,
    chi_square_pmf,
    binomial_atom_test,
    correlation_test,
)
from .verification import (
    DEFAULT_MASTER_SEED,
    CriterionResult,
    run_criterion,
)
