"""Bias-free sparse representation learning via folded-loss rotation.

The package fits latent-variable models under identification
constraints, rotates the fitted representation toward a sparse basis by
minimizing a folded concave criterion over a local set of admissible
rotations, and provides oracle plug-in inference (sandwich covariances,
Wald intervals, multiplicity-adjusted tests) together with classical
rotation baselines and a Monte Carlo replication harness.
"""

from .criteria import (
    FeasibleSet,
    FoldedLoss,
    folded_criterion,
    sample_feasible,
    varimax_criterion,
)
from .erm import (
    FitConfig,
    FitResult,
    FitTrace,
    ParamPair,
    erm_fit,
    oracle_fit_A,
    spectral_warm_start,
)
from .exceptions import (
    CollinearAxesError,
    DataError,
    DegenerateFitError,
    DegenerateRotationError,
    DegenerateSubproblemError,
    DegenerateTargetError,
    DegenerateVarianceError,
    DomainError,
    FolominError,
    IllConditionedCovarianceError,
    InsufficientSimpleStructureError,
    NumericalError,
    OracleFitError,
)
from .inference import (
    InferenceReport,
    align,
    bh_adjust,
    bonferroni_adjust,
    build_report,
    rotated_std_errors,
    two_sided_p,
    wald_intervals,
)
from .initialization import InitResult, similarity_matrix
from .lqa import LqaConfig, LqaResult, LqaTrace, lqa_run, lqa_subproblem, lqa_weights
from .model import (
    ResponseFamily,
    ResponseMatrix,
    risk,
    risk_d1,
    sample_response,
)
from .sim import RepResult, SimDesign, gen_A, gen_Z, infeasible_debias_varimax, run_replications
from .sparsity import (
    SparsityProfile,
    SparsityWitness,
    cone_neighborhood,
    detect_simple_rows,
    is_sparse,
)
from .vintage import PromaxResult, VarimaxResult, VintageConfig, promax_rotate, varimax_rotate

__version__ = "0.1.0"
