"""Variable-metric proximal gradient solvers with diagonal BB stepsizes."""

from .core import (
    BlockDiagonalMetric,
    DiagonalMetric,
    NumericalError,
    ProxRegularizer,
    SmoothObjective,
    apply_inverse,
    as_vector,
    unorm,
)
from .stepsize import (
    BBConfig,
    StepPair,
    StepsizeState,
    bb1,
    bb2,
    diagonal_bb,
    hybrid_bb,
)
from .prox import (
    AffineAddition,
    BlockSeparable,
    Consensus,
    DiagonalAffineComposition,
    ElasticNet,
    GroupLasso,
    Lasso,
    Nonnegative,
    QuadraticRegularized,
    Scaled,
    Simplex,
    Zero,
    moreau_check,
    numeric_prox_oracle,
)
from .solver import (
    CONVERGED,
    LINE_SEARCH_FAILURE,
    MAX_ITER,
    NUMERICAL_FAILURE,
    LineSearchError,
    SolveResult,
    SolverConfig,
    SolverState,
    TraceRecord,
    composite_value,
    fista,
    gradient_mapping,
    line_search,
    proximal_step,
    solve,
    vmpg_step,
    warmup_step,
)
from .problems import (
    LeastSquaresObjective,
    LogisticObjective,
    QPProblem,
    QuadraticObjective,
    RegressionProblem,
    SumObjective,
    generate_qp,
    generate_regression,
    load_csv,
    power_iteration,
    precondition,
    smooth_part,
)
from .consensus import (
    ConsensusProblem,
    ConsensusResult,
    ConsensusTraceRecord,
    consensus_round,
    solve_consensus,
    split_regression,
)

__version__ = "0.1.0"
