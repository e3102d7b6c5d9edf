"""Variable-metric proximal gradient solvers with diagonal BB stepsizes."""

from .core import (
    BlockDiagonalMetric,
    DiagonalMetric,
    NumericalError,
    ProxRegularizer,
    SmoothObjective,
    as_vector,
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
    BlockSeparable,
    Consensus,
    ElasticNet,
    GroupLasso,
    Lasso,
    Nonnegative,
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
    line_search,
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
