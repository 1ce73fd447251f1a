"""topokit: density-based and neural-reparameterized topology optimization."""

__version__ = "0.1.0"

from .fields import DensityField
from .fem import (
    GridDomain,
    ObjectiveEval,
    Physics,
    SingularSystemError,
    assemble_and_solve,
    element_conduction,
    element_stiffness_elastic,
    evaluate_objective,
)
from .pipeline import (
    FilterOperator,
    VolumeBudget,
    build_filter,
    rescale_thresholded_compliance,
    shifted_sigmoid_project,
    shifted_sigmoid_vjp,
    threshold,
)
from .reparam import (
    ArchitectureSpec,
    CoordinateGrid,
    DesignMap,
    ParamVector,
    coordinate_grid,
    fit_to_density,
    forward,
    init_params,
    param_count,
    pretrain_uniform,
    vjp,
)
from .optimizers import (
    AdamConfig,
    AdamState,
    MmaConfig,
    MmaState,
    Trajectory,
    adam_step,
    mma_step,
)
from .problems import (
    CATALOG,
    ProblemSpec,
    TwoBarProblem,
    make_problem,
    twobar_eval,
    twobar_siren_forward,
)
from .runner import (
    RunResult,
    evaluate_design,
    run_optimization,
    threshold_and_rescale,
)
from .analysis import (
    LandscapeResult,
    LandscapeSample,
    MetricTable,
    convergence_iteration,
    count_interior_maxima,
    expressivity_study,
    landscape_1d,
    performance_profile,
    psnr,
)
