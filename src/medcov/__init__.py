"""medcov: one-pass robust PCA via the median covariation matrix.

Streaming estimators (averaged stochastic gradient) for the geometric
median and the median covariation matrix, online tracking of the leading
eigenvectors, batch Weiszfeld baselines, synthetic contaminated-data
generation, and a reproducible Monte Carlo benchmark harness.
"""

from .bench import (
    ESTIMATORS,
    RunConfig,
    calibrated_schedules,
    convergence_curve,
    fit_stream,
    iter_csv_rows,
    load_snapshot,
    run_benchmark,
    save_snapshot,
    top_q_projector,
    write_csv,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    MedcovError,
    NumericalError,
)
from .geomedian import (
    GeometricMedianSGD,
    StepSchedule,
    weiszfeld_median,
)
from .mcm import MedianCovariationSGD, weiszfeld_mcm
from .metrics import eigenspace_error, mc_summary
from .online_pca import OnlineEigenTracker, StreamingRobustPCA
from .simgen import (
    ScenarioConfig,
    brownian_cov,
    draw_sample,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "ESTIMATORS",
    "GeometricMedianSGD",
    "MedcovError",
    "MedianCovariationSGD",
    "NumericalError",
    "OnlineEigenTracker",
    "RunConfig",
    "ScenarioConfig",
    "StepSchedule",
    "StreamingRobustPCA",
    "brownian_cov",
    "calibrated_schedules",
    "convergence_curve",
    "draw_sample",
    "eigenspace_error",
    "fit_stream",
    "iter_csv_rows",
    "load_snapshot",
    "mc_summary",
    "run_benchmark",
    "save_snapshot",
    "top_q_projector",
    "weiszfeld_mcm",
    "weiszfeld_median",
    "write_csv",
    "__version__",
]
