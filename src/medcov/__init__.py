"""medcov: one-pass robust PCA via the median covariation matrix.

Streaming estimators (averaged stochastic gradient) for the geometric
median and the median covariation matrix, online tracking of the leading
eigenvectors, batch Weiszfeld baselines, synthetic contaminated-data
generation, and a reproducible Monte Carlo benchmark harness.
"""

from .bench import (
    ESTIMATORS,
    CurvePoint,
    ReportRow,
    RunConfig,
    StreamingCovariance,
    calibrated_schedules,
    convergence_curve,
    fit_stream,
    iter_csv_rows,
    load_snapshot,
    run_benchmark,
    save_snapshot,
    top_q_projector,
    write_csv,
    write_curve,
    write_report,
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
    median_objective,
    weiszfeld_median,
)
from .linalg import eigh_descending, frob_norm
from .mcm import MedianCovariationSGD, mcm_objective, weiszfeld_mcm
from .metrics import SummaryStats, eigenspace_error, mc_summary
from .online_pca import OnlineEigenTracker, StreamingRobustPCA, pc_scores
from .simgen import (
    CONTAMINATIONS,
    ScenarioConfig,
    brownian_cov,
    draw_sample,
    gaussian_factor,
    reverse_brownian_cov,
    singular_gaussian_factor,
)

__version__ = "0.1.0"

__all__ = [
    "CONTAMINATIONS",
    "ConfigError",
    "ConvergenceError",
    "CurvePoint",
    "DataError",
    "ESTIMATORS",
    "GeometricMedianSGD",
    "MedcovError",
    "MedianCovariationSGD",
    "NumericalError",
    "OnlineEigenTracker",
    "ReportRow",
    "RunConfig",
    "ScenarioConfig",
    "StepSchedule",
    "StreamingCovariance",
    "StreamingRobustPCA",
    "SummaryStats",
    "brownian_cov",
    "calibrated_schedules",
    "convergence_curve",
    "draw_sample",
    "eigenspace_error",
    "eigh_descending",
    "fit_stream",
    "frob_norm",
    "gaussian_factor",
    "iter_csv_rows",
    "load_snapshot",
    "mc_summary",
    "mcm_objective",
    "median_objective",
    "pc_scores",
    "reverse_brownian_cov",
    "run_benchmark",
    "save_snapshot",
    "singular_gaussian_factor",
    "top_q_projector",
    "weiszfeld_mcm",
    "weiszfeld_median",
    "write_csv",
    "write_curve",
    "write_report",
    "__version__",
]
