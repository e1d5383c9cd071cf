"""Mixed stochastic/full-gradient optimization for smooth empirical risk
minimization, with projected-gradient baselines and a benchmark harness."""

from .baselines import BaselineConfig, run_gd, run_nag, run_sgd
from .bench import compute_reference_optimum, fit_slope, gen_synthetic
from .core import (DivergenceError, MixedGradConfig, anchor_gradient, run,
                   theory_params)
from .geometry import EpochDomain, project_ball, project_epoch_domain
from .losses import (LEAST_SQUARES, LOGISTIC, Dataset, ProblemInstance,
                     full_objective, loss_grad, loss_value, mean_gradient,
                     save_dataset_csv)
from .oracle import OracleCounters

__all__ = [
    "BaselineConfig", "run_gd", "run_nag", "run_sgd",
    "compute_reference_optimum", "fit_slope", "gen_synthetic",
    "DivergenceError", "MixedGradConfig", "anchor_gradient", "run",
    "theory_params",
    "EpochDomain", "project_ball", "project_epoch_domain",
    "LEAST_SQUARES", "LOGISTIC", "Dataset", "ProblemInstance",
    "full_objective", "loss_grad", "loss_value", "mean_gradient",
    "save_dataset_csv",
    "OracleCounters",
]

__version__ = "0.1.0"
