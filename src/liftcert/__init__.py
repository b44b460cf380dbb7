"""Symmetrized tensor lifts of smoothed matrices, spectral certificates,
and a reproducible Monte Carlo experiment harness."""

from .harness import ExperimentConfig, run_experiment
from .spectral import leave_one_out, singular_values
from .tensor_lift import enumerate_multi_indices, khatri_rao, sel_avg, sym_lift, sym_merge
from .varieties import certify, determinantal_operator, separable_operator

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig", "run_experiment",
    "leave_one_out", "singular_values",
    "enumerate_multi_indices", "khatri_rao", "sel_avg", "sym_lift", "sym_merge",
    "certify", "determinantal_operator", "separable_operator",
    "__version__",
]
