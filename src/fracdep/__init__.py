"""Dependence structure of fractional Poisson and negative binomial processes.

Exact and asymptotic moments, covariances and correlation decay of the
fractional Poisson process (FPP), its increments (FPN), the fractional
negative binomial process (FNBP) and its increments (FNBN); seeded
subordinator-based simulation; power-law exponent fitting and LRD/SRD
classification.
"""

from .analytic import (AsymptoticValue, FnbpParams, FppParams, GammaParams,
                       NoiseParams, classify_exponent)
from .errors import (ConvergenceError, DomainError, GridError, NumericalError,
                     ResourceCapError)
from .estimate import (CorrelationCurve, DeltaTable, ExponentFit,
                       MonteCarloEstimate, analytic_curve, delta_empirical,
                       fit_power_law, mc_correlation, mc_marginal_moments)
from .sim import (PathSpec, SamplePath, Seed, increment_path, sample_batch,
                  sample_process_path)
from .specfun import QuadConfig, adaptive_quad

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AsymptoticValue", "FppParams", "GammaParams", "FnbpParams", "NoiseParams",
    "classify_exponent",
    "QuadConfig", "adaptive_quad",
    "Seed", "SamplePath", "PathSpec", "sample_batch", "sample_process_path",
    "increment_path",
    "CorrelationCurve", "ExponentFit", "DeltaTable", "MonteCarloEstimate",
    "analytic_curve", "mc_correlation", "mc_marginal_moments",
    "fit_power_law", "delta_empirical",
    "DomainError", "ConvergenceError", "NumericalError", "ResourceCapError",
    "GridError",
]
