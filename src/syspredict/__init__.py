"""Failure-time prediction for coherent systems observed at early component failures.

The pipeline: describe a system by its minimal path sets, couple the
component lifetimes with a survival copula, build the distortion functions
that express system survival through the marginal survival value, condition
on observed early failure times, and invert the conditional survival law
into medians, quantiles, and prediction bands.  Monte Carlo helpers sample
from the same copulas to validate the laws and to run coverage experiments.
"""

from .copula import ClaytonPairCopula, FGMCopula, ProductCopula, SurvivalCopula
from .distortion import BivariateDistortion, TrivariateDistortion, UnivariateDistortion
from .errors import SysPredictError
from .marginal import Exponential, Weibull
from .montecarlo import (
    ConditionalCheck,
    CoverageReport,
    OrderingReport,
    SampleSet,
    components_from_uniforms,
    coverage_experiment,
    coverage_table,
    empirical_conditional_check,
    sample_components,
    simulate,
    survival_uniforms,
    survival_uniforms_numeric,
    verify_ordering,
)
from .predictor import (
    EarlyFailurePredictor,
    PredictionBand,
    TwoFailurePredictor,
    kofn_quantile_factor,
    kofn_survival,
    system_mean,
)
from .qr import FittedLine, detect_crossings, fit_lqr, fit_ols, pinball_loss
from .structure import (
    SystemStructure,
    k_out_of_n,
    parallel,
    series,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "BivariateDistortion",
    "ClaytonPairCopula",
    "ConditionalCheck",
    "CoverageReport",
    "EarlyFailurePredictor",
    "Exponential",
    "FGMCopula",
    "FittedLine",
    "OrderingReport",
    "PredictionBand",
    "ProductCopula",
    "SampleSet",
    "SurvivalCopula",
    "SysPredictError",
    "SystemStructure",
    "TrivariateDistortion",
    "TwoFailurePredictor",
    "UnivariateDistortion",
    "Weibull",
    "components_from_uniforms",
    "coverage_experiment",
    "coverage_table",
    "detect_crossings",
    "empirical_conditional_check",
    "fit_lqr",
    "fit_ols",
    "k_out_of_n",
    "kofn_quantile_factor",
    "kofn_survival",
    "parallel",
    "pinball_loss",
    "sample_components",
    "series",
    "simulate",
    "survival_uniforms",
    "survival_uniforms_numeric",
    "system_mean",
    "validate_structure",
    "verify_ordering",
    "__version__",
]
