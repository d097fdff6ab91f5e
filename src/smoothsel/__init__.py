"""Objective Bayesian order selection for Bernstein polynomial regression.

The package fits nonparametric regression curves as Bernstein polynomials
whose order (degree of smoothness) is chosen by Bayesian model selection
over an equivalent nested family of shifted Legendre models.  Mixtures of
g-priors give closed one-dimensional integrals for the Bayes factors, the
median probability model picks the order, and the fitted curve is kept as
Legendre coefficients and reported in Bernstein form.  Binary responses
are handled through a probit latent variable representation.  The
public surface is the bases and their change of basis, the order prior,
the per-model Bayes factors and posterior, the two fit paths (``fit``,
``fit_binary``) with their selection rules, a cross-validation baseline
and the seeded simulation harness used to benchmark them.
"""

from .basis import (
    BERNSTEIN,
    LEGENDRE,
    DesignMatrix,
    PredictorScale,
    build_design,
    max_order,
)
from .transform import (
    TransformPair,
    build_transform,
    legendre_to_bernstein,
)
from .model_space import ModelPrior, model_prior
from .gprior import (
    ModelFitStats,
    ModelPosterior,
    OmegaPrior,
    fit_stats,
    log_bayes_factor,
    model_posterior,
    shrinkage,
)
from .selector import (
    FitConfig,
    FitResult,
    fit,
    loss_equivalence_diagnostic,
    median_probability_order,
    predictive_loss,
)
from .binary import (
    BinaryBfEstimate,
    BinaryFitConfig,
    OrthantSpec,
    binary_log_bf,
    fit_binary,
    orthant_probability,
)
from .cv import CvResult, cv_select
from .simulation import (
    Scenario,
    SimulationRecord,
    full_order_curve,
    generate,
    mean_poly5,
    mean_pwlinear,
    run_grid,
    sigma_from_snr,
    sup_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BERNSTEIN",
    "LEGENDRE",
    "PredictorScale",
    "DesignMatrix",
    "build_design",
    "max_order",
    "TransformPair",
    "build_transform",
    "legendre_to_bernstein",
    "ModelPrior",
    "model_prior",
    "OmegaPrior",
    "ModelFitStats",
    "ModelPosterior",
    "fit_stats",
    "log_bayes_factor",
    "shrinkage",
    "model_posterior",
    "FitConfig",
    "FitResult",
    "median_probability_order",
    "predictive_loss",
    "loss_equivalence_diagnostic",
    "fit",
    "OrthantSpec",
    "BinaryBfEstimate",
    "BinaryFitConfig",
    "binary_log_bf",
    "orthant_probability",
    "fit_binary",
    "CvResult",
    "cv_select",
    "Scenario",
    "SimulationRecord",
    "mean_poly5",
    "mean_pwlinear",
    "sigma_from_snr",
    "generate",
    "sup_norm",
    "full_order_curve",
    "run_grid",
    "__version__",
]
