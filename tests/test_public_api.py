"""The package's public surface: exactly these names, each importable."""

import smoothsel

PUBLIC_NAMES = {
    # basis
    "BERNSTEIN",
    "LEGENDRE",
    "PredictorScale",
    "DesignMatrix",
    "build_design",
    "max_order",
    # transform
    "TransformPair",
    "build_transform",
    "legendre_to_bernstein",
    # model_space
    "ModelPrior",
    "model_prior",
    # gprior
    "OmegaPrior",
    "ModelFitStats",
    "ModelPosterior",
    "fit_stats",
    "log_bayes_factor",
    "shrinkage",
    "model_posterior",
    # selector
    "FitConfig",
    "FitResult",
    "median_probability_order",
    "predictive_loss",
    "loss_equivalence_diagnostic",
    "fit",
    # binary
    "OrthantSpec",
    "BinaryBfEstimate",
    "BinaryFitConfig",
    "binary_log_bf",
    "orthant_probability",
    "fit_binary",
    # cv
    "CvResult",
    "cv_select",
    # simulation
    "Scenario",
    "SimulationRecord",
    "mean_poly5",
    "mean_pwlinear",
    "sigma_from_snr",
    "generate",
    "sup_norm",
    "full_order_curve",
    "run_grid",
}


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 41
    assert set(smoothsel.__all__) == PUBLIC_NAMES | {"__version__"}
    assert len(smoothsel.__all__) == len(set(smoothsel.__all__))
    for name in smoothsel.__all__:
        assert getattr(smoothsel, name) is not None, name
