"""Order selection and the end-to-end regression fit.

The posterior over nested orders feeds one of two selection rules: the
median probability model (largest degree whose marginal inclusion
probability exceeds one half, the default) or the minimizer of a
predictive squared-error loss whose model term weighs inclusion
probabilities against per-model shrinkage.  The Legendre rows are built
in one buffer with a spare row for the scaled response, and one QR of it,
in place, gives every nested r2, the column means and sums of squares,
and the full-model and selected-order coefficients.  A fit is its
Legendre coefficients: ``predict`` evaluates them with the Legendre
recurrence, and the Bernstein ordinates are derived from them only for
reporting, with a bound on the rounding of that transform.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .basis import _ORDER_CAP, LEGENDRE, PredictorScale, _check_finite, _check_unit, build_design
from .basis import _legendre_rows, max_order
from .gprior import ModelPosterior, OmegaPrior, _factorize_rows, _posterior_from_r2
from .model_space import model_prior
from .transform import TransformPair, build_transform, legendre_to_bernstein

RULE_MPM = "mpm"
RULE_LOSS = "loss"
# The smallest sample a fit takes.
_MIN_SAMPLE = 5


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the selection pipeline; defaults reproduce the headline method.

    The Bayes-factor quadrature has no knob: it is one fixed peak-centred
    rule per order (see :mod:`smoothsel.gprior`).

    Attributes
    ----------
    omega_prior : OmegaPrior
        Mixing distribution over the inverse g-prior scale.
    prior_a, prior_b : float
        Beta hyperparameters of the per-term inclusion prior.
    rule : str
        ``"mpm"`` (median probability model) or ``"loss"`` (minimize the
        predictive loss model term).
    cap : int
        Upper bound on the maximum order; the working bound is
        min(floor(n^(2/3)), cap, d - 1) for d distinct predictor values,
        with a RuntimeWarning when d - 1 binds.  It never exceeds n - 3,
        since floor(n^(2/3)) <= n - 3 for every n >= 5.
    scale : PredictorScale, optional
        Explicit predictor interval; defaults to the data range.
    """

    omega_prior: OmegaPrior = field(default_factory=OmegaPrior.intrinsic)
    prior_a: float = 1.0
    prior_b: float = 1.0
    rule: str = RULE_MPM
    cap: int = _ORDER_CAP
    scale: Optional[PredictorScale] = None

    def __post_init__(self) -> None:
        if self.rule not in (RULE_MPM, RULE_LOSS):
            raise ValueError(f"unknown selection rule: {self.rule!r}")


@dataclass
class FitResult:
    """Fitted curve plus the posterior evidence behind the selected order.

    ``lambda_hat`` holds the Legendre coefficients of the selected model
    (index 0 is the level term), which ``predict`` evaluates; ``eta_hat``
    reports the same curve's Bernstein ordinates, accurate to within
    ``diagnostics["bernstein_error_bound"]``.  ``link`` is ``"identity"`` for
    continuous fits and ``"probit"`` for binary ones, in which case
    ``predict`` returns probabilities.
    """

    selected_order: int
    max_order: int
    posterior: np.ndarray
    lambda_hat: np.ndarray
    eta_hat: np.ndarray
    shrinkage: np.ndarray
    scale: PredictorScale
    rule: str
    omega_prior: Optional[OmegaPrior]
    timing_seconds: float
    link: str = "identity"
    diagnostics: dict = field(default_factory=dict)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the fitted curve (or probability) at new points."""
        design = build_design(x, self.scale, self.selected_order, LEGENDRE)
        values = design.values @ self.lambda_hat
        if self.link == "probit":
            return ndtr(values)
        return values

    def to_dict(self) -> dict:
        def _clean(arr):
            return [None if not np.isfinite(v) else float(v) for v in np.asarray(arr)]

        if self.omega_prior is None:
            # Binary fits use a fixed latent scale instead of a mixture.
            prior = None
        else:
            prior = {"kind": self.omega_prior.kind}
            for name in ("nu", "rho", "a", "b"):
                value = getattr(self.omega_prior, name)
                if value is not None:
                    prior[name] = value
        out = {
            "selected_order": int(self.selected_order),
            "posterior": _clean(self.posterior),
            "lambda": _clean(self.lambda_hat),
            "eta": _clean(self.eta_hat),
            "shrinkage": _clean(self.shrinkage),
            "timing_seconds": float(self.timing_seconds),
            "rule": self.rule,
            "omega_prior": prior,
            "max_order": int(self.max_order),
            "link": self.link,
            "scale": {"a": self.scale.a, "b": self.scale.b},
        }
        diag = {}
        for key, value in self.diagnostics.items():
            if isinstance(value, np.ndarray):
                diag[key] = _clean(value)
            elif isinstance(value, (np.floating, np.integer)):
                diag[key] = value.item()
            else:
                diag[key] = value
        out["diagnostics"] = diag
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def median_probability_order(mp: ModelPosterior) -> int:
    """Largest degree whose marginal inclusion probability exceeds 1/2.

    Returns 0 when no degree clears the threshold (the strict inequality
    makes exact halves drop out, favoring the smaller model).
    """
    return _mpm_order(mp.inclusion)


def _mpm_order(inclusion: np.ndarray) -> int:
    """The median probability rule on an inclusion curve over degrees 1..N."""
    above = np.nonzero(inclusion > 0.5)[0]
    return int(above.max() + 1) if above.size else 0


def _order_bound(x: np.ndarray, cap: int) -> int:
    """Largest order fitted to x: min(floor(n^(2/3)), cap, #distinct - 1).

    It never exceeds n - 3: floor(n^(2/3)) <= n - 3 for every n >= ``_MIN_SAMPLE``.
    """
    bound = max_order(x.size, cap)
    distinct = np.unique(x).size
    if distinct - 1 < bound:
        warnings.warn(
            f"only {distinct} distinct predictor values: the maximum order is "
            f"capped at {distinct - 1}",
            RuntimeWarning,
        )
        bound = distinct - 1
    return bound


def _prepare(x: np.ndarray, y: np.ndarray, config) -> tuple:
    """The input work shared by ``fit`` and ``fit_binary``.

    Coerces x and y to float vectors and checks their lengths, the sample
    size and finiteness; returns them with the scale, x mapped and checked
    into [0, 1], the order bound and the order prior that ``config`` gives.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    y = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    if x.size != y.size:
        raise ValueError(f"x and y lengths differ: {x.size} vs {y.size}")
    if x.size < _MIN_SAMPLE:
        raise ValueError(f"need at least {_MIN_SAMPLE} observations, got {x.size}")
    _check_finite(x, y)
    scale = config.scale or PredictorScale(float(x.min()), float(x.max()))
    n_max = _order_bound(x, config.cap)
    u = _check_unit(scale.to_unit(x))
    prior = model_prior(n_max, config.prior_a, config.prior_b)
    return x, y, scale, u, n_max, prior


def _shrunken_legendre(
    beta: np.ndarray, xi: float, col_means: np.ndarray, ybar: float
) -> np.ndarray:
    """Legendre vector [ybar - xi beta.m, xi beta] of a shrunken prefix model."""
    lam = xi * beta
    return np.concatenate(([ybar - float(lam @ col_means[: lam.size])], lam))


def _bernstein_view(lam: np.ndarray, pair: TransformPair) -> tuple[np.ndarray, float]:
    """Bernstein ordinates eta = Q lam and the bound (k + 2) eps max(|Q| |lam|).

    The forward-error bound of Q lam at order k (Higham, Accuracy and
    Stability, section 3.5), counting Q's own rounding.  Bernstein rows are
    nonnegative and sum to 1, so it also bounds the gap between the curves
    of eta and lam.
    """
    eta = legendre_to_bernstein(lam, pair)
    scale = float(np.max(np.abs(pair.q) @ np.abs(lam)))
    return eta, (pair.order + 2) * np.finfo(float).eps * scale


def predictive_loss(
    mp: ModelPosterior,
    k: int,
    dj: np.ndarray,
    lambda_full: np.ndarray,
    shrunken: bool = True,
) -> float:
    """Model term of the predictive squared-error loss for order k.

    With ``shrunken=True`` this is sum_j (lambda_j d_j)^2 (ptilde_j - xi_k
    gamma_kj)^2; with ``shrunken=False`` the plain-inclusion variant that
    drops the shrinkage factors (whose minimizer is the median probability
    model).
    """
    if not (0 <= k <= mp.max_order):
        raise ValueError(f"order {k} outside [0, {mp.max_order}]")
    dj = np.asarray(dj, dtype=float)
    lambda_full = np.asarray(lambda_full, dtype=float)
    if dj.shape != (mp.max_order,) or lambda_full.shape != (mp.max_order,):
        raise ValueError("dj and lambda_full must have length max_order")
    gamma = (np.arange(1, mp.max_order + 1) <= k).astype(float)
    if shrunken:
        probs = mp.shrunken_inclusion
        xi = mp.shrinkage[k]
    else:
        probs = mp.inclusion
        xi = 1.0
    weights = (lambda_full * dj) ** 2
    return float(np.sum(weights * (probs - xi * gamma) ** 2))


def loss_equivalence_diagnostic(
    mp: ModelPosterior, dj: np.ndarray, lambda_full: np.ndarray
) -> float:
    """sup over orders of |shrunken loss - plain loss|.

    Converges to zero as the sample grows (shrinkage factors tend to 1 and
    the shrunken inclusion curve collapses onto the plain one), which is
    why minimizing either loss selects the same order asymptotically.
    """
    gaps = np.abs(
        _losses(mp, dj, lambda_full, shrunken=True)
        - _losses(mp, dj, lambda_full, shrunken=False)
    )
    return float(np.max(gaps))


def _losses(
    mp: ModelPosterior, dj: np.ndarray, lambda_full: np.ndarray, shrunken: bool
) -> np.ndarray:
    """:func:`predictive_loss` at every order in one broadcast.

    Row k repeats the reference's arithmetic term by term, so the values
    are identical to calling it order by order.
    """
    n_max = mp.max_order
    dj = np.asarray(dj, dtype=float)
    lambda_full = np.asarray(lambda_full, dtype=float)
    if dj.shape != (n_max,) or lambda_full.shape != (n_max,):
        raise ValueError("dj and lambda_full must have length max_order")
    ks = np.arange(n_max + 1)
    gamma = (ks[None, 1:] <= ks[:, None]).astype(float)
    if shrunken:
        probs, xi = mp.shrunken_inclusion, mp.shrinkage
    else:
        probs, xi = mp.inclusion, np.ones(n_max + 1)
    weights = (lambda_full * dj) ** 2
    return np.sum(weights * (probs[None, :] - xi[:, None] * gamma) ** 2, axis=1)


def fit(
    x: np.ndarray, y: np.ndarray, config: FitConfig | None = None
) -> FitResult:
    """Select the smoothing order and fit the Bernstein regression curve.

    Parameters
    ----------
    x : np.ndarray
        Predictor values, length n >= 5; they may all be equal only when
        ``config.scale`` gives the predictor interval.
    y : np.ndarray
        Continuous response, same length.
    config : FitConfig, optional
        Pipeline settings; defaults select by the median probability model
        under the intrinsic omega prior.

    Returns
    -------
    FitResult
        Selected order, posterior over orders, shrunken coefficients in
        both bases, diagnostics, and the wall-clock time of the selection.
        ``diagnostics["stages"]`` splits that time into the seconds spent
        in ``design`` (with the input checks), ``factorization`` (the QR
        and the r2 path), ``quadrature`` (the Bayes factors),
        ``selection`` (with the losses) and ``coefficients``; they sum to
        ``timing_seconds``.  Above 2048 rows the QR runs its blocks on a
        thread pool of a worker per core but one (none on one core); no
        result depends on it.
        ``diagnostics["quadrature_centre"]`` and ``["quadrature_scale"]``
        place each order's Bayes-factor rule in its variable v.
    """
    if config is None:
        config = FitConfig()
    marks = [time.perf_counter()]
    x, y, scale, u, n_max, prior = _prepare(x, y, config)
    n = x.size
    # Legendre rows 0..N and a spare row for y_c / s: the QR factorizes them in place.
    work = _legendre_rows(u, n_max, spare=1)
    marks.append(time.perf_counter())

    factor = _factorize_rows(work, y)
    r2, log1m_r2 = factor.r2(), factor.log1m_r2()
    marks.append(time.perf_counter())

    mp = _posterior_from_r2(n, r2, log1m_r2, prior, config.omega_prior)
    marks.append(time.perf_counter())

    lambda_full = factor.coefficients(n_max)
    # The losses are quadratic in the coefficients.  Selecting on the
    # coefficients divided by 2^e > max|y - ybar| keeps them representable at
    # any response scale; the reported losses are scaled back by 4^e, which
    # is exact, and read inf or 0 where that leaves the float range.
    exp2 = int(np.frexp(factor.scale)[1])
    unit_full = np.ldexp(lambda_full, -exp2)
    unit_losses = _losses(mp, factor.col_ss, unit_full, shrunken=True)
    if config.rule == RULE_MPM:
        selected = median_probability_order(mp)
    else:
        selected = int(np.argmin(unit_losses))
    with np.errstate(over="ignore"):
        losses = np.ldexp(unit_losses, 2 * exp2)
        loss_equivalence = float(
            np.ldexp(loss_equivalence_diagnostic(mp, factor.col_ss / n, unit_full), 2 * exp2)
        )
    marks.append(time.perf_counter())

    beta, xi = factor.coefficients(selected), float(mp.shrinkage[selected])
    lambda_hat = _shrunken_legendre(beta, xi, factor.col_means, factor.ybar)
    eta_hat, eta_bound = _bernstein_view(lambda_hat, build_transform(selected))
    marks.append(time.perf_counter())
    stages = ("design", "factorization", "quadrature", "selection", "coefficients")

    diagnostics = {
        "inclusion": mp.inclusion,
        "shrunken_inclusion": mp.shrunken_inclusion,
        "log_bf": mp.log_bf,
        "r2": mp.r2,
        "loss": losses,
        "loss_equivalence": loss_equivalence,
        "lambda_full": lambda_full,
        "col_means": factor.col_means,
        "ybar": factor.ybar,
        "bernstein_error_bound": eta_bound,
        "quadrature_centre": mp.quadrature_centre,
        "quadrature_scale": mp.quadrature_scale,
        "stages": dict(zip(stages, np.diff(marks).tolist())),
    }
    return FitResult(
        selected_order=selected,
        max_order=n_max,
        posterior=mp.posterior,
        lambda_hat=lambda_hat,
        eta_hat=eta_hat,
        shrinkage=mp.shrinkage,
        scale=scale,
        rule=config.rule,
        omega_prior=config.omega_prior,
        timing_seconds=marks[-1] - marks[0],
        link="identity",
        diagnostics=diagnostics,
    )
