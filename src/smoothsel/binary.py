"""Order selection for binary responses via a probit latent representation.

A binary observation is y_i = I(v_i > 0) for a latent normal vector v with
mean lambda_0 * 1 and covariance Sigma_k = I + (2n/(k+1)) P_k, where P_k
projects onto the span of the degree-1..k Legendre columns.  The marginal
likelihood of each order is an orthant probability of that normal,
integrated over the flat level lambda_0, and Bayes factors are ratios of
those integrals.

Sigma_k is exactly a rank-k factor model (I + F F' with F carrying the
scaled orthonormalized columns), so the sequential conditional sampler
works in factor space: the k factor coordinates are importance-sampled
from a mode-centered proposal built on a triangular factor of the mode
curvature, and the remaining n coordinates are conditionally independent
given the factors, so their orthant masses multiply analytically into the
weight instead of being sampled one at a time.  Antithetic pairs halve the
variance and every (order, outer-node) pair draws from its own pre-split
seed stream, so estimates are identical under any execution order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import lgamma, pi
from typing import Optional

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr, ndtri

from .basis import (
    BERNSTEIN,
    LEGENDRE,
    DesignMatrix,
    PredictorScale,
    build_design,
    max_order,
)
from .gprior import ModelPosterior
from .model_space import model_prior
from .selector import FitResult, median_probability_order
from .transform import build_transform

_OUTER_NODES = 64
_WINDOW_SD = 8.0
_T_DOF = 7.0
_LAMBDA_BOX = 8.0


@dataclass(frozen=True)
class OrthantSpec:
    """Orthant A_1 x ... x A_n of the latent vector implied by y.

    ``signs[i]`` is +1 where A_i = (0, inf) (y_i = 1) and -1 where
    A_i = (-inf, 0] (y_i = 0).
    """

    signs: np.ndarray
    n: int

    def __post_init__(self) -> None:
        if self.signs.shape != (self.n,):
            raise ValueError("signs length must match n")
        if not np.all(np.abs(self.signs) == 1.0):
            raise ValueError("signs must be +1 or -1")

    @classmethod
    def from_response(cls, y: np.ndarray) -> "OrthantSpec":
        y = np.asarray(y)
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("binary response must contain only 0 and 1")
        signs = 2.0 * np.asarray(y, dtype=float) - 1.0
        return cls(signs=signs, n=signs.size)


@dataclass(frozen=True)
class BinaryBfEstimate:
    """Monte Carlo Bayes factor estimate for one order."""

    log_bf: float
    mc_std_error: float
    n_draws: int
    seed: int


@dataclass(frozen=True)
class BinaryFitConfig:
    """Settings of the binary selection pipeline."""

    prior_a: float = 1.0
    prior_b: float = 1.0
    cap: int = 60
    mc_draws: int = 4000
    seed: int = 0
    scale: Optional[PredictorScale] = None

    def __post_init__(self) -> None:
        if self.mc_draws < 1000:
            raise ValueError(f"mc_draws must be >= 1000, got {self.mc_draws}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def sigma_k(design: DesignMatrix, k: int, n: int | None = None) -> np.ndarray:
    """Latent covariance I + (2n/(k+1)) P_k of the order-k probit model.

    Parameters
    ----------
    design : DesignMatrix
        Legendre design whose degree-1..k columns span the projection.
    k : int
        Model order, >= 1.
    n : int, optional
        Sample size; defaults to the design row count.

    Returns
    -------
    np.ndarray
        Symmetric positive definite (n, n) matrix with eigenvalues 1
        (multiplicity n - k) and 1 + 2n/(k+1) (multiplicity k).
    """
    if design.basis != LEGENDRE:
        raise ValueError("sigma_k requires a Legendre design")
    if k < 1 or k > design.order:
        raise ValueError(f"k={k} outside [1, {design.order}]")
    if n is None:
        n = design.n
    basis = _orthonormal_columns(design, k)
    c = 2.0 * n / (k + 1.0)
    out = c * (basis @ basis.T)
    out[np.diag_indices_from(out)] += 1.0
    return out


def _orthonormal_columns(design: DesignMatrix, k: int) -> np.ndarray:
    cols = design.values[:, 1 : k + 1]
    q, r = np.linalg.qr(cols)
    diag = np.abs(np.diag(r))
    norms = np.sqrt((cols**2).sum(axis=0))
    bad = np.nonzero(diag <= 1e-12 * np.maximum(norms, 1.0))[0]
    if bad.size:
        raise ValueError(
            f"rank-deficient design: degree-{bad[0] + 1} column is numerically "
            f"collinear with the lower-degree columns"
        )
    return q


def _mills(t: np.ndarray) -> np.ndarray:
    # phi(t) / Phi(t), stable far into the left tail via log differencing.
    log_pdf = -0.5 * t * t - 0.5 * np.log(2.0 * pi)
    return np.exp(log_pdf - log_ndtr(t))


def _gl_window(center: float, half_width: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    nodes = center + half_width * x
    weights = half_width * w
    return nodes, weights


def _base_profile(spec: OrthantSpec) -> tuple[float, float]:
    """Mode and Laplace sd of the base-model integrand prod Phi(s lambda0)."""
    s = spec.signs
    lam = float(np.clip(ndtri(np.clip(np.mean(s > 0), 0.01, 0.99)), -3.0, 3.0))
    for _ in range(100):
        t = s * lam
        mills = _mills(t)
        grad = float(np.sum(s * mills))
        curv = float(np.sum(mills * (t + mills)))
        if curv <= 0:
            break
        step = grad / curv
        lam = float(np.clip(lam + step, -_LAMBDA_BOX, _LAMBDA_BOX))
        if abs(step) < 1e-10:
            break
    t = s * lam
    mills = _mills(t)
    curv = float(np.sum(mills * (t + mills)))
    sd = 1.0 / np.sqrt(curv) if curv > 1e-12 else 4.0
    return lam, min(sd, 4.0)


def _joint_mode(
    spec: OrthantSpec, loadings: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """Concave maximization of log prod Phi + log phi_k(u) over (lambda0, u).

    Returns the mode, the factor-block curvature G = F' W F + I, the
    linear response d u_hat / d lambda0, and the Laplace sd of lambda0.
    """
    s = spec.signs
    f = loadings
    k = f.shape[1]
    lam = float(np.clip(ndtri(np.clip(np.mean(s > 0), 0.01, 0.99)), -3.0, 3.0))
    u = np.zeros(k)

    def value(lam_, u_):
        t = s * (lam_ + f @ u_)
        return float(np.sum(log_ndtr(t)) - 0.5 * u_ @ u_)

    cur = value(lam, u)
    for _ in range(100):
        t = s * (lam + f @ u)
        mills = _mills(t)
        w = mills * (t + mills)
        grad_lam = float(np.sum(s * mills))
        grad_u = f.T @ (s * mills) - u
        grad = np.concatenate(([grad_lam], grad_u))
        fw = f * w[:, None]
        neg_h = np.empty((k + 1, k + 1))
        neg_h[0, 0] = np.sum(w)
        neg_h[0, 1:] = neg_h[1:, 0] = fw.sum(axis=0)
        neg_h[1:, 1:] = f.T @ fw + np.eye(k)
        try:
            step = np.linalg.solve(neg_h, grad)
        except np.linalg.LinAlgError:
            break
        alpha = 1.0
        for _ in range(30):
            lam_new = float(np.clip(lam + alpha * step[0], -_LAMBDA_BOX, _LAMBDA_BOX))
            u_new = u + alpha * step[1:]
            new = value(lam_new, u_new)
            if np.isfinite(new) and new >= cur - 1e-12:
                break
            alpha *= 0.5
        lam, u, prev = lam_new, u_new, cur
        cur = new
        if np.linalg.norm(grad) < 1e-9 or abs(cur - prev) < 1e-12:
            break

    t = s * (lam + f @ u)
    mills = _mills(t)
    w = mills * (t + mills)
    fw = f * w[:, None]
    g_mat = f.T @ fw + np.eye(k)
    h_cross = fw.sum(axis=0)
    h_lam = float(np.sum(w))
    # Schur complement of the factor block gives the marginal lambda0 curvature.
    sol = np.linalg.solve(g_mat, h_cross)
    marg = h_lam - float(h_cross @ sol)
    sd = 1.0 / np.sqrt(marg) if marg > 1e-12 else 4.0
    dudlam = -sol
    return lam, u, g_mat, dudlam, min(sd, 4.0)


def _sample_nodes(
    spec: OrthantSpec,
    loadings: np.ndarray,
    lam_nodes: np.ndarray,
    means: np.ndarray,
    chol_cov: np.ndarray,
    log_det_chol: float,
    pairs_per_node: int,
    seed: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Antithetic importance estimates of the orthant mass at each node.

    Returns (log_prob, log_var) per node, where log_var is the log of the
    estimated variance of the per-node probability estimate.
    """
    s = spec.signs
    f = loadings
    dim = f.shape[1]
    n_nodes = lam_nodes.size
    half = pairs_per_node
    draws = 2 * half

    z_all = np.empty((n_nodes, half, dim))
    g_all = np.empty((n_nodes, half))
    for j in range(n_nodes):
        rng = np.random.default_rng([seed, k, j])
        z_all[j] = rng.standard_normal((half, dim))
        g_all[j] = rng.chisquare(_T_DOF, half) / _T_DOF

    scale = z_all / np.sqrt(g_all)[:, :, None]
    offset = scale @ chol_cov.T
    u_plus = means[:, None, :] + offset
    u_minus = means[:, None, :] - offset
    u_all = np.concatenate([u_plus, u_minus], axis=1).reshape(n_nodes * draws, dim)

    lam_rep = np.repeat(lam_nodes, draws)
    t_mat = s[None, :] * (lam_rep[:, None] + u_all @ f.T)
    log_mass = log_ndtr(t_mat).sum(axis=1)
    log_h = (
        log_mass
        - 0.5 * (u_all**2).sum(axis=1)
        - 0.5 * dim * np.log(2.0 * pi)
    )

    d2 = (z_all**2).sum(axis=2) / g_all  # same for both halves of a pair
    t_const = (
        lgamma((_T_DOF + dim) / 2.0)
        - lgamma(_T_DOF / 2.0)
        - 0.5 * dim * np.log(_T_DOF * pi)
        - log_det_chol
    )
    log_q_half = t_const - 0.5 * (_T_DOF + dim) * np.log1p(d2 / _T_DOF)
    log_q = np.concatenate([log_q_half, log_q_half], axis=1).reshape(-1)

    log_w = (log_h - log_q).reshape(n_nodes, draws)

    shift = np.max(log_w, axis=1, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    w = np.exp(log_w - shift)
    pair_mean = 0.5 * (w[:, :half] + w[:, half:])
    est = pair_mean.mean(axis=1)
    var = np.sum((pair_mean - est[:, None]) ** 2, axis=1) / (half * (half - 1))
    with np.errstate(divide="ignore"):
        log_prob = np.log(est) + shift[:, 0]
        log_var = np.log(var) + 2.0 * shift[:, 0]
    return log_prob, log_var


def orthant_probability(
    spec: OrthantSpec,
    lambda0: float,
    loadings: np.ndarray | None = None,
    n_draws: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimate log P(v in A) for v ~ N(lambda0 * 1, I + F F').

    Parameters
    ----------
    spec : OrthantSpec
        Orthant derived from the binary response.
    lambda0 : float
        Common latent mean.
    loadings : np.ndarray, optional
        (n, k) factor loadings F; None or zero columns means the identity
        covariance, for which the product of Phi terms is exact.
    n_draws : int
        Total Monte Carlo draws (antithetic pairs).
    seed : int
        Seed of the draw stream.

    Returns
    -------
    (log_prob, se_log) : tuple of float
        Log orthant probability and the standard error of the log estimate
        (0 in the exact independent case).
    """
    t = spec.signs * lambda0
    if loadings is None or loadings.shape[1] == 0:
        return float(np.sum(log_ndtr(t))), 0.0
    if loadings.shape[0] != spec.n:
        raise ValueError("loadings row count must match the orthant dimension")
    _, u_hat, g_mat, _, _ = _joint_mode_fixed_lambda(spec, loadings, lambda0)
    chol_g = np.linalg.cholesky(g_mat)
    chol_cov = np.linalg.inv(chol_g).T
    log_det_chol = -float(np.sum(np.log(np.diag(chol_g))))
    half = max(2, n_draws // 2)
    log_prob, log_var = _sample_nodes(
        spec,
        loadings,
        np.asarray([lambda0]),
        u_hat[None, :],
        chol_cov,
        log_det_chol,
        half,
        seed,
        k=loadings.shape[1],
    )
    se_log = float(np.exp(0.5 * log_var[0] - log_prob[0]))
    return float(log_prob[0]), se_log


def _joint_mode_fixed_lambda(
    spec: OrthantSpec, loadings: np.ndarray, lambda0: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """Inner mode over the factors u at one fixed lambda0."""
    s = spec.signs
    f = loadings
    k = f.shape[1]
    u = np.zeros(k)

    def value(u_):
        return float(np.sum(log_ndtr(s * (lambda0 + f @ u_))) - 0.5 * u_ @ u_)

    cur = value(u)
    for _ in range(100):
        t = s * (lambda0 + f @ u)
        mills = _mills(t)
        w = mills * (t + mills)
        grad = f.T @ (s * mills) - u
        g_mat = f.T @ (f * w[:, None]) + np.eye(k)
        step = np.linalg.solve(g_mat, grad)
        alpha = 1.0
        for _ in range(30):
            u_new = u + alpha * step
            new = value(u_new)
            if np.isfinite(new) and new >= cur - 1e-12:
                break
            alpha *= 0.5
        u, prev = u_new, cur
        cur = new
        if np.linalg.norm(grad) < 1e-9 or abs(cur - prev) < 1e-12:
            break
    t = s * (lambda0 + f @ u)
    mills = _mills(t)
    w = mills * (t + mills)
    g_mat = f.T @ (f * w[:, None]) + np.eye(k)
    return lambda0, u, g_mat, np.zeros(k), 0.0


def _log_base_integral(spec: OrthantSpec) -> float:
    lam_hat, sd = _base_profile(spec)
    nodes, weights = _gl_window(lam_hat, _WINDOW_SD * sd, _OUTER_NODES)
    vals = log_ndtr(spec.signs[None, :] * nodes[:, None]).sum(axis=1)
    return float(logsumexp(vals + np.log(weights)))


def binary_log_bf(
    y: np.ndarray,
    design: DesignMatrix,
    k: int,
    n_draws: int = 4000,
    seed: int = 0,
) -> BinaryBfEstimate:
    """Monte Carlo log Bayes factor of the order-k probit model vs the base.

    Parameters
    ----------
    y : np.ndarray
        Binary response.
    design : DesignMatrix
        Legendre design of order >= k.
    k : int
        Candidate order; k = 0 short-circuits to log BF 0 exactly.
    n_draws : int
        Total Monte Carlo budget, >= 1000, spread over the outer nodes.
    seed : int
        Master seed; each (order, node) pair gets its own split stream.

    Returns
    -------
    BinaryBfEstimate
        Log Bayes factor, its delta-method standard error, and the
        bookkeeping of the run.
    """
    spec = OrthantSpec.from_response(y)
    if spec.n != design.n:
        raise ValueError(f"response length {spec.n} does not match design rows")
    if n_draws < 1000:
        raise ValueError(f"n_draws must be >= 1000, got {n_draws}")
    if k == 0:
        return BinaryBfEstimate(log_bf=0.0, mc_std_error=0.0, n_draws=0, seed=seed)
    n_ones = int(np.sum(spec.signs > 0))
    if n_ones == 0 or n_ones == spec.n:
        warnings.warn(
            "all-0 or all-1 response: the orthant mass concentrates at extreme "
            "levels and the Bayes factor estimate has high variance",
            RuntimeWarning,
        )

    n = spec.n
    basis = _orthonormal_columns(design, k)
    loadings = np.sqrt(2.0 * n / (k + 1.0)) * basis

    lam_hat, u_hat, g_mat, dudlam, sd = _joint_mode(spec, loadings)
    nodes, weights = _gl_window(lam_hat, _WINDOW_SD * sd, _OUTER_NODES)
    means = u_hat[None, :] + np.outer(nodes - lam_hat, dudlam)
    chol_g = np.linalg.cholesky(g_mat)
    chol_cov = np.linalg.inv(chol_g).T
    log_det_chol = -float(np.sum(np.log(np.diag(chol_g))))

    pairs = max(4, int(np.ceil(n_draws / (2 * _OUTER_NODES))))
    log_prob, log_var = _sample_nodes(
        spec, loadings, nodes, means, chol_cov, log_det_chol, pairs, seed, k
    )

    log_wts = np.log(weights)
    log_num = float(logsumexp(log_wts + log_prob))
    log_var_num = float(logsumexp(2.0 * log_wts + log_var))
    se_log = float(np.exp(0.5 * log_var_num - log_num))

    log_den = _log_base_integral(spec)
    return BinaryBfEstimate(
        log_bf=log_num - log_den,
        mc_std_error=se_log,
        n_draws=2 * pairs * _OUTER_NODES,
        seed=seed,
    )


def _probit_mle(
    b_mat: np.ndarray, y: np.ndarray, ridge: float = 0.0
) -> np.ndarray | None:
    """Newton probit fit; None signals separation/non-convergence."""
    s = 2.0 * np.asarray(y, dtype=float) - 1.0
    p = b_mat.shape[1]
    beta = np.zeros(p)
    eye = np.eye(p)
    for _ in range(60):
        fvals = b_mat @ beta
        if np.max(np.abs(fvals)) > 20.0:
            return None
        t = s * fvals
        mills = _mills(t)
        w = mills * (t + mills)
        grad = b_mat.T @ (s * mills) - ridge * beta
        hess = b_mat.T @ (b_mat * w[:, None]) + ridge * eye
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return None
        beta = beta + step
        if np.linalg.norm(grad) < 1e-8 * max(1.0, np.linalg.norm(beta)):
            return beta
    return None


def fit_binary(
    x: np.ndarray, y: np.ndarray, config: BinaryFitConfig | None = None
) -> FitResult:
    """Select the order and fit a probit Bernstein curve to binary data.

    Parameters
    ----------
    x : np.ndarray
        Predictor values.
    y : np.ndarray
        Binary response in {0, 1}; constant responses are rejected.
    config : BinaryFitConfig, optional
        Monte Carlo budget, seed, model prior and order cap.

    Returns
    -------
    FitResult
        With ``link="probit"``: ``predict`` returns success probabilities,
        ``eta_hat`` holds the maximum likelihood Bernstein coefficients of
        the selected order (ridge-stabilized under separation), and the
        diagnostics carry the per-order Monte Carlo standard errors.
    """
    import time as _time

    if config is None:
        config = BinaryFitConfig()
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    y_arr = np.atleast_1d(np.asarray(y)).ravel()
    if x.size != y_arr.size:
        raise ValueError(f"x and y lengths differ: {x.size} vs {y_arr.size}")
    spec = OrthantSpec.from_response(y_arr)
    n_ones = int(np.sum(spec.signs > 0))
    if n_ones == 0 or n_ones == spec.n:
        warnings.warn("constant binary response carries no order information", RuntimeWarning)
        raise ValueError("constant binary response: every orthant is one-sided")
    if x.size < 5:
        raise ValueError(f"need at least 5 observations, got {x.size}")

    start = _time.perf_counter()
    scale = config.scale or PredictorScale(float(x.min()), float(x.max()))
    n = x.size
    n_max = min(max_order(n, config.cap), n - 3)
    design = build_design(x, scale, n_max, LEGENDRE)
    prior = model_prior(n_max, config.prior_a, config.prior_b)

    log_bf = np.zeros(n_max + 1)
    mc_se = np.zeros(n_max + 1)
    for k in range(1, n_max + 1):
        est = binary_log_bf(y_arr, design, k, n_draws=config.mc_draws, seed=config.seed)
        log_bf[k] = est.log_bf
        mc_se[k] = est.mc_std_error

    log_post = log_bf + prior.log_probs
    log_post -= logsumexp(log_post)
    posterior = np.exp(log_post)
    posterior /= posterior.sum()
    tail = np.cumsum(posterior[::-1])[::-1]
    inclusion = tail[1:].copy()

    mp = ModelPosterior(
        max_order=n_max,
        n=n,
        log_bf=log_bf,
        posterior=posterior,
        inclusion=inclusion,
        shrinkage=np.ones(n_max + 1),
        shrunken_inclusion=inclusion.copy(),
        r2=np.zeros(n_max + 1),
        excluded=(),
    )
    selected = median_probability_order(mp)

    bern = build_design(x, scale, selected, BERNSTEIN)
    eta_hat = _probit_mle(bern.values, y_arr)
    if eta_hat is None:
        ridge = 1e-3 * n
        warnings.warn(
            f"separation in the order-{selected} probit refit; applying a "
            f"ridge penalty {ridge:g}",
            RuntimeWarning,
        )
        eta_hat = _probit_mle(bern.values, y_arr, ridge=ridge)
        if eta_hat is None:
            raise RuntimeError("probit refit failed even with ridge stabilization")
    pair = build_transform(selected)
    lambda_hat = pair.q_inv @ eta_hat
    elapsed = _time.perf_counter() - start

    return FitResult(
        selected_order=selected,
        max_order=n_max,
        posterior=posterior,
        lambda_hat=lambda_hat,
        eta_hat=eta_hat,
        shrinkage=np.ones(n_max + 1),
        scale=scale,
        rule="mpm",
        omega_prior=None,
        timing_seconds=elapsed,
        link="probit",
        diagnostics={
            "log_bf": log_bf,
            "mc_std_error": mc_se,
            "inclusion": inclusion,
            "mc_draws": config.mc_draws,
            "seed": config.seed,
        },
    )
