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

The orthant-mass kernel, log Phi of every latent coordinate summed per
draw, is nearly all of the work.  Its elementwise ufuncs release the GIL,
so blocks of outer nodes run on a thread pool sized to the cores this
process may run on.  The one matrix product that feeds them, and with it
every BLAS call, stays in the calling thread; each block reads its rows of
that product, so results are identical at any core count.

``fit_binary`` makes one pass per order.  One QR of the design's degree
columns gives every order's F, its first k columns spanning degrees 1..k.
Each order's joint mode and curvature give its Laplace log Bayes factor
(Tierney & Kadane 1986), and Monte Carlo runs only where the posterior has
mass: for orders whose Laplace log posterior lies within ``_SCREEN_NATS``
(30 nats) of the best or of the best Monte Carlo one, centered on that
same mode, with the one base integral as the denominator.  The rest keep
their Laplace value and are marked ``screened``; each carries at most
e^-30 of the posterior, and the fit reports their total as
``screened_mass``.  On criterion-8 data (n = 300) the Laplace value was
within 0.1 nats of the Monte Carlo one for every order within 10 nats of
the best, and at most 1.6 nats off at the highest orders.

One damped-Newton helper finds every mode on this path: it maximizes
sum_i log Phi(s_i (c + (A theta)_i)) - theta' P theta / 2 and reports its
iterations and convergence.  The base level has A = 1, P = 0; the joint
level and factor mode A = [1 | F], P = diag(0, I); the factor mode at a
fixed level A = F, c = lambda_0, P = I.  The probit refit of the selected
order runs on the Legendre design the selection built (A), and the
Bernstein ordinates eta = Q lambda are derived from it for reporting.
Newton is affine invariant, so this matches a Bernstein-design fit, with a
separation ridge on eta carried over as P = ridge * Q'Q.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, pi
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtri

from .basis import _ORDER_CAP, LEGENDRE, DesignMatrix, PredictorScale
from .gprior import _check_rank, _normalized_posterior
from .selector import (
    FitResult,
    _available_cores,
    _bernstein_view,
    _mpm_order,
    _prepare,
)
from .transform import build_transform

_OUTER_NODES = 64
# Outer nodes per block of the orthant-mass kernel; blocks run in parallel.
_NODE_BLOCK = 8
_WINDOW_SD = 8.0
_T_DOF = 7.0
_LAMBDA_BOX = 8.0
# A fitted probit value beyond this many sd means the refit is running off
# to infinity: the data are (quasi-)separated and need a ridge.
_SEPARATION_LIMIT = 20.0
# Orders whose Laplace log posterior lies this far below the best carry at
# most e^-30 of the posterior each; they keep their Laplace Bayes factor.
# The margin dwarfs the measured Laplace error (at most 1.6 nats).
_SCREEN_NATS = 30.0
# The smallest Monte Carlo budget of one order.
_MIN_DRAWS = 1000


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


def _two_sided_orthant(y: np.ndarray) -> OrthantSpec:
    """The orthant of y, which must hold both classes.

    For an all-0 or all-1 response prod Phi(+-lambda_0) -> 1 as the level
    runs off, so every marginal likelihood diverges under the flat level
    prior: such a response raises.
    """
    spec = OrthantSpec.from_response(y)
    if np.unique(spec.signs).size < 2:
        raise ValueError(
            "constant (all-0 or all-1) binary response: the marginal likelihoods "
            "diverge under the flat level prior"
        )
    return spec


@dataclass(frozen=True)
class BinaryBfEstimate:
    """Monte Carlo Bayes factor estimate for one order.

    ``newton_iterations`` and ``newton_converged`` report the search for the
    joint (level, factor) mode that centers the sampler; order 0 needs none.
    """

    log_bf: float
    mc_std_error: float
    n_draws: int
    seed: int
    newton_iterations: int = 0
    newton_converged: bool = True


@dataclass(frozen=True)
class BinaryFitConfig:
    """Settings of the binary selection pipeline."""

    prior_a: float = 1.0
    prior_b: float = 1.0
    cap: int = _ORDER_CAP
    mc_draws: int = 4000
    seed: int = 0
    scale: Optional[PredictorScale] = None

    def __post_init__(self) -> None:
        if self.mc_draws < _MIN_DRAWS:
            raise ValueError(f"mc_draws must be >= {_MIN_DRAWS}, got {self.mc_draws}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def _orthonormal_columns(design: DesignMatrix, k: int) -> np.ndarray:
    """The first k columns of Q in one QR of all the degree columns.

    Only the first k pivots are checked for rank, as in a QR of k columns.
    """
    if design.basis != LEGENDRE:
        raise ValueError("the probit model requires a Legendre design")
    if k < 1 or k > design.order:
        raise ValueError(f"k={k} outside [1, {design.order}]")
    cols = design.values[:, 1:]
    q, r = np.linalg.qr(cols)
    _check_rank(np.diag(r)[:k], np.sqrt((cols[:, :k] ** 2).sum(axis=0)))
    return q[:, :k]


def _loadings(basis: np.ndarray, k: int) -> np.ndarray:
    """Loadings F = sqrt(2n/(k+1)) Q_k of the order-k model, Sigma_k = I + F F'."""
    return np.sqrt(2.0 * basis.shape[0] / (k + 1.0)) * basis[:, :k]


def _mills(t: np.ndarray) -> np.ndarray:
    # phi(t) / Phi(t), stable far into the left tail via log differencing.
    log_pdf = -0.5 * t * t - 0.5 * np.log(2.0 * pi)
    return np.exp(log_pdf - log_ndtr(t))


@lru_cache(maxsize=None)
def _gl_unit(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    return (x + 1.0) / 2.0, w / 2.0


def _gl_window(center: float, half_width: float) -> tuple[np.ndarray, np.ndarray]:
    """The outer Gauss-Legendre rule on [center - half_width, center + half_width]."""
    u, w = _gl_unit(_OUTER_NODES)
    return center + half_width * (2.0 * u - 1.0), 2.0 * half_width * w


class _NewtonMode(NamedTuple):
    """Result of :func:`_newton_mode`."""

    theta: np.ndarray
    value: float  # the objective at theta
    curvature: np.ndarray  # A' W A + P at theta, the negative Hessian
    iterations: int
    converged: bool


def _newton_mode(
    signs: np.ndarray,
    a: np.ndarray,
    penalty: np.ndarray,
    start: np.ndarray,
    offset: float = 0.0,
    level_box: float = np.inf,
    fit_limit: float = np.inf,
    max_iter: int = 100,
) -> _NewtonMode:
    """Maximize sum_i log Phi(s_i (offset + (A theta)_i)) - theta' P theta / 2.

    Damped Newton from ``start``: a step that lowers the objective is halved
    up to 30 times.  Converged once the gradient norm before a step is below
    1e-9 or a step changes the objective by less than 1e-12.  It stops
    unconverged, keeping the last accepted iterate, when every halving
    fails, when the curvature is singular, after ``max_iter`` steps, or
    when a fitted value |offset + (A theta)_i| exceeds ``fit_limit`` (the
    separation signal of an unpenalized fit).  ``level_box`` clips
    theta[0], the latent level, to [-level_box, level_box].
    """

    def objective(theta: np.ndarray) -> tuple[np.ndarray, float]:
        t = signs * (offset + a @ theta)
        return t, float(np.sum(log_ndtr(t)) - 0.5 * theta @ (penalty @ theta))

    def derivatives(t: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mills = _mills(t)
        w = mills * (t + mills)
        grad = a.T @ (signs * mills) - penalty @ theta
        return grad, a.T @ (a * w[:, None]) + penalty

    theta = np.asarray(start, dtype=float)
    t, cur = objective(theta)
    iterations, converged = 0, False
    while iterations < max_iter and np.max(np.abs(t)) <= fit_limit:
        grad, curv = derivatives(t, theta)
        try:
            step = np.linalg.solve(curv, grad)
        except np.linalg.LinAlgError:
            break
        iterations += 1
        for _ in range(30):
            trial = theta + step
            trial[0] = np.clip(trial[0], -level_box, level_box)
            t_new, new = objective(trial)
            if np.isfinite(new) and new >= cur - 1e-12:
                break
            step = 0.5 * step
        else:
            break
        theta, t, prev, cur = trial, t_new, cur, new
        if np.linalg.norm(grad) < 1e-9 or abs(cur - prev) < 1e-12:
            converged = True
            break
    return _NewtonMode(theta, cur, derivatives(t, theta)[1], iterations, converged)


def _level_start(signs: np.ndarray) -> np.ndarray:
    """Probit of the success rate (the base-model level), kept off the box."""
    rate = np.clip(np.mean(signs > 0), 0.01, 0.99)
    return np.array([np.clip(ndtri(rate), -3.0, 3.0)])


def _level_sd(curv: float) -> float:
    """Laplace sd of the level from its (marginal) curvature, capped at 4."""
    return min(1.0 / np.sqrt(curv), 4.0) if curv > 1e-12 else 4.0


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
    # The one BLAS product runs here, in the calling thread: BLAS threads
    # beside the workers would oversubscribe the cores, and every block
    # reading a row slice of one product keeps the results independent of
    # the block split.
    latent = u_all @ f.T
    log_mass = np.empty(n_nodes * draws)

    def block_mass(rows: slice) -> None:
        # Elementwise ufuncs that release the GIL, in place on the block's rows.
        t = latent[rows]
        t += lam_rep[rows, None]
        t *= s
        log_ndtr(t, out=t)
        log_mass[rows] = t.sum(axis=1)

    blocks = [
        slice(j * draws, min(j + _NODE_BLOCK, n_nodes) * draws)
        for j in range(0, n_nodes, _NODE_BLOCK)
    ]
    workers = min(_available_cores(), len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block_mass, blocks))
    else:
        for rows in blocks:
            block_mass(rows)
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


def _proposal(curvature: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale L^-T of the t proposal for curvature L L', and log det L^-T."""
    chol_g = np.linalg.cholesky(curvature)
    return np.linalg.inv(chol_g).T, -float(np.sum(np.log(np.diag(chol_g))))


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
    k = loadings.shape[1]
    mode = _newton_mode(spec.signs, loadings, np.eye(k), np.zeros(k), offset=lambda0)
    log_prob, log_var = _sample_nodes(
        spec, loadings, np.asarray([lambda0]), mode.theta[None, :],
        *_proposal(mode.curvature), max(2, n_draws // 2), seed, k,
    )
    se_log = float(np.exp(0.5 * log_var[0] - log_prob[0]))
    return float(log_prob[0]), se_log


def _log_base_integral(spec: OrthantSpec) -> float:
    """Log of the integral of prod Phi(s lambda0) over the flat level."""
    mode = _newton_mode(
        spec.signs,
        np.ones((spec.n, 1)),
        np.zeros((1, 1)),
        _level_start(spec.signs),
        level_box=_LAMBDA_BOX,
    )
    sd = _level_sd(float(mode.curvature[0, 0]))
    nodes, weights = _gl_window(float(mode.theta[0]), _WINDOW_SD * sd)
    vals = log_ndtr(spec.signs[None, :] * nodes[:, None]).sum(axis=1)
    return float(logsumexp(vals + np.log(weights)))


def _joint_mode(spec: OrthantSpec, loadings: np.ndarray) -> _NewtonMode:
    """The joint (level, factor) mode of the order-k orthant integral.

    It maximizes sum_i log Phi(s_i (lambda_0 + (F u)_i)) - |u|^2 / 2, the
    log integrand up to the normal constant of u, for the (n, k) loadings F.
    """
    k = loadings.shape[1]
    penalty = np.eye(k + 1)
    penalty[0, 0] = 0.0
    return _newton_mode(
        spec.signs,
        np.column_stack([np.ones(spec.n), loadings]),
        penalty,
        np.concatenate([_level_start(spec.signs), np.zeros(k)]),
        level_box=_LAMBDA_BOX,
    )


def _laplace_log_num(mode: _NewtonMode) -> float:
    """Laplace approximation of the log orthant integral at a joint mode.

    The integrand over (lambda_0, u) is exp(objective) (2 pi)^(-k/2); its
    Gaussian volume (2 pi)^((k+1)/2) det(curvature)^(-1/2) leaves one
    factor (2 pi)^(1/2).
    """
    log_det = np.linalg.slogdet(mode.curvature)[1]
    return float(mode.value + 0.5 * np.log(2.0 * pi) - 0.5 * log_det)


def _mc_log_num(
    spec: OrthantSpec, loadings: np.ndarray, mode: _NewtonMode, n_draws: int, seed: int
) -> tuple[float, float, int]:
    """Monte Carlo log orthant integral of one order, centered on its joint mode.

    Returns it, the delta-method standard error of the log, and the draws
    spent: whole antithetic pairs per outer node, at least ``n_draws``.
    """
    lam_hat, u_hat = float(mode.theta[0]), mode.theta[1:]
    g_mat = mode.curvature[1:, 1:]
    h_cross = mode.curvature[0, 1:]
    # Schur complement of the factor block gives the marginal lambda0
    # curvature; -sol is the linear response d u_hat / d lambda0.
    sol = np.linalg.solve(g_mat, h_cross)
    sd = _level_sd(float(mode.curvature[0, 0] - h_cross @ sol))
    nodes, weights = _gl_window(lam_hat, _WINDOW_SD * sd)
    means = u_hat[None, :] - np.outer(nodes - lam_hat, sol)
    pairs = max(4, int(np.ceil(n_draws / (2 * _OUTER_NODES))))
    log_prob, log_var = _sample_nodes(
        spec, loadings, nodes, means, *_proposal(g_mat), pairs, seed, loadings.shape[1]
    )

    log_wts = np.log(weights)
    log_num = float(logsumexp(log_wts + log_prob))
    log_var_num = float(logsumexp(2.0 * log_wts + log_var))
    se_log = float(np.exp(0.5 * log_var_num - log_num))
    return log_num, se_log, 2 * pairs * _OUTER_NODES


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
        Binary response with both classes present.
    design : DesignMatrix
        Legendre design of order >= k.
    k : int
        Candidate order, >= 0; k = 0 short-circuits to log BF 0 exactly.
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
    spec = _two_sided_orthant(y)
    if spec.n != design.n:
        raise ValueError(f"response length {spec.n} does not match design rows")
    if n_draws < _MIN_DRAWS:
        raise ValueError(f"n_draws must be >= {_MIN_DRAWS}, got {n_draws}")
    if k < 0:
        raise ValueError(f"k={k} outside [0, {design.order}]")
    if k == 0:
        return BinaryBfEstimate(log_bf=0.0, mc_std_error=0.0, n_draws=0, seed=seed)

    loadings = _loadings(_orthonormal_columns(design, k), k)
    mode = _joint_mode(spec, loadings)
    log_num, se_log, draws = _mc_log_num(spec, loadings, mode, n_draws, seed)
    return BinaryBfEstimate(
        log_bf=log_num - _log_base_integral(spec), mc_std_error=se_log, n_draws=draws,
        seed=seed, newton_iterations=mode.iterations, newton_converged=mode.converged,
    )


def fit_binary(
    x: np.ndarray, y: np.ndarray, config: BinaryFitConfig | None = None
) -> FitResult:
    """Select the order and fit a probit Bernstein curve to binary data.

    Parameters
    ----------
    x : np.ndarray
        Predictor values, length n >= 5.  ``x`` and ``y`` pass the same
        checks as in :func:`smoothsel.selector.fit`, which also resolves
        the scale, order bound, design and order prior of both fits.
    y : np.ndarray
        Binary response in {0, 1}; constant responses are rejected.
    config : BinaryFitConfig, optional
        Monte Carlo budget, seed, model prior and order cap.

    Returns
    -------
    FitResult
        With ``link="probit"``: ``lambda_hat`` holds the maximum
        likelihood Legendre coefficients of the selected order
        (ridge-stabilized under separation), ``predict`` returns success
        probabilities, ``eta_hat`` reports the same curve's Bernstein
        ordinates.  The diagnostics carry, per order: ``log_bf`` (Monte
        Carlo, or Laplace where screened), ``laplace_log_bf``,
        ``screened`` (never order 0), ``mc_std_error`` (0.0 where
        screened) and the Newton iteration counts and convergence flags
        of each order's joint mode.  Per fit: ``screened_mass``,
        the Laplace posterior mass of the screened orders, at most
        N e^-30; the refit's Newton count and flag; the Bernstein error
        bound; and ``stages``, the seconds spent in ``design`` (with
        the input checks), ``laplace``, ``monte_carlo`` (with the
        selection) and ``refit``, which sum to ``timing_seconds``.

    Notes
    -----
    Every order is scored by its Laplace log Bayes factor first; Monte
    Carlo runs only for orders whose Laplace log posterior is within 30
    nats of the best, plus any screened order within 30 nats of the best
    Monte Carlo log posterior.  A kept order's ``log_bf``, ``mc_std_error``
    and Newton count equal those of ``binary_log_bf`` on the fit's own
    design; the fit runs its QR and each joint mode once.  The Monte Carlo
    orthant-mass kernel of each order runs on the cores this process
    may run on, with BLAS kept in the calling thread; the results are
    identical at any core count.
    """
    if config is None:
        config = BinaryFitConfig()
    marks = [time.perf_counter()]
    x, y, scale, design, prior = _prepare(x, y, config)
    spec = _two_sided_orthant(y)
    n, n_max = x.size, design.order
    marks.append(time.perf_counter())

    log_den = _log_base_integral(spec)
    basis = _orthonormal_columns(design, n_max) if n_max else None
    modes = [_joint_mode(spec, _loadings(basis, k)) for k in range(1, n_max + 1)]
    laplace_log_bf = np.array([0.0] + [_laplace_log_num(m) - log_den for m in modes])
    marks.append(time.perf_counter())

    log_bf = laplace_log_bf.copy()
    mc_se = np.zeros(n_max + 1)
    screened = np.ones(n_max + 1, dtype=bool)
    screened[0] = False
    laplace_post = laplace_log_bf + prior.log_probs
    best = laplace_post.max()
    # Monte Carlo for every order within the margin of the best; a second
    # round catches orders that come within it of the best Monte Carlo value.
    while True:
        todo = np.flatnonzero(screened & (laplace_post >= best - _SCREEN_NATS))
        if todo.size == 0:
            break
        for k in todo:
            log_num, mc_se[k], _ = _mc_log_num(
                spec, _loadings(basis, k), modes[k - 1], config.mc_draws, config.seed
            )
            log_bf[k] = log_num - log_den
            screened[k] = False
        best = float(np.max(log_bf + prior.log_probs))
    posterior, inclusion = _normalized_posterior(log_bf + prior.log_probs)
    selected = _mpm_order(inclusion)
    marks.append(time.perf_counter())

    pair = build_transform(selected)

    def refit_with(ridge: float) -> _NewtonMode:
        # A ridge on the Bernstein ordinates eta = Q lambda is ridge * Q'Q.
        return _newton_mode(
            spec.signs, design.values[:, : selected + 1], ridge * (pair.q.T @ pair.q),
            np.zeros(selected + 1), fit_limit=_SEPARATION_LIMIT,
        )

    refit = refit_with(0.0)
    if not refit.converged:
        ridge = 1e-3 * n
        warnings.warn(
            f"separation in the order-{selected} probit refit; applying a "
            f"ridge penalty {ridge:g}",
            RuntimeWarning,
        )
        refit = refit_with(ridge)
        if not refit.converged:
            raise RuntimeError("probit refit failed even with ridge stabilization")
    lambda_hat = refit.theta
    eta_hat, eta_bound = _bernstein_view(lambda_hat, pair)
    marks.append(time.perf_counter())
    stages = dict(zip(("design", "laplace", "monte_carlo", "refit"), np.diff(marks).tolist()))

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
        timing_seconds=marks[-1] - marks[0],
        link="probit",
        diagnostics={
            "log_bf": log_bf,
            "mc_std_error": mc_se,
            "inclusion": inclusion,
            "mc_draws": config.mc_draws,
            "seed": config.seed,
            "laplace_log_bf": laplace_log_bf,
            "screened": screened.tolist(),
            "screened_mass": float(posterior[screened].sum()),
            "newton_iterations": [0] + [m.iterations for m in modes],
            "newton_converged": [True] + [m.converged for m in modes],
            "refit_newton_iterations": refit.iterations,
            "refit_newton_converged": refit.converged,
            "bernstein_error_bound": eta_bound,
            "stages": stages,
        },
    )
