"""Order selection for binary responses via a probit latent representation.

A binary observation is y_i = I(v_i > 0) for a latent normal vector
v = lambda_0 1 + Q_k w + e, e ~ N(0, I), with a flat level lambda_0, the
first k columns Q_k of the orthonormalized degree-1..N Legendre columns,
and the g-prior w ~ N(0, g_k I), g_k = 2n/(k+1) (Zellner 1986; the
latent probit of Albert & Chib 1993).  Order k's marginal likelihood is
the orthant probability of v integrated over the level, and Bayes
factors are ratios of those integrals.

Given theta = (lambda_0, w) the latent coordinates are independent, so
their orthant masses multiply.  With the orthant's signs s folded into
A_N = [s | s Q_N], built once per fit from one QR of the degree columns,
the order-k integral is (2 pi g_k)^(-k/2) times that of
exp(sum_i log Phi((A_k theta)_i) - theta' P_k theta / 2) over theta, for
the leading k + 1 columns A_k of A_N and P_k = diag(0, I / g_k).
Order 0, the base model, is the level alone.  Orders 1-6 take an
adaptive Gauss-Hermite rule around the integrand's Newton mode, scaled by
a triangular factor of the mode curvature: orders 1-3 the product rule of
5 nodes a coordinate, orders 4-6 the level-4 Smolyak sparse grid of the
1-, 3-, 5- and 7-node rules, 341 to 785 nodes.  Its error estimate is the
change from the 3-node product rule or the level-3 grid, on the same
nodes, and exceeded the level-5 grid's change on criterion-8 data
(``CHANGES.md``).  An order whose rule sums to a non-positive value is
sampled instead.  One importance sampler serves every higher order
(Geweke 1989): antithetic pairs of multivariate t draws, centred and
scaled the same way.  Each order draws from its own seed stream, keyed by
the seed and the order, so estimates are identical under any execution
order.

The orthant-mass kernel is nearly all of the work.  Each draw's log mass
is a sum of logs of partial products of Phi over its latent coordinates,
64 coordinates to a product: one ``ndtr`` per coordinate and one log per
64.  A partial product below the smallest normal float, which is rare
(see ``_MASS_CHUNK``), takes the sum of ``log_ndtr`` over its
coordinates instead.  Each draw's log mass differs from the ``log_ndtr``
row sum by about 2 n eps plus a few ulps of the log mass: within 1e-12
at n = 300.  The elementwise ufuncs release the GIL, so a kernel call
given a thread pool cuts its draws into near-equal parts, one per core
but none under ``_MIN_PART_ROWS`` (256) rows, which the calling thread
and the pool's workers take from one queue.  One pool, of one worker per
core but one, serves a whole ``fit_binary`` call; ``binary_log_bf`` and
``orthant_probability`` open one per call, and on one core none.  The
kernel's BLAS product stays in the calling thread, on a design padded to
whole chunks, so results are identical at any pool size and any BLAS
thread count (see :func:`_log_orthant_mass`).

``fit_binary`` finds the modes in one chain over the nested orders, each
started from the mode of the order below with a zero appended.  Once the
chain has the modes of orders 0-6, a worker of the fit's pool continues
it through the top order, with the Laplace numerators of orders 7 and
above, while the calling thread computes the base integral and the rules
of orders 1-6, each as one kernel call.  Each order's mode and curvature
give its Laplace log Bayes factor (Tierney & Kadane 1986).  The
denominator, the base integral over the level alone, uses the fixed sinh
rule of the Gaussian path around the order-0 mode.  Orders above 6 start
screened, and Monte Carlo runs, centred on the same modes, until e^c
times the Laplace posterior mass of the screened orders, over the mass of
the rest, is at most ``_SCREEN_TOL`` (1e-6); the screened orders keep
their Laplace value.  The slack c = ``_LAPLACE_SLACK`` (4.5 nats) bounds
how far the Laplace value falls short of the Monte Carlo one.  It covers
the largest shortfall measured, 4.11 nats at a high order of a ``poly5``
probit at n = 1000, which ``tests/test_binary.py`` pins with the
criterion-8 and ``pwlinear`` cases (the others are in ``CHANGES.md``).

Monte Carlo draws come in two levels: ``mc_draws`` for an order whose
posterior share is at least ``_FULL_DRAW_MASS`` (1e-3) when visited, or
reaches it by the end (re-run then from its own stream and cached mode),
and ``_MIN_DRAWS`` (1000) for the rest; ``mc_draws = 1000`` gives the
one-level fit.  An order of posterior p whose log value has standard
error s moves each inclusion probability by about p s (the delta method
of ``inclusion_se``), so below 1e-3 the 1000-draw orders move it far
less than the MPM margins (``CHANGES.md``).

One damped-Newton helper finds every mode on this path: it maximizes
sum_i log Phi(c_i + (A theta)_i) - theta' P theta / 2 and reports its
iterations and convergence.  Order k has A = A_k, c = 0, P = P_k;
``orthant_probability``, whose loadings F are not nested, has A = s F,
c = s lambda_0, P = I.  The probit refit of the selected order runs on
the signed Legendre design the selection built (A = s X), and the
Bernstein ordinates eta = Q lambda are derived from it for reporting.
Newton is affine invariant, so this matches a Bernstein-design fit, with a
separation ridge on eta carried over as P = ridge * Q'Q.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import Executor
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, pi
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import log_ndtr, ndtr, ndtri

from .basis import _ORDER_CAP, LEGENDRE, DesignMatrix, PredictorScale, _legendre_rows
from .gprior import (
    _available_cores,
    _check_rank,
    _logsumexp,
    _normalized_posterior,
    _share,
    _sinh_rule,
    _thread_pool,
)
from .selector import FitResult, _bernstein_view, _mpm_order, _prepare
from .transform import build_transform

# The fewest draws in one part of a split orthant-mass kernel call.
_MIN_PART_ROWS = 256
# Latent coordinates per partial product of the orthant-mass kernel.  A
# product of 64 Phi values falls below the smallest normal float only if
# their logs average below -11 (latent values near -4.2 sd throughout) or
# one coordinate lies beyond about -37 sd, whatever n is.
_MASS_CHUNK = 64
_T_DOF = 7.0
_LAMBDA_BOX = 8.0
# A fitted probit value beyond this many sd means the refit is running off
# to infinity: the data are (quasi-)separated and need a ridge.
_SEPARATION_LIMIT = 20.0
# Screening budget: Monte Carlo stops once e^_LAPLACE_SLACK times the Laplace
# posterior mass of the screened orders, over the mass of the rest, is at
# most _SCREEN_TOL, far below the ~1% Monte Carlo noise of a fit.  The slack
# covers the largest measured Laplace under-estimate of a log Bayes factor
# (4.11 nats; see the module docstring).
_SCREEN_TOL = 1e-6
_LAPLACE_SLACK = 4.5
# The smallest Monte Carlo budget of one order, and all that fit_binary
# spends on an order whose posterior share stays below _FULL_DRAW_MASS.
_MIN_DRAWS = 1000
_FULL_DRAW_MASS = 1e-3
# Orders with k + 1 <= _GRID_DIM take the _GRID_NODES-point product rule, the
# rest up to _SPARSE_DIM the Smolyak rule of level _SPARSE_LEVEL (past 7
# dimensions it costs more than _MIN_DRAWS draws and is less accurate).
_GRID_DIM = 4
_GRID_NODES = 5
_SPARSE_DIM = 7
_SPARSE_LEVEL = 4


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
    """Bayes factor estimate for one order.

    ``n_draws`` counts the importance draws spent on the order's integral
    over theta = (lambda_0, w): whole antithetic pairs, at least the budget
    asked for (0 for orders 0-6, which need no sampling; at 1-6
    ``mc_std_error`` is the deterministic rule's error estimate).
    ``newton_iterations`` and ``newton_converged`` report the search for the
    order-k mode that centers the rule or the sampler; order 0 needs none.
    """

    log_bf: float
    mc_std_error: float
    n_draws: int
    seed: int
    newton_iterations: int = 0
    newton_converged: bool = True


@dataclass(frozen=True)
class BinaryFitConfig:
    """Settings of the binary selection pipeline.

    ``mc_draws`` (>= 1000) is the draw budget of a Monte Carlo order (k >= 7)
    whose posterior share is at least 1e-3; one below that share draws 1000.
    """

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


def _signed_design(spec: OrthantSpec, design: DesignMatrix, k: int) -> np.ndarray:
    """A_N = [s | s Q_N] from one QR of all the degree columns.

    Order j reads its leading j + 1 columns.  Only the first k pivots are
    checked for rank, as in a QR of k columns, so orders up to k are valid.
    """
    cols = design.values[:, 1:]
    q, r = np.linalg.qr(cols)
    _check_rank(np.diag(r)[:k], np.sqrt((cols[:, :k] ** 2).sum(axis=0)))
    # Canonical signs, diag(R) >= 0, so a row permutation flips no column of Q.
    q *= np.where(np.diag(r) < 0, -1.0, 1.0)
    return spec.signs[:, None] * np.column_stack([np.ones(spec.n), q])


def _g_prior(n: int, k: int) -> tuple[np.ndarray, float]:
    """P_k = diag(0, I / g_k) and log (2 pi g_k)^(-k/2), for g_k = 2n/(k+1).

    The level is flat and w ~ N(0, g_k I): exp(-theta' P_k theta / 2) is
    the prior density of theta = (lambda_0, w) up to that normal constant.
    """
    g = 2.0 * n / (k + 1.0)
    return np.diag(np.r_[0.0, np.full(k, 1.0 / g)]), -0.5 * k * np.log(2.0 * pi * g)


class _NewtonMode(NamedTuple):
    """Result of :func:`_newton_mode`."""

    theta: np.ndarray
    value: float  # the objective at theta
    curvature: np.ndarray  # A' W A + P at theta, the negative Hessian
    iterations: int
    converged: bool


def _newton_mode(
    a: np.ndarray,
    penalty: np.ndarray,
    start: np.ndarray,
    offset: np.ndarray | None = None,
    level_box: float = np.inf,
    fit_limit: float = np.inf,
    max_iter: int = 100,
) -> _NewtonMode:
    """Maximize sum_i log Phi(c_i + (A theta)_i) - theta' P theta / 2, c = ``offset`` or 0.

    Damped Newton from ``start``: a step that lowers the objective is halved
    up to 30 times.  Converged once the gradient norm before a step is below
    1e-9 or a step changes the objective by less than 1e-12.  It stops
    unconverged, keeping the last accepted iterate, when every halving
    fails, when the curvature is singular, after ``max_iter`` steps, or
    when a fitted value |c_i + (A theta)_i| exceeds ``fit_limit`` (the
    separation signal of an unpenalized fit).  ``level_box`` clips
    theta[0], the latent level, to [-level_box, level_box].
    """

    half_log_2pi = 0.5 * np.log(2.0 * pi)

    def objective(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        # t, log Phi(t) (which the derivatives reuse) and the objective.
        t = a @ theta if offset is None else offset + a @ theta
        log_cdf = log_ndtr(t)
        return t, log_cdf, float(np.sum(log_cdf) - 0.5 * theta @ (penalty @ theta))

    def derivatives(
        t: np.ndarray, log_cdf: np.ndarray, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # phi(t) / Phi(t), stable far into the left tail via log differencing.
        mills = np.exp(-0.5 * t * t - half_log_2pi - log_cdf)
        w = mills * (t + mills)
        grad = a.T @ mills - penalty @ theta
        return grad, a.T @ (a * w[:, None]) + penalty

    theta = np.asarray(start, dtype=float)
    t, log_cdf, cur = objective(theta)
    iterations, converged = 0, False
    while iterations < max_iter and np.max(np.abs(t)) <= fit_limit:
        grad, curv = derivatives(t, log_cdf, theta)
        try:
            step = np.linalg.solve(curv, grad)
        except np.linalg.LinAlgError:
            break
        iterations += 1
        for _ in range(30):
            trial = theta + step
            trial[0] = min(max(float(trial[0]), -level_box), level_box)
            t_new, log_cdf_new, new = objective(trial)
            if np.isfinite(new) and new >= cur - 1e-12:
                break
            step = 0.5 * step
        else:
            break
        theta, t, log_cdf, prev, cur = trial, t_new, log_cdf_new, cur, new
        if np.sqrt(grad @ grad) < 1e-9 or abs(cur - prev) < 1e-12:
            converged = True
            break
    return _NewtonMode(theta, cur, derivatives(t, log_cdf, theta)[1], iterations, converged)


def _level_start(spec: OrthantSpec) -> np.ndarray:
    """Probit of the success rate (the base-model level), within +-2.33."""
    rate = np.clip(np.mean(spec.signs > 0), 0.01, 0.99)
    return np.array([ndtri(rate)])


def _log_orthant_mass(
    theta: np.ndarray,
    a: np.ndarray,
    offset: np.ndarray | None = None,
    *,
    pool: Executor | None = None,
) -> np.ndarray:
    """sum_i log Phi(c_i + (A theta)_i) for each row theta, as in :func:`_newton_mode`.

    The orthant-mass kernel of the module docstring: logs of products of
    ``ndtr`` over ``_MASS_CHUNK`` coordinates, ``log_ndtr`` where one underflows.
    With a ``pool`` the rows are cut into min(cores, rows // ``_MIN_PART_ROWS``)
    near-equal parts, which the calling thread and the pool's workers take
    in turn from one queue (:func:`gprior._share`): the calling thread
    computes every part a busy worker has not started.  Without one the
    call is serial.
    """
    # The one BLAS product runs here, in the calling thread: BLAS threads
    # beside the workers would oversubscribe the cores, and every part
    # reading a row slice of one product keeps the results independent of
    # the split.  Zero rows pad A to whole chunks, so the product's
    # columns fill whole tiles of the BLAS kernel: a partial tile's rounding
    # can depend on how many BLAS threads split the draws.
    n = a.shape[0]
    padded = np.pad(a, ((0, -n % _MASS_CHUNK), (0, 0)))
    latent = (theta @ padded.T)[:, :n]
    if offset is not None:
        latent += offset
    starts = np.arange(0, n, _MASS_CHUNK)
    mass = np.empty((theta.shape[0], starts.size))

    def part_mass(rows: slice) -> None:
        # Elementwise ufuncs that release the GIL, in place on the part's rows.
        t = latent[rows]
        ndtr(t, out=t)
        np.multiply.reduceat(t, starts, axis=1, out=mass[rows])

    draws = len(mass)
    parts = 1 if pool is None else max(1, min(_available_cores(), draws // _MIN_PART_ROWS))
    cuts = [draws * i // parts for i in range(parts + 1)]
    _share(pool, parts, lambda i: part_mass(slice(cuts[i], cuts[i + 1])))
    with np.errstate(divide="ignore"):
        log_mass = np.log(mass)
    low_rows, low_chunks = np.nonzero(mass < np.finfo(float).tiny)
    for chunk in np.unique(low_chunks):
        rows = low_rows[low_chunks == chunk]
        cols = slice(starts[chunk], starts[chunk] + _MASS_CHUNK)
        t = (theta[rows] @ padded[cols].T)[:, : n - starts[chunk]]
        if offset is not None:
            t += offset[cols]
        log_mass[rows, chunk] = log_ndtr(t).sum(axis=1)
    return log_mass.sum(axis=1)


def _importance_sample(
    a: np.ndarray,
    penalty: np.ndarray,
    mode: _NewtonMode,
    n_draws: int,
    rng: np.random.Generator,
    offset: np.ndarray | None = None,
    *,
    pool: Executor | None = None,
) -> tuple[float, float, float, int]:
    """Log integral of exp(objective) over theta, by importance sampling.

    The objective is that of :func:`_newton_mode` with the same ``a``,
    ``penalty`` and ``offset``, and ``mode`` is its maximum.  The proposal
    is a multivariate t with ``_T_DOF`` degrees of freedom centred on the
    mode, theta = theta_hat +- L^-T z / sqrt(g) for the curvature L L' at
    the mode, drawn in antithetic pairs.  Returns the log integral, the
    delta-method standard error of the log, the effective sample size
    (sum w)^2 / sum w^2 of the importance weights w, and the draws spent:
    whole pairs, at least ``n_draws``.  ``pool`` splits the kernel call.
    """
    half = max(2, -(-n_draws // 2))
    draws = 2 * half
    dim = mode.theta.size
    z = rng.standard_normal((half, dim))
    g = rng.chisquare(_T_DOF, half) / _T_DOF
    chol = np.linalg.cholesky(mode.curvature)
    step = (z / np.sqrt(g)[:, None]) @ np.linalg.inv(chol)
    theta = np.concatenate([mode.theta + step, mode.theta - step])

    log_mass = _log_orthant_mass(theta, a, offset, pool=pool)

    # The t density at each draw; both halves of a pair share it.
    log_q = (
        lgamma((_T_DOF + dim) / 2.0)
        - lgamma(_T_DOF / 2.0)
        - 0.5 * dim * np.log(_T_DOF * pi)
        + np.sum(np.log(np.diag(chol)))
        - 0.5 * (_T_DOF + dim) * np.log1p((z**2).sum(axis=1) / g / _T_DOF)
    )
    log_w = log_mass - 0.5 * ((theta @ penalty) * theta).sum(axis=1) - np.tile(log_q, 2)

    shift = np.max(log_w)
    w = np.exp(log_w - shift)
    pair_mean = 0.5 * (w[:half] + w[half:])
    est = pair_mean.mean()
    se_log = np.sqrt(np.sum((pair_mean - est) ** 2) / (half * (half - 1))) / est
    ess = w.sum() ** 2 / (w * w).sum()
    return float(np.log(est) + shift), float(se_log), float(ess), draws


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
        Total Monte Carlo draws, >= 1000, drawn in antithetic pairs.
    seed : int
        Seed of the draw stream, keyed by (seed, k) as an order's is.

    Returns
    -------
    (log_prob, se_log) : tuple of float
        Log orthant probability and the standard error of the log estimate
        (0 in the exact independent case).
    """
    if n_draws < _MIN_DRAWS:
        raise ValueError(f"n_draws must be >= {_MIN_DRAWS}, got {n_draws}")
    loadings = np.zeros((spec.n, 0)) if loadings is None else np.asarray(loadings, dtype=float)
    if loadings.ndim != 2 or loadings.shape[0] != spec.n:
        raise ValueError("loadings must be an (n, k) array over the orthant's n coordinates")
    if not (np.isfinite(lambda0) and np.all(np.isfinite(loadings))):
        raise ValueError("lambda0 and the loadings must be finite")
    c = spec.signs * lambda0
    k = loadings.shape[1]
    if k == 0:
        return float(np.sum(log_ndtr(c))), 0.0
    # P(v in A) = E_u prod Phi(s (lambda0 + F u)) for u ~ N(0, I_k).
    a = spec.signs[:, None] * loadings
    mode = _newton_mode(a, np.eye(k), np.zeros(k), offset=c)
    with _thread_pool() as pool:
        log_int, se_log, _, _ = _importance_sample(
            a, np.eye(k), mode, n_draws, np.random.default_rng([seed, k]), offset=c, pool=pool
        )
    return float(log_int - 0.5 * k * np.log(2.0 * pi)), se_log


def _order_modes(
    spec: OrthantSpec, a_n: np.ndarray, k: int, head: list[_NewtonMode] | None = None
) -> list[_NewtonMode]:
    """The modes of orders 0..k: order 0 starts from the base level, and
    order j from the mode of order j - 1 with a zero appended.

    Given ``head``, the modes of orders 0..j - 1, the chain continues from
    there and returns them followed by the modes of orders j..k.
    """
    modes = list(head or [])
    start = np.append(modes[-1].theta, 0.0) if modes else _level_start(spec)
    for j in range(len(modes), k + 1):
        penalty = _g_prior(spec.n, j)[0]
        modes.append(_newton_mode(a_n[:, : j + 1], penalty, start, level_box=_LAMBDA_BOX))
        start = np.append(modes[-1].theta, 0.0)
    return modes


def _log_base_integral(spec: OrthantSpec, base: _NewtonMode) -> float:
    """Log of the integral of prod Phi(s lambda0) over the flat level.

    The fixed sinh rule of the Gaussian path, centred on the order-0 mode
    ``base`` and scaled by its curvature there.
    """
    nodes, log_weights = _sinh_rule(base.theta, 1.0 / np.sqrt(base.curvature[0]))
    vals = log_ndtr(spec.signs * nodes).sum(axis=1)
    return _logsumexp(vals + log_weights[:, 0])


def _laplace_log_num(mode: _NewtonMode, n: int) -> float:
    """Laplace approximation of the log marginal likelihood of ``mode``'s order.

    exp(objective) at the mode times its Gaussian volume
    (2 pi)^(dim/2) det(curvature)^(-1/2), with the g-prior's constant added
    as in :func:`_mc_log_num`.
    """
    k = mode.theta.size - 1
    log_det = np.linalg.slogdet(mode.curvature)[1]
    log_int = mode.value + 0.5 * (k + 1) * np.log(2.0 * pi) - 0.5 * log_det
    return float(log_int + _g_prior(n, k)[1])


def _mc_log_num(
    a_n: np.ndarray, mode: _NewtonMode, n_draws: int, seed: int, *, pool: Executor | None = None
) -> tuple[float, float, float, int]:
    """Monte Carlo log marginal likelihood of one order, centered on its mode.

    The order k is that of ``mode``; its integral of exp(objective) is
    sampled by :func:`_importance_sample` from the stream keyed by (seed, k),
    whose four results it returns with the g-prior's constant added.
    ``pool`` splits the kernel call.
    """
    k = mode.theta.size - 1
    penalty, log_norm = _g_prior(a_n.shape[0], k)
    log_int, se_log, ess, draws = _importance_sample(
        a_n[:, : k + 1], penalty, mode, n_draws, np.random.default_rng([seed, k]), pool=pool
    )
    return float(log_int + log_norm), se_log, ess, draws


def _merge(nodes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal nodes (rows) merged into one, their weights (one column per rule) summed."""
    # One integer key per node, from its coordinates' codes, sorts far faster
    # than rows; keys stay below values.size ** dim (13 ** 7 at level 4).
    values, codes = np.unique(nodes, return_inverse=True)
    keys = codes.reshape(nodes.shape) @ values.size ** np.arange(nodes.shape[1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    merged = np.zeros((first.size,) + weights.shape[1:])
    np.add.at(merged, inverse, weights)
    return nodes[first], merged


@lru_cache(maxsize=None)
def _rule(dim: int, level: int, sparse: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on N(0, I_dim): the product of U_level, or the Smolyak rule.

    U_l is the (2l - 1)-node Gauss-Hermite rule, A(1, L) = U_L.  The Smolyak
    rule is A(d, L) = sum_l (U_l - U_(l-1)) x A(d - 1, L - l + 1), U_0 = 0,
    exact for total degree 2L - 1 (Gerstner & Griebel 1998; Heiss & Winschel
    2008).  All U_l share the node 0.0, so equal nodes merge exactly.
    """
    if dim == 1:
        x, w = hermegauss(2 * level - 1)
        return x[:, None], w / np.sqrt(2.0 * pi)
    terms = [(1.0, level, level)]
    if sparse:
        terms = [(sign, m, level - l + 1) for l in range(1, level + 1)
                 for sign, m in ((1.0, l), (-1.0, l - 1)) if m > 0]
    nodes, weights = [], []
    for sign, m, rest_level in terms:
        (x, w), (rest, rest_w) = _rule(1, m, sparse), _rule(dim - 1, rest_level, sparse)
        nodes.append(np.hstack([np.repeat(x, len(rest), axis=0), np.tile(rest, (len(x), 1))]))
        weights.append(sign * np.outer(w, rest_w).ravel())
    return _merge(np.concatenate(nodes), np.concatenate(weights))


@lru_cache(maxsize=None)
def _rule_pair(dim: int, level: int, sparse: bool) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of :func:`_rule` at ``level`` and one below, and both weight rows."""
    (fine, fine_w), (coarse, coarse_w) = _rule(dim, level, sparse), _rule(dim, level - 1, sparse)
    weights = np.zeros((len(fine_w) + len(coarse_w), 2))
    weights[: len(fine_w), 0], weights[len(fine_w) :, 1] = fine_w, coarse_w
    nodes, weights = _merge(np.concatenate([fine, coarse]), weights)
    return nodes, weights.T


def _grid_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A ``dim``-dimensional order's nodes, with its fine and coarse weight rows."""
    if dim <= _GRID_DIM:
        return _rule_pair(dim, (_GRID_NODES + 1) // 2, False)
    return _rule_pair(dim, _SPARSE_LEVEL, True)


def _grid_log_num(
    a_n: np.ndarray, mode: _NewtonMode, *, pool: Executor | None = None
) -> tuple[float, float] | None:
    """Log marginal likelihood of ``mode``'s order by an adaptive Gauss-Hermite rule.

    The nodes u of the fine rule and its coarse sub-rule sit at theta =
    theta_hat + L^-T u for the mode curvature L L' (Naylor & Smith 1982; Liu
    & Pierce 1994), one kernel call for both.  Returns the fine log integral
    with the g-prior's constant and its error estimate |log fine - log
    coarse|; None if either sum is not positive.  ``pool`` splits the kernel call.
    """
    dim = mode.theta.size
    penalty, log_norm = _g_prior(a_n.shape[0], dim - 1)
    chol = np.linalg.cholesky(mode.curvature)
    u, weights = _grid_rule(dim)
    theta = mode.theta + u @ np.linalg.inv(chol)
    log_f = _log_orthant_mass(theta, a_n[:, :dim], pool=pool)
    log_f += 0.5 * (u * u).sum(axis=1) - 0.5 * ((theta @ penalty) * theta).sum(axis=1)
    shift = log_f.max()
    sums = weights @ np.exp(log_f - shift)
    if not np.all(sums > 0.0):
        return None
    log_volume = 0.5 * dim * np.log(2.0 * pi) - np.log(np.diag(chol)).sum()
    fine, coarse = np.log(sums) + shift + log_volume + log_norm
    return float(fine), float(abs(fine - coarse))


def binary_log_bf(
    y: np.ndarray,
    design: DesignMatrix,
    k: int,
    n_draws: int = 4000,
    seed: int = 0,
) -> BinaryBfEstimate:
    """Log Bayes factor of the order-k probit model vs the base.

    Orders 1-6 take the deterministic rule; ``n_draws`` and ``seed`` act on k >= 7.

    Parameters
    ----------
    y : np.ndarray
        Binary response with both classes present.
    design : DesignMatrix
        Legendre design of order >= k.
    k : int
        Candidate order, 0 <= k <= ``design.order``; k = 0 short-circuits
        to log BF 0 exactly.
    n_draws : int
        Total Monte Carlo budget, >= 1000, drawn in antithetic pairs.
    seed : int
        Master seed; order k draws from the stream keyed by (seed, k).

    Returns
    -------
    BinaryBfEstimate
        Log Bayes factor, its error, and the bookkeeping of the run.
    """
    if design.basis != LEGENDRE:
        raise ValueError("the probit model requires a Legendre design")
    if not 0 <= k <= design.order:
        raise ValueError(f"k={k} outside [0, {design.order}]")
    spec = _two_sided_orthant(y)
    if spec.n != design.n:
        raise ValueError(f"response length {spec.n} does not match design rows")
    if n_draws < _MIN_DRAWS:
        raise ValueError(f"n_draws must be >= {_MIN_DRAWS}, got {n_draws}")
    if k == 0:
        return BinaryBfEstimate(log_bf=0.0, mc_std_error=0.0, n_draws=0, seed=seed)

    a_n = _signed_design(spec, design, k)
    modes = _order_modes(spec, a_n, k)
    mode = modes[k]
    with _thread_pool() as pool:
        grid = _grid_log_num(a_n, mode, pool=pool) if k < _SPARSE_DIM else None
        if grid is None:
            log_num, se_log, _, draws = _mc_log_num(a_n, mode, n_draws, seed, pool=pool)
        else:
            (log_num, se_log), draws = grid, 0
    log_den = _log_base_integral(spec, modes[0])
    return BinaryBfEstimate(
        log_bf=log_num - log_den, mc_std_error=se_log, n_draws=draws,
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
        ordinates.  The diagnostics carry, per order: ``log_bf`` (the
        deterministic rule at orders 1-6, Monte Carlo, or Laplace where
        screened), ``laplace_log_bf``, ``screened`` (never order 0 or a
        gridded order), ``grid_nodes`` (the rule's integrand evaluations,
        33 to 785 at orders 1-6, else 0), ``mc_std_error`` (the rule's error
        estimate where gridded) and ``mc_ess`` (the effective sample size
        (sum w)^2 / sum w^2 of the importance weights; 0.0 where gridded),
        both 0.0 for order 0 and where screened, ``mc_n_draws`` (0 for
        order 0, gridded orders and where screened), and
        ``newton_iterations`` and ``newton_converged`` of each order's mode
        (0 and True for order 0).  Per degree: ``inclusion_se``, the
        delta-method standard error of each inclusion probability from the
        orders' ``mc_std_error``.  Per fit: ``mpm_margin_flag``, True when
        some inclusion probability lies within 2 ``inclusion_se`` of 0.5,
        so that the orders' errors could move the selection; ``screened_mass``, the
        posterior mass of the screened orders; ``screened_bound``, e^c
        times their Laplace mass over that of the other orders (at most
        1e-6, 0.0 when none is screened); the Newton count and flag of the
        base level (``base_newton_*``) and of the refit (``refit_newton_*``);
        the Bernstein error bound; and ``stages``, the seconds spent in
        ``design`` (with the input checks), ``laplace`` (the chain of modes
        and Laplace values, the base integral and the deterministic rule),
        ``monte_carlo`` (the screening loop and the selection) and
        ``refit``, which sum to ``timing_seconds``.

    Notes
    -----
    Order k is the g-prior w ~ N(0, (2n/(k+1)) I) on the first k
    orthonormalized degree columns.  Every order is scored by its Laplace
    log Bayes factor first, and orders 1-6 by the deterministic rule.
    Monte Carlo then runs for the screened order of highest log posterior,
    one at a time, until ``screened_bound`` is at most 1e-6, with the slack
    c = 4.5 nats covering the Laplace under-estimate.  If every screened
    order's Laplace log Bayes factor is at most c below its Monte Carlo
    value, no posterior probability differs from the all-Monte Carlo one by
    more than e^c ``screened_mass``.  A visited order draws points of one
    (k + 1)-dimensional t proposal around its mode, from the stream keyed
    by (seed, k): ``mc_draws`` of them if its posterior share is at least
    1e-3 when visited or at the end, and 1000 otherwise.  So a kept order's
    ``log_bf``, ``mc_std_error`` and Newton count equal those of
    ``binary_log_bf`` at its own draw count on the fit's own design,
    whatever order the orders are visited in.  The module docstring
    describes the fit's one thread pool, closed before the refit, under
    which results are identical at any core and BLAS thread count.
    """
    if config is None:
        config = BinaryFitConfig()
    marks = [time.perf_counter()]
    x, y, scale, u, n_max, prior = _prepare(x, y, config)
    design = DesignMatrix(LEGENDRE, n_max, _legendre_rows(u, n_max).T)
    spec = _two_sided_orthant(y)
    n = x.size
    marks.append(time.perf_counter())

    a_n = _signed_design(spec, design, n_max)
    gridded = min(_SPARSE_DIM, n_max + 1)
    head = _order_modes(spec, a_n, gridded - 1)

    def chain_tail() -> tuple[list[_NewtonMode], list[float]]:
        # The rest of the chain, from the modes of the gridded orders, with
        # the Laplace numerators of the orders it adds.
        modes = _order_modes(spec, a_n, n_max, head)
        return modes, [_laplace_log_num(m, n) for m in modes[gridded:]]

    with _thread_pool() as pool:
        # A worker runs the chain beside the base integral and the rules of
        # orders 1-6, each one unsplit kernel call in this thread.
        rest = pool.submit(chain_tail) if pool is not None else None
        log_den = _log_base_integral(spec, head[0])
        grids = [_grid_log_num(a_n, mode) for mode in head[1:]]
        laplace_nums = [_laplace_log_num(m, n) for m in head[1:]]
        modes, tail_nums = chain_tail() if rest is None else rest.result()
        laplace_log_bf = np.array([0.0] + [num - log_den for num in laplace_nums + tail_nums])

        log_bf = laplace_log_bf.copy()
        mc_se = np.zeros(n_max + 1)
        mc_ess = np.zeros(n_max + 1)
        n_draws = np.zeros(n_max + 1, dtype=int)
        grid_nodes = [0] * (n_max + 1)
        screened = np.arange(n_max + 1) > 0
        for k, grid in enumerate(grids, start=1):
            if grid is not None:
                log_num, mc_se[k] = grid
                log_bf[k], grid_nodes[k] = log_num - log_den, len(_grid_rule(k + 1)[0])
                screened[k] = False
        marks.append(time.perf_counter())

        log_post = log_bf + prior.log_probs
        # Monte Carlo for the screened order of highest log posterior until the
        # screened mass, inflated by the slack, is within the budget; an order
        # below _FULL_DRAW_MASS draws _MIN_DRAWS.  Then re-run at mc_draws, from
        # the same stream, each such order whose posterior has since reached it.
        while True:
            log_bound = -np.inf
            if screened.any():
                log_bound = _LAPLACE_SLACK + _logsumexp(log_post[screened]) - _logsumexp(
                    log_post[~screened]
                )
            full = np.exp(log_post - _logsumexp(log_post)) >= _FULL_DRAW_MASS
            if log_bound > np.log(_SCREEN_TOL):
                pick = screened
            else:
                pick = full & (0 < n_draws) & (n_draws < config.mc_draws)
                if not pick.any():
                    break
            k = int(np.argmax(np.where(pick, log_post, -np.inf)))
            budget = config.mc_draws if full[k] else _MIN_DRAWS
            log_num, mc_se[k], mc_ess[k], n_draws[k] = _mc_log_num(
                a_n, modes[k], budget, config.seed, pool=pool
            )
            log_bf[k] = log_num - log_den
            log_post[k] = log_bf[k] + prior.log_probs[k]
            screened[k] = False
    posterior, inclusion = _normalized_posterior(log_post)
    # Delta method: d inclusion_j / d log_post_k = p_k (1[k >= j] - inclusion_j).
    tail = np.arange(n_max + 1) >= np.arange(1, n_max + 1)[:, None]
    inclusion_se = np.sqrt((((tail - inclusion[:, None]) * posterior * mc_se) ** 2).sum(axis=1))
    selected = _mpm_order(inclusion)
    marks.append(time.perf_counter())

    pair = build_transform(selected)

    def refit_with(ridge: float) -> _NewtonMode:
        # A ridge on the Bernstein ordinates eta = Q lambda is ridge * Q'Q.
        return _newton_mode(
            spec.signs[:, None] * design.values[:, : selected + 1],
            ridge * (pair.q.T @ pair.q), np.zeros(selected + 1), fit_limit=_SEPARATION_LIMIT,
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
            "mc_ess": mc_ess,
            "mc_n_draws": n_draws.tolist(),
            "grid_nodes": grid_nodes,
            "inclusion": inclusion,
            "inclusion_se": inclusion_se,
            "mpm_margin_flag": bool(np.any(np.abs(inclusion - 0.5) <= 2.0 * inclusion_se)),
            "mc_draws": config.mc_draws,
            "seed": config.seed,
            "laplace_log_bf": laplace_log_bf,
            "screened": screened.tolist(),
            "screened_mass": float(posterior[screened].sum()),
            "screened_bound": float(np.exp(log_bound)),
            "newton_iterations": [0] + [m.iterations for m in modes[1:]],
            "newton_converged": [True] + [m.converged for m in modes[1:]],
            "base_newton_iterations": modes[0].iterations,
            "base_newton_converged": modes[0].converged,
            "refit_newton_iterations": refit.iterations,
            "refit_newton_converged": refit.converged,
            "bernstein_error_bound": eta_bound,
            "stages": stages,
        },
    )
