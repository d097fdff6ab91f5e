"""Bayes factors and posteriors over nested orders under mixtures of g-priors.

The inverse scale omega = 1/g carries one of three objective mixing
distributions: an arcsine (Beta(1/2, 1/2)) law on (0, 1), a Gamma law on
(0, inf), or a Gamma law whose rate is itself Gamma distributed (the last
marginalizes in closed form to a scaled beta-prime density).  One QR
factorization of the centered design, with the scaled response appended
as a last column, gives the r2 of every nested order.  Each Bayes
factor against the intercept-only base model is a one-dimensional integral
evaluated in log space by adaptive Gauss-Legendre panel refinement on a
transformed variable that absorbs the prior's endpoint singularities.
Posterior shrinkage factors reuse the converged node set, so every model's
shrinkage is a ratio of two quadratures over identical nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma
from typing import NamedTuple

import numpy as np
from numpy.linalg import lapack_lite
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from .basis import LEGENDRE, DesignMatrix
from .model_space import ModelPrior

INTRINSIC = "intrinsic"
ZELLNER_SIOW = "zellner-siow"
HYPER_G = "hyper-g"

_SATURATION_TOL = 1e-12

# ============================================================
# Omega priors
# ============================================================


@dataclass(frozen=True)
class OmegaPrior:
    """Mixing distribution for the inverse g-prior scale omega.

    Construct through the factory classmethods; ``kind`` selects the family
    and the remaining fields hold its hyperparameters (unused ones stay
    None).  The quadrature works on a transformed variable t in (0, 1):
    ``omega_of_t`` maps nodes to the omega scale and ``log_weight_t`` is
    the log prior density times the Jacobian, chosen per family so that the
    transformed weight is bounded (endpoint singularities are absorbed by
    the substitution, not fought by the quadrature).
    """

    kind: str
    nu: float | None = None
    rho: float | None = None
    a: float | None = None
    b: float | None = None

    def __post_init__(self) -> None:
        if self.kind == INTRINSIC:
            if any(v is not None for v in (self.nu, self.rho, self.a, self.b)):
                raise ValueError("the intrinsic prior takes no hyperparameters")
        elif self.kind == ZELLNER_SIOW:
            if self.nu is None or self.rho is None:
                raise ValueError("zellner-siow requires nu and rho")
            if not (self.nu > 0 and self.rho > 0):
                raise ValueError(f"nu and rho must be positive, got {self.nu}, {self.rho}")
        elif self.kind == HYPER_G:
            if self.nu is None or self.a is None or self.b is None:
                raise ValueError("hyper-g requires nu, a, b")
            if not (self.nu > 0 and self.a > 0 and self.b > 0):
                raise ValueError(
                    f"nu, a, b must be positive, got {self.nu}, {self.a}, {self.b}"
                )
        else:
            raise ValueError(f"unknown omega prior kind: {self.kind!r}")

    # ---- factories ----

    @classmethod
    def intrinsic(cls) -> "OmegaPrior":
        """Beta(1/2, 1/2) on (0, 1)."""
        return cls(kind=INTRINSIC)

    @classmethod
    def zellner_siow(cls, nu: float = 1.0, rho: float = 1.0) -> "OmegaPrior":
        """Gamma(nu/2, rho/2) on (0, inf)."""
        return cls(kind=ZELLNER_SIOW, nu=float(nu), rho=float(rho))

    @classmethod
    def hyper_g(cls, nu: float = 1.0, a: float = 2.0, b: float = 1.0) -> "OmegaPrior":
        """Gamma(nu/2, rho/2) with rho itself Gamma(a/2, b/2).

        The rho layer integrates out analytically: omega / b follows a
        beta-prime(nu/2, a/2) law, so only one quadrature layer is needed.
        """
        return cls(kind=HYPER_G, nu=float(nu), a=float(a), b=float(b))

    @classmethod
    def from_name(cls, name: str) -> "OmegaPrior":
        """Default-hyperparameter prior from its CLI name."""
        if name == INTRINSIC:
            return cls.intrinsic()
        if name == ZELLNER_SIOW:
            return cls.zellner_siow()
        if name == HYPER_G:
            return cls.hyper_g()
        raise ValueError(f"unknown omega prior name: {name!r}")

    # ---- raw-scale density (reference and tests) ----

    def log_pdf(self, omega: np.ndarray) -> np.ndarray:
        """Log density of omega on its own scale."""
        omega = np.asarray(omega, dtype=float)
        out = np.full(omega.shape, -np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == INTRINSIC:
                inside = (omega > 0) & (omega < 1)
                out[inside] = (
                    -np.log(np.pi)
                    - 0.5 * np.log(omega[inside])
                    - 0.5 * np.log1p(-omega[inside])
                )
            elif self.kind == ZELLNER_SIOW:
                inside = omega > 0
                h = self.nu / 2.0
                out[inside] = (
                    h * np.log(self.rho / 2.0)
                    - lgamma(h)
                    + (h - 1.0) * np.log(omega[inside])
                    - 0.5 * self.rho * omega[inside]
                )
            else:
                inside = omega > 0
                hn, ha = self.nu / 2.0, self.a / 2.0
                log_k = (
                    lgamma(hn + ha)
                    - lgamma(hn)
                    - lgamma(ha)
                    + ha * np.log(self.b)
                )
                out[inside] = (
                    log_k
                    + (hn - 1.0) * np.log(omega[inside])
                    - (hn + ha) * np.log(omega[inside] + self.b)
                )
        return out

    # ---- transformed-variable machinery for the quadrature ----

    def omega_of_t(self, t: np.ndarray) -> np.ndarray:
        """Map the quadrature variable t in [0, 1] to the omega scale."""
        t = np.asarray(t, dtype=float)
        if self.kind == INTRINSIC:
            return np.sin(0.5 * np.pi * t) ** 2
        # v = t / (1 - t) then omega = v^(2/nu); the power kills the
        # omega^(nu/2 - 1) factor of both Gamma-type densities.
        with np.errstate(divide="ignore"):
            v = t / (1.0 - t)
        return v ** (2.0 / self.nu)

    def log_weight_t(self, t: np.ndarray) -> np.ndarray:
        """Log of (prior density times Jacobian) in the t variable.

        Integrating exp(log_weight_t) over (0, 1) gives exactly 1; the
        Bayes factor integrand adds the model kernel on top of this.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == INTRINSIC:
            # Arcsine substitution flattens Beta(1/2, 1/2) exactly.
            return np.zeros_like(t)
        p = 2.0 / self.nu
        with np.errstate(divide="ignore", invalid="ignore"):
            v = t / (1.0 - t)
            if self.kind == ZELLNER_SIOW:
                h = self.nu / 2.0
                const = h * np.log(self.rho / 2.0) - lgamma(h) + np.log(p)
                out = const - 0.5 * self.rho * v**p - 2.0 * np.log1p(-t)
            else:
                hn, ha = self.nu / 2.0, self.a / 2.0
                const = (
                    lgamma(hn + ha)
                    - lgamma(hn)
                    - lgamma(ha)
                    + ha * np.log(self.b)
                    + np.log(p)
                )
                out = const - (hn + ha) * np.log(v**p + self.b) - 2.0 * np.log1p(-t)
        # At t = 1 the decay term beats the Jacobian blowup; the float
        # arithmetic produces inf - inf there, so patch the true limit.
        out = np.where(t >= 1.0, -np.inf, out)
        return out


# ============================================================
# Fit statistics
# ============================================================


@dataclass(frozen=True)
class ModelFitStats:
    """Sufficient statistics of one nested model for its Bayes factor."""

    n: int
    q0: int
    qk: int
    r2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.r2 <= 1.0):
            raise ValueError(f"r2 must lie in [0, 1], got {self.r2}")
        if self.qk < self.q0:
            raise ValueError(f"qk={self.qk} must be >= q0={self.q0}")

    @property
    def saturated(self) -> bool:
        return self.r2 >= 1.0 - _SATURATION_TOL


class _Factorization(NamedTuple):
    """One QR of the centered design with the scaled response appended.

    R is prefix-nested: its leading k x k block and z[:k] are the
    triangular factor and the projected response of the order-k model, so
    one factorization serves every nested r2 and coefficient vector.
    """

    ybar: float
    col_means: np.ndarray  # (N,) means of the degree-1..N columns
    r: np.ndarray  # (N, N) upper triangular factor of the centered columns
    z: np.ndarray  # (N,) projections of (y - ybar) / scale
    ssy: float  # ||(y - ybar) / scale||^2
    scale: float  # max |y - ybar|, or 1 for a constant response

    def r2(self) -> np.ndarray:
        """(N + 1,) coefficient of determination of orders 0..N."""
        r2 = np.zeros(self.z.size + 1)
        if self.ssy > 0.0:
            r2[1:] = np.minimum(np.cumsum(self.z**2) / self.ssy, 1.0)
        return r2

    def coefficients(self, k: int) -> np.ndarray:
        """Least-squares coefficients of degrees 1..k of the order-k model."""
        return solve_triangular(self.r[:k, :k], self.z[:k]) * self.scale


def _householder_r(buf: np.ndarray) -> np.ndarray:
    """R of the QR of ``buf.T``, with Householder vectors left in ``buf``.

    Calls numpy's own LAPACK dgeqrf, in place.  ``scipy.linalg.qr`` runs on
    scipy's separate OpenBLAS, whose worker threads then compete for the
    cores with numpy's, still spinning after the caller's last numpy BLAS
    call: with two threads per pool on two cores a 3 ms fit at n = 500 took
    up to 110 ms after a least-squares solve.  ``np.linalg.qr`` shares
    numpy's pool but copies the n-row buffer twice.
    """
    n_cols, n = buf.shape
    tau = np.empty(min(n, n_cols))
    work = np.empty(1)
    lapack_lite.dgeqrf(n, n_cols, buf, n, tau, work, -1, 0)
    work = np.empty(int(work[0]))
    info = lapack_lite.dgeqrf(n, n_cols, buf, n, tau, work, work.size, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")
    # Only the leading block is triangularized, not the whole n-row buffer.
    return np.triu(buf.T[: min(n, n_cols)])


def _factorize(y: np.ndarray, x: np.ndarray) -> _Factorization:
    """QR of [x_c | y_c / s] for the degree-1..N columns ``x``.

    Dividing the centered response by s = max |y_c| keeps ssy and the
    projections representable at any response scale; r2 is scale-free and
    the coefficients are scaled back.  Only R is formed, never Q.
    """
    n, n_cols = x.shape
    ybar = float(y.mean())
    yc = y - ybar
    scale = float(np.max(np.abs(yc)))
    if scale == 0.0:
        scale = 1.0
    col_means = x.mean(axis=0)
    # Row j of ``buf`` is column j of ``aug``: the Fortran layout dgeqrf
    # factorizes in place.
    buf = np.empty((n_cols + 1, n))
    aug = buf.T
    xc = aug[:, :n_cols]
    np.subtract(x, col_means, out=xc)
    col_norm = np.sqrt(np.einsum("ij,ij->j", xc, xc))
    np.divide(yc, scale, out=aug[:, n_cols])
    ssy = float(aug[:, n_cols] @ aug[:, n_cols])
    r = _householder_r(buf)
    # With fewer rows than columns R is short; the missing pivots are zero.
    diag = np.zeros(n_cols)
    diag[: r.shape[0]] = np.abs(np.diag(r))[:n_cols]
    bad = np.nonzero(diag <= 1e-12 * np.maximum(col_norm, 1.0))[0]
    if bad.size:
        # Column j of the reduced design is degree j + 1.
        raise ValueError(
            f"rank-deficient design: degree-{bad[0] + 1} column is numerically "
            f"collinear with the lower-degree columns"
        )
    return _Factorization(
        ybar=ybar,
        col_means=col_means,
        r=r[:n_cols, :n_cols],
        z=r[:n_cols, n_cols],
        ssy=ssy,
        scale=scale,
    )


def fit_stats(y: np.ndarray, design: DesignMatrix, k: int) -> ModelFitStats:
    """Coefficient of determination of the order-k model, on centered data.

    Parameters
    ----------
    y : np.ndarray
        Response vector, length n.
    design : DesignMatrix
        Legendre design of order >= k.
    k : int
        Model order, 1 <= k <= design.order; requires n > k + 2.

    Returns
    -------
    ModelFitStats
        With q0 = 1, qk = k + 1, and r2 computed through a QR factorization
        of the centered degree-1..k columns (exact Gram matrix, no diagonal
        approximation).
    """
    if design.basis != LEGENDRE:
        raise ValueError("fit statistics require a Legendre design")
    if not (1 <= k <= design.order):
        raise ValueError(f"k={k} outside [1, {design.order}]")
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if n != design.n:
        raise ValueError(f"response length {n} does not match design rows {design.n}")
    if n <= k + 2:
        raise ValueError(f"need n > k + 2 observations, got n={n}, k={k}")
    r2 = _factorize(y, design.values[:, 1 : k + 1]).r2()[k]
    return ModelFitStats(n=n, q0=1, qk=k + 1, r2=float(r2))


# ============================================================
# Quadrature engine
# ============================================================


@lru_cache(maxsize=None)
def _gl_unit(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    return (x + 1.0) / 2.0, w / 2.0


def _panel_grid(panels: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    base_t, base_w = _gl_unit(m)
    h = 1.0 / panels
    starts = np.arange(panels) * h
    t = (starts[:, None] + base_t[None, :] * h).ravel()
    log_w = np.broadcast_to(np.log(base_w * h), (panels, m)).ravel()
    return t, log_w


@dataclass
class _QuadResult:
    log_integrals: np.ndarray  # (K,)
    t: np.ndarray  # (M,)
    log_w: np.ndarray  # (M,)
    log_f: np.ndarray  # (M, K)
    rounds: int


def _adaptive_log_integrals(
    log_f, n_out: int, rel_tol: float = 1e-8, nodes_per_panel: int = 16, max_rounds: int = 11
) -> _QuadResult:
    """Integrate exp(log_f) over (0, 1) for a batch of integrands.

    ``log_f(t)`` maps an (M,) node array to an (M, n_out) matrix of log
    integrand values.  Gauss-Legendre panels over a uniform partition are
    bisected (panel count doubled) until every integrand's log integral
    moves by at most rel_tol between consecutive refinements.
    """
    prev = None
    history = []
    panels = 4
    for round_idx in range(max_rounds):
        t, log_w = _panel_grid(panels, nodes_per_panel)
        vals = np.asarray(log_f(t))
        if vals.shape != (t.size, n_out):
            raise ValueError("integrand returned a wrongly shaped value array")
        cur = logsumexp(vals + log_w[:, None], axis=0)
        history.append((panels, cur.copy()))
        if prev is not None:
            both_zero = np.isneginf(cur) & np.isneginf(prev)
            close = np.abs(cur - prev) <= rel_tol
            if np.all(close | both_zero):
                return _QuadResult(
                    log_integrals=cur, t=t, log_w=log_w, log_f=vals, rounds=round_idx + 1
                )
        prev = cur
        panels *= 2
    trace = "; ".join(
        f"panels={p}: logI[0]={v[0]:.12g}" for p, v in history
    )
    raise RuntimeError(
        f"adaptive quadrature did not reach relative tolerance {rel_tol} "
        f"after {max_rounds} refinement rounds (trace: {trace})"
    )


def _log_kernel(
    omega: np.ndarray, n: int, q0: int, qk: np.ndarray, r2: np.ndarray
) -> np.ndarray:
    """Complete per-omega log Bayes factor, stable for omega in (0, inf].

    omega has shape (M, 1) and qk, r2 shape (1, K); broadcasting yields an
    (M, K) matrix.  With g = n / (omega (qk + 1)) the conditional Bayes
    factor is (1 + g)^((n-qk)/2) / (1 + g (1 - r2))^((n-q0)/2); both logs
    are log1p of nonnegative quantities, so the only care needed is the
    omega -> 0 corner where the true limit is -inf for qk > q0.
    """
    s = qk + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        g = n / (omega * s)
        out = 0.5 * (n - qk) * np.log1p(g) - 0.5 * (n - q0) * np.log1p(g * (1.0 - r2))
    return np.where(np.isnan(out), -np.inf, out)


def _batched_bf(
    n: int,
    q0: int,
    qk: np.ndarray,
    r2: np.ndarray,
    omega_prior: OmegaPrior,
    rel_tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """Log Bayes factors and shrinkage factors for a batch of models.

    Returns (log_bf, xi) where xi[k] = E[n / (n + omega (qk + 1)) | y, model k],
    the posterior expectation computed over the same nodes as the Bayes
    factor integral (a ratio of two quadratures sharing nodes).
    """
    qk = np.asarray(qk, dtype=float)[None, :]
    r2 = np.asarray(r2, dtype=float)[None, :]
    k_count = qk.shape[1]

    def log_f(t: np.ndarray) -> np.ndarray:
        omega = omega_prior.omega_of_t(t)[:, None]
        lw = omega_prior.log_weight_t(t)[:, None]
        return _log_kernel(omega, n, q0, qk, r2) + lw

    quad = _adaptive_log_integrals(log_f, k_count, rel_tol=rel_tol)
    log_bf = quad.log_integrals

    omega_nodes = omega_prior.omega_of_t(quad.t)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_factor = -np.log1p(omega_nodes * (qk + 1.0) / n)
    log_num = logsumexp(quad.log_f + log_factor + quad.log_w[:, None], axis=0)
    xi = np.exp(log_num - quad.log_integrals)
    return log_bf, np.minimum(xi, 1.0)


# ============================================================
# Public per-model and whole-space operations
# ============================================================


def log_bayes_factor(
    stats: ModelFitStats, omega_prior: OmegaPrior, rel_tol: float = 1e-8
) -> float:
    """Log Bayes factor of the order-k model against the intercept base.

    Parameters
    ----------
    stats : ModelFitStats
        Sufficient statistics from :func:`fit_stats`.
    omega_prior : OmegaPrior
        Mixing distribution over the inverse scale.
    rel_tol : float
        Relative tolerance of the adaptive quadrature.

    Returns
    -------
    float
        Exactly 0.0 when qk == q0; otherwise the log of the mixture Bayes
        factor.
    """
    if stats.saturated:
        raise ValueError(
            f"saturated fit (r2={stats.r2}); lower the maximum order so the "
            f"model does not interpolate the data"
        )
    if stats.qk == stats.q0:
        return 0.0
    log_bf, _ = _batched_bf(
        stats.n, stats.q0, [stats.qk], [stats.r2], omega_prior, rel_tol=rel_tol
    )
    return float(log_bf[0])


def shrinkage(
    stats: ModelFitStats, omega_prior: OmegaPrior, rel_tol: float = 1e-8
) -> float:
    """Posterior expectation of n / (n + omega (qk + 1)) for one model."""
    if stats.saturated:
        raise ValueError(
            f"saturated fit (r2={stats.r2}); lower the maximum order so the "
            f"model does not interpolate the data"
        )
    r2 = 0.0 if stats.qk == stats.q0 else stats.r2
    _, xi = _batched_bf(
        stats.n, stats.q0, [stats.qk], [r2], omega_prior, rel_tol=rel_tol
    )
    return float(xi[0])


@dataclass(frozen=True)
class ModelPosterior:
    """Posterior summaries over the nested model space.

    Attributes
    ----------
    max_order : int
        Largest order N in the space.
    n : int
        Sample size.
    log_bf : np.ndarray
        (N + 1,) log Bayes factors against the base model; NaN for models
        excluded by the saturation guard.
    posterior : np.ndarray
        (N + 1,) posterior probabilities over orders; sums to 1.
    inclusion : np.ndarray
        (N,) marginal inclusion probability of each degree j = 1..N.
    shrinkage : np.ndarray
        (N + 1,) per-model posterior shrinkage factors xi_k in (0, 1].
    shrunken_inclusion : np.ndarray
        (N,) inclusion probabilities weighted by the member models'
        shrinkage factors.
    r2 : np.ndarray
        (N + 1,) coefficient of determination per order (r2[0] = 0).
    excluded : tuple
        Orders removed by the saturation guard q_k >= n - q0.
    """

    max_order: int
    n: int
    log_bf: np.ndarray
    posterior: np.ndarray
    inclusion: np.ndarray
    shrinkage: np.ndarray
    shrunken_inclusion: np.ndarray
    r2: np.ndarray
    excluded: tuple


def model_posterior(
    y: np.ndarray,
    design: DesignMatrix,
    prior: ModelPrior,
    omega_prior: OmegaPrior,
    rel_tol: float = 1e-8,
) -> ModelPosterior:
    """Posterior over all nested orders given one Legendre design.

    Parameters
    ----------
    y : np.ndarray
        Response vector.
    design : DesignMatrix
        Legendre design whose order equals ``prior.max_order``.
    prior : ModelPrior
        Prior over orders from :func:`model_prior`.
    omega_prior : OmegaPrior
        Mixing distribution over the inverse g-prior scale.
    rel_tol : float
        Relative tolerance passed to the quadrature.

    Returns
    -------
    ModelPosterior
        Probabilities, inclusion curves and shrinkage factors; orders whose
        parameter count reaches n - q0 are excluded with a warning and
        carry zero posterior mass.
    """
    if design.basis != LEGENDRE:
        raise ValueError("model_posterior requires a Legendre design")
    if design.order != prior.max_order:
        raise ValueError(
            f"design order {design.order} does not match prior max_order "
            f"{prior.max_order}"
        )
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if n != design.n:
        raise ValueError(f"response length {n} does not match design rows {design.n}")
    r2 = _factorize(y, design.values[:, 1:]).r2()
    return _posterior_from_r2(n, r2, prior, omega_prior, rel_tol)


def _normalized_posterior(
    log_post: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior over orders 0..N from unnormalized log masses, and inclusion.

    Orders outside the boolean mask ``keep`` get zero mass; inclusion[j - 1]
    is the posterior probability that degree j is in the model.
    """
    log_post = log_post - logsumexp(log_post[keep])
    posterior = np.exp(log_post)
    posterior[~keep] = 0.0
    posterior /= posterior.sum()
    # Degree j belongs to every model of order >= j: tail sums.
    tail = np.cumsum(posterior[::-1])[::-1]
    return posterior, tail[1:].copy()


def _posterior_from_r2(
    n: int,
    r2: np.ndarray,
    prior: ModelPrior,
    omega_prior: OmegaPrior,
    rel_tol: float,
) -> ModelPosterior:
    """Posterior over orders 0..N from the nested r2 of a size-n sample."""
    n_max = r2.size - 1
    q0 = 1
    ks = np.arange(n_max + 1)
    qk = ks + 1
    keep = qk < n - q0
    excluded = tuple(int(k) for k in ks[~keep])
    if excluded:
        warnings.warn(
            f"orders {excluded} have as many parameters as degrees of freedom "
            f"(q_k >= n - q0) and were excluded from the model space",
            RuntimeWarning,
        )
    if not keep[0]:
        raise ValueError(f"sample size n={n} too small for even the base model")
    if np.any(r2[keep] >= 1.0 - _SATURATION_TOL):
        worst = int(ks[keep][np.argmax(r2[keep])])
        raise ValueError(
            f"saturated fit at order {worst} (r2={r2[worst]}); lower the "
            f"maximum order so the model does not interpolate the data"
        )

    log_bf = np.full(n_max + 1, np.nan)
    xi = np.full(n_max + 1, np.nan)
    kept = ks[keep]
    # The base model rides along with a unit kernel so its shrinkage
    # factor comes from the same node set as everyone else's.
    batch_r2 = r2[kept].copy()
    batch_r2[kept == 0] = 0.0
    bf_vals, xi_vals = _batched_bf(
        n, q0, qk[kept], batch_r2, omega_prior, rel_tol=rel_tol
    )
    log_bf[kept] = bf_vals
    xi[kept] = xi_vals
    log_bf[0] = 0.0

    log_post = np.full(n_max + 1, -np.inf)
    log_post[kept] = log_bf[kept] + prior.log_probs[kept]
    posterior, inclusion = _normalized_posterior(log_post, keep)
    xi_weighted = np.where(keep, xi * posterior, 0.0)
    tail_shrunk = np.cumsum(xi_weighted[::-1])[::-1]
    shrunken_inclusion = tail_shrunk[1:].copy()

    return ModelPosterior(
        max_order=n_max,
        n=n,
        log_bf=log_bf,
        posterior=posterior,
        inclusion=inclusion,
        shrinkage=xi,
        shrunken_inclusion=shrunken_inclusion,
        r2=r2,
        excluded=excluded,
    )
