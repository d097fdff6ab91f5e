"""Bayes factors and posteriors over nested orders under mixtures of g-priors.

The inverse scale omega = 1/g carries one of three objective mixing
distributions: an arcsine (Beta(1/2, 1/2)) law on (0, 1), a Gamma law on
(0, inf), or a Gamma law whose rate is itself Gamma distributed (the last
marginalizes in closed form to a scaled beta-prime density).  One QR
factorization of the centered design, with the scaled response appended
as a last column, gives the r2 of every nested order, and log(1 - r2) from
its residual sums of squares without cancellation.  Above ``_CHUNK`` rows
the QR runs over cache-sized blocks of rows, and the blocks' triangular
factors are stacked and reduced to one (a tall-skinny QR); up to
``_CHUNK`` rows it is a single plain QR.  Each Bayes factor
against the intercept-only base model is a one-dimensional integral over
v = log omega (logit omega for the arcsine law), where every integrand is
smooth with exponential tails.  One fixed rule per order evaluates it in
log space: a sinh-spaced trapezoid rule centred on the integrand's peak
and scaled by its curvature there, with no refinement loop; the centre
and scale of every order's rule are reported.  Posterior
shrinkage factors reuse the same nodes, so every model's shrinkage is a
ratio of two quadratures over identical nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import lapack_lite
from scipy.linalg import solve_triangular
from scipy.special import expit, logsumexp

from .basis import LEGENDRE, DesignMatrix
from .model_space import ModelPrior

INTRINSIC = "intrinsic"
ZELLNER_SIOW = "zellner-siow"
HYPER_G = "hyper-g"

# ============================================================
# Omega priors
# ============================================================


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) without overflow; several times faster than np.logaddexp."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass(frozen=True)
class OmegaPrior:
    """Mixing distribution for the inverse g-prior scale omega.

    Construct through the factory classmethods; ``kind`` selects the family
    and the remaining fields hold its hyperparameters (unused ones stay
    None).  The quadrature works on a variable v on the real line:
    ``log_omega`` maps it to the omega scale and ``log_weight`` is the log
    prior density times the Jacobian, so the endpoint singularities of the
    densities are absorbed by the substitution, not fought by the
    quadrature.
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

    # ---- the quadrature variable ----

    def log_omega(self, v: np.ndarray) -> np.ndarray:
        """Log of omega at the quadrature variable v.

        v is log omega for the Gamma-type laws and logit omega for the
        intrinsic law, so every Bayes factor integrand is smooth on the
        whole real line with exponentially decaying tails.
        """
        v = np.asarray(v, dtype=float)
        if self.kind == INTRINSIC:
            return -_softplus(-v)
        return v

    def log_weight(self, v: np.ndarray) -> np.ndarray:
        """Log of (prior density times Jacobian) in the variable v.

        Integrating exp(log_weight) over the real line gives exactly 1; the
        Bayes factor integrand adds the model kernel on top of this.
        """
        v = np.asarray(v, dtype=float)
        if self.kind == INTRINSIC:
            # log(omega (1 - omega)) / 2 - log(pi) with omega = 1 / (1 + e^-v),
            # written in |v| so that neither endpoint loses digits.
            a = np.abs(v)
            return -0.5 * a - np.log1p(np.exp(-a)) - np.log(np.pi)
        return self.log_pdf(np.exp(v)) + v


# ============================================================
# Fit statistics
# ============================================================


@dataclass(frozen=True)
class ModelFitStats:
    """Sufficient statistics of one nested model for its Bayes factor.

    The Bayes factor reads ``log1m_r2`` = log(1 - r2): :func:`fit_stats`
    fills it from the exact residual, and it defaults to log1p(-r2).
    """

    n: int
    q0: int
    qk: int
    r2: float
    log1m_r2: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.r2 <= 1.0):
            raise ValueError(f"r2 must lie in [0, 1], got {self.r2}")
        if self.qk < self.q0:
            raise ValueError(f"qk={self.qk} must be >= q0={self.q0}")
        if self.log1m_r2 is None:
            with np.errstate(divide="ignore"):
                object.__setattr__(self, "log1m_r2", float(np.log1p(-self.r2)))
        elif not self.log1m_r2 <= 0.0:
            raise ValueError(f"log1m_r2 must be <= 0, got {self.log1m_r2}")


class _Factorization(NamedTuple):
    """One QR of the centered design with the scaled response appended.

    R is prefix-nested: its leading k x k block and z[:k] are the
    triangular factor and the projected response of the order-k model, so
    one factorization serves every nested r2 and coefficient vector.  R is
    unique up to the signs of its rows, which cancel in every quantity
    read from it; with more than ``_CHUNK`` rows it comes from the block
    reduction of :func:`_blocked_r`.
    """

    ybar: float
    col_means: np.ndarray  # (N,) means of the degree-1..N columns
    r: np.ndarray  # (N, N) upper triangular factor of the centered columns
    z: np.ndarray  # (N,) projections of (y - ybar) / scale
    rho2: float  # squared residual of (y - ybar) / scale after all N columns
    ssy: float  # ||(y - ybar) / scale||^2
    scale: float  # max |y - ybar|, or 1 for a constant response

    def r2(self) -> np.ndarray:
        """(N + 1,) coefficient of determination of orders 0..N."""
        r2 = np.zeros(self.z.size + 1)
        if self.ssy > 0.0:
            r2[1:] = np.minimum(np.cumsum(self.z**2) / self.ssy, 1.0)
        return r2

    def log1m_r2(self) -> np.ndarray:
        """(N + 1,) log(1 - r2) of orders 0..N, without cancellation.

        The order-k residual sum of squares is sum_{j>k} z_j^2 + rho2, a sum
        of the factorization's own squares; it is -inf only for a residual
        that is exactly zero.
        """
        out = np.zeros(self.z.size + 1)
        if self.ssy > 0.0:
            rss = np.cumsum(np.append(self.rho2, self.z[::-1] ** 2))[::-1]
            with np.errstate(divide="ignore"):
                out[1:] = np.minimum(np.log(rss[1:] / self.ssy), 0.0)
        return out

    def coefficients(self, k: int) -> np.ndarray:
        """Least-squares coefficients of degrees 1..k of the order-k model."""
        return solve_triangular(self.r[:k, :k], self.z[:k]) * self.scale


# Rows per block of the tall-skinny QR.  A 2048 x 63 block is about 1 MB and
# stays in a core's 2 MB L2 cache while dgeqrf's column-by-column panel
# steps sweep it; a 20000-row design (10 MB) does not.  On a 2-core Xeon VM
# with BLAS at one thread, blocks of 1024 to 4096 rows factorize n = 20000
# about equally fast; 8192 rows or one block take 10-35% longer.
_CHUNK = 2048


def _householder_r(buf: np.ndarray) -> np.ndarray:
    """R of the QR of ``buf.T``, with Householder vectors left in ``buf``.

    Calls numpy's own LAPACK dgeqrf, in place, on one block of rows (see
    :func:`_blocked_r`).  ``scipy.linalg.qr`` runs on scipy's separate
    OpenBLAS, whose worker threads then compete for the cores with numpy's,
    still spinning after the caller's last numpy BLAS call: with two threads
    per pool on two cores a 3 ms fit at n = 500 took up to 110 ms after a
    least-squares solve.  ``np.linalg.qr`` shares numpy's pool but copies
    the buffer twice.
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


def _blocked_r(
    n_rows: int, width: int, fill: Callable[[slice, np.ndarray], None]
) -> np.ndarray:
    """R of an n_rows x width matrix, reduced by blocks of rows (tall-skinny QR).

    ``fill(rows, out)`` writes the rows ``rows`` (a slice) of the matrix
    into ``out``, one row of ``out`` per matrix row, so the whole matrix is
    never held at once.
    The rows are cut into the fewest near-equal blocks of at most
    max(_CHUNK, 4 width) rows; each block is reduced to its R in one reused
    buffer, and the stacked R's are reduced the same way until one R
    remains (Demmel, Grigori, Hoemmen & Langou 2012, SIAM J. Sci. Comput.
    34:A206).  Every block of a split holds at least 2 width rows, so each
    level at least halves the rows.  With n_rows <= _CHUNK there is one
    block: one buffer and one :func:`_householder_r` call, as a plain QR.
    """
    n_blocks = -(-n_rows // max(_CHUNK, 4 * width))
    if n_blocks == 1:
        # Fortran layout for dgeqrf: row j of ``buf`` is column j.
        buf = np.empty((width, n_rows))
        fill(slice(0, n_rows), buf.T)
        return _householder_r(buf)
    bounds = n_rows * np.arange(n_blocks + 1) // n_blocks
    flat = np.empty(width * -(-n_rows // n_blocks))
    stack = np.empty((n_blocks * width, width))
    for b in range(n_blocks):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        buf = flat[: width * (hi - lo)].reshape(width, hi - lo)
        fill(slice(lo, hi), buf.T)
        stack[b * width : (b + 1) * width] = _householder_r(buf)
    return _blocked_r(stack.shape[0], width, lambda rows, out: np.copyto(out, stack[rows]))


def _check_rank(pivots: np.ndarray, col_norms: np.ndarray) -> None:
    """Reject a design whose QR pivot |R_jj| is below 1e-12 max(||column j||, 1).

    Column j of the degree columns is degree j + 1.
    """
    bad = np.nonzero(np.abs(pivots) <= 1e-12 * np.maximum(col_norms, 1.0))[0]
    if bad.size:
        raise ValueError(
            f"rank-deficient design: degree-{bad[0] + 1} column is numerically "
            f"collinear with the lower-degree columns"
        )


def _factorize(y: np.ndarray, x: np.ndarray) -> _Factorization:
    """QR of [x_c | y_c / s] for the degree-1..N columns ``x``.

    Dividing the centered response by s = max |y_c| keeps ssy and the
    projections representable at any response scale; r2 is scale-free and
    the coefficients are scaled back.  Only R is formed, never Q.  Each
    block of rows is centered and scaled straight into the buffer that
    :func:`_blocked_r` factorizes, and the column sums of squares for the
    rank check are summed block by block as it is filled, so no full copy
    of the design is made.  With n <= ``_CHUNK`` this is one buffer and
    one QR.
    """
    n, n_cols = x.shape
    ybar = float(y.mean())
    yc = y - ybar
    scale = float(np.max(np.abs(yc)))
    if scale == 0.0:
        scale = 1.0
    col_means = x.mean(axis=0)
    # Centered column sums of squares, then ssy = ||y_c / s||^2.
    sums = np.zeros(n_cols + 1)

    def fill(rows: slice, aug: np.ndarray) -> None:
        xc = aug[:, :n_cols]
        np.subtract(x[rows], col_means, out=xc)
        sums[:n_cols] += np.einsum("ij,ij->j", xc, xc)
        np.divide(yc[rows], scale, out=aug[:, n_cols])
        sums[n_cols] += aug[:, n_cols] @ aug[:, n_cols]

    r = _blocked_r(n, n_cols + 1, fill)
    # With fewer rows than columns R is short; the missing pivots are zero.
    diag = np.zeros(n_cols)
    diag[: r.shape[0]] = np.diag(r)[:n_cols]
    _check_rank(diag, np.sqrt(sums[:n_cols]))
    return _Factorization(
        ybar=ybar,
        col_means=col_means,
        r=r[:n_cols, :n_cols],
        z=r[:n_cols, n_cols],
        rho2=float(r[n_cols, n_cols] ** 2),
        ssy=float(sums[n_cols]),
        scale=scale,
    )


def _check_order(n: int, k: int) -> None:
    """Reject an order k that leaves n - k - 1 < 2 residual degrees of freedom."""
    if n <= k + 2:
        raise ValueError(f"need n > k + 2 observations, got n={n}, k={k}")


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
        With q0 = 1, qk = k + 1, and r2 and log(1 - r2) computed through a
        QR factorization of the centered degree-1..k columns (exact Gram
        matrix, no diagonal approximation); log(1 - r2) comes from the
        exact residual, as in :func:`fit`, so noiseless data keep a finite
        Bayes factor.
    """
    if design.basis != LEGENDRE:
        raise ValueError("fit statistics require a Legendre design")
    if not (1 <= k <= design.order):
        raise ValueError(f"k={k} outside [1, {design.order}]")
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if n != design.n:
        raise ValueError(f"response length {n} does not match design rows {design.n}")
    _check_order(n, k)
    factor = _factorize(y, design.values[:, 1 : k + 1])
    r2, log1m_r2 = factor.r2()[k], factor.log1m_r2()[k]
    return ModelFitStats(n=n, q0=1, qk=k + 1, r2=float(r2), log1m_r2=float(log1m_r2))


# ============================================================
# Quadrature engine
# ============================================================

# The peak search: a coarse ladder in v (shifted down with log(1 - r2),
# which the kernel peak follows), then Newton steps on central differences.
# Each step is clipped to half the ladder spacing: the peak of a unimodal
# integrand lies within one spacing of the ladder's best point.
_LADDER = np.arange(-40.0, 12.5, 4.0)
_NEWTON_STEPS = 3
_DIFF_STEP = 1e-4
_MIN_SCALE, _MAX_SCALE = 1e-3, 2.0
# The fixed rule: v = centre + scale * sinh(z) on a uniform z grid, with
# trapezoid weights.  The sinh map spreads 139 nodes over +-125 scales.
_Z_STEP = 0.08
_Z = _Z_STEP * np.arange(-69, 70)


def _log_kernel(
    log_g: np.ndarray, n: int, q0: int, qk: np.ndarray, log1m_r2: np.ndarray
) -> np.ndarray:
    """Complete per-omega log Bayes factor, from log g and log(1 - r2).

    With g = n / (omega (qk + 1)) the conditional Bayes factor is
    (1 + g)^((n-qk)/2) / (1 + g (1 - r2))^((n-q0)/2).  Both logs are
    softplus terms of log g, so no omega or r2 overflows or cancels.
    """
    return 0.5 * (n - qk) * _softplus(log_g) - 0.5 * (n - q0) * _softplus(log_g + log1m_r2)


def _peak(log_f, log1m_r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and scale in v of each integrand's peak.

    ``log_f`` maps an (M, K) array of v to the (M, K) log integrands.  The
    scale is 1 / sqrt(-curvature) at the centre, clipped to
    [_MIN_SCALE, _MAX_SCALE]; a centre without negative curvature gets the
    widest scale.
    """
    ladder = _LADDER[:, None] + log1m_r2
    best = np.argmax(log_f(ladder), axis=0)
    v = ladder[best, np.arange(log1m_r2.size)]
    offsets = np.array([-_DIFF_STEP, 0.0, _DIFF_STEP])[:, None]
    for step in range(_NEWTON_STEPS + 1):
        lo, mid, hi = log_f(v + offsets)
        slope = (hi - lo) / (2.0 * _DIFF_STEP)
        curv = (hi - 2.0 * mid + lo) / _DIFF_STEP**2
        if step == _NEWTON_STEPS:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            move = np.where(curv < 0.0, -slope / curv, 2.0 * np.sign(slope))
        v = v + np.clip(move, -2.0, 2.0)
    with np.errstate(divide="ignore"):
        scale = 1.0 / np.sqrt(np.maximum(-curv, 0.0))
    return v, np.clip(scale, _MIN_SCALE, _MAX_SCALE)


def _batched_bf(
    n: int,
    q0: int,
    qk: np.ndarray,
    log1m_r2: np.ndarray,
    omega_prior: OmegaPrior,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Log Bayes factors and shrinkage factors for a batch of models.

    Returns (log_bf, xi, centre, scale) where xi[k] = E[n / (n + omega
    (qk + 1)) | y, model k], the posterior expectation computed over the
    same nodes as the Bayes factor integral (a ratio of two quadratures
    sharing nodes), and centre and scale place each model's rule in v
    (see :func:`_peak`).
    """
    qk = np.asarray(qk, dtype=float)
    log1m_r2 = np.asarray(log1m_r2, dtype=float)
    log_n_s = np.log(n / (qk + 1.0))

    def log_f(v: np.ndarray) -> np.ndarray:
        log_g = log_n_s - omega_prior.log_omega(v)
        return _log_kernel(log_g, n, q0, qk, log1m_r2) + omega_prior.log_weight(v)

    centre, scale = _peak(log_f, log1m_r2)
    v = centre + scale * np.sinh(_Z)[:, None]
    log_terms = log_f(v) + np.log(_Z_STEP * scale * np.cosh(_Z)[:, None])
    top = log_terms.max(axis=0)
    terms = np.exp(log_terms - top)
    total = terms.sum(axis=0)
    # n / (n + omega (qk + 1)) = g / (1 + g).
    factor = expit(log_n_s - omega_prior.log_omega(v))
    xi = (terms * factor).sum(axis=0) / total
    return top + np.log(total), np.minimum(xi, 1.0), centre, scale


# ============================================================
# Public per-model and whole-space operations
# ============================================================


def _reject_zero_residual(orders, r2, log1m_r2) -> None:
    """Reject the first order whose residual is exactly zero, log(1 - r2) = -inf."""
    zero = np.flatnonzero(np.isneginf(log1m_r2))
    if zero.size:
        raise ValueError(
            f"saturated fit at order {orders[zero[0]]} (r2={r2[zero[0]]}); lower "
            f"the maximum order so the model does not interpolate the data"
        )


def _one_model(stats: ModelFitStats, omega_prior: OmegaPrior) -> tuple[float, float]:
    """Log Bayes factor and shrinkage of one model; the base model has r2 = 0."""
    log1m_r2 = 0.0 if stats.qk == stats.q0 else stats.log1m_r2
    _reject_zero_residual([stats.qk - stats.q0], [stats.r2], [log1m_r2])
    log_bf, xi, _, _ = _batched_bf(stats.n, stats.q0, [stats.qk], [log1m_r2], omega_prior)
    return float(log_bf[0]), float(xi[0])


def log_bayes_factor(stats: ModelFitStats, omega_prior: OmegaPrior) -> float:
    """Log Bayes factor of the order-k model against the intercept base.

    Parameters
    ----------
    stats : ModelFitStats
        Sufficient statistics from :func:`fit_stats`; the residual must not
        be exactly zero.  Noiseless data are taken as :func:`fit` takes
        them: the Bayes factor reads ``stats.log1m_r2``.
    omega_prior : OmegaPrior
        Mixing distribution over the inverse scale.

    Returns
    -------
    float
        Exactly 0.0 when qk == q0; otherwise the log of the mixture Bayes
        factor.
    """
    if stats.qk == stats.q0:
        return 0.0
    return _one_model(stats, omega_prior)[0]


def shrinkage(stats: ModelFitStats, omega_prior: OmegaPrior) -> float:
    """Posterior expectation of n / (n + omega (qk + 1)) for one model."""
    return _one_model(stats, omega_prior)[1]


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
        (N + 1,) log Bayes factors against the base model.
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
    quadrature_centre, quadrature_scale : np.ndarray or None
        (N + 1,) centre and scale in v of each order's quadrature rule
        (nodes at centre + scale sinh(z)); None for a posterior not built
        by the quadrature.
    """

    max_order: int
    n: int
    log_bf: np.ndarray
    posterior: np.ndarray
    inclusion: np.ndarray
    shrinkage: np.ndarray
    shrunken_inclusion: np.ndarray
    r2: np.ndarray
    quadrature_centre: np.ndarray | None = None
    quadrature_scale: np.ndarray | None = None


def model_posterior(
    y: np.ndarray,
    design: DesignMatrix,
    prior: ModelPrior,
    omega_prior: OmegaPrior,
) -> ModelPosterior:
    """Posterior over all nested orders given one Legendre design.

    Parameters
    ----------
    y : np.ndarray
        Response vector.
    design : DesignMatrix
        Legendre design whose order equals ``prior.max_order``; requires
        n > order + 2.
    prior : ModelPrior
        Prior over orders from :func:`model_prior`.
    omega_prior : OmegaPrior
        Mixing distribution over the inverse g-prior scale.

    Returns
    -------
    ModelPosterior
        Probabilities, inclusion curves and shrinkage factors of every
        order 0..N.
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
    _check_order(n, design.order)
    factor = _factorize(y, design.values[:, 1:])
    return _posterior_from_r2(n, factor.r2(), factor.log1m_r2(), prior, omega_prior)


def _normalized_posterior(log_post: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior over orders 0..N from unnormalized log masses, and inclusion.

    inclusion[j - 1] is the posterior probability that degree j is in the
    model.
    """
    posterior = np.exp(log_post - logsumexp(log_post))
    posterior /= posterior.sum()
    # Degree j belongs to every model of order >= j: tail sums.
    tail = np.cumsum(posterior[::-1])[::-1]
    return posterior, tail[1:].copy()


def _posterior_from_r2(
    n: int,
    r2: np.ndarray,
    log1m_r2: np.ndarray,
    prior: ModelPrior,
    omega_prior: OmegaPrior,
) -> ModelPosterior:
    """Posterior over orders 0..N from the nested fits of a size-n sample.

    ``r2`` is reported; the Bayes factors read ``log1m_r2`` = log(1 - r2),
    which keeps its digits where r2 rounds to 1.
    """
    n_max = r2.size - 1
    ks = np.arange(n_max + 1)
    _reject_zero_residual(ks, r2, log1m_r2)
    # The base model (q0 = 1 parameter) rides along with a unit kernel so
    # its shrinkage factor comes from the same node set as everyone else's.
    log_bf, xi, centre, scale = _batched_bf(n, 1, ks + 1, log1m_r2, omega_prior)
    log_bf[0] = 0.0
    posterior, inclusion = _normalized_posterior(log_bf + prior.log_probs)
    tail_shrunk = np.cumsum((xi * posterior)[::-1])[::-1]

    return ModelPosterior(
        max_order=n_max,
        n=n,
        log_bf=log_bf,
        posterior=posterior,
        inclusion=inclusion,
        shrinkage=xi,
        shrunken_inclusion=tail_shrunk[1:].copy(),
        r2=r2,
        quadrature_centre=centre,
        quadrature_scale=scale,
    )
