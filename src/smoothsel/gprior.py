"""Bayes factors and posteriors over nested orders under mixtures of g-priors.

The inverse scale omega = 1/g carries one of three objective mixing
distributions: an arcsine (Beta(1/2, 1/2)) law on (0, 1), a Gamma law on
(0, inf), or a Gamma law whose rate is itself Gamma distributed (the last
marginalizes in closed form to a scaled beta-prime density).  One QR of
[1 | x | y_c / s], the design with the centered, scaled response appended,
gives the r2 of every nested order, and log(1 - r2) from its residual sums
of squares without cancellation; its first reflector, on the constant
column, does the centering.  The QR works in place in the buffer that
holds the design's rows.  Above ``_CHUNK`` rows it runs over cache-sized
blocks of those rows, and the blocks' triangular factors are stacked and
reduced to one (a tall-skinny QR).  Every block is one LAPACK dgeqrt call,
a Householder QR by compact-WY panels of ``_PANEL`` columns, whose R was
bit-identical at 1 and 2 BLAS threads; scipy.linalg, which exports it,
is imported on the first QR.  The call releases the GIL, so the
blocks run on the calling thread and a pool of one worker per core but
one; no result depends on the core count.  Each Bayes factor
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

import ctypes
import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

from .basis import LEGENDRE, DesignMatrix, _check_finite
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
    """One QR of [1 | x | y_c / s], read from its R by :func:`_factorize_rows`.

    ``r`` is R without the constant's row and column: the factor of the
    centered columns.  It is prefix-nested: its leading k x k block and
    z[:k] are those of the order-k model, so one factorization serves every
    nested r2 and coefficient vector.  R is unique up to the signs of its
    rows, which cancel in every quantity read from it.
    """

    ybar: float
    col_means: np.ndarray  # (N,) means of the degree-1..N columns
    r: np.ndarray  # (N, N) upper triangular factor of the centered columns
    z: np.ndarray  # (N,) projections of (y - ybar) / scale
    rho2: float  # squared residual of (y - ybar) / scale after all N columns
    ssy: float  # ||(y - ybar) / scale||^2
    scale: float  # max |y - ybar|, or 1 for a constant response
    col_ss: np.ndarray  # (N,) sums of squares n m_j^2 + ||r e_j||^2 of the columns

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
        from scipy.linalg import solve_triangular  # loaded on first use, as in _lapack_dgeqrt
        return solve_triangular(self.r[:k, :k], self.z[:k]) * self.scale


def _available_cores() -> int:
    """Cores this process may run on: its CPU affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_pool() -> ThreadPoolExecutor | nullcontext:
    """A context giving a pool of one worker per core but one, or None on one core."""
    workers = _available_cores() - 1
    return ThreadPoolExecutor(max_workers=workers) if workers > 0 else nullcontext()


def _share(pool: Executor | None, parts: int, task: Callable[[int], None]) -> None:
    """Run ``task(i)`` for i in range(parts) on the calling thread and the pool's workers.

    Each thread takes the next index from one shared iterator, so a slow or
    busy worker holds only the part it is computing; without a pool the
    parts run in order in the calling thread.
    """
    indices = iter(range(parts))
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            task(i)

    helpers = 0 if pool is None else min(parts, _available_cores()) - 1
    futures = [pool.submit(drain) for _ in range(helpers)]
    drain()
    for future in futures:
        if not future.cancel():  # a worker that started may still hold a part
            future.result()


# Rows per block of the tall-skinny QR: a 2048 x 62 block (1 MB) stays in a
# core's 2 MB L2 cache (blocks of 1024 and 4096 rows were slower, CHANGES.md).
_CHUNK = 2048

# Columns per compact-WY panel of _householder_r: on OpenBLAS 0.3.30, 16- and
# 64-column panels moved R's last bits between 1 and 2 BLAS threads at
# n = 3001 and 12345 (pinned by tests/test_blas_threads.py); 8 did not.
_PANEL = 8


_INT_P, _DOUBLE_P = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# LAPACK dgeqrt(M, N, NB, A, LDA, T, LDT, WORK, INFO), every argument by
# reference.  A CFUNCTYPE call releases the GIL for its duration.
_DGEQRT = ctypes.CFUNCTYPE(
    None, _INT_P, _INT_P, _INT_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P
)


@lru_cache(maxsize=None)
def _lapack_dgeqrt() -> Callable[..., None]:
    """dgeqrt from its capsule in scipy's ``cython_lapack``, loaded on the first QR."""
    from scipy.linalg import cython_lapack
    capsule, api = cython_lapack.__pyx_capi__["dgeqrt"], ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    return _DGEQRT(pointer(capsule, name(capsule)))


def _dgeqrt(panel: int, buf: np.ndarray, first: int, rows: int) -> np.ndarray:
    """LAPACK dgeqrt in place on rows first..first + rows - 1 of ``buf.T``, by panels of ``panel``.

    As scipy's ``dgeqrt(panel, buf.T[first:first + rows], overwrite_a=1)``: R
    and the Householder vectors overwrite those rows; returns the (panel,
    columns) factors T.  The block is passed by its first element with LDA =
    n, the height of ``buf.T``, so it is not copied.
    """
    if buf.dtype != np.float64 or not buf.flags.c_contiguous:
        raise ValueError("dgeqrt needs buf.T Fortran-ordered: buf C-contiguous float64")
    n_cols, n = buf.shape
    if not (0 <= first and n_cols <= rows and first + rows <= n):
        raise ValueError(f"rows {first}..{first + rows - 1} of {n}: no block of {n_cols} columns")
    m, cols, nb, lda, info = (ctypes.c_int(v) for v in (rows, n_cols, panel, n, 0))
    t, work = np.zeros((n_cols, panel)), np.empty(n_cols * panel)
    a = ctypes.c_double.from_buffer(buf, first * buf.itemsize)
    t_first, work_first = (ctypes.c_double.from_buffer(v) for v in (t, work))
    _lapack_dgeqrt()(m, cols, nb, a, lda, t_first, nb, work_first, info)  # LDT = NB
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dgeqrt failed with info={info.value}")
    return t.T


@lru_cache
def _strict_lower(width: int) -> np.ndarray:
    """Mask of the entries below the diagonal of a width x width matrix."""
    return np.tri(width, k=-1, dtype=bool)


def _householder_r(buf: np.ndarray, first: int, rows: int, out: np.ndarray) -> np.ndarray:
    """R of rows first..first + rows - 1 of ``buf.T``, written to ``out`` and returned.

    One LAPACK dgeqrt call in place on ``buf``, which keeps the Householder
    vectors: panels of ``_PANEL`` columns by recursive compact-WY steps
    (Elmroth & Gustavson 2000, IBM J. Res. Dev. 44:605), each applied to the
    columns right of it as one block reflector (Schreiber & Van Loan 1989,
    SIAM J. Sci. Stat. Comput. 10:53).  :func:`_dgeqrt` calls it through
    scipy's ``cython_lapack`` capsule, resolved on the first QR; that call
    releases the GIL (f2py's ``dgeqrt`` holds it), so blocks run in parallel.
    """
    width = buf.shape[0]
    _dgeqrt(min(_PANEL, width), buf, first, rows)
    out[...] = buf.T[first : first + width]
    np.copyto(out, 0.0, where=_strict_lower(width))
    return out


def _blocked_r(buf: np.ndarray) -> np.ndarray:
    """R of the QR of ``buf.T``, reduced in place by blocks of rows (tall-skinny QR).

    ``buf`` is C-ordered, so ``buf.T`` is a Fortran-ordered n_rows x width
    matrix and every block of its rows is factorized where it lies.  The
    rows are cut into the fewest near-equal blocks of at most
    max(_CHUNK, 4 width) rows; each block is reduced to its R, and the
    stacked R's are reduced the same way until one R remains (Demmel,
    Grigori, Hoemmen & Langou 2012, SIAM J. Sci. Comput. 34:A206).  Every
    block of a split holds at least 2 width rows, so each level at least
    halves the rows.  With n_rows <= _CHUNK there is one block: one
    :func:`_householder_r` call, as a plain QR, and no thread.  Above that
    the calling thread and a pool of one worker per core but one share a
    level's blocks (:func:`_share`), each writing its R into its own rows
    of the next level's buffer.  The blocks and the tree depend only on
    n_rows and width, so R does not depend on the core count.
    """
    width, n_rows = buf.shape
    n_blocks = -(-n_rows // max(_CHUNK, 4 * width))
    if n_blocks == 1:
        return _householder_r(buf, 0, n_rows, np.empty((width, width)))
    bounds = n_rows * np.arange(n_blocks + 1) // n_blocks
    stack = np.empty((width, n_blocks * width))

    def reduce_block(b: int) -> None:
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        _householder_r(buf, lo, hi - lo, stack.T[b * width : (b + 1) * width])

    _lapack_dgeqrt()  # resolved here, so no worker thread imports scipy.linalg
    with _thread_pool() as pool:
        _share(pool, n_blocks, reduce_block)
    return _blocked_r(stack)


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


def _factorize_rows(work: np.ndarray, y: np.ndarray) -> _Factorization:
    """QR of [1 | x | y_c / s] in place in the C-ordered (N + 2, n) buffer ``work``.

    Rows 0..N of ``work`` hold ones and the degree-1..N columns x; row N + 1
    gets y_c / s, s = max |y_c|, which keeps ssy and z representable at any
    response scale.  Only R is formed.  Its first reflector, on the constant
    column, does the centering (Bjorck 1996, Numerical Methods for Least
    Squares Problems): R[0, j] / R[0, 0] is the mean m_j of column j, and
    R[1:, 1:] the R of the centered problem, whose column norms the rank
    check reads.  ssy is summed by ``einsum``'s own loop, not by a BLAS dot
    whose last bit moved with the BLAS thread count.
    """
    ybar = float(y.mean())
    ys = np.subtract(y, ybar, out=work[-1])
    scale = float(np.max(np.abs(ys))) or 1.0
    np.divide(ys, scale, out=ys)
    ssy = float(np.einsum("i,i->", ys, ys))
    r = _blocked_r(work)
    col_means = r[0, 1:-1] / r[0, 0]
    rc = r[1:-1, 1:-1]
    centered_ss = np.einsum("ij,ij->j", rc, rc)
    _check_rank(np.diag(rc), np.sqrt(centered_ss))
    return _Factorization(
        ybar=ybar,
        col_means=col_means,
        r=rc,
        z=r[1:-1, -1],
        rho2=float(r[-1, -1] ** 2),
        ssy=ssy,
        scale=scale,
        col_ss=work.shape[1] * col_means**2 + centered_ss,
    )


def _factorize(y: np.ndarray, x: np.ndarray) -> _Factorization:
    """:func:`_factorize_rows` of the degree-1..N columns ``x``, copied into a work buffer.

    :func:`fit` builds its Legendre rows in that buffer instead.
    """
    n, n_cols = x.shape
    work = np.empty((n_cols + 2, n))
    work[0] = 1.0
    work[1:-1] = x.T
    return _factorize_rows(work, y)


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
        With q0 = 1, qk = k + 1, and r2 and log(1 - r2) from the QR of
        [1 | degree-1..k columns | y_c / s] that :func:`fit` takes, whose
        constant column does the centering (exact Gram matrix, no diagonal
        approximation); log(1 - r2) comes from the exact residual, so
        noiseless data keep a finite Bayes factor.
    """
    if design.basis != LEGENDRE:
        raise ValueError("fit statistics require a Legendre design")
    if not (1 <= k <= design.order):
        raise ValueError(f"k={k} outside [1, {design.order}]")
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if n != design.n:
        raise ValueError(f"response length {n} does not match design rows {design.n}")
    _check_finite(y)
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


def _sinh_rule(centre: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes v = centre + scale sinh(z) of the fixed rule, and their log weights.

    Both are (139, K) for K centres and scales; the weights are the trapezoid
    weights in z times the Jacobian dv/dz.
    """
    return centre + scale * np.sinh(_Z)[:, None], np.log(_Z_STEP * scale * np.cosh(_Z)[:, None])


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

    def log_f(v: np.ndarray, log_g: np.ndarray | None = None) -> np.ndarray:
        if log_g is None:  # log g = log(n / (omega (qk + 1)))
            log_g = log_n_s - omega_prior.log_omega(v)
        return _log_kernel(log_g, n, q0, qk, log1m_r2) + omega_prior.log_weight(v)

    centre, scale = _peak(log_f, log1m_r2)
    v, log_weights = _sinh_rule(centre, scale)
    log_g = log_n_s - omega_prior.log_omega(v)  # once, for the integrands and the factor
    log_terms = log_f(v, log_g) + log_weights
    top = log_terms.max(axis=0)
    terms = np.exp(log_terms - top)
    total = terms.sum(axis=0)
    # n / (n + omega (qk + 1)) = g / (1 + g).
    factor = expit(log_g)
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
    _check_finite(y)
    _check_order(n, design.order)
    factor = _factorize(y, design.values[:, 1:])
    return _posterior_from_r2(n, factor.r2(), factor.log1m_r2(), prior, omega_prior)


def _logsumexp(v: np.ndarray) -> float:
    """log(sum(exp(v))) of a non-empty vector, shifted by its largest entry.

    The largest term is left out of the sum and added back by log1p, as
    ``scipy.special.logsumexp`` does, so a unique maximum gives its value
    bit for bit at a tenth of its call overhead.  An all -inf vector gives
    -inf.
    """
    top_at = np.argmax(v)
    top = v[top_at]
    if not np.isfinite(top):
        return float(top)
    terms = np.exp(v - top)
    terms[top_at] = 0.0
    return float(top + np.log1p(terms.sum()))


def _normalized_posterior(log_post: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior over orders 0..N from unnormalized log masses, and inclusion.

    inclusion[j - 1] is the posterior probability that degree j is in the
    model.
    """
    posterior = np.exp(log_post - _logsumexp(log_post))
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
