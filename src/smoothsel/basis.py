"""Polynomial bases on the unit interval.

Provides numerically stable evaluation of Bernstein basis rows (via the
degree-elevation recurrence, no factorials) and shifted Legendre rows (via
the three-term recurrence), predictor rescaling to [0, 1], design matrix
construction, and the sample-size-driven cap on the maximum order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BERNSTEIN = "bernstein"
LEGENDRE = "legendre"

# Points this far outside [0, 1] are treated as rounding noise and clamped;
# anything worse is a caller error.
_CLAMP_TOL = 1e-12

_ORDER_CAP = 60


def _check_finite(*arrays: np.ndarray) -> None:
    """The one finiteness rule of the data x and y."""
    if not all(np.all(np.isfinite(v)) for v in arrays):
        raise ValueError("x and y must be finite")


@dataclass(frozen=True)
class PredictorScale:
    """Affine map between an observed predictor interval [a, b] and [0, 1].

    Parameters
    ----------
    a, b : float
        Endpoints of the predictor interval, a < b.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("scale endpoints must be finite")
        if self.a >= self.b:
            raise ValueError(
                f"degenerate predictor interval: a={self.a} must be < b={self.b}"
            )

    def to_unit(self, x: np.ndarray) -> np.ndarray:
        """Map x from [a, b] to [0, 1]."""
        return (np.asarray(x, dtype=float) - self.a) / (self.b - self.a)

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        """Map u from [0, 1] back to [a, b]."""
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class DesignMatrix:
    """Evaluated basis functions at the sample points.

    Attributes
    ----------
    basis : str
        Either ``"bernstein"`` or ``"legendre"``.
    order : int
        Polynomial order; ``values`` has ``order + 1`` columns.
    values : np.ndarray
        Array of shape (n, order + 1); column j holds basis function j.
    """

    basis: str
    order: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.basis not in (BERNSTEIN, LEGENDRE):
            raise ValueError(f"unknown basis tag: {self.basis!r}")
        if self.values.ndim != 2 or self.values.shape[1] != self.order + 1:
            raise ValueError(
                f"values shape {self.values.shape} inconsistent with order {self.order}"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _check_unit(u: np.ndarray) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(~np.isfinite(u)):
        raise ValueError("basis evaluation points must be finite")
    low, high = u.min(initial=0.0), u.max(initial=1.0)
    if low < -_CLAMP_TOL or high > 1.0 + _CLAMP_TOL:
        raise ValueError(
            f"evaluation points outside [0, 1]: range [{low}, {high}] "
            f"exceeds the clamping tolerance {_CLAMP_TOL}"
        )
    return np.clip(u, 0.0, 1.0)


def _bernstein_rows(u: np.ndarray, order: int) -> np.ndarray:
    # Degree elevation: row at order m comes from order m - 1 by
    # b_k^m = (1 - u) b_k^{m-1} + u b_{k-1}^{m-1}.  No factorials, so the
    # evaluation stays exact-in-spirit well past order 20.  Basis functions
    # are rows of the buffer, so each update touches contiguous memory;
    # updating from the top down reads every b^{m-1} before it is replaced.
    rows = np.zeros((order + 1, u.shape[0]))
    rows[0] = 1.0
    one_minus = 1.0 - u
    for m in range(1, order + 1):
        rows[m] = u * rows[m - 1]
        rows[1:m] = one_minus * rows[1:m] + u * rows[: m - 1]
        rows[0] *= one_minus
    return rows.T


def _legendre_rows(u: np.ndarray, order: int, spare: int = 0) -> np.ndarray:
    # Shifted Legendre three-term recurrence on [0, 1], (k + 1) psi_{k+1} =
    # (2k + 1)(2u - 1) psi_k - k psi_{k-1}, in rows 0..order of a C-ordered
    # buffer whose ``spare`` rows after them stay unset.  Each step is ((2k + 1)
    # t rows[k] - k rows[k - 1]) / (k + 1), in that order, written in place.
    rows = np.empty((order + 1 + spare, u.shape[0]))
    rows[0] = 1.0
    if order >= 1:
        t = 2.0 * u - 1.0
        rows[1] = t
        scratch = np.empty_like(t)
        for k in range(1, order):
            nxt = rows[k + 1]
            np.multiply(2 * k + 1, t, out=scratch)
            np.multiply(scratch, rows[k], out=scratch)
            np.multiply(k, rows[k - 1], out=nxt)
            np.subtract(scratch, nxt, out=nxt)
            np.divide(nxt, k + 1, out=nxt)
    return rows


def build_design(
    x: np.ndarray, scale: PredictorScale, order: int, basis: str
) -> DesignMatrix:
    """Build a design matrix for the requested basis.

    Parameters
    ----------
    x : np.ndarray
        Predictor values on the original scale.
    scale : PredictorScale
        Affine map carrying x into [0, 1].
    order : int
        Polynomial order of the basis.
    basis : str
        ``"bernstein"`` or ``"legendre"``.

    Returns
    -------
    DesignMatrix
        Shape (n, order + 1) evaluation of the basis at the rescaled points.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size < 1:
        raise ValueError("empty predictor array")
    u = _check_unit(scale.to_unit(x))
    if basis == BERNSTEIN:
        values = _bernstein_rows(u, order)
    elif basis == LEGENDRE:
        values = _legendre_rows(u, order).T
    else:
        raise ValueError(f"unknown basis tag: {basis!r}")
    return DesignMatrix(basis=basis, order=order, values=values)


def max_order(n: int, cap: int = _ORDER_CAP) -> int:
    """Largest admissible order for a sample of size n: min(floor(n^(2/3)), cap).

    The floor is computed in exact integer arithmetic so that perfect cubes
    do not lose a unit to floating point rounding.
    """
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got {n}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    # Largest m with m^3 <= n^2.
    m = int(round(float(n) ** (2.0 / 3.0)))
    while m > 0 and m * m * m > n * n:
        m -= 1
    while (m + 1) ** 3 <= n * n:
        m += 1
    return min(m, cap)
