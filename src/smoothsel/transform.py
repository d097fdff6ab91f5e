"""Change of basis between shifted Legendre and Bernstein coefficients.

The two bases span the same polynomial space, so a curve fitted in the
Legendre parameterization can be reported as Bernstein ordinates through a
fixed (order + 1) x (order + 1) matrix and its closed-form inverse.  Both
matrices are assembled in exact integer/rational arithmetic (binomials via
``math.comb``, sums via ``fractions.Fraction``) and rounded once at the
end, so no large factorial ever passes through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .basis import _ORDER_CAP


@dataclass(frozen=True)
class TransformPair:
    """Forward and inverse basis-change matrices for one order.

    Attributes
    ----------
    order : int
        Polynomial order N; matrices are (N + 1) x (N + 1).
    q : np.ndarray
        Maps Legendre coefficients to Bernstein ordinates, eta = q @ lam.
    q_inv : np.ndarray
        Closed-form inverse of ``q``.
    round_trip_error : float
        max |q @ q_inv - I|, a floating point health check recorded at
        construction time.
    """

    order: int
    q: np.ndarray
    q_inv: np.ndarray
    round_trip_error: float


@lru_cache(maxsize=None)
def _exact_pair(order: int) -> tuple[np.ndarray, np.ndarray]:
    n = order
    q = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        denom = comb(n, j)
        for k in range(n + 1):
            # Integer alternating sum; exact in arbitrary precision.
            s = 0
            for i in range(max(0, j + k - n), min(j, k) + 1):
                s += (-1) ** (k + i) * comb(k, i) ** 2 * comb(n - k, j - i)
            q[j, k] = float(Fraction(s, denom))
    q_inv = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        lead = Fraction(2 * j + 1, n + j + 1)
        for k in range(n + 1):
            s = Fraction(0)
            for i in range(j + 1):
                s += Fraction((-1) ** (j + i) * comb(j, i) ** 2, comb(n + j, k + i))
            q_inv[j, k] = float(lead * comb(n, k) * s)
    return q, q_inv


def build_transform(order: int) -> TransformPair:
    """Construct the Legendre/Bernstein basis-change pair for one order.

    Parameters
    ----------
    order : int
        Polynomial order, 0 <= order <= 60.

    Returns
    -------
    TransformPair
        Exactly-assembled matrices with the recorded round-trip error.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > _ORDER_CAP:
        raise ValueError(
            f"order {order} exceeds the supported cap {_ORDER_CAP}; the "
            f"basis-change matrices are not built past it"
        )
    q, q_inv = _exact_pair(order)
    q = q.copy()
    q_inv = q_inv.copy()
    err = float(np.max(np.abs(q @ q_inv - np.eye(order + 1))))
    return TransformPair(order=order, q=q, q_inv=q_inv, round_trip_error=err)


def legendre_to_bernstein(lam: np.ndarray, pair: TransformPair) -> np.ndarray:
    """Map Legendre coefficients to Bernstein ordinates: eta = q @ lam."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (pair.order + 1,):
        raise ValueError(
            f"coefficient length {lam.shape} does not match order {pair.order}"
        )
    return pair.q @ lam
