"""Nested model space over polynomial orders and its prior.

Only prefix inclusion patterns are admissible: including the degree-j term
requires every lower-degree term, so the model space is indexed by the
order k = 0..N alone.  Integrating independent Beta(a, b) inclusion
probabilities under that heredity constraint gives the closed-form prior
pi(k) = (a/(a+b))^k * (b/(a+b)) for k < N, with the remaining geometric
tail lumped onto the full model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelPrior:
    """Prior over orders 0..max_order induced by Beta(a, b) inclusion."""

    a: float
    b: float
    max_order: int
    probs: np.ndarray
    log_probs: np.ndarray


def model_prior(max_order: int, a: float = 1.0, b: float = 1.0) -> ModelPrior:
    """Closed-form prior over orders under heredity-constrained inclusion.

    Parameters
    ----------
    max_order : int
        Largest order N in the space.
    a, b : float
        Beta hyperparameters of the per-term inclusion probability; both
        must be positive.  The default a = b = 1 halves the mass at each
        extra order: (1/2, 1/4, ..., 2^-N, 2^-N).

    Returns
    -------
    ModelPrior
        Probabilities and their logs over orders 0..N; sums to 1.
    """
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    if not (a > 0 and b > 0):
        raise ValueError(f"Beta hyperparameters must be positive, got a={a}, b={b}")
    p_in = a / (a + b)
    k = np.arange(max_order + 1)
    log_probs = k * np.log(p_in) + np.log1p(-p_in)
    # The full model absorbs the geometric tail: no term left to exclude.
    log_probs[max_order] = max_order * np.log(p_in)
    probs = np.exp(log_probs)
    return ModelPrior(
        a=float(a), b=float(b), max_order=max_order, probs=probs, log_probs=log_probs
    )
