"""K-fold cross-validation baseline for choosing the Bernstein order.

The baseline mirrors how the order would be tuned without the Bayesian
machinery: every candidate order is refitted from scratch on each training
split (design built, least squares solved) and scored by held-out squared
error.  Fold membership comes from one seeded permutation shared by all
orders, so scores across orders are directly comparable.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BERNSTEIN, PredictorScale, _check_finite, build_design


@dataclass(frozen=True)
class CvResult:
    """Cross-validation scores and the selected order.

    ``cv_mse[k]`` is the pooled held-out mean squared error of the order-k
    fit; +inf marks orders whose training design went singular in some
    fold.  Ties in the argmin resolve to the smaller order.
    ``fold_assignment`` holds each observation's fold index; fold sizes
    differ by at most one.
    """

    selected_order: int
    cv_mse: np.ndarray
    fold_assignment: np.ndarray
    folds: int
    seed: int
    wall_clock: float


def cv_select(
    x: np.ndarray,
    y: np.ndarray,
    max_order: int,
    folds: int = 5,
    seed: int = 0,
) -> CvResult:
    """Choose the Bernstein order by K-fold cross-validation.

    Parameters
    ----------
    x, y : np.ndarray
        Predictor and response vectors of equal length n >= folds.
    max_order : int
        Largest candidate order (all orders 0..max_order are scored).
    folds : int
        Number of folds, >= 2.
    seed : int
        Seed of the fold-assignment permutation; the same permutation is
        reused for every candidate order.

    Returns
    -------
    CvResult
        Scores per order, the argmin (ties to the smaller order), and the
        wall-clock time of the whole scan.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    y = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    if x.size != y.size:
        raise ValueError(f"x and y lengths differ: {x.size} vs {y.size}")
    _check_finite(x, y)
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    n = x.size
    if n < 2 * folds:
        raise ValueError(
            f"need at least two observations per fold, got n={n} for {folds} folds"
        )
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")

    start = time.perf_counter()
    scale = PredictorScale(float(x.min()), float(x.max()))
    rng = np.random.default_rng(seed)
    assignment = rng.permutation(n) % folds

    cv_sse = np.zeros(max_order + 1)
    singular = np.zeros(max_order + 1, dtype=bool)
    for k in range(max_order + 1):
        for fold in range(folds):
            test = assignment == fold
            train = ~test
            train_design = build_design(x[train], scale, k, BERNSTEIN)
            coef, _, rank, _ = np.linalg.lstsq(train_design.values, y[train], rcond=None)
            if rank < k + 1:
                singular[k] = True
                break
            test_design = build_design(x[test], scale, k, BERNSTEIN)
            resid = y[test] - test_design.values @ coef
            cv_sse[k] += float(resid @ resid)
        if singular[k]:
            warnings.warn(
                f"order {k}: singular training design in a fold; score set to +inf",
                RuntimeWarning,
            )
            cv_sse[k] = np.inf

    cv_mse = np.where(np.isinf(cv_sse), np.inf, cv_sse / n)
    selected = int(np.argmin(cv_mse))
    elapsed = time.perf_counter() - start
    return CvResult(
        selected_order=selected,
        cv_mse=cv_mse,
        fold_assignment=assignment,
        folds=folds,
        seed=seed,
        wall_clock=elapsed,
    )
