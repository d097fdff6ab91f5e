"""Simulation grid: data generation, sup-norm accuracy, and benchmark runs.

Two reference mean functions drive the experiments: a degree-5 polynomial
on [0, 1] and a piecewise linear curve on [-3, 3].  Noise levels come from
a signal-to-noise ratio defined through the mean absolute signal, datasets
are reproducible from pre-split RNG streams keyed by (seed, rep), and each
replicate records the selected orders, sup-norm errors, and wall-clock
times of the Bayesian selector and the cross-validation baseline on the
same data.  Results stream to CSV as they complete, so partial output
survives an interrupted run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .basis import BERNSTEIN, LEGENDRE, PredictorScale, build_design
from .cv import cv_select
from .selector import (
    _MIN_SAMPLE, FitConfig, FitResult, _available_cores, _shrunken_legendre, fit
)

POLY5 = "poly5"
PWLINEAR = "pwlinear"
CUSTOM = "custom"

_GRID_SIZE = 2001


def mean_poly5(x: np.ndarray) -> np.ndarray:
    """Degree-5 polynomial test signal on [0, 1]."""
    x = np.asarray(x, dtype=float)
    return 5.0 * x * (5.0 * x - 0.2) * (0.4 * x - 1.8) * (3.0 * x - 1.8) * (2.0 * x - 1.8)


def mean_pwlinear(x: np.ndarray) -> np.ndarray:
    """Continuous piecewise linear test signal on [-3, 3]."""
    x = np.asarray(x, dtype=float)
    return np.where(x < -1.0, x, np.where(x < 1.0, -1.0, x - 2.0))


# Each signal's mean, fixed domain, and the kinks of |mu| (its roots and
# breakpoints), which the quadrature of the mean absolute signal splits at.
_TAGGED = {
    POLY5: (mean_poly5, (0.0, 1.0), (0.04, 0.6, 0.9)),
    PWLINEAR: (mean_pwlinear, (-3.0, 3.0), (-1.0, 1.0, 2.0)),
}


def _tagged(tag: str) -> tuple:
    """The (mean, domain, kinks) entry of a named signal."""
    if tag not in _TAGGED:
        raise ValueError(f"unknown mean_fn tag {tag!r}")
    return _TAGGED[tag]


@dataclass(frozen=True)
class Scenario:
    """One cell of the experiment grid.

    ``mean_fn`` is one of ``"poly5"``, ``"pwlinear"``, or ``"custom"``;
    the named signals fix their own domains, a custom scenario must supply
    both ``mean`` and ``domain``.  ``snr`` may be ``inf`` for noiseless
    data: the Bayes factors read log(1 - r2) from the exact residual of the
    factorization, so a fit is rejected only where that residual is exactly
    zero.  ``n`` must be at least 5, the smallest sample :func:`fit` takes.
    """

    mean_fn: str
    n: int
    snr: float
    reps: int
    seed: int
    domain: Optional[tuple[float, float]] = None
    mean: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.mean_fn == CUSTOM:
            if self.mean is None or self.domain is None:
                raise ValueError("custom scenario needs both mean and domain")
        else:
            fixed = _tagged(self.mean_fn)[1]
            if self.domain is None:
                object.__setattr__(self, "domain", fixed)
            elif tuple(map(float, self.domain)) != fixed:
                raise ValueError(f"{self.mean_fn} domain is fixed to {fixed}")
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"domain must be a finite interval, got ({a}, {b})")
        if self.n < _MIN_SAMPLE:
            raise ValueError(f"n must be >= {_MIN_SAMPLE}, got {self.n}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not self.snr > 0:
            raise ValueError(f"snr must be > 0, got {self.snr}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    @property
    def mu(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.mean if self.mean_fn == CUSTOM else _TAGGED[self.mean_fn][0]


@dataclass(frozen=True)
class SimulationRecord:
    """Per-replicate outcome; CV fields are None when CV was not run."""

    rep: int
    n: int
    snr: float
    fn: str
    order_bayes: int
    supnorm_bayes: float
    supnorm_full: float
    time_bayes: float
    order_cv: Optional[int] = None
    supnorm_cv: Optional[float] = None
    time_cv: Optional[float] = None


def sigma_from_snr(
    mean_fn: str | Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float],
    snr: float,
) -> float:
    """Noise level sigma = (mean absolute signal) / snr.

    Parameters
    ----------
    mean_fn : str or callable
        Signal tag or the mean function itself.
    domain : (a, b)
        Interval over which the mean absolute signal is taken, by
        adaptive quadrature; for a named signal it is split at the kinks
        of |mu| inside (a, b), so any interval is integrated accurately.
    snr : float
        Signal-to-noise ratio, > 0; ``inf`` gives sigma = 0, noiseless data,
        which :func:`fit` supports through the exact residual of its
        factorization.

    Returns
    -------
    float
        sigma such that snr = mean|mu| / sigma.
    """
    if not snr > 0:
        raise ValueError(f"snr must be > 0, got {snr}")
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ValueError(f"domain must satisfy a < b, got ({a}, {b})")
    if isinstance(mean_fn, str):
        fn, _, kinks = _tagged(mean_fn)
        points = [t for t in kinks if a < t < b]
    else:
        fn, points = mean_fn, None
    total, _ = quad(lambda t: abs(float(fn(t))), a, b, points=points, limit=200)
    mean_abs = total / (b - a)
    if mean_abs <= 0:
        raise ValueError("mean function is identically zero; snr is undefined")
    if np.isinf(snr):
        return 0.0
    return mean_abs / snr


def generate(scenario: Scenario, rep: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one replicate dataset, deterministic given (seed, rep).

    Predictors are uniform on the scenario domain and responses are the
    signal plus Gaussian noise at the SNR-calibrated level; an infinite
    SNR yields the signal exactly.
    """
    if rep < 0:
        raise ValueError(f"rep must be >= 0, got {rep}")
    rng = np.random.default_rng([scenario.seed, rep])
    a, b = scenario.domain
    x = rng.uniform(a, b, scenario.n)
    mu = np.asarray(scenario.mu(x), dtype=float)
    sigma = sigma_from_snr(
        scenario.mean_fn if scenario.mean_fn != CUSTOM else scenario.mean,
        scenario.domain,
        scenario.snr,
    )
    if sigma > 0:
        y = mu + sigma * rng.standard_normal(scenario.n)
    else:
        y = mu.copy()
    return x, y


def sup_norm(
    fit_curve: Callable[[np.ndarray], np.ndarray],
    mean_fn: str | Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float],
    grid_size: int = _GRID_SIZE,
) -> float:
    """Max absolute gap between a fitted curve and the true mean on a grid."""
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    fn = _tagged(mean_fn)[0] if isinstance(mean_fn, str) else mean_fn
    grid = np.linspace(float(domain[0]), float(domain[1]), grid_size)
    gap = np.asarray(fit_curve(grid), dtype=float) - np.asarray(fn(grid), dtype=float)
    return float(np.max(np.abs(gap)))


def full_order_curve(result: FitResult, grid: np.ndarray) -> np.ndarray:
    """Shrunken curve of the largest order, for overfit checks.

    Evaluated in the Legendre basis: at order 60 the Bernstein transform's
    condition number is about 1e17, which would bury the curve in rounding.
    """
    diag = result.diagnostics
    lam = _shrunken_legendre(
        np.asarray(diag["lambda_full"], dtype=float),
        float(result.shrinkage[result.max_order]),
        np.asarray(diag["col_means"], dtype=float),
        float(diag["ybar"]),
    )
    return build_design(grid, result.scale, result.max_order, LEGENDRE).values @ lam


def _ls_curve(
    x: np.ndarray,
    y: np.ndarray,
    scale: PredictorScale,
    order: int,
    grid: np.ndarray,
) -> np.ndarray:
    design = build_design(x, scale, order, BERNSTEIN)
    coef, *_ = np.linalg.lstsq(design.values, y, rcond=None)
    return build_design(grid, scale, order, BERNSTEIN).values @ coef


def _run_one(
    scenario: Scenario,
    rep: int,
    config: FitConfig,
    do_cv: bool,
    folds: int,
) -> SimulationRecord:
    x, y = generate(scenario, rep)
    a, b = scenario.domain
    scale = PredictorScale(a, b)
    result = fit(x, y, replace(config, scale=scale))

    grid = np.linspace(a, b, _GRID_SIZE)
    mu_grid = np.asarray(scenario.mu(grid), dtype=float)
    sn_bayes = float(np.max(np.abs(result.predict(grid) - mu_grid)))
    sn_full = float(np.max(np.abs(full_order_curve(result, grid) - mu_grid)))

    order_cv = sn_cv = time_cv = None
    if do_cv:
        cv = cv_select(
            x, y, result.max_order, folds=folds, seed=scenario.seed * 1_000_003 + rep
        )
        order_cv = cv.selected_order
        sn_cv = float(np.max(np.abs(_ls_curve(x, y, scale, order_cv, grid) - mu_grid)))
        time_cv = cv.wall_clock

    return SimulationRecord(
        rep=rep,
        n=scenario.n,
        snr=scenario.snr,
        fn=scenario.mean_fn,
        order_bayes=result.selected_order,
        supnorm_bayes=sn_bayes,
        supnorm_full=sn_full,
        time_bayes=result.timing_seconds,
        order_cv=order_cv,
        supnorm_cv=sn_cv,
        time_cv=time_cv,
    )


def _columns(do_cv: bool, include_timing: bool) -> list[str]:
    cols = ["rep", "n", "snr", "fn", "order_bayes"]
    if do_cv:
        cols.append("order_cv")
    cols.append("supnorm_bayes")
    if do_cv:
        cols.append("supnorm_cv")
    cols.append("supnorm_full")
    if include_timing:
        cols.append("time_bayes")
        if do_cv:
            cols.append("time_cv")
    return cols


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def run_grid(
    scenarios: Sequence[Scenario],
    output_path: str | None,
    methods: Sequence[str] = ("bayes", "cv"),
    threads: int | None = 1,
    include_timing: bool = True,
    config: FitConfig | None = None,
    folds: int = 5,
) -> list[SimulationRecord]:
    """Run every (scenario, rep) cell and stream records to CSV.

    Parameters
    ----------
    scenarios : sequence of Scenario
        Grid cells; each contributes ``reps`` records.
    output_path : str or None
        CSV destination; None skips writing.
    methods : sequence of str
        ``("bayes",)`` or ``("bayes", "cv")``; with CV active both methods
        see identical datasets and the CSV gains the CV columns.
    threads : int or None
        Worker threads; None uses the available cores.  Records are
        written in deterministic (scenario, rep) order regardless.
    include_timing : bool
        When False the timing columns are omitted, making the file
        byte-reproducible across runs.
    config : FitConfig, optional
        Selector settings shared by all cells (scale is overridden by each
        scenario's domain).
    folds : int
        CV fold count.

    Returns
    -------
    list of SimulationRecord
        All records in (scenario, rep) order.
    """
    methods = tuple(methods)
    if "bayes" not in methods or not set(methods) <= {"bayes", "cv"}:
        raise ValueError(f"methods must be a subset of {{bayes, cv}} containing bayes, got {methods}")
    do_cv = "cv" in methods
    if config is None:
        config = FitConfig()
    if threads is None:
        threads = _available_cores()
    tasks = [(sc, rep) for sc in scenarios for rep in range(sc.reps)]

    def worker(task):
        sc, rep = task
        return _run_one(sc, rep, config, do_cv, folds)

    cols = _columns(do_cv, include_timing)
    records: list[SimulationRecord] = []
    with ExitStack() as stack:
        sink = None
        if output_path:
            sink = stack.enter_context(
                open(output_path, "w", encoding="utf-8", newline="")
            )
            sink.write(",".join(cols) + "\n")
            sink.flush()
        if threads > 1:
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=threads))
            results = pool.map(worker, tasks)
        else:
            results = map(worker, tasks)  # in the calling thread
        for record in results:
            records.append(record)
            if sink:
                sink.write(",".join(_format(getattr(record, c)) for c in cols) + "\n")
                sink.flush()
    return records
