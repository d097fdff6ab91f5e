"""The four workloads: seeded inputs, one operation each, and the correctness gate.

Inputs are generated from the benchmark seed before any timing starts; the
library only ever receives the generated arrays.  ``check`` returns a list of
problems, empty when the result is correct.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import ndtr

import smoothsel as ss

SNR = 2.0
FIT_FUNCTIONS = ("poly5", "pwlinear")
FIT_PRIORS = {
    "intrinsic": ss.OmegaPrior.intrinsic,
    "zellner-siow": ss.OmegaPrior.zellner_siow,
    "hyper-g": ss.OmegaPrior.hyper_g,
}
FIT_RULES = ("mpm", "loss")
POSTERIOR_SUM_TOL = 1e-9
CHECK_GRID = 101

BINARY_N = 300
BINARY_DRAWS = 4000
BINARY_POOL = 2
SIM_N = 500
SIM_REPS = 2
SIM_POOL = 4
# Orders whose log posterior lies this far below the best add nothing to it.
NEGLIGIBLE_NATS = 30.0


@dataclass
class Item:
    """Input of one operation, plus what the gate needs to judge its output."""

    label: str
    args: tuple
    rule: str
    truth: object  # true mean (or success probability) as a function of x


def check_fit_result(result, rule: str) -> list[str]:
    """The gate for one ``fit`` or ``fit_binary`` result."""
    problems = []
    post = np.asarray(result.posterior, dtype=float)
    n_max = int(result.max_order)
    order = int(result.selected_order)
    if post.shape != (n_max + 1,):
        problems.append(f"posterior has shape {post.shape}, expected ({n_max + 1},)")
        return problems
    if not np.all(np.isfinite(post)) or np.any(post < 0):
        problems.append("posterior has non-finite or negative entries")
    elif abs(post.sum() - 1.0) > POSTERIOR_SUM_TOL:
        problems.append(f"posterior sums to {post.sum():.15g}")
    if not 0 <= order <= n_max:
        problems.append(f"selected order {order} outside [0, {n_max}]")
    if rule == "mpm":
        inclusion = np.cumsum(post[::-1])[::-1][1:]
        above = np.nonzero(inclusion > 0.5)[0]
        expected = int(above.max() + 1) if above.size else 0
    else:
        expected = int(np.nanargmin(np.asarray(result.diagnostics["loss"], dtype=float)))
    if order != expected:
        problems.append(f"{rule} rule gives order {expected}, result says {order}")
    if not problems:
        grid = np.linspace(result.scale.a, result.scale.b, CHECK_GRID)
        values = np.asarray(result.predict(grid), dtype=float)
        if not np.all(np.isfinite(values)):
            problems.append("predict is not finite on the fitted range")
        elif result.link == "probit" and (values.min() < 0 or values.max() > 1):
            problems.append("predicted probabilities leave [0, 1]")
    return problems


def sup_error(result, truth) -> float:
    """Sup-norm error of the selected curve against the truth on the fitted range."""
    grid = np.linspace(result.scale.a, result.scale.b, 1001)
    return float(np.max(np.abs(result.predict(grid) - truth(grid))))


class FitWorkload:
    """``fit`` over a cycled pool of 12 datasets: 2 signals x 3 priors x 2 rules."""

    units = "fits"

    def __init__(self, name: str, n: int):
        self.name = name
        self.n = n

    def inputs(self, seed: int) -> list[Item]:
        items = []
        configs = list(product(FIT_FUNCTIONS, FIT_PRIORS, FIT_RULES))
        for i, (fn, prior, rule) in enumerate(configs):
            scenario = ss.Scenario(fn, self.n, SNR, len(configs), seed)
            x, y = ss.generate(scenario, i)
            config = ss.FitConfig(omega_prior=FIT_PRIORS[prior](), rule=rule)
            items.append(Item(f"{fn}/{prior}/{rule}", (x, y, config), rule, scenario.mu))
        return items

    def run(self, item: Item):
        return ss.fit(*item.args)

    def check(self, item: Item, out) -> list[str]:
        return check_fit_result(out, item.rule)

    def orders(self, out) -> list[int]:
        return [int(out.selected_order)]

    def units_done(self, out) -> int:
        return 1

    def summary(self, item: Item, out) -> dict:
        return {"sup_errors": [sup_error(out, item.truth)]}


class BinaryWorkload:
    """``fit_binary`` at the criterion-8 setting over a pool of seeded datasets."""

    name = "binary-n300"
    units = "fits"

    def inputs(self, seed: int) -> list[Item]:
        items = []
        unit = ss.PredictorScale(0.0, 1.0)
        truth = lambda x: ndtr(2.0 * x - 1.0)  # noqa: E731
        for i in range(BINARY_POOL):
            rng = np.random.default_rng([seed, i])
            x = rng.uniform(0.0, 1.0, BINARY_N)
            y = (rng.uniform(size=BINARY_N) < truth(x)).astype(float)
            config = ss.BinaryFitConfig(mc_draws=BINARY_DRAWS, seed=i, scale=unit)
            items.append(Item(f"probit/{i}", (x, y, config), "mpm", truth))
        return items

    def run(self, item: Item):
        return ss.fit_binary(*item.args)

    def check(self, item: Item, out) -> list[str]:
        problems = check_fit_result(out, "mpm")
        se = np.asarray(out.diagnostics["mc_std_error"], dtype=float)
        if not np.all(np.isfinite(se)) or np.any(se < 0):
            problems.append("Monte Carlo standard errors are not finite and >= 0")
        return problems

    def orders(self, out) -> list[int]:
        return [int(out.selected_order)]

    def units_done(self, out) -> int:
        return 1

    def summary(self, item: Item, out) -> dict:
        se = np.asarray(out.diagnostics["mc_std_error"], dtype=float)[1:]
        log_post = np.asarray(out.diagnostics["log_bf"], dtype=float) + \
            ss.model_prior(out.max_order).log_probs
        return {
            "sup_errors": [sup_error(out, item.truth)],
            "mc_se_p50": float(np.median(se)),
            "mc_se_max": float(np.max(se)),
            "negligible_order_ratio": float(
                np.mean(log_post < log_post.max() - NEGLIGIBLE_NATS)
            ),
        }


class SimulateWorkload:
    """``run_grid`` over one poly5 scenario of SIM_REPS replicates, CSV to a file."""

    name = "simulate-n500"
    units = "replicates"

    def __init__(self, csv_path: str):
        self.csv_path = csv_path

    def inputs(self, seed: int) -> list[Item]:
        items = []
        for i in range(SIM_POOL):
            scenario = ss.Scenario("poly5", SIM_N, SNR, SIM_REPS, seed * SIM_POOL + i)
            items.append(Item(f"poly5/{scenario.seed}", (scenario,), "mpm", scenario.mu))
        return items

    def run(self, item: Item) -> list:
        return ss.run_grid([item.args[0]], self.csv_path, methods=("bayes",), threads=1)

    def check(self, item: Item, records: list) -> list[str]:
        problems = []
        reps = item.args[0].reps
        if len(records) != reps:
            problems.append(f"run_grid returned {len(records)} records, expected {reps}")
        with open(self.csv_path, "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        if rows != reps:
            problems.append(f"CSV holds {rows} rows, expected {reps}")
        n_max = ss.max_order(item.args[0].n)
        for rec in records:
            if not 0 <= rec.order_bayes <= n_max:
                problems.append(f"rep {rec.rep}: order {rec.order_bayes} outside [0, {n_max}]")
            if not (np.isfinite(rec.supnorm_bayes) and np.isfinite(rec.supnorm_full)):
                problems.append(f"rep {rec.rep}: non-finite sup-norm error")
        return problems

    def orders(self, records: list) -> list[int]:
        return [int(rec.order_bayes) for rec in records]

    def units_done(self, records: list) -> int:
        return len(records)

    def summary(self, item: Item, records: list) -> dict:
        return {
            "sup_errors": [float(rec.supnorm_bayes) for rec in records],
            "csv_bytes": os.path.getsize(self.csv_path),
        }


def make_workload(name: str, out_dir: str):
    if name == "fit-n500":
        return FitWorkload(name, 500)
    if name == "fit-n20000":
        return FitWorkload(name, 20000)
    if name == "binary-n300":
        return BinaryWorkload()
    if name == "simulate-n500":
        return SimulateWorkload(os.path.join(out_dir, f"simulate-{os.getpid()}.csv"))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fit-n500", "fit-n20000", "binary-n300", "simulate-n500")
