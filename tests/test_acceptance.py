"""End-to-end acceptance gate.

Nine checks, each printing one PASS/FAIL line with the measured
quantities.  Reference values come from closed-form results or from
brute-force numerics re-derived here; nothing is imported from the
library's internals.
"""

import time
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from smoothsel import (
    BERNSTEIN,
    LEGENDRE,
    BinaryFitConfig,
    FitConfig,
    ModelFitStats,
    OmegaPrior,
    OrthantSpec,
    PredictorScale,
    Scenario,
    build_design,
    build_transform,
    fit,
    fit_binary,
    fit_stats,
    generate,
    legendre_to_bernstein,
    log_bayes_factor,
    max_order,
    median_probability_order,
    orthant_probability,
    predictive_loss,
    run_grid,
    shrinkage,
)
from smoothsel.cli import main as cli_main
from smoothsel.gprior import ModelPosterior

pytestmark = pytest.mark.acceptance

UNIT = PredictorScale(0.0, 1.0)


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def poly5_run():
    """Shared 100-replicate poly5 study at n=500, SNR=2, single thread."""
    t0 = time.perf_counter()
    records = run_grid(
        [Scenario("poly5", 500, 2.0, 100, seed=1)],
        None,
        methods=("bayes",),
        threads=1,
        include_timing=True,
    )
    return records, time.perf_counter() - t0


def test_criterion_1_basis_transform():
    t0 = time.perf_counter()
    worst_identity = 0.0
    for order in range(1, 21):
        pair = build_transform(order)
        deviation = np.abs(pair.q @ pair.q_inv - np.eye(order + 1)).max()
        worst_identity = max(worst_identity, float(deviation))

    grid = np.linspace(0.0, 1.0, 2001)
    rng = np.random.default_rng(3)
    worst_curve = 0.0
    for order in range(1, 16):
        pair = build_transform(order)
        lam = rng.normal(0.0, 1.0, order + 1)
        eta = legendre_to_bernstein(lam, pair)
        curve_l = build_design(grid, UNIT, order, LEGENDRE).values @ lam
        curve_b = build_design(grid, UNIT, order, BERNSTEIN).values @ eta
        worst_curve = max(worst_curve, float(np.abs(curve_l - curve_b).max()))
    elapsed = time.perf_counter() - t0

    ok = worst_identity < 1e-8 and worst_curve < 1e-8 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"Q*Qinv deviation {worst_identity:.2e} (N<=20), dual-basis curve "
        f"gap {worst_curve:.2e} (N<=15, 2001 points), {elapsed:.2f}s",
    )


def _conditional_log_bf(omega, n, q0, qk, r2):
    # Re-transcribed conditional Bayes factor kernel at fixed omega.
    g = n / (omega * (qk + 1.0))
    with np.errstate(invalid="ignore"):
        out = 0.5 * (n - qk) * np.log1p(g) - 0.5 * (n - q0) * np.log1p(
            g * (1.0 - r2)
        )
    return np.where(np.isnan(out), -np.inf, out)


def _fixed_grids(nodes):
    """Million-node midpoint grids for the three default omega priors.

    Each family is mapped to the unit interval by a substitution that is
    exact in distribution at the default hyperparameters:
      intrinsic     Beta(1/2,1/2)          omega = sin^2(pi t/2)
      zellner-siow  Gamma(1/2, scale 2)    omega = v^2, v = t/(1-t) half-
                    (= chi-squared, 1 df)  normal, carried as a weight so
                                           the integrand stays smooth
      hyper-g       ratio u/(1-u) with     omega = t^2/(1-t^2)
                    u ~ Beta(1/2, 1)
    """
    t = (np.arange(nodes) + 0.5) / nodes
    v = t / (1.0 - t)
    return {
        "intrinsic": (np.sin(np.pi * t / 2.0) ** 2, 0.0),
        "zellner-siow": (
            v**2,
            0.5 * np.log(2.0 / np.pi) - 0.5 * v**2 - 2.0 * np.log1p(-t),
        ),
        "hyper-g": (t**2 / (1.0 - t**2), 0.0),
    }


def test_criterion_2_quadrature_oracle():
    t0 = time.perf_counter()
    grids = _fixed_grids(1_000_000)
    priors = {
        "intrinsic": OmegaPrior.intrinsic(),
        "zellner-siow": OmegaPrior.zellner_siow(),
        "hyper-g": OmegaPrior.hyper_g(),
    }
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for name, prior in priors.items():
        omega, log_weight = grids[name]
        for _ in range(50):
            n = int(rng.integers(20, 2001))
            qk = int(rng.integers(2, 13))
            r2 = float(rng.uniform(0.0, 0.95))
            kernel = _conditional_log_bf(omega, n, 1, qk, r2) + log_weight
            shift = kernel.max()
            reference = shift + np.log(np.exp(kernel - shift).mean())
            fixed_rule = log_bayes_factor(
                ModelFitStats(n=n, q0=1, qk=qk, r2=r2), prior
            )
            worst = max(worst, abs(fixed_rule - reference) / max(1.0, abs(reference)))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-6 and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"fixed rule vs 1e6-node grid, worst relative gap {worst:.2e} over "
        f"150 configurations, {elapsed:.1f}s",
    )


def test_criterion_3_order_recovery(poly5_run):
    records, elapsed = poly5_run
    orders = [r.order_bayes for r in records]
    modal = Counter(orders).most_common(1)[0][0]
    hits = sum(o == 4 for o in orders)
    ok = modal == 4 and hits >= 50 and elapsed < 300.0
    _verdict(
        3,
        ok,
        f"poly5 n=500 SNR=2: modal order {modal}, order 4 selected in "
        f"{hits}/100 replicates, {elapsed:.1f}s",
    )


def test_criterion_4_full_model_overfits(poly5_run):
    records, _ = poly5_run
    full = np.array([r.supnorm_full for r in records])
    bayes = np.array([r.supnorm_bayes for r in records])
    wins = int((full > bayes).sum())
    ok = np.median(full) > np.median(bayes) and wins >= 80
    _verdict(
        4,
        ok,
        f"median sup-norm full {np.median(full):.2f} vs selected "
        f"{np.median(bayes):.2f}; full worse in {wins}/100 replicates",
    )


def test_criterion_5_speed_ratio():
    t0 = time.perf_counter()
    with pytest.warns(RuntimeWarning, match="singular training design"):
        # High orders are numerically rank-deficient for CV refits at
        # n=500; those folds score +inf by contract and warn.
        records = run_grid(
            [Scenario("pwlinear", 500, 2.0, 100, seed=2)],
            None,
            methods=("bayes", "cv"),
            threads=1,
            include_timing=True,
        )
    elapsed = time.perf_counter() - t0
    ratio = np.median([r.time_cv for r in records]) / np.median(
        [r.time_bayes for r in records]
    )
    ok = ratio >= 10.0 and elapsed < 900.0
    _verdict(
        5,
        ok,
        f"pwlinear n=500: median time_cv / median time_bayes = {ratio:.1f}x "
        f"(threshold 10x), {elapsed:.1f}s",
    )


def test_criterion_6_shrinkage_asymptotics():
    t0 = time.perf_counter()
    prior = OmegaPrior.intrinsic()
    xi = {}
    for n in (100, 1000, 10000):
        x, y = generate(Scenario("poly5", n, 2.0, 1, seed=6), 0)
        order = max_order(n)
        design = build_design(x, UNIT, order, LEGENDRE)
        xi[n] = shrinkage(fit_stats(y, design, order), prior)
    increasing = xi[100] < xi[1000] < xi[10000]

    config = FitConfig(scale=UNIT)
    decreases = 0
    for rep in range(100):
        gap = {}
        for n in (100, 5000):
            x, y = generate(Scenario("poly5", n, 2.0, 100, seed=6), rep)
            gap[n] = fit(x, y, config).diagnostics["loss_equivalence"]
        decreases += gap[5000] < gap[100]
    elapsed = time.perf_counter() - t0

    ok = increasing and xi[10000] > 0.99 and decreases >= 90 and elapsed < 300.0
    _verdict(
        6,
        ok,
        f"xi_N = {xi[100]:.4f} < {xi[1000]:.4f} < {xi[10000]:.4f} "
        f"(n=100,1000,10000); loss-equivalence gap fell in {decreases}/100 "
        f"replicates from n=100 to n=5000, {elapsed:.1f}s",
    )


def _synthetic_posterior(posterior, xi):
    posterior = np.asarray(posterior, dtype=float)
    tail = np.cumsum(posterior[::-1])[::-1]
    weighted = np.cumsum((posterior * xi)[::-1])[::-1]
    return ModelPosterior(
        max_order=posterior.size - 1,
        n=100,
        log_bf=np.zeros(posterior.size),
        posterior=posterior,
        inclusion=tail[1:].copy(),
        shrinkage=xi,
        shrunken_inclusion=weighted[1:].copy(),
        r2=np.zeros(posterior.size),
    )


def test_criterion_7_median_probability_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    mismatches = 0
    for _ in range(1000):
        n_models = int(rng.integers(2, 31))
        mp = _synthetic_posterior(
            rng.dirichlet(np.ones(n_models)), rng.uniform(0.2, 1.0, n_models)
        )
        dj = rng.uniform(0.5, 3.0, n_models - 1)
        lam = rng.normal(0.0, 1.0, n_models - 1)
        # Keep every term weight bounded away from zero so the exhaustive
        # argmin is decided by the loss, not by float noise on ~0 weights.
        lam[np.abs(lam) < 1e-3] = 0.5
        losses = [
            predictive_loss(mp, k, dj, lam, shrunken=False)
            for k in range(n_models)
        ]
        mismatches += int(np.argmin(losses)) != median_probability_order(mp)
    elapsed = time.perf_counter() - t0

    ok = mismatches == 0 and elapsed < 5.0
    _verdict(
        7,
        ok,
        f"median-probability order == exhaustive loss argmin in "
        f"{1000 - mismatches}/1000 synthetic posteriors, {elapsed:.1f}s",
    )


def test_criterion_8_binary_path():
    t0 = time.perf_counter()
    # Two coordinates with loadings (c, 0): independent, first variance
    # inflated to 1+c^2, so the orthant probability is a product of two
    # normal cdf values.
    lam0, c = 0.4, 0.8
    spec = OrthantSpec(signs=np.array([1.0, -1.0]), n=2)
    log_p, se = orthant_probability(
        spec, lam0, np.array([[c], [0.0]]), n_draws=4000, seed=11
    )
    p_hat = float(np.exp(log_p))
    p_true = float(norm.cdf(lam0 / np.hypot(1.0, c)) * norm.cdf(-lam0))
    orthant_ok = abs(p_hat - p_true) <= 3.0 * p_hat * se + 1e-12

    orders = []
    for rep in range(50):
        rng = np.random.default_rng([500, rep])
        x = rng.uniform(0.0, 1.0, 300)
        y = (rng.uniform(size=300) < norm.cdf(2.0 * x - 1.0)).astype(float)
        result = fit_binary(x, y, BinaryFitConfig(seed=rep, scale=UNIT))
        orders.append(result.selected_order)
    modal = Counter(orders).most_common(1)[0][0]
    elapsed = time.perf_counter() - t0

    ok = orthant_ok and modal in (1, 2) and elapsed < 600.0
    _verdict(
        8,
        ok,
        f"independent orthant |{p_hat:.4f} - {p_true:.4f}| <= 3se "
        f"(se {se:.1e}); probit modal order {modal} over 50 replicates "
        f"at n=300, {elapsed:.1f}s",
    )


def test_criterion_9_byte_determinism(tmp_path, capsys):
    args = [
        "--function", "poly5",
        "--n", "80",
        "--snr", "1",
        "--reps", "3",
        "--seed", "7",
        "--no-timing",
    ]
    sim_a = tmp_path / "sim_a.csv"
    sim_b = tmp_path / "sim_b.csv"
    assert cli_main(["simulate", *args, "--threads", "1", "--output", str(sim_a)]) == 0
    assert cli_main(["simulate", *args, "--threads", "4", "--output", str(sim_b)]) == 0

    cmp_args = [
        "--function", "pwlinear",
        "--n", "80",
        "--snr", "2",
        "--reps", "2",
        "--seed", "3",
        "--no-timing",
    ]
    cmp_a = tmp_path / "cmp_a.csv"
    cmp_b = tmp_path / "cmp_b.csv"
    assert cli_main(["compare", *cmp_args, "--threads", "1", "--output", str(cmp_a)]) == 0
    assert cli_main(["compare", *cmp_args, "--threads", "4", "--output", str(cmp_b)]) == 0
    capsys.readouterr()

    sim_same = sim_a.read_bytes() == sim_b.read_bytes()
    cmp_same = cmp_a.read_bytes() == cmp_b.read_bytes()
    ok = sim_same and cmp_same
    _verdict(
        9,
        ok,
        "simulate and compare output byte-identical across repeated "
        "seeded runs at 1 and 4 threads",
    )


@pytest.mark.slow
def test_speed_ratio_large_n():
    """Large-n timing study, same structure as criterion 5 at n=10000."""
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # Near-cap orders may or may not be numerically singular in a CV
        # fold at this n; silence the +inf-score notices either way.
        warnings.filterwarnings(
            "ignore", message=r"order \d+: singular training design"
        )
        records = run_grid(
            [Scenario("pwlinear", 10000, 2.0, 100, seed=2)],
            None,
            methods=("bayes", "cv"),
            threads=1,
            include_timing=True,
        )
    elapsed = time.perf_counter() - t0
    ratio = np.median([r.time_cv for r in records]) / np.median(
        [r.time_bayes for r in records]
    )
    print(
        f"slow suite: pwlinear n=10000 ratio {ratio:.1f}x, {elapsed:.0f}s",
        flush=True,
    )
    assert ratio >= 10.0
    assert elapsed < 7200.0
