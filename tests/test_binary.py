"""Probit latent-variable path: orthant estimator, binary BFs, fit_binary."""

import importlib.util
import itertools
import json
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.linalg import block_diag
from scipy.optimize import minimize
from scipy.special import log_ndtr, logsumexp, ndtr
from scipy.stats import multivariate_normal

import smoothsel.binary as binary_module
import smoothsel.gprior as gprior_module
from smoothsel.basis import PredictorScale, build_design
from smoothsel.binary import (
    _FULL_DRAW_MASS,
    _GRID_DIM,
    _GRID_NODES,
    _LAMBDA_BOX,
    _LAPLACE_SLACK,
    _MIN_DRAWS,
    _SCREEN_TOL,
    _SEPARATION_LIMIT,
    _SPARSE_DIM,
    _SPARSE_LEVEL,
    BinaryFitConfig,
    OrthantSpec,
    _g_prior,
    _grid_log_num,
    _grid_rule,
    _level_start,
    _importance_sample,
    _log_orthant_mass,
    _laplace_log_num,
    _mc_log_num,
    _merge,
    _newton_mode,
    _order_modes,
    _rule,
    _rule_pair,
    _signed_design,
    binary_log_bf,
    fit_binary,
    orthant_probability,
)
from smoothsel.gprior import _normalized_posterior
from smoothsel.model_space import model_prior
from smoothsel.selector import _bernstein_view, _mpm_order
from smoothsel.simulation import mean_poly5, mean_pwlinear
from smoothsel.transform import build_transform

UNIT = PredictorScale(0.0, 1.0)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PWLINEAR_DOMAIN = (-3.0, 3.0)


def legendre_design(n, order, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    return build_design(x, UNIT, order, "legendre")


class TestOrthantSpec:
    def test_signs_from_response(self):
        spec = OrthantSpec.from_response(np.array([1, 0, 1, 1]))
        np.testing.assert_array_equal(spec.signs, [1.0, -1.0, 1.0, 1.0])
        assert spec.n == 4

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            OrthantSpec.from_response(np.array([0, 1, 0.5]))
        with pytest.raises(ValueError):
            OrthantSpec.from_response(np.array([0, 2]))

    def test_length_consistency(self):
        with pytest.raises(ValueError):
            OrthantSpec(signs=np.array([1.0, -1.0]), n=3)
        with pytest.raises(ValueError):
            OrthantSpec(signs=np.array([1.0, 0.0]), n=2)


class TestBinaryFitConfig:
    def test_draw_floor(self):
        with pytest.raises(ValueError):
            BinaryFitConfig(mc_draws=999)
        assert BinaryFitConfig(mc_draws=1000).mc_draws == 1000

    def test_seed_nonnegative(self):
        with pytest.raises(ValueError):
            BinaryFitConfig(seed=-1)


def sigma_k(design, k):
    """Latent covariance I + g_k Q_k Q_k' of the order-k model, from the signed design.

    With every sign +1 the design's columns 1..k are Q_k, and the g-prior
    gives w the variance 1 / P_k[j, j] = g_k.
    """
    spec = OrthantSpec(signs=np.ones(design.n), n=design.n)
    q = _signed_design(spec, design, k)[:, 1 : k + 1]
    g = 1.0 / np.diag(_g_prior(design.n, k)[0])[1:]
    return np.eye(design.n) + (q * g) @ q.T


class TestSigmaK:
    def test_single_column_eigenvalues(self):
        # n=4, k=1: the projector contributes one eigenvalue 1 + 2n/(k+1).
        design = legendre_design(4, 1, seed=3)
        cov = sigma_k(design, 1)
        eigs = np.sort(np.linalg.eigvalsh(cov))
        np.testing.assert_allclose(eigs, [1.0, 1.0, 1.0, 5.0], atol=1e-10)

    def test_symmetric_and_inflation_psd(self):
        design = legendre_design(30, 4, seed=7)
        cov = sigma_k(design, 4)
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(cov - np.eye(30))) > -1e-10

    @pytest.mark.parametrize("n,k", [(20, 1), (50, 3), (100, 5), (200, 10)])
    def test_spectral_identity(self, n, k):
        design = legendre_design(n, k, seed=n + k)
        cov = sigma_k(design, k)
        eigs = np.sort(np.linalg.eigvalsh(cov))
        expected = np.concatenate(
            [np.ones(n - k), np.full(k, 1.0 + 2.0 * n / (k + 1))]
        )
        np.testing.assert_allclose(eigs, expected, atol=1e-10)

    def test_rank_deficiency_rejected(self):
        # Two distinct predictor values support only two independent
        # degree columns; asking for three must fail loudly.
        x = np.array([0.2, 0.2, 0.2, 0.8, 0.8, 0.8])
        design = build_design(x, UNIT, 3, "legendre")
        spec = OrthantSpec.from_response(np.array([0, 1, 0, 1, 0, 1]))
        with pytest.raises(ValueError, match="rank-deficient"):
            _signed_design(spec, design, 3)


class TestOrthantProbability:
    def test_univariate_is_phi(self):
        for lam0 in (-1.3, 0.0, 0.7):
            up, se = orthant_probability(
                OrthantSpec.from_response(np.array([1])), lam0
            )
            assert up == pytest.approx(float(np.log(ndtr(lam0))), abs=1e-12)
            assert se == 0.0
            down, _ = orthant_probability(
                OrthantSpec.from_response(np.array([0])), lam0
            )
            assert down == pytest.approx(float(np.log(ndtr(-lam0))), abs=1e-12)

    def test_independent_case_is_exact_product(self):
        spec = OrthantSpec.from_response(np.array([1, 0, 1, 1, 0]))
        lam0 = 0.4
        lp, se = orthant_probability(spec, lam0)
        ref = float(np.sum(np.log(ndtr(spec.signs * lam0))))
        assert lp == pytest.approx(ref, abs=1e-12)
        assert se == 0.0

    def test_correlated_bivariate_matches_mvn_oracle(self):
        # One-factor covariance, both orthant patterns, against scipy's
        # bivariate normal CDF via inclusion-exclusion.
        f = np.array([[0.8], [0.5]])
        cov = np.eye(2) + f @ f.T
        spec = OrthantSpec.from_response(np.array([1, 0]))
        for lam0 in (-0.5, 0.3, 1.2):
            lp, se = orthant_probability(spec, lam0, f, n_draws=20000, seed=5)
            est = np.exp(lp)
            marginal = multivariate_normal(
                mean=[lam0], cov=[[cov[1, 1]]]
            ).cdf([0.0])
            joint = multivariate_normal(mean=[lam0, lam0], cov=cov).cdf(
                [0.0, 0.0]
            )
            ref = float(marginal - joint)
            assert se > 0.0
            assert abs(est - ref) <= 3.0 * est * se + 1e-12

    def test_deterministic_given_seed(self):
        f = np.array([[0.6], [-0.3], [0.2]])
        spec = OrthantSpec.from_response(np.array([1, 1, 0]))
        a = orthant_probability(spec, 0.2, f, n_draws=4000, seed=11)
        b = orthant_probability(spec, 0.2, f, n_draws=4000, seed=11)
        assert a == b

    def test_loading_rows_must_match(self):
        spec = OrthantSpec.from_response(np.array([1, 0]))
        with pytest.raises(ValueError):
            orthant_probability(spec, 0.0, np.ones((3, 1)))

    @pytest.mark.parametrize("n_draws", [-5, 0, 999])
    def test_draw_floor(self, n_draws):
        spec = OrthantSpec.from_response(np.array([1, 0]))
        with pytest.raises(ValueError, match="n_draws must be >= 1000"):
            orthant_probability(spec, 0.0, np.ones((2, 1)), n_draws=n_draws)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_or_loadings_rejected(self, bad):
        spec = OrthantSpec.from_response(np.array([1, 0, 1]))
        f = np.array([[0.6], [-0.3], [0.2]])
        with pytest.raises(ValueError, match="must be finite"):
            orthant_probability(spec, bad, f)
        with pytest.raises(ValueError, match="must be finite"):
            orthant_probability(spec, bad)
        f[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="must be finite"):
                orthant_probability(spec, 0.2, f)

    def test_one_dimensional_loadings_rejected(self):
        spec = OrthantSpec.from_response(np.array([1, 0, 1]))
        with pytest.raises(ValueError, match=r"\(n, k\) array"):
            orthant_probability(spec, 0.2, np.array([0.6, -0.3, 0.2]))


def log_ndtr_row_sums(theta, a, offset=None, *, pool=None):
    """The reference orthant-mass kernel: log Phi summed over each row, serially."""
    t = theta @ a.T
    return log_ndtr(t if offset is None else offset + t).sum(axis=1)


def crafted_latents(n=300, rows=1300, seed=0):
    """Rows of latent values t, in [-60, 40], as (theta, a, t).

    With the signed A = diag(s) and theta = s * t the kernel sees exactly t.
    A quarter of the rows are normal; a quarter hold one coordinate in
    [-37, -1] and one in [5, 40]; a quarter hold one, at a random column, in
    [-60, -38], whose Phi is 0 or subnormal; the rest sit near -3, so at
    n = 300 the product over the whole row underflows but no product over 64
    coordinates does.
    """
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((rows, n))
    q = rows // 4
    t[q:2 * q, 0] = rng.uniform(-37.0, -1.0, q)
    t[q:2 * q, 1] = rng.uniform(5.0, 40.0, q)
    t[np.arange(2 * q, 3 * q), rng.integers(0, n, q)] = rng.uniform(-60.0, -38.0, q)
    t[3 * q:] = rng.uniform(-3.5, -2.5, (rows - 3 * q, n))
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return signs * t, np.diag(signs), t


def assert_log_masses_close(got, ref, n):
    """Within the kernel's bound: 2 n eps, plus a few ulps of the log mass.

    The ulps are the rounding of any sum of that size: at a log mass of
    -1.4e5 one ulp is 2.9e-11.  At n = 300 and log masses above -1000 the
    bound is 1e-12.
    """
    assert np.all(np.isfinite(got))
    eps = np.finfo(float).eps
    np.testing.assert_allclose(got, ref, rtol=4 * eps, atol=2 * n * eps)


def partial_products(t):
    """Products of Phi(t) over the kernel's column chunks, one row per row of t."""
    starts = np.arange(0, t.shape[1], binary_module._MASS_CHUNK)
    return np.multiply.reduceat(ndtr(t), starts, axis=1)


class TestOrthantMassKernel:
    """Each draw's log mass: a sum of logs of partial products of ndtr values."""

    def test_matches_log_ndtr_row_sums(self):
        theta, a, t = crafted_latents()
        got = _log_orthant_mass(theta, a)
        low = partial_products(t) < np.finfo(float).tiny
        # Both paths of the kernel are exercised, on every chunk of columns,
        # and some rows whose whole product underflows take no fallback.
        assert 0 < low.any(axis=1).sum() < low.shape[0]
        assert low.any(axis=0).all()
        assert np.any((ndtr(t).prod(axis=1) == 0.0) & ~low.any(axis=1))
        reference = log_ndtr_row_sums(theta, a)
        assert_log_masses_close(got, reference, 300)
        assert np.max(np.abs(got - reference)) < 1e-12

    def test_matches_log_ndtr_row_sums_with_offset(self):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal((700, 6))
        a = rng.standard_normal((300, 6))
        signs = np.where(rng.uniform(size=300) < 0.5, 1.0, -1.0)
        for offset in (-40.0, -2.0, 0.5, 40.0):
            assert_log_masses_close(
                _log_orthant_mass(theta, a, signs * offset),
                log_ndtr_row_sums(theta, a, signs * offset), 300,
            )

    def test_large_n_rows_take_no_fallback(self, monkeypatch):
        # At n = 3000 every row's whole product underflows, as a fitted
        # probit's does from about n = 1300; no product over 64 coordinates
        # does, so the log_ndtr fallback never runs.
        theta, a, t = crafted_latents(n=3000, rows=300, seed=4)
        theta, t = theta[:75], t[:75]
        assert np.all(ndtr(t).prod(axis=1) == 0.0)
        reference = log_ndtr_row_sums(theta, a)

        def no_fallback(x):
            raise AssertionError("log_ndtr fallback ran")

        monkeypatch.setattr(binary_module, "log_ndtr", no_fallback)
        assert_log_masses_close(_log_orthant_mass(theta, a), reference, 3000)

    @pytest.mark.parametrize("lambda0", [-40.0, -0.3, 3.0])
    def test_orthant_probability_matches_the_log_ndtr_kernel(self, monkeypatch, lambda0):
        # At lambda0 = -40 every draw's product underflows to the fallback.
        # With n = 4 there is one chunk, so both kernels sum the same values.
        f = np.array([[0.6, 0.1], [-0.3, 0.4], [0.2, -0.5], [0.1, 0.3]])
        spec = OrthantSpec.from_response(np.array([1, 1, 0, 0]))
        lp, se = orthant_probability(spec, lambda0, f, n_draws=4000, seed=3)
        monkeypatch.setattr(binary_module, "_log_orthant_mass", log_ndtr_row_sums)
        ref_lp, ref_se = orthant_probability(spec, lambda0, f, n_draws=4000, seed=3)
        assert np.isfinite(lp)
        assert lp == pytest.approx(ref_lp, rel=0, abs=1e-12)
        assert se == pytest.approx(ref_se, rel=1e-9)


def quadrature_log_bf(y, design, k):
    """Log Bayes factor of order k by product quadrature, from the model itself.

    The numerator integrates prod Phi(s (lambda_0 + sqrt(g_k) Q_k u)) over
    u ~ N(0, I_k) by a 48-node Gauss-Hermite rule per coordinate and over
    the flat level by the trapezoid rule on 401 points of [-10, 10]; the
    denominator integrates prod Phi(s lambda_0) on the same level grid.  At
    n = 12 this is within 1e-6 nats of 2001 levels on [-25, 25] and 100 nodes.
    """
    signs, n = 2.0 * y - 1.0, y.size
    level = np.linspace(-10.0, 10.0, 401)
    log_trap = np.full(level.size, np.log(level[1] - level[0]))
    log_trap[[0, -1]] -= np.log(2.0)
    log_den = logsumexp(log_ndtr(signs * level[:, None]).sum(axis=1) + log_trap)
    q = np.linalg.qr(design.values[:, 1 : k + 1])[0]
    nodes, weights = hermegauss(48)
    u = np.stack(np.meshgrid(*[nodes] * k, indexing="ij"), axis=-1).reshape(-1, k)
    log_w = np.log(np.prod(np.meshgrid(*[weights] * k, indexing="ij"), axis=0)).ravel()
    shift = u @ (np.sqrt(2.0 * n / (k + 1.0)) * q).T
    log_mass = np.array([log_ndtr(signs * (lam + shift)).sum(axis=1) for lam in level])
    log_num = logsumexp(log_mass + log_w + log_trap[:, None]) - 0.5 * k * np.log(2.0 * np.pi)
    return log_num - log_den


class TestBinaryLogBf:
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_product_quadrature(self, k):
        # An oracle independent of the adaptive rule, its modes and its
        # design.  The rule was 3.5e-5 (k = 1) and 3.1e-5 (k = 2) nats off,
        # inside its error estimate of about 1.2e-3.  Leaving out the
        # g-prior's constant (2 pi g_k)^(-k/2) against (2 pi)^(-k/2) would
        # move the estimate by 1.24 (k = 1) and 2.08 (k = 2) nats.
        rng = np.random.default_rng([12, 0])
        x = rng.uniform(0, 1, 12)
        y = (rng.uniform(size=12) < ndtr(2.0 * x - 1.0)).astype(float)
        design = build_design(x, UNIT, 2, "legendre")
        est = binary_log_bf(y, design, k, n_draws=4000, seed=0)
        assert est.n_draws == 0 and 0.0 < est.mc_std_error < 0.01
        error = abs(est.log_bf - quadrature_log_bf(y, design, k))
        assert error <= min(1e-4, est.mc_std_error)

    def test_base_against_itself_is_exact_zero(self):
        design = legendre_design(20, 2, seed=0)
        y = (np.linspace(0, 1, 20) > 0.4).astype(int)
        est = binary_log_bf(y, design, 0, n_draws=1000, seed=0)
        assert est.log_bf == 0.0
        assert est.mc_std_error == 0.0

    def test_two_seeds_agree_within_combined_error(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 20)
        design = build_design(x, UNIT, 7, "legendre")
        y = (rng.uniform(size=20) < 0.5).astype(int)
        a = binary_log_bf(y, design, 7, n_draws=4000, seed=1)
        b = binary_log_bf(y, design, 7, n_draws=4000, seed=2)
        assert a.n_draws > 0 and a.log_bf != b.log_bf
        combined = float(np.hypot(a.mc_std_error, b.mc_std_error))
        assert abs(a.log_bf - b.log_bf) <= 4.0 * combined

    def test_deterministic_given_seed(self):
        # Order 7, the lowest order above the deterministic rules, draws
        # from its stream.
        design = legendre_design(20, 7, seed=4)
        y = (np.arange(20) % 3 == 0).astype(int)
        a = binary_log_bf(y, design, 7, n_draws=1200, seed=9)
        b = binary_log_bf(y, design, 7, n_draws=1200, seed=9)
        assert (a.log_bf, a.mc_std_error) == (b.log_bf, b.mc_std_error)
        # The budget is a floor: draws round up to whole antithetic blocks.
        assert a.n_draws >= 1200 and a.n_draws == b.n_draws
        assert a.seed == 9

    def test_error_shrinks_with_the_draw_budget(self):
        # Doubling the draws should shrink the reported error by about
        # 1/sqrt(2); averaged over 20 seeded trials to tame trial noise.
        ratios = []
        for trial in range(20):
            rng = np.random.default_rng([77, trial])
            x = rng.uniform(0, 1, 30)
            design = build_design(x, UNIT, 7, "legendre")
            y = (rng.uniform(size=30) < 0.4).astype(int)
            small = binary_log_bf(y, design, 7, n_draws=2000, seed=trial)
            large = binary_log_bf(y, design, 7, n_draws=4000, seed=trial)
            ratios.append(large.mc_std_error / small.mc_std_error)
        assert 0.6 <= float(np.mean(ratios)) <= 0.85
        assert 0.6 <= float(np.median(ratios)) <= 0.85

    def test_one_sided_response_raises(self):
        # Under the flat level prior both marginal likelihoods diverge.
        design = build_design(
            np.linspace(0.05, 0.95, 20), UNIT, 2, "legendre"
        )
        for value in (0, 1):
            for k in (0, 1, 2):
                with pytest.raises(ValueError, match="all-0 or all-1"):
                    binary_log_bf(np.full(20, value), design, k, seed=0)

    def test_rejects_non_binary_response(self):
        design = legendre_design(12, 2, seed=2)
        with pytest.raises(ValueError):
            binary_log_bf(np.full(12, 0.3), design, 1, seed=0)

    def test_rejects_orders_outside_the_design_and_bernstein_designs(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 60)
        y = (rng.uniform(size=60) < ndtr(2.0 * x - 1.0)).astype(int)
        legendre = build_design(x, UNIT, 3, "legendre")
        for k in (4, 5, -1):
            with pytest.raises(ValueError, match=rf"k={k} outside \[0, 3\]"):
                binary_log_bf(y, legendre, k, n_draws=1000, seed=0)
        bernstein = build_design(x, UNIT, 3, "bernstein")
        for k in (0, 2):
            with pytest.raises(ValueError, match="requires a Legendre design"):
                binary_log_bf(y, bernstein, k, n_draws=1000, seed=0)


class TestFitBinary:
    def test_fair_coin_prefers_base_model(self):
        orders = []
        for rep in range(8):
            rng = np.random.default_rng([901, rep])
            x = rng.uniform(0, 1, 60)
            y = (rng.uniform(size=60) < 0.5).astype(int)
            result = fit_binary(x, y, BinaryFitConfig(mc_draws=1000, seed=rep))
            orders.append(result.selected_order)
        values, counts = np.unique(orders, return_counts=True)
        assert values[np.argmax(counts)] == 0

    def test_degree_one_signal_recovered(self):
        rng = np.random.default_rng(55)
        x = rng.uniform(0, 1, 120)
        eta = 2.0 * (2.0 * x - 1.0)
        y = (rng.uniform(size=120) < ndtr(eta)).astype(int)
        result = fit_binary(x, y, BinaryFitConfig(mc_draws=1500, seed=3))
        assert result.selected_order == 1
        assert result.posterior[1] > 0.5

    def test_result_contract(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 80)
        y = (rng.uniform(size=80) < ndtr(1.5 * (2 * x - 1))).astype(int)
        result = fit_binary(x, y, BinaryFitConfig(mc_draws=1000, seed=1))
        assert result.link == "probit"
        assert result.omega_prior is None
        assert result.rule == "mpm"
        np.testing.assert_array_equal(
            result.shrinkage, np.ones(result.max_order + 1)
        )
        assert result.posterior.sum() == pytest.approx(1.0, abs=1e-10)
        grid = np.linspace(x.min(), x.max(), 33)
        probs = result.predict(grid)
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        for key in ("log_bf", "mc_std_error", "inclusion", "mc_draws", "seed",
                    "laplace_log_bf", "screened", "screened_mass", "screened_bound",
                    "mc_ess", "mc_n_draws", "inclusion_se", "mpm_margin_flag", "stages"):
            assert key in result.diagnostics, key
        diag = result.diagnostics
        assert len(diag["newton_iterations"]) == result.max_order + 1
        assert diag["newton_iterations"][0] == 0
        assert min(diag["newton_iterations"][1:]) >= 1
        assert diag["newton_converged"] == [True] * (result.max_order + 1)
        assert diag["refit_newton_iterations"] >= 1
        assert diag["refit_newton_converged"] is True
        assert diag["base_newton_iterations"] >= 1
        assert diag["base_newton_converged"] is True
        payload = result.to_dict()
        assert payload["omega_prior"] is None
        assert payload["link"] == "probit"
        screened = payload["diagnostics"]["screened"]
        assert len(screened) == result.max_order + 1 and screened[0] is False
        assert len(payload["diagnostics"]["laplace_log_bf"]) == result.max_order + 1
        assert len(payload["diagnostics"]["mc_n_draws"]) == result.max_order + 1
        assert len(payload["diagnostics"]["inclusion_se"]) == result.max_order
        json.dumps(payload)

    def test_deterministic_given_config(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(0, 1, 50)
        y = (rng.uniform(size=50) < 0.6).astype(int)
        cfg = BinaryFitConfig(mc_draws=1000, seed=7)
        a = fit_binary(x, y, cfg)
        b = fit_binary(x, y, cfg)
        assert a.selected_order == b.selected_order
        np.testing.assert_array_equal(a.posterior, b.posterior)
        np.testing.assert_array_equal(a.eta_hat, b.eta_hat)

    def test_separated_data_falls_back_to_ridge_with_warning(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, 50)
        y = (x > 0.5).astype(int)
        with pytest.warns(RuntimeWarning, match="ridge"):
            result = fit_binary(x, y, BinaryFitConfig(mc_draws=1000, seed=0))
        assert np.all(np.isfinite(result.eta_hat))
        # The ridge acts on the Bernstein ordinates, as in a Bernstein refit.
        bern = build_design(x, result.scale, result.selected_order, "bernstein")
        ridge = 1e-3 * x.size * np.eye(result.selected_order + 1)
        ref = scipy_mode(2.0 * y - 1.0, bern.values, ridge)
        assert np.max(np.abs(result.eta_hat - ref)) <= 1e-7 * np.max(np.abs(ref))
        assert result.diagnostics["refit_newton_converged"] is True

    def test_discrete_predictor_caps_the_order(self):
        rng = np.random.default_rng(21)
        x = rng.integers(0, 5, 300) / 4.0
        y = (rng.uniform(size=300) < ndtr(2.0 * x - 1.0)).astype(int)
        with pytest.warns(RuntimeWarning, match="5 distinct predictor values"):
            result = fit_binary(x, y, BinaryFitConfig(mc_draws=1000, seed=0))
        assert result.max_order == 4
        assert 1 <= result.selected_order <= 4

    def test_one_predictor_value_leaves_only_the_base_model(self):
        # One distinct value caps the order at 0: there is no degree column
        # to factorize, and the fit is the base level.
        y = np.arange(20) % 2
        with pytest.warns(RuntimeWarning, match="1 distinct predictor values"):
            result = fit_binary(np.full(20, 0.5), y, BinaryFitConfig(mc_draws=1000, scale=UNIT))
        assert (result.max_order, result.selected_order) == (0, 0)
        np.testing.assert_array_equal(result.posterior, [1.0])
        np.testing.assert_allclose(result.lambda_hat, [0.0], atol=1e-12)

    def test_bernstein_view_of_the_refit(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(0, 1, 60)
        y = (rng.uniform(size=60) < ndtr(2.0 * x - 1.0)).astype(int)
        result = fit_binary(x, y, BinaryFitConfig(mc_draws=1000, seed=0))
        eta, bound = _bernstein_view(result.lambda_hat, build_transform(result.selected_order))
        np.testing.assert_array_equal(result.eta_hat, eta)
        assert result.diagnostics["bernstein_error_bound"] == bound
        grid = np.linspace(x.min(), x.max(), 201)
        leg = build_design(grid, result.scale, result.selected_order, "legendre")
        np.testing.assert_array_equal(result.predict(grid), ndtr(leg.values @ result.lambda_hat))

    def test_one_factorization_and_one_mode_per_order(self, monkeypatch):
        # One QR serves every order, and the Monte Carlo reuses the Laplace
        # pass's modes: the only Newton solves are one mode per order, the
        # base level included, and the refit.
        calls = {"qr": 0, "newton": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(binary_module, "_newton_mode", counted("newton", _newton_mode))
        x, y = criterion_8_sample(0)
        result = fit_binary(x, y, BinaryFitConfig(seed=0, scale=UNIT))
        assert not all(result.diagnostics["screened"][1:])
        assert result.diagnostics["refit_newton_converged"] is True
        assert calls == {"qr": 1, "newton": result.max_order + 2}

    def test_mpm_margin_flag(self, monkeypatch):
        # Replicate 0's inclusion probabilities lie far from 0.5 for their
        # standard errors; errors of 5 nats on the gridded orders bring one
        # within two of them.
        x, y = criterion_8_sample(0)
        cfg = BinaryFitConfig(seed=0, scale=UNIT)
        assert fit_binary(x, y, cfg).diagnostics["mpm_margin_flag"] is False
        grid = binary_module._grid_log_num
        monkeypatch.setattr(
            binary_module, "_grid_log_num", lambda a_n, mode: (grid(a_n, mode)[0], 5.0)
        )
        result = fit_binary(x, y, cfg)
        diag = result.diagnostics
        assert np.any(np.abs(diag["inclusion"] - 0.5) <= 2.0 * diag["inclusion_se"])
        assert diag["mpm_margin_flag"] is True
        assert result.to_dict()["diagnostics"]["mpm_margin_flag"] is True

    def test_constant_response_rejected(self):
        x = np.linspace(0, 1, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="constant"):
                fit_binary(x, np.ones(30, dtype=int), BinaryFitConfig(mc_draws=1000))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_binary(
                np.arange(4.0), np.array([0, 1, 0, 1]), BinaryFitConfig(mc_draws=1000)
            )
        with pytest.raises(ValueError):
            fit_binary(
                np.linspace(0, 1, 10),
                np.linspace(0, 1, 10),
                BinaryFitConfig(mc_draws=1000),
            )


def patch_cores(monkeypatch, cores):
    """Set the core count that sizes the pools (gprior) and splits the kernel (binary)."""
    for module in (gprior_module, binary_module):
        monkeypatch.setattr(module, "_available_cores", lambda: cores)


def record_parts(monkeypatch):
    """For each kernel call split by _share, the threads that computed its parts."""
    calls = []

    def spy(pool, parts, task):
        threads = []
        calls.append(threads)

        def recorded(i):
            threads.append(threading.get_ident())
            task(i)

        gprior_module._share(pool, parts, recorded)

    monkeypatch.setattr(binary_module, "_share", spy)
    return calls


class TestParallelSampler:
    """One thread pool per fit: the chain of orders 7+ beside the rules of
    orders 1-6, and each kernel call split into near-equal parts of draws."""

    @staticmethod
    def fit_fields(result):
        diag = result.diagnostics
        return (result.selected_order, diag["log_bf"], diag["mc_std_error"],
                result.posterior, result.lambda_hat, result.eta_hat)

    @pytest.mark.parametrize("cores", [None, 3])
    def test_results_identical_at_any_core_count(self, monkeypatch, cores):
        # None keeps this machine's core count; 3 forces a pool on any machine.
        rng = np.random.default_rng(41)
        x = rng.uniform(0, 1, 80)
        y = (rng.uniform(size=80) < ndtr(2.0 * x - 1.0)).astype(int)
        design = build_design(x, UNIT, 4, "legendre")
        cfg = BinaryFitConfig(mc_draws=1000, seed=2)

        def run():
            est = binary_log_bf(y, design, 3, n_draws=2000, seed=5)
            return (est.log_bf, est.mc_std_error), self.fit_fields(fit_binary(x, y, cfg))

        if cores is not None:
            patch_cores(monkeypatch, cores)
        est, fields = run()
        patch_cores(monkeypatch, 1)
        serial_est, serial_fields = run()
        assert est == serial_est
        for got, want in zip(fields, serial_fields):
            np.testing.assert_array_equal(got, want)

    def test_partial_last_block_matches_one_block(self, monkeypatch):
        # 1300 draws in three parts of 433, 433 and 434 rows, computed by
        # this thread and an explicit pool of two workers, whichever takes
        # each part first, against one serial call.
        n, k, n_draws = 40, 2, 1300
        spec = OrthantSpec.from_response(np.arange(n) % 3 == 0)
        a_n = _signed_design(spec, legendre_design(n, k, seed=6), k)
        mode = _order_modes(spec, a_n, k)[-1]

        def run(pool=None):
            return _importance_sample(
                a_n, _g_prior(n, k)[0], mode, n_draws, np.random.default_rng([4, k]), pool=pool
            )

        patch_cores(monkeypatch, 3)
        assert n_draws % 3 != 0
        calls = record_parts(monkeypatch)
        with ThreadPoolExecutor(max_workers=2) as pool:
            split = run(pool)
        assert len(calls) == 1 and len(calls[0]) == 3
        assert split == run()
        assert calls[1] == [threading.get_ident()]

    def test_underflow_fallback_identical_at_any_core_count(self, monkeypatch):
        # 1300 rows in three parts, the underflowing chunks spread over all
        # three parts and all three chunks of columns; orthant_probability
        # splits its 2000 draws over the pool it opens for the call.
        theta, a, _ = crafted_latents(n=150, rows=1300, seed=8)
        theta = theta[np.random.default_rng(9).permutation(theta.shape[0])]
        f = np.array([[0.6, 0.1], [-0.3, 0.4], [0.2, -0.5], [0.1, 0.3]])
        spec = OrthantSpec.from_response(np.array([1, 1, 0, 0]))
        pools = []

        def recorded_pool(**kwargs):
            pools.append(ThreadPoolExecutor(**kwargs))
            return pools[-1]

        def run(pool=None):
            return (_log_orthant_mass(theta, a, pool=pool),
                    orthant_probability(spec, -40.0, f, n_draws=2000, seed=3))

        monkeypatch.setattr(gprior_module, "ThreadPoolExecutor", recorded_pool)
        patch_cores(monkeypatch, 3)
        calls = record_parts(monkeypatch)
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = run(pool)
        assert len(pools) == 1
        assert [len(threads) for threads in calls] == [3, 3]
        patch_cores(monkeypatch, 1)
        serial = run()
        assert len(pools) == 1
        assert [threads for threads in calls[2:]] == [[threading.get_ident()]] * 2
        np.testing.assert_array_equal(pooled[0], serial[0])
        assert pooled[1] == serial[1]

    def test_single_node_orthant_probability_unchanged(self):
        # 2000 antithetic pairs from the stream keyed by (seed, k): the
        # values of the unblocked kernel, to the last few digits libm may move.
        f = np.array([[0.6, 0.1], [-0.3, 0.4], [0.2, -0.5], [0.1, 0.3]])
        spec = OrthantSpec.from_response(np.array([1, 1, 0, 0]))
        lp, se = orthant_probability(spec, -0.3, f, n_draws=4000, seed=3)
        assert lp == pytest.approx(-2.9933927336627253, rel=1e-12)
        assert se == pytest.approx(0.004919413722407682, rel=1e-9)

    def test_no_worker_outlives_the_fit(self, monkeypatch):
        patch_cores(monkeypatch, 3)
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 1, 40)
        y = (rng.uniform(size=40) < ndtr(2.0 * x - 1.0)).astype(int)
        before = threading.active_count()
        fit_binary(x, y, BinaryFitConfig(mc_draws=1000, seed=0))
        assert threading.active_count() == before

    @staticmethod
    def record_threads(monkeypatch):
        """Record which thread finds each mode, runs each rule and runs each
        kernel part, and the most threads computing, or alive, at once."""
        before = threading.active_count()
        lock = threading.Lock()
        inside = {}
        seen = {"modes": {}, "rules": {}, "kernel": set(), "computing": 0, "alive": 0}

        def recorded(name, func, log=None):
            def wrapper(*args, **kwargs):
                ident = threading.get_ident()
                with lock:
                    inside[ident] = inside.get(ident, 0) + 1
                    seen["computing"] = max(seen["computing"], len(inside))
                    seen["alive"] = max(seen["alive"], threading.active_count() - before + 1)
                try:
                    if log is not None:
                        log(ident, *args, **kwargs)
                    return func(*args, **kwargs)
                finally:
                    with lock:
                        inside[ident] -= 1
                        if not inside[ident]:
                            del inside[ident]
            monkeypatch.setattr(binary_module, name, wrapper)

        def chain_mode(ident, a, *args, **kwargs):
            if "level_box" in kwargs:  # the chain's modes, not the refit
                seen["modes"][a.shape[1] - 1] = ident

        def rule(ident, a_n, mode, **kwargs):
            seen["rules"][mode.theta.size - 1] = ident

        recorded("_newton_mode", _newton_mode, chain_mode)
        recorded("_grid_log_num", binary_module._grid_log_num, rule)
        recorded("ndtr", ndtr, lambda ident, *args, **kwargs: seen["kernel"].add(ident))
        return seen

    def test_chain_runs_beside_the_rules_within_the_cores(self, monkeypatch):
        # Three cores: a pool of two workers.  One continues the chain from
        # order 7 while this thread runs the rules of orders 1-6; then the
        # Monte Carlo kernel calls split over both workers and this thread.
        patch_cores(monkeypatch, 3)
        seen = self.record_threads(monkeypatch)
        caller = threading.get_ident()
        x, y = criterion_8_sample(0)
        result = fit_binary(x, y, BinaryFitConfig(seed=0, scale=UNIT))
        assert sorted(seen["modes"]) == list(range(result.max_order + 1))
        assert {seen["modes"][k] for k in range(_SPARSE_DIM)} == {caller}
        pooled = {seen["modes"][k] for k in range(_SPARSE_DIM, result.max_order + 1)}
        assert len(pooled) == 1 and caller not in pooled
        assert seen["rules"] == {k: caller for k in range(1, _SPARSE_DIM)}
        # An idle worker may take both parts of a call, so 2 or 3 threads.
        assert caller in seen["kernel"] and len(seen["kernel"]) >= 2
        assert seen["computing"] <= 3 and seen["alive"] <= 3

    def test_one_core_starts_no_thread(self, monkeypatch):
        def no_pool(**kwargs):
            raise AssertionError("a thread pool opened on one core")

        patch_cores(monkeypatch, 1)
        monkeypatch.setattr(gprior_module, "ThreadPoolExecutor", no_pool)
        seen = self.record_threads(monkeypatch)
        caller = threading.get_ident()
        x, y = criterion_8_sample(0)
        fit_binary(x, y, BinaryFitConfig(seed=0, scale=UNIT))
        assert set(seen["modes"].values()) == set(seen["rules"].values()) == {caller}
        assert seen["kernel"] == {caller}
        assert seen["computing"] == seen["alive"] == 1


def criterion_8_sample(rep, flip=False):
    """One criterion-8 replicate: n = 300, y ~ Bernoulli(Phi(2x - 1))."""
    rng = np.random.default_rng([500, rep])
    x = rng.uniform(0.0, 1.0, 300)
    y = (rng.uniform(size=300) < ndtr(2.0 * x - 1.0)).astype(float)
    return x, 1.0 - y if flip else y


def test_criterion_8_fit_values_unchanged():
    # Replicate 0 takes the product rule at orders 1-3, the sparse grid at
    # orders 4-6 and Monte Carlo at orders 7-10.  Order 1 is the rule's
    # value; the mean of 1.2M importance draws (six streams of 200000) lies
    # 1.5e-4 nats above it, 0.65 of that mean's standard error.  Order 5 is
    # the level-4 grid's value, 0.0066 nats above its old 4000-draw Monte
    # Carlo value (0.40 of that value's standard error).  Orders 7-10 carry
    # posterior below _FULL_DRAW_MASS, so they draw _MIN_DRAWS points: order
    # 10 is pinned to binary_log_bf(..., n_draws=1000) on the design with
    # canonical QR signs.  The Laplace values were recorded with each
    # order's own factor loadings sqrt(g_k) Q_k and a standard normal prior
    # on their coordinates; the g-prior on a prefix of one signed design
    # moves them by a few ulps, and rel 1e-12 allows for that and for the
    # last few digits libm may move on another machine.
    x, y = criterion_8_sample(0)
    diag = fit_binary(x, y, BinaryFitConfig(seed=0, scale=UNIT)).diagnostics
    assert diag["screened"] == [False] * 11 + [True] * 34
    assert diag["grid_nodes"] == [0, 33, 151, 705, 341, 533, 785] + [0] * 38
    assert diag["mc_n_draws"] == [0] * 7 + [1000] * 4 + [0] * 34
    pinned = {
        "log_bf": {1: 27.368341995781435, 5: 21.847076428480108, 10: 17.094335485931424},
        "laplace_log_bf": {
            1: 27.367134586001782, 5: 21.8279676472541, 10: 16.99562930455292,
            20: 6.708424639847834, 44: 5.525447015910487,
        },
        "mc_std_error": {
            1: 0.00017437505582051926, 5: 0.00768821877005621, 10: 0.03195149683339966,
        },
    }
    for key, values in pinned.items():
        for k, want in values.items():
            assert diag[key][k] == pytest.approx(want, rel=1e-12), (key, k)


def criterion_8_modes(rep, k):
    """The signed design and the chain's modes of orders 0..k of one replicate."""
    x, y = criterion_8_sample(rep)
    spec = OrthantSpec.from_response(y)
    a_n = _signed_design(spec, build_design(x, UNIT, 44, "legendre"), 44)
    return spec, a_n, _order_modes(spec, a_n, k)


class TestProductRule:
    """Orders 1-3 take an adaptive Gauss-Hermite rule around their modes."""

    @pytest.mark.parametrize("rep", [0, 1, 2])
    def test_seven_nodes_agree_with_five(self, monkeypatch, rep):
        # Over the 16 binary-n300 fits |Q_7 - Q_5| was at most 5.3e-6 nats
        # and the reported |Q_5 - Q_3| up to 5.3e-4, so the estimate is
        # conservative.
        _, a_n, modes = criterion_8_modes(rep, _GRID_DIM - 1)
        for mode in modes[1:]:
            five, error = _grid_log_num(a_n, mode)
            monkeypatch.setattr(binary_module, "_GRID_NODES", 7)
            seven, _ = _grid_log_num(a_n, mode)
            monkeypatch.setattr(binary_module, "_GRID_NODES", 5)
            assert abs(seven - five) <= min(1e-5, error)

    def test_warm_chain_matches_cold_starts(self):
        # Each order started from the previous mode with a zero appended,
        # against a start from the base level and zeros.
        spec, a_n, warm = criterion_8_modes(0, 44)
        cold = [
            _newton_mode(a_n[:, : k + 1], _g_prior(spec.n, k)[0],
                         np.r_[_level_start(spec), np.zeros(k)], level_box=_LAMBDA_BOX)
            for k in range(45)
        ]
        assert all(m.converged for m in warm + cold)
        for w, c in zip(warm, cold):
            assert abs(_laplace_log_num(w, spec.n) - _laplace_log_num(c, spec.n)) <= 1e-10
        assert sum(m.iterations for m in warm) < sum(m.iterations for m in cold)


def gaussian_moment(powers):
    """E prod u_i^p_i for u ~ N(0, I): prod (p_i - 1)!!, or 0 if some p_i is odd."""
    if any(p % 2 for p in powers):
        return 0.0
    return float(np.prod([np.prod(np.arange(p - 1, 0, -2)) for p in powers]))


class TestSparseGrid:
    """Orders 4-6 take the level-4 Smolyak grid around their modes."""

    @pytest.mark.parametrize("dim", [5, 6, 7])
    def test_exact_for_gaussian_moments(self, dim):
        # Level L integrates every monomial of total degree 2L - 1 exactly,
        # for example E u1^6 = 15, E u1^4 u2^2 = 3 and E u1^2 u2^2 u3^2 = 1
        # at level 4.
        for level in (4, 3):
            nodes, weights = _rule(dim, level, True)
            assert weights.sum() == pytest.approx(1.0, abs=1e-13)
            for degree in range(1, 2 * level):
                for coords in itertools.combinations_with_replacement(range(dim), degree):
                    powers = np.bincount(coords, minlength=dim)
                    got = weights @ np.prod(nodes**powers, axis=1)
                    assert got == pytest.approx(gaussian_moment(powers), abs=1e-11), powers

    @pytest.mark.parametrize("dim", [5, 6, 7])
    def test_level_three_nodes_lie_among_level_four(self, dim):
        fine, fine_w = _rule(dim, 4, True)
        coarse, coarse_w = _rule(dim, 3, True)
        nodes, weights = _grid_rule(dim)
        assert len(nodes) == len(fine) == {5: 341, 6: 533, 7: 785}[dim]
        index = {tuple(node): i for i, node in enumerate(nodes)}
        assert {tuple(node) for node in fine} == set(index)
        np.testing.assert_array_equal(weights[0, [index[tuple(u)] for u in fine]], fine_w)
        at = [index[tuple(u)] for u in coarse]
        np.testing.assert_array_equal(weights[1, at], coarse_w)
        assert np.count_nonzero(weights[1]) == len(coarse)

    @pytest.mark.parametrize("rep", [0, 1, 2])
    def test_level_five_agrees_with_level_four(self, monkeypatch, rep):
        # Over replicates 0-2 |L5 - L4| was at most 2.8e-4 nats, against
        # reported |L4 - L3| of 3.7e-3 to 1.4e-2.
        _, a_n, modes = criterion_8_modes(rep, _SPARSE_DIM - 1)
        for mode in modes[_GRID_DIM:]:
            four, error = _grid_log_num(a_n, mode)
            monkeypatch.setattr(binary_module, "_SPARSE_LEVEL", 5)
            five, _ = _grid_log_num(a_n, mode)
            monkeypatch.setattr(binary_module, "_SPARSE_LEVEL", 4)
            assert abs(five - four) <= min(1e-3, error)

    def test_long_importance_sample_agrees(self):
        # 16 streams of 16000 draws each at orders 4-6 of replicate 0: the
        # mean lay 1.2, 2.2 and 1.3 of its standard errors (at most 0.0023
        # nats) from the rule.
        _, a_n, modes = criterion_8_modes(0, _SPARSE_DIM - 1)
        for mode in modes[_GRID_DIM:]:
            rule, _ = _grid_log_num(a_n, mode)
            runs = np.array([_mc_log_num(a_n, mode, 16000, seed)[:2] for seed in range(16)])
            shift = runs[:, 0].max()
            w = np.exp(runs[:, 0] - shift)
            mean = np.log(w.mean()) + shift
            se = np.sqrt(np.sum((w * runs[:, 1]) ** 2)) / w.sum()
            assert abs(mean - rule) <= 3.0 * se

    def test_non_positive_rule_falls_back_to_monte_carlo(self, monkeypatch):
        # A negative coarse sum at dimension 5 makes order 4 an ordinary
        # Monte Carlo order, in the fit and in binary_log_bf alike.
        rule = binary_module._grid_rule

        def broken(dim):
            nodes, weights = rule(dim)
            return nodes, weights * ([[1.0], [-1.0]] if dim == 5 else 1.0)

        monkeypatch.setattr(binary_module, "_grid_rule", broken)
        x, y = criterion_8_sample(0)
        _, a_n, modes = criterion_8_modes(0, 4)
        assert _grid_log_num(a_n, modes[4]) is None
        diag = fit_binary(x, y, BinaryFitConfig(seed=0, scale=UNIT)).diagnostics
        assert diag["grid_nodes"][3:6] == [705, 0, 533]
        draws = diag["mc_n_draws"][4]
        assert not diag["screened"][4] and draws >= _MIN_DRAWS and diag["mc_ess"][4] > 0
        est = binary_log_bf(y, build_design(x, UNIT, 44, "legendre"), 4, n_draws=draws, seed=0)
        assert (est.log_bf, est.mc_std_error, est.n_draws) == (
            diag["log_bf"][4], diag["mc_std_error"][4], draws)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_weight_rows_match_block_diag(dim):
    # The two weight rows are built with numpy, so scipy.linalg need not
    # load; they equal the block-diagonal construction bit for bit.
    sparse = dim > _GRID_DIM
    level = _SPARSE_LEVEL if sparse else (_GRID_NODES + 1) // 2
    (fine, fine_w), (coarse, coarse_w) = (_rule(dim, l, sparse) for l in (level, level - 1))
    nodes, weights = _merge(np.concatenate([fine, coarse]), block_diag(fine_w, coarse_w).T)
    for got, want in zip(_rule_pair(dim, level, sparse), (nodes, weights.T)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def fit_with_full_monte_carlo(x, y, scale, seed):
    """``fit_binary`` and every order's ``binary_log_bf`` on the same data."""
    result = fit_binary(x, y, BinaryFitConfig(seed=seed, scale=scale))
    design = build_design(x, scale, result.max_order, "legendre")
    full = [binary_log_bf(y, design, k, seed=seed) for k in range(result.max_order + 1)]
    return result, full


def signal_probit_sample(mean_fn, domain, n, rep):
    """y ~ Bernoulli(Phi(mu(x))), x uniform on the signal's domain."""
    rng = np.random.default_rng([n, rep])
    x = rng.uniform(*domain, n)
    return x, (rng.uniform(size=n) < ndtr(mean_fn(x))).astype(float)


def signal_probit_fit(mean_fn, domain, n, rep):
    """A fit of :func:`signal_probit_sample` and every order's ``binary_log_bf``."""
    x, y = signal_probit_sample(mean_fn, domain, n, rep)
    return fit_with_full_monte_carlo(x, y, PredictorScale(*domain), rep)


def at_own_draws(x, y, result, full):
    """Every order's ``binary_log_bf`` at the draws the fit spent on it.

    ``full`` (at ``mc_draws``) stands in for orders that drew none or all of it.
    """
    design = build_design(x, UNIT, result.max_order, "legendre")
    diag = result.diagnostics
    return [
        binary_log_bf(y, design, k, n_draws=draws, seed=diag["seed"])
        if 0 < draws < diag["mc_draws"] else est
        for k, (draws, est) in enumerate(zip(diag["mc_n_draws"], full))
    ]


def monte_carlo_orders(diag):
    """The orders that ran Monte Carlo: not the base, gridded or screened."""
    mask = (np.array(diag["grid_nodes"]) == 0) & ~np.array(diag["screened"])
    mask[0] = False
    return mask


@pytest.fixture(scope="module")
def screened_fits():
    """Two criterion-8 fits, each with every order's Monte Carlo estimate at
    ``mc_draws`` and at the fit's own draws."""
    fits = []
    for rep in (0, 1):
        x, y = criterion_8_sample(rep)
        result, full = fit_with_full_monte_carlo(x, y, UNIT, rep)
        fits.append((rep, result, full, at_own_draws(x, y, result, full)))
    return fits


@pytest.fixture(scope="module")
def pwlinear_fit():
    """A pwlinear probit fit at n = 300 whose lowest Monte Carlo order, 7,
    carries posterior 0.002, with every order's estimate at ``mc_draws``."""
    return signal_probit_fit(mean_pwlinear, PWLINEAR_DOMAIN, 300, 2)


def assert_laplace_error_within_slack(result, full):
    # The Laplace log BF may fall short of Monte Carlo by the screening
    # slack, and barely ever exceeds it.
    shortfall = np.array([est.log_bf for est in full]) - result.diagnostics["laplace_log_bf"]
    assert shortfall.max() <= _LAPLACE_SLACK
    assert -shortfall.min() <= 0.15


class TestLaplaceScreening:
    """Monte Carlo runs until the screened orders fit the error budget."""

    def test_laplace_agrees_with_monte_carlo_near_the_best(self, screened_fits):
        for _, result, full, _ in screened_fits:
            mc = np.array([est.log_bf for est in full])
            log_post = mc + model_prior(result.max_order).log_probs
            near = log_post >= log_post.max() - 10.0
            laplace = result.diagnostics["laplace_log_bf"]
            assert np.max(np.abs(laplace[near] - mc[near])) <= 0.15

    def test_screened_orders_lie_beyond_the_margin(self, screened_fits):
        # Greedy and minimal: every Monte Carlo order outranks every screened
        # one by Laplace log posterior, the screened ones fit the budget, and
        # screening the last Monte Carlo order too would not have.
        for _, result, _, _ in screened_fits:
            diag = result.diagnostics
            screened = np.array(diag["screened"])
            prior = model_prior(result.max_order).log_probs
            laplace_post = diag["laplace_log_bf"] + prior
            final_post = diag["log_bf"] + prior
            assert 0 < screened.sum() < result.max_order
            assert not screened[0]
            mc_orders = np.flatnonzero(monte_carlo_orders(diag))
            assert laplace_post[mc_orders].min() > laplace_post[screened].max()

            def log_bound(mask):
                return (_LAPLACE_SLACK + logsumexp(laplace_post[mask])
                        - logsumexp(final_post[~mask]))

            assert diag["screened_bound"] == pytest.approx(np.exp(log_bound(screened)), rel=1e-9)
            assert 0.0 < diag["screened_bound"] <= _SCREEN_TOL
            last = mc_orders[np.argmin(laplace_post[mc_orders])]
            wider = screened.copy()
            wider[last] = True
            assert np.exp(log_bound(wider)) > _SCREEN_TOL
            np.testing.assert_array_equal(diag["log_bf"][screened], diag["laplace_log_bf"][screened])
            assert np.all(diag["mc_std_error"][screened] == 0.0)

    def test_kept_orders_are_exactly_binary_log_bf(self, screened_fits):
        # Each at its own draw count: mc_draws, _MIN_DRAWS, or none where gridded.
        for _, result, _, own in screened_fits:
            diag = result.diagnostics
            for k in np.flatnonzero(~np.array(diag["screened"])):
                assert diag["mc_n_draws"][k] == own[k].n_draws
                assert diag["log_bf"][k] == own[k].log_bf
                assert diag["mc_std_error"][k] == own[k].mc_std_error
                assert diag["newton_iterations"][k] == own[k].newton_iterations

    def test_posterior_matches_full_monte_carlo_oracle(self, screened_fits):
        # Kept orders at the fit's own draws, screened ones at mc_draws.
        for _, result, _, own in screened_fits:
            log_post = np.array([est.log_bf for est in own])
            log_post += model_prior(result.max_order).log_probs
            oracle, inclusion = _normalized_posterior(log_post)
            mass = result.diagnostics["screened_mass"]
            assert 0.0 <= mass <= np.exp(-_LAPLACE_SLACK) * result.diagnostics["screened_bound"]
            assert result.diagnostics["screened_bound"] <= _SCREEN_TOL
            bound = np.exp(_LAPLACE_SLACK) * mass
            assert np.max(np.abs(result.posterior - oracle)) <= bound + 1e-12
            assert result.selected_order == _mpm_order(inclusion)

    def test_full_draws_wherever_the_posterior_has_mass(self, pwlinear_fit):
        # Monte Carlo orders below _FULL_DRAW_MASS draw _MIN_DRAWS points; the
        # inclusion curve moved from the all-mc_draws oracle by 5.9e-5.
        # On criterion-8 data no order above the sparse grid reaches 1e-3.
        result, full = pwlinear_fit
        diag = result.diagnostics
        draws = np.array(diag["mc_n_draws"])
        monte_carlo = monte_carlo_orders(diag)
        assert np.all(draws[~monte_carlo] == 0)
        assert set(draws[monte_carlo]) == {_MIN_DRAWS, 4000}
        heavy = result.posterior >= _FULL_DRAW_MASS
        assert (heavy & monte_carlo).any()
        assert np.all(draws[heavy & monte_carlo] == diag["mc_draws"])
        log_post = np.array([est.log_bf for est in full])
        _, inclusion = _normalized_posterior(log_post + model_prior(result.max_order).log_probs)
        assert np.max(np.abs(diag["inclusion"] - inclusion)) <= 1e-3

    def test_top_up_reruns_an_order_that_gained_mass(self, monkeypatch):
        # Order 7 of the pwlinear fit, the lowest Monte Carlo order, carries
        # posterior 0.002.  Lowered 12 nats in Laplace, it is visited below
        # _FULL_DRAW_MASS and draws _MIN_DRAWS points; its Monte Carlo value
        # restores its mass, so the top-up pass re-runs it at mc_draws from
        # the same stream and cached mode.
        x, y = signal_probit_sample(mean_pwlinear, PWLINEAR_DOMAIN, 300, 2)
        scale = PredictorScale(*PWLINEAR_DOMAIN)
        laplace, sample = binary_module._laplace_log_num, binary_module._mc_log_num
        calls = []

        def lowered(mode, n):
            return laplace(mode, n) - (12.0 if mode.theta.size == 8 else 0.0)

        def recorded(a_n, mode, n_draws, seed, *, pool=None):
            calls.append((mode.theta.size - 1, n_draws))
            return sample(a_n, mode, n_draws, seed, pool=pool)

        monkeypatch.setattr(binary_module, "_laplace_log_num", lowered)
        monkeypatch.setattr(binary_module, "_mc_log_num", recorded)
        result = fit_binary(x, y, BinaryFitConfig(seed=2, scale=scale))
        diag = result.diagnostics
        assert [c for c in calls if c[0] == 7] == [(7, _MIN_DRAWS), (7, 4000)]
        assert min(c[0] for c in calls) == _SPARSE_DIM
        assert diag["mc_n_draws"][7] == 4000 and result.posterior[7] >= _FULL_DRAW_MASS
        est = binary_log_bf(y, build_design(x, scale, result.max_order, "legendre"), 7, seed=2)
        assert diag["log_bf"][7] == est.log_bf
        assert diag["mc_std_error"][7] == est.mc_std_error
        heavy = result.posterior >= _FULL_DRAW_MASS
        assert np.all(np.array(diag["mc_n_draws"])[heavy & monte_carlo_orders(diag)] == 4000)
        assert diag["screened_bound"] <= _SCREEN_TOL

    def test_inclusion_se_is_the_delta_method(self, screened_fits):
        # sum_k (d inclusion_j / d log_post_k)^2 se_k^2, the derivatives by
        # central differences of the posterior normalization.
        h = 1e-5
        for _, result, _, _ in screened_fits:
            diag = result.diagnostics
            log_post = diag["log_bf"] + model_prior(result.max_order).log_probs
            jac = np.empty((result.max_order, result.max_order + 1))
            for k in range(result.max_order + 1):
                step = np.zeros_like(log_post)
                step[k] = h
                jac[:, k] = (_normalized_posterior(log_post + step)[1]
                             - _normalized_posterior(log_post - step)[1]) / (2.0 * h)
            want = np.sqrt(((jac * diag["mc_std_error"]) ** 2).sum(axis=1))
            np.testing.assert_allclose(diag["inclusion_se"], want, rtol=1e-6, atol=1e-10)
            assert diag["inclusion_se"].max() > 1e-5

    def test_laplace_error_within_the_slack(self, screened_fits):
        for _, result, full, _ in screened_fits:
            assert_laplace_error_within_slack(result, full)
        assert_laplace_error_within_slack(*signal_probit_fit(mean_pwlinear, (-3.0, 3.0), 300, 1))

    @pytest.mark.slow
    @pytest.mark.parametrize("rep", [0, 1])
    def test_laplace_error_within_the_slack_at_n1000(self, rep):
        # The largest shortfalls measured: 3.98 nats at order 54 (rep 0) and
        # 4.11 at order 37 (rep 1), the second from one heavy importance weight.
        assert_laplace_error_within_slack(*signal_probit_fit(mean_poly5, (0.0, 1.0), 1000, rep))

    def test_mc_ess_only_for_monte_carlo_orders(self, screened_fits):
        for _, result, _, _ in screened_fits:
            diag = result.diagnostics
            ess, monte_carlo = diag["mc_ess"], monte_carlo_orders(diag)
            assert np.all(ess[~monte_carlo] == 0.0)
            for k in np.flatnonzero(monte_carlo):
                assert 1.0 < ess[k] <= diag["mc_n_draws"][k]

    def test_screened_mask_invariant_to_label_flip(self, screened_fits):
        rep, result, _, _ = screened_fits[0]
        x, y_flip = criterion_8_sample(rep, flip=True)
        flipped = fit_binary(x, y_flip, BinaryFitConfig(seed=rep, scale=UNIT))
        assert flipped.diagnostics["screened"] == result.diagnostics["screened"]

    def test_stages_sum_to_the_fit_time(self, screened_fits):
        for _, result, _, _ in screened_fits:
            stages = result.diagnostics["stages"]
            assert list(stages) == ["design", "laplace", "monte_carlo", "refit"]
            assert all(value >= 0.0 for value in stages.values())
            assert sum(stages.values()) == pytest.approx(result.timing_seconds, abs=1e-9)


@pytest.mark.slow
def test_binary_n300_reference_orders(monkeypatch):
    # The benchmark's binary-n300 datasets, read from perfbench/ and not
    # edited, select the recorded orders at every reference seed (0-63).
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    reference = json.loads((PERFBENCH / "reference_orders.json").read_text())
    want = reference["orders"]["binary-n300"]
    workload = workloads.BinaryWorkload()
    lo, hi = reference["seeds"]
    mismatches = []
    for seed in range(lo, hi + 1):
        got = [workload.orders(workload.run(item)) for item in workload.inputs(seed)]
        if got != want[str(seed)]:
            mismatches.append((seed, got, want[str(seed)]))
    assert not mismatches


def scipy_mode(signs, a, penalty, offset=0.0):
    """Reference maximizer of sum log Phi(s (offset + A theta)) - theta'P theta/2.

    It takes the signs apart from the unsigned design A, so it checks the
    signed design and offset the library's helper is given.
    """

    def neg(theta):
        t = signs * (offset + a @ theta)
        mills = np.exp(-0.5 * t * t - 0.5 * np.log(2.0 * np.pi) - log_ndtr(t))
        value = np.sum(log_ndtr(t)) - 0.5 * theta @ penalty @ theta
        grad = a.T @ (signs * mills) - penalty @ theta
        return -value, -grad

    res = minimize(
        neg, np.zeros(a.shape[1]), jac=True, method="BFGS",
        options={"gtol": 1e-11, "maxiter": 10000},
    )
    return res.x


def probit_sample(n, order, seed):
    """Probit data on a smooth curve, with its order-``order`` Legendre design."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = (rng.uniform(size=n) < ndtr(1.5 * np.sin(3.0 * x) - 0.8)).astype(int)
    return x, 2.0 * y - 1.0, build_design(x, UNIT, order, "legendre")


class TestNewtonMode:
    """The one damped-Newton helper behind every mode of the probit path."""

    def roles(self):
        n, k = 60, 3
        _, signs, design = probit_sample(n, k, seed=21)
        q = np.linalg.qr(design.values[:, 1:])[0]
        g = 2.0 * n / (k + 1.0)
        g_prior = np.diag([0.0] + [1.0 / g] * k)
        return {
            "base": (signs, np.ones((n, 1)), np.zeros((1, 1)), 0.0),
            "joint": (signs, np.column_stack([np.ones(n), q]), g_prior, 0.0),
            "fixed-level": (signs, np.sqrt(g) * q, np.eye(k), 0.35),
            "refit": (signs, design.values, np.zeros((k + 1, k + 1)), 0.0),
        }

    @pytest.mark.parametrize("role", ["base", "joint", "fixed-level", "refit"])
    def test_mode_matches_scipy_minimize(self, role):
        signs, a, penalty, offset = self.roles()[role]
        mode = _newton_mode(
            signs[:, None] * a, penalty, np.zeros(a.shape[1]),
            offset=signs * offset if offset else None,
            level_box=_LAMBDA_BOX if role in ("base", "joint") else np.inf,
        )
        assert mode.converged
        assert 1 <= mode.iterations < 20
        ref = scipy_mode(signs, a, penalty, offset)
        assert np.max(np.abs(mode.theta - ref)) <= 1e-7 * max(1.0, np.max(np.abs(ref)))
        # The returned curvature is A' W A + P at the mode.
        t = signs * (offset + a @ mode.theta)
        mills = np.exp(-0.5 * t * t - 0.5 * np.log(2.0 * np.pi) - log_ndtr(t))
        curv = a.T @ (a * (mills * (t + mills))[:, None]) + penalty
        np.testing.assert_allclose(mode.curvature, curv, rtol=1e-12, atol=1e-12)

    def test_separated_data_does_not_converge(self):
        x = np.linspace(0.0, 1.0, 40)
        signs = np.where(x > 0.5, 1.0, -1.0)
        design = build_design(x, UNIT, 2, "legendre")
        mode = _newton_mode(
            signs[:, None] * design.values, np.zeros((3, 3)), np.zeros(3),
            fit_limit=_SEPARATION_LIMIT,
        )
        assert not mode.converged
        assert np.max(np.abs(design.values @ mode.theta)) > _SEPARATION_LIMIT

    def test_iteration_cap_reports_not_converged(self):
        signs, a, penalty, _ = self.roles()["joint"]
        start = np.zeros(a.shape[1])
        a = signs[:, None] * a
        mode = _newton_mode(a, penalty, start, max_iter=1)
        assert mode.iterations == 1
        assert not mode.converged
        full = _newton_mode(a, penalty, start)
        assert full.converged and full.iterations > 1

    def test_failed_line_search_keeps_the_last_iterate(self):
        # A negative penalty makes the curvature negative definite, so the
        # Newton direction points downhill and every halving is rejected.
        signs = np.where(np.arange(40) % 3 == 0, -1.0, 1.0)
        start = np.array([0.25])
        mode = _newton_mode(signs[:, None], np.array([[-40.0]]), start)
        assert not mode.converged
        assert mode.iterations == 1
        np.testing.assert_array_equal(mode.theta, start)

    def test_level_box_clips_the_level(self):
        # An all-ones response pushes the level to +inf; a step that would
        # leave the box is cut back to its edge.
        start = np.array([_LAMBDA_BOX - 0.1])
        mode = _newton_mode(np.ones((20, 1)), np.zeros((1, 1)), start, level_box=_LAMBDA_BOX)
        assert mode.theta[0] == _LAMBDA_BOX

    @pytest.mark.parametrize("ridge", [0.0, 0.06])
    def test_legendre_refit_matches_bernstein_mle(self, ridge):
        k = 4
        x, signs, design = probit_sample(120, k, seed=5)
        q = build_transform(k).q
        mode = _newton_mode(
            signs[:, None] * design.values, ridge * (q.T @ q), np.zeros(k + 1),
            fit_limit=_SEPARATION_LIMIT,
        )
        assert mode.converged
        bern = build_design(x, UNIT, k, "bernstein").values
        ref = scipy_mode(signs, bern, ridge * np.eye(k + 1))
        eta = q @ mode.theta
        assert np.max(np.abs(eta - ref)) <= 1e-7 * max(1.0, np.max(np.abs(ref)))
