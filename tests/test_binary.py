"""Probit latent-variable path: orthant estimator, binary BFs, fit_binary."""

import json
import threading
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import log_ndtr, ndtr
from scipy.stats import multivariate_normal

import smoothsel.binary as binary_module
from smoothsel.basis import PredictorScale, build_design
from smoothsel.binary import (
    _LAMBDA_BOX,
    _SCREEN_NATS,
    _SEPARATION_LIMIT,
    BinaryFitConfig,
    OrthantSpec,
    _loadings,
    _newton_mode,
    _orthonormal_columns,
    _sample_nodes,
    binary_log_bf,
    fit_binary,
    orthant_probability,
)
from smoothsel.gprior import _normalized_posterior
from smoothsel.model_space import model_prior
from smoothsel.selector import _bernstein_view, _mpm_order
from smoothsel.transform import build_transform

UNIT = PredictorScale(0.0, 1.0)


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
    """Latent covariance I + F F' of the order-k model, from the sampler's loadings."""
    f = _loadings(_orthonormal_columns(design, k), k)
    return np.eye(design.n) + f @ f.T


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
        with pytest.raises(ValueError, match="rank-deficient"):
            _orthonormal_columns(design, 3)


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


class TestBinaryLogBf:
    def test_base_against_itself_is_exact_zero(self):
        design = legendre_design(20, 2, seed=0)
        y = (np.linspace(0, 1, 20) > 0.4).astype(int)
        est = binary_log_bf(y, design, 0, n_draws=1000, seed=0)
        assert est.log_bf == 0.0
        assert est.mc_std_error == 0.0

    def test_two_seeds_agree_within_combined_error(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 20)
        design = build_design(x, UNIT, 3, "legendre")
        y = (rng.uniform(size=20) < 0.5).astype(int)
        a = binary_log_bf(y, design, 2, n_draws=4000, seed=1)
        b = binary_log_bf(y, design, 2, n_draws=4000, seed=2)
        combined = float(np.hypot(a.mc_std_error, b.mc_std_error))
        assert abs(a.log_bf - b.log_bf) <= 4.0 * combined

    def test_deterministic_given_seed(self):
        design = legendre_design(15, 2, seed=4)
        y = (np.arange(15) % 3 == 0).astype(int)
        a = binary_log_bf(y, design, 2, n_draws=1200, seed=9)
        b = binary_log_bf(y, design, 2, n_draws=1200, seed=9)
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
            design = build_design(x, UNIT, 3, "legendre")
            y = (rng.uniform(size=30) < 0.4).astype(int)
            small = binary_log_bf(y, design, 3, n_draws=2000, seed=trial)
            large = binary_log_bf(y, design, 3, n_draws=4000, seed=trial)
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
        for k in (5, -1):
            with pytest.raises(ValueError, match=rf"k={k} outside \["):
                binary_log_bf(y, legendre, k, n_draws=1000, seed=0)
        bernstein = build_design(x, UNIT, 3, "bernstein")
        with pytest.raises(ValueError, match="requires a Legendre design"):
            binary_log_bf(y, bernstein, 2, n_draws=1000, seed=0)


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
                    "laplace_log_bf", "screened", "screened_mass", "stages"):
            assert key in result.diagnostics, key
        diag = result.diagnostics
        assert len(diag["newton_iterations"]) == result.max_order + 1
        assert diag["newton_iterations"][0] == 0
        assert min(diag["newton_iterations"][1:]) >= 1
        assert diag["newton_converged"] == [True] * (result.max_order + 1)
        assert diag["refit_newton_iterations"] >= 1
        assert diag["refit_newton_converged"] is True
        payload = result.to_dict()
        assert payload["omega_prior"] is None
        assert payload["link"] == "probit"
        screened = payload["diagnostics"]["screened"]
        assert len(screened) == result.max_order + 1 and screened[0] is False
        assert len(payload["diagnostics"]["laplace_log_bf"]) == result.max_order + 1
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
        # pass's joint modes: the only Newton solves are the base level,
        # one joint mode per order and the refit.
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


class TestParallelSampler:
    """The orthant-mass kernel runs in node blocks on a thread pool."""

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
            monkeypatch.setattr(binary_module, "_available_cores", lambda: cores)
        est, fields = run()
        monkeypatch.setattr(binary_module, "_available_cores", lambda: 1)
        serial_est, serial_fields = run()
        assert est == serial_est
        for got, want in zip(fields, serial_fields):
            np.testing.assert_array_equal(got, want)

    def test_partial_last_block_matches_one_block(self, monkeypatch):
        # 13 nodes: one full block of 8 and a last block of 5, against the
        # whole latent matrix as one block in the calling thread.
        n, k, n_nodes = 40, 2, 13
        loadings = _orthonormal_columns(legendre_design(n, k, seed=6), k) * 4.0
        spec = OrthantSpec.from_response(np.arange(n) % 3 == 0)
        lam_nodes = np.linspace(-1.0, 0.5, n_nodes)
        means = np.outer(lam_nodes, [0.3, -0.2])
        args = (spec, loadings, lam_nodes, means, 0.8 * np.eye(k), 2 * np.log(0.8), 6, 4, k)
        monkeypatch.setattr(binary_module, "_available_cores", lambda: 3)
        assert n_nodes % binary_module._NODE_BLOCK != 0
        blocked = _sample_nodes(*args)
        monkeypatch.setattr(binary_module, "_NODE_BLOCK", n_nodes)
        monkeypatch.setattr(binary_module, "_available_cores", lambda: 1)
        whole = _sample_nodes(*args)
        for got, want in zip(blocked, whole):
            np.testing.assert_array_equal(got, want)

    def test_single_node_orthant_probability_unchanged(self):
        # One node and 2000 antithetic pairs: the values of the unblocked
        # kernel, to the last few digits libm may move.
        f = np.array([[0.6, 0.1], [-0.3, 0.4], [0.2, -0.5], [0.1, 0.3]])
        spec = OrthantSpec.from_response(np.array([1, 1, 0, 0]))
        lp, se = orthant_probability(spec, -0.3, f, n_draws=4000, seed=3)
        assert lp == pytest.approx(-2.9933927336627253, rel=1e-12)
        assert se == pytest.approx(0.004919413722407679, rel=1e-9)

    def test_no_worker_outlives_the_fit(self, monkeypatch):
        monkeypatch.setattr(binary_module, "_available_cores", lambda: 3)
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 1, 40)
        y = (rng.uniform(size=40) < ndtr(2.0 * x - 1.0)).astype(int)
        before = threading.active_count()
        fit_binary(x, y, BinaryFitConfig(mc_draws=1000, seed=0))
        assert threading.active_count() == before


def criterion_8_sample(rep, flip=False):
    """One criterion-8 replicate: n = 300, y ~ Bernoulli(Phi(2x - 1))."""
    rng = np.random.default_rng([500, rep])
    x = rng.uniform(0.0, 1.0, 300)
    y = (rng.uniform(size=300) < ndtr(2.0 * x - 1.0)).astype(float)
    return x, 1.0 - y if flip else y


@pytest.fixture(scope="module")
def screened_fits():
    """Two criterion-8 fits, each with every order's Monte Carlo estimate."""
    out = []
    for rep in (0, 1):
        x, y = criterion_8_sample(rep)
        result = fit_binary(x, y, BinaryFitConfig(seed=rep, scale=UNIT))
        design = build_design(x, UNIT, result.max_order, "legendre")
        full = [binary_log_bf(y, design, k, seed=rep) for k in range(result.max_order + 1)]
        out.append((rep, result, full))
    return out


class TestLaplaceScreening:
    """Monte Carlo runs only for orders within the margin of the best."""

    def test_laplace_agrees_with_monte_carlo_near_the_best(self, screened_fits):
        for _, result, full in screened_fits:
            mc = np.array([est.log_bf for est in full])
            log_post = mc + model_prior(result.max_order).log_probs
            near = log_post >= log_post.max() - 10.0
            laplace = result.diagnostics["laplace_log_bf"]
            assert np.max(np.abs(laplace[near] - mc[near])) <= 0.15

    def test_screened_orders_lie_beyond_the_margin(self, screened_fits):
        for _, result, _ in screened_fits:
            diag = result.diagnostics
            screened = np.array(diag["screened"])
            prior = model_prior(result.max_order).log_probs
            laplace_post = diag["laplace_log_bf"] + prior
            final_post = diag["log_bf"] + prior
            assert 0 < screened.sum() < result.max_order
            assert not screened[0]
            assert np.all(laplace_post[screened] < laplace_post.max() - _SCREEN_NATS)
            assert np.all(laplace_post[screened] < final_post.max() - _SCREEN_NATS)
            np.testing.assert_array_equal(diag["log_bf"][screened], diag["laplace_log_bf"][screened])
            assert np.all(diag["mc_std_error"][screened] == 0.0)

    def test_kept_orders_are_exactly_binary_log_bf(self, screened_fits):
        for _, result, full in screened_fits:
            diag = result.diagnostics
            for k in np.flatnonzero(~np.array(diag["screened"])):
                assert diag["log_bf"][k] == full[k].log_bf
                assert diag["mc_std_error"][k] == full[k].mc_std_error
                assert diag["newton_iterations"][k] == full[k].newton_iterations

    def test_posterior_matches_full_monte_carlo_oracle(self, screened_fits):
        for _, result, full in screened_fits:
            log_post = np.array([est.log_bf for est in full])
            log_post += model_prior(result.max_order).log_probs
            oracle, inclusion = _normalized_posterior(log_post)
            mass = result.diagnostics["screened_mass"]
            assert 0.0 <= mass <= result.max_order * np.exp(-_SCREEN_NATS)
            assert np.max(np.abs(result.posterior - oracle)) <= mass + 1e-12
            assert result.selected_order == _mpm_order(inclusion)

    def test_screened_mask_invariant_to_label_flip(self, screened_fits):
        rep, result, _ = screened_fits[0]
        x, y_flip = criterion_8_sample(rep, flip=True)
        flipped = fit_binary(x, y_flip, BinaryFitConfig(seed=rep, scale=UNIT))
        assert flipped.diagnostics["screened"] == result.diagnostics["screened"]

    def test_stages_sum_to_the_fit_time(self, screened_fits):
        for _, result, _ in screened_fits:
            stages = result.diagnostics["stages"]
            assert list(stages) == ["design", "laplace", "monte_carlo", "refit"]
            assert all(value >= 0.0 for value in stages.values())
            assert sum(stages.values()) == pytest.approx(result.timing_seconds, abs=1e-9)


def scipy_mode(signs, a, penalty, offset=0.0):
    """Reference maximizer of sum log Phi(s (offset + A theta)) - theta'P theta/2."""

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
        loadings = np.sqrt(2.0 * n / (k + 1.0)) * _orthonormal_columns(design, k)
        joint_penalty = np.eye(k + 1)
        joint_penalty[0, 0] = 0.0
        return {
            "base": (signs, np.ones((n, 1)), np.zeros((1, 1)), 0.0),
            "joint": (signs, np.column_stack([np.ones(n), loadings]), joint_penalty, 0.0),
            "fixed-level": (signs, loadings, np.eye(k), 0.35),
            "refit": (signs, design.values, np.zeros((k + 1, k + 1)), 0.0),
        }

    @pytest.mark.parametrize("role", ["base", "joint", "fixed-level", "refit"])
    def test_mode_matches_scipy_minimize(self, role):
        signs, a, penalty, offset = self.roles()[role]
        mode = _newton_mode(
            signs, a, penalty, np.zeros(a.shape[1]), offset=offset,
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
            signs, design.values, np.zeros((3, 3)), np.zeros(3),
            fit_limit=_SEPARATION_LIMIT,
        )
        assert not mode.converged
        assert np.max(np.abs(design.values @ mode.theta)) > _SEPARATION_LIMIT

    def test_iteration_cap_reports_not_converged(self):
        signs, a, penalty, _ = self.roles()["joint"]
        start = np.zeros(a.shape[1])
        mode = _newton_mode(signs, a, penalty, start, max_iter=1)
        assert mode.iterations == 1
        assert not mode.converged
        full = _newton_mode(signs, a, penalty, start)
        assert full.converged and full.iterations > 1

    def test_failed_line_search_keeps_the_last_iterate(self):
        # A negative penalty makes the curvature negative definite, so the
        # Newton direction points downhill and every halving is rejected.
        signs = np.where(np.arange(40) % 3 == 0, -1.0, 1.0)
        start = np.array([0.25])
        mode = _newton_mode(signs, np.ones((40, 1)), np.array([[-40.0]]), start)
        assert not mode.converged
        assert mode.iterations == 1
        np.testing.assert_array_equal(mode.theta, start)

    def test_level_box_clips_the_level(self):
        # An all-ones response pushes the level to +inf; a step that would
        # leave the box is cut back to its edge.
        signs = np.ones(20)
        start = np.array([_LAMBDA_BOX - 0.1])
        mode = _newton_mode(
            signs, np.ones((20, 1)), np.zeros((1, 1)), start, level_box=_LAMBDA_BOX
        )
        assert mode.theta[0] == _LAMBDA_BOX

    @pytest.mark.parametrize("ridge", [0.0, 0.06])
    def test_legendre_refit_matches_bernstein_mle(self, ridge):
        k = 4
        x, signs, design = probit_sample(120, k, seed=5)
        q = build_transform(k).q
        mode = _newton_mode(
            signs, design.values, ridge * (q.T @ q), np.zeros(k + 1),
            fit_limit=_SEPARATION_LIMIT,
        )
        assert mode.converged
        bern = build_design(x, UNIT, k, "bernstein").values
        ref = scipy_mode(signs, bern, ridge * np.eye(k + 1))
        eta = q @ mode.theta
        assert np.max(np.abs(eta - ref)) <= 1e-7 * max(1.0, np.max(np.abs(ref)))
