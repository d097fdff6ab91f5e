"""Median probability model, loss rule and fit()."""

import json
import os
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from smoothsel.basis import _ORDER_CAP, PredictorScale, build_design, max_order
from smoothsel.binary import BinaryFitConfig, fit_binary
from smoothsel.gprior import ModelPosterior, OmegaPrior, _available_cores, _factorize
from smoothsel.selector import (
    _MIN_SAMPLE,
    FitConfig,
    _bernstein_view,
    _losses,
    fit,
    loss_equivalence_diagnostic,
    median_probability_order,
    predictive_loss,
)
from smoothsel.simulation import Scenario, generate, mean_poly5
from smoothsel.transform import build_transform

UNIT = PredictorScale(0.0, 1.0)


def exact(values):
    return np.array([Fraction(float(v)) for v in values], dtype=object)


def exact_q(order):
    """Legendre-to-Bernstein matrix in rational arithmetic, via the power basis.

    psi_k(u) = sum_i (-1)^(k+i) C(k, i) C(k+i, i) u^i and
    u^i = sum_{j>=i} C(j, i) / C(order, i) b_j(u), an independent route
    from the closed form the library rounds.
    """
    q = np.empty((order + 1, order + 1), dtype=object)
    for j in range(order + 1):
        for k in range(order + 1):
            q[j, k] = sum(
                Fraction((-1) ** (k + i) * comb(k, i) * comb(k + i, i) * comb(j, i),
                         comb(order, i))
                for i in range(min(j, k) + 1)
            )
    return q


def test_available_cores_counts_the_affinity_set(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert _available_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _available_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _available_cores() == 1


class TestBernsteinErrorBound:
    @pytest.mark.parametrize("order", range(1, 21))
    def test_bounds_the_transform_error_exactly(self, order):
        rng = np.random.default_rng(order)
        pair = build_transform(order)
        q = exact_q(order)
        # The library's Q is the exact matrix correctly rounded.
        assert np.all(np.abs(exact(pair.q.ravel()) - q.ravel()) <= np.abs(q.ravel()) / 2**53)
        for _ in range(5):
            lam = rng.standard_normal(order + 1) * 10.0 ** rng.uniform(-3, 3, order + 1)
            eta, bound = _bernstein_view(lam, pair)
            err = np.abs(exact(eta) - q @ exact(lam))
            assert max(err) <= Fraction(bound)


def make_mp(posterior, shrinkage=None):
    """Hand-built ModelPosterior with inclusion curves consistent with
    the given posterior vector (tail sums, shrinkage-weighted tails)."""
    posterior = np.asarray(posterior, dtype=float)
    n_models = posterior.size
    if shrinkage is None:
        shrinkage = np.ones(n_models)
    shrinkage = np.asarray(shrinkage, dtype=float)
    tail = np.cumsum(posterior[::-1])[::-1]
    weighted = np.cumsum((posterior * shrinkage)[::-1])[::-1]
    return ModelPosterior(
        max_order=n_models - 1,
        n=100,
        log_bf=np.zeros(n_models),
        posterior=posterior,
        inclusion=tail[1:].copy(),
        shrinkage=shrinkage,
        shrunken_inclusion=weighted[1:].copy(),
        r2=np.zeros(n_models),
    )


class TestMedianProbabilityOrder:
    def test_hand_example(self):
        mp = make_mp([0.1, 0.6, 0.2, 0.1])
        np.testing.assert_allclose(mp.inclusion, [0.9, 0.3, 0.1])
        assert median_probability_order(mp) == 1

    def test_all_mass_on_base(self):
        mp = make_mp([1.0, 0.0, 0.0, 0.0])
        assert median_probability_order(mp) == 0

    def test_exact_half_is_excluded_by_strict_rule(self):
        mp = make_mp([0.4, 0.1, 0.5])
        np.testing.assert_allclose(mp.inclusion, [0.6, 0.5])
        assert median_probability_order(mp) == 1

    def test_full_model_when_all_degrees_clear(self):
        mp = make_mp([0.0, 0.1, 0.9])
        assert median_probability_order(mp) == 2

    def test_equals_argmin_of_plain_loss(self):
        # With every weight positive, the plain-inclusion loss falls while
        # p_{k+1} > 1/2 and rises after, so its minimizer is the MPM; ties
        # at exactly 1/2 resolve to the smaller order on both sides.
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n_models = int(rng.integers(2, 13))
            raw = rng.dirichlet(np.ones(n_models))
            mp = make_mp(raw, shrinkage=rng.uniform(0.2, 1.0, n_models))
            dj = rng.uniform(0.5, 3.0, n_models - 1)
            lam = rng.normal(0, 1, n_models - 1)
            lam[np.abs(lam) < 1e-3] = 0.5
            losses = [
                predictive_loss(mp, k, dj, lam, shrunken=False)
                for k in range(n_models)
            ]
            assert int(np.argmin(losses)) == median_probability_order(mp), trial


class TestPredictiveLoss:
    def test_point_mass_with_unit_shrinkage_is_zero_at_that_order(self):
        mp = make_mp([0.0, 0.0, 1.0, 0.0])
        dj = np.array([2.0, 1.0, 3.0])
        lam = np.array([1.0, -1.0, 0.5])
        assert predictive_loss(mp, 2, dj, lam) == 0.0
        assert predictive_loss(mp, 0, dj, lam) > 0.0

    def test_zero_signal_gives_zero_loss_everywhere(self):
        mp = make_mp([0.3, 0.5, 0.2], shrinkage=[0.9, 0.7, 0.5])
        dj = np.array([2.0, 1.0])
        lam = np.zeros(2)
        for k in range(3):
            assert predictive_loss(mp, k, dj, lam) == 0.0

    def test_matches_hand_expansion(self):
        post = [0.2, 0.5, 0.3]
        xi = [1.0, 0.8, 0.6]
        mp = make_mp(post, shrinkage=xi)
        dj = np.array([2.0, 0.5])
        lam = np.array([1.5, -1.0])
        # ptilde_1 = 0.5*0.8 + 0.3*0.6, ptilde_2 = 0.3*0.6.
        pt1, pt2 = 0.58, 0.18
        for k, gam in [(0, (0, 0)), (1, (1, 0)), (2, (1, 1))]:
            by_hand = (1.5 * 2.0) ** 2 * (pt1 - xi[k] * gam[0]) ** 2 + (
                -1.0 * 0.5
            ) ** 2 * (pt2 - xi[k] * gam[1]) ** 2
            assert predictive_loss(mp, k, dj, lam) == pytest.approx(
                by_hand, abs=1e-12
            )

    def test_validation(self):
        mp = make_mp([0.5, 0.3, 0.2])
        dj = np.ones(2)
        lam = np.ones(2)
        with pytest.raises(ValueError):
            predictive_loss(mp, 3, dj, lam)
        with pytest.raises(ValueError):
            predictive_loss(mp, 1, np.ones(3), lam)


def loop_losses(mp, dj, lam, shrunken):
    """Reference: predictive_loss order by order."""
    return np.array(
        [predictive_loss(mp, k, dj, lam, shrunken) for k in range(mp.max_order + 1)]
    )


def loop_loss_equivalence(mp, dj, lam):
    """Reference: the sup of |shrunken - plain| over all orders."""
    return max(
        abs(
            predictive_loss(mp, k, dj, lam, shrunken=True)
            - predictive_loss(mp, k, dj, lam, shrunken=False)
        )
        for k in range(mp.max_order + 1)
    )


class TestLossBroadcast:
    def test_identical_to_the_reference_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            xi = rng.uniform(0.2, 1.0, 6)
            post = rng.dirichlet(np.ones(6))
            mp = make_mp(post, shrinkage=xi)
            dj = rng.uniform(0.5, 3.0, 5)
            lam = rng.normal(0.0, 2.0, 5)
            for shrunken in (True, False):
                np.testing.assert_array_equal(
                    _losses(mp, dj, lam, shrunken), loop_losses(mp, dj, lam, shrunken)
                )
            assert loss_equivalence_diagnostic(mp, dj, lam) == loop_loss_equivalence(
                mp, dj, lam
            )

    def test_validation(self):
        mp = make_mp([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            _losses(mp, np.ones(3), np.ones(2), shrunken=True)
        with pytest.raises(ValueError):
            loss_equivalence_diagnostic(mp, np.ones(2), np.ones(1))


class TestLossEquivalenceDiagnostic:
    def test_unit_shrinkage_collapses_to_zero(self):
        mp = make_mp([0.2, 0.5, 0.3])
        dj = np.array([1.0, 2.0])
        lam = np.array([0.7, -0.4])
        assert loss_equivalence_diagnostic(mp, dj, lam) == 0.0

    def test_single_model_space_is_zero(self):
        mp = make_mp([1.0])
        assert loss_equivalence_diagnostic(mp, np.zeros(0), np.zeros(0)) == 0.0

    def test_positive_when_shrinkage_bites(self):
        mp = make_mp([0.2, 0.5, 0.3], shrinkage=[1.0, 0.7, 0.5])
        dj = np.array([1.0, 2.0])
        lam = np.array([0.7, -0.4])
        assert loss_equivalence_diagnostic(mp, dj, lam) > 0.0


class TestFit:
    def smooth_data(self, n=500, seed=314):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, n)
        y = np.sin(2 * np.pi * x) + 0.5 * x + 0.3 * rng.standard_normal(n)
        return x, y

    def test_constant_signal_selects_order_zero(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 100)
        y = 2.5 + 1e-8 * rng.standard_normal(100)
        result = fit(x, y)
        assert result.selected_order == 0
        grid = np.linspace(x.min(), x.max(), 11)
        np.testing.assert_allclose(result.predict(grid), 2.5, atol=1e-6)

    def test_transform_path_bases_agree(self):
        # predict evaluates the Legendre coefficients; the reported
        # Bernstein ordinates describe the same curve to within the fit's
        # own bernstein_error_bound.  The slack is the rounding of the two
        # curve evaluations: 4 (k + 1) eps times each curve's sum of
        # |basis value * coefficient|, which covers the dot product's
        # (k + 1) eps and the basis recurrences' about 3k eps.
        x, y = self.smooth_data()
        result = fit(x, y)
        k = result.selected_order
        assert k <= 10
        grid = np.linspace(x.min(), x.max(), 801)
        bern = build_design(grid, result.scale, k, "bernstein").values
        leg = build_design(grid, result.scale, k, "legendre").values
        gap = np.abs(bern @ result.eta_hat - result.predict(grid))
        slack = 4 * (k + 1) * np.finfo(float).eps * (
            np.abs(bern) @ np.abs(result.eta_hat) + np.abs(leg) @ np.abs(result.lambda_hat)
        )
        assert np.all(gap <= result.diagnostics["bernstein_error_bound"] + slack)

    def test_predict_evaluates_lambda_hat(self):
        x, y = self.smooth_data(n=200, seed=5)
        result = fit(x, y)
        grid = np.linspace(x.min(), x.max(), 301)
        leg = build_design(grid, result.scale, result.selected_order, "legendre")
        np.testing.assert_array_equal(result.predict(grid), leg.values @ result.lambda_hat)

    def test_predict_at_one_point_is_silent(self):
        # Evaluating at fewer points than coefficients is not a fit.
        x, y = self.smooth_data(n=200, seed=5)
        result = fit(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = result.predict([0.5])
        assert value.shape == (1,) and np.isfinite(value[0])

    def test_bernstein_error_bound_reported(self):
        x, y = self.smooth_data(n=200, seed=6)
        result = fit(x, y)
        bound = result.diagnostics["bernstein_error_bound"]
        pair = build_transform(result.selected_order)
        eta, expected = _bernstein_view(result.lambda_hat, pair)
        assert bound == expected
        np.testing.assert_array_equal(result.eta_hat, eta)
        gap = np.abs(np.array(exact_q(result.selected_order) @ exact(result.lambda_hat))
                     - exact(result.eta_hat))
        assert max(gap) <= Fraction(bound)
        assert json.loads(result.to_json())["diagnostics"]["bernstein_error_bound"] == bound

    def test_discrete_predictor_caps_the_order(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 10, 500) / 9.0
        y = np.sin(2 * np.pi * x) + 0.3 * rng.standard_normal(500)
        with pytest.warns(RuntimeWarning, match="10 distinct predictor values"):
            result = fit(x, y)
        assert result.max_order == 9
        assert 1 <= result.selected_order <= 9
        assert np.all(np.isfinite(result.posterior))

    def test_continuous_predictor_raises_no_cap_warning(self):
        x, y = self.smooth_data(n=100, seed=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit(x, y)
        assert result.max_order == 21

    def test_losses_identical_to_the_reference_loop(self):
        x, y = self.smooth_data(n=300, seed=8)
        result = fit(x, y, FitConfig(rule="loss"))
        diag = result.diagnostics
        mp = ModelPosterior(
            max_order=result.max_order,
            n=x.size,
            log_bf=diag["log_bf"],
            posterior=result.posterior,
            inclusion=diag["inclusion"],
            shrinkage=result.shrinkage,
            shrunken_inclusion=diag["shrunken_inclusion"],
            r2=diag["r2"],
        )
        # d_j, the column sums of squares, from the fit's own factorization.
        columns = build_design(x, result.scale, result.max_order, "legendre").values[:, 1:]
        dj = _factorize(y, columns).col_ss
        lam = diag["lambda_full"]
        np.testing.assert_array_equal(diag["loss"], loop_losses(mp, dj, lam, True))
        assert diag["loss_equivalence"] == loop_loss_equivalence(mp, dj / x.size, lam)
        assert result.selected_order == int(np.argmin(diag["loss"]))

    @pytest.mark.parametrize("n", [60, 500])
    def test_coefficients_match_least_squares_oracle(self, n):
        x, y = self.smooth_data(n=n, seed=n)
        result = fit(x, y)
        k = result.selected_order
        design = build_design(x, result.scale, result.max_order, "legendre").values
        xc = design[:, 1:] - design[:, 1:].mean(axis=0)
        yc = y - y.mean()
        full, *_ = np.linalg.lstsq(xc, yc, rcond=None)
        sub, *_ = np.linalg.lstsq(xc[:, :k], yc, rcond=None)
        got_full = result.diagnostics["lambda_full"]
        got_sub = result.lambda_hat[1:] / result.shrinkage[k]
        assert np.linalg.norm(got_full - full) <= 1e-12 * np.linalg.norm(full)
        assert np.linalg.norm(got_sub - sub) <= 1e-12 * np.linalg.norm(sub)

    def test_selected_order_invariant_to_response_scaling(self):
        x, y = self.smooth_data()
        for rule in ("mpm", "loss"):
            config = FitConfig(rule=rule)
            order = fit(x, y, config).selected_order
            for factor in (10.0, 1e-200, 1e200):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    result = fit(x, factor * y, config)
                assert result.selected_order == order, (rule, factor)

    def test_loss_rule_agrees_on_strong_signal(self):
        x, y = self.smooth_data()
        assert fit(x, y).selected_order == fit(
            x, y, FitConfig(rule="loss")
        ).selected_order

    def test_deterministic(self):
        x, y = self.smooth_data(n=200, seed=9)
        a = fit(x, y)
        b = fit(x, y)
        assert a.selected_order == b.selected_order
        np.testing.assert_array_equal(a.posterior, b.posterior)
        np.testing.assert_array_equal(a.eta_hat, b.eta_hat)

    @pytest.mark.parametrize("n", [200, 500, 5000])
    def test_high_snr_fits_select_the_signal(self, n):
        # Near 1 - r2 ~ 1e-16 the Bayes factor integrands peak in a window of
        # width 1/sqrt(n) far out in log omega; every such fit must succeed.
        for fn in ("poly5", "pwlinear"):
            for snr in (1e3, 1e4, 1e6, 1e8):
                x, y = generate(Scenario(fn, n, snr, 1, 0), 0)
                for name in ("intrinsic", "zellner-siow", "hyper-g"):
                    for rule in ("mpm", "loss"):
                        config = FitConfig(omega_prior=OmegaPrior.from_name(name), rule=rule)
                        order = fit(x, y, config).selected_order
                        if fn == "poly5" and snr >= 1e4:
                            assert order == 5, (snr, name, rule)

    def test_near_noiseless_data_select_the_signal(self):
        # r2 = 1 - 1.3e-13 at order 34: a fit that does not interpolate the
        # data, so its Bayes factor exists and the degree-5 signal is found.
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 200)
        y = mean_poly5(x) + 1e-6 * rng.standard_normal(200)
        for name in ("intrinsic", "zellner-siow", "hyper-g"):
            config = FitConfig(omega_prior=OmegaPrior.from_name(name))
            assert fit(x, y, config).selected_order == 5

    def test_max_order_respects_cap_and_sample_size(self):
        x, y = self.smooth_data(n=40, seed=5)
        result = fit(x, y, FitConfig(cap=8))
        assert result.max_order == 8
        assert result.posterior.size == 9
        tiny = fit(x[:8], y[:8])
        assert tiny.max_order <= 5

    def test_order_bound_leaves_two_residual_degrees_of_freedom(self):
        # The Bayes factors need n > k + 2; floor(n^(2/3)) <= n - 3 from the
        # smallest sample a fit takes on, whatever the cap.
        ns = np.arange(_MIN_SAMPLE, 10**5 + 1)
        for cap in (1, 8, _ORDER_CAP, 10**6):
            bounds = np.array([max_order(int(n), cap) for n in ns])
            assert np.all(bounds <= ns - 3), cap

    @pytest.mark.parametrize("n, order", [(5, 2), (6, 3)])
    def test_smallest_samples_fit_every_order(self, n, order):
        x = np.linspace(0.0, 1.0, n)
        y = np.random.default_rng(n).standard_normal(n)
        for name in ("intrinsic", "zellner-siow", "hyper-g"):
            for rule in ("mpm", "loss"):
                config = FitConfig(omega_prior=OmegaPrior.from_name(name), rule=rule)
                result = fit(x, y, config)
                assert result.max_order == order
                diag = result.diagnostics
                for key in ("log_bf", "loss", "quadrature_centre", "quadrature_scale"):
                    assert np.all(np.isfinite(diag[key])), (name, rule, key)

    def test_input_validation(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(10)
        with pytest.raises(ValueError):
            fit(np.full(10, 0.5), y)
        with pytest.raises(ValueError):
            fit(np.arange(4.0), np.arange(4.0))
        with pytest.raises(ValueError):
            fit(np.arange(10.0), y[:9])
        bad = np.arange(10.0)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            fit(bad, y)

    def test_diagnostics_contents(self):
        x, y = self.smooth_data(n=150, seed=77)
        result = fit(x, y)
        diag = result.diagnostics
        n_models = result.max_order + 1
        assert diag["log_bf"].shape == (n_models,)
        assert diag["loss"].shape == (n_models,)
        assert diag["r2"].shape == (n_models,)
        assert diag["lambda_full"].shape == (result.max_order,)
        assert diag["loss_equivalence"] >= 0.0
        assert diag["ybar"] == pytest.approx(float(y.mean()))
        assert result.posterior.sum() == pytest.approx(1.0, abs=1e-10)
        assert result.timing_seconds > 0.0
        assert result.link == "identity"

    def test_stages_sum_to_the_fit_time(self):
        x, y = self.smooth_data(n=150, seed=77)
        result = fit(x, y)
        stages = result.diagnostics["stages"]
        assert list(stages) == [
            "design", "factorization", "quadrature", "selection", "coefficients"
        ]
        assert all(value >= 0.0 for value in stages.values())
        assert sum(stages.values()) == pytest.approx(result.timing_seconds, abs=1e-9)
        assert json.loads(result.to_json())["diagnostics"]["stages"] == stages

    def test_quadrature_centre_and_scale_are_reported(self):
        x, y = self.smooth_data(n=150, seed=78)
        result = fit(x, y, FitConfig(omega_prior=OmegaPrior.zellner_siow()))
        payload = json.loads(result.to_json())["diagnostics"]
        for key in ("quadrature_centre", "quadrature_scale"):
            values = result.diagnostics[key]
            assert values.shape == (result.max_order + 1,)
            assert np.all(np.isfinite(values)), key
            assert payload[key] == values.tolist()
        scale = result.diagnostics["quadrature_scale"]
        assert np.all((scale >= 1e-3) & (scale <= 2.0))

    def test_serialization_round_trip(self):
        x, y = self.smooth_data(n=120, seed=21)
        result = fit(x, y)
        payload = json.loads(result.to_json())
        for key in (
            "selected_order",
            "posterior",
            "lambda",
            "eta",
            "shrinkage",
            "timing_seconds",
            "rule",
            "omega_prior",
        ):
            assert key in payload, key
        assert payload["selected_order"] == result.selected_order
        assert payload["omega_prior"]["kind"] == "intrinsic"
        assert len(payload["posterior"]) == result.max_order + 1
        assert len(payload["eta"]) == result.selected_order + 1
        np.testing.assert_allclose(
            payload["lambda"], result.lambda_hat, atol=1e-15
        )

    def test_save_writes_json_file(self, tmp_path):
        x, y = self.smooth_data(n=80, seed=4)
        result = fit(x, y)
        out = tmp_path / "fit.json"
        result.save(str(out))
        payload = json.loads(out.read_text())
        assert payload["rule"] == "mpm"


@pytest.mark.parametrize("scale", [None, UNIT])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "fit_fn, config", [(fit, FitConfig), (fit_binary, BinaryFitConfig)]
)
def test_nonfinite_predictor_rejected_alike(fit_fn, config, bad, scale):
    # fit and fit_binary share their input checks: the same message whether
    # or not the scale is given.
    x = np.linspace(0.0, 1.0, 40)
    y = (x > 0.5).astype(float)
    x[3] = bad
    with pytest.raises(ValueError, match="^x and y must be finite$"):
        fit_fn(x, y, config(scale=scale))
