"""Median probability model, averaged predictor, loss rule and fit()."""

import json
import warnings
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from smoothsel.basis import PredictorScale, build_design
from smoothsel.gprior import ModelPosterior
from smoothsel.selector import (
    FitConfig,
    _bernstein_view,
    _losses,
    fit,
    bma_predictor,
    loss_equivalence_diagnostic,
    median_probability_order,
    predictive_loss,
)
from smoothsel.transform import build_transform, condition_diagnostic

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


def make_mp(posterior, shrinkage=None, excluded=()):
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
        excluded=tuple(excluded),
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


class TestBmaPredictor:
    def test_all_mass_on_base_is_flat(self):
        mp = make_mp([1.0, 0.0, 0.0])
        u = np.linspace(0, 1, 50)
        curve = bma_predictor(mp, 2.5, np.array([4.0, -1.0]), u)
        np.testing.assert_allclose(curve, np.full(50, 2.5), atol=1e-14)

    def test_point_mass_with_unit_shrinkage_is_exact_model_fit(self):
        mp = make_mp([0.0, 1.0, 0.0])
        lam = np.array([1.5, -2.0])
        u = np.linspace(0, 1, 31)
        curve = bma_predictor(mp, 0.5, lam, u)
        psi = build_design(u, UNIT, 2, "legendre").values
        np.testing.assert_allclose(curve, 0.5 + 1.5 * psi[:, 1], atol=1e-14)

    def test_matches_direct_model_sum(self):
        # Oracle: average the per-model shrunken curves explicitly.
        post = np.array([0.2, 0.5, 0.3])
        xi = np.array([0.9, 0.8, 0.6])
        lam = np.array([1.0, -0.7])
        lam0 = 0.3
        mp = make_mp(post, shrinkage=xi)
        u = np.linspace(0, 1, 64)
        psi = build_design(u, UNIT, 2, "legendre").values
        expected = np.zeros_like(u)
        for k, (p, s) in enumerate(zip(post, xi)):
            curve_k = lam0 + s * (psi[:, 1 : k + 1] @ lam[:k])
            expected += p * curve_k
        got = bma_predictor(mp, lam0, lam, u)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_coefficient_length_checked(self):
        mp = make_mp([0.5, 0.5])
        with pytest.raises(ValueError):
            bma_predictor(mp, 0.0, np.zeros(3), np.linspace(0, 1, 5))


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
        mp = make_mp([0.5, 0.3, 0.2], excluded=(2,))
        dj = np.ones(2)
        lam = np.ones(2)
        with pytest.raises(ValueError):
            predictive_loss(mp, 3, dj, lam)
        with pytest.raises(ValueError):
            predictive_loss(mp, 2, dj, lam)
        with pytest.raises(ValueError):
            predictive_loss(mp, 1, np.ones(3), lam)


def loop_losses(mp, dj, lam, shrunken):
    """Reference: predictive_loss order by order, NaN at excluded orders."""
    return np.array(
        [
            np.nan if k in mp.excluded else predictive_loss(mp, k, dj, lam, shrunken)
            for k in range(mp.max_order + 1)
        ]
    )


def loop_loss_equivalence(mp, dj, lam):
    """Reference: the sup of |shrunken - plain| over included orders."""
    return max(
        abs(
            predictive_loss(mp, k, dj, lam, shrunken=True)
            - predictive_loss(mp, k, dj, lam, shrunken=False)
        )
        for k in range(mp.max_order + 1)
        if k not in mp.excluded
    )


class TestLossBroadcast:
    @pytest.mark.parametrize("excluded", [(), (5,), (4, 5)])
    def test_identical_to_the_reference_loop(self, excluded):
        rng = np.random.default_rng(31)
        for _ in range(20):
            xi = rng.uniform(0.2, 1.0, 6)
            xi[list(excluded)] = np.nan
            post = rng.dirichlet(np.ones(6))
            post[list(excluded)] = 0.0
            mp = make_mp(post, shrinkage=np.nan_to_num(xi), excluded=excluded)
            mp = replace(mp, shrinkage=xi)
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
        # Bernstein ordinates describe the same curve, and the allowed
        # drift is the round-trip conditioning of the coefficient map.
        x, y = self.smooth_data()
        result = fit(x, y)
        assert result.selected_order <= 10
        grid = np.linspace(x.min(), x.max(), 801)
        bern = build_design(grid, result.scale, result.selected_order, "bernstein")
        bernstein_curve = bern.values @ result.eta_hat
        cond = condition_diagnostic(build_transform(result.selected_order))
        gap = np.max(np.abs(bernstein_curve - result.predict(grid)))
        assert gap <= 1e-6 * cond

    def test_predict_evaluates_lambda_hat(self):
        x, y = self.smooth_data(n=200, seed=5)
        result = fit(x, y)
        grid = np.linspace(x.min(), x.max(), 301)
        leg = build_design(grid, result.scale, result.selected_order, "legendre")
        np.testing.assert_array_equal(result.predict(grid), leg.values @ result.lambda_hat)

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
            excluded=tuple(diag["excluded"]),
        )
        columns = build_design(x, result.scale, result.max_order, "legendre").values[:, 1:]
        dj = np.einsum("ij,ij->j", columns, columns)
        lam = diag["lambda_full"]
        np.testing.assert_array_equal(diag["loss"], loop_losses(mp, dj, lam, True))
        assert diag["loss_equivalence"] == loop_loss_equivalence(mp, dj / x.size, lam)
        assert result.selected_order == int(np.nanargmin(diag["loss"]))

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

    def test_max_order_respects_cap_and_sample_size(self):
        x, y = self.smooth_data(n=40, seed=5)
        result = fit(x, y, FitConfig(cap=8))
        assert result.max_order == 8
        assert result.posterior.size == 9
        tiny = fit(x[:8], y[:8])
        assert tiny.max_order <= 5

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
        assert diag["excluded"] == []
        assert diag["loss_equivalence"] >= 0.0
        assert diag["ybar"] == pytest.approx(float(y.mean()))
        assert result.posterior.sum() == pytest.approx(1.0, abs=1e-10)
        assert result.timing_seconds > 0.0
        assert result.link == "identity"

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
