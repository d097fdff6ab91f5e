"""Experiment grid: SNR calibration, data generation, sup-norm, CSV runs."""

import csv
import io

import numpy as np
import pytest

from smoothsel.basis import PredictorScale
from smoothsel.selector import FitConfig, fit
from smoothsel.simulation import (
    Scenario,
    full_order_curve,
    generate,
    mean_poly5,
    mean_pwlinear,
    run_grid,
    sigma_from_snr,
    sup_norm,
)

FULL_HEADER = (
    "rep,n,snr,fn,order_bayes,order_cv,supnorm_bayes,supnorm_cv,"
    "supnorm_full,time_bayes,time_cv"
)


class TestMeanFunctions:
    def test_poly5_roots(self):
        # 5x(5x-0.2)(0.4x-1.8)(3x-1.8)(2x-1.8) vanishes at its five roots.
        roots = np.array([0.0, 0.04, 0.6, 0.9, 4.5])
        inside = roots[roots <= 1.0]
        np.testing.assert_allclose(mean_poly5(inside), 0.0, atol=1e-12)
        assert abs(mean_poly5(np.array([0.5]))[0]) > 0.1

    def test_pwlinear_pieces(self):
        x = np.array([-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
        expected = np.array([-3.0, -2.0, -1.0, -1.0, -1.0, -1.0, 0.0, 1.0])
        np.testing.assert_allclose(mean_pwlinear(x), expected, atol=1e-12)


class TestScenario:
    def test_named_signals_fix_their_domains(self):
        assert Scenario("poly5", 100, 2.0, 1, 0).domain == (0.0, 1.0)
        assert Scenario("pwlinear", 100, 2.0, 1, 0).domain == (-3.0, 3.0)
        with pytest.raises(ValueError):
            Scenario("poly5", 100, 2.0, 1, 0, domain=(0.0, 2.0))

    def test_custom_needs_mean_and_domain(self):
        ok = Scenario(
            "custom", 50, 1.0, 1, 0, domain=(0.0, 2.0), mean=lambda x: x
        )
        assert ok.mu is not None
        with pytest.raises(ValueError):
            Scenario("custom", 50, 1.0, 1, 0, domain=(0.0, 2.0))
        with pytest.raises(ValueError):
            Scenario("custom", 50, 1.0, 1, 0, mean=lambda x: x)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario("spline", 100, 2.0, 1, 0)
        with pytest.raises(ValueError):
            Scenario("poly5", 3, 2.0, 1, 0)
        with pytest.raises(ValueError):
            Scenario("poly5", 4, 2.0, 1, 0)
        with pytest.raises(ValueError):
            Scenario("poly5", 100, 0.0, 1, 0)
        with pytest.raises(ValueError):
            Scenario("poly5", 100, 2.0, 0, 0)
        with pytest.raises(ValueError):
            Scenario("poly5", 100, 2.0, 1, -1)


class TestSigmaFromSnr:
    def test_constant_signal(self):
        sigma = sigma_from_snr(lambda x: np.ones_like(x), (0.0, 1.0), 2.0)
        assert sigma == pytest.approx(0.5, abs=1e-12)

    def test_linear_signal(self):
        sigma = sigma_from_snr(lambda x: 2.0 * x, (0.0, 1.0), 1.0)
        assert sigma == pytest.approx(1.0, abs=1e-10)

    def test_pwlinear_closed_form_matches_riemann_oracle(self):
        # Piecewise integral: |x| over [-3,-1], 1 over [-1,1], |x-2| over
        # [1,3] sum to 7, so the mean absolute signal is 7/6.
        step = 6.0 / 10**6
        grid = np.linspace(-3.0, 3.0, 10**6, endpoint=False) + step / 2
        riemann = float(np.abs(mean_pwlinear(grid)).mean())
        closed = sigma_from_snr("pwlinear", (-3.0, 3.0), 1.0)
        assert closed == pytest.approx(7.0 / 6.0, abs=1e-12)
        assert abs(closed - riemann) <= 1e-6 * riemann
        assert sigma_from_snr("pwlinear", (-3.0, 3.0), 2.0) == pytest.approx(
            closed / 2.0, abs=1e-12
        )

    def test_poly5_quadrature_matches_riemann_oracle(self):
        step = 1.0 / 10**6
        grid = np.linspace(0.0, 1.0, 10**6, endpoint=False) + step / 2
        riemann = float(np.abs(mean_poly5(grid)).mean())
        quadrature = sigma_from_snr("poly5", (0.0, 1.0), 1.0)
        assert abs(quadrature - riemann) <= 1e-6 * riemann

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            sigma_from_snr(lambda x: np.zeros_like(x), (0.0, 1.0), 1.0)

    def test_infinite_snr_is_noiseless(self):
        assert sigma_from_snr("poly5", (0.0, 1.0), np.inf) == 0.0

    def test_pwlinear_off_its_fixed_domain(self):
        # On (0, 1) the signal is the constant -1, so its mean |mu| is 1.
        assert sigma_from_snr("pwlinear", (0.0, 1.0), 2.0) == 0.5


class TestGenerate:
    def test_noiseless_when_snr_infinite(self):
        scenario = Scenario("poly5", 200, np.inf, 1, 3)
        x, y = generate(scenario, 0)
        np.testing.assert_array_equal(y, mean_poly5(x))
        assert np.all((x >= 0.0) & (x <= 1.0))

    def test_deterministic_per_rep(self):
        scenario = Scenario("pwlinear", 100, 2.0, 3, 11)
        x1, y1 = generate(scenario, 2)
        x2, y2 = generate(scenario, 2)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        x3, _ = generate(scenario, 1)
        assert not np.array_equal(x1, x3)

    def test_noise_variance_calibrated(self):
        scenario = Scenario("pwlinear", 10**5, 2.0, 1, 0)
        x, y = generate(scenario, 0)
        sigma = sigma_from_snr("pwlinear", scenario.domain, 2.0)
        ratio = float(np.var(y - mean_pwlinear(x)) / sigma**2)
        assert abs(ratio - 1.0) < 0.02

    def test_rep_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            generate(Scenario("poly5", 50, 1.0, 1, 0), -1)


class TestSupNorm:
    def test_identical_curves(self):
        assert sup_norm(mean_poly5, "poly5", (0.0, 1.0)) == 0.0

    def test_constant_offset(self):
        shifted = lambda g: mean_pwlinear(g) + 0.3
        got = sup_norm(shifted, "pwlinear", (-3.0, 3.0))
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown mean_fn tag"):
            sup_norm(mean_poly5, "poly7", (0.0, 1.0))

    def test_full_order_fit_overfits_on_seeded_data(self):
        scenario = Scenario("pwlinear", 500, 2.0, 1, 42)
        x, y = generate(scenario, 0)
        result = fit(x, y, FitConfig(scale=PredictorScale(-3.0, 3.0)))
        bayes = sup_norm(result.predict, "pwlinear", scenario.domain)
        full = sup_norm(
            lambda g: full_order_curve(result, g), "pwlinear", scenario.domain
        )
        assert full > bayes


class TestRunGrid:
    def small_grid(self):
        return [
            Scenario("poly5", 60, 2.0, 3, 5),
            Scenario("pwlinear", 60, 1.0, 3, 6),
        ]

    def test_record_count_and_header(self, tmp_path):
        out = tmp_path / "grid.csv"
        records = run_grid(self.small_grid(), str(out))
        assert len(records) == 6
        lines = out.read_text().strip().splitlines()
        assert lines[0] == FULL_HEADER
        assert len(lines) == 7
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        for row in rows:
            assert float(row["supnorm_bayes"]) >= 0.0
            assert float(row["supnorm_full"]) >= 0.0
            assert float(row["time_cv"]) > 0.0
            assert int(row["order_bayes"]) >= 0

    def test_reproducible_bytes_without_timing(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_grid(self.small_grid(), str(first), include_timing=False)
        run_grid(self.small_grid(), str(second), include_timing=False)
        assert first.read_bytes() == second.read_bytes()

    def test_threads_do_not_change_results(self, tmp_path):
        one = tmp_path / "one.csv"
        four = tmp_path / "four.csv"
        run_grid(self.small_grid(), str(one), include_timing=False, threads=1)
        run_grid(self.small_grid(), str(four), include_timing=False, threads=4)
        assert one.read_bytes() == four.read_bytes()

    def test_bayes_only_drops_cv_columns(self, tmp_path):
        out = tmp_path / "bayes.csv"
        records = run_grid(self.small_grid(), str(out), methods=("bayes",))
        header = out.read_text().splitlines()[0]
        assert header == "rep,n,snr,fn,order_bayes,supnorm_bayes,supnorm_full,time_bayes"
        assert all(r.order_cv is None for r in records)

    def test_no_timing_drops_time_columns(self, tmp_path):
        out = tmp_path / "nt.csv"
        run_grid(self.small_grid(), str(out), include_timing=False)
        header = out.read_text().splitlines()[0]
        assert header == (
            "rep,n,snr,fn,order_bayes,order_cv,supnorm_bayes,supnorm_cv,supnorm_full"
        )

    def test_methods_validated(self, tmp_path):
        with pytest.raises(ValueError):
            run_grid(self.small_grid(), str(tmp_path / "x.csv"), methods=("cv",))
        with pytest.raises(ValueError):
            run_grid(
                self.small_grid(), str(tmp_path / "y.csv"), methods=("bayes", "mcmc")
            )

    def test_selected_order_grows_with_sample_size(self):
        # The piecewise-linear signal is not polynomial, so more data
        # should push the selected order upward.
        medians = []
        for n in (100, 300, 800):
            orders = []
            scenario = Scenario("pwlinear", n, 2.0, 10, 7)
            for rep in range(10):
                x, y = generate(scenario, rep)
                result = fit(x, y, FitConfig(scale=PredictorScale(-3.0, 3.0)))
                orders.append(result.selected_order)
            medians.append(float(np.median(orders)))
        assert medians == sorted(medians)
        assert medians[-1] > medians[0]
