"""Cross-validation baseline: honest per-fold refits, seeded folds."""

import warnings

import numpy as np
import pytest

from smoothsel.basis import PredictorScale, build_design
from smoothsel.cv import cv_select


class TestCvSelect:
    def test_noise_free_constant_selects_zero(self):
        x = np.linspace(0, 1, 40)
        result = cv_select(x, np.full(40, 3.3), 6, seed=0)
        assert result.selected_order == 0
        assert result.cv_mse[0] == 0.0
        assert result.cv_mse.shape == (7,)

    def test_noise_free_quadratic_curve_recovered(self):
        # Exact order-2 Bernstein signal: held-out error is large through
        # order 1 and collapses to rounding noise from order 2 on.  Which
        # of the numerically-zero scores is smallest is roundoff, so the
        # selection itself is pinned to this seed.
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, 100)
        scale = PredictorScale(float(x.min()), float(x.max()))
        eta = np.array([0.5, 2.0, -1.0])
        y = build_design(x, scale, 2, "bernstein").values @ eta
        result = cv_select(x, y, 8, seed=0)
        assert result.selected_order == 2
        assert np.all(result.cv_mse[:2] > 1e-3)
        assert np.all(result.cv_mse[2:] < 1e-20)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 60)
        y = np.sin(3 * x) + 0.2 * rng.standard_normal(60)
        a = cv_select(x, y, 7, seed=42)
        b = cv_select(x, y, 7, seed=42)
        assert a.selected_order == b.selected_order
        np.testing.assert_array_equal(a.cv_mse, b.cv_mse)
        np.testing.assert_array_equal(a.fold_assignment, b.fold_assignment)
        assert (a.folds, a.seed) == (5, 42)

    def test_fold_sizes_differ_by_at_most_one(self):
        x = np.linspace(0, 1, 23)
        result = cv_select(x, np.sin(x), 3, folds=5, seed=9)
        counts = np.bincount(result.fold_assignment, minlength=5)
        assert counts.sum() == 23
        assert counts.max() - counts.min() <= 1

    def test_scores_do_not_depend_on_candidate_range(self):
        # Scoring order k only needs the shared fold split, so a longer
        # candidate list must reproduce the shorter one's scores exactly.
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, 100)
        y = np.cos(4 * x) + 0.1 * rng.standard_normal(100)
        short = cv_select(x, y, 3, seed=4)
        long = cv_select(x, y, 6, seed=4)
        np.testing.assert_array_equal(short.cv_mse, long.cv_mse[:4])
        np.testing.assert_array_equal(short.fold_assignment, long.fold_assignment)

    def test_singular_training_design_scored_infinite(self):
        # n=12 across 5 folds leaves at most 10 training rows, so order 9
        # (10 coefficients) cannot be identified in the short folds.
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 12)
        y = rng.standard_normal(12)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = cv_select(x, y, 9, seed=1)
        assert result.cv_mse[9] == np.inf
        assert result.selected_order < 9
        messages = [str(w.message) for w in record]
        assert any("singular training design" in m for m in messages)

    def test_different_seeds_may_change_folds_but_not_shape(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 50)
        y = x**2 + 0.1 * rng.standard_normal(50)
        a = cv_select(x, y, 5, seed=0)
        b = cv_select(x, y, 5, seed=1)
        assert not np.array_equal(a.fold_assignment, b.fold_assignment)
        assert a.cv_mse.shape == b.cv_mse.shape

    def test_wall_clock_recorded(self):
        x = np.linspace(0, 1, 30)
        result = cv_select(x, np.sin(x), 4, seed=0)
        assert result.wall_clock > 0.0

    def test_input_validation(self):
        x = np.linspace(0, 1, 20)
        y = np.sin(x)
        with pytest.raises(ValueError):
            cv_select(x, y[:19], 3)
        with pytest.raises(ValueError):
            cv_select(x, y, 3, folds=1)
        with pytest.raises(ValueError):
            cv_select(x[:9], y[:9], 3, folds=5)
        with pytest.raises(ValueError):
            cv_select(x, y, -1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        # A NaN response used to give an all-NaN cv_mse and order 0.
        x = np.linspace(0, 1, 20)
        for column in (0, 1):
            data = [x.copy(), np.sin(x)]
            data[column][3] = bad
            with pytest.raises(ValueError, match="x and y must be finite"):
                cv_select(*data, 3)
