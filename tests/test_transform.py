import numpy as np
import pytest

from smoothsel.basis import BERNSTEIN, LEGENDRE, PredictorScale, build_design
from smoothsel.transform import build_transform, legendre_to_bernstein

UNIT = PredictorScale(0.0, 1.0)


class TestBuildTransform:
    def test_order_zero_is_identity(self):
        pair = build_transform(0)
        np.testing.assert_array_equal(pair.q, [[1.0]])
        np.testing.assert_array_equal(pair.q_inv, [[1.0]])

    def test_order_one_closed_form(self):
        pair = build_transform(1)
        np.testing.assert_allclose(pair.q, [[1.0, -1.0], [1.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(pair.q_inv, [[0.5, 0.5], [-0.5, 0.5]], atol=1e-15)
        np.testing.assert_allclose(pair.q @ pair.q_inv, np.eye(2), atol=1e-15)

    def test_round_trip_error_small_at_order_ten(self):
        assert build_transform(10).round_trip_error < 1e-8

    def test_identity_through_order_twenty(self):
        for order in range(21):
            pair = build_transform(order)
            gap = np.max(np.abs(pair.q @ pair.q_inv - np.eye(order + 1)))
            assert gap < 1e-8, f"order {order}: identity gap {gap:.3e}"

    def test_first_column_is_all_ones(self):
        # The constant function has equal ordinates in both bases.
        for order in (1, 5, 12, 20):
            np.testing.assert_allclose(build_transform(order).q[:, 0], 1.0, atol=1e-14)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            build_transform(-1)
        with pytest.raises(ValueError):
            build_transform(61)


class TestCoefficientMaps:
    def test_constant_maps_to_equal_ordinates(self):
        pair = build_transform(6)
        lam = np.zeros(7)
        lam[0] = 2.5
        np.testing.assert_allclose(legendre_to_bernstein(lam, pair), 2.5, atol=1e-13)
        np.testing.assert_allclose(pair.q_inv @ np.full(7, 2.5), lam, atol=1e-13)

    def test_order_one_slope_vector(self):
        pair = build_transform(1)
        np.testing.assert_allclose(
            legendre_to_bernstein(np.array([0.0, 1.0]), pair), [-1.0, 1.0], atol=1e-15
        )
        np.testing.assert_allclose(
            pair.q_inv @ np.array([-1.0, 1.0]), [0.0, 1.0], atol=1e-15
        )

    def test_curves_agree_in_both_bases(self):
        # Evaluating Q lambda in the Bernstein basis must reproduce the
        # Legendre-basis curve pointwise.
        rng = np.random.default_rng(21)
        lam = rng.uniform(-1, 1, 9)
        pair = build_transform(8)
        grid = np.linspace(0, 1, 200)
        leg = build_design(grid, UNIT, 8, LEGENDRE).values @ lam
        bern = build_design(grid, UNIT, 8, BERNSTEIN).values @ legendre_to_bernstein(
            lam, pair
        )
        np.testing.assert_allclose(bern, leg, atol=1e-9)

    def test_round_trip_through_order_fifteen(self):
        rng = np.random.default_rng(3)
        for order in range(16):
            pair = build_transform(order)
            lam = rng.uniform(-1, 1, order + 1)
            back = pair.q_inv @ legendre_to_bernstein(lam, pair)
            np.testing.assert_allclose(back, lam, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        pair = build_transform(3)
        with pytest.raises(ValueError):
            legendre_to_bernstein(np.zeros(3), pair)
        with pytest.raises(ValueError):
            legendre_to_bernstein(np.zeros(5), pair)
