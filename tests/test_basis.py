import math

import numpy as np
import pytest

from smoothsel.basis import (
    BERNSTEIN,
    LEGENDRE,
    DesignMatrix,
    PredictorScale,
    build_design,
    max_order,
)

UNIT = PredictorScale(0.0, 1.0)


def bernstein_row(u, order):
    """The order-``order`` Bernstein design at the single point u."""
    return build_design(np.array([u]), UNIT, order, BERNSTEIN).values[0]


def legendre_row(u, order):
    """The order-``order`` Legendre design at the single point u."""
    return build_design(np.array([u]), UNIT, order, LEGENDRE).values[0]


class TestPredictorScale:
    def test_round_trip(self):
        scale = PredictorScale(-3.0, 3.0)
        x = np.array([-3.0, -1.5, 0.0, 2.4, 3.0])
        np.testing.assert_allclose(scale.from_unit(scale.to_unit(x)), x, atol=1e-14)

    def test_endpoints_map_to_unit(self):
        scale = PredictorScale(2.0, 10.0)
        np.testing.assert_allclose(scale.to_unit(np.array([2.0, 10.0])), [0.0, 1.0])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            PredictorScale(1.0, 1.0)
        with pytest.raises(ValueError):
            PredictorScale(2.0, -2.0)
        with pytest.raises(ValueError):
            PredictorScale(0.0, np.inf)


class TestBernsteinRow:
    def test_left_endpoint_degenerates(self):
        np.testing.assert_array_equal(bernstein_row(0.0, 3), [1.0, 0.0, 0.0, 0.0])

    def test_midpoint_order_two(self):
        np.testing.assert_allclose(bernstein_row(0.5, 2), [0.25, 0.5, 0.25], atol=1e-15)

    def test_matches_direct_binomial_formula(self):
        # Direct-formula oracle with exact binomial coefficients.
        u = 0.3
        row = bernstein_row(u, 10)
        direct = np.array(
            [math.comb(10, k) * u**k * (1 - u) ** (10 - k) for k in range(11)]
        )
        np.testing.assert_allclose(row, direct, atol=1e-12)
        assert abs(row.sum() - 1.0) < 1e-12

    def test_partition_of_unity_across_orders(self):
        rng = np.random.default_rng(11)
        for order in (0, 1, 5, 17, 50):
            u = rng.uniform(0, 1, 40)
            rows = build_design(u, UNIT, order, BERNSTEIN).values
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(rows >= -1e-13)

    def test_slightly_outside_clamped_but_far_rejected(self):
        bernstein_row(-1e-13, 3)
        bernstein_row(1.0 + 1e-13, 3)
        with pytest.raises(ValueError):
            bernstein_row(-0.01, 3)
        with pytest.raises(ValueError):
            bernstein_row(1.2, 3)


class TestLegendreRow:
    def test_all_ones_at_right_endpoint(self):
        np.testing.assert_allclose(legendre_row(1.0, 4), np.ones(5), atol=1e-14)

    def test_alternating_signs_at_left_endpoint(self):
        np.testing.assert_allclose(legendre_row(0.0, 3), [1, -1, 1, -1], atol=1e-14)

    def test_midpoint_order_two(self):
        # psi_2(u) = 6u^2 - 6u + 1 by one recurrence step.
        np.testing.assert_allclose(legendre_row(0.5, 2), [1.0, 0.0, -0.5], atol=1e-15)

    def test_degree_three_closed_form(self):
        # psi_3(u) = 20u^3 - 30u^2 + 12u - 1.
        for u in (0.1, 0.3, 0.77):
            expected = 20 * u**3 - 30 * u**2 + 12 * u - 1
            assert abs(legendre_row(u, 3)[3] - expected) < 1e-12

    def test_orthogonality_weights(self):
        # int_0^1 psi_j psi_k du = delta_jk / (2j + 1), checked by a dense
        # midpoint rule independent of the recurrence code path.
        m = 20001
        u = (np.arange(m) + 0.5) / m
        rows = build_design(u, UNIT, 6, LEGENDRE).values
        gram = rows.T @ rows / m
        expected = np.diag(1.0 / (2.0 * np.arange(7) + 1.0))
        np.testing.assert_allclose(gram, expected, atol=1e-6)


class TestBuildDesign:
    def test_bernstein_endpoint_rows(self):
        design = build_design(np.array([0.0, 1.0]), UNIT, 1, BERNSTEIN)
        np.testing.assert_array_equal(design.values, [[1, 0], [0, 1]])

    def test_legendre_single_row(self):
        design = build_design(np.array([0.5]), UNIT, 2, LEGENDRE)
        np.testing.assert_allclose(design.values, [[1.0, 0.0, -0.5]], atol=1e-15)

    def test_shape_and_row_sums(self):
        rng = np.random.default_rng(5)
        design = build_design(rng.uniform(0, 1, 100), UNIT, 5, BERNSTEIN)
        assert design.values.shape == (100, 6)
        np.testing.assert_allclose(design.values.sum(axis=1), 1.0, atol=1e-12)

    def test_rescaling_applied(self):
        scale = PredictorScale(-3.0, 3.0)
        design = build_design(np.array([-3.0, 0.0, 3.0]), scale, 1, LEGENDRE)
        np.testing.assert_allclose(design.values[:, 1], [-1.0, 0.0, 1.0], atol=1e-14)

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            build_design(np.array([0.5]), UNIT, 2, "fourier")


def bernstein_columns(u, order):
    """Reference: degree elevation one column at a time."""
    rows = np.zeros((u.size, order + 1))
    rows[:, 0] = 1.0
    for m in range(1, order + 1):
        prev = rows[:, :m].copy()
        rows[:, : m + 1] = 0.0
        rows[:, :m] += (1.0 - u)[:, None] * prev
        rows[:, 1 : m + 1] += u[:, None] * prev
    return rows


def legendre_columns(u, order):
    """Reference: the three-term recurrence one column at a time."""
    rows = np.zeros((u.size, order + 1))
    rows[:, 0] = 1.0
    if order >= 1:
        t = 2.0 * u - 1.0
        rows[:, 1] = t
        for k in range(1, order):
            rows[:, k + 1] = ((2 * k + 1) * t * rows[:, k] - k * rows[:, k - 1]) / (
                k + 1
            )
    return rows


class TestRecurrencesMatchColumnLoop:
    @pytest.mark.parametrize("order", [0, 1, 2, 7, 60])
    def test_bit_identical(self, order):
        rng = np.random.default_rng(order)
        u = np.concatenate(([0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 300)))
        np.testing.assert_array_equal(
            build_design(u, UNIT, order, BERNSTEIN).values, bernstein_columns(u, order)
        )
        np.testing.assert_array_equal(
            build_design(u, UNIT, order, LEGENDRE).values, legendre_columns(u, order)
        )


def legendre_rows_expression(u, order):
    """Reference: each row of the recurrence as one expression of whole rows."""
    rows = np.zeros((order + 1, u.size))
    rows[0] = 1.0
    if order >= 1:
        t = 2.0 * u - 1.0
        rows[1] = t
        for k in range(1, order):
            rows[k + 1] = ((2 * k + 1) * t * rows[k] - k * rows[k - 1]) / (k + 1)
    return rows.T


@pytest.mark.parametrize("order", [0, 1, 2, 60])
def test_in_place_legendre_rows_match_the_expression(order):
    # At the size of a large fit, where the ufuncs run long vector loops.
    u = np.random.default_rng(60 + order).uniform(0.0, 1.0, 20000)
    np.testing.assert_array_equal(
        build_design(u, UNIT, order, LEGENDRE).values, legendre_rows_expression(u, order)
    )


class TestDesignMatrixType:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            DesignMatrix(basis="nope", order=1, values=np.ones((2, 2)))
        with pytest.raises(ValueError):
            DesignMatrix(basis=BERNSTEIN, order=2, values=np.ones((2, 2)))

    def test_n_property(self):
        design = build_design(np.array([0.2, 0.4, 0.9]), UNIT, 1, BERNSTEIN)
        assert design.n == 3


class TestMaxOrder:
    def test_known_values(self):
        assert max_order(100, 60) == 21
        assert max_order(500, 60) == 60
        assert max_order(8, 60) == 4

    def test_exact_cubes_do_not_lose_a_unit(self):
        # n = m^3 / ... every n whose square is a perfect cube must land
        # exactly on the cube root.
        for m in (2, 4, 9, 25, 49):
            n = int(round(m ** 1.5))
            if n * n == m**3:
                assert max_order(n, 10**6) == m

    def test_monotone_in_n(self):
        values = [max_order(n, 10**6) for n in range(2, 400)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_cap_applies(self):
        assert max_order(10**6, 60) == 60
        assert max_order(10**6, 25) == 25

    def test_preconditions(self):
        with pytest.raises(ValueError):
            max_order(1, 60)
        with pytest.raises(ValueError):
            max_order(100, 0)
