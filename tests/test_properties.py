"""Property tests: invariances of the selection and the range guard of predict."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from smoothsel.binary import BinaryFitConfig, fit_binary
from smoothsel.selector import FitConfig, fit

N = 200
PROPERTY = settings(derandomize=True, deadline=None, max_examples=15, database=None)

rules = st.sampled_from(["mpm", "loss"])
shifts = st.floats(-10.0, 10.0)
# Slopes of either sign, bounded away from 0 so the shift does not swamp the
# data's own digits.
slopes = st.one_of(st.floats(0.1, 10.0), st.floats(-10.0, -0.1))


@lru_cache(maxsize=None)
def sample():
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.0, 1.0, N)
    y = np.sin(2.0 * np.pi * x) + 0.5 * x + 0.3 * rng.standard_normal(N)
    return x, y


@lru_cache(maxsize=None)
def base_fit(rule):
    return fit(*sample(), FitConfig(rule=rule))


def assert_same_selection(result, reference):
    assert result.selected_order == reference.selected_order
    assert result.max_order == reference.max_order
    assert np.max(np.abs(result.posterior - reference.posterior)) <= 1e-9


@PROPERTY
@given(rule=rules, shift=shifts, slope=slopes)
def test_selection_invariant_under_affine_maps_of_x(rule, shift, slope):
    x, y = sample()
    assert_same_selection(fit(shift + slope * x, y, FitConfig(rule=rule)), base_fit(rule))


@PROPERTY
@given(rule=rules, shift=shifts, slope=slopes)
def test_selection_invariant_under_affine_maps_of_y(rule, shift, slope):
    x, y = sample()
    assert_same_selection(fit(x, shift + slope * y, FitConfig(rule=rule)), base_fit(rule))


@PROPERTY
@given(rule=rules, perm=st.permutations(range(N)))
def test_selection_invariant_under_row_permutation(rule, perm):
    x, y = sample()
    assert_same_selection(fit(x[perm], y[perm], FitConfig(rule=rule)), base_fit(rule))


@lru_cache(maxsize=None)
def probit_sample():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, 60)
    y = (rng.uniform(size=60) < ndtr(2.0 * x - 1.0)).astype(int)
    return x, y


@lru_cache(maxsize=None)
def probit_fit():
    return fit_binary(*probit_sample(), BinaryFitConfig(mc_draws=1000, seed=0))


@PROPERTY
@given(seed=st.integers(0, 2**16))
def test_probit_selection_invariant_under_label_flip(seed):
    # Flipping y negates the joint mode and swaps the halves of every
    # antithetic pair, so the Monte Carlo estimates agree to rounding.
    x, y = probit_sample()
    config = BinaryFitConfig(mc_draws=1000, seed=seed)
    result, flipped = fit_binary(x, y, config), fit_binary(x, 1 - y, config)
    assert_same_selection(flipped, result)
    assert np.max(np.abs(flipped.diagnostics["log_bf"] - result.diagnostics["log_bf"])) <= 1e-9


@PROPERTY
@given(perm=st.permutations(range(60)))
def test_probit_fit_invariant_under_row_permutation(perm):
    # Canonical QR signs keep every Monte Carlo draw on the same theta, so a
    # permutation moves only the rounding of sums over the rows.
    x, y = probit_sample()
    result = fit_binary(x[perm], y[perm], BinaryFitConfig(mc_draws=1000, seed=0))
    reference = probit_fit()
    assert_same_selection(result, reference)
    assert np.max(np.abs(result.diagnostics["log_bf"] - reference.diagnostics["log_bf"])) <= 1e-10


FITS = {"identity": lambda: base_fit("mpm"), "probit": probit_fit}


@PROPERTY
@given(
    link=st.sampled_from(sorted(FITS)),
    right=st.booleans(),
    offset=st.floats(1e-9, 1e3),
)
def test_predict_rejects_points_beyond_the_clamp_tolerance(link, right, offset):
    # offset is in units of the fitted interval's width; the tolerance is 1e-12.
    result = FITS[link]()
    a, b = result.scale.a, result.scale.b
    width = b - a
    outside = b + offset * width if right else a - offset * width
    grid = np.append(np.linspace(a, b, 50), outside)
    with pytest.raises(ValueError, match="outside"):
        result.predict(grid)


@PROPERTY
@given(link=st.sampled_from(sorted(FITS)), right=st.booleans(), offset=st.floats(0.0, 1e-13))
def test_predict_clamps_points_within_the_tolerance(link, right, offset):
    result = FITS[link]()
    a, b = result.scale.a, result.scale.b
    edge = b + offset * (b - a) if right else a - offset * (b - a)
    values = result.predict(np.append(np.linspace(a, b, 50), edge))
    assert np.all(np.isfinite(values))
    assert values[-1] == result.predict(np.append(np.linspace(a, b, 50), b if right else a))[-1]
