import numpy as np
import pytest

from smoothsel.model_space import model_prior


class TestModelPrior:
    def test_uniform_beta_order_two(self):
        prior = model_prior(2, 1.0, 1.0)
        np.testing.assert_allclose(prior.probs, [0.5, 0.25, 0.25], atol=1e-15)

    def test_uniform_beta_order_three(self):
        prior = model_prior(3, 1.0, 1.0)
        np.testing.assert_allclose(prior.probs, [0.5, 0.25, 0.125, 0.125], atol=1e-15)

    def test_single_model_space(self):
        for a, b in ((1.0, 1.0), (2.0, 5.0)):
            np.testing.assert_allclose(model_prior(0, a, b).probs, [1.0])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n_max = int(rng.integers(0, 40))
            a, b = rng.uniform(0.2, 5.0, 2)
            prior = model_prior(n_max, a, b)
            assert abs(prior.probs.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(prior.probs, np.exp(prior.log_probs), rtol=1e-12)

    def test_parsimony_bias_for_symmetric_hyperparameters(self):
        probs = model_prior(12, 1.0, 1.0).probs
        assert np.all(np.diff(probs) <= 1e-15)

    def test_geometric_tail_shape(self):
        # pi(k) = p^k (1 - p) for k < N with p = a / (a + b).
        prior = model_prior(6, 2.0, 3.0)
        p = 2.0 / 5.0
        for k in range(6):
            assert prior.probs[k] == pytest.approx(p**k * (1 - p), rel=1e-12)
        assert prior.probs[6] == pytest.approx(p**6, rel=1e-12)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            model_prior(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            model_prior(3, 1.0, -2.0)
        with pytest.raises(ValueError):
            model_prior(-1, 1.0, 1.0)
