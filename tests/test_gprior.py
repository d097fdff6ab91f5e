"""Bayes factors, shrinkage and model posteriors under omega mixtures.

The load-bearing checks compare the library's fixed peak-centred rule
against the scipy.integrate routes in oracles.py, and against an mpmath
route for r2 near 1; neither shares code with the library's engine
(different substitutions, different densities, different integrator).
"""

import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats as sps
from scipy.linalg.lapack import dgeqrt as f2py_dgeqrt
from scipy.special import logsumexp, ndtr

from oracles import (
    hyper_g_log_marginal_numeric,
    mpmath_log_bf_and_shrinkage,
    oracle_log_bf,
    oracle_shrinkage,
)
from smoothsel import binary, gprior, selector
from smoothsel.basis import PredictorScale, build_design
from smoothsel.binary import BinaryFitConfig, fit_binary
from smoothsel.gprior import (
    _CHUNK,
    _PANEL,
    _Z_STEP,
    ModelFitStats,
    OmegaPrior,
    _dgeqrt,
    _factorize,
    _householder_r,
    _log_kernel,
    _logsumexp,
    _normalized_posterior,
    _share,
    fit_stats,
    log_bayes_factor,
    model_posterior,
    shrinkage,
)
from smoothsel.model_space import model_prior
from smoothsel.selector import FitConfig, fit
from smoothsel.simulation import Scenario, generate

UNIT = PredictorScale(0.0, 1.0)
KINDS = ["intrinsic", "zellner-siow", "hyper-g"]


def random_stats(rng):
    n = int(rng.integers(20, 2000))
    qk = int(rng.integers(2, min(16, n - 3)))
    r2 = float(rng.uniform(0.01, 0.99))
    return ModelFitStats(n=n, q0=1, qk=qk, r2=r2)


class TestOmegaPrior:
    def test_factory_defaults(self):
        zs = OmegaPrior.zellner_siow()
        assert (zs.nu, zs.rho) == (1.0, 1.0)
        hg = OmegaPrior.hyper_g()
        assert (hg.nu, hg.a, hg.b) == (1.0, 2.0, 1.0)
        assert OmegaPrior.intrinsic().kind == "intrinsic"

    def test_from_name(self):
        for name in KINDS:
            assert OmegaPrior.from_name(name).kind == name
        with pytest.raises((KeyError, ValueError)):
            OmegaPrior.from_name("cauchy")

    def test_validation(self):
        with pytest.raises(ValueError):
            OmegaPrior(kind="intrinsic", nu=1.0)
        with pytest.raises(ValueError):
            OmegaPrior.zellner_siow(nu=-1.0)
        with pytest.raises(ValueError):
            OmegaPrior.zellner_siow(rho=0.0)
        with pytest.raises(ValueError):
            OmegaPrior.hyper_g(a=-2.0)
        with pytest.raises(ValueError):
            OmegaPrior(kind="unknown")

    def test_intrinsic_density_is_arcsine(self):
        w = np.linspace(0.01, 0.99, 99)
        mine = OmegaPrior.intrinsic().log_pdf(w)
        np.testing.assert_allclose(mine, sps.beta(0.5, 0.5).logpdf(w), atol=1e-12)

    def test_zellner_siow_density_is_gamma(self):
        w = np.concatenate([np.linspace(0.05, 5.0, 60), [10.0, 50.0]])
        for nu, rho in [(1.0, 1.0), (3.0, 2.0)]:
            mine = OmegaPrior.zellner_siow(nu=nu, rho=rho).log_pdf(w)
            ref = sps.gamma(nu / 2.0, scale=2.0 / rho).logpdf(w)
            np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_hyper_g_marginal_is_scaled_beta_prime(self):
        # The analytic marginal over rho must coincide with the scaled
        # beta-prime law: omega / b ~ BetaPrime(nu/2, a/2).
        w = np.concatenate([np.linspace(0.05, 5.0, 60), [20.0, 200.0]])
        for nu, a, b in [(1.0, 2.0, 1.0), (2.0, 3.0, 2.0)]:
            mine = OmegaPrior.hyper_g(nu=nu, a=a, b=b).log_pdf(w)
            ref = sps.betaprime(nu / 2.0, a / 2.0, scale=b).logpdf(w)
            np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_hyper_g_marginal_matches_nested_quadrature(self):
        # Same density validated without the beta-prime identity: a raw
        # two-layer integral over the rho hyperprior.
        hg = OmegaPrior.hyper_g()
        for w in [0.01, 0.1, 0.5, 1.0, 3.0, 10.0]:
            mine = float(hg.log_pdf(np.array([w]))[0])
            assert mine == pytest.approx(hyper_g_log_marginal_numeric(w), abs=1e-8)
        mine = float(hg.log_pdf(np.array([100.0]))[0])
        assert mine == pytest.approx(hyper_g_log_marginal_numeric(100.0), abs=1e-5)

    def test_transformed_weight_normalizes(self):
        # Midpoint rule on the quadrature's own v-scale: the weight must
        # integrate to one, so the substitution Jacobians are consistent
        # with the densities for every family.
        v = -100.0 + (np.arange(200_000) + 0.5) * 1e-3
        for name in KINDS:
            prior = OmegaPrior.from_name(name)
            total = float(np.exp(prior.log_weight(v)).sum() * 1e-3)
            assert total == pytest.approx(1.0, abs=1e-6), name

    def test_transformed_weight_reproduces_means(self):
        v = -100.0 + (np.arange(200_000) + 0.5) * 1e-3
        cases = [
            (OmegaPrior.intrinsic(), 0.5),
            (OmegaPrior.zellner_siow(), 1.0),
            (OmegaPrior.zellner_siow(nu=3.0, rho=2.0), 1.5),
        ]
        for prior, mean in cases:
            est = float(np.exp(prior.log_omega(v) + prior.log_weight(v)).sum() * 1e-3)
            assert est == pytest.approx(mean, abs=5e-4)

    def test_log_omega_monotone_and_in_support(self):
        v = np.linspace(-30.0, 30.0, 5000)
        for name in KINDS:
            w = np.exp(OmegaPrior.from_name(name).log_omega(v))
            assert np.all(np.diff(w) > 0)
            assert np.all(w > 0)
        w = np.exp(OmegaPrior.intrinsic().log_omega(v))
        assert np.all(w < 1.0)


class TestModelFitStats:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelFitStats(n=50, q0=1, qk=3, r2=1.2)
        with pytest.raises(ValueError):
            ModelFitStats(n=50, q0=1, qk=3, r2=-0.1)
        with pytest.raises(ValueError):
            ModelFitStats(n=50, q0=3, qk=1, r2=0.5)

    def test_log1m_r2_defaults_to_log1p(self):
        assert ModelFitStats(n=50, q0=1, qk=3, r2=0.25).log1m_r2 == np.log1p(-0.25)
        assert ModelFitStats(n=50, q0=1, qk=3, r2=1.0).log1m_r2 == -np.inf
        with pytest.raises(ValueError, match="log1m_r2"):
            ModelFitStats(n=50, q0=1, qk=3, r2=0.5, log1m_r2=0.1)


class TestFitStats:
    def test_constant_response_has_zero_r2(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 40)
        design = build_design(x, UNIT, 6, "legendre")
        y = np.full(40, 2.5)
        for k in range(1, 7):
            st = fit_stats(y, design, k)
            assert st.r2 == 0.0
            assert (st.n, st.q0, st.qk) == (40, 1, k + 1)

    def test_exact_degree_one_signal_is_saturated(self):
        x = np.linspace(0.05, 0.95, 12)
        design = build_design(x, UNIT, 1, "legendre")
        y = design.values[:, 1].copy()
        st = fit_stats(y, design, 1)
        assert st.r2 >= 1.0 - 1e-12

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 1, 80)
        design = build_design(x, UNIT, 5, "legendre")
        for trial in range(5):
            y = rng.standard_normal(80) + 3.0 * np.sin(4 * x)
            st = fit_stats(y, design, 3)
            # Independent route: raw normal equations with an intercept.
            xmat = design.values[:, :4]
            coef = np.linalg.solve(xmat.T @ xmat, xmat.T @ y)
            rss = float(np.sum((y - xmat @ coef) ** 2))
            ssy = float(np.sum((y - y.mean()) ** 2))
            assert st.r2 == pytest.approx(1.0 - rss / ssy, abs=1e-10)

    def test_input_validation(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 20)
        leg = build_design(x, UNIT, 4, "legendre")
        bern = build_design(x, UNIT, 4, "bernstein")
        y = rng.standard_normal(20)
        with pytest.raises(ValueError):
            fit_stats(y, bern, 2)
        with pytest.raises(ValueError):
            fit_stats(y, leg, 0)
        with pytest.raises(ValueError):
            fit_stats(y, leg, 5)
        with pytest.raises(ValueError):
            fit_stats(rng.standard_normal(19), leg, 2)
        small = build_design(x[:5], UNIT, 3, "legendre")
        with pytest.raises(ValueError):
            fit_stats(y[:5], small, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_response_rejected(self, bad):
        # Each per-model entry rejects what fit rejects; one NaN used to read
        # as r2 = 0 here and as a posterior with no signal in model_posterior.
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 100)
        y = np.sin(4.0 * x) + 0.1 * rng.standard_normal(100)
        y[7] = bad
        design = build_design(x, UNIT, 5, "legendre")
        for call in (
            lambda: fit_stats(y, design, 3),
            lambda: model_posterior(y, design, model_prior(5), OmegaPrior.intrinsic()),
            lambda: fit(x, y),
        ):
            with pytest.raises(ValueError, match="x and y must be finite"):
                call()

    def test_rank_deficiency_names_the_degree(self):
        # Two distinct x values support only one centered column.
        x = np.array([0.2, 0.2, 0.2, 0.8, 0.8, 0.8])
        design = build_design(x, UNIT, 2, "legendre")
        with pytest.raises(ValueError, match="degree-2"):
            fit_stats(np.arange(6.0), design, 2)


def _qr_reference(y, x):
    """R of [x_c | y_c / s] by np.linalg.qr, with rows signed to a positive diagonal."""
    yc = y - y.mean()
    aug = np.column_stack([x - x.mean(axis=0), yc / np.max(np.abs(yc))])
    r = np.linalg.qr(aug, mode="r")
    return r * np.sign(np.diag(r))[:, None], float(np.sum(aug[:, -1] ** 2))


def _spy_householder(monkeypatch):
    """Record the (columns, rows) shape of every block _householder_r reduces."""
    shapes = []

    def spy(buf, first, rows, out):
        shapes.append((buf.shape[0], rows))
        return _householder_r(buf, first, rows, out)

    monkeypatch.setattr(gprior, "_householder_r", spy)
    return shapes


class TestBlockedFactorization:
    """The QR of [1 | x | y_c / s] by blocks of rows against one plain QR of [x_c | y_c / s]."""

    def check_against_plain_qr(self, n, n_cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, n_cols))
        y = x @ rng.standard_normal(n_cols) + rng.standard_normal(n)
        factor = _factorize(y, x)
        ref, ssy = _qr_reference(y, x)
        signs = np.sign(np.diag(factor.r))
        scale = np.abs(ref).max()
        np.testing.assert_allclose(
            factor.r * signs[:, None], ref[:n_cols, :n_cols], rtol=0, atol=1e-12 * scale
        )
        np.testing.assert_allclose(
            factor.z**2, ref[:n_cols, n_cols] ** 2, rtol=0, atol=1e-12 * ssy
        )
        assert factor.rho2 == pytest.approx(ref[n_cols, n_cols] ** 2, rel=1e-12)
        assert factor.ssy == pytest.approx(ssy, rel=1e-12)

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_matches_plain_qr(self, n, monkeypatch):
        shapes = _spy_householder(monkeypatch)
        self.check_against_plain_qr(n, 12, seed=n)
        # One block up to _CHUNK rows; above it, near-equal blocks of at
        # most _CHUNK rows, then one reduction of their stacked R's.
        n_blocks = -(-n // _CHUNK)
        assert len(shapes) == (1 if n_blocks == 1 else n_blocks + 1)
        assert sum(rows for _, rows in shapes[:n_blocks]) == n
        assert all(rows <= _CHUNK for _, rows in shapes)

    def test_wide_design_keeps_every_block_tall(self, monkeypatch):
        # N + 2 > _CHUNK / 4: blocks of max(_CHUNK, 4 (N + 2)) rows at most.
        shapes = _spy_householder(monkeypatch)
        n_cols = _CHUNK // 4 + 7
        width = n_cols + 2
        self.check_against_plain_qr(4 * width + 1, n_cols, seed=1)
        # Two blocks of 2 (N + 2) and 2 (N + 2) + 1 rows, in the order two
        # threads reach them, then their stacked R's.
        rows = [rows for _, rows in shapes]
        assert sorted(rows[:2]) == [2 * width, 2 * width + 1] and rows[2:] == [2 * width]
        assert all(rows > cols for cols, rows in shapes)

    def test_stacked_factors_are_reduced_by_blocks_again(self, monkeypatch):
        # With a small block height the stacked R's outgrow one block too:
        # 31 columns [1 | x | y_c / s] in 9 blocks, then 3 blocks of their
        # 279 stacked rows, then one.
        monkeypatch.setattr(gprior, "_CHUNK", 64)
        shapes = _spy_householder(monkeypatch)
        self.check_against_plain_qr(1000, 29, seed=2)
        assert [rows for _, rows in shapes[9:]] == [93, 93, 93, 93]
        assert all(rows >= 2 * cols for cols, rows in shapes)

    @pytest.mark.parametrize("n", [40, _CHUNK])
    def test_one_block_is_one_plain_householder_call(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        x = build_design(rng.uniform(0, 1, n), UNIT, 9, "legendre").values[:, 1:]
        y = np.sin(5.0 * x[:, 0]) + rng.standard_normal(n)
        shapes = _spy_householder(monkeypatch)
        factor = _factorize(y, x)
        assert shapes == [(11, n)]
        # The single-buffer factorization, written out: the rows [1; x'; y_c / s]
        # of one buffer, and every statistic read from its R.
        yc = y - y.mean()
        buf = np.empty((11, n))
        buf[0] = 1.0
        buf[1:10] = x.T
        np.divide(yc, np.max(np.abs(yc)), out=buf[10])
        ssy = float(np.einsum("i,i->", buf[10], buf[10]))
        r = np.empty((11, 11))
        _householder_r(buf, 0, n, r)
        means = r[0, 1:10] / r[0, 0]
        np.testing.assert_array_equal(factor.col_means, means)
        np.testing.assert_array_equal(factor.r, r[1:10, 1:10])
        np.testing.assert_array_equal(factor.z, r[1:10, 10])
        assert factor.rho2 == float(r[10, 10] ** 2)
        assert factor.ssy == ssy
        np.testing.assert_array_equal(
            factor.col_ss, n * means**2 + np.einsum("ij,ij->j", r[1:10, 1:10], r[1:10, 1:10])
        )
        np.testing.assert_allclose(factor.col_means, x.mean(axis=0), rtol=0, atol=1e-15)
        np.testing.assert_allclose(factor.col_ss, np.sum(x**2, axis=0), rtol=1e-13)

    @pytest.mark.parametrize("width", [2, 7, 8, 9, 16, 63])
    @pytest.mark.parametrize("tall", [False, True])
    def test_householder_r_at_panel_edges(self, width, tall):
        # Widths below, at and above one panel of _PANEL columns, and a
        # last panel of one column (9) or of seven (63).
        n = _CHUNK if tall else 2 * width
        a = np.random.default_rng([width, n]).standard_normal((n, width))
        ref = np.linalg.qr(a, mode="r")
        buf = np.ascontiguousarray(a.T)
        r = np.full((width, width), np.nan)
        _householder_r(buf, 0, n, r)
        signs = np.sign(np.diag(r))[:, None]
        np.testing.assert_allclose(
            r * signs, ref * np.sign(np.diag(ref))[:, None], rtol=0,
            atol=1e-12 * np.abs(ref).max(),
        )
        # In place: R stays in the leading rows of buf.T.
        np.testing.assert_array_equal(np.triu(buf.T[:width]), r)

    @pytest.mark.parametrize("width", [2, 7, 8, 9, 16, 63])
    @pytest.mark.parametrize("tall", [False, True])
    def test_dgeqrt_matches_scipy_f2py(self, width, tall):
        # The ctypes call through cython_lapack's capsule, on a block of rows
        # in the middle of a taller buffer (an offset and LDA = its height),
        # against scipy's f2py wrapper of the same routine on a copy of the
        # block: a and T bit for bit, and the rows around it untouched.
        n = _CHUNK if tall else 2 * width
        first, total = 5, n + 12
        buf = np.random.default_rng([width, n, 1]).standard_normal((width, total))
        before = buf.copy()
        ref = np.asfortranarray(buf.T[first : first + n])
        want_a, want_t, info = f2py_dgeqrt(min(_PANEL, width), ref, overwrite_a=1)
        assert info == 0
        t = _dgeqrt(min(_PANEL, width), buf, first, n)
        np.testing.assert_array_equal(buf.T[first : first + n], want_a)
        np.testing.assert_array_equal(t, want_t)
        np.testing.assert_array_equal(buf[:, :first], before[:, :first])
        np.testing.assert_array_equal(buf[:, first + n :], before[:, first + n :])

    def test_dgeqrt_rejects_a_buffer_it_cannot_take_in_place(self):
        with pytest.raises(ValueError, match="Fortran-ordered"):
            _dgeqrt(2, np.ones((4, 3)).T, 0, 4)
        with pytest.raises(ValueError, match="Fortran-ordered"):
            _dgeqrt(2, np.ones((3, 4), dtype=np.float32), 0, 4)
        # Fewer rows than columns, and row ranges outside the buffer.
        for first, rows in [(0, 2), (8, 3), (-1, 4), (0, 11)]:
            with pytest.raises(ValueError, match="no block of 3 columns"):
                _dgeqrt(2, np.ones((3, 10)), first, rows)

    @pytest.mark.parametrize("n", [3001, 12345, 20000])
    def test_identical_at_any_core_count(self, n, monkeypatch):
        # Blocks of 1500/1501, 1763/1764 and 2000 rows, on 0, 1 and 2
        # workers beside this thread.
        rng = np.random.default_rng(n)
        x = build_design(rng.uniform(0, 1, n), UNIT, 30, "legendre").values[:, 1:]
        y = np.sin(7.0 * x[:, 0]) + rng.standard_normal(n)
        factors = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(gprior, "_available_cores", lambda: cores)
            factors.append(_factorize(y, x))
        for factor in factors[1:]:
            for got, want in zip(factor, factors[0]):
                np.testing.assert_array_equal(got, want)

    @staticmethod
    def refuse_pools(monkeypatch):
        def no_pool(**kwargs):
            raise AssertionError("a thread pool opened")

        monkeypatch.setattr(gprior, "ThreadPoolExecutor", no_pool)

    def test_one_core_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(gprior, "_available_cores", lambda: 1)
        self.refuse_pools(monkeypatch)
        before = threading.active_count()
        fit(*generate(Scenario("poly5", 5000, 2.0, 1, 5), 0))
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [500, _CHUNK])
    def test_one_block_opens_no_pool(self, n, monkeypatch):
        monkeypatch.setattr(gprior, "_available_cores", lambda: 3)
        self.refuse_pools(monkeypatch)
        fit(*generate(Scenario("poly5", n, 2.0, 1, 5), 0))

    def test_no_worker_outlives_the_fit(self, monkeypatch):
        # Three cores: the 5000 rows run as three blocks on two workers and
        # this thread, and the pool is shut down before fit returns.
        monkeypatch.setattr(gprior, "_available_cores", lambda: 3)
        pools = []

        def recorded_pool(**kwargs):
            pools.append(kwargs["max_workers"])
            return gprior_pool(**kwargs)

        gprior_pool = gprior.ThreadPoolExecutor
        monkeypatch.setattr(gprior, "ThreadPoolExecutor", recorded_pool)
        before = threading.active_count()
        fit(*generate(Scenario("poly5", 5000, 2.0, 1, 5), 0))
        assert pools == [2]
        assert threading.active_count() == before

    def test_collinear_column_rejected_across_blocks(self):
        # Three distinct x values support two centered columns, in every block.
        x = np.tile([0.1, 0.5, 0.9], _CHUNK + 2)
        design = build_design(x, UNIT, 4, "legendre")
        with pytest.raises(ValueError, match="degree-3"):
            fit_stats(np.arange(x.size, dtype=float), design, 4)

    def test_noiseless_poly5_above_one_block(self):
        x, y = generate(Scenario("poly5", 2 * _CHUNK + 17, np.inf, 1, 0), 0)
        result = fit(x, y)
        design = build_design(x, result.scale, result.max_order, "legendre")
        assert np.all(np.isfinite(_factorize(y, design.values[:, 1:]).log1m_r2()))
        assert result.selected_order == 5

    @staticmethod
    def spy_fit(monkeypatch):
        """Record the Legendre buffer ``fit`` builds and the factorization it reads from it."""
        seen = {}

        def rows(*args, **kwargs):
            seen["work"] = selector_rows(*args, **kwargs)
            return seen["work"]

        def factorize(work, y):
            seen["factor"] = selector_factorize(work, y)
            return seen["factor"]

        selector_rows, selector_factorize = selector._legendre_rows, selector._factorize_rows
        monkeypatch.setattr(selector, "_legendre_rows", rows)
        monkeypatch.setattr(selector, "_factorize_rows", factorize)
        return seen

    @pytest.mark.parametrize("n", [500, _CHUNK + 1, 20000])
    def test_fit_buffer_matches_the_generic_factorization(self, n, monkeypatch):
        # fit's Legendre rows, built in the buffer the QR takes, and the
        # columns of a separately built design copied into one.
        seen = self.spy_fit(monkeypatch)
        x, y = generate(Scenario("pwlinear", n, 2.0, 1, 4), 0)
        result = fit(x, y)
        design = build_design(x, result.scale, result.max_order, "legendre")
        generic = _factorize(y, design.values[:, 1:])
        assert seen["work"].shape == (result.max_order + 2, n)
        for got, want in zip(seen["factor"], generic, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_fit_never_copies_the_design(self, monkeypatch):
        # Every first-level block dgeqrt reduces lies in the buffer fit built
        # its Legendre rows in; the stacked R's lie elsewhere.
        seen = self.spy_fit(monkeypatch)
        blocks = []

        def spy(panel, buf, first, rows):
            blocks.append(buf.T[first : first + rows])
            return dgeqrt(panel, buf, first, rows)

        dgeqrt = gprior._dgeqrt
        monkeypatch.setattr(gprior, "_dgeqrt", spy)
        fit(*generate(Scenario("poly5", 20000, 2.0, 1, 3), 0))
        work = seen["work"]
        # Ten blocks of 2000 rows, then their 620 stacked rows.
        assert [block.shape for block in blocks] == [(2000, 62)] * 10 + [(620, 62)]
        assert all(np.shares_memory(block, work) for block in blocks[:10])
        assert not np.shares_memory(blocks[10], work)


class TestShare:
    """_share: the calling thread and a pool's workers take parts from one queue."""

    def test_every_part_once_under_contention(self, monkeypatch):
        # More workers than cores, and a switch interval short enough to
        # interleave the threads often: no part is lost or run twice.
        monkeypatch.setattr(gprior, "_available_cores", lambda: 9)
        done = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(20):
                    done.clear()
                    _share(pool, 500, done.append)
                    assert sorted(done) == list(range(500))
        finally:
            sys.setswitchinterval(interval)

    def test_caller_takes_the_parts_of_a_busy_worker(self, monkeypatch):
        # The pool's one worker is held by other work: this thread computes
        # all three parts and returns without waiting for it.
        monkeypatch.setattr(gprior, "_available_cores", lambda: 2)
        release = threading.Event()
        caller = threading.get_ident()
        threads = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            busy = pool.submit(release.wait, 10.0)
            _share(pool, 3, lambda i: threads.append(threading.get_ident()))
            assert not busy.done()
            release.set()
            assert busy.result(timeout=10.0)
        assert threads == [caller] * 3

    def test_serial_without_a_pool(self):
        done = []
        _share(None, 4, done.append)
        assert done == [0, 1, 2, 3]


class TestQuadratureErrorEstimate:
    @pytest.mark.parametrize("name", KINDS)
    def test_bounds_the_half_step_rule(self, name):
        # The change from the rule on every other node bounds the rule's
        # distance to the 277-node rule at half the step around the same
        # centre and scale, at the smallest samples, where the fixed rule
        # errs most, and every order they allow.
        prior = OmegaPrior.from_name(name)
        z = 0.5 * _Z_STEP * np.arange(-138, 139)[:, None]
        for n in range(6, 10):
            qk = np.arange(2.0, n - 1)  # orders 1..n-3 with the level
            for one_minus_r2 in (1e-9, 1e-3, 0.5):
                log1m_r2 = np.full(qk.size, np.log(one_minus_r2))
                log_bf, _, centre, scale, error = gprior._batched_bf(n, 1, qk, log1m_r2, prior)
                v = centre + scale * np.sinh(z)
                log_g = np.log(n / (qk + 1.0)) - prior.log_omega(v)
                log_terms = _log_kernel(log_g, n, 1, qk, log1m_r2) + prior.log_weight(v)
                half = logsumexp(log_terms + np.log(0.5 * _Z_STEP * scale * np.cosh(z)), axis=0)
                assert np.all(np.abs(log_bf - half) <= error + 1e-13), (n, one_minus_r2)


def criterion_8_fit(rep):
    """``fit_binary`` on criterion-8 replicate ``rep``: n = 300, y ~ Bernoulli(Phi(2x - 1))."""
    rng = np.random.default_rng([500, rep])
    x = rng.uniform(0.0, 1.0, 300)
    y = (rng.uniform(size=300) < ndtr(2.0 * x - 1.0)).astype(float)
    return fit_binary(x, y, BinaryFitConfig(seed=rep, scale=UNIT))


def pwlinear_fit(rep):
    """``fit`` on a pwlinear sample at n = 500 whose posterior spreads over orders 3-7."""
    return fit(*generate(Scenario("pwlinear", 500, 2.0, 4, 900), rep))


# Each fit path, with the diagnostic that holds its orders' errors in log BF.
ERROR_BUDGET_PATHS = {
    "identity": (pwlinear_fit, "log_bf_error"),
    "probit": (criterion_8_fit, "mc_std_error"),
}


class TestSelectionErrorBudget:
    """``inclusion_se`` and ``mpm_margin_flag``, shared by both fit paths."""

    @pytest.mark.parametrize("link", ERROR_BUDGET_PATHS)
    def test_inclusion_se_is_the_delta_method(self, link):
        # sum_k (d inclusion_j / d log_post_k)^2 se_k^2, the derivatives by
        # central differences of the posterior normalization.
        run, error_key = ERROR_BUDGET_PATHS[link]
        h = 1e-5
        for rep in (0, 1):
            result = run(rep)
            diag = result.diagnostics
            log_post = diag["log_bf"] + model_prior(result.max_order).log_probs
            jac = np.empty((result.max_order, result.max_order + 1))
            for k in range(result.max_order + 1):
                step = np.zeros_like(log_post)
                step[k] = h
                jac[:, k] = (_normalized_posterior(log_post + step, 0.0).inclusion
                             - _normalized_posterior(log_post - step, 0.0).inclusion) / (2.0 * h)
            want = np.sqrt(((jac * diag[error_key]) ** 2).sum(axis=1))
            # 1e-10 for the probit's errors; relative for the quadrature's, near 1e-13.
            atol = 1e-5 * min(want.max(), 1e-5)
            np.testing.assert_allclose(diag["inclusion_se"], want, rtol=1e-6, atol=atol)
            assert diag["inclusion_se"].max() > (1e-5 if link == "probit" else 0.0)

    @pytest.mark.parametrize("link", ERROR_BUDGET_PATHS)
    def test_mpm_margin_flag(self, link, monkeypatch):
        # Replicate 0's inclusion probabilities lie far from 0.5 for their
        # standard errors; errors of 5 nats on the gridded orders (probit),
        # or on every order (identity), bring one within two of them.
        run = ERROR_BUDGET_PATHS[link][0]
        assert run(0).diagnostics["mpm_margin_flag"] is False
        if link == "probit":
            grid = binary._grid_log_num
            monkeypatch.setattr(binary, "_grid_log_num", lambda a_n, mode: (grid(a_n, mode)[0], 5.0))
        else:
            rule = gprior._batched_bf
            monkeypatch.setattr(
                gprior, "_batched_bf", lambda *args: rule(*args)[:4] + (np.full(len(args[2]), 5.0),)
            )
        result = run(0)
        diag = result.diagnostics
        assert np.any(np.abs(diag["inclusion"] - 0.5) <= 2.0 * diag["inclusion_se"])
        assert diag["mpm_margin_flag"] is True
        assert result.to_dict()["diagnostics"]["mpm_margin_flag"] is True


class TestLogSumExp:
    @pytest.mark.parametrize("spread", [1e-3, 1.0, 30.0, 1e3])
    def test_matches_scipy(self, spread):
        rng = np.random.default_rng(int(spread * 1000))
        for size in (1, 2, 45, 61):
            v = rng.normal(rng.normal(0.0, spread), spread, size)
            assert _logsumexp(v) == pytest.approx(logsumexp(v), rel=1e-15, abs=0)

    def test_minus_infinity_entries(self):
        rng = np.random.default_rng(5)
        v = rng.normal(0.0, 10.0, 61)
        v[rng.permutation(61)[:20]] = -np.inf
        assert _logsumexp(v) == pytest.approx(logsumexp(v), rel=1e-15, abs=0)
        assert _logsumexp(np.array([-np.inf, 0.0, -np.inf])) == 0.0
        assert _logsumexp(np.full(4, -np.inf)) == -np.inf


class TestLogBayesFactor:
    def test_base_against_itself_is_exactly_zero(self):
        st = ModelFitStats(n=50, q0=1, qk=1, r2=0.0)
        for name in KINDS:
            assert log_bayes_factor(st, OmegaPrior.from_name(name)) == 0.0

    @pytest.mark.parametrize("name", KINDS)
    def test_matches_quadrature_oracle(self, name):
        prior = OmegaPrior.from_name(name)
        rng = np.random.default_rng(99)
        for trial in range(12):
            st = random_stats(rng)
            mine = log_bayes_factor(st, prior)
            ref = oracle_log_bf(st.n, st.q0, st.qk, st.r2, name)
            assert np.isfinite(mine)
            assert abs(mine - ref) <= 1e-6 * max(1.0, abs(ref))

    @pytest.mark.parametrize("name", KINDS)
    def test_matches_mpmath_oracle_for_r2_near_one(self, name):
        # r2 of 1 - 1e-4, 1 - 1e-8 and 1 - 1e-12: the kernel peak narrows to
        # a width of 1/sqrt(n) in log omega and moves with log(1 - r2).  For
        # r2 >= 0.5 the float 1 - r2 is exact, so the oracle sees the same
        # residual share as the library.
        prior = OmegaPrior.from_name(name)
        for gap in (1e-4, 1e-8, 1e-12):
            r2 = 1.0 - gap
            for n in (50, 2000, 20000):
                for qk in (2, 21):
                    st = ModelFitStats(n=n, q0=1, qk=qk, r2=r2)
                    ref_bf, ref_xi = mpmath_log_bf_and_shrinkage(n, 1, qk, 1.0 - r2, name)
                    mine = log_bayes_factor(st, prior)
                    assert abs(mine - ref_bf) <= 1e-6 * max(1.0, abs(ref_bf)), (n, qk, gap)
                    assert shrinkage(st, prior) == pytest.approx(ref_xi, rel=1e-6)

    def test_prior_families_differ_on_fixed_stats(self):
        st = ModelFitStats(n=100, q0=1, qk=3, r2=0.5)
        zs = log_bayes_factor(st, OmegaPrior.zellner_siow())
        hg = log_bayes_factor(st, OmegaPrior.hyper_g())
        assert np.isfinite(zs) and np.isfinite(hg)
        assert abs(zs - hg) > 0.05
        assert zs == pytest.approx(
            oracle_log_bf(100, 1, 3, 0.5, "zellner-siow"), abs=1e-6 * max(1.0, abs(zs))
        )
        assert hg == pytest.approx(
            oracle_log_bf(100, 1, 3, 0.5, "hyper-g"), abs=1e-6 * max(1.0, abs(hg))
        )

    def test_saturated_stats_rejected(self):
        st = ModelFitStats(n=50, q0=1, qk=3, r2=1.0)
        with pytest.raises(ValueError, match="saturated"):
            log_bayes_factor(st, OmegaPrior.intrinsic())


@pytest.mark.parametrize("snr, rel_tol", [(np.inf, 0.05), (2.0, 1e-12)])
def test_per_model_api_matches_fit(snr, rel_tol):
    # The per-model API reads log(1 - r2) from the exact residual, as fit
    # does, so noiseless data keep finite Bayes factors.  Noiseless, the two
    # QRs (k columns here, all N in fit) leave residuals that differ at the
    # rounding floor, hence the looser tolerance.
    x, y = generate(Scenario("poly5", 500, snr, 1, 0), 0)
    config = FitConfig(scale=UNIT)
    result = fit(x, y, config)
    design = build_design(x, UNIT, result.max_order, "legendre")
    for k in range(1, result.max_order + 1):
        stats = fit_stats(y, design, k)
        got = log_bayes_factor(stats, config.omega_prior)
        want = result.diagnostics["log_bf"][k]
        assert np.isfinite(got), k
        assert abs(got - want) <= rel_tol * abs(want), (k, got, want)
        assert shrinkage(stats, config.omega_prior) == pytest.approx(
            result.shrinkage[k], rel=1e-12, abs=0.0
        ), k


@pytest.mark.parametrize("name", KINDS)
@pytest.mark.parametrize("fn", ["poly5", "pwlinear"])
def test_model_posterior_matches_fit(fn, name):
    # The public entry and fit share one factorization and one posterior
    # path, so a fit's own design and order prior give its numbers exactly.
    x, y = generate(Scenario(fn, 300, 2.0, 1, 0), 0)
    config = FitConfig(omega_prior=OmegaPrior.from_name(name))
    result = fit(x, y, config)
    design = build_design(x, result.scale, result.max_order, "legendre")
    prior = model_prior(result.max_order, config.prior_a, config.prior_b)
    mp = model_posterior(y, design, prior, config.omega_prior)
    diag = result.diagnostics
    np.testing.assert_array_equal(mp.posterior, result.posterior)
    np.testing.assert_array_equal(mp.log_bf, diag["log_bf"])
    np.testing.assert_array_equal(mp.shrinkage, result.shrinkage)
    np.testing.assert_array_equal(mp.quadrature_centre, diag["quadrature_centre"])
    np.testing.assert_array_equal(mp.quadrature_scale, diag["quadrature_scale"])


class TestShrinkage:
    def test_tends_to_one_for_large_n(self):
        st = ModelFitStats(n=10**6, q0=1, qk=2, r2=0.3)
        xi = shrinkage(st, OmegaPrior.zellner_siow())
        assert abs(xi - 1.0) < 1e-3

    def test_decreasing_in_parameter_count_for_fixed_y(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 1, 100)
        design = build_design(x, UNIT, 6, "legendre")
        y = np.sin(2 * np.pi * x) + 0.5 * rng.standard_normal(100)
        op = OmegaPrior.intrinsic()
        xi = {k: shrinkage(fit_stats(y, design, k), op) for k in (1, 2, 5)}
        assert xi[5] <= xi[2] <= xi[1]

    def test_decreasing_in_parameter_count_at_fixed_r2(self):
        # At a common r2 the conditional factor n/(n + omega(qk+1)) falls
        # with qk pointwise in omega, and the expectation inherits it.
        for name in KINDS:
            prior = OmegaPrior.from_name(name)
            vals = [
                shrinkage(ModelFitStats(n=200, q0=1, qk=qk, r2=0.4), prior)
                for qk in (2, 4, 8, 14)
            ]
            assert np.all(np.diff(vals) < 0), name

    @pytest.mark.parametrize("name", KINDS)
    def test_matches_quadrature_ratio_oracle(self, name):
        prior = OmegaPrior.from_name(name)
        for n, qk, r2 in [(100, 3, 0.5), (500, 6, 0.9), (40, 2, 0.2)]:
            st = ModelFitStats(n=n, q0=1, qk=qk, r2=r2)
            mine = shrinkage(st, prior)
            ref = oracle_shrinkage(n, 1, qk, r2, name)
            assert mine == pytest.approx(ref, rel=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for name in KINDS:
            prior = OmegaPrior.from_name(name)
            for trial in range(8):
                st = random_stats(rng)
                xi = shrinkage(st, prior)
                assert 0.0 < xi <= 1.0

    def test_saturated_stats_rejected(self):
        st = ModelFitStats(n=50, q0=1, qk=3, r2=1.0)
        with pytest.raises(ValueError, match="saturated"):
            shrinkage(st, OmegaPrior.intrinsic())


class TestModelPosterior:
    def make_posterior(self, y, x, order, omega="intrinsic"):
        design = build_design(x, UNIT, order, "legendre")
        return model_posterior(
            y, design, model_prior(order), OmegaPrior.from_name(omega)
        )

    def test_pure_noise_prefers_the_base_model(self):
        for rep in range(20):
            rng = np.random.default_rng([1234, rep])
            x = rng.uniform(0, 1, 200)
            y = 3.0 + rng.standard_normal(200)
            mp = self.make_posterior(y, x, 14)
            assert int(np.argmax(mp.posterior)) == 0, f"replicate {rep}"

    def test_degree_one_signal_prefers_order_one(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 200)
        design = build_design(x, UNIT, 14, "legendre")
        y = design.values[:, 1] + 1e-3 * rng.standard_normal(200)
        mp = model_posterior(y, design, model_prior(14), OmegaPrior.intrinsic())
        assert int(np.argmax(mp.posterior)) == 1
        assert mp.posterior[1] > 0.5

    def test_posterior_identities(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 150)
        y = np.sin(2 * np.pi * x) + 0.3 * rng.standard_normal(150)
        mp = self.make_posterior(y, x, 10, omega="zellner-siow")
        assert mp.log_bf[0] == 0.0
        assert mp.posterior.sum() == pytest.approx(1.0, abs=1e-10)
        # Recompute the softmax from the returned pieces.
        prior = model_prior(10)
        lp = mp.log_bf + prior.log_probs
        ref = np.exp(lp - logsumexp(lp))
        np.testing.assert_allclose(mp.posterior, ref, atol=1e-10)

    def test_posterior_invariant_to_log_bf_shifts(self):
        # Normalization identity: adding any constant to every log BF
        # leaves the posterior untouched.
        rng = np.random.default_rng(13)
        lp = rng.normal(0, 30, 11)
        base = np.exp(lp - logsumexp(lp))
        for c in (50.0, -300.0, 1e4):
            shifted = np.exp((lp + c) - logsumexp(lp + c))
            np.testing.assert_allclose(shifted, base, atol=1e-12)
        flat = np.zeros(3) + np.log(1.0 / 3.0)
        np.testing.assert_allclose(
            np.exp(flat - logsumexp(flat)), np.full(3, 1 / 3), atol=1e-15
        )

    def test_inclusion_is_posterior_tail_sum(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(0, 1, 120)
        y = 2.0 * x**3 + 0.2 * rng.standard_normal(120)
        mp = self.make_posterior(y, x, 8)
        tails = np.array([mp.posterior[j:].sum() for j in range(1, 9)])
        np.testing.assert_allclose(mp.inclusion, tails, atol=1e-12)
        assert np.all(np.diff(mp.inclusion) <= 1e-12)
        assert np.all(mp.shrunken_inclusion <= mp.inclusion + 1e-12)
        assert np.all(mp.shrinkage > 0.0) and np.all(mp.shrinkage <= 1.0)

    def test_saturating_order_rejected(self):
        # Order 4 of 6 observations leaves one residual degree of freedom:
        # the public entry and the per-model statistics reject it alike.
        x = np.array([0.05, 0.2, 0.4, 0.6, 0.8, 0.95])
        y = np.random.default_rng(3).standard_normal(6)
        design = build_design(x, UNIT, 4, "legendre")
        with pytest.raises(ValueError, match=r"need n > k \+ 2 observations, got n=6, k=4"):
            model_posterior(y, design, model_prior(4), OmegaPrior.intrinsic())
        with pytest.raises(ValueError, match=r"need n > k \+ 2 observations, got n=6, k=4"):
            fit_stats(y, design, 4)
        mp = self.make_posterior(y, x, 3)
        assert np.all(np.isfinite(mp.log_bf))
        assert mp.posterior.sum() == pytest.approx(1.0, abs=1e-10)

    def test_design_and_prior_order_must_match(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 30)
        design = build_design(x, UNIT, 5, "legendre")
        with pytest.raises(ValueError):
            model_posterior(
                rng.standard_normal(30), design, model_prior(4), OmegaPrior.intrinsic()
            )

    def test_omega_families_agree_on_ranking_for_strong_signal(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(0, 1, 250)
        y = 4.0 * (x - 0.4) ** 2 + 0.1 * rng.standard_normal(250)
        modes = []
        for name in KINDS:
            mp = self.make_posterior(y, x, 10, omega=name)
            modes.append(int(np.argmax(mp.posterior)))
        assert len(set(modes)) == 1
        assert modes[0] == 2
