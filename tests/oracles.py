"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's quadrature machinery:
densities come from scipy.stats, integrals from scipy.integrate.quad (or
plain dense grids), and the conditional Bayes factor is transcribed
directly from its closed form.  Agreement between these routes and the
library's fixed peak-centred rule is what the tests assert.  For r2 near
1, where the integrand peak is too narrow for QUADPACK's default
subdivision, an mpmath route integrates at 20 digits.

Endpoint singularities are handled differently from the library too: the
intrinsic route uses QUADPACK's algebraic weight, the gamma and
beta-prime routes substitute omega = v**2 so the v-integrand is bounded
at the origin.
"""

from __future__ import annotations

import numpy as np
from scipy import stats
from scipy.integrate import quad


def conditional_log_bf(omega, n, q0, qk, r2):
    """Closed-form log Bayes factor at fixed omega (g = n / (omega (qk+1)))."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = n / (omega * (qk + 1.0))
        out = 0.5 * (n - qk) * np.log1p(g) - 0.5 * (n - q0) * np.log1p(g * (1.0 - r2))
    # omega -> 0 limit of the factor is 0 (the base model wins), so the
    # inf - inf indeterminate form resolves to -inf on the log scale.
    return np.where(np.isnan(out), -np.inf, out)


def _mixture_log_pdf(kind, nu=1.0, rho=1.0, a=2.0, b=1.0):
    """Log mixing density on the omega scale, straight from scipy.stats.

    The hyper-g marginal over rho is a scaled beta-prime law: with
    x = omega / b, x ~ BetaPrime(nu/2, a/2).  scipy carries that family,
    which gives a density route with no numerics shared with the library.
    """
    if kind == "intrinsic":
        return stats.beta(0.5, 0.5).logpdf
    if kind == "zellner-siow":
        return stats.gamma(nu / 2.0, scale=2.0 / rho).logpdf
    if kind == "hyper-g":
        return stats.betaprime(nu / 2.0, a / 2.0, scale=b).logpdf
    raise ValueError(kind)


def _probe_shift(log_f, finite):
    if finite:
        probe = np.arange(1, 4000) / 4000.0
    else:
        probe = np.logspace(-10, 10, 4000)
    vals = log_f(probe)
    return float(np.max(vals[np.isfinite(vals)]))


def oracle_log_bf(n, q0, qk, r2, kind, nu=1.0, rho=1.0, a=2.0, b=1.0):
    """Brute-force log BF through scipy.integrate.quad, per prior family."""
    log_pdf = _mixture_log_pdf(kind, nu, rho, a, b)

    def log_f(w):
        return conditional_log_bf(w, n, q0, qk, r2) + log_pdf(w)

    if kind == "intrinsic":
        # Pull the Beta(1/2,1/2) singularities into QUADPACK's algebraic
        # weight; what remains of the density is the constant 1/pi.
        def log_smooth(w):
            return conditional_log_bf(w, n, q0, qk, r2) - np.log(np.pi)

        shift = _probe_shift(log_smooth, finite=True)
        value, _ = quad(
            lambda w: float(np.exp(log_smooth(w) - shift)),
            0.0,
            1.0,
            weight="alg",
            wvar=(-0.5, -0.5),
            limit=400,
        )
        return shift + np.log(value)

    shift = _probe_shift(log_f, finite=False)

    def integrand_v(v):
        # omega = v**2 bounds the integrand at the origin for nu >= 1.
        w = v * v
        return float(np.exp(log_f(w) - shift)) * 2.0 * v

    value, _ = quad(integrand_v, 0.0, np.inf, limit=400)
    return shift + np.log(value)


def oracle_shrinkage(n, q0, qk, r2, kind, nu=1.0, rho=1.0, a=2.0, b=1.0):
    """Brute-force xi = E[n / (n + omega (qk+1))] under the BF integrand."""
    log_pdf = _mixture_log_pdf(kind, nu, rho, a, b)
    s = qk + 1.0

    def log_f(w):
        return conditional_log_bf(w, n, q0, qk, r2) + log_pdf(w)

    def log_factor(w):
        return -np.log1p(w * s / n)

    if kind == "intrinsic":
        def log_smooth(w):
            return conditional_log_bf(w, n, q0, qk, r2) - np.log(np.pi)

        shift = _probe_shift(log_smooth, finite=True)
        kw = dict(weight="alg", wvar=(-0.5, -0.5), limit=400)
        den, _ = quad(
            lambda w: float(np.exp(log_smooth(w) - shift)), 0.0, 1.0, **kw
        )
        num, _ = quad(
            lambda w: float(np.exp(log_smooth(w) + log_factor(w) - shift)),
            0.0, 1.0, **kw,
        )
        return num / den

    shift = _probe_shift(log_f, finite=False)

    def den_v(v):
        w = v * v
        return float(np.exp(log_f(w) - shift)) * 2.0 * v

    def num_v(v):
        w = v * v
        return float(np.exp(log_f(w) + log_factor(w) - shift)) * 2.0 * v

    den, _ = quad(den_v, 0.0, np.inf, limit=400)
    num, _ = quad(num_v, 0.0, np.inf, limit=400)
    return num / den


def hyper_g_log_marginal_numeric(w, nu=1.0, a=2.0, b=1.0):
    """Rho-marginal mixing density at omega = w by direct nested quadrature.

    Validates the beta-prime identity (and through it the library's
    analytic marginal) without assuming it: integrates the conditional
    Gamma(nu/2, rate rho/2) density against the Gamma(a/2, rate b/2)
    hyperprior on rho.
    """
    rho_dist = stats.gamma(a / 2.0, scale=2.0 / b)

    def inner(r):
        return stats.gamma(nu / 2.0, scale=2.0 / r).pdf(w) * rho_dist.pdf(r)

    # The r-integrand peaks on the scale 1 / (w + b); splitting there keeps
    # QUADPACK from missing the mass on the semi-infinite range.
    cut = 2.0 * (nu + a) / (w + b)
    lo, _ = quad(inner, 0.0, cut, limit=300)
    hi, _ = quad(inner, cut, np.inf, limit=300)
    return float(np.log(lo + hi))


def mpmath_log_bf_and_shrinkage(n, q0, qk, one_minus_r2, kind, dps=20):
    """Log BF and shrinkage xi at ``dps`` digits with mpmath, for r2 near 1.

    Each family takes its default hyperparameters.  ``one_minus_r2`` is
    taken as given, never formed as 1 - r2 here, so the oracle sees the
    residual share exactly.  The integral runs over t = log(omega) with the
    densities written out in mpmath.  A float grid over t bounds the range
    where the integrand is within e^-60 of its peak, and the tanh-sinh rule
    gets breakpoints on geometric offsets around the peak, which is as
    narrow as 1/sqrt(n).
    """
    import mpmath as mp

    c = float(one_minus_r2)
    s = qk + 1.0
    grid = np.linspace(-120.0, 0.0 if kind == "intrinsic" else 60.0, 24001)[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = n / (np.exp(grid) * s)
        log_f = (
            0.5 * (n - qk) * np.log1p(g)
            - 0.5 * (n - q0) * np.log1p(g * c)
            + _mixture_log_pdf(kind)(np.exp(grid))
            + grid
        )
    top = int(np.nanargmax(log_f))
    inside = np.nonzero(log_f >= log_f[top] - 60.0)[0]
    step = grid[1] - grid[0]
    lo = grid[inside[0]] - step
    if kind == "intrinsic" and inside[-1] == grid.size - 1:
        hi = 0.0
    else:
        hi = grid[inside[-1]] + step
    peak = float(grid[top])

    # The kernel is a difference of two terms of size n log(g); evaluating
    # it with 12 guard digits keeps the integrand at ``dps`` digits, which the
    # tanh-sinh error estimate needs to stop.
    with mp.workdps(dps + 12):
        nn, cc, ss = mp.mpf(n), mp.mpf(c), mp.mpf(s)
        if kind == "intrinsic":
            log_norm = -mp.log(mp.pi)
        elif kind == "zellner-siow":
            log_norm = 0.5 * mp.log(0.5) - mp.loggamma(0.5)
        else:
            log_norm = mp.loggamma(1.5) - mp.loggamma(0.5)

    def log_integrand(t):
        w = mp.exp(t)
        gg = nn / (w * ss)
        kern = 0.5 * (nn - qk) * mp.log1p(gg) - 0.5 * (nn - q0) * mp.log1p(gg * cc)
        if kind == "intrinsic":
            dens = -0.5 * t - 0.5 * mp.log(-mp.expm1(t))
        elif kind == "zellner-siow":
            dens = -0.5 * t - w / 2
        else:
            dens = -0.5 * t - 1.5 * mp.log(w + 1)
        return kern + log_norm + dens + t

    with mp.workdps(dps + 12):
        shift = log_integrand(mp.mpf(peak))

    def integrand(t, factor):
        with mp.workdps(dps + 12):
            value = mp.exp(log_integrand(t) - shift)
            if factor:
                value *= nn / (nn + mp.exp(t) * ss)
        return +value

    cuts = [peak + d * sgn for d in (1e-2, 0.1, 1.0) for sgn in (-1, 1)]
    points = [lo] + sorted(p for p in cuts + [peak] if lo < p < hi) + [hi]
    with mp.workdps(dps):
        points = [mp.mpf(p) for p in points]
        den = mp.quad(lambda t: integrand(t, False), points)
        num = mp.quad(lambda t: integrand(t, True), points)
        return float(shift + mp.log(den)), float(num / den)
