"""Deterministic core of the two-stage precipitation model.

Scale transforms between accumulation (hundredths of an inch) and its cube
root, the probit occurrence trend, site-specific Gamma marginals for wet
amounts, and the anamorphosis linking the standardized amount Gaussian
process to cube-root precipitation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, NonpositiveMean, NonpositiveVariance, NumericalError

# Beyond |z| = 8 the double-precision normal CDF saturates; clamping keeps
# likelihoods and simulated fields finite.
Z_CLAMP = 8.0


@dataclass(frozen=True)
class OccurrenceTrendParams:
    """Probit-scale trend coefficients for precipitation occurrence."""

    gamma0: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not all(np.isfinite([self.gamma0, self.gamma1, self.gamma2])):
            raise DomainError("occurrence trend coefficients must be finite")


@dataclass(frozen=True)
class GammaCoeffs:
    """Regression coefficients for the wet-amount Gamma mean and variance."""

    eta0: float
    eta1: float
    eta2: float
    nu0: float
    nu1: float

    def __post_init__(self):
        vals = [self.eta0, self.eta1, self.eta2, self.nu0, self.nu1]
        if not all(np.isfinite(vals)):
            raise DomainError("Gamma coefficients must be finite")
        if self.nu0 < 0 or self.nu1 < 0:
            raise DomainError("variance coefficients must be nonnegative")


@dataclass(frozen=True)
class GammaMarginal:
    """Gamma(shape=alpha, scale=beta) marginals, element-wise, for cube-root wet amounts."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not np.all((self.alpha > 0) & np.isfinite(self.alpha)):
            raise DomainError("alpha must be positive and finite")
        if not np.all((self.beta > 0) & np.isfinite(self.beta)):
            raise DomainError("beta must be positive and finite")


def cube_root(y0):
    """Cube root of a nonnegative accumulation (scalar or array)."""
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)) or np.any(y0 < 0):
        raise DomainError("accumulation must be finite and nonnegative")
    out = np.cbrt(y0)
    return float(out) if out.ndim == 0 else out


def cube(y):
    """Inverse of :func:`cube_root`."""
    y = np.asarray(y, dtype=float)
    out = y ** 3
    return float(out) if out.ndim == 0 else out


def occurrence_trend(params, fcst_cuberoot, zero_flag):
    """Probit-scale mean of the latent occurrence process.

    ``fcst_cuberoot`` is the cube root of the NWP forecast; ``zero_flag`` is
    true iff the forecast accumulation is exactly zero. At an isolated site
    the probability of precipitation is ``ndtr`` of the returned value.
    """
    y = np.asarray(fcst_cuberoot, dtype=float)
    flag = np.asarray(zero_flag, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("forecast cube root must be finite")
    out = params.gamma0 + params.gamma1 * y + params.gamma2 * flag
    return float(out) if np.ndim(out) == 0 else out


def gamma_mean(eta, fcst_cuberoot, zero_flag):
    """Wet-amount Gamma mean on the cube-root scale, ``eta = (eta0, eta1, eta2)``.

    Linear in the forecast cube root and the zero-forecast indicator.
    """
    y = np.asarray(fcst_cuberoot, dtype=float)
    return eta[0] + eta[1] * y + eta[2] * np.asarray(zero_flag, dtype=float)


def gamma_marginals(coeffs, fcst_cuberoot, zero_flag, fallback_mean=None):
    """Gamma shapes and scales implied by the forecast, element-wise.

    The mean is :func:`gamma_mean`; the variance is linear in the forecast
    on its native accumulation scale, the cube of ``fcst_cuberoot``. Moment
    inversion gives shape ``m**2/v`` and scale ``v/m``. Where the implied
    mean is nonpositive, ``fallback_mean`` replaces it; without one that
    raises :class:`NonpositiveMean`. Returns ``(alpha, beta, fell_back)``.
    """
    y = np.asarray(fcst_cuberoot, dtype=float)
    m = gamma_mean((coeffs.eta0, coeffs.eta1, coeffs.eta2), y, zero_flag)
    # float_power keeps libm's pow, so each element matches the scalar cube.
    v = coeffs.nu0 + coeffs.nu1 * np.float_power(y, 3)
    fell_back = ~(m > 0)
    if fell_back.any():
        if fallback_mean is None:
            raise NonpositiveMean(f"implied mean {np.min(m):.6g} <= 0")
        m = np.where(fell_back, fallback_mean, m)
    if not np.all(v > 0):
        raise NonpositiveVariance(f"implied variance {np.min(v):.6g} <= 0")
    alpha, beta = m * m / v, v / m
    if not np.all((alpha > 0) & (beta > 0) & np.isfinite(alpha) & np.isfinite(beta)):
        raise DomainError("Gamma shape and scale must be positive and finite")
    return alpha, beta, fell_back


def wet_amounts(w, z, alpha, beta):
    """Accumulations of two-stage draws, element-wise.

    Zero where the occurrence field ``w`` is nonpositive; elsewhere the cube
    of the Gamma(``alpha``, ``beta``) anamorphosis of the amount field ``z``.
    ``z`` has the shape of ``w``; ``alpha`` and ``beta`` broadcast against
    it, so one call covers a block of draws with shared marginals.
    """
    out = np.zeros(np.shape(w))
    wet = w > 0
    if wet.any():
        alpha, beta = np.broadcast_to(alpha, out.shape), np.broadcast_to(beta, out.shape)
        out[wet] = _gamma_quantile(z[wet], alpha[wet], beta[wet]) ** 3
    return out


def _gamma_quantile(z, alpha, beta):
    """Gamma(alpha, beta) quantile at the normal CDF of the clamped ``z``."""
    q = special.gammaincinv(alpha, special.ndtr(np.clip(z, -Z_CLAMP, Z_CLAMP)))
    if not np.all(np.isfinite(q)):
        raise NumericalError("Gamma quantile did not converge")
    return q * beta


def anamorphosis(z, marginal):
    """Map standard-Gaussian values to cube-root wet amounts.

    Evaluates the Gamma quantile at the normal CDF of ``z``; strictly
    increasing and positive. ``z`` may be a scalar or array.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("z must be finite")
    out = _gamma_quantile(z, marginal.alpha, marginal.beta)
    return float(out) if out.ndim == 0 else out


def anamorphosis_inverse(y, marginal):
    """Gaussian score of a positive cube-root amount (inverse anamorphosis).

    Values whose Gamma CDF saturates numerically are clamped to ±8.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or not np.all(np.isfinite(y)):
        raise DomainError("y must be positive and finite")
    out = gaussian_scores(y, marginal.alpha, marginal.beta)
    return float(out) if out.ndim == 0 else out


def gaussian_scores(y, alpha, beta):
    """Normal quantile of the Gamma(alpha, beta) CDF at the cube-root amount
    ``y``, clamped to ±Z_CLAMP; element-wise, without input checks."""
    with np.errstate(divide="ignore"):
        z = special.ndtri(special.gammainc(alpha, y / beta))
    return np.clip(z, -Z_CLAMP, Z_CLAMP)


def mixed_cdf(p0, marginal, y0):
    """Predictive CDF of the zero/Gamma mixture at accumulation ``y0``.

    ``p0`` is the point mass at zero; the continuous part is the Gamma
    marginal on the cube-root scale. Element-wise.
    """
    if not np.all((0.0 <= p0) & (p0 <= 1.0)):
        raise DomainError("p0 must lie in [0, 1]")
    y0 = np.asarray(y0, dtype=float)
    if np.any(y0 < 0) or not np.all(np.isfinite(y0)):
        raise DomainError("y0 must be finite and nonnegative")
    g = special.gammainc(marginal.alpha, np.cbrt(y0) / marginal.beta)
    out = p0 + (1.0 - p0) * g
    return float(out) if out.ndim == 0 else out
