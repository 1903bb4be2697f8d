"""Stationary isotropic Gaussian process machinery.

Exponential correlations, dense-covariance sampling at scattered sites,
exact grid simulation via circulant embedding, multivariate normal density
evaluation, truncated-MVN Gibbs sampling, and bilinear interpolation of
gridded fields to sites.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from .errors import (
    DegenerateMatrixWarning,
    DomainError,
    EmbeddingFailure,
    NumericalError,
    OutOfDomain,
)

_LOG2PI = np.log(2.0 * np.pi)
_JITTER = 1e-10


@dataclass(frozen=True)
class Site:
    """A named location with planar coordinates in kilometers."""

    id: str
    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise DomainError(f"site {self.id}: coordinates must be finite")


@dataclass(frozen=True)
class ExpCorrelation:
    """Exponential correlation exp(-d / range) with range in kilometers."""

    range_km: float

    def __post_init__(self):
        if not (self.range_km > 0 and np.isfinite(self.range_km)):
            raise DomainError("range must be positive and finite")


@dataclass(frozen=True)
class GridSpec:
    """Regular planar grid: origin, square cell size (km), nx columns, ny rows."""

    x0: float
    y0: float
    cell_km: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.cell_km <= 0:
            raise DomainError("cell size must be positive")
        if self.nx < 1 or self.ny < 1:
            raise DomainError("grid must contain at least one cell")

    def node_xy(self):
        """Node coordinates as (X, Y) arrays of shape (ny, nx)."""
        xs = self.x0 + self.cell_km * np.arange(self.nx)
        ys = self.y0 + self.cell_km * np.arange(self.ny)
        return np.meshgrid(xs, ys)


def as_generator(seed):
    """Accept an int seed, a SeedSequence, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def exp_correlation(d, range_km):
    """Exponential correlation at distance ``d`` km."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise DomainError("distance must be nonnegative")
    if range_km <= 0:
        raise DomainError("range must be positive")
    out = np.exp(-d / range_km)
    return float(out) if out.ndim == 0 else out


def pairwise_distances(xy):
    """Euclidean distance matrix for an (n, 2) coordinate array."""
    xy = np.asarray(xy, dtype=float)
    diff = xy[:, None, :] - xy[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def correlation_matrix(sites, corr):
    """Pairwise exponential correlation matrix for a list of sites."""
    if len(sites) < 1:
        raise DomainError("need at least one site")
    if isinstance(sites, np.ndarray):
        xy = np.asarray(sites, dtype=float)
    else:
        xy = np.array([[s.x, s.y] for s in sites])
    d = pairwise_distances(xy)
    off = d[~np.eye(len(xy), dtype=bool)]
    if off.size and off.min() == 0.0:
        warnings.warn("duplicate site coordinates", DegenerateMatrixWarning)
    return exp_correlation(d, corr.range_km)


def cholesky_pd(mat):
    """Lower Cholesky factor, with a single jitter retry on failure."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(mat + _JITTER * np.eye(mat.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("matrix is not positive definite") from exc


def mvn_log_density(x, mean, corr_matrix):
    """Log density of a multivariate normal with the given correlation."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if x.shape != mean.shape or corr_matrix.shape != (x.size, x.size):
        raise DomainError("dimension mismatch")
    chol = cholesky_pd(corr_matrix)
    dev = linalg.solve_triangular(chol, x - mean, lower=True)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return float(-0.5 * (x.size * _LOG2PI + logdet + dev @ dev))


def sample_mvn(mean, corr_matrix, seed, n_samples=1):
    """Draw from a multivariate normal; deterministic given ``seed``.

    Returns a vector for ``n_samples == 1``, else an (n_samples, dim) array.
    """
    rng = as_generator(seed)
    mean = np.asarray(mean, dtype=float)
    chol = cholesky_pd(corr_matrix)
    draws = mean + rng.standard_normal((n_samples, mean.size)) @ chol.T
    return draws[0] if n_samples == 1 else draws


class CirculantEmbedding:
    """Exact simulation of a stationary field on a regular grid via FFT.

    Precomputes the square-root eigenvalues of the periodic embedding of the
    exponential covariance. The embedding starts from the minimal even size
    and doubles each dimension up to 4x before giving up.
    """

    # Tolerance (relative to the largest eigenvalue) below which negative
    # eigenvalues are clipped to zero rather than triggering enlargement.
    _NEG_TOL = 1e-9

    def __init__(self, grid, corr):
        self.grid = grid
        self.corr = corr
        factor = 1
        while True:
            mx = factor * max(2 * (grid.nx - 1), 2)
            my = factor * max(2 * (grid.ny - 1), 2)
            lam = self._eigenvalues(mx, my)
            lam_min = lam.min()
            if lam_min >= -self._NEG_TOL * lam.max():
                break
            if factor >= 4:
                raise EmbeddingFailure(
                    "circulant embedding stayed indefinite after 4x enlargement"
                )
            factor *= 2
        self._mx, self._my = mx, my
        self._sqrt_lam = np.sqrt(np.clip(lam, 0.0, None) / (mx * my))

    def _eigenvalues(self, mx, my):
        cell = self.grid.cell_km
        kx = np.minimum(np.arange(mx), mx - np.arange(mx)) * cell
        ky = np.minimum(np.arange(my), my - np.arange(my)) * cell
        d = np.sqrt(kx[None, :] ** 2 + ky[:, None] ** 2)
        c = np.exp(-d / self.corr.range_km)
        return np.fft.fft2(c).real

    def sample(self, rng, n_fields=1):
        """Draw ``n_fields`` independent fields of shape (ny, nx)."""
        rng = as_generator(rng)
        ny, nx = self.grid.ny, self.grid.nx
        out = np.empty((n_fields, ny, nx))
        # Each FFT yields two independent fields (real and imaginary parts).
        for i in range(0, n_fields, 2):
            eps = rng.standard_normal((self._my, self._mx)) + 1j * rng.standard_normal(
                (self._my, self._mx)
            )
            f = np.fft.fft2(self._sqrt_lam * eps)
            out[i] = f.real[:ny, :nx]
            if i + 1 < n_fields:
                out[i + 1] = f.imag[:ny, :nx]
        return out[0] if n_fields == 1 else out


def _trunc_norm_lower(rng, mean, sd, lower=0.0):
    """Inverse-CDF draw from N(mean, sd) truncated to (lower, inf).

    Works in log-survival space so that far-tail truncations stay accurate.
    Vectorized over ``mean``.
    """
    t = (lower - mean) / sd
    u = np.maximum(rng.random(np.shape(mean)), np.finfo(float).tiny)
    log_s = special.log_ndtr(-t) + np.log(u)
    z = -special.ndtri_exp(log_s)
    return mean + sd * z


def truncated_normal_draw(rng, mean, sd, sign):
    """Draw from N(mean, sd) restricted to x > 0 (sign=+1) or x <= 0 (sign=-1).

    Vectorized; uses the reflection N(mean) restricted to x <= 0 being the
    negation of N(-mean) restricted to x >= 0.
    """
    sign = np.asarray(sign, dtype=float)
    return sign * _trunc_norm_lower(rng, sign * np.asarray(mean, dtype=float), sd)


class GibbsTruncatedMVN:
    """Systematic-scan Gibbs sampler for orthant-truncated MVNs.

    Runs ``n_chains`` independent chains sharing one correlation matrix;
    each chain has its own mean vector and per-coordinate sign pattern
    (+1 for positive, -1 for nonpositive). Drives :func:`sample_truncated_mvn`.
    """

    def __init__(self, means, corr_matrix, signs):
        means = np.atleast_2d(np.asarray(means, dtype=float))
        signs = np.atleast_2d(np.asarray(signs, dtype=float))
        if means.shape != signs.shape:
            raise DomainError("means and signs must have matching shapes")
        self.means = means
        self.signs = signs
        self.dim = means.shape[1]
        chol = cholesky_pd(corr_matrix)
        ident = np.eye(self.dim)
        inv_chol = linalg.solve_triangular(chol, ident, lower=True)
        self.precision = inv_chol.T @ inv_chol
        self.cond_sd = 1.0 / np.sqrt(np.diag(self.precision))
        # Start feasible: mean pushed to the right side of zero.
        state = np.where(signs > 0, np.maximum(means, 0.5), np.minimum(means, -0.5))
        self.state = state

    def sweep(self, rng, n_sweeps=1):
        """Advance every chain by ``n_sweeps`` full coordinate scans."""
        q = self.precision
        for _ in range(n_sweeps):
            dev = self.state - self.means
            for j in range(self.dim):
                # Conditional mean of coordinate j given the others.
                resid = dev @ q[:, j] - dev[:, j] * q[j, j]
                m_cond = self.means[:, j] - resid / q[j, j]
                draw = truncated_normal_draw(rng, m_cond, self.cond_sd[j], self.signs[:, j])
                self.state[:, j] = draw
                dev[:, j] = draw - self.means[:, j]
        return self.state


def sample_truncated_mvn(mean, corr_matrix, signs, n_samples, burn_in, seed):
    """Gibbs samples from an orthant-truncated multivariate normal.

    ``signs`` holds +1 for coordinates constrained positive and -1 for
    nonpositive. Returns an (n_samples, dim) array; every emitted sample
    satisfies the constraint. Deterministic given ``seed``.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    rng = as_generator(seed)
    sampler = GibbsTruncatedMVN(mean, corr_matrix, signs)
    sampler.sweep(rng, burn_in)
    dim = sampler.dim
    out = np.empty((n_samples, dim))
    for i in range(n_samples):
        out[i] = sampler.sweep(rng)[0]
    return out


def bilinear_interpolate(field, grid, site):
    """Bilinear interpolation of a (ny, nx) field at a site inside the grid."""
    field = np.asarray(field, dtype=float)
    if field.shape != (grid.ny, grid.nx):
        raise DomainError("field shape does not match grid")
    fx = (site.x - grid.x0) / grid.cell_km
    fy = (site.y - grid.y0) / grid.cell_km
    if not (0.0 <= fx <= grid.nx - 1 and 0.0 <= fy <= grid.ny - 1):
        raise OutOfDomain(f"site {site.id} lies outside the grid hull")
    ix = min(int(fx), grid.nx - 2) if grid.nx > 1 else 0
    iy = min(int(fy), grid.ny - 2) if grid.ny > 1 else 0
    tx = fx - ix
    ty = fy - iy
    if grid.nx == 1:
        tx = 0.0
    if grid.ny == 1:
        ty = 0.0
    ix1 = min(ix + 1, grid.nx - 1)
    iy1 = min(iy + 1, grid.ny - 1)
    return float(
        field[iy, ix] * (1 - tx) * (1 - ty)
        + field[iy, ix1] * tx * (1 - ty)
        + field[iy1, ix] * (1 - tx) * ty
        + field[iy1, ix1] * tx * ty
    )
