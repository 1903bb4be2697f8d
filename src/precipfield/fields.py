"""Stationary isotropic Gaussian process machinery.

Exponential correlations, dense-covariance sampling at scattered sites,
exact grid simulation via circulant embedding and truncated-MVN Gibbs
sampling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    DegenerateMatrixWarning,
    DomainError,
    EmbeddingFailure,
    NumericalError,
)

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
        if not np.all(np.isfinite([self.x0, self.y0, self.cell_km])):
            raise DomainError("grid origin and cell size must be finite")
        if self.cell_km <= 0:
            raise DomainError("cell size must be positive")
        if self.nx < 1 or self.ny < 1:
            raise DomainError("grid must contain at least one cell")

    def node_xy(self):
        """Node coordinates as (X, Y) arrays of shape (ny, nx)."""
        xs = self.x0 + self.cell_km * np.arange(self.nx)
        ys = self.y0 + self.cell_km * np.arange(self.ny)
        return np.meshgrid(xs, ys)


def exp_correlation(d, range_km):
    """Exponential correlation at distance ``d`` km."""
    d = np.asarray(d, dtype=float)
    if (d < 0).any():  # cheaper than np.any(): every range-likelihood evaluation calls this
        raise DomainError("distance must be nonnegative")
    if range_km <= 0:
        raise DomainError("range must be positive")
    out = np.exp(-d / range_km)
    return float(out) if out.ndim == 0 else out


_DIFF_FLOATS = 1 << 17  # one row block of point differences: 1 MiB


def pairwise_distances(pts):
    """Euclidean distances between the rows of an (n, d) array, built a
    block of rows at a time so that the difference array of a block stays
    near 1 MiB whatever n and d. Each distance reduces one row of
    differences, so it comes out as from the whole difference array. A
    distance past the float range is infinite, with correlation 0."""
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    rows = max(1, _DIFF_FLOATS // max(1, n * d))
    dist = np.empty((n, n))
    with np.errstate(over="ignore"):
        for i in range(0, n, rows):
            diff = pts[i:i + rows, None, :] - pts[None, :, :]
            np.sqrt((diff ** 2).sum(axis=-1), out=dist[i:i + rows])
    return dist


def correlation_matrix(sites, corr):
    """Pairwise exponential correlation matrix for a list of sites or an
    (n, 2) coordinate array. Co-located sites make it singular, and a
    :class:`DegenerateMatrixWarning` names them (by row for an array)."""
    if len(sites) < 1:
        raise DomainError("need at least one site")
    if isinstance(sites, np.ndarray):
        xy, ids = np.asarray(sites, dtype=float), range(len(sites))
    else:
        xy, ids = np.array([[s.x, s.y] for s in sites]), [s.id for s in sites]
    d = pairwise_distances(xy)
    colocated = np.flatnonzero((d == 0.0).sum(axis=1) > 1)
    if colocated.size:
        warnings.warn(f"co-located sites {', '.join(str(ids[i]) for i in colocated)}: "
                      "the correlation matrix is singular", DegenerateMatrixWarning)
    return exp_correlation(d, corr.range_km)


def cholesky_pd(mat):
    """Lower Cholesky factor of a matrix, with a single jitter retry on
    failure."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(mat + _JITTER * np.eye(mat.shape[-1]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("matrix is not positive definite") from exc


def sample_mvn(mean, corr_matrix, seed, n_samples=1):
    """Draw from a multivariate normal; deterministic given ``seed``.

    Returns a vector for ``n_samples == 1``, else an (n_samples, dim) array.
    """
    rng = np.random.default_rng(seed)
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
                    "circulant embedding stayed indefinite after 4x enlargement "
                    "(try a smaller grid, or dense site-mode sampling)"
                )
            factor *= 2
        self._mx, self._my = mx, my
        self._sqrt_lam = np.sqrt(np.clip(lam, 0.0, None) / (mx * my))

    def _eigenvalues(self, mx, my):
        cell = self.grid.cell_km
        # A lag too long for a float is infinite, where the correlation is
        # exactly its limit 0.
        with np.errstate(over="ignore"):
            kx = np.minimum(np.arange(mx), mx - np.arange(mx)) * cell
            ky = np.minimum(np.arange(my), my - np.arange(my)) * cell
            d = np.sqrt(kx[None, :] ** 2 + ky[:, None] ** 2)
        return np.fft.fft2(exp_correlation(d, self.corr.range_km)).real

    def sample(self, rng, n_fields=1):
        """Draw ``n_fields`` independent (ny, nx) fields in pairs, the real and
        imaginary parts of one FFT, from the Generator ``rng``, as an
        (n_fields, ny, nx) array; an odd count still draws its last pair."""
        ny, nx = self.grid.ny, self.grid.nx
        out = np.empty((n_fields + n_fields % 2, ny, nx))
        for i in range(0, n_fields, 2):
            eps = rng.standard_normal((2, self._my, self._mx))
            f = np.fft.fft2(self._sqrt_lam * (eps[0] + 1j * eps[1]))[:ny, :nx]
            out[i], out[i + 1] = f.real, f.imag
        return out[:n_fields]


def _trunc_norm_draw(rng, mean, sd, sign):
    """Inverse-CDF draw from N(mean, sd) restricted to x > 0 (sign=+1) or
    x <= 0 (sign=-1); vectorized over ``mean`` and ``sign``.

    N(mean) restricted to x <= 0 is the negation of N(-mean) restricted to
    x >= 0. The draw works in log-survival space so that far-tail
    truncations stay accurate.
    """
    sign = np.asarray(sign, dtype=float)
    mean = sign * np.asarray(mean, dtype=float)
    u = np.maximum(rng.random(np.shape(mean)), np.finfo(float).tiny)
    log_s = special.log_ndtr(mean / sd) + np.log(u)
    return sign * (mean - sd * special.ndtri_exp(log_s))


def _gibbs_scan(rng, state, mean, precision, cond_sd, signs):
    """One systematic scan of the Gibbs sampler, updating ``state`` in
    place: each coordinate is drawn from its truncated conditional given
    the others."""
    dev = state - mean
    for j in range(state.size):
        resid = dev @ precision[:, j] - dev[j] * precision[j, j]
        draw = _trunc_norm_draw(rng, mean[j] - resid / precision[j, j], cond_sd[j], signs[j])
        state[j] = draw
        dev[j] = draw - mean[j]


def sample_truncated_mvn(mean, corr_matrix, signs, n_samples, burn_in, seed):
    """Gibbs samples from an orthant-truncated multivariate normal.

    ``signs`` holds +1 for coordinates constrained positive and -1 for
    nonpositive. One chain is scanned ``burn_in`` times, then once per
    sample. Returns an (n_samples, dim) array; every emitted sample
    satisfies the constraint. Deterministic given ``seed``.
    """
    from scipy import linalg  # deferred: no command calls this

    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    signs = np.atleast_1d(np.asarray(signs, dtype=float))
    if mean.ndim != 1 or mean.shape != signs.shape:
        raise DomainError("mean and signs must be vectors of equal length")
    rng = np.random.default_rng(seed)
    inv_chol = linalg.solve_triangular(cholesky_pd(corr_matrix), np.eye(mean.size), lower=True)
    precision = inv_chol.T @ inv_chol
    cond_sd = 1.0 / np.sqrt(np.diag(precision))
    # Start feasible: mean pushed to the right side of zero.
    state = np.where(signs > 0, np.maximum(mean, 0.5), np.minimum(mean, -0.5))
    out = np.empty((n_samples, mean.size))
    for i in range(-burn_in, n_samples):
        _gibbs_scan(rng, state, mean, precision, cond_sd, signs)
        if i >= 0:
            out[i] = state
    return out
