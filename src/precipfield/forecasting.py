"""Sampled predictive distributions from a fitted model.

Site ensembles, gridded field ensembles via circulant embedding, areal
averages, and the no-spatial-correlation baseline with identical marginals.
All of them draw members through one two-stage kernel, :func:`_draw_members`,
which takes every member's latent fields from one Generator, member by
member, and then thresholds and transforms the whole ensemble as one block.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import data as dm
from . import fields as rf
from . import transforms as tr
from .errors import DomainError

DEFAULT_AREAL_MEMBERS = 10_000
DEFAULT_MULTISITE_MEMBERS = 19
DEFAULT_GRID_MEMBERS = 50
GRID_MEMBER_FILE = "member_{:04d}.csv"


@dataclass
class ForecastEnsemble:
    """n members of nonnegative accumulations at J sites or on a grid."""

    members: np.ndarray  # (n, J) for sites, (n, ny, nx) for grids
    sites: list = None
    grid: rf.GridSpec = None
    fallback_sites: list = field(default_factory=list)


def two_stage_params(model, fcst_accum):
    """Occurrence trend and Gamma marginals implied by a forecast array:
    ``(mu, alpha, beta, fell_back)``, where ``ndtr(mu)`` is each site's
    probability of precipitation.

    Sites whose implied mean is nonpositive get the smallest valid mean
    seen in training (forecasts must still be emitted); they are flagged in
    the returned boolean array.
    """
    fcst_cr = tr.cube_root(fcst_accum)
    zero_flag = fcst_accum == 0.0
    mu = tr.occurrence_trend(model.occurrence, fcst_cr, zero_flag)
    alpha, beta, fell_back = _gamma_params(model, fcst_cr, zero_flag)
    return mu, alpha, beta, fell_back


def _gamma_params(model, fcst_cr, zero_flag):
    fallback_mean = model.diagnostics.get("min_training_mean", 0.1)
    return tr.gamma_marginals(model.amount, fcst_cr, zero_flag, fallback_mean)


def _site_marginals(model, fcst_cr, zero_flag):
    """Per-site Gamma marginals with the nonpositive-mean fallback, as a
    list, plus the indices of the sites that fell back."""
    alpha, beta, fell_back = _gamma_params(model, fcst_cr, zero_flag)
    marginals = [tr.GammaMarginal(float(a), float(b)) for a, b in zip(alpha, beta)]
    return marginals, np.flatnonzero(fell_back).tolist()


def _draw_members(mu, alpha, beta, draw, n_members, seed):
    """Two-stage member draw shared by every ensemble.

    ``draw(rng, n)`` returns the correlated occurrence and amount normal
    blocks, each ``(n,) + mu.shape``, taken member by member from one
    Generator, ``default_rng(seed)``: the first k members of an n-member
    ensemble are the k-member ensemble. Threshold and anamorphosis run once.
    """
    w, z = draw(np.random.default_rng(seed), n_members)
    w += mu
    return tr.wet_amounts(w, z, alpha, beta)


def _site_ensemble(model, sites, fcst_accum, n_members, seed, chols=None):
    if len(sites) < 1:
        raise DomainError("need at least one site")
    fcst_accum = np.atleast_1d(np.asarray(fcst_accum, dtype=float))
    if fcst_accum.shape != (len(sites),):
        raise DomainError(f"{fcst_accum.size} forecasts for {len(sites)} sites")
    mu, alpha, beta, fell_back = two_stage_params(model, fcst_accum)

    def draw(rng, n):
        # Member i's occurrence normals, then its amount normals, 256 members
        # at a time: one normal block for the whole ensemble raised peak RSS.
        # The stacked matmul is one gemv per member, so unlike a gemm it
        # rounds alike at any n.
        w, z = np.empty((n, len(sites), 1)), np.empty((n, len(sites), 1))
        for i in range(0, n, 256):
            e = rng.standard_normal((min(n - i, 256), 2, len(sites), 1))
            for f, out in enumerate((w, z)):
                out[i:i + 256] = e[:, f] if chols is None else chols[f] @ e[:, f]
        return w[..., 0], z[..., 0]

    members = _draw_members(mu, alpha, beta, draw, n_members, seed)
    return ForecastEnsemble(members=members, sites=list(sites),
                            fallback_sites=np.flatnonzero(fell_back).tolist())


def generate_site_ensemble(model, sites, fcst_accum, n_members, seed):
    """Ensemble of accumulations at scattered sites.

    Per member: draw the latent occurrence field, draw the amount field,
    zero out dry sites and push wet sites through the anamorphosis, then
    cube back to the accumulation scale.
    """
    chols = [rf.cholesky_pd(rf.correlation_matrix(sites, corr)) for corr in (model.rho, model.r)]
    return _site_ensemble(model, sites, fcst_accum, n_members, seed, chols)


def independence_baseline_ensemble(model, sites, fcst_accum, n_members, seed):
    """Spatially independent counterpart: identical marginals, identity
    correlations for both latent processes."""
    return _site_ensemble(model, sites, fcst_accum, n_members, seed)


def generate_grid_ensemble(model, grid, fcst_field, n_members, seed):
    """Ensemble of gridded accumulation fields via circulant embedding.

    Gamma parameters are computed cell-wise from the gridded forecast;
    ``fallback_sites`` holds the flat indices of fallback cells.
    """
    fcst_field = np.asarray(fcst_field, dtype=float)
    if fcst_field.shape != (grid.ny, grid.nx):
        raise DomainError("forecast field shape does not match grid")
    emb_w = rf.CirculantEmbedding(grid, model.rho)
    emb_z = rf.CirculantEmbedding(grid, model.r)
    mu, alpha, beta, fell_back = two_stage_params(model, fcst_field)

    def draw(rng, n):
        # Pairs of members share one FFT per field: its real and imaginary parts.
        w, z = np.empty((n + n % 2, grid.ny, grid.nx)), np.empty((n + n % 2, grid.ny, grid.nx))
        for i in range(0, n, 2):
            w[i:i + 2], z[i:i + 2] = emb_w.sample(rng, 2), emb_z.sample(rng, 2)
        return w[:n], z[:n]

    members = _draw_members(mu, alpha, beta, draw, n_members, seed)
    return ForecastEnsemble(members=members, grid=grid,
                            fallback_sites=np.flatnonzero(fell_back).tolist())


def areal_ensemble(model, sites, fcst_accum, n_members=DEFAULT_AREAL_MEMBERS, seed=0):
    """Scalar ensemble of areally averaged accumulation over a site subset."""
    ens = generate_site_ensemble(model, sites, fcst_accum, n_members, seed)
    return ens.members.mean(axis=1)


def write_site_ensemble_csv(ens, path):
    """CSV rows ``member,site_id,value_hundredths_inch``, member-major."""
    n, n_sites = ens.members.shape
    ids = [dm.csv_field(site.id) for site in ens.sites]
    dm.write_csv(path, ["member", "site_id", "value_hundredths_inch"], [
        [member for member in map(str, range(n)) for _ in range(n_sites)],
        ids * n,
        map(repr, ens.members.ravel().tolist()),
    ])


def write_grid_ensemble_csvs(ens, outdir):
    """One CSV per member, ``GRID_MEMBER_FILE``, with rows
    ``row,col,value_hundredths_inch``."""
    ny, nx = ens.grid.ny, ens.grid.nx
    rows = [str(iy) for iy in range(ny) for _ in range(nx)]
    cols = [str(ix) for ix in range(nx)] * ny
    for i in range(len(ens.members)):
        dm.write_csv(os.path.join(outdir, GRID_MEMBER_FILE.format(i)),
                     ["row", "col", "value_hundredths_inch"],
                     [rows, cols, map(repr, ens.members[i].ravel().tolist())])


def write_scalar_ensemble_csv(values, path):
    """CSV rows ``member,value_hundredths_inch`` for scalar ensembles."""
    values = np.asarray(values, dtype=float).ravel()
    dm.write_csv(path, ["member", "value_hundredths_inch"],
                 [map(str, range(values.size)), map(repr, values.tolist())])
