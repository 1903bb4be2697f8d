"""Sampled predictive distributions from a fitted model.

Site ensembles, gridded field ensembles via circulant embedding, areal
averages, and the no-spatial-correlation baseline with identical marginals.
All of them draw members through one two-stage kernel, :func:`_draw_members`.
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


@dataclass
class ForecastEnsemble:
    """n members of nonnegative accumulations at J sites or on a grid."""

    members: np.ndarray  # (n, J) for sites, (n, ny, nx) for grids
    sites: list = None
    grid: rf.GridSpec = None
    seed: object = None
    fallback_sites: list = field(default_factory=list)

    @property
    def n_members(self):
        return self.members.shape[0]


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


def _draw_members(mu, alpha, beta, draw_w, draw_z, n_members, seed):
    """Two-stage member draw shared by every ensemble.

    ``draw_w`` and ``draw_z`` map a Generator to a standard-normal field of
    the shape of ``mu`` with the occurrence and amount correlations. Each
    member draws both fields from its own Generator, spawned from the master
    seed, so results do not depend on how members are scheduled.
    """
    members = np.zeros((n_members,) + np.shape(mu))
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for i, child in enumerate(seq.spawn(n_members)):
        rng = np.random.default_rng(child)
        w = mu + draw_w(rng)
        members[i] = tr.wet_amounts(w, draw_z(rng), alpha, beta)
    return members


def _site_ensemble(model, sites, fcst_accum, n_members, seed, draw_w, draw_z):
    if len(sites) < 1:
        raise DomainError("need at least one site")
    fcst_accum = np.atleast_1d(np.asarray(fcst_accum, dtype=float))
    mu, alpha, beta, fell_back = two_stage_params(model, fcst_accum)
    members = _draw_members(mu, alpha, beta, draw_w, draw_z, n_members, seed)
    return ForecastEnsemble(members=members, sites=list(sites), seed=seed,
                            fallback_sites=np.flatnonzero(fell_back).tolist())


def _cholesky_draw(sites, corr):
    chol = rf.cholesky_pd(rf.correlation_matrix(sites, corr))
    return lambda rng: chol @ rng.standard_normal(len(sites))


def generate_site_ensemble(model, sites, fcst_accum, n_members, seed):
    """Ensemble of accumulations at scattered sites.

    Per member: draw the latent occurrence field, draw the amount field,
    zero out dry sites and push wet sites through the anamorphosis, then
    cube back to the accumulation scale.
    """
    return _site_ensemble(model, sites, fcst_accum, n_members, seed,
                          _cholesky_draw(sites, model.rho), _cholesky_draw(sites, model.r))


def independence_baseline_ensemble(model, sites, fcst_accum, n_members, seed):
    """Spatially independent counterpart: identical marginals, identity
    correlations for both latent processes."""
    def draw(rng):
        return rng.standard_normal(len(sites))

    return _site_ensemble(model, sites, fcst_accum, n_members, seed, draw, draw)


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
    members = _draw_members(mu, alpha, beta, emb_w.sample, emb_z.sample, n_members, seed)
    return ForecastEnsemble(members=members, grid=grid, seed=seed,
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
        [str(i) for i in range(n) for _ in range(n_sites)],
        ids * n,
        map(repr, ens.members.ravel().tolist()),
    ])


def write_grid_ensemble_csvs(ens, outdir, prefix="member"):
    """One CSV per member with rows ``row,col,value_hundredths_inch``."""
    ny, nx = ens.grid.ny, ens.grid.nx
    rows = [str(iy) for iy in range(ny) for _ in range(nx)]
    cols = [str(ix) for ix in range(nx)] * ny
    paths = []
    for i in range(ens.n_members):
        path = os.path.join(outdir, f"{prefix}_{i:04d}.csv")
        dm.write_csv(path, ["row", "col", "value_hundredths_inch"],
                     [rows, cols, map(repr, ens.members[i].ravel().tolist())])
        paths.append(path)
    return paths


def write_scalar_ensemble_csv(values, path):
    """CSV rows ``member,value_hundredths_inch`` for scalar ensembles."""
    values = np.asarray(values, dtype=float).ravel()
    dm.write_csv(path, ["member", "value_hundredths_inch"],
                 [map(str, range(values.size)), map(repr, values.tolist())])
