"""Sampled predictive distributions from a fitted model.

Site ensembles, gridded field ensembles via circulant embedding, areal
averages, and the no-spatial-correlation baseline with identical marginals.
All of them draw members through one two-stage kernel, :func:`_draw_members`,
which takes every member's latent fields from one Generator, member by
member, and thresholds and transforms each block of members as it is drawn.
The writers stream each file through ``%``-templates built once.
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
SITE_BLOCK = 256  # site members drawn, transformed and written at a time


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
    seen in training, the model's ``diag.min_training_mean`` (forecasts
    must still be emitted); they are flagged in the returned boolean array.
    A model without that key raises :class:`NonpositiveMean` instead.
    """
    fcst_cr = tr.cube_root(fcst_accum)
    zero_flag = fcst_accum == 0.0
    mu = tr.occurrence_trend(model.occurrence, fcst_cr, zero_flag)
    alpha, beta, fell_back = tr.gamma_marginals(model.amount, fcst_cr, zero_flag,
                                                model.diagnostics.get("min_training_mean"))
    return mu, alpha, beta, fell_back


def _site_marginals(model, fcst_cr, zero_flag):
    """Per-site Gamma marginals with the nonpositive-mean fallback, as a
    list, plus the indices of the sites that fell back."""
    alpha, beta, fell_back = tr.gamma_marginals(model.amount, fcst_cr, zero_flag,
                                                model.diagnostics.get("min_training_mean"))
    marginals = [tr.GammaMarginal(float(a), float(b)) for a, b in zip(alpha, beta)]
    return marginals, np.flatnonzero(fell_back).tolist()


def _draw_members(mu, alpha, beta, draw, n_members, seed, block):
    """Two-stage member draw shared by every ensemble.

    ``draw(rng, k)`` returns the correlated occurrence and amount normal
    blocks of the next k <= ``block`` members, each ``(k,) + mu.shape``,
    taken member by member from one Generator, ``default_rng(seed)``: the
    first k members of an n-member ensemble are the k-member ensemble.
    Threshold and anamorphosis run on each block as it is drawn, so working
    memory beyond the ensemble itself is one block.
    """
    rng = np.random.default_rng(seed)
    members = np.empty((n_members,) + mu.shape)
    for i in range(0, n_members, block):
        w, z = draw(rng, min(block, n_members - i))
        w += mu
        members[i:i + len(w)] = tr.wet_amounts(w, z, alpha, beta)
    return members


def _site_ensemble(model, sites, fcst_accum, n_members, seed, chols):
    if len(sites) < 1:
        raise DomainError("need at least one site")
    fcst_accum = np.atleast_1d(np.asarray(fcst_accum, dtype=float))
    if fcst_accum.shape != (len(sites),):
        raise DomainError(f"{fcst_accum.size} forecasts for {len(sites)} sites")
    mu, alpha, beta, fell_back = two_stage_params(model, fcst_accum)

    def draw(rng, k):
        # Each member's occurrence normals, then its amount normals. The
        # stacked matmul is one gemv per member, so unlike a gemm it rounds
        # alike at any k.
        e = rng.standard_normal((k, 2, len(sites), 1))
        return (chols[0] @ e[:, 0])[..., 0], (chols[1] @ e[:, 1])[..., 0]

    members = _draw_members(mu, alpha, beta, draw, n_members, seed, SITE_BLOCK)
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
    correlations for both latent processes. A gemv against the identity
    returns each normal exactly."""
    return _site_ensemble(model, sites, fcst_accum, n_members, seed, [np.eye(len(sites))] * 2)


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

    def draw(rng, k):
        # A pair of members shares one FFT per field: its real and imaginary
        # parts. An odd count still draws its last pair.
        w, z = emb_w.sample(rng, 2), emb_z.sample(rng, 2)
        return w[:k], z[:k]

    members = _draw_members(mu, alpha, beta, draw, n_members, seed, 2)
    return ForecastEnsemble(members=members, grid=grid,
                            fallback_sites=np.flatnonzero(fell_back).tolist())


def areal_ensemble(model, sites, fcst_accum, n_members=DEFAULT_AREAL_MEMBERS, seed=0):
    """Scalar ensemble of areally averaged accumulation over a site subset."""
    ens = generate_site_ensemble(model, sites, fcst_accum, n_members, seed)
    return ens.members.mean(axis=1)


def write_site_ensemble_csv(ens, path):
    """CSV rows ``member,site_id,value_hundredths_inch``, member-major,
    written ``SITE_BLOCK`` members at a time."""
    n = len(ens.members)
    # Joined by a member number, the site lines become that member's rows.
    lines = ["", *(f",{dm.template_field(site.id)},%r\n" for site in ens.sites)]
    dm.write_csv(path, ["member", "site_id", "value_hundredths_inch"], (
        "".join([str(m).join(lines) for m in range(i, min(i + SITE_BLOCK, n))])
        % tuple(ens.members[i:i + SITE_BLOCK].ravel().tolist())
        for i in range(0, n, SITE_BLOCK)))


def write_grid_ensemble_csvs(ens, outdir):
    """One CSV per member, ``GRID_MEMBER_FILE``, with rows
    ``row,col,value_hundredths_inch``."""
    ny, nx = ens.grid.ny, ens.grid.nx
    template = "".join([f"{iy},{ix},%r\n" for iy in range(ny) for ix in range(nx)])
    for i, member in enumerate(ens.members):
        dm.write_csv(os.path.join(outdir, GRID_MEMBER_FILE.format(i)),
                     ["row", "col", "value_hundredths_inch"],
                     [template % tuple(member.ravel().tolist())])


def write_scalar_ensemble_csv(values, path):
    """CSV rows ``member,value_hundredths_inch`` for scalar ensembles."""
    values = np.asarray(values, dtype=float).ravel()
    template = "".join([f"{m},%r\n" for m in range(values.size)])
    dm.write_csv(path, ["member", "value_hundredths_inch"], [template % tuple(values.tolist())])
