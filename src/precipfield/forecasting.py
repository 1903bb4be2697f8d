"""Sampled predictive distributions from a fitted model.

Site ensembles, gridded field ensembles via circulant embedding, areal
averages, and the no-spatial-correlation baseline with identical marginals.
All of them draw members through one two-stage kernel, :func:`_draw_members`,
a generator that takes every member's latent fields from one Generator,
member by member, and thresholds, transforms and yields each block of
members as it is drawn. :class:`SiteForecast` and :class:`GridForecast` run
every check of a forecast before the first member is drawn. The ``forecast``
command sends each block straight to its writer (in areal mode, each
block's row means), so it holds one block whatever the member count; the
``generate_*`` ensembles, which ``verify`` scores whole, fill one array from
the same generator. The writers take the sites or the grid and an iterable
of blocks, and stream each file through ``%``-templates: one per block of a
site or scalar file, one for every grid member file.
"""

from __future__ import annotations

import itertools
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
    """Two-stage member draw shared by every ensemble, as a generator of
    member blocks.

    ``draw(rng, k)`` returns the correlated occurrence and amount normal
    blocks of the next k <= ``block`` members, each ``(k,) + mu.shape``,
    taken member by member from one Generator, ``default_rng(seed)``: the
    first k members of an n-member ensemble are the k-member ensemble, and
    the block size moves no bit. Threshold and anamorphosis run on each
    block as it is drawn, and each block is yielded as soon as it is done.
    """
    rng = np.random.default_rng(seed)
    for i in range(0, n_members, block):
        w, z = draw(rng, min(block, n_members - i))
        w += mu
        yield tr.wet_amounts(w, z, alpha, beta)


def _whole(blocks, n_members, shape):
    """The ``n_members`` members of a block generator in one array."""
    members = np.empty((n_members,) + shape)
    i = 0
    for block in blocks:
        members[i:i + len(block)] = block
        i += len(block)
    return members


class SiteForecast:
    """A forecast at scattered sites, checked and ready to draw.

    Construction checks that there is one forecast per site and computes
    its :func:`two_stage_params` once; ``fallback_sites`` holds the indices
    of the sites that took the fallback mean. Nothing is drawn until the
    generator of :meth:`member_blocks` is consumed.
    """

    def __init__(self, model, sites, fcst_accum):
        if len(sites) < 1:
            raise DomainError("need at least one site")
        fcst_accum = np.atleast_1d(np.asarray(fcst_accum, dtype=float))
        if fcst_accum.shape != (len(sites),):
            raise DomainError(f"{fcst_accum.size} forecasts for {len(sites)} sites")
        self.model, self.sites = model, list(sites)
        self.mu, self.alpha, self.beta, fell_back = two_stage_params(model, fcst_accum)
        self.fallback_sites = np.flatnonzero(fell_back).tolist()

    def member_blocks(self, n_members, seed, spatial=True):
        """The ``n_members`` members as a generator of ``(k, sites)``
        blocks, k <= ``SITE_BLOCK``. The two correlation matrices are
        factorised before this returns (identities for the
        no-spatial-correlation baseline when not ``spatial``), so every
        check has run before the first member is drawn.
        """
        if spatial:
            chols = [rf.cholesky_pd(rf.correlation_matrix(self.sites, corr))
                     for corr in (self.model.rho, self.model.r)]
        else:  # a gemv against the identity returns each normal exactly
            chols = [np.eye(len(self.sites))] * 2

        def draw(rng, k):
            # Each member's occurrence normals, then its amount normals. The
            # stacked matmul is one gemv per member, so unlike a gemm it rounds
            # alike at any k.
            e = rng.standard_normal((k, 2, len(self.sites), 1))
            return (chols[0] @ e[:, 0])[..., 0], (chols[1] @ e[:, 1])[..., 0]

        return _draw_members(self.mu, self.alpha, self.beta, draw, n_members, seed, SITE_BLOCK)

    def areal_blocks(self, n_members, seed):
        """The areal average over the sites of each member, as a generator
        of one block of averages per block of :meth:`member_blocks`."""
        return (block.mean(axis=1) for block in self.member_blocks(n_members, seed))


class GridForecast:
    """A gridded forecast, checked and ready to draw by circulant embedding.

    Construction checks the field's shape, builds both embeddings and
    computes the cell-wise :func:`two_stage_params` once;
    ``fallback_sites`` holds the flat indices of the fallback cells.
    """

    def __init__(self, model, grid, fcst_field):
        fcst_field = np.asarray(fcst_field, dtype=float)
        if fcst_field.shape != (grid.ny, grid.nx):
            raise DomainError("forecast field shape does not match grid")
        self._embeddings = (rf.CirculantEmbedding(grid, model.rho),
                            rf.CirculantEmbedding(grid, model.r))
        self.mu, self.alpha, self.beta, fell_back = two_stage_params(model, fcst_field)
        self.fallback_sites = np.flatnonzero(fell_back).tolist()

    def member_blocks(self, n_members, seed):
        """The ``n_members`` fields as a generator of ``(k, ny, nx)``
        blocks, k <= 2."""
        emb_w, emb_z = self._embeddings

        def draw(rng, k):
            # A pair of members shares one FFT per field: its real and imaginary
            # parts. An odd count still draws its last pair.
            w, z = emb_w.sample(rng, 2), emb_z.sample(rng, 2)
            return w[:k], z[:k]

        return _draw_members(self.mu, self.alpha, self.beta, draw, n_members, seed, 2)


def _site_ensemble(model, sites, fcst_accum, n_members, seed, spatial):
    forecast = SiteForecast(model, sites, fcst_accum)
    members = _whole(forecast.member_blocks(n_members, seed, spatial), n_members,
                     forecast.mu.shape)
    return ForecastEnsemble(members=members, sites=forecast.sites,
                            fallback_sites=forecast.fallback_sites)


def generate_site_ensemble(model, sites, fcst_accum, n_members, seed):
    """Ensemble of accumulations at scattered sites.

    Per member: draw the latent occurrence field, draw the amount field,
    zero out dry sites and push wet sites through the anamorphosis, then
    cube back to the accumulation scale.
    """
    return _site_ensemble(model, sites, fcst_accum, n_members, seed, spatial=True)


def independence_baseline_ensemble(model, sites, fcst_accum, n_members, seed):
    """Spatially independent counterpart: identical marginals, identity
    correlations for both latent processes."""
    return _site_ensemble(model, sites, fcst_accum, n_members, seed, spatial=False)


def generate_grid_ensemble(model, grid, fcst_field, n_members, seed):
    """Ensemble of gridded accumulation fields via circulant embedding.

    Gamma parameters are computed cell-wise from the gridded forecast;
    ``fallback_sites`` holds the flat indices of fallback cells.
    """
    forecast = GridForecast(model, grid, fcst_field)
    members = _whole(forecast.member_blocks(n_members, seed), n_members, forecast.mu.shape)
    return ForecastEnsemble(members=members, grid=grid, fallback_sites=forecast.fallback_sites)


def areal_ensemble(model, sites, fcst_accum, n_members=DEFAULT_AREAL_MEMBERS, seed=0):
    """Scalar ensemble of areally averaged accumulation over a site subset."""
    return _whole(SiteForecast(model, sites, fcst_accum).areal_blocks(n_members, seed),
                  n_members, ())


def _member_rows(lines, blocks):
    """The CSV text of each block of members in turn: a member's rows are
    ``lines`` joined by its number, a ``%``-template filled with its values
    in order. Members are numbered from 0 across the blocks."""
    first = 0
    for block in blocks:
        block = np.asarray(block, dtype=float)
        yield ("".join([str(m).join(lines) for m in range(first, first + len(block))])
               % tuple(block.ravel().tolist()))
        first += len(block)


def write_site_ensemble_csv(sites, blocks, path):
    """CSV rows ``member,site_id,value_hundredths_inch``, member-major, from
    an iterable of ``(k, sites)`` member blocks, each written as it
    arrives."""
    # Joined by a member number, the site lines become that member's rows.
    lines = ["", *(f",{dm.template_field(site.id)},%r\n" for site in sites)]
    dm.write_csv(path, ["member", "site_id", "value_hundredths_inch"], _member_rows(lines, blocks))


def write_grid_ensemble_csvs(grid, blocks, outdir):
    """One CSV per member, ``GRID_MEMBER_FILE``, with rows
    ``row,col,value_hundredths_inch``, from an iterable of ``(k, ny, nx)``
    member blocks; each file is written as its member arrives."""
    template = "".join([f"{iy},{ix},%r\n" for iy in range(grid.ny) for ix in range(grid.nx)])
    for i, member in enumerate(itertools.chain.from_iterable(blocks)):
        dm.write_csv(os.path.join(outdir, GRID_MEMBER_FILE.format(i)),
                     ["row", "col", "value_hundredths_inch"],
                     [template % tuple(member.ravel().tolist())])


def write_scalar_ensemble_csv(blocks, path):
    """CSV rows ``member,value_hundredths_inch`` for scalar ensembles, from
    an iterable of 1-D blocks of values, each written as it arrives."""
    dm.write_csv(path, ["member", "value_hundredths_inch"], _member_rows(["", ",%r\n"], blocks))
