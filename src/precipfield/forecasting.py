"""Sampled predictive distributions from a fitted model.

Site ensembles, gridded field ensembles via circulant embedding, areal
averages, and the no-spatial-correlation baseline with identical marginals.
All of them draw members through one two-stage kernel, :func:`_draw_members`,
which takes every member's latent fields from one Generator, member by
member, in the calling process, and returns them as :class:`MemberBlocks`:
the numbered blocks of normals, with the work left to do on each block
(threshold and anamorphosis, then whatever the consumer adds). That work
runs in forked worker processes, one per usable CPU up to one per block, and
its results come back in member order, so no output depends on the number
of CPUs. :class:`SiteForecast` and :class:`GridForecast` run every check of
a forecast before the first member is drawn. The ``forecast`` command hands
the blocks straight to its writer, which adds its formatting to each block's
work (in areal mode after the block's row means), so it holds a few blocks
whatever the member count; the ``generate_*`` ensembles, which ``verify``
scores whole, fill one array from the same blocks. The writers take the
sites or the grid and the blocks (or any iterable of member arrays), and
stream each file through ``%``-templates: one per block of a site or scalar
file, one for every grid member file.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import signal
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


def _usable_cpus():
    """The CPUs this process may run on, or 1 where the platform cannot fork
    or does not say."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _worker_count(n_blocks, cpus):
    """Workers for ``n_blocks`` blocks on ``cpus`` CPUs: one per CPU, but
    no more than there are blocks; 1 means the calling process does the
    work itself."""
    return max(1, min(cpus, n_blocks))


@contextlib.contextmanager
def _ordered_map(fn, items, jobs):
    """An iterator of ``fn(item)`` for each item in turn, computed by
    ``jobs`` forked workers, or by plain ``map`` when ``jobs`` <= 1.

    ``fn`` is fixed when the workers fork, so it need not pickle (the only
    other threads of a CLI process are OpenBLAS's, which stop at a fork);
    items and results go through one pipe per worker. Items go round-robin,
    one in flight per worker (two deadlock on full pipe buffers), and the
    next item is sent before a result is yielded, so results come back in
    item order. ``items`` is consumed in the calling process. Worker k runs
    on the k-th of this process's CPUs (in turn, if there are fewer): left
    to the scheduler, workers woken by the pipe often share the caller's
    CPU while another stays idle. A worker's exception is sent back and
    raised here. On leaving the context every worker is stopped and joined,
    on success and on error.
    """
    if jobs <= 1:
        yield map(fn, items)
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    cpus = sorted(os.sched_getaffinity(0))
    workers = []
    try:
        for k in range(jobs):
            mine, theirs = context.Pipe()
            proc = context.Process(target=_serve, daemon=True, args=(
                fn, theirs, [*(c for _, c in workers), mine], cpus[k % len(cpus)]))
            proc.start()
            theirs.close()
            workers.append((proc, mine))
        yield _in_order([conn for _, conn in workers], iter(items))
    finally:
        for _, conn in workers:
            conn.close()  # an idle worker reads EOF and returns
        for proc, _ in workers:
            proc.join()


def _in_order(conns, items):
    """The results of ``items`` sent round-robin to the workers at the
    other ends of ``conns``, in item order."""
    busy = []
    for conn, item in zip(conns, items):
        conn.send(item)
        busy.append(conn)
    while busy:
        conn = busy.pop(0)
        try:
            ok, value = conn.recv()
        except EOFError:
            raise ChildProcessError("a forecast worker exited before its block was done") from None
        if not ok:
            raise value
        item = next(items, None)
        if item is not None:
            conn.send(item)
            busy.append(conn)
        yield value


def _serve(fn, conn, inherited, cpu):
    """A worker on CPU ``cpu``: reply to each item read from ``conn`` with
    ``(True, fn(item))``, or ``(False, exception)``, until the parent closes
    its end. ``inherited`` are the parent's pipe ends that the fork copied;
    closing them here lets each worker see EOF from the parent alone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt
    os.sched_setaffinity(0, {cpu})
    for other in inherited:
        other.close()
    try:
        while True:
            try:
                item = conn.recv()
            except EOFError:
                return
            try:
                reply = True, fn(item)
            except Exception as exc:
                reply = False, exc
            conn.send(reply)
    except ConnectionError:  # the parent stopped reading after an error
        return


class MemberBlocks:
    """The blocks of an ensemble's members, numbered, and the work left to
    do on each.

    ``items`` yields ``(first, value)`` pairs, ``first`` the number of the
    block's first member; each of ``steps`` maps ``(first, value)`` to the
    block's next value. Within :meth:`results`, the items are drawn in the
    calling process and the steps run on each in ``jobs`` workers
    (:func:`_ordered_map`), giving the last step's values in member order.
    The items are consumed once.
    """

    def __init__(self, items, steps=(), jobs=1):
        self._items, self._steps, self._jobs = items, tuple(steps), jobs

    def then(self, step):
        """These blocks with ``step`` run on each after the steps so far."""
        return MemberBlocks(self._items, self._steps + (step,), self._jobs)

    def results(self):
        """A context whose value iterates each block's result in member
        order; its workers start when it is entered and are joined when it
        is left."""
        return _ordered_map(self._run, self._items, self._jobs)

    def _run(self, item):
        first, value = item
        for step in self._steps:
            value = step(first, value)
        return value

    @classmethod
    def of(cls, blocks):
        """``blocks`` as MemberBlocks: itself if it is one, else an
        iterable of member arrays, numbered in turn and worked on here."""
        if isinstance(blocks, cls):
            return blocks

        def numbered():
            first = 0
            for block in blocks:
                yield first, block
                first += len(block)

        return cls(numbered())


def _draw_members(mu, alpha, beta, draw, n_members, seed, block):
    """Two-stage member draw shared by every ensemble, as
    :class:`MemberBlocks` of at most ``block`` members.

    ``draw(rng, k)`` returns the correlated occurrence and amount normal
    blocks of the next k <= ``block`` members, each ``(k,) + mu.shape``,
    taken member by member from one Generator, ``default_rng(seed)``, in
    the calling process: the first k members of an n-member ensemble are
    the k-member ensemble, and the block size moves no bit. Threshold and
    anamorphosis are each block's first step, so they run in the workers.
    """
    rng = np.random.default_rng(seed)
    starts = range(0, n_members, block)

    def transform(first, normals):
        w, z = normals
        w += mu
        return tr.wet_amounts(w, z, alpha, beta)

    normals = ((i, draw(rng, min(block, n_members - i))) for i in starts)
    return MemberBlocks(normals, [transform], _worker_count(len(starts), _usable_cpus()))


def _whole(blocks, n_members, shape):
    """The ``n_members`` members of :class:`MemberBlocks` in one array."""
    members = np.empty((n_members,) + shape)
    i = 0
    with blocks.results() as values:
        for block in values:
            members[i:i + len(block)] = block
            i += len(block)
    return members


class SiteForecast:
    """A forecast at scattered sites, checked and ready to draw.

    Construction checks that there is one forecast per site and computes
    its :func:`two_stage_params` once; ``fallback_sites`` holds the indices
    of the sites that took the fallback mean. Nothing is drawn until the
    blocks of :meth:`member_blocks` are consumed.
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
        """The ``n_members`` members as :class:`MemberBlocks` of
        ``(k, sites)`` arrays, k <= ``SITE_BLOCK``. The two correlation
        matrices are factorised before this returns (identities for the
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

    def members(self, n_members, seed, spatial=True):
        """The ``n_members`` members of :meth:`member_blocks` in one
        ``(n_members, sites)`` array."""
        return _whole(self.member_blocks(n_members, seed, spatial), n_members, self.mu.shape)

    def areal_blocks(self, n_members, seed):
        """The areal average over the sites of each member, as one block of
        averages per block of :meth:`member_blocks`, taken in its worker."""
        return self.member_blocks(n_members, seed).then(_row_means)


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
        """The ``n_members`` fields as :class:`MemberBlocks` of
        ``(k, ny, nx)`` arrays, k <= 2."""
        emb_w, emb_z = self._embeddings

        def draw(rng, k):
            # A pair of members shares one FFT per field: its real and imaginary
            # parts. An odd count still draws its last pair.
            w, z = emb_w.sample(rng, 2), emb_z.sample(rng, 2)
            return w[:k], z[:k]

        return _draw_members(self.mu, self.alpha, self.beta, draw, n_members, seed, 2)


def _row_means(first, block):
    return block.mean(axis=1)


def _site_ensemble(model, sites, fcst_accum, n_members, seed, spatial):
    forecast = SiteForecast(model, sites, fcst_accum)
    return ForecastEnsemble(members=forecast.members(n_members, seed, spatial),
                            sites=forecast.sites,
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


def _member_text(lines, first, block):
    """The CSV text of a block of members whose first is number ``first``:
    a member's rows are ``lines`` joined by its number, a ``%``-template
    filled with its values in order."""
    block = np.asarray(block, dtype=float)
    return ("".join([str(m).join(lines) for m in range(first, first + len(block))])
            % tuple(block.ravel().tolist()))


def _write_blocks(path, header, blocks, text):
    """Write ``path`` from the ``text(first, block)`` of each block, a step
    of its work: for a forecast's blocks, done in its workers, which start
    before the file is opened."""
    with MemberBlocks.of(blocks).then(text).results() as texts:
        dm.write_csv(path, header, texts)


def write_site_ensemble_csv(sites, blocks, path):
    """CSV rows ``member,site_id,value_hundredths_inch``, member-major, from
    :class:`MemberBlocks` or an iterable of ``(k, sites)`` member blocks,
    each written as it arrives."""
    # Joined by a member number, the site lines become that member's rows.
    lines = ["", *(f",{dm.template_field(site.id)},%r\n" for site in sites)]
    _write_blocks(path, ["member", "site_id", "value_hundredths_inch"], blocks,
                  functools.partial(_member_text, lines))


def write_grid_ensemble_csvs(grid, blocks, outdir):
    """One CSV per member, ``GRID_MEMBER_FILE``, with rows
    ``row,col,value_hundredths_inch``, from :class:`MemberBlocks` or an
    iterable of ``(k, ny, nx)`` member blocks; each file is written as its
    member arrives."""
    template = "".join([f"{iy},{ix},%r\n" for iy in range(grid.ny) for ix in range(grid.nx)])

    def texts(first, block):
        return [template % tuple(member.ravel().tolist()) for member in np.asarray(block)]

    with MemberBlocks.of(blocks).then(texts).results() as block_texts:
        for i, text in enumerate(itertools.chain.from_iterable(block_texts)):
            dm.write_csv(os.path.join(outdir, GRID_MEMBER_FILE.format(i)),
                         ["row", "col", "value_hundredths_inch"], [text])


def write_scalar_ensemble_csv(blocks, path):
    """CSV rows ``member,value_hundredths_inch`` for scalar ensembles, from
    :class:`MemberBlocks` or an iterable of 1-D blocks of values, each
    written as it arrives."""
    _write_blocks(path, ["member", "value_hundredths_inch"], blocks,
                  functools.partial(_member_text, ["", ",%r\n"]))
