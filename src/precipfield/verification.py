"""Proper scores, calibration diagnostics and rolling verification.

CRPS (ensemble and numeric forms), MAE of the predictive median, Brier
score, energy score, verification-rank / PIT / minimum-spanning-tree rank
histograms with point-mass randomization, and reliability tables;
:func:`verify_date` refits, forecasts and scores one date into a record,
:func:`run_verification` maps it over the valid dates into a report whose
tables are reductions of the records, and :func:`window_sweep` maps
:func:`_sweep_cell` over (window length, date) cells, all through the
per-date refit :func:`date_step`; :func:`eligible_dates` is the one rule
for the dates that the two run over.
"""

from __future__ import annotations

import functools
import logging
import os

import numpy as np
from scipy.special import ndtr

from . import data as dm
from . import estimation as est
from . import fields as rf
from . import forecasting as fc
from . import transforms as tr
from .errors import DomainError, NoTrainingData, NumericalError, PrecipError

SCORE_KEYS = ("mae", "crps", "bs")

log = logging.getLogger("precipfield")


def _float_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def _ensembles(members):
    """Members as a C-contiguous float array with the ensemble on the last
    axis, so that each ensemble reduces as one contiguous row: a row sums
    in the same order as the 1-D call on that ensemble alone."""
    x = np.ascontiguousarray(np.atleast_1d(members), dtype=float)
    if x.shape[-1] < 1:
        raise DomainError("empty ensemble")
    return x


def _half_spread(x):
    """Half the mean absolute member spread of each ensemble in ``x``.

    Over the sorted members x_(1) <= ... <= x_(m) it is
    sum_i (2i - m - 1) x_(i) / m^2 (Gneiting & Raftery 2007), so one sort
    replaces the m x m pair matrix. As a stacked (1, m) @ (m, 1) product each
    row takes the dot kernel of a 1-D ``np.dot``; a block gemv would not.
    """
    m = x.shape[-1]
    coef = np.arange(1 - m, m, 2, dtype=float)[:, None]
    return (np.sort(x)[..., None, :] @ coef)[..., 0, 0] / (m * m)


def crps_ensemble(members, obs):
    """CRPS of ensemble forecasts against observations.

    Mean absolute member error minus half the mean absolute member spread,
    over the last axis of ``members``: O(m log m) time and O(m) memory per
    ensemble. A 1-D ensemble and a scalar observation give a float; a
    (sites, members) block and one observation per site give an array.
    """
    x = _ensembles(members)
    term1 = np.abs(x - np.asarray(obs, dtype=float)[..., None]).mean(axis=-1)
    return _float_or_array(term1 - _half_spread(x))


def crps_numeric(cdf, obs, xi_max=None, tol=1e-8):
    """CRPS by adaptive quadrature of the squared CDF distance.

    ``cdf`` is a callable predictive CDF on [0, inf). The upper limit
    defaults to 10 units past the larger of the observation and the 0.999
    quantile (found by doubling search).
    """
    from scipy import integrate  # deferred: no command calls this

    obs = float(obs)
    if xi_max is None:
        hi = max(obs, 1.0)
        while cdf(hi) < 0.999:
            hi *= 2.0
            if hi > 1e12:
                raise NumericalError("predictive CDF does not reach 0.999")
        xi_max = max(obs, hi) + 10.0

    # Known CDF discontinuities (e.g. the steps of an empirical CDF) are
    # passed to the quadrature as breakpoints.
    steps = np.asarray(getattr(cdf, "breakpoints", ()), dtype=float)

    def _quad(f, a, b):
        if b <= a:
            return 0.0, 0.0
        pts = steps[(steps > a) & (steps < b)]
        return integrate.quad(f, a, b, epsabs=tol, limit=400,
                              points=pts if pts.size else None)

    below, err1 = _quad(lambda t: cdf(t) ** 2, 0.0, obs)
    above, err2 = _quad(lambda t: (cdf(t) - 1.0) ** 2, obs, xi_max)
    if err1 + err2 > 100 * tol + 1e-12:
        raise NumericalError("quadrature did not reach requested tolerance")
    return float(below + above)


def empirical_cdf(members):
    """Right-continuous empirical CDF of an ensemble, as a callable.

    Carries its step locations in ``breakpoints`` so that
    :func:`crps_numeric` can integrate it accurately.
    """
    x = np.sort(np.asarray(members, dtype=float))

    def cdf(t):
        return np.searchsorted(x, t, side="right") / x.size

    cdf.breakpoints = np.unique(x)
    return cdf


def mae_of_median(members, obs):
    """Absolute error of the ensemble median (midpoint rule for even m),
    over the last axis of ``members`` as in :func:`crps_ensemble`."""
    return _float_or_array(np.abs(np.median(_ensembles(members), axis=-1) - obs))


def brier_score(prob, occurred):
    """Quadratic score of probability forecasts for binary events.

    ``float_power`` squares with the C library's ``pow``, as Python's float
    ``**`` does; numpy's ``**`` multiplies, which differs in the last bit
    for some values.
    """
    prob = np.asarray(prob, dtype=float)
    if not np.all((prob >= 0.0) & (prob <= 1.0)):
        raise DomainError("probability must lie in [0, 1]")
    return _float_or_array(np.float_power(prob - np.asarray(occurred, dtype=bool), 2))


def energy_score(members, obs):
    """Energy score of a vector ensemble against a vector observation."""
    x = np.asarray(members, dtype=float)
    obs = np.atleast_1d(np.asarray(obs, dtype=float))
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != obs.size:
        raise DomainError("dimension mismatch between members and observation")
    term1 = np.linalg.norm(x - obs, axis=1).mean()
    term2 = 0.5 * rf.pairwise_distances(x).mean()
    return float(term1 - term2)


def verification_rank(members, obs, rng):
    """Rank of each observation in its ensemble over the last axis of
    ``members``, in {1, ..., m + 1}: 1 + (members below) + a uniform draw
    from {0, ..., ties}, so a zero observation (members are nonnegative)
    ranks uniformly among the zero members. The draws are one
    ``rng.integers`` call, which numpy fills element by element, as 1-D
    calls in row order would. A 1-D ensemble, shared by every observation,
    is sorted once and searched: memory stays O(members + observations).
    """
    x = _ensembles(members)
    obs = np.asarray(obs, dtype=float)
    if x.ndim == 1:
        x = np.sort(x)
        below = np.searchsorted(x, obs, "left")
        ties = np.searchsorted(x, obs, "right") - below
    else:
        below = (x < obs[..., None]).sum(axis=-1)
        ties = (x == obs[..., None]).sum(axis=-1)
    ranks = 1 + below + rng.integers(0, ties + 1)
    return int(ranks) if np.ndim(ranks) == 0 else ranks


def pit_value(p0, marginal, obs, rng):
    """Randomized PIT of the mixed predictive CDF, element-wise: the CDF at
    a positive observation, and a uniform draw over the CDF's jump [0, p0]
    at a zero one, all in one ``rng.uniform`` call as in
    :func:`verification_rank`.
    """
    pit = np.asarray(tr.mixed_cdf(p0, marginal, obs))
    zero = np.asarray(obs) == 0.0
    pit[zero] = rng.uniform(0.0, pit[zero])  # the CDF at zero is p0, bit for bit
    return _float_or_array(pit)


def _mst_lengths_without(dist):
    """For each point k of the distance matrix ``dist``, the total edge
    weight of the minimum spanning tree of all the other points.

    One batched Prim's algorithm: row k grows the tree without point k from
    its lowest remaining index, adding at each of the n - 2 steps the
    nearest point outside it (the first such in index order), so each
    length is summed exactly as Prim's algorithm on that subset alone sums
    it. Memory is O(n^2).
    """
    n = dist.shape[0]
    tree = np.arange(n)
    in_tree = np.eye(n, dtype=bool)
    start = (tree == 0).astype(np.intp)  # point 0, or point 1 in the tree without 0
    in_tree[tree, start] = True
    best = dist[start]
    total = np.zeros(n)
    for _ in range(n - 2):
        j = np.argmin(np.where(in_tree, np.inf, best), axis=1)
        total += best[tree, j]
        in_tree[tree, j] = True
        np.minimum(best, dist[j], out=best)
    return total


def mst_rank(members, obs, rng):
    """Minimum-spanning-tree rank of a vector observation, in {1, ..., m+1}.

    Compares the ensemble-only MST length against the m lengths obtained by
    substituting the observation for each member; ties randomized.
    """
    x = np.asarray(members, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    m = x.shape[0]
    if m < 1:
        raise DomainError("empty ensemble")
    obs = np.atleast_1d(np.asarray(obs, dtype=float))
    lengths = _mst_lengths_without(rf.pairwise_distances(np.vstack([x, obs])))
    # Without the observation (the last point) the tree is the ensemble's own.
    return verification_rank(lengths[:m], lengths[m], rng)


RELIABILITY_BINS = 10


def reliability_table(probs, outcomes):
    """Observed frequency of occurrence per equal-width probability bin,
    one row for each of the ``RELIABILITY_BINS``."""
    probs = np.asarray(probs, dtype=float)
    outcomes = np.asarray(outcomes, dtype=float)
    if probs.shape != outcomes.shape:
        raise DomainError("probs and outcomes must have equal length")
    edges = np.linspace(0.0, 1.0, RELIABILITY_BINS + 1)
    rows = []
    idx = np.clip(np.digitize(probs, edges[1:-1]), 0, RELIABILITY_BINS - 1)
    for b in range(RELIABILITY_BINS):
        mask = idx == b
        count = int(mask.sum())
        rows.append(
            {
                "bin_center": float((edges[b] + edges[b + 1]) / 2),
                "mean_forecast_prob": float(probs[mask].mean()) if count else 0.0,
                "observed_frequency": float(outcomes[mask].mean()) if count else 0.0,
                "count": count,
            }
        )
    return rows


def rank_histogram(ranks, n_categories):
    """Counts of ranks 1..n_categories; counts sum to the input length."""
    ranks = np.asarray(ranks, dtype=int)
    return np.bincount(ranks, minlength=n_categories + 1)[1:].copy()


def pit_histogram(values, n_bins=20):
    """Equal-width histogram of PIT values on [0, 1]."""
    values = np.asarray(values, dtype=float)
    counts, _ = np.histogram(values, bins=n_bins, range=(0.0, 1.0))
    return counts


def chi_square_uniform(counts):
    """Chi-square statistic against a discrete uniform distribution."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / counts.size
    if expected == 0:
        return 0.0
    return float(((counts - expected) ** 2 / expected).sum())


def _mean(values):
    return float(np.mean(values)) if len(values) else float("nan")


class VerificationReport:
    """The records of the verified dates (see :func:`verify_date`), in date
    order, and the two ensemble sizes that bin their ranks. Every table of
    the report is a reduction of the records; :meth:`write` writes them."""

    def __init__(self, days, members, mst_members):
        self.days = days
        self.members = members
        self.mst_members = mst_members

    def _pooled(self, key):
        """Each method's ``key`` values over every date, in date order."""
        values = {}
        for record in self.days:
            for method, entry in record["methods"].items():
                if key in entry:
                    values.setdefault(method, []).append(entry[key])
        return {method: np.hstack(v) for method, v in values.items()}

    def summary(self):
        """One row per scored method: its number of cases and its mean
        scores, and its mean energy score (nan when it has none)."""
        energy = self._pooled("energy")
        return [{"method": method, "n_cases": scores.shape[1],
                 **{key: _mean(row) for key, row in zip(SCORE_KEYS, scores)},
                 "es": _mean(energy.get(method, ()))}
                for method, scores in sorted(self._pooled("scores").items())]

    def write(self, outdir):
        """Write scores.csv a date at a time, one row per case and method,
        site by site with the methods in their record order; summary.csv;
        reliability.csv; and the rank, PIT and MST histograms. Site ids are
        quoted as in a dataset CSV."""
        os.makedirs(outdir, exist_ok=True)
        path = functools.partial(os.path.join, outdir)

        def scores_blocks():
            for record in self.days:
                scores = {method: entry["scores"] for method, entry in record["methods"].items()
                          if "scores" in entry}
                template = "".join([f"{method},{record['date']},{site_id},%r,%r,%r\n"
                                    for site_id in map(dm.template_field, record["site_ids"])
                                    for method in scores])
                values = np.array(list(scores.values()), dtype=float)  # (methods, keys, sites)
                yield template % tuple(values.transpose(2, 0, 1).ravel().tolist())

        dm.write_csv(path("scores.csv"), ["method", "date", "site_id", *SCORE_KEYS],
                     scores_blocks())
        dm.write_table(path("summary.csv"), ["method", "n_cases", *SCORE_KEYS, "es"],
                       self.summary())
        # The leading [] lets a report without dates write its empty tables.
        occurred = np.hstack([[], *(record["occurred"] for record in self.days)])
        dm.write_table(path("reliability.csv"), ["method", "bin_center", "mean_forecast_prob",
                                                 "observed_frequency", "count"],
                       [{"method": method, **row}
                        for method, probs in sorted(self._pooled("prob").items())
                        for row in reliability_table(probs, occurred)])
        for name, key, histogram in (
                ("rank_hist.csv", "ranks", lambda v: rank_histogram(v, self.members + 1)),
                ("pit_hist.csv", "pit", pit_histogram),
                ("mst_hist.csv", "mst", lambda v: rank_histogram(v, self.mst_members + 1))):
            dm.write_table(path(name), ["method", "bin", "count"], [
                {"method": method, "bin": b, "count": int(count)}
                for method, values in sorted(self._pooled(key).items())
                for b, count in enumerate(histogram(values), start=1)])


def warn_fit_diagnostics(model, valid_date, M):
    """Log a WARNING when a range fitted for ``valid_date`` with window
    length ``M`` stopped at an end of ``estimation.RANGE_SEARCH_KM`` (one
    line for both ranges), and one for each search that did not converge."""
    diag, amount = model.diagnostics, model.amount
    searches = (("rho", "occurrence-range", f"rho_km = {model.rho.range_km!r}"),
                ("r", "amount-range", f"r_km = {model.r.range_km!r}"),
                ("variance", "Gamma variance", f"nu0 = {amount.nu0!r}, nu1 = {amount.nu1!r}"))
    hits = [where for key, _, where in searches if diag.get(f"{key}_at_bound")]
    if hits:
        log.warning("%s M=%d: %s at the search bound %s km; using it anyway",
                    valid_date, M, ", ".join(hits), est.RANGE_SEARCH_KM)
    for key, search, where in searches:
        if not diag.get(f"{key}_converged", True):
            log.warning("%s M=%d: the %s search stopped unconverged after %d evaluations "
                        "at %s; using it anyway", valid_date, M, search, diag[f"{key}_evals"],
                        where)


def eligible_dates(dataset, M, last=None):
    """The last ``last`` dates of ``dataset`` (all of them when None) that
    have ``M`` earlier dates, so that a window of ``M`` days fits before
    each; raises :class:`NoTrainingData` when no date has."""
    eligible = dataset.dates[M:]  # sorted and unique
    if not eligible:
        raise NoTrainingData(f"not enough history for M={M}")
    return eligible if last is None else eligible[-last:]


def date_step(dataset, valid_date, M, forecast):
    """One step of rolling verification: fit on the ``M`` days before
    ``valid_date`` (warning about its diagnostics), look up that date's
    sites, forecasts and observations, and draw ``forecast(model, sites,
    fcst)``. Returns ``(model, sites, fcst, obs, drawn)``, or None when a
    stage raises a PrecipError: the date is then skipped with a WARNING
    naming the stage (window, fit, load or forecast) and the error."""
    stage = "window"
    try:
        window = est.make_window(dataset, valid_date, M)
        stage = "fit"
        model = est.fit_model(window)
        warn_fit_diagnostics(model, valid_date, M)
        stage = "load"
        sites, fcst, obs = dm.day_arrays(dataset, valid_date)
        stage = "forecast"
        return model, sites, fcst, obs, forecast(model, sites, fcst)
    except PrecipError as exc:
        log.warning("skip %s at stage %s: %s: %s",
                    valid_date, stage, type(exc).__name__, exc)
        return None


def verify_date(ds, di, valid_date, window_days, members, mst_members, seed):
    """Refit, forecast (by :func:`date_step`) and score the ``di``-th date of
    a run for empirical climatology, the raw NWP point forecast, the
    no-spatial-correlation baseline and the two-stage spatial model, the
    last two from one ensemble each; its draws are seeded by ``seed`` and
    ``di`` alone. Returns None for a skipped date, else its record: the
    ``date``, ``site_ids``, each site's ``occurred`` flag and, under
    ``methods``, each method's ``scores`` (a (3, sites) array of
    ``SCORE_KEYS``), ``prob``, ``ranks``, ``pit``, ``mst`` and ``energy``,
    where it has them; the climatology PIT from its ranks is the method
    ``climatology_rank``."""
    n = max(members, mst_members)
    seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(di, k)) for k in range(2)]

    def draw(model, sites, fcst):
        # By the prefix contract, the first k members of an ensemble of n are
        # the k-member ensemble, for k = members and for k = mst_members.
        forecast = fc.SiteForecast(model, sites, fcst)
        spatial = forecast.members(n, seeds[0])
        return forecast, {"independence": forecast.members(n, seeds[1], spatial=False),
                          "spatial": spatial}

    step = date_step(ds, valid_date, window_days, draw)
    if step is None:
        return None
    _, sites, fcst, obs, (forecast, ensembles) = step
    p_wet = ndtr(forecast.mu)

    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(1000 + di,)))
    clim = dm.split_by_date(ds, valid_date)[0].obs
    clim_p0 = float((clim == 0).mean())

    # Every site's scores at once. The history is one ensemble shared by
    # all sites: its spread term is taken once, and its absolute errors
    # one site at a time, so that memory stays O(history). The raw NWP
    # point forecast's CRPS reduces to its absolute error.
    occurred = obs > 0
    clim_crps = (np.array([np.abs(clim - o).mean() for o in obs.tolist()])
                 - _half_spread(_ensembles(clim)))
    nwp_error = np.abs(fcst - obs)
    columns = {  # method -> its probabilities of precipitation, MAEs and CRPSs
        "climatology": (np.full(len(obs), 1.0 - clim_p0), mae_of_median(clim, obs), clim_crps),
        "nwp": ((fcst > 0).astype(float), nwp_error, nwp_error)}
    for name, ens in ensembles.items():
        columns[name] = (p_wet, mae_of_median(ens[:members].T, obs),
                         crps_ensemble(ens[:members].T, obs))
    methods = {m: {"prob": prob, "scores": np.array([mae, crps, brier_score(prob, occurred)])}
               for m, (prob, mae, crps) in columns.items()}
    methods["nwp"]["energy"] = float(np.linalg.norm(fcst - obs))

    # The random draws, each a block over the sites, in a fixed order.
    clim_pit = methods["climatology"]["pit"] = empirical_cdf(clim)(obs)
    zero = obs == 0.0
    clim_pit[zero] = rng.uniform(0.0, clim_pit[zero])  # the history's CDF at zero is clim_p0
    for name, ens in ensembles.items():
        methods[name]["ranks"] = verification_rank(ens[:members].T, obs, rng)
    # Climatology ranks scale to [0, 1] (the history is large).
    methods["climatology_rank"] = {"pit": (verification_rank(clim, obs, rng) - 0.5)
                                   / (clim.size + 1)}
    methods["spatial"]["pit"] = pit_value(
        1.0 - p_wet, tr.GammaMarginal(forecast.alpha, forecast.beta), obs, rng)

    # Multivariate scores over the day's sites.
    for name, ens in ensembles.items():
        methods[name]["energy"] = energy_score(ens[:mst_members], obs)
        methods[name]["mst"] = mst_rank(ens[:mst_members], obs, rng)
    return {"date": valid_date, "site_ids": [s.id for s in sites], "occurred": occurred,
            "methods": methods}


def run_verification(ds, valid_dates, window_days, members, mst_members, seed):
    """Rolling verification over ``valid_dates``: :func:`verify_date` on
    each date, in order. Returns the report of the verified dates and the
    number of dates skipped."""
    records = [verify_date(ds, di, valid_date, window_days, members, mst_members, seed)
               for di, valid_date in enumerate(valid_dates)]
    days = [record for record in records if record is not None]
    return VerificationReport(days, members, mst_members), len(records) - len(days)


SWEEP_HEADER = ("M", "mean_crps", "se_crps", "n_cases", "n_skipped")


def _sweep_cell(dataset, di, valid_date, M, n_members, seed):
    """The site CRPS of the spatial ensemble of ``n_members`` for the
    ``di``-th date and window length ``M``, or None when :func:`date_step`
    skips the cell; its members are seeded by ``seed``, ``M`` and ``di``."""
    def draw(model, sites, fcst):
        member_seed = np.random.SeedSequence(entropy=seed, spawn_key=(M, di))
        return fc.SiteForecast(model, sites, fcst).members(n_members, member_seed)

    step = date_step(dataset, valid_date, M, draw)
    if step is None:
        return None
    _, _, _, obs, members = step
    return crps_ensemble(members.T, obs)


def window_sweep(dataset, valid_dates, Ms, n_members, seed):
    """Mean site-level ensemble CRPS per training-window length.

    Returns a list of rows keyed by ``SWEEP_HEADER``; a (M, date) cell that
    :func:`date_step` skips is counted in n_skipped.
    """
    rows = []
    for M in Ms:
        cells = [_sweep_cell(dataset, di, valid_date, M, n_members, seed)
                 for di, valid_date in enumerate(valid_dates)]
        scores = [s for cell in cells if cell is not None for s in cell]
        se = np.std(scores, ddof=1) / np.sqrt(len(scores)) if len(scores) > 1 else np.nan
        rows.append({"M": M, "mean_crps": _mean(scores), "se_crps": float(se),
                     "n_cases": len(scores), "n_skipped": sum(cell is None for cell in cells)})
    return rows
